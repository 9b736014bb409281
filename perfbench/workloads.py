"""The four benchmark workloads.

Each workload writes its relaysec config from the workload seed, sets up
(config load and schema check, construction, and the first call that
fills lazy caches), then runs one operation at a time through the CLI's
command functions and checks what the command wrote.  Checks count
failed operations: one behavior batch (simulate), one verify record, one
scan grid point.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from reference import BULK, CALLS, ROWS

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

MIX = [
    {"kind": "honest"},
    {"kind": "substitute", "pattern": [1]},
    {"kind": "additive", "pattern": [1]},
    {"kind": "garble"},
]
BEHAVIORS = [b["kind"] for b in MIX]
SIM_TRIALS = 50  # trials per behavior batch; one op runs all four batches
# alpha = 3.6 gives codebook power 25.9, which meets the rate condition
GAUSSIAN = {"noiseless": False, "alpha": 3.6,
            "noise_var_relay": 0.1, "noise_var_dest": 0.1}
SCAN = {"kind": "leakage", "q": 11, "r": 1, "values": [1, 2, 3], "candidates": 64}
TOL = 1e-12


def _read_json(path: Path):
    return json.loads(path.read_text())


class SimWorkload:
    """`relaysec simulate` over the behavior mix, one batch per behavior."""

    unit = "trial"
    reference = CALLS
    sample_every_s = None
    ops_per_run = len(MIX)
    units_per_op = SIM_TRIALS * len(MIX)
    traced_ops = 5

    def __init__(self, name: str, protocol: dict, honest_max_decode_err: float):
        self.name = name
        self.protocol = protocol
        self.honest_max_decode_err = honest_max_decode_err
        self.expected = EXPECTED["simulate"][name]

    def config(self, seed: int) -> dict:
        return {"seed": seed, "workers": 1, "protocol": dict(self.protocol),
                "simulate": {"trials": SIM_TRIALS, "behaviors": MIX}}

    def setup(self, cli, config_path: Path, workdir: Path):
        cfg = cli.load_config(str(config_path))
        self.cli = cli
        self.out = workdir / f"{self.name}-op.json"
        self.batches = [dict(cfg, simulate={"trials": SIM_TRIALS, "behaviors": [b]})
                        for b in cfg["simulate"]["behaviors"]]
        for batch in self.batches:  # builds and caches the protocol instance
            warm = dict(batch, simulate=dict(batch["simulate"], trials=1))
            cli.cmd_simulate(warm, cfg["seed"], 1, str(self.out), "json")

    def run(self, seed: int):
        """One op: each behavior batch; returns (seconds, per-batch seconds, outputs)."""
        parts, outputs = [], []
        for batch in self.batches:
            t0 = time.perf_counter()
            rc = self.cli.cmd_simulate(batch, seed, 1, str(self.out), "json")
            parts.append(time.perf_counter() - t0)
            outputs.append((rc, _read_json(self.out)["rows"]))
        return sum(parts), parts, outputs

    def check(self, outputs) -> tuple[int, int, list[str]]:
        """Attempted and failed batches, and what failed in them."""
        failed, problems = 0, []
        exp = self.expected
        for (rc, rows), behavior in zip(outputs, BEHAVIORS):
            bad = []
            if rc != 0 or len(rows) != 1:
                bad.append(f"exit {rc}, {len(rows)} rows")
            else:
                row = rows[0]
                for key in ("n", "RT", "PT", "winBound"):
                    if row[key] != exp[key]:
                        bad.append(f"{key} {row[key]!r} != {exp[key]!r}")
                if row["trials"] != SIM_TRIALS:
                    bad.append(f"trials {row['trials']}")
                win = float(row["adversaryWinRate"])
                if win > float(row["winBound"]):
                    bad.append(f"adversaryWinRate {win} above winBound")
                if behavior == "honest":
                    dec = float(row["decodeErrRate"])
                    rej = float(row["falseRejectRate"])
                    if dec > self.honest_max_decode_err:
                        bad.append(f"honest decodeErrRate {dec}")
                    # noiseless: an honest relay must never cause a rejection either
                    if self.honest_max_decode_err == 0.0 and rej != 0.0:
                        bad.append(f"honest falseRejectRate {rej}")
            if bad:
                failed += 1
                problems.append(f"{behavior}: " + "; ".join(bad))
        return len(outputs), failed, problems


class VerifyWorkload:
    """`relaysec verify` over the default check list."""

    name = "verify-default"
    unit = "verify run"
    reference = ROWS
    sample_every_s = 0.5  # a run takes seconds; the machine's speed changes within it
    units_per_op = 1
    traced_ops = 1

    def __init__(self):
        self.expected = EXPECTED["verify"]
        self.ops_per_run = len(self.expected)

    def config(self, seed: int) -> dict:
        return {"seed": seed, "workers": 1}

    def setup(self, cli, config_path: Path, workdir: Path):
        self.cfg = cli.load_config(str(config_path))
        self.cli = cli
        self.out = workdir / f"{self.name}-op.json"
        cli._build_params(self.cfg)  # protocol and field construction, as verify does

    def run(self, seed: int):
        t0 = time.perf_counter()
        rc = self.cli.cmd_verify(self.cfg, seed, str(self.out))
        elapsed = time.perf_counter() - t0
        return elapsed, [elapsed], (rc, _read_json(self.out))

    def check(self, outputs) -> tuple[int, int, list[str]]:
        return check_verify(*outputs, self.expected)


def _matches(record: dict, entry: dict) -> bool:
    return record["name"] == entry["name"] and all(
        record["details"].get(k) == v for k, v in entry["key"].items())


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=TOL, abs_tol=TOL)
    return got == want


def check_verify(rc: int, report: dict, expected: list[dict]) -> tuple[int, int, list[str]]:
    """Each recorded record must be present, passed and equal its recorded values.

    Records the list does not name (checks added later) must still pass.
    """
    failed, problems = 0, []
    records = report.get("checks", [])
    if rc != 0 or report.get("all_passed") is not True:
        problems.append(f"exit {rc}, all_passed {report.get('all_passed')}")
    claimed = set()
    for entry in expected:
        hits = [i for i, r in enumerate(records) if _matches(r, entry) and i not in claimed]
        if not hits:
            failed += 1
            problems.append(f"missing record {entry['name']} {entry['key']}")
            continue
        claimed.add(hits[0])
        record = records[hits[0]]
        bad = [f"{k} {record['details'].get(k)!r} != {v!r}"
               for k, v in entry["values"].items()
               if not _same(record["details"].get(k), v)]
        if not record["passed"]:
            bad.append("not passed")
        if bad:
            failed += 1
            problems.append(f"{entry['name']} {entry['key']}: " + "; ".join(bad))
    for i, record in enumerate(records):
        if i not in claimed and not record["passed"]:
            failed += 1
            problems.append(f"{record['name']} {record['details']}: not passed")
    if problems and not failed:
        failed = 1  # a bad exit code or verdict fails the run even if records pass
    return max(len(records), len(expected)), failed, problems


class ScanWorkload:
    """`relaysec scan` with kind leakage: best sampled extractor per N."""

    name = "scan-leakage"
    unit = "leakage sweep"
    reference = BULK
    sample_every_s = None
    ops_per_run = len(SCAN["values"])
    units_per_op = 1
    traced_ops = 3

    def __init__(self):
        # exact leakage of every extractor class (rows up to scaling), per N
        self.classes = {int(n): v for n, v in EXPECTED["scan"]["class_leakage"].items()}

    def config(self, seed: int) -> dict:
        return {"seed": seed, "workers": 1, "scan": dict(SCAN)}

    def setup(self, cli, config_path: Path, workdir: Path):
        self.cfg = cli.load_config(str(config_path))
        self.cli = cli
        self.out = workdir / f"{self.name}-op.json"
        # a short sweep fills the observation-index cache for every N
        warm = dict(self.cfg, scan=dict(self.cfg["scan"], candidates=4))
        cli.cmd_scan(warm, self.cfg["seed"], str(self.out), "json")

    def run(self, seed: int):
        t0 = time.perf_counter()
        rc = self.cli.cmd_scan(self.cfg, seed, str(self.out), "json")
        elapsed = time.perf_counter() - t0
        return elapsed, [elapsed], (rc, _read_json(self.out)["rows"])

    def check(self, outputs) -> tuple[int, int, list[str]]:
        rc, rows = outputs
        failed, problems = 0, []
        if rc != 0 or [row.get("value") for row in rows] != SCAN["values"]:
            return self.ops_per_run, self.ops_per_run, [f"exit {rc}, rows {rows}"]
        previous = math.inf
        for row in rows:
            n = row["value"]
            bad = []
            if row["status"] != "ok":
                bad.append(f"status {row['status']}")
            else:
                leak = float(row["bestLeakage"])
                known = self.classes[n]
                if not any(abs(leak - v) <= TOL for v in known):
                    bad.append(f"bestLeakage {leak!r} is no extractor's exact leakage")
                if leak > previous + TOL:
                    bad.append(f"bestLeakage {leak!r} increased with N")
                previous = leak
            if bad:
                failed += 1
                problems.append(f"N={n}: " + "; ".join(bad))
        return len(rows), failed, problems


WORKLOADS = {
    "sim-noiseless": SimWorkload("sim-noiseless", {}, 0.0),
    "sim-gaussian": SimWorkload("sim-gaussian", GAUSSIAN, 1e-3),
    "verify-default": VerifyWorkload(),
    "scan-leakage": ScanWorkload(),
}
