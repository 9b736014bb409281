"""Command-line front end: verify, simulate, and scan.

``verify`` runs the exhaustive correctness censuses and emits a JSON
report (exit 0 iff everything passes).  ``simulate`` runs protocol Monte
Carlo batches per relay behavior and emits CSV or JSON rows.  ``scan``
sweeps one parameter and emits one row per grid point.

All output is a pure function of (config, seed): CSV files start with
'#'-prefixed comment lines carrying both, rows are written by a single
writer after a deterministic merge, and no timestamps appear anywhere.

Exit codes: 0 success, 1 check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import resources

import jsonschema
import numpy as np

from . import oracle
from .amd import AmdParams, check_premises
from .channel import AdditiveLatticeOffset, HonestRelay, RandomGarble, SubstituteLattice
from .extract import (
    DiscreteDistribution,
    ExtractorParams,
    leakage_budget,
    r_max,
    search_good_extractor,
    seed_uniformity,
)
from .fields import ExtField, all_matrices, is_prime, matrix_row_rank, sample_matrix
from .lattice import NestedLatticePair
from .protocol import ProtocolParams, _protocol_cache, rate_accounting

__all__ = ["main", "load_config", "DEFAULT_CONFIG", "CHECKS"]

DEFAULT_CONFIG: dict = {
    "seed": 1,
    "workers": 1,
    "protocol": {},
    "simulate": {
        "trials": 1000,
        "behaviors": [
            {"kind": "honest"},
            {"kind": "substitute", "pattern": [1]},
            {"kind": "additive", "pattern": [1]},
            {"kind": "garble"},
        ],
    },
    "verify": {},
    "scan": {"kind": "d", "values": list(range(1, 17)), "N": 25, "r": 25, "q": 2, "Re": 1.0},
}


class ConfigError(ValueError):
    pass


def _schema() -> dict:
    text = resources.files("relaysec").joinpath("config_schema.json").read_text()
    return json.loads(text)


def load_config(path: str | None) -> dict:
    """Merge the config file over the defaults and schema-validate."""
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(merged.get(key), dict):
                merged[key].update(value)
            else:
                merged[key] = value
    try:
        jsonschema.validate(merged, _schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected: {exc.message}") from exc
    return merged


def _build_params(cfg: dict) -> ProtocolParams:
    try:
        return ProtocolParams(**cfg.get("protocol", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"protocol config rejected: {exc}") from exc


def _build_behavior(entry: dict):
    kind = entry["kind"]
    pattern = tuple(entry.get("pattern", [1]))
    if kind == "honest":
        return HonestRelay(), "honest"
    if kind == "substitute":
        return SubstituteLattice(pattern), f"substitute{list(pattern)}"
    if kind == "additive":
        return AdditiveLatticeOffset(pattern), f"additive{list(pattern)}"
    if kind == "garble":
        return RandomGarble(), "garble"
    raise ConfigError(f"unknown behavior kind {kind!r}")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _rows_to_csv(rows: list[dict], header: list[str], meta: dict) -> str:
    buf = io.StringIO()
    for key in sorted(meta):
        buf.write(f"# {key}={json.dumps(meta[key], sort_keys=True)}\r\n")
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _rows_to_json(rows: list[dict], meta: dict) -> str:
    return json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check_amd_attack_bound(vcfg: dict, seed: int):
    attack_cap = vcfg.get("max_attack_enum", oracle.MAX_ATTACK_ENUM)
    for q, r, d in [(5, 1, 1), (5, 2, 2)]:
        census = oracle.exact_amd_win_census(AmdParams(field=ExtField(q, r), d=d), cap=attack_cap)
        yield census.holds, {"q": q, "r": r, "d": d,
                             "max_success": census.max_success, "bound": census.bound}


def _check_coords_isomorphism(vcfg: dict, seed: int):
    pair_cap = vcfg.get("max_pair_enum", oracle.MAX_PAIR_ENUM)
    for q in (2, 3, 5):
        for n in (1, 2, 3):
            ok, witness = oracle.isomorphism_census(NestedLatticePair(N=n, q=q), cap=pair_cap)
            yield ok, {"q": q, "N": n, "counterexample": witness}


def _check_sum_representation(vcfg: dict, seed: int):
    pair_cap = vcfg.get("max_pair_enum", oracle.MAX_PAIR_ENUM)
    for q, dims in [(5, (1, 2)), (2, (1, 2, 3))]:
        for n in dims:
            ok, witness = oracle.representation_census(NestedLatticePair(N=n, q=q), cap=pair_cap)
            yield ok, {"q": q, "N": n, "counterexample": witness}


def _check_full_rank_fraction(vcfg: dict, seed: int):
    for q in (2, 3):
        for n in range(1, 5):
            for r in range(1, n + 1):
                count, total, holds = oracle.full_rank_census(q, r, n)
                yield holds, {"q": q, "rows": r, "cols": n, "fraction": f"{count}/{total}"}


def _check_hash_collision(vcfg: dict, seed: int):
    for q in (2, 3):
        for n in (1, 2, 3):
            for r in (1, 2):
                if r > n:
                    continue
                prob, holds = oracle.universal_hash_census(q, n, r)
                yield holds, {"q": q, "N": n, "r": r, "max_collision": prob}


def _check_seed_uniformity(vcfg: dict, seed: int):
    inject = vcfg.get("inject_g")
    if inject is not None:
        mq = int(vcfg.get("inject_q", 2))
        matrices = [(np.array(inject, dtype=np.int64), mq, "injected")]
    else:
        matrices = []
        rng = np.random.default_rng(seed)
        for q, n in [(2, 2), (3, 2), (5, 3)]:
            r = max(1, min(r_max(n, q, 0.1), n)) if q > 2 else 1
            while True:
                m = sample_matrix(rng, r, n, q)
                if matrix_row_rank(m, q) == r:
                    break
            matrices.append((m, q, f"sampled q={q} N={n}"))
    for m, mq, label in matrices:
        _, uniform = seed_uniformity(m, mq)
        yield uniform, {"matrix": m.tolist(), "label": label, "q": mq}


def _check_leftover_entropy(vcfg: dict, seed: int):
    pair_cap = vcfg.get("max_pair_enum", oracle.MAX_PAIR_ENUM)
    for q, n, r in [(2, 2, 1), (3, 2, 1)]:
        avg, bound, holds = oracle.leftover_census(q, n, r, DiscreteDistribution.uniform(q**n))
        yield holds, {"q": q, "N": n, "r": r, "average": avg, "bound": bound}
    budget = leakage_budget(ExtractorParams(N=2, q=11, epsilon=0.2, smoothing=6.0), 1)
    pair = NestedLatticePair(N=2, q=11)
    matrices = all_matrices(11, 1, 2)
    avg = sum(oracle.exact_seed_leakage(pair, matrices, cap=pair_cap).tolist()) / len(matrices)
    yield avg <= budget.budget_bits + 1e-9, {"q": 11, "N": 2, "r": 1, "smoothing": 6.0,
                                             "averaged_leakage": avg,
                                             "budget": budget.budget_bits}


def _check_pinsker(vcfg: dict, seed: int):
    raw = np.random.default_rng(seed).random((1000, 3, 4))  # the stream of 1000 (3, 4) draws
    lhs, rhs = oracle.pinsker_check(raw / raw.reshape(1000, -1).sum(axis=-1)[:, None, None])
    yield bool(np.all(lhs >= rhs - 1e-12)), {"joints": 1000,
                                            "worst_gap": max(0.0, float(np.max(rhs - lhs)))}


# Every verify check in report order: name -> check(verify config, seed),
# which yields (passed, details) for each case of its parameter grid.
CHECKS = {
    "amd-attack-bound": _check_amd_attack_bound,
    "coords-isomorphism": _check_coords_isomorphism,
    "sum-representation": _check_sum_representation,
    "full-rank-fraction": _check_full_rank_fraction,
    "hash-collision": _check_hash_collision,
    "seed-uniformity": _check_seed_uniformity,
    "leftover-entropy": _check_leftover_entropy,
    "pinsker": _check_pinsker,
}


def _run_checks(cfg: dict, seed: int) -> list[dict]:
    """Run the selected checks in table order, whatever the config's order."""
    vcfg = cfg.get("verify", {})
    selected = vcfg.get("checks", CHECKS)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown verify check {unknown[0]!r}")
    return [
        {"name": name, "passed": bool(passed), "details": details}
        for name, check in CHECKS.items() if name in selected
        for passed, details in check(vcfg, seed)
    ]


def cmd_verify(cfg: dict, seed: int, out: str | None) -> int:
    _build_params(cfg)  # an inconsistent protocol section fails before any run
    results = _run_checks(cfg, seed)
    all_passed = all(r["passed"] for r in results)
    report = {"seed": seed, "all_passed": all_passed, "checks": results}
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_COLUMNS = [
    "behavior", "trials", "decodeErrRate", "falseRejectRate",
    "adversaryWinRate", "winBound", "n", "RT", "PT", "seed",
]


def cmd_simulate(cfg: dict, seed: int, workers: int, out: str | None, fmt: str) -> int:
    params = _build_params(cfg)
    if not 0 <= seed < 2**128:
        raise ConfigError(f"simulate seed {seed} must lie in [0, 2^128), the Philox key range")
    proto = _protocol_cache(params)
    sim_cfg = cfg.get("simulate", {})
    trials = sim_cfg.get("trials", 1000)
    rows = []
    for entry in sim_cfg.get("behaviors", [{"kind": "honest"}]):
        behavior, label = _build_behavior(entry)
        report = proto.monte_carlo(behavior, trials, workers=workers, seed=seed)
        rows.append({
            "behavior": label,
            "trials": report.trials,
            "decodeErrRate": repr(report.decode_error_rate),
            "falseRejectRate": repr(report.false_reject_rate),
            "adversaryWinRate": repr(report.adversary_win_rate),
            "winBound": repr(report.win_bound),
            "n": report.n,
            "RT": repr(report.RT),
            "PT": repr(report.PT),
            "seed": seed,
        })
    meta = {"config": cfg, "seed": seed}
    text = _rows_to_csv(rows, SIM_COLUMNS, meta) if fmt == "csv" else _rows_to_json(rows, meta)
    _emit(text, out)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def cmd_scan(cfg: dict, seed: int, out: str | None, fmt: str) -> int:
    scan = cfg.get("scan", {})
    kind = scan.get("kind")
    rows: list[dict] = []
    if kind == "d":
        n, r, q, re = scan.get("N", 25), scan.get("r", 25), scan.get("q", 2), scan.get("Re", 1.0)
        for d in scan.get("values", list(range(1, 17))):
            uses, rt = rate_accounting(n, r, q, d, re)
            rows.append({"status": "ok", "param": "d", "value": d,
                         "n": uses, "RT": repr(rt), "halfRe": repr(re / 2)})
        header = ["status", "param", "value", "n", "RT", "halfRe"]
    elif kind == "r":
        d, q = scan.get("d", 2), scan.get("q", 5)
        if not is_prime(q):
            raise ConfigError(f"r scan: q={q} is not prime")
        try:
            check_premises(q, d)
        except ValueError as exc:
            raise ConfigError(f"r scan: {exc}") from exc
        for r in scan.get("values", [1, 2, 3]):
            if r < 1:  # rows are written after the loop, so no row goes out
                raise ConfigError(f"r scan: tag length r={r} must be >= 1")
            bound = (d + 1) / q**r  # amd.win_bound, without building GF(q^r)
            rows.append({"status": "ok", "param": "r", "value": r,
                         "winBound": repr(bound)})
        header = ["status", "param", "value", "winBound"]
    elif kind == "leakage":
        q = scan.get("q", 11)
        r = scan.get("r", 1)
        candidates = scan.get("candidates", 64)
        cap = scan.get("max_pair_enum", oracle.MAX_PAIR_ENUM)
        if not is_prime(q):
            raise ConfigError(f"leakage scan: q={q} is not prime")
        rng = np.random.default_rng(seed)
        for n in scan.get("values", [1, 2]):
            if r > n:
                raise ConfigError(f"leakage scan: r={r} exceeds N={n}, no full-rank extractor")
            try:
                result = search_good_extractor(
                    q, n, r, candidates, rng,
                    lambda m, _n=n: oracle.exact_seed_leakage(
                        NestedLatticePair(N=_n, q=q), m, cap=cap
                    ),
                )
                rows.append({"status": "ok", "param": "N", "value": n,
                             "bestLeakage": repr(result.best_leakage)})
            except oracle.SizeGuardError:
                rows.append({"status": "skipped", "param": "N", "value": n,
                             "bestLeakage": ""})
            except RuntimeError as exc:  # no full-rank candidate among the samples
                raise ConfigError(f"leakage scan: {exc}") from exc
        header = ["status", "param", "value", "bestLeakage"]
    else:
        raise ConfigError(f"unknown scan kind {kind!r}")
    meta = {"config": cfg, "seed": seed}
    text = _rows_to_csv(rows, header, meta) if fmt == "csv" else _rows_to_json(rows, meta)
    _emit(text, out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaysec",
        description="Untrusted-relay coding scheme: verification and simulation",
    )
    parser.add_argument("command", choices=["verify", "simulate", "scan"])
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="global seed override")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.get("seed", 1)
        workers = args.workers if args.workers is not None else cfg.get("workers", 1)
        if args.command == "verify":
            return cmd_verify(cfg, seed, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, seed, workers, args.out, args.format)
        return cmd_scan(cfg, seed, args.out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except oracle.SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
