"""Command-line front end: verify, simulate, and scan.

``verify`` runs the exhaustive correctness censuses and emits a JSON
report (exit 0 iff everything passes).  ``simulate`` runs protocol Monte
Carlo batches per relay behavior and emits CSV or JSON rows.  ``scan``
emits one row per grid point: each point of a ``point`` scan is a
protocol section merged over the config's, built and checked by
``ProtocolParams`` like simulate's, and its row is that operating point's
rates and detection bound; a ``leakage`` scan reports the best sampled
extractor's exact seed leakage per lattice dimension N.

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
import math
import sys
from functools import cache, reduce
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import oracle
from .amd import AmdParams
from .channel import AdditiveLatticeOffset, HonestRelay, RandomGarble, SubstituteLattice
from .extract import leakage_budget, r_max, seed_uniformity
from .fields import ExtField, all_matrices, is_prime, matrix_row_rank
from .lattice import NestedLatticePair
from .protocol import ProtocolParams, _protocol_cache, operating_point

__all__ = ["main", "load_config", "DEFAULT_CONFIG", "CHECKS", "SCANS"]


class ConfigError(ValueError):
    pass


@cache
def _schema() -> dict:
    text = resources.files("relaysec").joinpath("config_schema.json").read_text()
    return json.loads(text)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON type -> (test, noun for the error message).  Stricter than JSON Schema
# in two ways: an integer is an int literal (10.0 is not one, and the runs
# need real ints), and a number is finite (NaN slips past every minimum).
_TYPES = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "boolean": (lambda v: isinstance(v, bool), "a boolean"),
    "integer": (_is_int, "an integer literal"),
    "number": (
        lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
        "a finite number",
    ),
}


def _rejected(where: str, problem: str) -> ConfigError:
    return ConfigError(f"config rejected: {where} {problem}")


def _validate(value, schema: dict, path: str = "") -> None:
    """Check ``value`` against ``schema``, raising ConfigError that names the key path.

    Implements exactly the keywords config_schema.json uses: type, enum,
    minimum, exclusiveMinimum, minItems, items, required, properties,
    additionalProperties (false only) and $ref (alone in its node, a local
    pointer into the file).  As in JSON Schema, each keyword applies only
    to values of its own JSON type.
    """
    if "$ref" in schema:
        schema = reduce(dict.__getitem__, schema["$ref"].split("/")[1:], _schema())
    where = path or "config"
    if "type" in schema:
        test, noun = _TYPES[schema["type"]]
        if not test(value):
            raise _rejected(where, f"is not {noun}")
    if "enum" in schema and value not in schema["enum"]:
        raise _rejected(where, f"is not one of {schema['enum']}")
    if _is_int(value) or isinstance(value, float):
        if "minimum" in schema and value < schema["minimum"]:
            raise _rejected(where, f"must be >= {schema['minimum']}, got {value!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise _rejected(where, f"must be > {schema['exclusiveMinimum']}, got {value!r}")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise _rejected(where, f"needs at least {schema['minItems']} item(s)")
        if "items" in schema:
            for i, item in enumerate(value):
                _validate(item, schema["items"], f"{where}[{i}]")
    elif isinstance(value, dict):
        prefix = f"{path}." if path else ""
        for key in schema.get("required", ()):
            if key not in value:
                raise _rejected(prefix + key, "is required")
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], prefix + key)
            elif schema.get("additionalProperties", True) is False:
                raise _rejected(prefix + key, "is not an allowed key")


def load_config(path: str | None) -> dict:
    """Merge the config file over the defaults and check it against the schema.

    A scan section is merged over the defaults of its own kind (``SCANS``),
    and a key that kind does not read is rejected, as is a ``pattern`` on a
    behavior kind that reads none.
    """
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(user, dict):
            raise _rejected("config", "is not an object")
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(merged.get(key), dict):
                kind = value.get("kind") if key == "scan" else None
                if isinstance(kind, str) and kind in SCANS:
                    merged[key] = json.loads(json.dumps({"kind": kind, **SCANS[kind].defaults}))
                merged[key].update(value)
            else:
                merged[key] = value
    _validate(merged, _schema())
    scan = merged["scan"]
    for key in scan:
        if key != "kind" and key not in SCANS[scan["kind"]].defaults:
            raise _rejected(f"scan.{key}", f"is not a key of the {scan['kind']} scan")
    for i, behavior in enumerate(merged["simulate"]["behaviors"]):
        if "pattern" in behavior and behavior["kind"] in ("honest", "garble"):
            raise _rejected(f"simulate.behaviors[{i}].pattern",
                            f"is not a key of the {behavior['kind']} behavior")
    return merged


def _build_params(cfg: dict, where: str = "protocol config") -> ProtocolParams:
    try:
        return ProtocolParams(**cfg.get("protocol", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} rejected: {exc}") from exc


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


def _check_amd_attack_bound(seed: int):
    for q, r, d in [(5, 1, 1), (5, 2, 2)]:
        census = oracle.exact_amd_win_census(AmdParams(field=ExtField(q, r), d=d))
        yield census.holds, {"q": q, "r": r, "d": d,
                             "max_success": census.max_success, "bound": census.bound}


def _check_coords_isomorphism(seed: int):
    for q in (2, 3, 5):
        for n in (1, 2, 3):
            ok, witness = oracle.isomorphism_census(NestedLatticePair(N=n, q=q))
            yield ok, {"q": q, "N": n, "counterexample": witness}


def _check_sum_representation(seed: int):
    for q, dims in [(5, (1, 2)), (2, (1, 2, 3))]:
        for n in dims:
            ok, witness = oracle.representation_census(NestedLatticePair(N=n, q=q))
            yield ok, {"q": q, "N": n, "counterexample": witness}


def _check_full_rank_fraction(seed: int):
    for q in (2, 3):
        for n in range(1, 5):
            for r, count, total, holds in oracle.full_rank_census(q, n):
                yield holds, {"q": q, "rows": r, "cols": n, "fraction": f"{count}/{total}"}


def _check_hash_collision(seed: int):
    for q in (2, 3):
        for n in (1, 2, 3):
            for r in (1, 2):
                if r > n:
                    continue
                prob, holds = oracle.universal_hash_census(q, n, r)
                yield holds, {"q": q, "N": n, "r": r, "max_collision": prob}


def _check_seed_uniformity(seed: int):
    rng = np.random.default_rng(seed)
    for q, n in [(2, 2), (3, 2), (5, 3)]:
        r = max(1, min(r_max(n, q, 0.1), n)) if q > 2 else 1
        while True:
            m = rng.integers(0, q, size=(r, n), dtype=np.int64)
            if matrix_row_rank(m, q) == r:
                break
        _, uniform = seed_uniformity(m, q)
        yield uniform, {"matrix": m.tolist(), "label": f"sampled q={q} N={n}", "q": q}


def _check_leftover_entropy(seed: int):
    for q, n, r in [(2, 2, 1), (3, 2, 1)]:
        avg, bound, holds = oracle.leftover_census(q, n, r, np.full(q**n, 1.0 / q**n))
        yield holds, {"q": q, "N": n, "r": r, "average": avg, "bound": bound}
    budget = leakage_budget(N=2, q=11, r=1, smoothing=6.0)
    leakages = oracle.exact_seed_leakage(NestedLatticePair(N=2, q=11), all_matrices(11, 1, 2))
    avg = sum(leakages.tolist()) / len(leakages)
    yield avg <= budget.budget_bits + 1e-9, {"q": 11, "N": 2, "r": 1, "smoothing": 6.0,
                                             "averaged_leakage": avg,
                                             "budget": budget.budget_bits}


def _check_pinsker(seed: int):
    raw = np.random.default_rng(seed).random((1000, 3, 4))  # the stream of 1000 (3, 4) draws
    lhs, rhs = oracle.pinsker_check(raw / raw.reshape(1000, -1).sum(axis=-1)[:, None, None])
    # the smallest slack lhs - rhs shows how close the inequality comes; it fails below -1e-12
    yield bool(np.all(lhs >= rhs - 1e-12)), {"joints": 1000,
                                            "min_slack": float(np.min(lhs - rhs))}


# Every verify check in report order: name -> check(seed), which yields
# (passed, details) for each case of its parameter grid.
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
    selected = cfg.get("verify", {}).get("checks", CHECKS)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown verify check {unknown[0]!r}")
    return [
        {"name": name, "passed": bool(passed), "details": details}
        for name, check in CHECKS.items() if name in selected
        for passed, details in check(seed)
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
    trials = cfg["simulate"]["trials"]
    behaviors, labels = zip(*map(_build_behavior, cfg["simulate"]["behaviors"]))
    counts = proto.monte_carlo(behaviors, trials, workers=workers, seed=seed)
    # the columns every row shares: constants of the protocol
    n, rt, _, bound = operating_point(params)
    shared = {"trials": trials, "winBound": repr(bound), "n": n, "RT": repr(rt),
              "PT": repr(proto.average_power(*proto.stage_powers())), "seed": seed}
    rows = [{"behavior": label, **shared, "decodeErrRate": repr(int(errors) / trials),
             "falseRejectRate": repr(int(rejects) / trials),
             "adversaryWinRate": repr(int(wins) / trials)}
            for label, (errors, rejects, wins) in zip(labels, counts)]
    meta = {"config": {key: cfg[key] for key in ("protocol", "simulate")}, "seed": seed}
    text = _rows_to_csv(rows, SIM_COLUMNS, meta) if fmt == "csv" else _rows_to_json(rows, meta)
    _emit(text, out)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _scan_point(cfg: dict, seed: int):
    for point in cfg["scan"]["points"]:
        name = " ".join(f"{key}={json.dumps(value)}" for key, value in point.items())
        p = _build_params({"protocol": {**cfg["protocol"], **point}}, f"point scan row {name}")
        n, rt, half_re, bound = operating_point(p)
        yield {"status": "ok", "point": name, "n": n, "RT": repr(rt),
               "halfRe": repr(half_re), "winBound": repr(bound)}


def _scan_leakage(cfg: dict, seed: int):
    _build_params(cfg)  # reads no protocol key, but rejects the sections verify rejects
    q, r = cfg["scan"]["q"], cfg["scan"]["r"]
    if q * q > oracle.MAX_PAIR_ENUM:  # before the trial division, which takes sqrt(q) steps
        raise ConfigError(f"leakage scan: q={q} has q^2 = {q * q} codeword pairs at N = 1, "
                          f"over the exact-leakage cap {oracle.MAX_PAIR_ENUM}: no row can run")
    if not is_prime(q):
        raise ConfigError(f"leakage scan: q={q} is not prime")
    rng = np.random.default_rng(seed)
    for n in cfg["scan"]["values"]:
        if r > n:
            raise ConfigError(f"leakage scan: r={r} exceeds N={n}, no full-rank extractor")
        pair = NestedLatticePair(N=n, q=q)
        try:
            record = oracle.best_sampled_extractor(pair, r, cfg["scan"]["candidates"], rng)
            leakage = repr(record.exact_mi_bits)
        except oracle.SizeGuardError:
            leakage = ""
        except RuntimeError as exc:  # no full-rank candidate among the samples
            raise ConfigError(f"leakage scan: {exc}") from exc
        yield {"status": "ok" if leakage else "skipped", "param": "N", "value": n,
               "bestLeakage": leakage}


class Scan(NamedTuple):
    defaults: dict  # every key the kind reads, with its default value
    header: list[str]
    rows: Callable  # rows(config, seed) yields one dict per grid point


# Every scan kind: a config's scan section is merged over its kind's defaults.
# The point kind's default d values skip those where the default q = 5 divides d + 2.
SCANS = {
    "point": Scan({"points": [{"d": d} for d in (1, 2, 4, 6, 9, 16)]},
                  ["status", "point", "n", "RT", "halfRe", "winBound"], _scan_point),
    "leakage": Scan({"values": [1, 2], "q": 11, "r": 1, "candidates": 64},
                    ["status", "param", "value", "bestLeakage"], _scan_leakage),
}

# defined after SCANS because the default scan is the point kind on its own defaults
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
    "scan": {"kind": "point", **SCANS["point"].defaults},
}


def cmd_scan(cfg: dict, seed: int, out: str | None, fmt: str) -> int:
    spec = SCANS[cfg["scan"]["kind"]]
    rows = list(spec.rows(cfg, seed))
    meta = {"config": {key: cfg[key] for key in ("protocol", "scan")}, "seed": seed}
    text = _rows_to_csv(rows, spec.header, meta) if fmt == "csv" else _rows_to_json(rows, meta)
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
        for flag in ("seed", "workers"):  # flags meet the schema's rules for their keys
            if getattr(args, flag) is not None:
                _validate(getattr(args, flag), _schema()["properties"][flag], f"--{flag}")
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
