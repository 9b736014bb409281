"""relaysec benchmark: simulate, verify and scan, timed from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-noiseless --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one summary

Each workload runs in fresh processes with BLAS/OpenMP threads pinned to
one and ``workers=1``: a few set-up-only processes give the median
``setup_s``, and one measuring process sets up once more, then runs
operations while the next one is expected to end within ``--seconds``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs a
fixed traced pass with every relaysec layer wrapped (see tracer.py), then
untraced operations for the rest of the run, and prints the per-layer
metrics.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.  Run metadata, every sample and the span side file go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import SpanRecorder, metric_specs  # noqa: E402
from workloads import BEHAVIORS, EXPECTED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-ups per run, the measuring process's own included
RUN_LIMIT_S = 170  # every process of one workload run ends within this
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run prints."""
    return metric_specs() + [
        *((f"protocol.trials_per_s.{b}", "1/s", "higher") for b in BEHAVIORS),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]


# ---------------------------------------------------------------------------
# measuring process
# ---------------------------------------------------------------------------


def _config_path(name: str, seed: int) -> Path:
    return OUT / f"{name}-seed{seed}-config.json"


def worker(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> dict:
    wl = WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before set-up; set-up must include it")
    t0 = time.perf_counter()
    from relaysec import cli

    recorder = None
    if trace:
        recorder = SpanRecorder()
        recorder.install()
    wl.setup(cli, _config_path(name, seed), OUT)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "setup_ref_s": wl.reference.seconds(runs=5)}
    if setup_only:
        return result

    seeds = random.Random(seed)
    state = {"attempted": 0, "failed": 0, "problems": []}

    def one_op(sample: bool = True):
        try:
            before = wl.reference.seconds()
            if sample and wl.sample_every_s:
                with wl.reference.sampling(wl.sample_every_s):
                    elapsed, parts, outputs = wl.run(seeds.randrange(2**31))
                inside = wl.reference.samples
                elapsed -= sum(inside)
                parts = [elapsed]
            else:
                elapsed, parts, outputs = wl.run(seeds.randrange(2**31))
                inside = []
            ref = statistics.median([before, *inside, wl.reference.seconds()])
            attempted, failed, problems = wl.check(outputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            state["attempted"] += wl.ops_per_run
            state["failed"] += wl.ops_per_run
            state["problems"].append("operation raised; traceback on stderr")
            return None
        state["attempted"] += attempted
        state["failed"] += failed
        state["problems"] += problems
        return elapsed, parts, ref

    start = time.perf_counter()
    if trace:
        # no kernel runs inside traced operations: they would land in spans
        traced = [r for r in (one_op(sample=False) for _ in range(wl.traced_ops)) if r]
        recorder.uninstall()
    samples = []
    while True:
        t_op = time.perf_counter()
        done = one_op()
        if done:
            samples.append(done)
        # stop when one more operation as long as this one would end past --seconds
        now = time.perf_counter()
        if now + (now - t_op) - start > seconds:
            break
    if not samples:
        raise BenchError("no operation completed; see the tracebacks above")
    result["op_s"] = [s[0] for s in samples]
    result["parts_s"] = [s[1] for s in samples]
    result["op_ref_s"] = [s[2] for s in samples]
    result.update(state)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        spans_path = OUT / f"trace-{name}-seed{seed}.npz"
        recorder.save(spans_path)
        stats = recorder.function_stats()
        result["trace"] = {
            "functions": stats,
            "ratios": recorder.ratio_counts(stats),
            "traced_op_s": [wl.reference.at_nominal(s[0], s[2]) for s in traced],
            "spans": len(recorder.start),
            "missing": recorder.missing,
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
    return result


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **PINNED)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a measuring process could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker", *args],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measuring process ran past {RUN_LIMIT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_metadata(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads_pinned": PINNED,
        "workers": 1,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload in fresh processes; returns (result, report lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[name]
    _config_path(name, seed).write_text(json.dumps(wl.config(seed), indent=1) + "\n")
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        # the first set-up also writes bytecode caches, so it is not counted
        setups = [_child(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES)][1:]
    res = _child(base + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups.append(res)
    nominal = wl.reference.at_nominal
    setup_s = [nominal(r["setup_s"], r["setup_ref_s"]) for r in setups]

    meta = run_metadata(name, seed, seconds, trace)
    op_s = [nominal(t, ref) for t, ref in zip(res["op_s"], res["op_ref_s"])]
    q1, med, q3 = _quartiles(op_s)
    per_unit = med / wl.units_per_op
    speed = wl.reference.nominal_s / statistics.median(res["op_ref_s"])
    lines = [f"# perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}",
             "# meta " + json.dumps(meta, sort_keys=True),
             f"# {len(op_s)} ops of {wl.units_per_op} {wl.unit}(s): median {med:.6g} s, "
             f"quartiles {q1:.6g} .. {q3:.6g} s at nominal speed; wall median "
             f"{statistics.median(res['op_s']):.6g} s at speed x{speed:.3f} of nominal"]
    # the per-workload names of the op_ms quantity, for the report lines
    if name.startswith("sim-"):
        named = {"trials_per_s": (1.0 / per_unit, "1/s")}
    elif name == "verify-default":
        named = {"verify_s": (med, "s")}
    else:
        named = {"scan_s": (med, "s")}
    if trace:
        metrics = _layer_metrics(name, seed, wl, res, per_unit, lines)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "op_ms": _metric(per_unit * 1e3, "ms"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
        named.update({key: (metrics[key]["value"], metrics[key]["unit"])
                      for key in ("setup_s", "peak_rss_mb")})
    lines[3:3] = [f"# {key} {value:.6g} {unit}" for key, (value, unit) in named.items()]
    correct = res["failed"] == 0
    lines.append(f"# correct {str(correct).lower()}: {res['attempted']} operations, "
                 f"{res['failed']} failed")
    for problem in res["problems"][:10]:
        lines.append(f"#   {problem}")
    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = dict(result, meta=meta, setup_s=setup_s, op_s=op_s, worker=res)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result, lines


def _layer_metrics(name, seed, wl, res, per_unit, lines) -> dict:
    tr = res["trace"]
    values = {}
    for fn, stats in tr["functions"].items():
        for stat, value in stats.items():
            values[f"{fn}.{stat}"] = value
    for key, (useful, attempts) in tr["ratios"].items():
        values[key] = useful / attempts if attempts else 0.0
    for i, behavior in enumerate(BEHAVIORS):
        values[f"protocol.trials_per_s.{behavior}"] = 0.0
        if name.startswith("sim-"):
            batch_s = [wl.reference.at_nominal(part[i], ref)
                       for part, ref in zip(res["parts_s"], res["op_ref_s"])]
            values[f"protocol.trials_per_s.{behavior}"] = (
                wl.units_per_op / len(BEHAVIORS) / statistics.median(batch_s))
    traced = statistics.median(tr["traced_op_s"]) / wl.units_per_op if tr["traced_op_s"] else 0.0
    values["trace.overhead_ratio"] = traced / per_unit
    values["trace.spans"] = tr["spans"]

    lines.append(f"# traced pass: {len(tr['traced_op_s'])} ops, {tr['spans']} spans "
                 f"in {tr['spans_file']}; overhead x{values['trace.overhead_ratio']:.3f}")
    if tr["missing"]:
        lines.append(f"# not found, reported as 0: {', '.join(tr['missing'])}")
    lines.append(f"# {'function':44s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
    for fn, stats in tr["functions"].items():
        if stats["calls"]:
            lines.append(f"# {fn:44s} {stats['calls']:9d} {stats['busy_s']:10.4f} "
                         f"{stats['self_s']:10.4f}")
    lines += _baseline_diff(name, seed, res)
    return {key: _metric(values[key], unit) for key, unit, _ in layer_specs()}


def _baseline_diff(name: str, seed: int, res: dict) -> list[str]:
    """Compare traced counts with the ones recorded at the baseline seed."""
    base = EXPECTED["trace_counts"]
    if seed != base["seed"] or name not in base:
        return []
    got = _count_record(res)
    diff = sorted((k, base[name].get(k), got.get(k)) for k in base[name].keys() | got.keys()
                  if base[name].get(k) != got.get(k))
    if not diff:
        return ["# traced counts equal the recorded baseline"]
    return [f"# traced count differs from baseline: {k} {old} -> {new}" for k, old, new in diff]


def _count_record(res: dict) -> dict:
    """Exact nonzero counts of a traced run: calls per function, each ratio's terms."""
    tr = res["trace"]
    counts = {f"{fn}.calls": s["calls"] for fn, s in tr["functions"].items() if s["calls"]}
    counts.update({k: list(v) for k, v in tr["ratios"].items() if v[1]})
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "relaysec" / "__init__.py").is_file():
        print(f"perfbench: no relaysec sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.worker:
            res = worker(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.setup_only)
            print(json.dumps(res))
            return 0
        OUT.mkdir(exist_ok=True)
        compileall.compile_dir(str(SRC), quiet=1)  # the build: bytecode for every run
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
