"""The benchmark's own tests: exact traced counts, output contract, checks.

Run from the repository root: python3 -m pytest -q perfbench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import EXPECTED, WORKLOADS, check_verify  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _traced_counts(name: str) -> tuple[dict, dict]:
    proc = _bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"result-{name}-seed1-trace1.json").read_text())
    return result, run._count_record(record["worker"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, counts = _traced_counts(name)
    second, again = _traced_counts(name)
    assert counts == again
    assert first["correct"] and second["correct"]
    specs = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == specs
    assert len(specs) <= 128


def test_untraced_result_has_every_end_to_end_metric():
    proc = _bench("--workload", "scan-leakage", "--seed", "5", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == specs
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_verify_check_rejects_a_wrong_census_value(tmp_path):
    from relaysec import cli

    names = ["amd-attack-bound", "hash-collision"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {"checks": names}}))
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--config", str(cfg), "--out", str(out)])
    report = json.loads(out.read_text())
    expected = [e for e in EXPECTED["verify"] if e["name"] in names]
    assert check_verify(rc, report, expected)[1] == 0

    wrong = copy.deepcopy(expected)
    wrong[1]["values"]["max_success"] = 0.16  # GF(25), d=2: the exact value is 0.12
    attempted, failed, problems = check_verify(rc, report, wrong)
    assert failed == 1 and "max_success" in problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sim-noiseless", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
