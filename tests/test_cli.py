"""CLI contract: config validation, reports, CSV determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from relaysec.cli import ConfigError, DEFAULT_CONFIG, load_config, main


def write_config(tmp_path, overrides):
    cfg = json.loads(json.dumps(overrides))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------


def test_default_config_validates():
    cfg = load_config(None)
    assert cfg["seed"] == DEFAULT_CONFIG["seed"]


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, {"unknown_key": 1})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"protocol": {"bogus": 2}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_invalid_amd_config_exits_2(tmp_path, capsys):
    # d + 2 divisible by q must be rejected before any run
    path = write_config(tmp_path, {"protocol": {"d": 3}})
    code = main(["simulate", "--config", path])
    assert code == 2
    assert "rejected" in capsys.readouterr().err
    assert main(["verify", "--config", path]) == 2


def test_simulate_seed_beyond_philox_key_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"simulate": {"trials": 1}})
    assert main(["simulate", "--config", path, "--seed", str(2**128)]) == 2
    assert "2^128" in capsys.readouterr().err
    assert main(["simulate", "--config", path, "--seed", str(2**128 - 1)]) == 0


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "--config", str(path)]) == 2


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------


def test_verify_default_all_checks_pass(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "amd-attack-bound", "coords-isomorphism", "sum-representation",
        "full-rank-fraction", "hash-collision", "seed-uniformity",
        "leftover-entropy", "pinsker",
    }


def test_verify_subset_passes(tmp_path):
    path = write_config(tmp_path, {
        "verify": {"checks": ["pinsker", "full-rank-fraction", "sum-representation"]}
    })
    out = tmp_path / "report.json"
    code = main(["verify", "--config", path, "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    names = list(dict.fromkeys(c["name"] for c in report["checks"]))
    # records follow the order of cli.CHECKS, not the config's
    assert names == ["sum-representation", "full-rank-fraction", "pinsker"]


def test_verify_unknown_check_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"verify": {"checks": ["pinsker", "no-such-check"]}})
    assert main(["verify", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "no-such-check" in err


def test_verify_injected_rank_deficient_map_fails(tmp_path):
    path = write_config(tmp_path, {
        "verify": {"checks": ["seed-uniformity"], "inject_g": [[0, 0]], "inject_q": 3}
    })
    out = tmp_path / "report.json"
    code = main(["verify", "--config", path, "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert not report["all_passed"]
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing and failing[0]["details"]["matrix"] == [[0, 0]]


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------

FAST_SIM = {
    "simulate": {
        "trials": 120,
        "behaviors": [
            {"kind": "honest"},
            {"kind": "substitute", "pattern": [1]},
        ],
    },
}


def test_simulate_csv_contract(tmp_path):
    path = write_config(tmp_path, FAST_SIM)
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", path, "--seed", "5", "--out", str(out)]) == 0
    text = out.read_text()
    comments = [l for l in text.splitlines() if l.startswith("#")]
    assert any("seed=5" in c for c in comments)
    assert any("config=" in c for c in comments)
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = rows[0].split(",")
    assert header == ["behavior", "trials", "decodeErrRate", "falseRejectRate",
                      "adversaryWinRate", "winBound", "n", "RT", "PT", "seed"]
    honest = rows[1].split(",")
    assert honest[0] == "honest"
    assert float(honest[2]) == 0.0 and float(honest[3]) == 0.0 and float(honest[4]) == 0.0
    attack = rows[2].split(",")
    assert float(attack[4]) <= float(attack[5]) + 0.1


def test_simulate_byte_identical_across_runs_and_workers(tmp_path):
    path = write_config(tmp_path, FAST_SIM)
    outs = []
    for name, workers in [("a.csv", 1), ("b.csv", 1), ("c.csv", 2)]:
        out = tmp_path / name
        assert main([
            "simulate", "--config", path, "--seed", "17",
            "--workers", str(workers), "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_simulate_json_format(tmp_path):
    path = write_config(tmp_path, FAST_SIM)
    out = tmp_path / "rows.json"
    assert main(["simulate", "--config", path, "--seed", "2",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["seed"] == 2
    assert len(payload["rows"]) == 2


# ---------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------


def test_scan_d_sweep_monotone(tmp_path):
    path = write_config(tmp_path, {
        "scan": {"kind": "d", "values": list(range(1, 33)),
                 "N": 25, "r": 25, "q": 2, "Re": 1.0}
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    rts = [float(r[4]) for r in rows]
    half_re = float(rows[0][5])
    assert all(b >= a for a, b in zip(rts, rts[1:]))
    assert all(v < half_re for v in rts)


def test_scan_r_sweep_win_bound_column(tmp_path):
    path = write_config(tmp_path, {
        "scan": {"kind": "r", "values": [1, 2, 3], "d": 2, "q": 5}
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    for row in rows:
        r = int(row[2])
        assert float(row[3]) == 3 / 5**r


def test_module_entry_point_subprocess(tmp_path):
    path = write_config(tmp_path, {
        "scan": {"kind": "r", "values": [1, 2], "d": 2, "q": 5}
    })
    result = subprocess.run(
        [sys.executable, "-m", "relaysec.cli", "scan", "--config", path],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "winBound" in result.stdout


def test_scan_leakage_with_skip(tmp_path):
    path = write_config(tmp_path, {
        "scan": {"kind": "leakage", "values": [1, 2, 3], "q": 11, "r": 1,
                 "candidates": 16, "max_pair_enum": 15000}
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--seed", "8", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    status = {int(r[2]): r[0] for r in rows}
    assert status[1] == "ok" and status[2] == "ok"
    assert status[3] == "skipped"  # 11^6 pairs exceed the configured cap
    leak = {int(r[2]): r[3] for r in rows if r[0] == "ok"}
    assert float(leak[2]) <= float(leak[1])


def test_scan_leakage_unrunnable_config_exits_2(tmp_path, capsys):
    # the leakage kind alone inherits the d-scan's r = 25 > N
    path = write_config(tmp_path, {"scan": {"kind": "leakage"}})
    assert main(["scan", "--config", path]) == 2
    assert "r=25 exceeds N=1" in capsys.readouterr().err
    # one 3 x 3 binary sample at seed 0 has rank 1: no full-rank candidate
    path = write_config(tmp_path, {
        "scan": {"kind": "leakage", "q": 2, "r": 3, "values": [3], "candidates": 1}
    })
    assert main(["scan", "--config", path, "--seed", "0"]) == 2
    assert "no full-row-rank candidate" in capsys.readouterr().err
