"""CLI contract: config validation, reports, CSV determinism, exit codes."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from relaysec import cli
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


@pytest.mark.parametrize("argv, message", [
    (["verify", "--seed", "-1"], "config rejected: --seed must be >= 0, got -1"),
    (["scan", "--seed", "-5"], "config rejected: --seed must be >= 0, got -5"),
    (["simulate", "--workers", "0"], "config rejected: --workers must be >= 1, got 0"),
    (["simulate", "--seed", "1", "--workers", "-2"], "config rejected: --workers must be >= 1"),
])
def test_out_of_range_flag_exits_2_naming_the_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    # the schema's minimum itself is accepted
    assert main(["scan", "--seed", "0", "--workers", "1", "--out", str(out)]) == 0


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "--config", str(path)]) == 2


@pytest.mark.parametrize("override, where", [
    ({"bogus": 1}, "config rejected: bogus is not an allowed key"),
    ({"protocol": {"bogus": 2}}, "config rejected: protocol.bogus is not an allowed key"),
    ({"simulate": {"behaviors": [{"kind": "honest"}, {"kind": "x"}]}},
     "config rejected: simulate.behaviors[1].kind is not one of ["),
    ({"simulate": {"behaviors": [{"kind": "additive", "pattern": [1, -1]}]}},
     "config rejected: simulate.behaviors[0].pattern[1] must be >= 0"),
    ({"simulate": {"behaviors": [{"pattern": [1]}]}},
     "config rejected: simulate.behaviors[0].kind is required"),
    ({"verify": {"checks": []}}, "config rejected: verify.checks needs at least 1 item"),
    # integral floats and non-finite numbers passed JSON Schema and then crashed the run
    ({"simulate": {"trials": 10.0}}, "config rejected: simulate.trials is not an integer literal"),
    ({"protocol": {"alpha": math.nan}}, "config rejected: protocol.alpha is not a finite number"),
    ({"protocol": {"alpha": math.inf}}, "config rejected: protocol.alpha is not a finite number"),
    ({"seed": 1.0}, "config rejected: seed is not an integer literal"),
    ([1], "config rejected: config is not an object"),
])
def test_rejected_config_exits_2_naming_the_key_path(tmp_path, capsys, override, where):
    path = write_config(tmp_path, override)
    assert main(["simulate", "--config", path]) == 2
    assert where in capsys.readouterr().err


def _schema_nodes(schema, path=()):
    """Yield (path, subschema) for every subschema; a path step is a key, or 0 for array items."""
    yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from _schema_nodes(sub, path + (key,))
    if "items" in schema:
        yield from _schema_nodes(schema["items"], path + (0,))


def _dotted(path):
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path).lstrip(".")


def test_schema_uses_only_the_supported_keywords():
    supported = {"type", "minimum", "exclusiveMinimum", "enum", "properties",
                 "additionalProperties", "items", "minItems", "required"}
    for path, node in _schema_nodes(cli._schema()):
        allowed = supported | ({"$schema", "title"} if path == () else set())
        assert set(node) <= allowed, (_dotted(path), set(node) - allowed)
        # the validator implements additionalProperties: false and nothing else
        assert node.get("additionalProperties", False) is False, _dotted(path)
        assert "type" not in node or node["type"] in cli._TYPES, _dotted(path)


def _config_with(path, value):
    """The default config with the node at ``path`` set to ``value`` (missing parents made)."""
    if not path:
        return value
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    node = cfg
    for step, nxt in zip(path, path[1:]):
        empty = [] if isinstance(nxt, int) else {}
        if isinstance(step, int):
            if not node:
                node.append(empty)
            node = node[step]
        else:
            node = node.setdefault(step, empty)
    if isinstance(path[-1], int) and not node:
        node.append(value)
    else:
        node[path[-1]] = value
    return cfg


def _differential_corpus(schema):
    """(label, config) pairs: every schema node with its boundary and wrong-type values."""
    common = [True, 1.0, math.nan, math.inf, -math.inf, "x", None, [], {}, 10**30]
    for path, node in _schema_nodes(schema):
        values = list(common) if path else []
        for bound in ("minimum", "exclusiveMinimum"):
            if bound in node:
                b = node[bound]
                values += [b - 1, b, b + 1]
                if node["type"] == "number":
                    values += [b - 0.5, b + 0.5]
        values += node.get("enum", [])
        for value in values:
            yield (_dotted(path), repr(value)), _config_with(path, value)
        if node.get("type") == "object":
            # an unknown key next to the required ones, then each required key missing
            base = {key: node["properties"][key]["enum"][0] for key in node.get("required", [])}
            yield (_dotted(path), "bogus"), _config_with(path, {**base, "bogus": 1})
            for key in base:
                yield (_dotted(path), f"no {key}"), _config_with(
                    path, {k: v for k, v in base.items() if k != key})


# Configs JSON Schema accepts that cli._validate rejects on purpose: an integral
# float at an integer key (10.0 crashed range() in the run) and a non-finite
# number (NaN passes every minimum and crashed the protocol).
STRICTER = {
    ("seed", "1.0"), ("workers", "1.0"),
    ("protocol.r", "1.0"), ("protocol.d", "1.0"), ("protocol.N", "1.0"),
    ("protocol.msg_N", "1.0"), ("protocol.msg_r0", "1.0"),
    ("simulate.trials", "1.0"), ("simulate.behaviors[0].pattern[0]", "1.0"),
    ("verify.max_pair_enum", "1.0"), ("verify.max_attack_enum", "1.0"),
    ("verify.inject_g[0][0]", "1.0"),
    ("scan.values[0]", "1.0"), ("scan.N", "1.0"), ("scan.r", "1.0"), ("scan.d", "1.0"),
    ("scan.candidates", "1.0"), ("scan.max_pair_enum", "1.0"),
    ("protocol.epsilon", "nan"), ("protocol.epsilon", "inf"),
    ("protocol.alpha", "nan"), ("protocol.alpha", "inf"),
    ("protocol.power_limit", "nan"), ("protocol.power_limit", "inf"),
    ("protocol.noise_var_relay", "nan"), ("protocol.noise_var_relay", "inf"),
    ("protocol.noise_var_dest", "nan"), ("protocol.noise_var_dest", "inf"),
    ("scan.Re", "nan"), ("scan.Re", "inf"),
}


def test_validator_agrees_with_jsonschema_on_a_boundary_corpus():
    jsonschema = pytest.importorskip("jsonschema")
    schema = cli._schema()
    oracle = jsonschema.Draft202012Validator(schema)
    labels, verdicts = [], {}
    for label, cfg in _differential_corpus(schema):
        try:
            cli._validate(cfg, schema)
            ours = True
        except ConfigError:
            ours = False
        labels.append(label)
        verdicts[label] = (ours, oracle.is_valid(cfg))
    assert len(labels) == len(verdicts) > 500
    for label, (ours, theirs) in verdicts.items():
        assert (ours, theirs) == ((False, True) if label in STRICTER else (theirs, theirs)), label
    assert STRICTER <= set(verdicts)
    assert {True, False} == {ours for ours, _ in verdicts.values()}


def test_cli_runs_without_jsonschema_or_the_process_pool(tmp_path):
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"workers": 1, "simulate": {"trials": 20}}))
    ver = tmp_path / "verify.json"
    ver.write_text(json.dumps({"verify": {"checks": ["pinsker"]}}))
    script = f"""
import sys
sys.modules["jsonschema"] = None  # any import of it now fails
from relaysec.cli import main
assert main(["simulate", "--config", {str(sim)!r}, "--out", {str(tmp_path / "s.csv")!r}]) == 0
assert main(["verify", "--config", {str(ver)!r}, "--out", {str(tmp_path / "v.json")!r}]) == 0
assert "concurrent.futures.process" not in sys.modules
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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


def _same_value(got, want):
    """Floats to 1e-12 (the log2-based ones may move by an ulp across CPUs), the rest exactly."""
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same_value(g, w) for g, w in zip(got, want))
    return type(got) is type(want) and got == want


def test_verify_default_records(tmp_path):
    # the seed-1 report as the per-matrix censuses and per-joint Pinsker loop wrote it
    want = json.loads((Path(__file__).parent / "verify_seed1_report.json").read_text())
    out = tmp_path / "report.json"
    assert main(["verify", "--seed", "1", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert (got["seed"], got["all_passed"]) == (want["seed"], want["all_passed"]) == (1, True)
    assert len(got["checks"]) == len(want["checks"]) == 53
    for g, w in zip(got["checks"], want["checks"]):
        assert (g["name"], g["passed"], sorted(g["details"])) == (
            w["name"], w["passed"], sorted(w["details"])), w
        for key, value in w["details"].items():
            assert _same_value(g["details"][key], value), (w["name"], key, g["details"][key])


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


# sha256 of `simulate --seed 1` under the default (noiseless) config, four
# behaviors, recorded while every message block still took its own hop.
# No Gaussian hash is pinned: Box-Muller's log/cos/sin may differ by an ulp
# across CPUs and numpy builds; test_engine.py checks Gaussian trials against
# a scalar per-hop reference instead.
DEFAULT_SIMULATE_SHA256 = "727c781a95846e137bb12aa34070444150ce70fbf5c757a6cefe363974dc18c4"


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_default_config_golden_hash(tmp_path, workers):
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--seed", "1", "--workers", str(workers), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_SIMULATE_SHA256


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


# sha256 of `scan --seed 1` for {"kind": "r", "q": 5, "d": 2, "values": [1, 2, 3]},
# recorded when each scan kind got its own defaults, so the `# config=` line
# holds only the r scan's keys; every line below it is the one recorded before
# the r scan checked the detection code's premises
SCAN_R_SHA256 = "97dc56d5c66768430d6c2e4c66178895c09998a26ca31519eda2e9d0f530a394"
SCAN_R_BODY = b"# seed=1\r\nstatus,param,value,winBound\r\nok,r,1,0.6\r\nok,r,2,0.12\r\nok,r,3,0.024\r\n"


def test_scan_r_golden_hash(tmp_path):
    path = write_config(tmp_path, {"scan": {"kind": "r", "q": 5, "d": 2, "values": [1, 2, 3]}})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--seed", "1", "--out", str(out)]) == 0
    config_line, body = out.read_bytes().split(b"\r\n", 1)
    assert config_line.startswith(b"# config=") and body == SCAN_R_BODY
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_R_SHA256


# sha256 of `scan --seed 1` under the default config, the d scan at q = 2
# (exact log2); recorded before the digit conversions shared one codec
SCAN_D_SHA256 = "d8cf1ae744980ac4f6c785fa75b3bb6d25f141542ea1203dacbfea8b59b0f04f"


def test_scan_d_default_golden_hash(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_D_SHA256


@pytest.mark.parametrize("scan, message", [
    # the r scan's default d = 2 with q = 2: 2 divides d + 2
    ({"kind": "r", "q": 2}, "d + 2 = 4 must not be divisible by q = 2"),
    ({"kind": "r", "q": 3, "d": 1}, "d + 2 = 3 must not be divisible by q = 3"),
    ({"kind": "r", "q": 4, "d": 1}, "q=4 is not prime"),
    # a tag of length 0 would report a "probability" (d+1)/q^0 = 3
    ({"kind": "r", "q": 5, "d": 2, "values": [0, 1]}, "tag length r=0 must be >= 1"),
])
def test_scan_r_premise_breaking_config_exits_2(tmp_path, capsys, scan, message):
    path = write_config(tmp_path, {"scan": scan})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["d", "r", "leakage"])
def test_scan_kind_alone_runs_on_its_own_defaults(tmp_path, kind):
    path = write_config(tmp_path, {"scan": {"kind": kind}})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--seed", "1", "--out", str(out)]) == 0
    config_line = out.read_text().splitlines()[0]
    assert config_line.startswith("# config=")
    scan = json.loads(config_line[len("# config="):])["scan"]
    assert scan == {"kind": kind, **cli.SCANS[kind].defaults}


@pytest.mark.parametrize("scan, message", [
    ({"kind": "d", "candidates": 4}, "scan.candidates is not a key of the d scan"),
    ({"candidates": 4}, "scan.candidates is not a key of the d scan"),  # the default kind
    ({"kind": "r", "N": 3}, "scan.N is not a key of the r scan"),
    ({"kind": "r", "values": [1], "r": 2}, "scan.r is not a key of the r scan"),
    ({"kind": "leakage", "Re": 1.0}, "scan.Re is not a key of the leakage scan"),
    ({"kind": "leakage", "d": 2}, "scan.d is not a key of the leakage scan"),
])
def test_scan_key_outside_its_kind_exits_2(tmp_path, capsys, scan, message):
    path = write_config(tmp_path, {"scan": scan})
    assert main(["scan", "--config", path]) == 2
    assert f"config rejected: {message}" in capsys.readouterr().err
    assert main(["simulate", "--config", path]) == 2  # every command loads the same config


def test_scan_table_matches_the_schema():
    scan_schema = cli._schema()["properties"]["scan"]
    assert list(cli.SCANS) == scan_schema["properties"]["kind"]["enum"]
    keys = set()
    for kind, spec in cli.SCANS.items():
        cli._validate({"kind": kind, **spec.defaults}, scan_schema)
        keys |= set(spec.defaults)
    assert keys | {"kind"} == set(scan_schema["properties"])  # every key is some kind's
    assert DEFAULT_CONFIG["scan"] == {"kind": "d", **cli.SCANS["d"].defaults}


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
    # r = 25 exceeds the first default N = 1
    path = write_config(tmp_path, {"scan": {"kind": "leakage", "r": 25}})
    assert main(["scan", "--config", path]) == 2
    assert "r=25 exceeds N=1" in capsys.readouterr().err
    # one 3 x 3 binary sample at seed 0 has rank 1: no full-rank candidate
    path = write_config(tmp_path, {
        "scan": {"kind": "leakage", "q": 2, "r": 3, "values": [3], "candidates": 1}
    })
    assert main(["scan", "--config", path, "--seed", "0"]) == 2
    assert "no full-row-rank candidate" in capsys.readouterr().err


def test_scan_leakage_non_prime_q_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"scan": {"kind": "leakage", "q": 4, "r": 1, "values": [1]}})
    assert main(["scan", "--config", path]) == 2
    assert "q=4 is not prime" in capsys.readouterr().err


def test_scan_leakage_golden_best_leakage(tmp_path):
    # bestLeakage reprs at seed 1 from the posterior-class pass; the first config is
    # perfbench's SCAN dict.  The joint-table path gave the old reprs, within 1e-12
    golden = [
        ({"kind": "leakage", "q": 11, "r": 1, "values": [1, 2, 3], "candidates": 64},
         ["0.7106503409564708", "0.049322200866908084", "0.00328112657964974"],
         ["0.7106503409564706", "0.04932220086690804", "0.0032811265796502146"]),
        ({"kind": "leakage", "q": 5, "r": 2, "values": [2, 3, 4], "candidates": 64},
         ["1.3543029514736236", "0.4205621396009738", "0.1037438677650071"],
         ["1.354302951473624", "0.42056213960097416", "0.10374386776500746"]),
    ]
    for scan, want, old in golden:
        assert all(abs(float(a) - float(b)) < 1e-12 for a, b in zip(want, old))
        path = write_config(tmp_path, {"scan": scan})
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", path, "--seed", "1", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert [r[0] for r in rows] == ["ok"] * 3
        assert [int(r[2]) for r in rows] == scan["values"]
        assert [r[3] for r in rows] == want
