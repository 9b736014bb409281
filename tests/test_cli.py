"""CLI contract: config validation, reports, CSV determinism, exit codes."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relaysec import cli, oracle, protocol
from relaysec.cli import ConfigError, DEFAULT_CONFIG, load_config, main
from relaysec.extract import seed_uniformity
from relaysec.lattice import NestedLatticePair
from relaysec.protocol import ProtocolParams, operating_point

from closed_form import rate_accounting


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
    # d + 2 divisible by q, or a vacuous bound (d+1)/q^r >= 1, is rejected before any run
    for d, why in [(3, "d + 2 = 5 must not be divisible by q = 5"),
                   (24, "detection bound (d+1)/q^r = 25/25 is not below 1")]:
        path = write_config(tmp_path, {"protocol": {"d": d}})
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert f"protocol config rejected: {why}" in capsys.readouterr().err
        assert not out.exists()
        assert main(["verify", "--config", path]) == 2


@pytest.mark.parametrize("command, where", [
    ("verify", "protocol config"),
    ("simulate", "protocol config"),
    ("scan", "point scan row d=1"),  # the default scan names its first row
])
def test_non_prime_msg_q_exits_2_writing_nothing(tmp_path, capsys, command, where):
    # msg_q = 4 passes the message code's length check, but no nested lattice has ratio 4
    path = write_config(tmp_path, {"protocol": {"msg_q": 4, "msg_r0": 1}})
    out = tmp_path / "out.txt"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert f"{where} rejected: msg_q=4 is not prime" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["verify", "simulate", "scan"])
def test_unknown_behavior_kind_exits_2_from_load_config(tmp_path, capsys, command):
    # the schema's kind enum is the only guard: no command builds a behavior before it
    path = write_config(tmp_path, {"simulate": {"behaviors": [{"kind": "sniff"}]}})
    with pytest.raises(ConfigError, match=r"simulate\.behaviors\[0\]\.kind is not one of"):
        load_config(path)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert "simulate.behaviors[0].kind is not one of" in capsys.readouterr().err
    assert not out.exists()


def _schema_nodes(schema, path=(), home=()):
    """Yield (path, home, subschema) for every subschema a config can reach.

    A path step is a key, or 0 for array items.  A ``$ref`` node is yielded
    as it is and then followed to its target, whose subschemas keep their
    own ``home``, their path in the schema file, under the config's path.
    """
    yield path, home, schema
    if "$ref" in schema:
        home = tuple(schema["$ref"].split("/")[2::2])  # "#/properties/protocol" -> ("protocol",)
        schema = _target(schema)
    for key, sub in schema.get("properties", {}).items():
        yield from _schema_nodes(sub, path + (key,), home + (key,))
    if "items" in schema:
        yield from _schema_nodes(schema["items"], path + (0,), home + (0,))


def _target(node):
    """The subschema a ``$ref`` node points to, or the node itself."""
    if "$ref" not in node:
        return node
    target = cli._schema()
    for step in node["$ref"].split("/")[1:]:
        target = target[step]
    return target


def _dotted(path):
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path).lstrip(".")


def test_schema_uses_only_the_supported_keywords():
    supported = {"type", "minimum", "exclusiveMinimum", "enum", "properties",
                 "additionalProperties", "items", "minItems", "required", "$ref"}
    refs = 0
    for path, _, node in _schema_nodes(cli._schema()):
        allowed = supported | ({"$schema", "title"} if path == () else set())
        assert set(node) <= allowed, (_dotted(path), set(node) - allowed)
        if "$ref" in node:  # the validator reads a $ref node's pointer and nothing beside it
            assert set(node) == {"$ref"} and node["$ref"].startswith("#/"), _dotted(path)
            refs += 1
        # the validator implements additionalProperties: false and nothing else
        assert node.get("additionalProperties", False) is False, _dotted(path)
        assert "type" not in node or node["type"] in cli._TYPES, _dotted(path)
    assert refs == 1  # scan.points[0], a protocol section


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
    """(label, home label, config): every schema node with its boundary and wrong-type values.

    A label is the config path and the value; the home label names the node's
    path in the schema file instead, which differs below a ``$ref``.
    """
    common = [True, 1.0, math.nan, math.inf, -math.inf, "x", None, [], {}, 10**30]
    for path, home, node in _schema_nodes(schema):
        node = _target(node)
        values = list(common) if path else []
        for bound in ("minimum", "exclusiveMinimum"):
            if bound in node:
                b = node[bound]
                values += [b - 1, b, b + 1]
                if node["type"] == "number":
                    values += [b - 0.5, b + 0.5]
        values += node.get("enum", [])
        cases = [(repr(value), value) for value in values]
        if node.get("type") == "object":
            # an unknown key next to the required ones, then each required key missing
            base = {key: node["properties"][key]["enum"][0] for key in node.get("required", [])}
            cases.append(("bogus", {**base, "bogus": 1}))
            cases += [(f"no {key}", {k: v for k, v in base.items() if k != key}) for key in base]
        for name, value in cases:
            yield (_dotted(path), name), (_dotted(home), name), _config_with(path, value)


# Configs JSON Schema accepts that cli._validate rejects on purpose: an integral
# float at an integer key (10.0 crashed range() in the run) and a non-finite
# number (NaN passes every minimum and crashed the protocol).  Each entry names
# a node by its home, so the protocol's entries cover scan.points[0] too.
STRICTER = {
    ("seed", "1.0"), ("workers", "1.0"),
    ("protocol.r", "1.0"), ("protocol.d", "1.0"), ("protocol.N", "1.0"),
    ("protocol.msg_N", "1.0"), ("protocol.msg_r0", "1.0"),
    ("simulate.trials", "1.0"), ("simulate.behaviors[0].pattern[0]", "1.0"),
    ("scan.values[0]", "1.0"), ("scan.r", "1.0"), ("scan.candidates", "1.0"),
    ("protocol.epsilon", "nan"), ("protocol.epsilon", "inf"),
    ("protocol.alpha", "nan"), ("protocol.alpha", "inf"),
    ("protocol.power_limit", "nan"), ("protocol.power_limit", "inf"),
    ("protocol.noise_var_relay", "nan"), ("protocol.noise_var_relay", "inf"),
    ("protocol.noise_var_dest", "nan"), ("protocol.noise_var_dest", "inf"),
}


def test_validator_agrees_with_jsonschema_on_a_boundary_corpus():
    jsonschema = pytest.importorskip("jsonschema")
    schema = cli._schema()
    oracle = jsonschema.Draft202012Validator(schema)
    labels, verdicts, homes = [], {}, {}
    for label, home, cfg in _differential_corpus(schema):
        try:
            cli._validate(cfg, schema)
            ours = True
        except ConfigError:
            ours = False
        labels.append(label)
        verdicts[label] = (ours, oracle.is_valid(cfg))
        homes[label] = home
    assert len(labels) == len(verdicts) > 600
    assert {path for path, _ in labels} == {_dotted(path) for path, _, _ in _schema_nodes(schema)}
    assert ("scan.points[0].alpha", "nan") in verdicts  # the corpus follows the $ref
    for label, (ours, theirs) in verdicts.items():
        strict = homes[label] in STRICTER
        assert (ours, theirs) == ((False, True) if strict else (theirs, theirs)), label
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
assert "concurrent.futures" not in sys.modules
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
    # the exact bytes of `relaysec verify --seed 1`; floats are compared to 1e-12 all the same
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


def test_verify_injected_rank_deficient_map_fails(tmp_path, monkeypatch):
    def rank_deficient(seed):
        _, uniform = seed_uniformity([[0, 0]], 3)
        yield uniform, {"matrix": [[0, 0]], "label": "injected", "q": 3}

    monkeypatch.setitem(cli.CHECKS, "seed-uniformity", rank_deficient)
    path = write_config(tmp_path, {"verify": {"checks": ["seed-uniformity"]}})
    out = tmp_path / "report.json"
    code = main(["verify", "--config", path, "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert not report["all_passed"]
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing and failing[0]["details"]["matrix"] == [[0, 0]]


@pytest.mark.parametrize("command, section", [
    ("verify", {"verify": {"max_pair_enum": 10**8}}),
    ("verify", {"verify": {"max_attack_enum": 10**8}}),
    ("verify", {"verify": {"inject_g": [[0, 0]]}}),
    ("verify", {"verify": {"inject_q": 3}}),
    ("scan", {"scan": {"kind": "leakage", "max_pair_enum": 10**8}}),
])
def test_removed_size_and_inject_keys_exit_2(tmp_path, capsys, command, section):
    # the enumeration caps are oracle constants, and no config injects a matrix
    (where, body), = section.items()
    key = next(k for k in body if k != "kind")
    path = write_config(tmp_path, section)
    assert main([command, "--config", path]) == 2
    assert f"config rejected: {where}.{key} is not an allowed key" in capsys.readouterr().err


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
# behaviors, recorded when the `# config=` line began to carry only the
# protocol and simulate sections; every line below it is the one recorded
# while every message block still took its own hop.
DEFAULT_SIMULATE_SHA256 = "cbbbc5ba2d9cd80083deed282edeb53086ad1f85b0ccf5b7f2e228613b773ab8"
DEFAULT_SIMULATE_BODY = (
    b"# seed=1\r\n"
    b"behavior,trials,decodeErrRate,falseRejectRate,adversaryWinRate,winBound,n,RT,PT,seed\r\n"
    b"honest,1000,0.0,0.0,0.0,0.12,20,0.23219280948873622,1.671875,1\r\n"
    b"substitute[1],1000,1.0,0.0,0.003,0.12,20,0.23219280948873622,1.671875,1\r\n"
    b"additive[1],1000,0.998,0.002,0.004,0.12,20,0.23219280948873622,1.671875,1\r\n"
    b"garble,1000,1.0,0.0,0.002,0.12,20,0.23219280948873622,1.671875,1\r\n"
)


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_default_config_golden_hash(tmp_path, workers):
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--seed", "1", "--workers", str(workers), "--out", str(out)]) == 0
    config_line, body = out.read_bytes().split(b"\r\n", 1)
    assert config_line.startswith(b"# config=") and body == DEFAULT_SIMULATE_BODY
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_SIMULATE_SHA256


# sha256 of `simulate --seed 3` on a Gaussian operating point (alpha = 3.6,
# where the rate condition holds) at 1,500 trials; its rows were recorded while
# the lattice code still carried fixed dithers, and its `# config=` line when
# that line began to carry only the protocol and simulate sections.
# Box-Muller's log/cos/sin may differ by an ulp across CPUs and numpy builds,
# so a platform may fail this hash alone; test_engine.py also checks Gaussian
# trials against a scalar per-exchange reference.
GAUSSIAN_SIMULATE_SHA256 = "0f37660b1844a9152d4f6ae0eeeffdb7fe675e35ea2e49ce48fbe50c31b8083d"
GAUSSIAN_SIM = {
    "protocol": {"noiseless": False, "alpha": 3.6, "noise_var_relay": 0.1, "noise_var_dest": 0.1},
    "simulate": {"trials": 1500},
}


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_gaussian_golden_hash(tmp_path, workers):
    path = write_config(tmp_path, GAUSSIAN_SIM)
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", path, "--seed", "3",
                 "--workers", str(workers), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GAUSSIAN_SIMULATE_SHA256


# sha256 of `simulate --seed 1` at the two edges of the message codec's
# int64 range: a 70-bit payload, which needs Python ints, and a 62-bit payload
# padded to 16 blocks of 4 bits, a 64-bit padded value.  The rows were
# recorded while the message still went out as payload bit vectors, the
# `# config=` line when it began to carry only the protocol and simulate sections.
MESSAGE_EDGE_SIMULATE_SHA256 = [
    ({"q": 11, "r": 2, "N": 3, "d": 10},
     "580585a35aca971b30dfb38c1172e17ab9cbebecde5041137a461acd64d73417"),
    ({"q": 7, "r": 2, "d": 11, "N": 4, "msg_q": 11, "msg_N": 2, "msg_r0": 4},
     "8885b39b4b96ff925e8f388ac7c2f16bf839d1a0bdf8d4409cc5e93fa72ceb23"),
]


@pytest.mark.parametrize("protocol,digest", MESSAGE_EDGE_SIMULATE_SHA256,
                         ids=["70-bit", "62-bit-in-64"])
def test_simulate_message_edge_golden_hash(tmp_path, protocol, digest):
    path = write_config(tmp_path, {"protocol": protocol})
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", path, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `simulate --seed 5` at 2,000 trials on a point where the seed,
# tag and message codes differ in nesting ratio (7, 7, 5) and exchange width
# (4, 2, 3), with patterns longer than one coordinate that restart at each
# exchange; recorded while each stage still took its own hop.
MIXED_CODES = {"q": 7, "r": 2, "N": 4, "d": 2, "msg_q": 5, "msg_N": 3, "msg_r0": 2}
MIXED_CODES_BEHAVIORS = [{"kind": "honest"}, {"kind": "substitute", "pattern": [1, 2, 3]},
                         {"kind": "additive", "pattern": [2, 4]}, {"kind": "garble"}]
MIXED_CODES_SIMULATE_SHA256 = [
    ({}, "7ab5fa5dde27d1136af625c50f81531d05300958d86b6fb725089fe2cd75c600"),
    ({"noiseless": False, "alpha": 2.5, "noise_var_relay": 0.1, "noise_var_dest": 0.1},
     "11a5ef793fc55621e8c3fa5608f9355f9dca1e97a59fb1a57891300482fccd19"),
]


@pytest.mark.parametrize("mode,digest", MIXED_CODES_SIMULATE_SHA256,
                         ids=["noiseless", "gaussian"])
def test_simulate_mixed_codes_golden_hash(tmp_path, mode, digest):
    path = write_config(tmp_path, {
        "protocol": {**MIXED_CODES, **mode},
        "simulate": {"trials": 2000, "behaviors": MIXED_CODES_BEHAVIORS},
    })
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", path, "--seed", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_builds_one_pool_per_command(tmp_path, monkeypatch):
    import concurrent.futures

    from relaysec import protocol

    monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)  # a 1-CPU host runs no pool
    built = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    outs = []
    for workers in ("2", "1"):  # the default four behaviors
        out = tmp_path / f"rows{workers}.csv"
        assert main(["simulate", "--workers", workers, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
        assert built == [{"max_workers": 2}]
    assert outs[0] == outs[1]


def test_simulate_json_format(tmp_path):
    path = write_config(tmp_path, FAST_SIM)
    out = tmp_path / "rows.json"
    assert main(["simulate", "--config", path, "--seed", "2",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["seed"] == 2
    assert len(payload["rows"]) == 2


# ---------------------------------------------------------------------
# the output path
# ---------------------------------------------------------------------


# a fast config for each command
QUICK = {
    "verify": {"verify": {"checks": ["pinsker"]}},
    "simulate": {"simulate": {"trials": 20, "behaviors": [{"kind": "honest"}]}},
    "scan": {"scan": {"kind": "point", "points": [{"d": 1}]}},
}


def _stdout_bytes(capsys, argv):
    capsys.readouterr()
    main(argv)
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("command", QUICK)
def test_out_bytes_equal_stdout_bytes(tmp_path, capsys, command):
    path = write_config(tmp_path, QUICK[command])
    out = tmp_path / "out.txt"
    assert main([command, "--config", path, "--out", str(out)]) == 0
    assert out.read_bytes() == _stdout_bytes(capsys, [command, "--config", path])


def test_short_output_over_a_longer_file_leaves_no_stale_tail(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["scan", "--out", str(out)]) == 0  # the default six points
    longer = out.stat().st_size
    path = write_config(tmp_path, QUICK["scan"])
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    assert out.read_bytes() == _stdout_bytes(capsys, ["scan", "--config", path])
    assert out.stat().st_size < longer


def test_out_through_a_symlink_writes_the_target_and_keeps_the_link(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old output, longer than the new one\n" * 100)
    link.symlink_to(target)
    path = write_config(tmp_path, QUICK["scan"])
    assert main(["scan", "--config", path, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _stdout_bytes(capsys, ["scan", "--config", path])


def test_out_keeps_the_file_mode_and_inode(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("x")
    out.chmod(0o600)
    inode = out.stat().st_ino
    assert main(["scan", "--config", write_config(tmp_path, QUICK["scan"]),
                 "--out", str(out)]) == 0
    assert (out.stat().st_mode & 0o777, out.stat().st_ino) == (0o600, inode)


@pytest.mark.parametrize("command", QUICK)
def test_out_dev_null_exits_0(tmp_path, command):
    assert main([command, "--config", write_config(tmp_path, QUICK[command]),
                 "--out", os.devnull]) == 0


def test_out_to_a_fifo_reaches_its_reader(tmp_path, capsys):
    import threading

    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()))
    reader.start()
    path = write_config(tmp_path, QUICK["scan"])
    assert main(["scan", "--config", path, "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert read == [_stdout_bytes(capsys, ["scan", "--config", path])]


@pytest.mark.parametrize("command", QUICK)
@pytest.mark.parametrize("where, reason", [
    ("missing/dir/out.txt", "No such file or directory"),
    ("/nonexistent/dir/rows.csv", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command, where,
                                              reason):
    """The path is checked before the command's run, which never starts."""
    _forbid_runs(monkeypatch)
    path = write_config(tmp_path, QUICK[command])
    out = tmp_path / where
    capsys.readouterr()
    assert main([command, "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"output error: {out}: {reason}\n"


@pytest.mark.parametrize("command", QUICK)
def test_empty_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch, command):
    # os.stat("") fails as a missing file and its directory "." is writable: the check let
    # it pass, and simulate ran its whole Monte Carlo before the write failed
    _forbid_runs(monkeypatch)
    path = write_config(tmp_path, QUICK[command])
    capsys.readouterr()
    assert main([command, "--config", path, "--out", ""]) == 2
    assert capsys.readouterr() == ("", "output error: '': an empty path names no file\n")


def _forbid_runs(monkeypatch):
    """Make every command's run fail the test if it starts."""
    def never(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(protocol.TwoHopProtocol, "monte_carlo", never)
    monkeypatch.setattr(cli, "_run_checks", never)
    monkeypatch.setitem(cli.SCANS, "point", cli.SCANS["point"]._replace(rows=never))


def test_config_error_leaves_an_existing_out_untouched(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    out.write_text("old output\n")
    before = out.stat()
    path = write_config(tmp_path, {"protocol": {"msg_q": 4, "msg_r0": 1}})
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    after = out.stat()
    assert out.read_text() == "old output\n"
    assert (after.st_mtime_ns, after.st_size) == (before.st_mtime_ns, before.st_size)


# ---------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------


def _scan_rows(path):
    return [l.split(",") for l in Path(path).read_text().splitlines()
            if l and not l.startswith("#")][1:]


def test_scan_point_d_sweep_matches_closed_form(tmp_path, capsys):
    # with msg_N = N = 4 and msg_r0 = 4 the message code carries Re = 1 bit per use,
    # so the protocol's (n, RT) is the paper's closed form rate_accounting(N, r, q, d, Re)
    # d <= 23 keeps the detection bound (d+1)/q^r below 1 at q^r = 25
    values = [d for d in range(1, 24) if (d + 2) % 5]
    path = write_config(tmp_path, {
        "protocol": {"N": 4, "msg_N": 4, "msg_r0": 4},
        "scan": {"kind": "point", "points": [{"d": d} for d in values]},
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    rows = _scan_rows(out)
    assert [r[1] for r in rows] == [f"d={d}" for d in values]
    for d, row in zip(values, rows):
        n, rt = rate_accounting(4, 2, 5, d, 1.0)
        assert (int(row[2]), float(row[3]), row[4]) == (n, rt, "0.5")
        assert float(row[3]) < float(row[4])  # RT stays below Re/2
    out.unlink()
    for d in (24, 64):  # (d+1)/q^r >= 1: the row is rejected, naming it
        path = write_config(tmp_path, {"scan": {"kind": "point", "points": [{"d": 1}, {"d": d}]}})
        assert main(["scan", "--config", path, "--out", str(out)]) == 2
        assert f"point scan row d={d} rejected: detection bound" in capsys.readouterr().err
        assert not out.exists()


# The d = 2 path along which winBound falls geometrically in n while RT stays
# near halfRe: (N, r) grow together at q = 5, r = r_max(N) for epsilon = 0.1.
ASYMPTOTIC_PATH = [{"N": 4, "r": 2}, {"N": 6, "r": 3}, {"N": 8, "r": 4}]


@pytest.mark.parametrize("protocol, scan", [
    ({}, {"kind": "point"}),
    ({"N": 6}, {"kind": "point", "points": [{"r": 1}, {"r": 2}, {"r": 3}]}),
    ({"q": 11, "r": 1, "N": 12, "msg_N": 3},
     {"kind": "point", "points": [{"d": 1}, {"d": 2}, {"d": 5}, {"d": 8}]}),
    ({}, {"kind": "point", "points": ASYMPTOTIC_PATH}),
    # a point sets any protocol key, several at once, over the protocol section's own
    ({"d": 1, "N": 6}, {"kind": "point", "points": [{"msg_N": 3, "msg_r0": 3}, {"q": 7, "r": 1},
                                                    {"alpha": 3.0, "epsilon": 0.05}]}),
])
def test_scan_point_rows_match_the_protocol(tmp_path, protocol, scan):
    path = write_config(tmp_path, {"protocol": protocol, "scan": scan})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    points = load_config(path)["scan"]["points"]
    rows = _scan_rows(out)
    assert len(rows) == len(points)
    for row, point in zip(rows, points):
        # operating_point of the directly built params, and simulate's row at the same section
        params = ProtocolParams(**{**protocol, **point})
        n, rt, half_re, bound = operating_point(params)
        sim_path = write_config(tmp_path, {"protocol": {**protocol, **point}, "simulate": {
            "trials": 1, "behaviors": [{"kind": "honest"}]}})
        sim_out = tmp_path / "sim.json"
        assert main(["simulate", "--config", sim_path, "--format", "json",
                     "--out", str(sim_out)]) == 0
        (sim,) = json.loads(sim_out.read_text())["rows"]
        assert row[0] == "ok"
        assert row[2:] == [str(n), repr(rt), repr(half_re), repr(bound)]
        assert row[2:] == [str(sim["n"]), sim["RT"],
                           repr(params.msg_r0 / (2 * params.msg_N)), sim["winBound"]]
    if not protocol and "points" not in scan:  # simulate's operating point
        assert rows[1][1:] == ["d=2", "20", "0.23219280948873622", "0.5", "0.12"]


def test_scan_points_along_the_asymptotic_path(tmp_path):
    # n grows 20 -> 29 -> 40 while winBound = 3/5^r falls five-fold per step
    path = write_config(tmp_path, {"scan": {"points": ASYMPTOTIC_PATH}})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    assert _scan_rows(out) == [
        ["ok", "N=4 r=2", "20", "0.23219280948873622", "0.5", "0.12"],
        ["ok", "N=6 r=3", "29", "0.2401994580917961", "0.5", "0.024"],
        ["ok", "N=8 r=4", "40", "0.23219280948873622", "0.5", "0.0048"],
    ]


def test_scan_point_cell_names_the_point_in_its_own_order(tmp_path, capsys):
    # each key as key=<its JSON value>, joined by spaces, in the order the config gives them
    points = [{"r": 1, "N": 6}, {"noiseless": False, "alpha": 2.5}, {"epsilon": 0.05}]
    path = write_config(tmp_path, {"scan": {"points": points}})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    assert [r[1] for r in _scan_rows(out)] == ["r=1 N=6", "noiseless=false alpha=2.5",
                                              "epsilon=0.05"]
    # a rejected row names itself the same way
    path = write_config(tmp_path, {"scan": {"points": [{"N": 4, "r": 2}, {"r": 3, "N": 4}]}})
    out.unlink()
    assert main(["scan", "--config", path, "--out", str(out)]) == 2
    assert ("point scan row r=3 N=4 rejected: r = 3 exceeds the extractable cap 2"
            in capsys.readouterr().err)
    assert not out.exists()


def test_scan_r_sweep_win_bound_column(tmp_path):
    path = write_config(tmp_path, {
        "protocol": {"N": 6},
        "scan": {"kind": "point", "points": [{"r": 1}, {"r": 2}, {"r": 3}]},
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    rows = _scan_rows(out)
    assert [r[5] for r in rows] == ["0.6", "0.12", "0.024"]
    for r, row in zip((1, 2, 3), rows):
        assert row[1] == f"r={r}" and float(row[5]) == 3 / 5**r


# sha256 of `scan --seed 1` for {"protocol": {"N": 6}} and the point scan over
# r = 1, 2, 3, recorded when the point scan's grid became a list of protocol
# sections; its (n, RT, halfRe, winBound) columns are those of the r scan
# before it, whose winBound repeated the old r scan's 0.6, 0.12 and 0.024
SCAN_R_SHA256 = "4dec0bae0f27b730f3b7cd5a047e73e55cd4808c9875ebf9b796c6403a6e6e9e"
SCAN_R_BODY = (b"# seed=1\r\nstatus,point,n,RT,halfRe,winBound\r\n"
               b"ok,r=1,19,0.12220674183617695,0.5,0.6\r\n"
               b"ok,r=2,24,0.1934940079072802,0.5,0.12\r\n"
               b"ok,r=3,29,0.2401994580917961,0.5,0.024\r\n")


def test_scan_r_golden_hash(tmp_path):
    path = write_config(tmp_path, {
        "protocol": {"N": 6},
        "scan": {"kind": "point", "points": [{"r": 1}, {"r": 2}, {"r": 3}]},
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--seed", "1", "--out", str(out)]) == 0
    config_line, body = out.read_bytes().split(b"\r\n", 1)
    assert config_line.startswith(b"# config=") and body == SCAN_R_BODY
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_R_SHA256


# sha256 of `scan --seed 1` under the default config, the point scan over d at
# the protocol defaults; recorded when the point scan's grid became a list of
# protocol sections.  The six (n, RT, halfRe, winBound) tuples are the d scan's.
SCAN_D_SHA256 = "accb18d4762631bb48c639411f2bd624bb6e724e3bd6888d3ef25a3fdc03d265"
SCAN_D_BODY = (b"# seed=1\r\nstatus,point,n,RT,halfRe,winBound\r\n"
               b"ok,d=1,16,0.14512050593046014,0.5,0.08\r\n"
               b"ok,d=2,20,0.23219280948873622,0.5,0.12\r\n"
               b"ok,d=4,30,0.3095904126516483,0.5,0.2\r\n"
               b"ok,d=6,38,0.3666202255085309,0.5,0.28\r\n"
               b"ok,d=9,52,0.40187217026896654,0.5,0.4\r\n"
               b"ok,d=16,86,0.43198662230462553,0.5,0.68\r\n")


def test_scan_d_default_golden_hash(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--seed", "1", "--out", str(out)]) == 0
    config_line, body = out.read_bytes().split(b"\r\n", 1)
    assert config_line.startswith(b"# config=") and body == SCAN_D_BODY
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_D_SHA256


@pytest.mark.parametrize("command, config, sections", [
    ("simulate", {"simulate": {"trials": 2}}, ["protocol", "simulate"]),
    ("scan", {}, ["protocol", "scan"]),
    ("scan", {"scan": {"kind": "leakage", "values": [1]}}, ["protocol", "scan"]),
])
def test_outputs_record_only_the_config_sections_they_read(tmp_path, command, config, sections):
    # sections the command never reads leave its output byte-identical
    other = {"seed": 4, "workers": 2, "verify": {"checks": ["pinsker"]},
             "scan": {"points": [{"r": 1}]}, "simulate": {"trials": 3}}
    outs = []
    for extra in ({}, {k: v for k, v in other.items() if k not in sections}):
        path = write_config(tmp_path, {**config, **extra})
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            assert main([command, "--config", path, "--seed", "1", "--format", fmt,
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
    assert outs[:2] == outs[2:]
    config_line = outs[0].split(b"\r\n", 1)[0].decode()
    assert sorted(json.loads(config_line[len("# config="):])) == sections
    assert sorted(json.loads(outs[1])["meta"]["config"]) == sections


# Each case is the config of one scan run.  Every row goes through ProtocolParams,
# so a premise a row breaks exits 2 with the row named and nothing written.
@pytest.mark.parametrize("scan, message", [
    # the old r scan's default d = 2 with q = 2: 2 divides d + 2
    ({"protocol": {"q": 2}, "scan": {"kind": "point", "points": [{"r": 1}]}},
     "d + 2 = 4 must not be divisible by q = 2"),
    ({"protocol": {"q": 3, "d": 1}, "scan": {"kind": "point", "points": [{"r": 1}]}},
     "d + 2 = 3 must not be divisible by q = 3"),
    ({"protocol": {"q": 4, "d": 1}, "scan": {"kind": "point", "points": [{"r": 1}]}},
     "q=4 is not prime"),
    # a tag of length 0 would report a "probability" (d+1)/q^0 = 3
    ({"scan": {"kind": "point", "points": [{"r": 0}, {"r": 1}]}},
     "config rejected: scan.points[0].r must be >= 1, got 0"),
    ({"scan": {"kind": "point", "points": [{"r": 1}, {"r": 2}, {"r": 3}]}},
     "point scan row r=3 rejected: r = 3 exceeds the extractable cap 2"),
    ({"protocol": {"q": 11, "N": 12}, "scan": {"kind": "point", "points": [{"r": 3}]}},
     "point scan row r=3 rejected: GF(11^3) has more than 1024 elements"),
    ({"protocol": {"r": 0}, "scan": {"kind": "point"}},
     "config rejected: protocol.r must be >= 1, got 0"),
])
def test_scan_r_premise_breaking_config_exits_2(tmp_path, capsys, scan, message):
    path = write_config(tmp_path, scan)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scan, message", [
    # the old d scan printed ok rows here: q = 2 with d = 2, where 2 divides d + 2
    ({"protocol": {"q": 2}, "scan": {"kind": "point", "points": [{"d": 2}]}},
     "point scan row d=2 rejected: d + 2 = 4 must not be divisible by q = 2"),
    # a valid row before the rejected one writes nothing either
    ({"scan": {"kind": "point", "points": [{"d": 1}, {"d": 3}]}},
     "point scan row d=3 rejected: d + 2 = 5 must not be divisible by q = 5"),
    ({"protocol": {"q": 4}, "scan": {"kind": "point"}},
     "point scan row d=1 rejected: q=4 is not prime"),
    ({"scan": {"kind": "point", "points": [{"d": 1}, {"d": 0}]}},
     "config rejected: scan.points[1].d must be >= 1, got 0"),
    # the old d scan read its own r, which could be 0: the point scan reads the protocol's
    ({"scan": {"kind": "point", "r": 0, "points": [{"d": 1}, {"d": 2}]}},
     "config rejected: scan.r is not a key of the point scan"),
    # the removed kind, with the premise-breaking configs it used to print
    ({"scan": {"kind": "d", "q": 2, "values": [2]}},
     "config rejected: scan.kind is not one of ['point', 'leakage']"),
    ({"scan": {"kind": "d", "r": 0, "values": [1, 2]}},
     "config rejected: scan.kind is not one of ['point', 'leakage']"),
])
def test_scan_d_premise_breaking_config_exits_2(tmp_path, capsys, scan, message):
    path = write_config(tmp_path, scan)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scan, message", [
    # d >= 1 is a premise of the detection code; N = 0 is no lattice
    ({"kind": "point", "points": [{"d": 0}]},
     "config rejected: scan.points[0].d must be >= 1, got 0"),
    ({"kind": "leakage", "r": 0, "values": [0]},
     "config rejected: scan.values[0] must be >= 1, got 0"),
    # the one-key grid the points replaced
    ({"kind": "point", "param": "q"}, "config rejected: scan.param is not an allowed key"),
    ({"kind": "point", "values": [1, 2]},
     "config rejected: scan.values is not a key of the point scan"),
    # a point is a protocol section, checked by the protocol's own schema
    ({"kind": "point", "points": [{"d": 1}, {"d": 2, "bogus": 1}]},
     "config rejected: scan.points[1].bogus is not an allowed key"),
    ({"kind": "point", "points": [{"N": 4.0}]},
     "config rejected: scan.points[0].N is not an integer literal"),
    ({"kind": "point", "points": [{"alpha": "2"}]},
     "config rejected: scan.points[0].alpha is not a finite number"),
    ({"kind": "point", "points": [2]}, "config rejected: scan.points[0] is not an object"),
    ({"kind": "point", "points": []}, "config rejected: scan.points needs at least 1 item"),
])
def test_scan_grid_outside_the_premises_exits_2(tmp_path, capsys, scan, message):
    path = write_config(tmp_path, {"scan": scan})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["point", "leakage"])
def test_scan_kind_alone_runs_on_its_own_defaults(tmp_path, kind):
    path = write_config(tmp_path, {"scan": {"kind": kind}})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--seed", "1", "--out", str(out)]) == 0
    config_line = out.read_text().splitlines()[0]
    assert config_line.startswith("# config=")
    scan = json.loads(config_line[len("# config="):])["scan"]
    assert scan == {"kind": kind, **cli.SCANS[kind].defaults}


@pytest.mark.parametrize("scan, message", [
    ({"kind": "point", "candidates": 4}, "scan.candidates is not a key of the point scan"),
    ({"candidates": 4}, "scan.candidates is not a key of the point scan"),  # the default kind
    ({"kind": "point", "q": 3}, "scan.q is not a key of the point scan"),
    ({"kind": "leakage", "param": "d"}, "scan.param is not an allowed key"),
    # the old d and r scans' own operating point: the point scan reads the protocol section
    ({"kind": "point", "N": 3}, "scan.N is not an allowed key"),
    ({"kind": "point", "d": 2}, "scan.d is not an allowed key"),
    ({"kind": "leakage", "Re": 1.0}, "scan.Re is not an allowed key"),
    ({"kind": "leakage", "points": [{"d": 1}]}, "scan.points is not a key of the leakage scan"),
])
def test_scan_key_outside_its_kind_exits_2(tmp_path, capsys, scan, message):
    path = write_config(tmp_path, {"scan": scan})
    assert main(["scan", "--config", path]) == 2
    assert f"config rejected: {message}" in capsys.readouterr().err
    assert main(["simulate", "--config", path]) == 2  # every command loads the same config


@pytest.mark.parametrize("kind", ["honest", "garble"])
def test_pattern_on_a_behavior_that_reads_none_exits_2(tmp_path, capsys, kind):
    # such a pattern was accepted and ignored: the row matched the one without it
    behaviors = [{"kind": "additive", "pattern": [2]}, {"kind": kind, "pattern": [3, 4]}]
    path = write_config(tmp_path, {"simulate": {"behaviors": behaviors}})
    for command in ("simulate", "verify", "scan"):  # every command loads the same config
        assert main([command, "--config", path]) == 2
        assert (f"config rejected: simulate.behaviors[1].pattern is not a key of the {kind} "
                "behavior") in capsys.readouterr().err


def test_scan_table_matches_the_schema():
    scan_schema = cli._schema()["properties"]["scan"]
    assert list(cli.SCANS) == scan_schema["properties"]["kind"]["enum"] == ["point", "leakage"]
    keys = set()
    for kind, spec in cli.SCANS.items():
        cli._validate({"kind": kind, **spec.defaults}, scan_schema)
        keys |= set(spec.defaults)
    assert keys | {"kind"} == set(scan_schema["properties"])  # every key is some kind's
    assert DEFAULT_CONFIG["scan"] == {"kind": "point", **cli.SCANS["point"].defaults}


def test_module_entry_point_subprocess(tmp_path):
    path = write_config(tmp_path, {"scan": {"kind": "point", "points": [{"r": 1}, {"r": 2}]}})
    result = subprocess.run(
        [sys.executable, "-m", "relaysec.cli", "scan", "--config", path],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "winBound" in result.stdout


def _address_space_cap():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("protocol, message", [
    # build_encoder's 5^10-point enumeration died with a MemoryError traceback and exit 1
    ({"msg_N": 10}, "the message code's 5^10 codebook points exceed 100000"),
    ({"msg_N": 40}, "the message code's 5^40 codebook points exceed 100000"),
    # these ran, at a per-use power of 32 > 30, and at PT = inf
    ({"alpha": 4.0}, "the (q=5, alpha=4.0) code's per-use power 32.0 exceeds power_limit = 30.0"),
    ({"alpha": 1e300}, "the (q=5, alpha=1e+300) code's per-use power inf exceeds"),
    # trial division to sqrt(2^61 - 1) ran before the caps, and simulate and scan hung
    ({"q": 2**61 - 1, "r": 1, "d": 1}, f"GF({2**61 - 1}^r) has more than 1024 elements"),
    ({"msg_q": 2**61 - 1}, f"the message code's {2**61 - 1}^msg_N codebook points exceed"),
    # simulate exited 0 with every rate 1.0
    ({"noiseless": False, "noise_var_relay": 1e308},
     "noise_var_relay = 1e+308: the largest noise draw, 8.57 deviations, leaves the int64 "
     "decoder's range at alpha = 1.0"),
    # at d = 2, simulate exited 1 with an "array is too big" traceback and the point scan
    # printed n = 18446744073709551694; d = 1 gives every command the same layout
    ({"N": 2**63, "d": 1}, f"a trial draws {10 * 2**63 + 40} words, more than 16384, the most "
                           "the simulator draws per trial in batches of 512"),
    # at d = 2, simulate exited 1 with a 3.81 GiB MemoryError traceback
    ({"N": 100000, "d": 1}, "a trial draws 1000040 words, more than 16384"),
])
def test_oversized_message_code_or_power_exits_2_from_every_command(tmp_path, protocol, message):
    # each command in a child process under a 1 GiB address-space cap, so a
    # regression fails this test instead of exhausting the machine
    path = write_config(tmp_path, {"protocol": protocol, "simulate": {"trials": 3}})
    for command, where in [("verify", "protocol config"), ("simulate", "protocol config"),
                           ("scan", "point scan row d=1")]:
        result = subprocess.run(
            [sys.executable, "-m", "relaysec.cli", command, "--config", path],
            capture_output=True, text=True, timeout=120, preexec_fn=_address_space_cap,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert (result.returncode, result.stdout) == (2, ""), (command, result.stderr)
        assert f"config error: {where} rejected: {message}" in result.stderr
        assert "Traceback" not in result.stderr


def test_trials_over_the_cap_exit_2_before_the_run(tmp_path):
    # 2^63 - 1 trials: monte_carlo's task list ended in a MemoryError traceback under the
    # 1 GiB address-space cap, and asked for far more than a host has without it
    path = write_config(tmp_path, {"simulate": {"trials": 2**63 - 1}})
    result = subprocess.run(
        [sys.executable, "-m", "relaysec.cli", "simulate", "--config", path],
        capture_output=True, text=True, timeout=60, preexec_fn=_address_space_cap,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (f"config error: simulate: 4 behaviors x {2**63 - 1} trials exceed "
                             "MAX_TRIALS = 100000000, the most trials one run holds\n")


def test_trials_cap_counts_every_behavior(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_TRIALS", 10)
    behaviors = [{"kind": "honest"}, {"kind": "garble"}]
    at_cap = write_config(tmp_path, {"simulate": {"trials": 5, "behaviors": behaviors}})
    assert main(["simulate", "--config", at_cap, "--out", os.devnull]) == 0
    over = write_config(tmp_path, {"simulate": {"trials": 6, "behaviors": behaviors}})
    assert main(["simulate", "--config", over, "--out", os.devnull]) == 2


def test_scan_leakage_with_skip(tmp_path):
    path = write_config(tmp_path, {
        "scan": {"kind": "leakage", "values": [1, 2, 3, 4, 6], "q": 11, "r": 1, "candidates": 16}
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--seed", "8", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    status = {int(r[2]): r[0] for r in rows}
    assert status[1] == status[2] == status[3] == status[4] == "ok"
    assert status[6] == "skipped"  # 11^7 class-law cells exceed oracle._MAX_MATRIX_CELLS = 2^22
    leak = {int(r[2]): r[3] for r in rows if r[0] == "ok"}
    assert float(leak[4]) <= float(leak[3]) <= float(leak[2]) <= float(leak[1])


def test_scan_leakage_skips_a_row_over_the_matrix_cell_cap(tmp_path):
    # at q = 101 one extractor's class laws hold 101^4 cells at N = 3 and 101^2 at N = 1:
    # a first row over the cap is skipped, since the smallest row can run
    path = write_config(tmp_path, {"scan": {"kind": "leakage", "q": 101, "values": [3, 1]}})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert [(r[0], r[2]) for r in rows[1:]] == [("skipped", "3"), ("ok", "1")]
    # at q = 9973 the class laws of one extractor hold 9973^2 cells from N = 1 on: the scan
    # once ran over two minutes, and now no row can run.  In a child process under a 1 GiB
    # address-space cap, so a regression fails this test instead of exhausting the machine.
    path = write_config(tmp_path, {"scan": {"kind": "leakage", "q": 9973, "values": [1, 2]}})
    result = subprocess.run(
        [sys.executable, "-m", "relaysec.cli", "scan", "--config", path],
        capture_output=True, text=True, timeout=60, preexec_fn=_address_space_cap,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("size guard: one extractor's class laws needs 9973^2 states, "
                             "cap is 4194304\n")


def test_scan_leakage_skips_a_row_over_the_cell_cap_at_a_huge_N(tmp_path):
    # N = 10^5: the guard's 11^100001 cells have more digits than Python prints; a size
    # built as an int exited 1 with a traceback after row-reducing the draw.  The row still
    # draws, so the next row reads the stream it read before.
    path = write_config(tmp_path, {
        "scan": {"kind": "leakage", "values": [1, 100000, 2], "q": 11, "r": 1, "candidates": 8}
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--seed", "3", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
    assert [(r[0], r[2]) for r in rows] == [("ok", "1"), ("skipped", "100000"), ("ok", "2")]
    rng = np.random.default_rng(3)
    want = [oracle.best_sampled_extractor(NestedLatticePair(N=1, q=11), 1, 8, rng)]
    rng.integers(0, 11, size=(8, 1, 100000))
    want.append(oracle.best_sampled_extractor(NestedLatticePair(N=2, q=11), 1, 8, rng))
    assert [rows[0][3], rows[2][3]] == [repr(w.exact_mi_bits) for w in want]


@pytest.mark.parametrize("scan, words", [
    # at N = 1, a 7.28 TiB draw: exited 1 with a MemoryError traceback
    ({"candidates": 10**12}, 2 * 10**12),
    ({"values": [1, 2**62]}, 64 * 2**62),  # exited 1 with an "array is too big" traceback
    ({"values": [10**7 + 1], "candidates": 1}, 10**7 + 1),  # one word over the cap
])
def test_scan_leakage_oversized_draw_exits_2_before_drawing(tmp_path, capsys, monkeypatch,
                                                            scan, words):
    def search(*args):
        raise AssertionError("a row drew before the cap")

    monkeypatch.setattr(oracle, "best_sampled_extractor", search)
    path = write_config(tmp_path, {"scan": {"kind": "leakage", **scan}})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 2
    assert f"draw {words} words, over the cap 10000000" in capsys.readouterr().err
    assert not out.exists()


def test_scan_leakage_unrunnable_config_exits_2(tmp_path, capsys, monkeypatch):
    # r = 25 exceeds the first default N = 1; checked before the cell cap, which 11^26 exceeds
    path = write_config(tmp_path, {"scan": {"kind": "leakage", "r": 25}})
    assert main(["scan", "--config", path]) == 2
    assert "r=25 exceeds N=1" in capsys.readouterr().err
    # one 3 x 3 binary sample at seed 0 has rank 1: no full-rank candidate
    path = write_config(tmp_path, {
        "scan": {"kind": "leakage", "q": 2, "r": 3, "values": [3], "candidates": 1}
    })
    assert main(["scan", "--config", path, "--seed", "0"]) == 2
    assert "no full-row-rank candidate" in capsys.readouterr().err

    # the smallest row, wherever it stands, is checked before any row runs
    def search(*args):
        raise AssertionError("a row ran before the check")

    monkeypatch.setattr(oracle, "best_sampled_extractor", search)
    path = write_config(tmp_path, {"scan": {"kind": "leakage", "r": 2, "values": [3, 1]}})
    assert main(["scan", "--config", path]) == 2
    assert "r=2 exceeds N=1" in capsys.readouterr().err


def test_scan_leakage_rejects_the_protocol_section_as_verify_does(tmp_path, capsys):
    path = write_config(tmp_path, {"protocol": {"d": 3}, "scan": {"kind": "leakage"}})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 2
    message = "protocol config rejected: d + 2 = 5 must not be divisible by q = 5"
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert main(["verify", "--config", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("q", [2**61 - 1, 10007])
def test_scan_leakage_q_beyond_the_cell_cap_exits_2_before_trial_division(
        tmp_path, capsys, monkeypatch, q):
    def trial_division(q):
        raise AssertionError(f"is_prime({q}) ran before the cap")

    monkeypatch.setattr(cli, "is_prime", trial_division)
    path = write_config(tmp_path, {"scan": {"kind": "leakage", "q": q}})
    assert main(["scan", "--config", path]) == 2
    assert capsys.readouterr().err == (f"size guard: one extractor's class laws needs {q}^2 "
                                       "states, cap is 4194304\n")


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
