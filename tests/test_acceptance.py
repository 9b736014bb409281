"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from relaysec.channel import AdditiveLatticeOffset, HonestRelay, SubstituteLattice
from relaysec.cli import CHECKS
from relaysec.cli import main as cli_main
from relaysec.extract import (
    ExtractorParams,
    leakage_budget,
    secrecy_rate_from_power,
)
from relaysec.fields import all_matrices, digits, matrix_row_rank
from relaysec.lattice import NestedLatticePair
from relaysec.oracle import best_extractor_exhaustive, pinsker_check
from relaysec.protocol import ProtocolParams, TwoHopProtocol, rate_accounting


@contextmanager
def criterion(cid, description, budget_s):
    state = {"ok": False}
    start = time.perf_counter()
    try:
        yield state
        state["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if state["ok"] and elapsed < budget_s else "FAIL"
        print(f"[{status}] criterion {cid}: {description} "
              f"({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {cid} exceeded its {budget_s}s budget"


def passing_cases(name, seed=0):
    """Details of every case of verify's check ``name``, each asserted to pass."""
    cases = list(CHECKS[name]({}, seed))
    failed = [details for passed, details in cases if not passed]
    assert cases and not failed, (name, failed)
    return [details for _, details in cases]


def test_c01_amd_exact_bound():
    with criterion(1, "additive-attack census max at the exact bound", 60):
        max_success = {
            (case["q"], case["r"], case["d"]): case["max_success"]
            for case in passing_cases("amd-attack-bound")
        }
        assert max_success[(5, 1, 1)] <= 0.4
        assert max_success[(5, 2, 2)] <= 0.12


def test_c02_coordinate_isomorphism():
    with criterion(2, "coordinate map bijective and additive", 10):
        passing_cases("coords-isomorphism")


def test_c03_sum_representation():
    with criterion(3, "two-term sums recoverable from residue plus wrap id", 10):
        passing_cases("sum-representation")


def test_c04_full_rank_census():
    with criterion(4, "full-rank fraction exact and above 1 - q^(r-N)", 10):
        fractions = {
            (case["q"], case["rows"], case["cols"]): case["fraction"]
            for case in passing_cases("full-rank-fraction")
        }
        assert fractions[(2, 2, 3)] == "42/64"


def test_c05_universal_hash_collision():
    with criterion(5, "linear-map collision probability at most q^-r", 30):
        for case in passing_cases("hash-collision"):
            assert case["max_collision"] == pytest.approx(case["q"] ** -case["r"]), case


def test_c06_full_rank_implies_uniform_seed():
    with criterion(6, "every full-row-rank map gives an exactly uniform seed", 30):
        for q in (2, 3):
            for n in (1, 2, 3):
                size = q**n
                vecs = digits(np.arange(size), q, n)
                for r in range(1, n + 1):
                    radix = q ** np.arange(r, dtype=np.int64)
                    mats = all_matrices(q, r, n)
                    full = mats[matrix_row_rank(mats, q) == r]
                    out = radix @ ((full @ vecs.T) % q)  # out[i, x]: seed of x under full[i]
                    counts = (out[:, :, None] == np.arange(q**r)).sum(axis=1)
                    uniform = np.all(counts * q**r == size, axis=1)
                    assert uniform.all(), (q, n, full[~uniform][:1])


def test_c07_averaged_leakage_within_budget():
    with criterion(7, "matrix-averaged exact leakage within the entropy budget", 60):
        (case,) = [c for c in passing_cases("leftover-entropy") if "averaged_leakage" in c]
        # epsilon does not enter the budget; 0.2 only makes the params valid
        budget = leakage_budget(
            ExtractorParams(N=case["N"], q=case["q"], epsilon=0.2, smoothing=case["smoothing"]),
            case["r"],
        )
        assert not budget.vacuous
        assert budget.budget_bits == case["budget"]


def test_c08_leakage_trend_non_increasing():
    with criterion(8, "best exact leakage non-increasing in the dimension", 60):
        values = [
            best_extractor_exhaustive(NestedLatticePair(N=n, q=11), 1).exact_mi_bits
            for n in (1, 2, 3)
        ]
        assert values[0] >= values[1] >= values[2], values


def test_c09_end_to_end_detection():
    with criterion(9, "attacks detected within bound; honest runs clean", 120):
        proto = TwoHopProtocol(ProtocolParams(q=5, r=2, d=2))
        trials = 10_000
        threshold = 0.12 + 3 * math.sqrt(0.12 * 0.88 / trials)
        assert threshold < 0.13 + 1e-9

        honest = proto.monte_carlo(HonestRelay(), trials, seed=900)
        assert honest.decode_error_rate == 0.0
        assert honest.false_reject_rate == 0.0

        for behavior, seed in [
            (SubstituteLattice((1,)), 901),
            (AdditiveLatticeOffset((1,)), 902),
        ]:
            report = proto.monte_carlo(behavior, trials, seed=seed)
            assert report.adversary_win_rate <= threshold, (behavior, report)


def test_c10_rate_arithmetic():
    with criterion(10, "rate formulas exact; overall rate climbs to half", 1):
        assert abs(secrecy_rate_from_power(7.5) - 0.5) < 1e-9
        n, rt = rate_accounting(100, 20, 11, 4, 1.0)
        assert n == 520
        assert abs(rt - 80 * math.log2(11) / 1040) < 1e-9
        assert round(rt, 3) == 0.266
        # per-step block growth is integral here, so the climb is monotone
        re = 1.0
        values = [rate_accounting(25, 25, 2, d, re)[1] for d in range(1, 65)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v < 0.5 * re for v in values)


def test_c11_pinsker_inequality():
    with criterion(11, "mutual information dominates the squared distance", 5):
        lhs, rhs = pinsker_check(np.full((2, 2), 0.25))
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12
        lhs, rhs = pinsker_check(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert abs(lhs - 1.0) < 1e-12
        assert abs(rhs - 1 / (2 * math.log(2))) < 1e-12
        (sweep,) = passing_cases("pinsker", 1100)
        assert sweep["joints"] == 1000


def test_c12_simulation_determinism(tmp_path):
    with criterion(12, "fixed-seed simulation output byte-identical", 120):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "simulate": {
                "trials": 150,
                "behaviors": [{"kind": "honest"}, {"kind": "substitute", "pattern": [1]}],
            }
        }))
        blobs = []
        for name, workers in [("r1.csv", 1), ("r2.csv", 1), ("r3.csv", 2)]:
            out = tmp_path / name
            code = cli_main([
                "simulate", "--config", str(cfg), "--seed", "1200",
                "--workers", str(workers), "--out", str(out),
            ])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
