"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import math
import time
from contextlib import contextmanager
from itertools import product

import numpy as np

from relaysec.amd import AmdParams
from relaysec.channel import AdditiveLatticeOffset, HonestRelay, SubstituteLattice
from relaysec.cli import main as cli_main
from relaysec.extract import (
    ExtractorParams,
    leakage_budget,
    secrecy_rate_from_power,
)
from relaysec.fields import ExtField, digits, matrix_row_rank
from relaysec.lattice import NestedLatticePair
from relaysec.oracle import (
    JointDistribution,
    best_extractor_exhaustive,
    exact_amd_win_census,
    exact_seed_leakage,
    full_rank_census,
    isomorphism_census,
    pinsker_check,
    representation_census,
    universal_hash_census,
)
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


def test_c01_amd_exact_bound():
    with criterion(1, "additive-attack census max at the exact bound", 60):
        c1 = exact_amd_win_census(AmdParams(field=ExtField(5, 1), d=1))
        assert c1.max_success <= 0.4
        assert c1.holds
        c2 = exact_amd_win_census(AmdParams(field=ExtField(5, 2), d=2))
        assert c2.max_success <= 0.12
        assert c2.holds


def test_c02_coordinate_isomorphism():
    with criterion(2, "coordinate map bijective and additive", 10):
        for q in (2, 3, 5):
            for n in (1, 2, 3):
                ok, witness = isomorphism_census(NestedLatticePair(N=n, q=q))
                assert ok, (q, n, witness)


def test_c03_sum_representation():
    with criterion(3, "two-term sums recoverable from residue plus wrap id", 10):
        for q, dims in [(5, (1, 2)), (2, (1, 2, 3))]:
            for n in dims:
                ok, witness = representation_census(NestedLatticePair(N=n, q=q))
                assert ok, (q, n, witness)


def test_c04_full_rank_census():
    with criterion(4, "full-rank fraction exact and above 1 - q^(r-N)", 10):
        count, total, holds = full_rank_census(2, 2, 3)
        assert (count, total) == (42, 64) and holds
        for q in (2, 3):
            for n in range(1, 5):
                for r in range(1, n + 1):
                    assert full_rank_census(q, r, n)[2], (q, r, n)


def test_c05_universal_hash_collision():
    with criterion(5, "linear-map collision probability at most q^-r", 30):
        for q in (2, 3):
            for n in (1, 2, 3):
                for r in (1, 2):
                    if r > n:
                        continue
                    _, holds = universal_hash_census(q, n, r)
                    assert holds, (q, n, r)


def test_c06_full_rank_implies_uniform_seed():
    with criterion(6, "every full-row-rank map gives an exactly uniform seed", 30):
        for q in (2, 3):
            for n in (1, 2, 3):
                size = q**n
                vecs = digits(np.arange(size), q, n)
                for r in range(1, n + 1):
                    radix = q ** np.arange(r, dtype=np.int64)
                    for entries in product(range(q), repeat=r * n):
                        m = np.array(entries, dtype=np.int64).reshape(r, n)
                        if matrix_row_rank(m, q) != r:
                            continue
                        out = ((vecs @ m.T) % q) @ radix
                        counts = np.bincount(out, minlength=q**r)
                        assert np.all(counts * q**r == size), (q, n, m)


def test_c07_averaged_leakage_within_budget():
    with criterion(7, "matrix-averaged exact leakage within the entropy budget", 60):
        budget = leakage_budget(
            ExtractorParams(N=2, q=11, epsilon=0.2, smoothing=6.0), 1
        )
        assert not budget.vacuous
        pair = NestedLatticePair(N=2, q=11)
        total, count = 0.0, 0
        for entries in product(range(11), repeat=2):
            m = np.array(entries, dtype=np.int64).reshape(1, 2)
            total += exact_seed_leakage(pair, m)
            count += 1
        average = total / count
        assert average <= budget.budget_bits + 1e-9


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
        independent = JointDistribution(np.full((2, 2), 0.25))
        lhs, rhs = pinsker_check(independent)
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12
        correlated = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        lhs, rhs = pinsker_check(correlated)
        assert abs(lhs - 1.0) < 1e-12
        assert abs(rhs - 1 / (2 * math.log(2))) < 1e-12
        rng = np.random.default_rng(1100)
        for _ in range(1000):
            raw = rng.random((3, 4))
            lhs, rhs = pinsker_check(JointDistribution(raw / raw.sum()))
            assert lhs >= rhs - 1e-12


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
