"""Exhaustive oracle routines: exact values, guards, self-consistency."""

import math

import numpy as np
import pytest

from relaysec import oracle
from relaysec.amd import AmdParams
from relaysec.extract import DiscreteDistribution
from relaysec.fields import ExtField
from relaysec.lattice import NestedLatticePair
from relaysec.oracle import (
    JointDistribution,
    SizeGuardError,
    _observation_index,
    _observation_index_direct,
    best_extractor_exhaustive,
    exact_amd_win_census,
    exact_seed_leakage,
    isomorphism_census,
    leftover_census,
    mutual_information_bits,
    pinsker_check,
    representation_census,
    seed_leakage_two_path,
    universal_hash_census,
)


# ---------------------------------------------------------------------
# exact seed leakage
# ---------------------------------------------------------------------


def test_leakage_empty_extractor_is_zero():
    pair = NestedLatticePair(N=2, q=3)
    assert exact_seed_leakage(pair, np.zeros((0, 2), dtype=int)) == 0.0


def test_leakage_q3_overextraction_hand_value():
    """r = N = 1 at q = 3: the observation is the real sum, triangular."""
    pair = NestedLatticePair(N=1, q=3)
    mi = exact_seed_leakage(pair, np.array([[1]]))
    counts = np.array([1, 2, 3, 2, 1], dtype=float)  # real sums -2..2
    h_obs = float(np.sum(counts / 9 * np.log2(9 / counts)))
    assert mi == pytest.approx(h_obs - math.log2(3), abs=1e-12)
    assert mi == pytest.approx(0.612, abs=1e-3)


def test_leakage_two_paths_agree():
    for q, n, row in [(3, 1, [1]), (5, 2, [1, 2]), (11, 2, [3, 7])]:
        pair = NestedLatticePair(N=n, q=q)
        direct, decomposed = seed_leakage_two_path(pair, np.array([row]))
        assert abs(direct - decomposed) < 1e-10


def test_observation_composition_matches_direct_path():
    for q, n, d1, d2 in [(5, 2, None, None), (3, 2, (0.25, -0.5), (0.5, 0.0))]:
        kwargs = {}
        if d1 is not None:
            kwargs = {"d1": d1, "d2": d2}
        pair = NestedLatticePair(N=n, q=q, **kwargs)
        fast, nf = _observation_index(pair)
        slow, ns = _observation_index_direct(pair)
        assert nf == ns
        assert np.array_equal(fast, slow)


def test_leakage_size_guard():
    pair = NestedLatticePair(N=3, q=5)
    with pytest.raises(SizeGuardError):
        exact_seed_leakage(pair, np.array([[1, 0, 0]]), cap=100)


def test_observation_cache_bounded_and_guarded_per_call():
    oracle._cached_observation_index.cache_clear()
    pairs = [NestedLatticePair(N=n, q=11) for n in (1, 2, 3)]
    for _ in range(2):  # a leakage scan over N = 1..3 hits all three entries
        for pair in pairs:
            exact_seed_leakage(pair, np.ones((1, pair.N), dtype=int))
    info = oracle._cached_observation_index.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 3)
    with pytest.raises(SizeGuardError):  # a warm entry does not widen the cap
        exact_seed_leakage(pairs[1], np.array([[1, 1]]), cap=100)
    for n in (1, 2, 3, 4, 5):
        exact_seed_leakage(NestedLatticePair(N=n, q=3), np.ones((1, n), dtype=int))
    assert oracle._cached_observation_index.cache_info().currsize == 4
    oracle._cached_observation_index.cache_clear()


def test_best_extractor_monotone_small():
    values = [
        best_extractor_exhaustive(NestedLatticePair(N=n, q=5), 1).exact_mi_bits
        for n in (1, 2)
    ]
    assert values[1] <= values[0]


def test_best_extractor_scaling_classes_are_equivalent():
    # leakage is invariant under output relabeling, the basis of the r = 1
    # representative optimization
    pair = NestedLatticePair(N=2, q=5)
    base = exact_seed_leakage(pair, np.array([[1, 3]]))
    for c in (2, 3, 4):
        scaled = exact_seed_leakage(pair, (c * np.array([[1, 3]])) % 5)
        assert scaled == pytest.approx(base, abs=1e-12)


def test_leakage_deterministic():
    pair = NestedLatticePair(N=2, q=11)
    m = np.array([[2, 5]])
    assert exact_seed_leakage(pair, m) == exact_seed_leakage(pair, m)


# ---------------------------------------------------------------------
# detection-code attack census
# ---------------------------------------------------------------------


def test_amd_census_q5_r1_d1():
    census = exact_amd_win_census(AmdParams(field=ExtField(5, 1), d=1))
    assert census.holds
    assert census.max_success <= 0.4
    assert census.max_success == pytest.approx(0.4)  # the bound is tight here
    assert census.attacks == 5**3 - 1
    assert sum(census.histogram.values()) == census.attacks


def test_amd_census_independent_of_reference_message():
    p = AmdParams(field=ExtField(5, 1), d=1)
    maxima = set()
    histograms = []
    for s_val in range(5):
        census = exact_amd_win_census(p, s=(s_val,))
        maxima.add(census.max_success)
        histograms.append(tuple(sorted(census.histogram.items())))
    assert len(maxima) == 1
    assert len(set(histograms)) == 1


def test_amd_census_excludes_zero_perturbation():
    census = exact_amd_win_census(AmdParams(field=ExtField(5, 1), d=1))
    # the all-zero tuple would pass for every seed; its absence means no
    # attack is counted at success 5/5
    assert 5 not in census.histogram


def test_amd_census_size_guard():
    with pytest.raises(SizeGuardError):
        exact_amd_win_census(AmdParams(field=ExtField(5, 2), d=2), cap=1000)


# ---------------------------------------------------------------------
# lattice censuses
# ---------------------------------------------------------------------


def test_representation_census_examples():
    ok, witness = representation_census(NestedLatticePair(N=2, q=5))
    assert ok and witness is None
    ok, _ = representation_census(NestedLatticePair(N=3, q=2))
    assert ok


def test_census_guards():
    with pytest.raises(SizeGuardError):
        representation_census(NestedLatticePair(N=2, q=5), cap=10)
    with pytest.raises(SizeGuardError):
        isomorphism_census(NestedLatticePair(N=2, q=5), cap=10)


# ---------------------------------------------------------------------
# hashing, leftover, pinsker
# ---------------------------------------------------------------------


def test_universal_hash_census_examples():
    prob, holds = universal_hash_census(2, 2, 1)
    assert prob == pytest.approx(0.5) and holds
    prob, holds = universal_hash_census(3, 2, 1)
    assert prob <= 1 / 3 + 1e-15 and holds


def test_universal_hash_census_grid():
    for q in (2, 3):
        for n in (1, 2, 3):
            for r in (1, 2):
                if r > n:
                    continue
                prob, holds = universal_hash_census(q, n, r)
                assert holds
                assert prob == pytest.approx(q**-r)


def test_leftover_census_uniform_gf2():
    avg, bound, holds = leftover_census(2, 2, 1, DiscreteDistribution.uniform(4))
    assert avg == pytest.approx(0.75)  # three informative maps out of four
    assert bound == pytest.approx(1 - 2 ** (1 - 2) / math.log(2))
    assert holds


def test_leftover_census_point_mass_vacuous():
    dist = DiscreteDistribution({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0})
    avg, bound, holds = leftover_census(2, 2, 1, dist)
    assert avg == 0.0
    assert bound < 0  # vacuous
    assert holds


def test_leftover_census_uniform_gf3():
    avg, bound, holds = leftover_census(3, 2, 1, DiscreteDistribution.uniform(9))
    assert holds
    assert avg == pytest.approx((8 / 9) * math.log2(3))


def test_pinsker_examples():
    independent = JointDistribution(np.full((2, 2), 0.25))
    lhs, rhs = pinsker_check(independent)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)

    correlated = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
    lhs, rhs = pinsker_check(correlated)
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1 / (2 * math.log(2)))
    assert lhs >= rhs


def test_pinsker_randomized_sweep():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        raw = rng.random(shape)
        joint = JointDistribution(raw / raw.sum())
        lhs, rhs = pinsker_check(joint)
        assert lhs >= rhs - 1e-12


def test_mutual_information_from_counts_matches_float_path():
    rng = np.random.default_rng(23)
    for _ in range(100):
        counts = rng.integers(0, 50, size=(3, 4))
        if counts.sum() == 0:
            continue
        mi = mutual_information_bits(counts)
        jd = JointDistribution.from_counts(counts)
        assert mi == pytest.approx(jd.mutual_information(), abs=1e-12)
        assert mi >= -1e-12


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        JointDistribution(np.array([0.5, 0.5]))
