"""Seed extraction, entropy utilities, bounds, and the message encoder."""

import itertools
import math

import numpy as np
import pytest

from relaysec.extract import (
    DiscreteDistribution,
    ExtractorMap,
    ExtractorParams,
    build_encoder,
    decode_ranks,
    encode_message,
    extract_seed,
    leakage_budget,
    leftover_bound,
    r0_max,
    r_max,
    renyi_entropy,
    search_good_extractor,
    secrecy_rate,
    secrecy_rate_from_power,
    seed_uniformity,
    shannon_entropy,
)
from relaysec.fields import all_matrices, matrix_row_rank
from relaysec.lattice import NestedLatticePair


# ---------------------------------------------------------------------
# extraction and uniformity
# ---------------------------------------------------------------------


def test_extract_seed_examples():
    m = ExtractorMap(np.array([[1, 1]]), 3)
    assert extract_seed(m, [1, 2])[0] == 0
    ident = ExtractorMap(np.eye(3, dtype=int), 5)
    assert np.array_equal(extract_seed(ident, [4, 0, 2]), [4, 0, 2])
    parity = ExtractorMap(np.array([[1, 0, 1]]), 2)
    assert extract_seed(parity, [1, 1, 1])[0] == 0


def test_extractor_map_rejects_rank_deficient():
    with pytest.raises(ValueError):
        ExtractorMap(np.array([[1, 2], [2, 4]]), 5)


def test_seed_uniformity_examples():
    emap = ExtractorMap(np.array([[1, 1]]), 3)
    dist, uniform = seed_uniformity(emap.matrix, emap.q)
    assert uniform
    assert all(p == pytest.approx(1 / 3) for p in dist.probs.values())

    dist, uniform = seed_uniformity(np.eye(2, dtype=int), 3)
    assert uniform

    dist, uniform = seed_uniformity(np.array([[0, 0]]), 3)
    assert not uniform
    assert dist.probs[0] == pytest.approx(1.0)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_rank_implies_exact_uniformity_exhaustive(q, n):
    for r in range(1, n + 1):
        mats = all_matrices(q, r, n)
        for m, rank in zip(mats, matrix_row_rank(mats, q)):
            full = rank == r
            _, uniform = seed_uniformity(m, q)
            if full:
                assert uniform
            # rank-deficient maps are never exactly uniform over q^r outcomes
            if not full and r <= n:
                assert not uniform


def test_conditional_of_summand_given_sum_is_uniform():
    # with independent uniform summands, conditioning on the mod-q sum
    # leaves the first summand uniform, so its collision entropy is N log2 q
    q, n = 3, 2
    size = q**n
    by_sum: dict[int, dict[int, int]] = {}
    for k1 in range(size):
        t1 = np.array([k1 % q, k1 // q])
        for k2 in range(size):
            t2 = np.array([k2 % q, k2 // q])
            t = (t1 + t2) % q
            key = int(t[0] + q * t[1])
            by_sum.setdefault(key, {})
            by_sum[key][k1] = by_sum[key].get(k1, 0) + 1
    assert len(by_sum) == size
    for counts in by_sum.values():
        dist = DiscreteDistribution.from_counts(counts)
        assert renyi_entropy(dist) == pytest.approx(n * math.log2(q))
        assert shannon_entropy(dist) == pytest.approx(n * math.log2(q))


# ---------------------------------------------------------------------
# parameter formulas
# ---------------------------------------------------------------------


def test_r_max_examples():
    assert r_max(10, 11, 0.2) == 6
    assert r_max(5, 2, 0.01) == 0  # margin condition fails at q = 2
    assert r_max(3, 11, 0.1) == 2


def test_r0_max_examples():
    assert r0_max(10, 2.32, 0.2) == 11
    assert r0_max(10, 1.0, 0.2) == 0
    assert r0_max(4, 3.46, 0.46) == 8


def test_secrecy_rate_examples():
    assert secrecy_rate_from_power(7.5) == pytest.approx(0.5)
    assert secrecy_rate(1.05, 0.1) == 0.0
    assert secrecy_rate(2.32, 0.1) == pytest.approx(1.22)


# ---------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------


def test_renyi_examples():
    assert renyi_entropy(DiscreteDistribution.uniform(8)) == pytest.approx(3.0)
    assert renyi_entropy(DiscreteDistribution({0: 1.0})) == pytest.approx(0.0)
    tri = DiscreteDistribution({0: 0.5, 1: 0.25, 2: 0.25})
    assert renyi_entropy(tri) == pytest.approx(-math.log2(6 / 16))


def test_shannon_examples():
    for q, n in [(3, 2), (5, 1)]:
        u = DiscreteDistribution.uniform(q**n)
        assert shannon_entropy(u) == pytest.approx(n * math.log2(q))
        assert renyi_entropy(u) == pytest.approx(n * math.log2(q))
    assert shannon_entropy(DiscreteDistribution({0: 1.0})) == 0.0
    tri = DiscreteDistribution({0: 0.5, 1: 0.25, 2: 0.25})
    assert shannon_entropy(tri) == pytest.approx(1.5)


def test_renyi_below_shannon_randomized():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        raw = rng.random(n) + 1e-9
        dist = DiscreteDistribution.from_counts({i: raw[i] for i in range(n)})
        h2, h = renyi_entropy(dist), shannon_entropy(dist)
        assert h2 <= h + 1e-12
    u = DiscreteDistribution.uniform(6)
    assert renyi_entropy(u) == pytest.approx(shannon_entropy(u))


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution({0: 0.5, 1: 0.6})
    with pytest.raises(ValueError):
        DiscreteDistribution({0: 1.5, 1: -0.5})


# ---------------------------------------------------------------------
# leftover bound and budget
# ---------------------------------------------------------------------


def test_leftover_bound_examples():
    rb = math.log2(11)
    c = 4 * (math.log2(11) - 1) - 2  # 7.838
    assert round(leftover_bound(rb, c), 3) == 3.390
    assert leftover_bound(rb, rb) == pytest.approx(rb - 1 / math.log(2))
    assert leftover_bound(rb, 1e9) == pytest.approx(rb)


def test_leakage_budget_example():
    params = ExtractorParams(N=4, q=11, epsilon=0.2, smoothing=6.0)
    budget = leakage_budget(params, 1)
    assert not budget.vacuous
    assert budget.budget_bits == pytest.approx(1.6973, abs=1e-3)
    assert round(budget.budget_bits, 2) == 1.70
    assert ExtractorParams(N=4, q=11, epsilon=0.2).smoothing == pytest.approx(0.8)


def test_leakage_budget_vacuous_flag():
    params = ExtractorParams(N=4, q=11, epsilon=0.2, smoothing=2.0)
    budget = leakage_budget(params, 1)
    assert budget.vacuous
    assert budget.budget_bits == pytest.approx(math.log2(11))


def test_leakage_budget_monotone_in_N():
    budgets = [
        leakage_budget(ExtractorParams(N=n, q=11, epsilon=0.2, smoothing=6.0), 1).budget_bits
        for n in range(2, 9)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(budgets, budgets[1:]))


# ---------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------


def test_build_encoder_subset_example():
    pair = NestedLatticePair(N=2, q=3)
    enc = build_encoder(np.array([[1, 0, 0]]), pair)
    assert enc.N0 == 3
    assert len(enc.subset_coords) == 8
    # the lex-largest of the four norm-2 points is excluded
    assert enc.ranks((2, 2)) == -1
    assert enc.subset_coords[0].tolist() == [0, 0]


def test_build_encoder_binary_codebook_is_whole():
    pair = NestedLatticePair(N=3, q=2)
    enc = build_encoder(np.array([[1, 0, 0], [0, 1, 0]]), pair)
    assert enc.N0 == 3
    assert len(enc.subset_coords) == 8


def test_encoder_round_trip_exhaustive():
    for q, n in [(3, 2), (5, 2)]:
        pair = NestedLatticePair(N=n, q=q)
        n0 = int(math.floor(n * math.log2(q)))
        for r0 in range(1, n0 + 1):
            g = np.hstack([np.eye(r0, dtype=int), np.ones((r0, n0 - r0), dtype=int)]) % 2
            enc = build_encoder(g, pair)
            bits = np.array(list(itertools.product(range(2), repeat=n0)))  # every (S', S)
            s_bits = bits[:, n0 - r0 :]
            ranks = enc.ranks(encode_message(enc, s_bits, bits[:, : n0 - r0]))
            assert np.array_equal(decode_ranks(enc, ranks), s_bits)
            assert sorted(ranks.tolist()) == list(range(2**n0))  # uniform inputs cover K once


def test_encoder_injective_in_message_for_fixed_randomizer():
    pair = NestedLatticePair(N=2, q=5)
    enc = build_encoder(np.array([[1, 0, 1, 1], [0, 1, 0, 1]]), pair)
    sp = np.array([1, 0])
    outs = {
        tuple(encode_message(enc, np.array(s), sp))
        for s in itertools.product(range(2), repeat=2)
    }
    assert len(outs) == 4


def test_decoder_linear_in_bit_vector():
    pair = NestedLatticePair(N=2, q=5)
    enc = build_encoder(np.array([[1, 1, 0, 1]]), pair)
    for a in range(16):
        for b in range(16):
            bits_a = (a >> np.arange(4)) & 1
            bits_b = (b >> np.arange(4)) & 1
            da = (enc.g @ bits_a) % 2
            db = (enc.g @ bits_b) % 2
            dxor = (enc.g @ ((bits_a + bits_b) % 2)) % 2
            assert np.array_equal(dxor, (da + db) % 2)


def test_decode_outside_subset_rejected():
    """Coords outside K rank -1, the flag the message stage rejects on."""
    pair = NestedLatticePair(N=2, q=3)
    enc = build_encoder(np.array([[1, 0, 0]]), pair)
    ranks = enc.ranks([[a, b] for a in range(3) for b in range(3)])
    assert ranks.tolist().count(-1) == 1 and ranks[-1] == -1  # only (2, 2)


def test_build_encoder_validation():
    pair = NestedLatticePair(N=2, q=3)
    with pytest.raises(ValueError, match="3 columns"):
        build_encoder(np.array([[1, 0, 0, 0]]), pair)  # N0 = floor(2 log2 3) = 3
    with pytest.raises(ValueError):
        build_encoder(np.array([[1, 0, 0], [1, 0, 0]]), pair)  # rank deficient


# ---------------------------------------------------------------------
# sampled extractor search
# ---------------------------------------------------------------------


def _toy_oracle(stack):
    # deterministic stand-in leakage per matrix: sum of entries, so the search is testable
    return [float(np.sum(m)) for m in stack]


def test_search_r0_is_exactly_zero():
    res = search_good_extractor(5, 3, 0, 10, np.random.default_rng(0), _toy_oracle)
    assert res.best_leakage == 0.0
    assert res.best.r == 0


def test_search_deterministic_and_minimizing():
    res1 = search_good_extractor(11, 2, 1, 50, np.random.default_rng(4), _toy_oracle)
    res2 = search_good_extractor(11, 2, 1, 50, np.random.default_rng(4), _toy_oracle)
    assert np.array_equal(res1.best.matrix, res2.best.matrix)
    assert res1.best_leakage == min(res1.leakages)
    assert res1.best_leakage <= float(np.mean(res1.leakages))


def test_search_hook_gets_full_rank_stack_and_first_minimum_wins():
    seen = []

    def hook(stack):  # a coarse stand-in with many ties
        seen.append(stack.copy())
        return [float(np.sum(m) % 3) for m in stack]

    res = search_good_extractor(11, 2, 1, 50, np.random.default_rng(4), hook)
    draws = np.random.default_rng(4).integers(0, 11, size=(50, 1, 2), dtype=np.int64)
    full = draws[np.any(draws != 0, axis=(1, 2))]  # rank 1 unless zero
    assert len(seen) == 1 and np.array_equal(seen[0], full)
    assert res.leakages == [float(np.sum(m) % 3) for m in full]
    first = res.leakages.index(min(res.leakages))
    assert res.leakages.count(min(res.leakages)) > 1  # ties exist, so the order matters
    assert np.array_equal(res.best.matrix, full[first])


def test_search_markov_property():
    # at least half the sampled leakages are within twice the sample mean
    res = search_good_extractor(11, 2, 1, 200, np.random.default_rng(9), _toy_oracle)
    mean = float(np.mean(res.leakages))
    within = sum(1 for v in res.leakages if v <= 2 * mean)
    assert within >= len(res.leakages) / 2


def test_search_with_exact_leakage_oracle():
    from relaysec.oracle import exact_seed_leakage

    pair = NestedLatticePair(N=2, q=11)
    res = search_good_extractor(
        11, 2, 1, 200, np.random.default_rng(14),
        lambda m: exact_seed_leakage(pair, m),
    )
    assert res.best_leakage <= float(np.mean(res.leakages))
    mean = float(np.mean(res.leakages))
    within = sum(1 for v in res.leakages if v <= 2 * mean)
    assert within >= len(res.leakages) / 2


def test_search_failure_without_full_rank():
    # q=2, r=2, N=2 has few full-rank matrices; an rng that always returns
    # zeros cannot find one
    class ZeroRng:
        def integers(self, lo, hi, size=None, dtype=None):
            return np.zeros(size, dtype=np.int64)

    with pytest.raises(RuntimeError):
        search_good_extractor(2, 2, 2, 5, ZeroRng(), _toy_oracle)


def test_build_encoder_completion_identity_binary():
    # g = [0 1] completes to the identity, so A is the identity too
    pair = NestedLatticePair(N=2, q=2)
    enc = build_encoder(np.array([[0, 1]]), pair)
    assert np.array_equal(enc.A, np.eye(2, dtype=int))
    assert np.array_equal(enc.g_prime, [[1, 0]])
    stacked = np.vstack([enc.g_prime, enc.g])
    assert np.array_equal((stacked @ enc.A) % 2, np.eye(2, dtype=int))
