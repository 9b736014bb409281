"""Seed extraction, entropy utilities, bounds, and the message encoder."""

import itertools
import math

import numpy as np
import pytest

from relaysec.extract import (
    ExtractorMap,
    build_encoder,
    extract_seed,
    leakage_budget,
    leftover_bound,
    r0_max,
    r_max,
    renyi_entropy,
    seed_uniformity,
    shannon_entropy,
)
from relaysec.fields import all_matrices, complete_rows, matrix_row_rank, undigits
from relaysec.lattice import NestedLatticePair


# ---------------------------------------------------------------------
# extraction and uniformity
# ---------------------------------------------------------------------


def test_extract_seed_examples():
    # the seed is the element int whose base-q digits are the product's coords
    m = ExtractorMap(np.array([[1, 1]]), 3)
    assert extract_seed(m, [1, 2]) == 0
    ident = ExtractorMap(np.eye(3, dtype=int), 5)
    assert extract_seed(ident, [4, 0, 2]) == 4 + 0 * 5 + 2 * 25
    parity = ExtractorMap(np.array([[1, 0, 1]]), 2)
    assert extract_seed(parity, [1, 1, 1]) == 0
    two = ExtractorMap(np.array([[1, 0, 0], [0, 1, 1]]), 3)
    assert np.array_equal(extract_seed(two, [[2, 1, 1], [0, 0, 0]]), [2 + 2 * 3, 0])


def test_extractor_map_rejects_rank_deficient():
    with pytest.raises(ValueError):
        ExtractorMap(np.array([[1, 2], [2, 4]]), 5)


def test_seed_uniformity_examples():
    emap = ExtractorMap(np.array([[1, 1]]), 3)
    probs, uniform = seed_uniformity(emap.matrix, emap.q)
    assert uniform
    assert probs.shape == (3,) and all(p == pytest.approx(1 / 3) for p in probs)

    probs, uniform = seed_uniformity(np.eye(2, dtype=int), 3)
    assert uniform
    assert probs.tolist() == [1 / 9] * 9  # exactly counts / q^N

    probs, uniform = seed_uniformity(np.array([[0, 0]]), 3)
    assert not uniform
    assert probs.tolist() == [1.0, 0.0, 0.0]


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
        law = np.array(list(counts.values())) / sum(counts.values())
        assert renyi_entropy(law) == pytest.approx(n * math.log2(q))
        assert shannon_entropy(law) == pytest.approx(n * math.log2(q))


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


# ---------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------


def test_renyi_examples():
    assert renyi_entropy(np.full(8, 1 / 8)) == pytest.approx(3.0)
    assert renyi_entropy([1.0]) == pytest.approx(0.0)
    tri = np.array([0.5, 0.25, 0.25])
    assert renyi_entropy(tri) == pytest.approx(-math.log2(6 / 16))


def test_shannon_examples():
    for q, n in [(3, 2), (5, 1)]:
        u = np.full(q**n, 1.0 / q**n)
        assert shannon_entropy(u) == pytest.approx(n * math.log2(q))
        assert renyi_entropy(u) == pytest.approx(n * math.log2(q))
    assert shannon_entropy([1.0]) == 0.0
    assert shannon_entropy([0.0, 1.0, 0.0]) == 0.0  # 0 log 0 = 0
    tri = np.array([0.5, 0.25, 0.25])
    assert shannon_entropy(tri) == pytest.approx(1.5)


def test_renyi_below_shannon_randomized():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        raw = rng.random(n) + 1e-9
        law = raw / raw.sum()
        h2, h = renyi_entropy(law), shannon_entropy(law)
        assert h2 <= h + 1e-12
    u = np.full(6, 1 / 6)
    assert renyi_entropy(u) == pytest.approx(shannon_entropy(u))


def test_distribution_validation():
    bad_laws = [[0.5, 0.6],  # sums to 1.1
                [1.5, -0.5],  # sums to 1, one entry negative
                [0.5, 0.5 + 2e-12],  # off 1 by more than 1e-12
                [0.5, np.nan, 0.5],  # not a number
                np.full((2, 2), 0.25)]  # a joint table, not a vector
    for entropy in (renyi_entropy, shannon_entropy):
        for bad in bad_laws:
            with pytest.raises(ValueError):
                entropy(bad)
        assert entropy([0.5, 0.5 + 5e-13]) == pytest.approx(1.0)  # within 1e-12


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
    budget = leakage_budget(N=4, q=11, r=1, smoothing=6.0)
    assert not budget.vacuous
    assert budget.budget_bits == pytest.approx(1.6973, abs=1e-3)
    assert round(budget.budget_bits, 2) == 1.70


def test_leakage_budget_vacuous_flag():
    budget = leakage_budget(N=4, q=11, r=1, smoothing=2.0)
    assert budget.vacuous
    assert budget.budget_bits == pytest.approx(math.log2(11))


def test_leakage_budget_monotone_in_N():
    budgets = [
        leakage_budget(N=n, q=11, r=1, smoothing=6.0).budget_bits
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
    assert enc.decode_table[undigits((2, 2), pair.q)] == -1
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
            words = np.arange(2**n0)  # every (randomizer, block value)
            values = enc.decode_table[undigits(enc.encode_table[words], pair.q)]
            assert np.array_equal(values, words >> (n0 - r0))
            # uniform inputs cover K once
            assert sorted(map(tuple, enc.encode_table.tolist())) == sorted(
                map(tuple, enc.subset_coords.tolist()))


def test_encoder_injective_in_message_for_fixed_randomizer():
    pair = NestedLatticePair(N=2, q=5)
    enc = build_encoder(np.array([[1, 0, 1, 1], [0, 1, 0, 1]]), pair)
    rho = 1
    outs = {tuple(enc.encode_table[rho + 4 * b]) for b in range(4)}
    assert len(outs) == 4


def _bits(k, n):
    return [(k >> i) & 1 for i in range(n)]


def _binary_product(m, bits):
    """m times a bit vector over GF(2), as an int with bit 0 first."""
    return sum((sum(a * b for a, b in zip(row, bits)) % 2) << i for i, row in enumerate(m))


def test_encoder_tables_match_the_definition():
    # every full-rank binary g at small (q, N): the point of rank v decodes to
    # g v, and encoding word w gives the point whose rank v solves [g'; g] v = w
    for q, n in [(2, 3), (3, 2), (5, 1)]:
        pair = NestedLatticePair(N=n, q=q)
        n0 = int(math.floor(n * math.log2(q)))
        for r0 in range(1, n0 + 1):
            mats = all_matrices(2, r0, n0)
            for g in mats[matrix_row_rank(mats, 2) == r0].tolist():
                enc = build_encoder(np.array(g), pair)
                stacked = complete_rows(np.array(g), 2).tolist() + g
                for v in range(2**n0):
                    point = enc.subset_coords[v]
                    assert enc.decode_table[undigits(point, pair.q)] == _binary_product(
                        g, _bits(v, n0))
                for w in range(2**n0):
                    (v,) = [v for v in range(2**n0)
                            if _binary_product(stacked, _bits(v, n0)) == w]
                    assert enc.encode_table[w].tolist() == enc.subset_coords[v].tolist()


def test_decoder_linear_in_bit_vector():
    # S = g v is linear in the bits of the rank v: rank a XOR b decodes to the XOR of theirs
    pair = NestedLatticePair(N=2, q=5)
    enc = build_encoder(np.array([[1, 1, 0, 1]]), pair)
    values = enc.decode_table[undigits(enc.subset_coords, pair.q)]
    for a in range(16):
        for b in range(16):
            assert values[a ^ b] == values[a] ^ values[b]


def test_decode_outside_subset_rejected():
    """Coords outside K decode to -1, the flag the message stage rejects on."""
    pair = NestedLatticePair(N=2, q=3)
    enc = build_encoder(np.array([[1, 0, 0]]), pair)
    values = enc.decode_table[undigits([[a, b] for a in range(3) for b in range(3)], pair.q)]
    assert values.tolist().count(-1) == 1 and values[-1] == -1  # only (2, 2)


def test_build_encoder_validation():
    pair = NestedLatticePair(N=2, q=3)
    with pytest.raises(ValueError, match="3 columns"):
        build_encoder(np.array([[1, 0, 0, 0]]), pair)  # N0 = floor(2 log2 3) = 3
    with pytest.raises(ValueError):
        build_encoder(np.array([[1, 0, 0], [1, 0, 0]]), pair)  # rank deficient



# ---------------------------------------------------------------------
# sampled extractor search (oracle.best_sampled_extractor)
# ---------------------------------------------------------------------


def _sampled_leakages(pair, r, candidates, seed):
    # the exact leakages of the full-rank draws, in draw order
    from relaysec.oracle import exact_seed_leakage

    draws = np.random.default_rng(seed).integers(0, pair.q, size=(candidates, r, pair.N), dtype=np.int64)
    full = draws[matrix_row_rank(draws, pair.q) == r]
    return full, exact_seed_leakage(pair, full)


def test_search_markov_property():
    # at least half the sampled leakages are within twice the sample mean
    from relaysec.oracle import best_sampled_extractor

    pair = NestedLatticePair(N=2, q=11)
    rec = best_sampled_extractor(pair, 1, 200, np.random.default_rng(9))
    _, leakages = _sampled_leakages(pair, 1, 200, 9)
    mean = float(np.mean(leakages))
    assert rec.exact_mi_bits <= mean
    assert np.count_nonzero(leakages <= 2 * mean) >= len(leakages) / 2


def test_search_with_exact_leakage_oracle():
    from relaysec.oracle import best_sampled_extractor

    pair = NestedLatticePair(N=2, q=11)
    rec = best_sampled_extractor(pair, 1, 200, np.random.default_rng(14))
    full, leakages = _sampled_leakages(pair, 1, 200, 14)
    first = int(np.argmin(leakages))
    assert rec.exact_mi_bits == float(leakages[first])
    assert rec.matrix == tuple(map(tuple, full[first].tolist()))
    assert rec.exact_mi_bits <= float(np.mean(leakages))

def test_build_encoder_completion_identity_binary():
    # g = [0 1] completes to the identity, so the point of rank v carries word v
    pair = NestedLatticePair(N=2, q=2)
    enc = build_encoder(np.array([[0, 1]]), pair)
    assert np.array_equal(complete_rows(np.array([[0, 1]]), 2), [[1, 0]])
    assert np.array_equal(enc.encode_table, enc.subset_coords)
    values = enc.decode_table[undigits(enc.subset_coords, pair.q)]
    assert values.tolist() == [v >> 1 for v in range(4)]
