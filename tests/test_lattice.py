"""Nested lattice geometry, coordinates, and the sum representation."""

import math

import numpy as np
import pytest

from relaysec.lattice import (
    NestedLatticePair,
    average_codebook_power,
    codebook_point,
    decode_fine_mod_coarse,
    in_fundamental_region,
    index_to_coords,
    lattice_add,
    mod_coarse,
    quantize_coarse,
    coords_to_index,
    lattice_sub,
    rate_condition_ok,
    reconstruct_sums,
    represent_sums,
)


def v(*vals):
    return np.array(vals, dtype=float)


def all_coords(pair):
    """The q^N canonical coordinate vectors in lexicographic order."""
    return index_to_coords(pair, np.arange(pair.q**pair.N))


# ---------------------------------------------------------------------
# quantize / mod
# ---------------------------------------------------------------------


def test_quantize_examples():
    pair = NestedLatticePair(N=1, q=5)
    assert quantize_coarse(pair, v(7.0))[0] == 5.0
    assert quantize_coarse(pair, v(0.0))[0] == 0.0
    assert quantize_coarse(pair, v(12.0))[0] == 10.0
    # shift property: quantizing x + z for coarse z shifts the result by z
    assert quantize_coarse(pair, v(12.0))[0] == quantize_coarse(pair, v(7.0))[0] + 5.0


def test_mod_examples():
    pair = NestedLatticePair(N=1, q=5)
    assert mod_coarse(pair, v(7.0))[0] == 2.0
    assert mod_coarse(pair, v(-1.0))[0] == -1.0
    assert mod_coarse(pair, v(-1.0 + 5.0))[0] == -1.0


def test_mod_lands_in_half_open_region_including_ties():
    pair = NestedLatticePair(N=1, q=5)
    # boundary: residue of +L/2 must be the negative endpoint
    assert mod_coarse(pair, v(2.5))[0] == -2.5
    assert mod_coarse(pair, v(-2.5))[0] == -2.5
    for x in np.linspace(-12, 12, 241):
        assert in_fundamental_region(pair, mod_coarse(pair, v(x)))


def test_mod_idempotent_and_periodic_randomized():
    rng = np.random.default_rng(5)
    pair = NestedLatticePair(N=3, q=3, alpha=0.5)
    step = pair.coarse_step
    for _ in range(1000):
        x = rng.uniform(-20, 20, size=3)
        m = mod_coarse(pair, x)
        assert np.array_equal(mod_coarse(pair, m), m)
        z = rng.integers(-4, 5, size=3) * step
        assert np.allclose(mod_coarse(pair, x + z), m, rtol=0, atol=1e-9)


def test_quantize_shift_property_randomized():
    rng = np.random.default_rng(6)
    pair = NestedLatticePair(N=2, q=5, alpha=1.25)
    step = pair.coarse_step
    for _ in range(1000):
        x = rng.uniform(-30, 30, size=2)
        z = rng.integers(-3, 4, size=2) * step
        assert np.allclose(
            quantize_coarse(pair, x + z), quantize_coarse(pair, x) + z,
            rtol=0, atol=1e-9,
        )


# ---------------------------------------------------------------------
# codebook points and coordinates
# ---------------------------------------------------------------------


def test_codebook_point_examples():
    pair = NestedLatticePair(N=1, q=3)
    assert codebook_point(pair, [2])[0] == -1.0
    assert codebook_point(pair, [0])[0] == 0.0


def test_codebook_points_distinct():
    pair = NestedLatticePair(N=2, q=5)
    points = {tuple(codebook_point(pair, c)) for c in all_coords(pair)}
    assert len(points) == 25


def test_lattice_add_examples():
    p3 = NestedLatticePair(N=1, q=3)
    assert lattice_add(p3, [1], [1])[0] == 2
    assert codebook_point(p3, lattice_add(p3, [1], [1]))[0] == -1.0
    assert np.array_equal(lattice_add(p3, [2], [0]), [2])
    p5 = NestedLatticePair(N=1, q=5)
    assert lattice_add(p5, [3], [4])[0] == 2


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_isomorphism_bijective_and_additive(q, n):
    """Each codebook point decodes to its own coords, and geometric addition
    of points matches coordinate-wise addition over GF(q)."""
    pair = NestedLatticePair(N=n, q=q)
    coords = all_coords(pair)
    for c in coords:
        assert np.array_equal(decode_fine_mod_coarse(pair, codebook_point(pair, c)), c)
    for a in coords:
        pa = codebook_point(pair, a)
        for b in coords:
            s = mod_coarse(pair, pa + codebook_point(pair, b))
            got = decode_fine_mod_coarse(pair, s)
            assert np.array_equal(got, (a + b) % q)


# ---------------------------------------------------------------------
# sum representation
# ---------------------------------------------------------------------


def test_represent_sum_examples():
    p5 = NestedLatticePair(N=1, q=5)
    sum_mod, t = represent_sums(p5, v(2.0), v(2.0))
    assert sum_mod.tolist() == [-1.0] and t == 2 and t.shape == ()
    sum_mod, t = represent_sums(p5, v(0.0), v(0.0))
    assert sum_mod.tolist() == [0.0] and t == 1
    p52 = NestedLatticePair(N=2, q=5)
    sum_mod, t = represent_sums(p52, v(2.0, 0.0), v(2.0, 0.0))
    assert sum_mod.tolist() == [-1.0, 0.0] and t == 2  # bit 0 least significant


def test_represent_sum_rejects_out_of_region():
    p5 = NestedLatticePair(N=1, q=5)
    with pytest.raises(ValueError):
        represent_sums(p5, v(3.0), v(0.0))


def test_reconstruct_examples():
    p5 = NestedLatticePair(N=1, q=5)
    assert reconstruct_sums(p5, v(-1.0), 2).tolist() == [4.0]
    assert reconstruct_sums(p5, v(0.0), 1).tolist() == [0.0]


@pytest.mark.parametrize("q,n", [(5, 1), (5, 2), (2, 1), (2, 2), (2, 3)])
def test_sum_representation_round_trip_exhaustive(q, n):
    pair = NestedLatticePair(N=n, q=q)
    points = codebook_point(pair, all_coords(pair))
    u1, u2 = points[:, None], points[None, :]
    sum_mod, t = represent_sums(pair, u1, u2)
    assert np.all((1 <= t) & (t <= 2**n))
    assert np.array_equal(reconstruct_sums(pair, sum_mod, t), u1 + u2)


def test_batched_sums_match_single_pair_view():
    """The (25, 25) grid in one call, cell for cell against one-pair calls."""
    pair = NestedLatticePair(N=2, q=5, alpha=1.3)
    points = codebook_point(pair, all_coords(pair))
    sum_mod, t = represent_sums(pair, points[:, None], points[None, :])
    assert sum_mod.shape == (25, 25, 2) and t.shape == (25, 25)
    for i in range(25):
        for j in range(25):
            one_mod, one_t = represent_sums(pair, points[i], points[j])
            assert np.array_equal(one_mod, sum_mod[i, j]) and one_t == t[i, j]
            assert np.array_equal(reconstruct_sums(pair, one_mod, one_t),
                                  points[i] + points[j])
    assert np.array_equal(reconstruct_sums(pair, sum_mod, t),
                          points[:, None] + points[None, :])
    for bad in (0, 5):
        with pytest.raises(ValueError):
            reconstruct_sums(pair, sum_mod, np.where(t == t[3, 4], bad, t))
    with pytest.raises(ValueError):
        represent_sums(pair, points[:, None], points[None, :] + np.array([0.0, 7.0]))


# ---------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------


def test_decode_examples():
    pair = NestedLatticePair(N=1, q=5)
    assert decode_fine_mod_coarse(pair, v(2.2))[0] == 2
    assert decode_fine_mod_coarse(pair, v(2.6))[0] == 3


def test_decode_round_trip_exhaustive_q5():
    for n in (1, 2, 3):
        pair = NestedLatticePair(N=n, q=5, alpha=0.3)
        for c in all_coords(pair):
            assert np.array_equal(decode_fine_mod_coarse(pair, codebook_point(pair, c)), c)


def test_noiseless_aggregate_decode_matches_lattice_add():
    pair = NestedLatticePair(N=2, q=5)
    for a in all_coords(pair):
        for b in all_coords(pair):
            agg = codebook_point(pair, a) + codebook_point(pair, b)
            got = decode_fine_mod_coarse(pair, mod_coarse(pair, agg))
            assert np.array_equal(got, lattice_add(pair, a, b))


# ---------------------------------------------------------------------
# rates and power
# ---------------------------------------------------------------------


def test_rate_condition_examples():
    assert rate_condition_ok(NestedLatticePair(N=1, q=2), 7.5) is True
    assert rate_condition_ok(NestedLatticePair(N=1, q=5), 7.5) is False
    # exactly at the threshold the strict inequality fails
    pair = NestedLatticePair(N=1, q=2)
    p_threshold = 2.0 ** (2 * math.log2(pair.q)) - 0.5  # 0.5 + P == 2^(2 R0), R0 = log2 q
    assert rate_condition_ok(pair, p_threshold) is False


def test_average_power_examples():
    assert math.isclose(
        average_codebook_power(NestedLatticePair(N=1, q=3)), 2.0 / 3.0, rel_tol=1e-12
    )
    assert math.isclose(
        average_codebook_power(NestedLatticePair(N=1, q=5)), 2.0, rel_tol=1e-12
    )


def test_average_power_scales_with_alpha_squared():
    base = average_codebook_power(NestedLatticePair(N=2, q=5))
    for a in (0.5, 0.1, 1e-3, 1e-6):
        scaled = average_codebook_power(NestedLatticePair(N=2, q=5, alpha=a))
        assert math.isclose(scaled, a * a * base, rel_tol=1e-9)
    assert average_codebook_power(NestedLatticePair(N=2, q=5, alpha=1e-9)) < 1e-12


def test_average_power_matches_full_enumeration():
    pair = NestedLatticePair(N=3, q=5, alpha=0.8)
    total = 0.0
    for c in all_coords(pair):
        p = codebook_point(pair, c)
        total += float(np.dot(p, p)) / pair.N
    assert math.isclose(average_codebook_power(pair), total / 125, rel_tol=1e-12)


def test_pair_validation():
    with pytest.raises(ValueError):
        NestedLatticePair(N=1, q=4)  # composite nesting ratio
    with pytest.raises(ValueError):
        NestedLatticePair(N=1, q=1)
    with pytest.raises(ValueError):
        NestedLatticePair(N=1, q=3, alpha=0.0)


def test_coords_range_check_on_stacks_and_broadcasts():
    pair = NestedLatticePair(N=3, q=5)
    ok = np.broadcast_to(np.array([0, 4, 2]), (6, 2, 3))  # zero strides
    assert np.array_equal(lattice_sub(pair, ok, np.zeros((6, 2, 3), dtype=np.int64)), ok)
    assert coords_to_index(pair, ok).tolist() == [[4 * 5 + 2 * 25] * 2] * 6
    big = np.full((4, 2, 3), 1, dtype=np.int64)
    big[3, 1, 2] = 5
    neg = big.copy()
    neg[3, 1, 2] = -1
    bad = [big, neg, np.iinfo(np.int64).min + big,
           np.broadcast_to(np.array([0, -3, 1]), (4, 2, 3)),
           np.broadcast_to(np.array([7, 0, 1]), (4, 2, 3)),
           big[::-1, :, ::-1], neg.transpose(1, 0, 2)]
    for c in bad:
        for call in (lambda c: codebook_point(pair, c), lambda c: coords_to_index(pair, c),
                     lambda c: lattice_sub(pair, c, np.zeros_like(c)),
                     lambda c: lattice_sub(pair, np.zeros_like(c), c)):
            with pytest.raises(ValueError, match="canonical"):
                call(c)


def test_per_coordinate_ratios_match_one_pair_per_coordinate():
    """A pair with one ratio per coordinate is the product of its 1-D codes:
    every coordinate-wise function agrees with each coordinate's own pair,
    bit for bit, and its range check is per coordinate."""
    ratios = (7, 5, 5, 2, 3)
    pair = NestedLatticePair(N=5, q=ratios, alpha=1.3)
    lines = [NestedLatticePair(N=1, q=q, alpha=1.3) for q in ratios]
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2**10, size=(40, 5)) % np.array(ratios)
    b = rng.integers(0, 2**10, size=(40, 5)) % np.array(ratios)
    y = rng.normal(0.0, 6.0, size=(40, 5))
    for j, line in enumerate(lines):
        col = np.s_[:, j : j + 1]
        for name, got, want in [
            ("point", codebook_point(pair, a)[col], codebook_point(line, a[col])),
            ("decode", decode_fine_mod_coarse(pair, y)[col], decode_fine_mod_coarse(line, y[col])),
            ("mod", mod_coarse(pair, y)[col], mod_coarse(line, y[col])),
            ("add", lattice_add(pair, a, b)[col], lattice_add(line, a[col], b[col])),
            ("sub", lattice_sub(pair, a, b)[col], lattice_sub(line, a[col], b[col])),
        ]:
            assert np.array_equal(got, want) and got.dtype == want.dtype, (name, j)
    over = a.copy()
    over[7, 3] = 2  # canonical at q = 7, not at this coordinate's q = 2
    with pytest.raises(ValueError, match="canonical"):
        codebook_point(pair, over)
    with pytest.raises(ValueError, match="one nesting ratio"):
        coords_to_index(pair, a)
    with pytest.raises(ValueError, match="one nesting ratio"):
        index_to_coords(pair, 3)
    with pytest.raises(ValueError, match="per coordinate"):
        NestedLatticePair(N=4, q=ratios)
    with pytest.raises(ValueError, match="prime"):
        NestedLatticePair(N=2, q=(5, 4))
    assert pair == NestedLatticePair(N=5, q=ratios, alpha=1.3) != NestedLatticePair(N=5, q=7)


def test_index_coords_round_trip():
    pair = NestedLatticePair(N=3, q=3)
    for k in range(27):
        c = index_to_coords(pair, k)
        back = 0
        for digit in reversed(c):
            back = back * 3 + int(digit)
        assert back == k


def test_represent_sum_boundary_endpoint():
    # the negative cell endpoint belongs to the region and round-trips
    pair = NestedLatticePair(N=1, q=3)  # region [-1.5, 1.5)
    u = v(-1.5)
    assert in_fundamental_region(pair, u)
    sum_mod, t = represent_sums(pair, u, u)  # real sum -3.0 wraps
    assert t == 2
    assert reconstruct_sums(pair, sum_mod, t)[0] == -3.0


def test_alpha_for_power_targets():
    from relaysec.lattice import alpha_for_power

    assert alpha_for_power(5, 2.0) == pytest.approx(1.0)
    for q, target in [(3, 0.5), (5, 7.0), (11, 1.0)]:
        a = alpha_for_power(q, target)
        got = average_codebook_power(NestedLatticePair(N=1, q=q, alpha=a))
        assert got == pytest.approx(target, rel=1e-12)
