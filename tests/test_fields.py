"""Field arithmetic on int-encoded elements and GF(q) linear algebra."""

import itertools
import tracemalloc

import numpy as np
import pytest

from relaysec import fields
from relaysec.fields import (
    ExtField,
    all_matrices,
    complete_rows,
    digits,
    find_irreducible,
    full_rank_fraction,
    is_prime,
    matrix_row_rank,
    reduce_mod,
    row_reduce,
    row_space_levels,
    undigits,
)


def brute_force_inverse(q, a):
    """Independent oracle: scan all elements for the inverse."""
    for b in range(q):
        if (a * b) % q == 1:
            return b
    return None


def power(f, a, e):
    """a**e by e table multiplications; a**0 = 1.  ``a`` may be an array."""
    mul = f.tables()["mul"]
    out = np.ones_like(a)
    for _ in range(e):
        out = mul[out, a]
    return out


# ---------------------------------------------------------------------
# prime field: GF(q) = ExtField(q, 1), elements the residues mod q
# ---------------------------------------------------------------------


def test_add_examples():
    add = ExtField(5, 1).tables()["add"]
    assert add[3, 4] == 2
    assert add[0, 0] == 0
    assert ExtField(2, 1).tables()["add"][1, 1] == 0


def test_inverse_examples_against_brute_force():
    mul = ExtField(5, 1).tables()["mul"]
    assert list(mul[2]).index(1) == brute_force_inverse(5, 2) == pow(2, 3, 5) == 3
    assert list(mul[1]).index(1) == 1
    mul7 = ExtField(7, 1).tables()["mul"]
    assert list(mul7[3]).index(1) == brute_force_inverse(7, 3) == pow(3, 5, 7) == 5


def test_inverse_of_zero_rejected():
    assert not np.any(ExtField(5, 1).tables()["mul"][0] == 1)


def test_non_prime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 12):
        assert not is_prime(bad)
        with pytest.raises(ValueError):
            ExtField(bad, 1)
        with pytest.raises(ValueError):
            matrix_row_rank(np.eye(2, dtype=int), bad)


# ---------------------------------------------------------------------
# irreducible search and extension fields
# ---------------------------------------------------------------------


def test_find_irreducible_examples():
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    for q in (2, 3, 5, 7):
        assert find_irreducible(q, 1) == (0, 1)  # x


def test_ext_field_modulus_is_the_canonical_irreducible():
    # the modulus is read-only state: GF(q^r) has one representation per (q, r)
    assert ExtField(3, 2).modulus == find_irreducible(3, 2) == (1, 0, 1)
    assert ExtField(3, 2) == ExtField(3, 2)
    with pytest.raises(TypeError):
        ExtField(3, 2, modulus=(2, 2, 1))
    with pytest.raises(ValueError, match="degree"):
        ExtField(3, 0)


def test_ext_mul_examples():
    gf4 = ExtField(2, 2)
    add, mul = gf4.tables()["add"], gf4.tables()["mul"]
    x, one = 2, 1  # x has coefficients (0, 1)
    assert mul[x, add[x, one]] == one
    a = 3  # 1 + x
    assert mul[a, one] == a
    assert ExtField(3, 2).tables()["mul"][3, 3] == 2  # x * x = 2 in GF(9)


def _product_mod(a, b, modulus, q):
    """Coefficients of a * b mod the monic modulus over GF(q), by schoolbook long division."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    e = len(modulus) - 1
    for deg in range(len(prod) - 1, e - 1, -1):
        lead = prod[deg] % q
        for k in range(e + 1):
            prod[deg - e + k] -= lead * modulus[k]
    return [c % q for c in prod[:e]]


@pytest.mark.parametrize("q, r", [(2, 5), (3, 3), (5, 2), (7, 1), (31, 1)])
def test_tables_match_schoolbook_arithmetic(q, r, monkeypatch):
    # 7 coefficients per block row: one row per block, or ragged blocks at 2r - 1 > 1
    monkeypatch.setattr(fields, "_TABLE_BLOCK_CELLS", 7)
    f = ExtField(q, r)
    t = fields._op_tables.__wrapped__(q, r, f.modulus)  # not the cached build
    coeffs = digits(np.arange(f.order), q, r).tolist()
    for a in range(f.order):
        want_add = [undigits([(x + y) % q for x, y in zip(coeffs[a], cb)], q) for cb in coeffs]
        want_mul = [undigits(_product_mod(coeffs[a], cb, f.modulus, q), q) for cb in coeffs]
        assert t["add"][a].tolist() == want_add and t["mul"][a].tolist() == want_mul
    for name, table in f.tables().items():
        assert table.dtype == np.int64 and not table.flags.writeable
        assert np.array_equal(t[name], table), name  # equal across block sizes


def test_table_build_memory():
    """GF(2^10): the add, sub and mul tables take 24 MiB; building every product
    at once, (1024, 1024, 19) int64 coefficients, peaked near 256 MiB."""
    modulus = find_irreducible(2, 10)
    tracemalloc.start()
    try:
        tables = fields._op_tables.__wrapped__(2, 10, modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables["mul"][2, 2**9] == undigits(modulus[:10], 2)  # x * x^9 = x^10
    assert peak <= 48 * 2**20


def test_ext_pow_examples():
    assert power(ExtField(5, 1), 3, 3) == 2  # 27 mod 5
    gf4 = ExtField(2, 2)
    a = 3  # 1 + x
    assert power(gf4, a, 1) == a
    assert power(gf4, 2, 3) == 1  # x^3 = 1


def test_ext_pow_order_of_multiplicative_group():
    for q, r in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        f = ExtField(q, r)
        nonzero = np.arange(1, f.order)
        assert np.all(power(f, nonzero, f.order - 1) == 1)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("r", [1, 2])
def test_field_axioms_exhaustive(q, r):
    f = ExtField(q, r)
    t = f.tables()
    add, sub, mul, neg = t["add"], t["sub"], t["mul"], t["neg"]
    e = np.arange(f.order)
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add[e, 0], e) and np.array_equal(mul[e, 1], e)
    assert np.all(add[e, neg] == 0)
    assert np.array_equal(add[sub, e[None, :]], np.broadcast_to(e[:, None], sub.shape))
    assert np.all(mul[0] == 0)
    # every nonzero element has exactly one inverse
    assert np.all(np.sum(mul[1:] == 1, axis=1) == 1)
    # distributivity and associativity over all triples
    a, b, c = e[:, None, None], e[None, :, None], e[None, None, :]
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])


def test_int_round_trip():
    # digit k of an element is its coefficient of x^k
    assert digits(7, 5, 2).tolist() == [2, 1]
    assert digits(np.array([[0, 24]]), 5, 2).tolist() == [[[0, 0], [4, 4]]]
    ks = np.arange(25)
    assert np.array_equal(digits(ks, 5, 2) @ np.array([1, 5]), ks)


@pytest.mark.parametrize("q", [2, 3, 5, 11])
def test_undigits_inverts_digits(q):
    n = 4
    ks = np.arange(q**n).reshape(q, -1, 1, q)  # leading batch axes
    d = digits(ks, q, n)
    assert d.shape == ks.shape + (n,)
    back = undigits(d, q)
    assert back.dtype == np.int64 and np.array_equal(back, ks)
    # uint8 digit stacks, as all_matrices makes them, and every digit tuple
    every = all_matrices(q, 1, n)[:, 0, :]
    assert every.dtype == np.uint8
    assert np.array_equal(digits(undigits(every, q), q, n), every)
    assert np.array_equal(undigits(every[:, ::-1], q), np.arange(q**n))  # first digit high
    assert undigits(digits(7, q, 3), q) == 7 % q**3
    assert undigits(np.zeros((2, 0), dtype=np.uint8), q).tolist() == [0, 0]


def test_reduce_mod_is_the_remainder_for_every_sign_and_dtype():
    for dtype in (np.int8, np.int16, np.int64):
        info = np.iinfo(dtype)
        edges = np.array([info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max], dtype=dtype)
        x = np.concatenate([np.arange(-128, 128, dtype=dtype), edges])
        for q in (1, 2, 3, 5, 11, 127):
            got = reduce_mod(x, q)
            assert got.dtype == dtype and np.array_equal(got, x % q), (dtype, q)
    # an int64 array modulus, one ratio per coordinate, as a mixed-ratio lattice pair has
    x = np.arange(-60, 60, dtype=np.int64).reshape(-1, 4)
    q = np.array([2, 3, 5, 7], dtype=np.int64)
    assert np.array_equal(reduce_mod(x, q), x % q)


# ---------------------------------------------------------------------
# matrices over GF(q)
# ---------------------------------------------------------------------


def test_rank_examples():
    assert matrix_row_rank(np.array([[1, 0, 1], [0, 1, 1]]), 2) == 2
    assert matrix_row_rank(np.zeros((3, 4), dtype=int), 5) == 0
    for n in (1, 2, 3, 4):
        assert matrix_row_rank(np.eye(n, dtype=int), 3) == n


def test_full_rank_fraction_enumerated_2x3_gf2():
    full = np.count_nonzero(matrix_row_rank(all_matrices(2, 2, 3), 2) == 2)
    assert full == 42
    assert full_rank_fraction(2, 2, 3) == (42, 64)


def _binary_rank_bits(rows):
    """Independent GF(2) rank oracle on integer-encoded rows."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def test_full_rank_bound_and_formula_cross_check():
    # fraction >= 1 - q^(r-N), and the product formula matches enumeration
    for q in (2, 3):
        for n in range(1, 5):
            for r in range(1, n + 1):
                count, total = full_rank_fraction(q, r, n)
                assert count * q ** (n - r) >= (q ** (n - r) - 1) * total
                if q ** (r * n) <= 100_000:
                    seen = np.count_nonzero(matrix_row_rank(all_matrices(q, r, n), q) == r)
                    assert seen == count


def test_binary_rank_agrees_with_elimination():
    rng = np.random.default_rng(0)
    for _ in range(300):
        r, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        m = rng.integers(0, 2, size=(r, n), dtype=np.int64)
        ints = [int("".join(map(str, row)), 2) if n else 0 for row in m]
        assert matrix_row_rank(m, 2) == _binary_rank_bits(ints)


def test_complete_rows_examples():
    assert np.array_equal(complete_rows(np.array([[0, 1]]), 2), [[1, 0]])
    assert complete_rows(np.eye(3, dtype=int), 2).shape == (0, 3)
    g = np.array([[1, 1]])
    g_prime = complete_rows(g, 3)
    assert np.array_equal(g_prime, [[1, 0]])
    assert matrix_row_rank(np.vstack([g_prime, g]), 3) == 2


def test_complete_rows_rejects_rank_deficient():
    with pytest.raises(ValueError):
        complete_rows(np.array([[1, 1], [2, 2]]), 3)


def _row_ints(mats):
    """Each row of a binary stack as an int, first entry most significant."""
    cols = mats.shape[-1]
    return (mats @ (1 << np.arange(cols - 1, -1, -1))).tolist()


def test_complete_rows_exhaustive_gf2():
    for n in range(1, 5):
        for r in range(1, n + 1):
            mats = all_matrices(2, r, n)
            full = [_binary_rank_bits(rows) == r for rows in _row_ints(mats)]
            g = mats[full].astype(np.int64)
            stacked = np.concatenate([complete_rows(g, 2), g], axis=-2)
            assert [_binary_rank_bits(rows) for rows in _row_ints(stacked)] == [n] * len(g)


# ---------------------------------------------------------------------
# the batched elimination kernel
# ---------------------------------------------------------------------


def _reference_rref(m, q):
    """Independent scalar Gauss-Jordan on nested lists: (rref rows, rank)."""
    a = [[int(x) % q for x in row] for row in m]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], q - 2, q)
        a[rank] = [x * inv % q for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[rank])]
        rank += 1
    return a, rank


def test_all_matrices_in_product_order():
    for q, rows, cols in [(2, 2, 3), (3, 2, 2), (5, 1, 3), (3, 3, 1)]:
        mats = all_matrices(q, rows, cols)
        want = [list(t) for t in itertools.product(range(q), repeat=rows * cols)]
        assert mats.dtype == np.uint8 and mats.shape == (len(want), rows, cols)
        assert mats.reshape(len(want), -1).tolist() == want


def test_stacked_rank_matches_binary_oracle_up_to_4x4():
    for rows in range(1, 5):
        for cols in range(1, 5):
            mats = all_matrices(2, rows, cols)
            want = [_binary_rank_bits(ints) for ints in _row_ints(mats)]
            assert matrix_row_rank(mats, 2).tolist() == want


@pytest.mark.parametrize("q", [3, 5])
def test_stacked_reduction_matches_single_matrices(q, monkeypatch):
    # small passes, so a stack spans several of them
    monkeypatch.setattr(fields, "_REDUCE_BATCH", 7)
    rng = np.random.default_rng(q)
    for rows, cols in [(2, 3), (3, 3), (4, 2), (5, 3)]:
        mats = rng.integers(0, q, size=(60, rows, cols))
        mats[::4, rows - 1] = 0  # a zero row
        mats[::9] = 0  # the zero matrix
        rref, rank = row_reduce(mats, q)
        assert rref.dtype == np.uint8 and rank.shape == (60,)
        for i, m in enumerate(mats):
            one_rref, one_rank = row_reduce(m, q)
            ref, ref_rank = _reference_rref(m, q)
            assert rank[i] == one_rank == ref_rank
            assert rref[i].tolist() == one_rref.tolist() == ref
        grid = mats.reshape(3, 20, rows, cols)  # any leading axes
        assert np.array_equal(matrix_row_rank(grid, q), rank.reshape(3, 20))


def _row_spaces(q, rows, cols):
    """(rrefs, index): level ``rows`` of ``row_space_levels`` and its composed steps.

    Matrix i' * q^cols + v of k rows is [matrix i' of k - 1 rows; vector v], so
    ``rrefs[index]`` is the RREF of each of ``all_matrices(q, rows, cols)``.
    """
    index = np.zeros(1, dtype=np.int64)
    for rrefs, step in itertools.islice(row_space_levels(q, cols), rows + 1):
        index = step[index].ravel()
    return rrefs, index


@pytest.mark.parametrize("q", [2, 3, 5])
def test_row_spaces_match_row_reduce_matrix_by_matrix(q, monkeypatch):
    # small passes, so the stacks of the later rows span several of them
    monkeypatch.setattr(fields, "_REDUCE_BATCH", 97)
    shapes = [(rows, cols) for cols in range(5) for rows in range(cols + 1)]
    shapes += [(2, 1), (3, 2), (3, 1), (4, 2)]  # rows > cols
    for rows, cols in shapes:
        if q ** (rows * cols) > 10**5:  # full_rank_census's enumeration cap
            continue
        mats = all_matrices(q, rows, cols)
        want_rref, want_rank = row_reduce(mats, q)
        rrefs, index = _row_spaces(q, rows, cols)
        assert rrefs.dtype == want_rref.dtype and rrefs.shape[1:] == (rows, cols)
        assert index.shape == (len(mats),)
        assert np.array_equal(rrefs[index], want_rref), (rows, cols)
        rank = np.count_nonzero(rrefs.any(axis=-1), axis=-1)
        assert np.array_equal(rank[index], want_rank), (rows, cols)
        # distinct, in all_matrices (lexicographic) order, and each its own RREF
        flat = rrefs.reshape(len(rrefs), -1).tolist()
        assert flat == sorted(flat) and len(set(map(tuple, flat))) == len(flat)
        assert np.array_equal(row_reduce(rrefs, q)[0], rrefs)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_row_reduce_and_row_space_levels_match_scalar_gauss_jordan(q, monkeypatch):
    # every matrix of each shape with at most 10^4 of them, against _reference_rref
    monkeypatch.setattr(fields, "_REDUCE_BATCH", 61)  # several blocks per stack and level
    for cols in range(5):
        levels = row_space_levels(q, cols)
        index = np.zeros(1, dtype=np.int64)  # level 0 steps from one virtual matrix
        for rows in range(6):
            if q ** (rows * cols) > 10**4:
                break
            mats = all_matrices(q, rows, cols)
            want = [_reference_rref(m, q) for m in mats.tolist()]
            want_rref = np.array([w[0] for w in want], dtype=np.int64).reshape(mats.shape)
            want_rank = [w[1] for w in want]
            rref, rank = row_reduce(mats, q)
            assert rref.dtype == np.uint8 and rank.dtype == np.int64 and rank.shape == (len(mats),)
            assert np.array_equal(rref, want_rref) and rank.tolist() == want_rank, (rows, cols)
            rrefs, step = next(levels)
            index = step[index].ravel()  # matrix i' * q^cols + v of rows rows -> its RREF's id
            assert rrefs.dtype == np.uint8 and rrefs.shape[1:] == (rows, cols)
            assert np.array_equal(rrefs[index], want_rref), (rows, cols)
            for m, (one_rref, one_rank) in list(zip(mats, want))[:: max(1, len(mats) // 50)]:
                got_rref, got_rank = row_reduce(m, q)  # a single matrix
                assert got_rref.dtype == np.uint8 and type(got_rank) is int
                assert got_rref.tolist() == one_rref and got_rank == one_rank


@pytest.mark.parametrize("q", [2, 3])
def test_row_space_levels_match_row_spaces_level_by_level(q):
    # the widths of verify's full-rank grid, each level while it stays under the enumeration cap
    for cols in range(1, 5):
        levels = row_space_levels(q, cols)
        index = np.zeros(1, dtype=np.int64)  # level 0 steps from one virtual matrix
        n_prev = 1
        for k in range(cols + 1):
            if q ** (k * cols) > 10**5:
                break
            rrefs, step = next(levels)
            assert step.shape == (n_prev, 1 if k == 0 else q**cols)
            assert np.array_equal(np.unique(step), np.arange(len(rrefs)))  # each RREF reached
            index = step[index].ravel()  # the composed steps: matrix -> its RREF's id
            n_prev = len(rrefs)
            want_rref = row_reduce(all_matrices(q, k, cols), q)[0]
            assert rrefs[index].dtype == want_rref.dtype
            assert np.array_equal(rrefs[index], want_rref), (q, k, cols)
            want_rrefs, want_index = _row_spaces(q, k, cols)
            assert rrefs.dtype == want_rrefs.dtype and rrefs.shape[1:] == (k, cols)
            assert np.array_equal(rrefs, want_rrefs) and np.array_equal(index, want_index)


def test_row_spaces_memory():
    """q=5, 2 x 4: 390,625 matrices; re-reducing each [RREF; v] from scratch peaked
    near 9.0 MiB, an int64 insertion without blocks near 27 MiB."""
    _row_spaces(5, 1, 4)  # numpy's own first-call allocations are not the census's
    tracemalloc.start()
    try:
        rrefs, index = _row_spaces(5, 2, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rrefs) == 963 and len(index) == 5**8
    assert peak <= 9.0 * 2**20


def test_row_spaces_count_subspaces():
    # one RREF per subspace of dimension <= rows: the Gaussian binomials
    def gaussian(n, k, q):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        return num // den
    for q, rows, cols in [(2, 4, 4), (3, 2, 4), (5, 2, 3), (2, 0, 3), (3, 3, 2)]:
        rrefs, _ = _row_spaces(q, rows, cols)
        assert len(rrefs) == sum(gaussian(cols, k, q) for k in range(min(rows, cols) + 1))


def _greedy_completion(g, q):
    """Keep e_0, e_1, ... in order whenever one raises the rank of the rows so far."""
    n = len(g[0])
    rows, kept = [list(row) for row in g], []
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        if _reference_rref(rows + [e], q)[1] > len(rows):
            rows.append(e)
            kept.append(e)
    return kept


def test_complete_rows_stack_matches_single_and_greedy():
    for q, n_max in [(2, 4), (3, 3), (5, 2)]:
        for n in range(2, n_max + 1):
            for r in range(1, n):
                mats = all_matrices(q, r, n)
                g = mats[matrix_row_rank(mats, q) == r]
                g_prime = complete_rows(g, q)
                assert g_prime.shape == (len(g), n - r, n)
                for i in range(len(g)):
                    assert g_prime[i].tolist() == _greedy_completion(g[i].tolist(), q)
                for i in range(0, len(g), 37):
                    assert np.array_equal(complete_rows(g[i], q), g_prime[i])
