"""Exact arithmetic over GF(q) and GF(q^r), plus linear algebra over GF(q).

GF(q) elements are the ints in [0, q).  GF(q^r) elements are the ints in
[0, q^r): base-q digit k of an element (``digits``) is its coefficient of
x^k in the polynomial basis, and ``ExtField.tables`` holds the add, sub,
mul and neg tables indexed by those ints.

``digits`` and its inverse ``undigits`` are the package's one int <-> digits
codec, in any base: q for elements, seeds and codebook indices (whose
digits are the coords), 2 for ranks and bits.

Matrices over GF(q) are integer numpy arrays, one matrix or a stack of
shape (..., rows, cols); ``all_matrices`` enumerates every matrix of a
shape as one stack.  One elimination step, ``_insert``, adds a row to
each of a stack of RREFs: it eliminates the row against their pivots,
scales it to a leading 1 and clears that column from their rows.
``row_reduce`` inserts the rows of each matrix one at a time; rank and
basis completion are thin views over it.  ``row_space_levels`` finds the
RREFs of all matrices of a shape by prefix transitions: RREF([M'; v]) =
RREF([RREF(M'); v]), so row k only inserts each vector v into each
distinct RREF of the first k - 1 rows.  One pass yields every row count
of a width in turn, each level with its step: the id of RREF([R; v]) per
(R, v).  Each level's RREFs are their own reductions, so a caller that
wants one RREF per row space reads them off a level as they are.

Everything here is deterministic: the extension-field modulus is the
lexicographically first monic irreducible polynomial of the requested
degree, so GF(q^r) has one canonical representation per (q, r).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ExtField",
    "digits",
    "undigits",
    "reduce_mod",
    "find_irreducible",
    "is_prime",
    "all_matrices",
    "row_reduce",
    "row_space_levels",
    "matrix_row_rank",
    "complete_rows",
    "full_rank_fraction",
]


def is_prime(q: int) -> bool:
    """Deterministic trial-division primality test (q is small here)."""
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


def _check_prime(q: int):
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")


@lru_cache(maxsize=128)
def _places(q: int, length: int) -> np.ndarray:
    """The read-only place values q^0 .. q^(length-1) as int64, built once per (q, length)."""
    places = q ** np.arange(length, dtype=np.int64)
    places.setflags(write=False)
    return places


def digits(k, q: int, length: int) -> np.ndarray:
    """Base-q digits of k on a new trailing axis, coordinate 0 least significant.

    ``k`` may be an int or an int array; digit j is (k // q^j) mod q.
    """
    return (np.asarray(k, dtype=np.int64)[..., None] // _places(q, length)) % q


def undigits(d, q: int) -> np.ndarray:
    """Inverse of ``digits``: sum_j d[..., j] q^j over the last axis, as int64."""
    d = np.asarray(d, dtype=np.int64)
    return d @ _places(q, d.shape[-1])


def reduce_mod(x: np.ndarray, q) -> np.ndarray:
    """x mod q of an int array for q > 0, an int or an int array.

    The value of ``x % q`` for every sign of x, in x's dtype.  By an int it
    is x - (x // q) q (an overflow of x // q * q wraps and cancels), since
    numpy's integer ``%`` by an int takes a slower path than its floor
    division (numpy 2.4: 4x on 10^4 int64 entries, 20x on int8); by an int
    array that form is the slower one, so it is ``%`` there.
    """
    return x % q if isinstance(q, np.ndarray) else x - x // q * q


# ---------------------------------------------------------------------------
# polynomials over GF(q): coefficient arrays, lowest degree first
# ---------------------------------------------------------------------------


def _poly_rem(a: np.ndarray, m: np.ndarray, q: int) -> np.ndarray:
    """Remainders of the signed int array a (..., n) by the monic m (..., e + 1) over GF(q).

    ``a`` is reduced in place, so m's leading axes must broadcast to a's and
    a's dtype must hold the partial remainders: each step cancels the top
    coefficient with lead x^(deg - e) m.  Returns the e low coefficients,
    each in [0, q).
    """
    e = m.shape[-1] - 1
    for deg in range(a.shape[-1] - 1, e - 1, -1):
        lead = a[..., deg] % q
        a[..., deg - e : deg + 1] -= lead[..., None] * m
    return a[..., :e] % q


@lru_cache(maxsize=None)
def find_irreducible(q: int, r: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible polynomial of degree r over GF(q).

    Returned as a coefficient tuple of length r + 1, lowest degree first,
    leading coefficient 1.  Candidates are scanned in ascending order of the
    non-leading coefficient vector read as a base-q integer (constant term
    least significant), so the result is deterministic.  A candidate is
    reducible iff a monic of degree e <= r/2 divides it; the monics of
    degree e are the ints [q^e, 2 q^e) read as digits, and one ``_poly_rem``
    call per e divides the candidate by all of them.
    """
    _check_prime(q)
    if r < 1:
        raise ValueError(f"degree must be >= 1, got {r}")
    for cand in range(q**r, 2 * q**r):  # the monic candidates, as ints
        rems = (_poly_rem(digits(np.full(q**e, cand), q, r + 1),
                          digits(np.arange(q**e, 2 * q**e), q, e + 1), q)
                for e in range(1, r // 2 + 1))
        if all(rem.any(axis=-1).all() for rem in rems):  # no zero remainder: no factor
            return tuple(digits(cand, q, r + 1).tolist())
    raise AssertionError("no irreducible polynomial found")  # cannot happen


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtField:
    """GF(q^r) in the polynomial basis modulo a monic irreducible polynomial.

    Elements are the ints in [0, q^r); base-q digit k of an element is its
    coefficient of x^k.  The modulus is the canonical (lex-first)
    irreducible of ``find_irreducible``, so two ExtField(q, r) instances
    are equal and share their tables.
    """

    q: int
    r: int
    modulus: tuple[int, ...] = field(init=False)

    def __post_init__(self):  # find_irreducible also checks q and r
        object.__setattr__(self, "modulus", find_irreducible(self.q, self.r))

    @property
    def order(self) -> int:
        return self.q**self.r

    def tables(self) -> dict[str, np.ndarray]:
        """ADD/SUB/MUL/NEG tables indexed by element ints.

        Built once per (q, r, modulus) and shared read-only.
        """
        return _op_tables(self.q, self.r, self.modulus)


_TABLE_BLOCK_CELLS = 2**18  # product coefficients per row block of a table build


@lru_cache(maxsize=8)
def _op_tables(q: int, r: int, modulus: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Operation tables of GF(q^r), computed on coefficient arrays in row blocks.

    A block of rows a holds the (rows, n, 2r - 1) products a * b of every
    b before ``_poly_rem`` reduces them, so the scratch stays within
    ``_TABLE_BLOCK_CELLS`` coefficients (one row at least) beside the tables,
    in the smallest signed dtype that holds the partial remainders.
    """
    n = q**r
    work = np.min_scalar_type(-2 * r * q * q)  # |coefficient| <= r (q-1)^2, plus as much reduced
    coeffs = digits(np.arange(n), q, r).astype(work)
    m = np.array(modulus, dtype=work)
    add, mul = np.empty((n, n), dtype=np.int64), np.empty((n, n), dtype=np.int64)
    rows = max(1, _TABLE_BLOCK_CELLS // (n * (2 * r - 1)))
    b = coeffs[None, :, :]
    for a0 in range(0, n, rows):
        a = coeffs[a0 : a0 + rows, None, :]
        add[a0 : a0 + rows] = undigits((a + b) % q, q)
        prod = np.zeros((len(a), n, 2 * r - 1), dtype=work)
        for i in range(r):
            prod[:, :, i : i + r] += a[:, :, i : i + 1] * b
        mul[a0 : a0 + rows] = undigits(_poly_rem(prod, m, q), q)
    neg = undigits((-coeffs) % q, q)
    tables = {"add": add, "sub": add[:, neg], "mul": mul, "neg": neg}
    for table in tables.values():
        table.flags.writeable = False
    return tables


# ---------------------------------------------------------------------------
# matrices over GF(q): stacks of shape (..., rows, cols), one elimination kernel
# ---------------------------------------------------------------------------

_REDUCE_BATCH = 4096  # rows per elimination block: each inserts one row into each of its RREFs


def all_matrices(q: int, rows: int, cols: int) -> np.ndarray:
    """Every rows x cols matrix over GF(q), shape (q^(rows*cols), rows, cols).

    Matrix k is the k-th tuple of ``itertools.product(range(q),
    repeat=rows * cols)`` read row by row, in the smallest unsigned dtype.
    """
    n = rows * cols
    grid = np.indices((q,) * n, dtype=np.min_scalar_type(q - 1)).reshape(n, q**n)
    return np.ascontiguousarray(grid.T).reshape(q**n, rows, cols)


def _insert(r, v, q: int, inverse):
    """The (b, k + 1, cols + 1) RREFs of RREFs r (b, k, cols + 1) and vectors v (b, cols + 1).

    Column cols is the sink: 0 in every RREF row and 1 in every v.  v less
    its entries at r's pivots times r's rows (one matmul) is the residue,
    scaled to a leading 1 by ``inverse`` (1/a mod q, 0 for 0); a zero
    residue leads at the sink.  Its sink entry reset, it clears its leading
    column from r's rows and joins them as row k.  numpy's integer matmul
    accumulates in its operands' dtype, so r and v share a signed dtype
    that holds -cols (q - 1)^2.
    """
    b = np.arange(len(v))
    pivots = (r != 0).argmax(axis=2)  # 0 for a zero row, whose product is 0 anyway
    w = reduce_mod(v - (v[b[:, None], pivots][:, None, :] @ r)[:, 0], q)
    lead = (w != 0).argmax(axis=1)
    w = reduce_mod(w * inverse[w[b, lead]][:, None], q)
    w[:, -1] = 0
    cleared = reduce_mod(r - r[b, :, lead][:, :, None] * w[:, None, :], q)
    return np.concatenate([cleared, w[:, None]], axis=1)


def row_reduce(m, q: int) -> tuple[np.ndarray, np.ndarray | int]:
    """Reduced row-echelon form and rank over GF(q), by inserting rows one at a time.

    ``m`` is one matrix or a stack of shape (..., rows, cols).  Row i of
    each matrix is inserted (``_insert``) into the RREF of its rows before
    i, ``_REDUCE_BATCH`` matrices at a time, and the rows are then sorted
    by pivot, the zero rows last.  Returns (rref, rank): the RREF stack in
    the smallest unsigned dtype, and the ranks, an int for a single matrix.
    """
    _check_prime(q)
    m = np.asarray(m)
    if m.ndim < 2:
        raise ValueError("matrix must be 2-D or a stack of 2-D matrices")
    *stack, rows, cols = m.shape
    work = np.min_scalar_type(-q * q * max(cols, 1))  # the work dtype of _insert
    inverse = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=work)
    a = np.ones((int(np.prod(stack)), rows, cols + 1), dtype=work)
    a[..., :cols] = m.reshape(len(a), rows, cols) % q  # the sink column stays 1
    for start in range(0, len(a), _REDUCE_BATCH):
        r = a[start : start + _REDUCE_BATCH, :0]
        for i in range(rows):
            r = _insert(r, a[start : start + _REDUCE_BATCH, i], q, inverse)
        a[start : start + _REDUCE_BATCH] = r  # each row's sink entry now 0
    pivot = np.where(a.any(axis=2), (a != 0).argmax(axis=2), cols)  # cols for a zero row
    rref = np.take_along_axis(a[..., :cols], pivot.argsort(axis=1, kind="stable")[..., None], 1)
    rref = rref.astype(np.min_scalar_type(q - 1)).reshape(m.shape)
    rank = np.count_nonzero(pivot < cols, axis=1)
    return (rref, rank.reshape(stack)) if stack else (rref, int(rank[0]))


def row_space_levels(q: int, cols: int):
    """Yield (rrefs, step) for k = 0, 1, 2, ... rows of width cols over GF(q), in one pass.

    ``rrefs`` holds the distinct RREFs of all k x cols matrices, in
    ``all_matrices`` (lexicographic) order.  ``step[i, v]`` is the id of
    RREF([R_i; v]), R_i the i-th RREF of k - 1 rows and v the v-th vector
    of ``all_matrices(q, 1, cols)``; level 0's step is [[0]].  Matrix
    i' * q^cols + v of k rows is [matrix i' of k - 1 rows; vector v], so
    the composed steps map every matrix to its RREF.  Each level is built
    from the one before, and the caller stops the pass.

    Since RREF([M'; v]) = RREF([RREF(M'); v]), each vector is inserted
    (``_insert``) into each distinct RREF of the level before,
    ``_REDUCE_BATCH`` (R, v) pairs at a time.  An RREF's rows in pivot
    order descend read as base-q ints, so those ints, sorted, key it.
    """
    _check_prime(q)
    work = np.min_scalar_type(-q * q * max(cols, 1))  # the work dtype of _insert
    inverse = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=work)
    vecs = all_matrices(q, 1, cols)[:, 0]
    n_vec = len(vecs)
    rows = np.zeros((n_vec, cols + 1), dtype=work)  # the vectors as RREF rows, sink entry 0
    rows[:, :cols] = vecs
    sunk = rows + (np.arange(cols + 1) == cols).astype(work)  # the vectors, sink entry 1
    row_key = q ** np.arange(cols, -1, -1, dtype=np.int64) // q  # a row's index in vecs
    rref_rows, step = np.zeros((1, 0), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    while True:
        yield vecs[rref_rows], step  # level 0: the one 0 x cols matrix
        m, k = rref_rows.shape[0], rref_rows.shape[1] + 1
        place = n_vec ** np.arange(k, dtype=np.int64)  # row j of k from the bottom: place[j]
        keys = np.empty(m * n_vec, dtype=np.int64)
        for p0 in range(0, len(keys), _REDUCE_BATCH):
            i, v = np.divmod(np.arange(p0, min(p0 + _REDUCE_BATCH, len(keys))), n_vec)
            row_keys = _insert(rows[rref_rows[i]], sunk[v], q, inverse) @ row_key
            row_keys.sort(axis=1)  # ascending: the RREF's last row first
            keys[p0 : p0 + len(i)] = row_keys @ place
        found, step = np.unique(keys, return_inverse=True)
        rref_rows, step = digits(found, n_vec, k)[:, ::-1], step.reshape(m, n_vec)


def matrix_row_rank(m, q: int):
    """Row rank over GF(q): an int, or an array of ranks for a stack."""
    return row_reduce(m, q)[1]


def complete_rows(g, q: int) -> np.ndarray:
    """Complete full-row-rank r x N matrices to invertible square ones.

    Returns g_prime, (N - r) x N, such that the stacked matrix [g_prime; g]
    is invertible; a stack of g gives a stack.  The completion rows are the
    e_i, in index order, such that no row-space vector of g has its highest
    nonzero entry at i: exactly the rows a greedy scan of e_0, e_1, ...
    keeps when each raises the rank.
    """
    g = np.asarray(g, dtype=np.int64) % q
    *stack, r, n = g.shape
    rref, rank = row_reduce(g[..., ::-1], q)
    if np.any(rank != r):
        raise ValueError("matrix does not have full row rank")
    # the leading entry of each RREF row of reversed g is the highest entry of a row-space vector
    free = np.ones((*stack, n), dtype=bool)
    np.put_along_axis(free, n - 1 - np.argmax(rref != 0, axis=-1), False, axis=-1)
    return np.eye(n, dtype=np.int64)[np.nonzero(free)[-1].reshape(*stack, n - r)]


def full_rank_fraction(q: int, rows: int, cols: int) -> tuple[int, int]:
    """Exact count of full-row-rank rows x cols matrices over GF(q).

    Returns (full_rank_count, total_count) as exact integers:
    count = prod_{i=0}^{rows-1} (q^cols - q^i) when rows <= cols, else 0.
    """
    total = q ** (rows * cols)
    if rows > cols:
        return 0, total
    count = 1
    for i in range(rows):
        count *= q**cols - q**i
    return count, total
