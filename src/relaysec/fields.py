"""Exact arithmetic over GF(q) and GF(q^r), plus linear algebra over GF(q).

GF(q) elements are the ints in [0, q).  GF(q^r) elements are the ints in
[0, q^r): base-q digit k of an element (``digits``) is its coefficient of
x^k in the polynomial basis, and ``ExtField.tables`` holds the add, sub,
mul and neg tables indexed by those ints.

``digits`` and its inverse ``undigits`` are the package's one int <-> digits
codec, in any base (q for elements, coords and seeds; 2 for ranks and bits).

Matrices over GF(q) are integer numpy arrays, one matrix or a stack of
shape (..., rows, cols).  Arbitrary stacks go through one Gauss-Jordan
kernel, ``row_reduce``, which reduces a whole stack per pass; rank and
basis completion are thin views over it, and ``all_matrices`` enumerates
every matrix of a shape as one stack.
``row_space_levels`` finds the RREFs of all matrices of a shape by prefix
transitions: row operations on M' keep its row space, so RREF([M'; v]) =
RREF([RREF(M'); v]), and row k only inserts each vector v into each
distinct RREF of the first k - 1 rows (eliminate v against its pivots,
scale it, clear its leading column from the other rows, put it in pivot
order).  One pass yields every row count of a width in turn, level k from
level k - 1, each with its step: the id of RREF([R; v]) per (R, v).
``row_spaces`` composes the steps into its level ``rows``.

Everything here is deterministic: the extension-field modulus is the
lexicographically first monic irreducible polynomial of the requested
degree, so GF(q^r) has one canonical representation per (q, r).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ExtField",
    "digits",
    "undigits",
    "find_irreducible",
    "is_prime",
    "all_matrices",
    "row_reduce",
    "row_space_levels",
    "row_spaces",
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


def digits(k, q: int, length: int) -> np.ndarray:
    """Base-q digits of k on a new trailing axis, coordinate 0 least significant.

    ``k`` may be an int or an int array; digit j is (k // q^j) mod q.
    """
    return (np.asarray(k, dtype=np.int64)[..., None] // q ** np.arange(length, dtype=np.int64)) % q


def undigits(d, q: int) -> np.ndarray:
    """Inverse of ``digits``: sum_j d[..., j] q^j over the last axis, as int64."""
    d = np.asarray(d, dtype=np.int64)
    return d @ q ** np.arange(d.shape[-1], dtype=np.int64)


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

_REDUCE_BATCH = 4096  # matrices per elimination pass, or (R, v) pairs per insertion block


def all_matrices(q: int, rows: int, cols: int) -> np.ndarray:
    """Every rows x cols matrix over GF(q), shape (q^(rows*cols), rows, cols).

    Matrix k is the k-th tuple of ``itertools.product(range(q),
    repeat=rows * cols)`` read row by row, in the smallest unsigned dtype.
    """
    n = rows * cols
    grid = np.indices((q,) * n, dtype=np.min_scalar_type(q - 1)).reshape(n, q**n)
    return np.ascontiguousarray(grid.T).reshape(q**n, rows, cols)


def row_reduce(m, q: int) -> tuple[np.ndarray, np.ndarray | int]:
    """Reduced row-echelon form and rank over GF(q), by Gauss-Jordan elimination.

    ``m`` is one matrix or a stack of shape (..., rows, cols).  Pivots are
    taken in column order, each the first nonzero row at or below the
    current rank.  Returns (rref, rank): the RREF stack in the smallest
    unsigned dtype, and the ranks, an int for a single matrix.
    """
    _check_prime(q)
    m = np.asarray(m)
    if m.ndim < 2:
        raise ValueError("matrix must be 2-D or a stack of 2-D matrices")
    *stack, rows, cols = m.shape
    flat = m.reshape(int(np.prod(stack)), rows, cols)
    rref = np.empty(flat.shape, dtype=np.min_scalar_type(q - 1))
    rank = np.zeros(len(flat), dtype=np.int64)
    work = np.min_scalar_type(-q * q)  # holds a - f * p before reduction mod q
    inverse = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=work)
    row_ids = np.arange(rows)
    for start in range(0, len(flat), _REDUCE_BATCH):
        a = (flat[start : start + _REDUCE_BATCH] % q).astype(work)
        done = rank[start : start + _REDUCE_BATCH]  # a view: the pass updates it
        for col in range(cols if rows else 0):
            below = (a[:, :, col] != 0) & (row_ids >= done[:, None])
            sel = np.flatnonzero(below.any(axis=1))
            pivot, top = below[sel].argmax(axis=1), done[sel]
            a[sel, pivot], a[sel, top] = a[sel, top], a[sel, pivot]
            pivot_row = a[sel, top] * inverse[a[sel, top, col]][:, None] % q
            factor = a[sel, :, col]
            factor[np.arange(len(sel)), top] = 0
            a[sel] = (a[sel] - factor[:, :, None] * pivot_row[:, None, :]) % q
            a[sel, top] = pivot_row
            done[sel] += 1
        rref[start : start + _REDUCE_BATCH] = a
    rref = rref.reshape(m.shape)
    return (rref, rank.reshape(stack)) if stack else (rref, int(rank[0]))


def row_space_levels(q: int, cols: int):
    """Yield (rrefs, step) for k = 0, 1, 2, ... rows of width cols over GF(q), in one pass.

    ``rrefs`` holds the distinct RREFs of all k x cols matrices, in
    ``all_matrices`` (lexicographic) order.  ``step[i, v]`` is the id of
    RREF([R_i; v]), R_i the i-th RREF of k - 1 rows and v the v-th vector
    of ``all_matrices(q, 1, cols)``; level 0's step is [[0]].  Matrix
    i' * q^cols + v of k rows is [matrix i' of k - 1 rows; vector v], so
    the composed steps map every matrix to its RREF (``row_spaces``).  Each
    level is built from the one before, and the caller stops the pass.

    Since RREF([M'; v]) = RREF([RREF(M'); v]), only v is eliminated: less
    its pivot-column entries times R's rows (one matmul), scaled to a
    leading 1, its leading column cleared from R's rows, and sorted in, as
    an RREF's rows are in descending order read as base-q ints.  The (R, v)
    pairs go in blocks of ``_REDUCE_BATCH``.
    """
    _check_prime(q)
    work = np.min_scalar_type(-q * q * max(cols, 1))  # holds v @ project and R - c w
    inverse = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=work)
    vecs = all_matrices(q, 1, cols)[:, 0]
    row_key = q ** np.arange(cols - 1, -1, -1, dtype=np.int64)  # a vector's index in vecs
    lead = np.logical_and.accumulate(vecs == 0, axis=-1).sum(axis=-1)  # cols for the zero vector
    pivot = (np.arange(cols) == lead[:, None]).astype(work)  # 0/1 leading column of each vector
    # scaled[u]: the index of vector u over its leading entry (0 for the zero vector)
    scaled = (vecs * inverse[(vecs * pivot).sum(axis=-1)][:, None]) % q @ row_key
    rrefs = np.zeros((1, 0, cols), dtype=vecs.dtype)  # the one 0 x cols matrix
    step = np.zeros((1, 1), dtype=np.int64)
    n_vec = len(vecs)
    while True:
        yield rrefs, step
        m, k = len(rrefs), rrefs.shape[1] + 1
        r = rrefs.astype(work)
        # project[i] = I - E, where E holds R_i's row j at row p_j, its pivot column, so
        # v @ project[i] = v - sum_j v[p_j] R_i[j]; a zero row's pivot is the dropped row cols
        project = np.zeros((m, cols + 1, cols), dtype=work)
        project[np.arange(m)[:, None], lead[r @ row_key]] = -r
        project = project[:, :cols] + np.eye(cols, dtype=work)
        place = n_vec ** np.arange(k, dtype=np.int64)  # row j of k from the bottom: place[j]
        keys = np.empty(m * n_vec, dtype=np.int64)
        for p0 in range(0, len(keys), _REDUCE_BATCH):
            i, v = np.divmod(np.arange(p0, min(p0 + _REDUCE_BATCH, len(keys))), n_vec)
            w = (vecs[v, None, :] @ project[i])[:, 0] % q @ row_key  # the index of v's residue
            rb = r[i]
            rb = (rb - (rb @ pivot[w][:, :, None]) * vecs[scaled[w], None, :]) % q
            row_keys = np.concatenate([rb @ row_key, scaled[w][:, None]], axis=1)
            row_keys.sort(axis=1)  # ascending: the RREF's last row first
            keys[p0 : p0 + len(row_keys)] = row_keys @ place
        found, step = np.unique(keys, return_inverse=True)
        rrefs = vecs[digits(found, n_vec, k)[:, ::-1]]
        step = step.reshape(m, n_vec)


def row_spaces(q: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(rrefs, index): the distinct RREFs of all rows x cols matrices over GF(q).

    ``rrefs`` is in ``all_matrices`` (lexicographic) order and ``rrefs[index]``
    equals ``row_reduce(all_matrices(q, rows, cols), q)[0]``.  It is level
    ``rows`` of ``row_space_levels``, its index the composed steps.
    """
    index = np.zeros(1, dtype=np.int64)
    for rrefs, step in itertools.islice(row_space_levels(q, cols), rows + 1):
        index = step[index].ravel()  # [matrix i' of k - 1 rows; vector v] is i' * q^cols + v
    return rrefs, index


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
