"""Exact arithmetic over GF(q) and GF(q^r), plus linear algebra over GF(q).

GF(q) elements are the ints in [0, q).  GF(q^r) elements are the ints in
[0, q^r): base-q digit k of an element (``digits``) is its coefficient of
x^k in the polynomial basis, and ``ExtField.tables`` holds the add, sub,
mul and neg tables indexed by those ints.

``digits`` and its inverse ``undigits`` are the package's one int <-> digits
codec, in any base (q for elements, coords and seeds; 2 for ranks and bits).

Matrices over GF(q) are integer numpy arrays, one matrix or a stack of
shape (..., rows, cols).  All matrix work goes through one Gauss-Jordan
kernel, ``row_reduce``, which reduces a whole stack per pass; rank and
basis completion are thin views over it, and ``all_matrices`` enumerates
every matrix of a shape as one stack.
``row_space_levels`` finds them all by prefix transitions: row operations
on M' keep its row space, so RREF([M'; v]) = RREF([RREF(M'); v]) and row k
needs one reduction per (distinct RREF of the first k - 1 rows, row v).  One
pass yields every row count of a width in turn, level k from level k - 1;
``row_spaces`` is its level ``rows``.

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
    "complete_and_invert",
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
# polynomial helpers over GF(q); coefficient lists are lowest-degree first
# ---------------------------------------------------------------------------


def _poly_trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(a: list[int], m: list[int], q: int) -> list[int]:
    """Remainder of a by monic m over GF(q)."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        lead = a[-1]
        if lead == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % q
        a = _poly_trim(a)
    return _poly_trim(a)


def _poly_is_irreducible(p: list[int], q: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree <= deg/2."""
    deg = len(p) - 1
    if deg == 1:
        return True
    if p[0] == 0:  # divisible by x
        return False
    for ddeg in range(1, deg // 2 + 1):
        for low in digits(np.arange(q**ddeg), q, ddeg).tolist():
            if _poly_mod(p, low + [1], q) == [0]:
                return False
    return True


@lru_cache(maxsize=None)
def find_irreducible(q: int, r: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible polynomial of degree r over GF(q).

    Returned as a coefficient tuple of length r + 1, lowest degree first,
    leading coefficient 1.  Candidates are scanned in ascending order of the
    non-leading coefficient vector read as a base-q integer (constant term
    least significant), so the result is deterministic.
    """
    _check_prime(q)
    if r < 1:
        raise ValueError(f"degree must be >= 1, got {r}")
    for k in range(q**r):
        cand = digits(k, q, r).tolist() + [1]
        if _poly_is_irreducible(cand, q):
            return tuple(cand)
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


@lru_cache(maxsize=8)
def _op_tables(q: int, r: int, modulus: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Operation tables of GF(q^r), computed on coefficient arrays."""
    n = q**r
    coeffs = digits(np.arange(n), q, r)
    a, b = coeffs[:, None, :], coeffs[None, :, :]
    add = undigits((a + b) % q, q)
    prod = np.zeros((n, n, 2 * r - 1), dtype=np.int64)
    for i in range(r):
        prod[:, :, i : i + r] += a[:, :, i : i + 1] * b
    mod = np.array(modulus, dtype=np.int64)
    for deg in range(2 * r - 2, r - 1, -1):  # reduce by the monic modulus
        lead = prod[:, :, deg] % q
        prod[:, :, deg - r : deg + 1] -= lead[:, :, None] * mod
    mul = undigits(prod[:, :, :r] % q, q)
    neg = undigits((-coeffs) % q, q)
    tables = {"add": add, "sub": add[:, neg], "mul": mul, "neg": neg}
    for table in tables.values():
        table.flags.writeable = False
    return tables


# ---------------------------------------------------------------------------
# matrices over GF(q): stacks of shape (..., rows, cols), one elimination kernel
# ---------------------------------------------------------------------------

_REDUCE_BATCH = 4096  # matrices per elimination pass; bounds the scratch memory


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
    """Yield (rrefs, index) of ``row_spaces(q, k, cols)`` for k = 0, 1, 2, ... in one pass.

    Level k is built from level k - 1 alone, so a caller that needs several
    row counts of one width reads them from one pass instead of rebuilding
    every prefix level per count.  Level k reduces one stack, (distinct
    RREFs of k - 1 rows) x q^cols, deduped by a base-q key; its index has
    q^(k*cols) entries, so the caller stops the pass when it has enough.
    """
    vecs = all_matrices(q, 1, cols)
    rrefs, index = vecs[:1, :0], np.zeros(1, dtype=np.int64)  # the one 0 x cols matrix
    while True:
        yield rrefs, index
        k = rrefs.shape[1] + 1
        stacked = np.concatenate(
            [np.repeat(rrefs, len(vecs), axis=0), np.tile(vecs, (len(rrefs), 1, 1))], axis=1)
        reduced = row_reduce(stacked, q)[0].reshape(len(stacked), k * cols)
        keys = undigits(reduced[:, ::-1], q)  # first entry most significant
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        rrefs = reduced[first].reshape(len(first), k, cols)
        # matrix i' * q^cols + v of k rows is [matrix i' of k - 1 rows; vector v]
        index = inverse[(index[:, None] * len(vecs) + np.arange(len(vecs))).ravel()]


def row_spaces(q: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(rrefs, index): the distinct RREFs of all rows x cols matrices over GF(q).

    ``rrefs`` is in ``all_matrices`` (lexicographic) order and ``rrefs[index]``
    equals ``row_reduce(all_matrices(q, rows, cols), q)[0]``.  It is level
    ``rows`` of ``row_space_levels``.
    """
    return next(itertools.islice(row_space_levels(q, cols), rows, None))


def matrix_row_rank(m, q: int):
    """Row rank over GF(q): an int, or an array of ranks for a stack."""
    return row_reduce(m, q)[1]


def complete_and_invert(g, q: int) -> np.ndarray:
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
