"""Exact arithmetic over GF(q) and GF(q^r), plus linear algebra over GF(q).

GF(q) elements are the ints in [0, q).  GF(q^r) elements are the ints in
[0, q^r): base-q digit k of an element (``digits``) is its coefficient of
x^k in the polynomial basis, and ``ExtField.tables`` holds the add, sub,
mul and neg tables indexed by those ints.  Matrices over GF(q) are
integer numpy arrays reduced mod q.

Everything here is deterministic: the extension-field modulus is the
lexicographically first monic irreducible polynomial of the requested
degree, so GF(q^r) has one canonical representation per (q, r).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ExtField",
    "digits",
    "find_irreducible",
    "is_prime",
    "matrix_row_rank",
    "sample_matrix",
    "matrix_inverse",
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


# ---------------------------------------------------------------------------
# polynomial helpers over GF(q); coefficient lists are lowest-degree first
# ---------------------------------------------------------------------------


def _poly_trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_trim(out)


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
    coefficient of x^k.  If no modulus is given, the canonical (lex-first)
    irreducible is used, so two ExtField(q, r) instances are equal and
    share their tables.
    """

    q: int
    r: int
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_prime(self.q)
        modulus = self.modulus
        if modulus is None:
            modulus = find_irreducible(self.q, self.r)
        modulus = tuple(int(c) % self.q for c in modulus)
        if len(modulus) != self.r + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree r")
        if not _poly_is_irreducible(list(modulus), self.q):
            raise ValueError(f"modulus {modulus} is reducible over GF({self.q})")
        object.__setattr__(self, "modulus", modulus)

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
    radix = q ** np.arange(r, dtype=np.int64)
    coeffs = digits(np.arange(n), q, r)
    a, b = coeffs[:, None, :], coeffs[None, :, :]
    add = ((a + b) % q) @ radix
    prod = np.zeros((n, n, 2 * r - 1), dtype=np.int64)
    for i in range(r):
        prod[:, :, i : i + r] += a[:, :, i : i + 1] * b
    mod = np.array(modulus, dtype=np.int64)
    for deg in range(2 * r - 2, r - 1, -1):  # reduce by the monic modulus
        lead = prod[:, :, deg] % q
        prod[:, :, deg - r : deg + 1] -= lead[:, :, None] * mod
    mul = (prod[:, :, :r] % q) @ radix
    neg = ((-coeffs) % q) @ radix
    tables = {"add": add, "sub": add[:, neg], "mul": mul, "neg": neg}
    for table in tables.values():
        table.flags.writeable = False
    return tables


# ---------------------------------------------------------------------------
# matrices over GF(q): plain int64 numpy arrays, entries reduced mod q
# ---------------------------------------------------------------------------


def matrix_row_rank(m: np.ndarray, q: int) -> int:
    """Row rank via Gaussian elimination over GF(q)."""
    _check_prime(q)
    a = np.array(m, dtype=np.int64) % q
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if a[row, col] != 0:
                pivot = row
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, col]), q - 2, q)) % q
        for row in range(rows):
            if row != rank and a[row, col] != 0:
                a[row] = (a[row] - a[row, col] * a[rank]) % q
        rank += 1
        if rank == rows:
            break
    return rank


def sample_matrix(rng: np.random.Generator, rows: int, cols: int, q: int) -> np.ndarray:
    """i.i.d. uniform matrix over GF(q); deterministic given the rng state."""
    return rng.integers(0, q, size=(rows, cols), dtype=np.int64)


def matrix_inverse(m: np.ndarray, q: int) -> np.ndarray:
    """Inverse of a square matrix over GF(q) by Gauss-Jordan elimination."""
    _check_prime(q)
    a = np.array(m, dtype=np.int64) % q
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if aug[row, col] != 0:
                pivot = row
                break
        if pivot is None:
            raise ValueError("matrix is singular over GF(q)")
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = (aug[col] * pow(int(aug[col, col]), q - 2, q)) % q
        for row in range(n):
            if row != col and aug[row, col] != 0:
                aug[row] = (aug[row] - aug[row, col] * aug[col]) % q
    return aug[:, n:]


def complete_and_invert(g: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Complete a full-row-rank r x N matrix to an invertible square one.

    Returns (g_prime, A) where g_prime is (N - r) x N, the stacked matrix
    [g_prime; g] is invertible, and A is its inverse.  The completion rows
    are standard basis vectors taken greedily in index order, so the result
    is deterministic.
    """
    g = np.array(g, dtype=np.int64) % q
    r, n = g.shape
    if matrix_row_rank(g, q) != r:
        raise ValueError("matrix does not have full row rank")
    basis_rows: list[np.ndarray] = []
    current = g
    rank = r
    for i in range(n):
        if rank == n:
            break
        e = np.zeros(n, dtype=np.int64)
        e[i] = 1
        cand = np.vstack([current, e])
        if matrix_row_rank(cand, q) == rank + 1:
            basis_rows.append(e)
            current = cand
            rank += 1
    g_prime = (
        np.array(basis_rows, dtype=np.int64)
        if basis_rows
        else np.zeros((0, n), dtype=np.int64)
    )
    stacked = np.vstack([g_prime, g])
    a = matrix_inverse(stacked, q)
    return g_prime, a


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
