"""Privacy amplification and strong-secrecy encoding.

Two constructions live here:

* ``ExtractorMap`` — a full-row-rank r x N matrix over GF(q) that hashes a
  uniform codebook coordinate vector down to a seed; full row rank makes
  the seed exactly uniform, and random choice of the matrix obeys the
  leftover-hash entropy bound whose numeric form is ``leakage_budget``.

* ``EncoderMap`` — an invertible message encoder built from a binary
  full-row-rank matrix g: complete g to a square invertible matrix
  [g'; g], rank the 2^N0 smallest-norm codebook points, and let the point
  of rank v carry the word [g'; g] v, randomizer S' = g' v then block value
  S = g v.  Two lookup tables, built without a matrix inverse, hold the
  whole map; decoding is the linear map S = g * v(t1).

Entropy utilities and the parameter formulas (max extractable lengths,
encoder bits) are shared by the protocol and the verification
oracles.  A probability law is a float array of probabilities, indexed by
outcome; the entropies validate it on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import complete_rows, digits, matrix_row_rank, undigits
from .lattice import NestedLatticePair, codebook_point

__all__ = [
    "ExtractorMap",
    "EncoderMap",
    "extract_seed",
    "seed_uniformity",
    "r_max",
    "r0_max",
    "encoder_bits",
    "renyi_entropy",
    "shannon_entropy",
    "leftover_bound",
    "leakage_budget",
    "LeakageBudget",
    "build_encoder",
]


# ---------------------------------------------------------------------------
# seed extraction
# ---------------------------------------------------------------------------


class ExtractorMap:
    """Full-row-rank linear map GF(q)^N -> GF(q)^r (r = 0 allowed)."""

    def __init__(self, matrix: np.ndarray, q: int):
        matrix = np.array(matrix, dtype=np.int64) % q
        if matrix.ndim != 2:
            raise ValueError("extractor matrix must be 2-D")
        r, n = matrix.shape
        if r > 0 and matrix_row_rank(matrix, q) != r:
            raise ValueError("extractor matrix must have full row rank")
        self.matrix = matrix
        self.q = q
        self.r = r
        self.N = n

    def __repr__(self) -> str:
        return f"ExtractorMap(q={self.q}, r={self.r}, N={self.N})"


def extract_seed(emap: ExtractorMap, t1):
    """The seed of t1 as a GF(q^r) element int, over any leading batch axes.

    The seed's r coords are the matrix-vector product over GF(q); they are
    the base-q digits of the element, lowest degree first.
    """
    t1 = np.asarray(t1, dtype=np.int64)
    if t1.ndim < 1 or t1.shape[-1] != emap.N:
        raise ValueError(f"input must have shape (..., {emap.N}), got {t1.shape}")
    return undigits(t1 @ emap.matrix.T % emap.q, emap.q)


def seed_uniformity(matrix: np.ndarray, q: int) -> tuple[np.ndarray, bool]:
    """Exact output law of an r x N matrix under a uniform input.

    Enumerates GF(q)^N and returns (probabilities of the q^r output
    indices, is-exactly-uniform flag).  Any matrix is accepted: a
    rank-deficient one concentrates mass and fails the flag, which is why
    ExtractorMap refuses such matrices (pass ``emap.matrix, emap.q`` for a
    built map).
    """
    matrix = np.array(matrix, dtype=np.int64) % q
    r, n = matrix.shape
    total, n_out = q**n, q**r
    out = (digits(np.arange(total), q, n) @ matrix.T) % q
    counts = np.bincount(undigits(out, q), minlength=n_out)
    return counts / total, bool(np.all(counts * n_out == total))


# ---------------------------------------------------------------------------
# parameter formulas
# ---------------------------------------------------------------------------


def r_max(N: int, q: int, epsilon: float) -> int:
    """Largest extractable seed length: floor(N * (1 - (1 + eps)/log2 q)).

    Zero when the margin condition 1 - (1 + eps)/log2 q > 0 fails.
    """
    margin = 1.0 - (1.0 + epsilon) / math.log2(q)
    if margin <= 0:
        return 0
    return int(math.floor(N * margin))


def r0_max(N: int, R0: float, epsilon: float) -> int:
    """Largest message length of the binary encoder: floor(N*(R0 - 1 - eps))."""
    if R0 - 1.0 - epsilon <= 0:
        return 0
    return int(math.floor(N * (R0 - 1.0 - epsilon)))


def encoder_bits(N: int, q: int) -> int:
    """N0 = floor(N log2 q): the bits the binary encoder carries per (N, q) block."""
    return int(math.floor(N * math.log2(q)))


# ---------------------------------------------------------------------------
# entropies and leftover-hash bounds
# ---------------------------------------------------------------------------


def _check_law(p) -> np.ndarray:
    """``p`` as a float vector; raise unless it is a probability law."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-12):
        raise ValueError("a law must be a vector of nonnegative probabilities summing to 1")
    return p


def renyi_entropy(p) -> float:
    """Collision entropy H2 = -log2 sum p^2 of a probability vector, in bits."""
    p = _check_law(p)
    return -math.log2(float(np.sum(p * p)))


def shannon_entropy(p) -> float:
    """H = -sum p log2 p of a probability vector, with 0*log 0 = 0, in bits."""
    p = _check_law(p)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def leftover_bound(r_bits: float, c: float) -> float:
    """Leftover-hash entropy floor: r_bits - 2^(r_bits - c)/ln 2.

    Lower bound on the Shannon entropy of a randomly hashed source whose
    conditional collision entropy is at least c, for an output of r_bits.
    """
    return r_bits - 2.0 ** (r_bits - c) / math.log(2)


@dataclass(frozen=True)
class LeakageBudget:
    budget_bits: float
    vacuous: bool


def leakage_budget(N: int, q: int, r: int, smoothing: float) -> LeakageBudget:
    """Upper budget on the matrix-averaged leakage of an r-symbol seed, in bits.

    With c = N(log2 q - 1) - s for the smoothing s, the averaged output
    entropy is at least (1 - 2^-(s/2 - 1)) * leftover_bound(r log2 q, c),
    so the leakage cannot exceed r log2 q minus that floor.  For s <= 2 the
    prefactor dies and the budget degenerates to the vacuous r log2 q,
    flagged as such.
    """
    r_bits = r * math.log2(q)
    if smoothing <= 2:
        return LeakageBudget(budget_bits=r_bits, vacuous=True)
    c = N * (math.log2(q) - 1.0) - smoothing
    prefactor = 1.0 - 2.0 ** (-(smoothing / 2.0 - 1.0))
    floor = prefactor * leftover_bound(r_bits, c)
    return LeakageBudget(budget_bits=r_bits - floor, vacuous=False)


# ---------------------------------------------------------------------------
# invertible binary encoder over a codebook subset
# ---------------------------------------------------------------------------


@dataclass
class EncoderMap:
    """Invertible encoder between r0-bit block values and a codebook subset K.

    K holds the 2^N0 smallest-norm codebook points, ranked; the point of
    rank v carries the N0-bit word [g'; g] v, bit 0 first, so its word is
    rho + 2^(N0 - r0) b for randomizer rho = g' v and block value b = g v.
    ``encode_table[rho + 2^(N0 - r0) b]`` is the coords carrying b with
    randomizer rho, and ``decode_table[undigits(coords, q)]`` is the block
    value g v, -1 outside K.
    """

    N0: int
    r0: int
    subset_coords: np.ndarray  # rank -> canonical coords, a (2^N0, N) array
    encode_table: np.ndarray  # word -> coords, a (2^N0, N) array
    decode_table: np.ndarray  # coords index -> block value, a (q^N,) array


def build_encoder(g: np.ndarray, pair: NestedLatticePair) -> EncoderMap:
    """Build the encoder for a binary full-row-rank matrix g with N0 columns.

    N0 = floor(N log2 q); the subset K holds the 2^N0 codebook points of
    smallest Euclidean norm, ties broken by lexicographic coordinate order,
    and v is the rank within K with bit 0 least significant.  Uniform
    (rho, b) gives a uniform point of K.
    """
    N0 = encoder_bits(pair.N, pair.q)
    g = np.array(g, dtype=np.int64) % 2
    r0, cols = g.shape
    if cols != N0:
        raise ValueError(f"g must have N0 = floor(N log2 q) = {N0} columns, got {cols}")
    g_prime = complete_rows(g, 2)  # raises unless g has full row rank

    coords = digits(np.arange(pair.q**pair.N), pair.q, pair.N)
    points = codebook_point(pair, coords)
    ranked = sorted((round(float(np.dot(p, p)), 12), tuple(c.tolist()))
                    for p, c in zip(points, coords))
    subset_coords = np.array([c for _, c in ranked[: 2**N0]], dtype=np.int64)
    words = undigits(digits(np.arange(2**N0), 2, N0) @ np.vstack([g_prime, g]).T % 2, 2)
    encode_table = np.empty_like(subset_coords)
    encode_table[words] = subset_coords
    decode_table = np.full(pair.q**pair.N, -1, dtype=np.int64)
    decode_table[undigits(subset_coords, pair.q)] = words >> (N0 - r0)
    return EncoderMap(N0=N0, r0=r0, subset_coords=subset_coords,
                      encode_table=encode_table, decode_table=decode_table)
