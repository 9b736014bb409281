"""Privacy amplification and strong-secrecy encoding.

Two constructions live here:

* ``ExtractorMap`` — a full-row-rank r x N matrix over GF(q) that hashes a
  uniform codebook coordinate vector down to a seed; full row rank makes
  the seed exactly uniform, and random choice of the matrix obeys the
  leftover-hash entropy bound whose numeric form is ``leakage_budget``.

* ``EncoderMap`` — an invertible message encoder built from a binary
  full-row-rank matrix g: complete g to a square invertible matrix, index
  the 2^N0 smallest-norm codebook points, and map (randomizer bits S',
  message bits S) through the inverse so that the decoder is the linear
  map S = g * v(t1).

Entropy utilities and the parameter formulas (max extractable lengths,
achieved secrecy rate) are shared by the protocol and the verification
oracles.  A probability law is a float array of probabilities, indexed by
outcome; the entropies validate it on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import complete_and_invert, digits, matrix_row_rank, undigits
from .lattice import NestedLatticePair, codebook_point, coords_to_index, index_to_coords

__all__ = [
    "ExtractorMap",
    "ExtractorParams",
    "EncoderMap",
    "extract_seed",
    "seed_uniformity",
    "r_max",
    "r0_max",
    "encoder_bits",
    "secrecy_rate",
    "secrecy_rate_from_power",
    "renyi_entropy",
    "shannon_entropy",
    "leftover_bound",
    "leakage_budget",
    "LeakageBudget",
    "build_encoder",
    "encode_message",
    "decode_ranks",
    "search_good_extractor",
    "SearchResult",
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


def extract_seed(emap: ExtractorMap, t1) -> np.ndarray:
    """Matrix-vector product over GF(q), over any leading batch axes."""
    t1 = np.asarray(t1, dtype=np.int64)
    if t1.ndim < 1 or t1.shape[-1] != emap.N:
        raise ValueError(f"input must have shape (..., {emap.N}), got {t1.shape}")
    return (t1 @ emap.matrix.T) % emap.q


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


def secrecy_rate(R0: float, epsilon: float) -> float:
    """Achieved secrecy rate [R0 - 1 - eps]^+ in bits per channel use."""
    return max(R0 - 1.0 - epsilon, 0.0)


def secrecy_rate_from_power(power: float, epsilon: float = 0.0) -> float:
    """Secrecy rate with R0 at its power-limited ceiling 0.5*log2(0.5 + P)."""
    return secrecy_rate(0.5 * math.log2(0.5 + power), epsilon)


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
class ExtractorParams:
    """Block length, alphabet, slack and smoothing for the budget.

    ``smoothing`` defaults to epsilon * N.
    """

    N: int
    q: int
    epsilon: float
    smoothing: float | None = None

    def __post_init__(self):
        if self.smoothing is None:
            object.__setattr__(self, "smoothing", self.epsilon * self.N)


@dataclass(frozen=True)
class LeakageBudget:
    budget_bits: float
    vacuous: bool
    c: float


def leakage_budget(params: ExtractorParams, r: int) -> LeakageBudget:
    """Upper budget on the matrix-averaged seed leakage, in bits.

    With c = N(log2 q - 1) - s, the averaged output entropy is at least
    (1 - 2^-(s/2 - 1)) * leftover_bound(r log2 q, c), so the leakage cannot
    exceed r log2 q minus that floor.  For s <= 2 the prefactor dies and
    the budget degenerates to the vacuous r log2 q, flagged as such.
    """
    r_bits = r * math.log2(params.q)
    s = params.smoothing
    c = params.N * (math.log2(params.q) - 1.0) - s
    if s <= 2:
        return LeakageBudget(budget_bits=r_bits, vacuous=True, c=c)
    prefactor = 1.0 - 2.0 ** (-(s / 2.0 - 1.0))
    floor = prefactor * leftover_bound(r_bits, c)
    return LeakageBudget(budget_bits=r_bits - floor, vacuous=False, c=c)


# ---------------------------------------------------------------------------
# invertible binary encoder over a codebook subset
# ---------------------------------------------------------------------------


@dataclass
class EncoderMap:
    """Invertible encoder between bit vectors and a codebook subset K.

    ``v`` ranks the 2^N0 smallest-norm codebook points;
    encode: t1 = v^-1(A [S'; S]), decode: S = g v(t1).  ``rank_table`` is
    v as a dense array over coords indices (see ``coords_to_index``), -1
    outside K.
    """

    g: np.ndarray
    g_prime: np.ndarray
    A: np.ndarray
    pair: NestedLatticePair
    N0: int
    r0: int
    subset_coords: np.ndarray  # rank -> canonical coords, a (2^N0, N) array
    rank_table: np.ndarray

    def ranks(self, t1) -> np.ndarray:
        """v(t1) over any leading batch axes, -1 where t1 is outside K."""
        return self.rank_table[coords_to_index(self.pair, t1)]


def build_encoder(g: np.ndarray, pair: NestedLatticePair) -> EncoderMap:
    """Build the encoder for a binary full-row-rank matrix g with N0 columns.

    N0 = floor(N log2 q); the subset K holds the 2^N0 codebook points of
    smallest Euclidean norm (transmit dither d1 applied), ties broken by
    lexicographic coordinate order, and v is the rank within K with bit 0
    least significant.
    """
    N0 = encoder_bits(pair.N, pair.q)
    g = np.array(g, dtype=np.int64) % 2
    r0, cols = g.shape
    if cols != N0:
        raise ValueError(f"g must have N0 = floor(N log2 q) = {N0} columns, got {cols}")
    g_prime, a = complete_and_invert(g, 2)  # raises unless g has full row rank

    coords = index_to_coords(pair, np.arange(pair.q**pair.N))
    points = codebook_point(pair, coords, dither=1)
    ranked = sorted((round(float(np.dot(p, p)), 12), tuple(c.tolist()))
                    for p, c in zip(points, coords))
    subset_coords = np.array([c for _, c in ranked[: 2**N0]], dtype=np.int64)
    rank_table = np.full(pair.q**pair.N, -1, dtype=np.int64)
    rank_table[coords_to_index(pair, subset_coords)] = np.arange(len(subset_coords))
    return EncoderMap(
        g=g, g_prime=g_prime, A=a, pair=pair, N0=N0, r0=r0,
        subset_coords=subset_coords, rank_table=rank_table,
    )


def encode_message(enc: EncoderMap, s_bits, s_prime_bits) -> np.ndarray:
    """t1 = v^-1(A [S'; S]); uniform (S, S') gives uniform t1 over K.

    Bit vectors may carry leading batch axes; t1 gets the same ones.
    """
    s_bits = np.asarray(s_bits, dtype=np.int64) % 2
    s_prime_bits = np.asarray(s_prime_bits, dtype=np.int64) % 2
    if s_bits.ndim < 1 or s_bits.shape[-1] != enc.r0:
        raise ValueError(f"message bits must have length {enc.r0}")
    if s_prime_bits.shape != s_bits.shape[:-1] + (enc.N0 - enc.r0,):
        raise ValueError(f"randomizer bits must have length {enc.N0 - enc.r0}")
    stacked = np.concatenate([s_prime_bits, s_bits], axis=-1)
    bits = (stacked @ enc.A.T) % 2
    return enc.subset_coords[undigits(bits, 2)]


def decode_ranks(enc: EncoderMap, ranks) -> np.ndarray:
    """S = g v for ranks v in [0, 2^N0), over any leading batch axes."""
    return (digits(ranks, 2, enc.N0) @ enc.g.T) % 2


# ---------------------------------------------------------------------------
# sampled search for a low-leakage extractor
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    best: ExtractorMap
    best_leakage: float
    leakages: list[float]
    sampled: int


def search_good_extractor(
    q: int,
    N: int,
    r: int,
    candidates: int,
    rng: np.random.Generator,
    oracle_hook,
) -> SearchResult:
    """Sample uniform matrices, keep full-rank ones, minimize exact leakage.

    ``oracle_hook(stack)`` gets the (k, r, N) stack of full-rank candidates,
    in draw order, and must return their exact leakages in bits, one per
    matrix in the same order (``oracle.exact_seed_leakage`` takes such a
    stack in one call).  The first minimum wins.  Deterministic given the
    rng state.  Raises RuntimeError when no full-rank candidate appears
    within the budget.
    """
    if r == 0:
        empty = ExtractorMap(np.zeros((0, N), dtype=np.int64), q)
        return SearchResult(best=empty, best_leakage=0.0, leakages=[0.0], sampled=0)
    # one draw of the whole stack reads the same stream as one draw per candidate
    draws = rng.integers(0, q, size=(candidates, r, N), dtype=np.int64)
    full = draws[matrix_row_rank(draws, q) == r]
    if len(full) == 0:
        raise RuntimeError(
            f"no full-row-rank candidate in {candidates} samples (q={q}, r={r}, N={N})"
        )
    leakages = [float(leak) for leak in oracle_hook(full)]
    best_m = None
    best_leak = math.inf
    for m, leak in zip(full, leakages, strict=True):
        if leak < best_leak:
            best_leak = leak
            best_m = m
    return SearchResult(
        best=ExtractorMap(best_m, q),
        best_leakage=best_leak,
        leakages=leakages,
        sampled=len(leakages),
    )
