"""Self-similar nested lattice codebooks over a scaled integer lattice.

The fine lattice is ``alpha * Z^N`` and the coarse lattice is ``q`` times
it, for a prime nesting ratio q.  The codebook is the set of fine points
inside the coarse Voronoi region ``V = [-q*alpha/2, q*alpha/2)^N`` (half
open; at a quantization tie the residue lands on the negative endpoint).
Each codebook point is identified by its canonical coordinate vector in
``[0, q)^N``, which is already its GF(q)^N image: the mod-coarse addition
of points is coordinate-wise addition mod q (``lattice_add``).  Its index
in ``[0, q^N)`` is the int whose base-q digits are the coords, coordinate 0
least significant: ``fields.undigits`` and ``fields.digits`` convert, and
``digits`` of ``arange(q^N)`` lists the whole codebook in lexicographic order.

The per-vector functions (``quantize_coarse``, ``mod_coarse``,
``codebook_point``, ``decode_fine_mod_coarse``, ``lattice_add``) also
take arrays with leading batch axes, shape ``(..., N)``, and validate
shape and range once per call over the whole array; the trial engine
calls the unchecked kernel ``_codebook_point`` on coords it formed in
range.  They also serve a pair whose ``q`` is a tuple of N primes,
one nesting ratio per coordinate: the coarse lattice is then
``diag(q) * alpha * Z^N``, the product of N one-dimensional codes, and
each coordinate's residues, coords and sums are taken mod its own ratio.
The trial engine runs a trial's every channel use through one such pair.
``codebook_point`` gathers from the pair's ``point_table``, one line of
points per distinct ratio, built on first use.

The sum of two Voronoi-region vectors is recoverable from its mod-coarse
residue plus one wrap bit per coordinate; ``represent_sums`` packs those
bits into an integer T in [1, 2^N] (coordinate 0 least significant) and
``reconstruct_sums`` inverts it exactly, both over leading batch axes
(one pair is the call without them); T - 1 <-> wrap bits is the same
codec in base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .fields import digits, is_prime, reduce_mod, undigits

__all__ = [
    "NestedLatticePair",
    "quantize_coarse",
    "mod_coarse",
    "in_fundamental_region",
    "codebook_point",
    "lattice_add",
    "represent_sums",
    "reconstruct_sums",
    "decode_fine_mod_coarse",
    "rate_condition_ok",
    "line_power",
    "average_codebook_power",
    "alpha_for_power",
]

MAX_TABLE_POINTS = 2**22  # float64 points of one pair's point_table, 32 MiB


@dataclass(frozen=True)
class NestedLatticePair:
    """Fine lattice alpha*Z^N nested in the coarse lattice q*alpha*Z^N.

    ``q`` is one prime, or a tuple of N primes for a per-coordinate ratio;
    ``modulus`` is q as the coordinate-wise functions broadcast it: an int
    when every coordinate shares it, else an int64 array.
    """

    N: int
    q: int | tuple[int, ...]
    alpha: float = 1.0
    modulus: int | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("dimension must be >= 1")
        ratios = self.q if isinstance(self.q, tuple) else (self.q,)
        if isinstance(self.q, tuple) and len(ratios) != self.N:
            raise ValueError(f"need one nesting ratio per coordinate, got {len(ratios)} "
                             f"for N = {self.N}")
        for q in set(ratios):
            if not is_prime(q):
                raise ValueError(f"nesting ratio q={q} must be prime")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        # one shared ratio stays an int, which numpy divides by much faster than by an array
        modulus = ratios[0] if len(set(ratios)) == 1 else np.array(ratios, dtype=np.int64)
        object.__setattr__(self, "modulus", modulus)

    @property
    def coarse_step(self) -> float | np.ndarray:
        return self.modulus * self.alpha

    @cached_property
    def point_table(self) -> tuple[np.ndarray, int | np.ndarray]:
        """(table, offsets): coord c of coordinate j is the point table[offsets[j] + c].

        The read-only table holds ``_line`` of each distinct ratio, so its size
        is their sum; ``offsets`` is 0 when the ratio is shared.
        """
        ratios = self.q if isinstance(self.q, tuple) else (self.q,)
        distinct = sorted(set(ratios))
        if sum(distinct) > MAX_TABLE_POINTS:
            raise ValueError(f"a point table of {sum(distinct)} points exceeds {MAX_TABLE_POINTS}")
        if len(distinct) == 1:
            return _line(distinct[0], self.alpha), 0
        table = np.concatenate([_line(q, self.alpha) for q in distinct])
        table.setflags(write=False)
        starts = dict(zip(distinct, np.cumsum([0] + distinct[:-1]).tolist()))
        return table, np.array([starts[q] for q in ratios])


@lru_cache(maxsize=16)  # pairs of one code share its line, the many fresh pairs of verify too
def _line(q: int, alpha: float) -> np.ndarray:
    """The (q, alpha) code's points on one coordinate, alpha*c mod coarse for c in [0, q)."""
    points = mod_coarse(NestedLatticePair(N=1, q=q, alpha=alpha), alpha * np.arange(q)[:, None])
    points.setflags(write=False)
    return points[:, 0]


def _check_len(pair: NestedLatticePair, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim < 1 or x.shape[-1] != pair.N:
        raise ValueError(f"vector must have shape (..., {pair.N}), got {x.shape}")
    return x


def quantize_coarse(pair: NestedLatticePair, x: np.ndarray) -> np.ndarray:
    """Nearest coarse lattice point, coordinate-wise.

    Tie at the cell boundary resolves so that the residue x - Q(x) falls in
    [-q*alpha/2, q*alpha/2).
    """
    x = _check_len(pair, x)
    step = pair.coarse_step
    return np.floor(x / step + 0.5) * step


def mod_coarse(pair: NestedLatticePair, x: np.ndarray) -> np.ndarray:
    """Residue x - Q(x), lying in the fundamental region."""
    x = _check_len(pair, x)
    return x - quantize_coarse(pair, x)


def in_fundamental_region(pair: NestedLatticePair, x: np.ndarray) -> bool:
    x = _check_len(pair, x)
    half = pair.coarse_step / 2
    return bool(np.all(x >= -half) and np.all(x < half))


def _check_coords(pair: NestedLatticePair, c) -> np.ndarray:
    c = np.asarray(c, dtype=np.int64)
    if c.ndim < 1 or c.shape[-1] != pair.N:
        raise ValueError(f"coords must have shape (..., {pair.N}), got {c.shape}")
    # one pass: a negative coord viewed as uint64 exceeds every q
    wide = c.view(np.uint64)
    if c.size and ((wide >= pair.modulus).any() if isinstance(pair.modulus, np.ndarray)
                   else wide.max() >= pair.modulus):
        raise ValueError(f"coords must be canonical in [0, {pair.q})")
    return c


def codebook_point(pair: NestedLatticePair, c) -> np.ndarray:
    """Transmitted point for canonical coords c: alpha*c mod coarse, read from ``point_table``."""
    return _codebook_point(pair, _check_coords(pair, c))


def _codebook_point(pair: NestedLatticePair, c: np.ndarray) -> np.ndarray:
    """``codebook_point`` of int64 coords already canonical, unchecked: the engine's form."""
    table, offsets = pair.point_table
    return table[c + offsets if isinstance(offsets, np.ndarray) else c]


def lattice_add(pair: NestedLatticePair, a, b) -> np.ndarray:
    """Coords of (point(a) + point(b)) mod coarse."""
    a = _check_coords(pair, a)
    b = _check_coords(pair, b)
    return reduce_mod(a + b, pair.modulus)


def represent_sums(pair: NestedLatticePair, u1, u2) -> tuple[np.ndarray, np.ndarray]:
    """(residues, T) of u1 + u2 over leading batch axes; all inputs in the Voronoi region."""
    u1 = _check_len(pair, u1)
    u2 = _check_len(pair, u2)
    if not in_fundamental_region(pair, u1) or not in_fundamental_region(pair, u2):
        raise ValueError("inputs must lie in the fundamental region")
    s = u1 + u2
    step = pair.coarse_step
    wraps = np.floor(s / step + 0.5).astype(np.int64)  # each in {-1, 0, 1}
    return s - wraps * step, 1 + undigits(wraps != 0, 2)


def reconstruct_sums(pair: NestedLatticePair, sum_mod, T) -> np.ndarray:
    """Invert represent_sums exactly, over leading batch axes."""
    T = np.asarray(T, dtype=np.int64)
    if np.any(T < 1) or np.any(T > 2**pair.N):
        raise ValueError(f"T must be in [1, {2**pair.N}]")
    bits = digits(T - 1, 2, pair.N)
    sum_mod = np.asarray(sum_mod, dtype=float)
    step = pair.coarse_step
    # conditional on the residue, only one unwrapped sum per wrap bit is
    # feasible: negative residues wrapped down, nonnegative ones wrapped up
    shift = np.where(sum_mod < 0, step, -step)
    return sum_mod + bits * shift


def decode_fine_mod_coarse(pair: NestedLatticePair, y) -> np.ndarray:
    """Nearest-fine-point decoding to canonical coords.

    Scales by 1/alpha, rounds each coordinate to the nearest integer (ties
    toward -inf), reduces mod q.
    """
    y = _check_len(pair, y)
    z = y / pair.alpha
    rounded = np.ceil(z - 0.5).astype(np.int64)
    return reduce_mod(rounded, pair.modulus)


def rate_condition_ok(pair: NestedLatticePair, power: float) -> bool:
    """Reliable-decoding rate condition: R0 = log2 q < 0.5*log2(0.5 + P), strict."""
    if power <= 0:
        raise ValueError("power must be positive")
    return math.log2(pair.q) < 0.5 * math.log2(0.5 + power)


@lru_cache(maxsize=64)  # every ProtocolParams checks the power of its two codes
def line_power(q: int, alpha: float) -> float:
    """Mean squared residue of the one-dimensional (q, alpha) codebook's q points."""
    return sum(v * v for v in _line(q, alpha).tolist()) / q


def average_codebook_power(pair: NestedLatticePair) -> float:
    """Mean squared norm per channel use over the full codebook.

    Coordinates are independent and alike, so the q^N-point average reduces
    to one per-coordinate average over q residues, ``line_power``.
    """
    per_coordinate = line_power(pair.q, pair.alpha)
    total = 0.0
    for _ in range(pair.N):  # an N-term sum, not N * x: PT stays bit-identical
        total += per_coordinate
    return float(total / pair.N)


def alpha_for_power(q: int, target_power: float) -> float:
    """Scale making the codebook meet an average power target."""
    if target_power < 0:
        raise ValueError("power target must be nonnegative")
    return math.sqrt(target_power / line_power(q, 1.0))
