"""Brute-force ground-truth calculators for the desk-scale regime.

Every routine here enumerates its probability space exactly (guarded by
fixed size caps, module constants each guard reads when it runs) and
fails loudly rather than truncating: exact
mutual information and guessing probability of an extracted seed against
the relay's noiseless observation, the exhaustive additive-attack census
for the detection code, bijectivity/additivity of the coordinate map,
full-rank and collision censuses for random linear maps, and the
entropy/Pinsker inequalities used by the protocol analysis.

Exact seed leakage does not enumerate the q^(2N) codeword pairs, nor
build their [seed, observation] table.  The lattice acts coordinate-wise:
given the relay's observation at coordinate j (sum digit and wrap bit),
the source digit t1_j is uniform on a cyclic interval of Z_q.  So given
the whole observation the seed g t1 has, up to a translation, a law fixed
by the tuple of interval shapes, one of at most q^N posterior classes.
The class laws are integer counts built coordinate by coordinate (one
gather and one matmul each, exact in float64), and the leakage and the
guessing probability are read off them through exact integer vectors; the
only float step is one fixed-order sum per matrix.  The size guard bounds
what the pass builds, q^(r+N) cells of one extractor's class laws, not
the q^(2N) pairs they cover.  A call takes one extractor or a stack of
them, and each value is bit-identical to a call on its matrix alone.
Those vectors depend only on the extractor's orbit under a change of
basis, a permutation of the columns and a sign flip of a column, so a
stack runs the class pass once per orbit key (``_orbit_keys``) and hands
each matrix its key's value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .amd import AmdParams, _amd_tag, amd_tag, win_bound
from .extract import leftover_bound, renyi_entropy, shannon_entropy
from .fields import (
    all_matrices,
    digits,
    full_rank_fraction,
    row_reduce,
    row_space_levels,
    undigits,
)
from .lattice import (
    NestedLatticePair,
    codebook_point,
    decode_fine_mod_coarse,
    lattice_add,
    mod_coarse,
    reconstruct_sums,
    represent_sums,
)

__all__ = [
    "SizeGuardError",
    "MAX_PAIR_ENUM",
    "MAX_ATTACK_ENUM",
    "LeakageRecord",
    "exact_seed_leakage",
    "guessing_probability",
    "best_extractor_exhaustive",
    "best_sampled_extractor",
    "exact_amd_win_census",
    "AmdCensus",
    "representation_census",
    "isomorphism_census",
    "full_rank_census",
    "pinsker_check",
    "universal_hash_census",
    "leftover_census",
]

# enumeration caps, read by each guard when it runs
MAX_PAIR_ENUM = 10**8  # q^(2N) codeword pairs
MAX_ATTACK_ENUM = 10**8  # (s', dx, dh) cells the attack census enumerates, one s' per class
_MAX_HASH_ENUM = 10**7  # q^(rN) matrices times q^N vectors of a hashing census
_MAX_RANK_ENUM = 10**5  # q^(rows*cols) matrices enumerated per row count of the full-rank census
# vector entries per block of a pair census: 64 KiB per float64 block array, under glibc's
# 128 KiB mmap threshold, so the heap reuses its pages; a larger block maps and faults in
# fresh pages for every temporary of every block
_CENSUS_BLOCK_ELEMS = 2**13
_LEAKAGE_BLOCK_CELLS = 2**16  # class-law cells per block of an exact-leakage stack
_ORBIT_BLOCK_CELLS = 2**16  # (scale, matrix, row, column) cells per block of the orbit keys
_MAX_MATRIX_CELLS = 2**22  # q^(r+N) class-law cells of one extractor, the smallest block
_AMD_BLOCK_CELLS = 2**14  # (s', dh) cells per block of the attack census
_MAX_FIELD_CELLS = 2**20  # q^r x q^r cells of each field table the attack census reads


class SizeGuardError(ValueError):
    """An enumeration would exceed its cap."""


def _guard(base: int, exp: int, cap: int, what: str):
    """Raise SizeGuardError if base^exp > cap, comparing by exponent.

    For base >= 2, base^e > cap at e = cap.bit_length(), so no power beyond
    that is built, and the message states the size as a power.
    """
    if base ** min(exp, cap.bit_length()) > cap:
        size = f"{base}^{exp}" if exp != 1 else f"{base}"
        raise SizeGuardError(f"{what} needs {size} states, cap is {cap}")


@dataclass(frozen=True)
class LeakageRecord:
    matrix: tuple
    exact_mi_bits: float


# ---------------------------------------------------------------------------
# exact seed leakage against the noiseless relay observation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _coordinate_table(q: int, alpha: float) -> np.ndarray:
    """table[c1, 2*sd + w]: count of c2 with sum digit sd and wrap bit w at one coordinate.

    The scaled integer lattice acts coordinate-wise, so the mod-coarse sum
    digit and the wrap bit of coordinate j depend only on the digit pair
    (c1, c2) at j.  The table is built through the real 1-D geometry
    (codebook_point, represent_sums, decode_fine_mod_coarse); a test
    cross-checks the composed joint table against the direct N-D path.
    Column o's support {c1 : table[c1, o] > 0} is the posterior support of
    t1_j given observation o; ``_coordinate_classes`` groups the columns by
    its length.  Stored as float64, read-only.
    """
    sub = NestedLatticePair(N=1, q=q, alpha=alpha)
    points = codebook_point(sub, np.arange(q)[:, None])
    sum_mod, t = represent_sums(sub, points[:, None], points[None, :])
    sum_digit = decode_fine_mod_coarse(sub, sum_mod.reshape(-1, 1))[:, 0]
    wrap = (t - 1).ravel()
    c1 = np.repeat(np.arange(q), q)
    table = np.bincount((c1 * q + sum_digit) * 2 + wrap, minlength=2 * q * q)
    table = table.reshape(q, 2 * q).astype(float)
    table.setflags(write=False)  # shared by every caller through the cache
    return table


@lru_cache(maxsize=64)
def _coordinate_classes(q: int, alpha: float):
    """(members, columns): the posterior shapes of t1_j at one coordinate.

    Each observation column of ``_coordinate_table`` holds 0 or 1 per c1,
    because c1 and the sum digit fix c2; so given the column, t1_j is
    uniform on its c1-support.  Every support is a cyclic interval (which
    is asserted), and intervals of one length are cyclic translates of each
    other; they give translated seed posteriors, with the same entropy and
    the same largest mass, so they form one shape.  ``members[s]`` is the
    0/1 indicator over Z_q (float64, for the class pass's matmul) of the
    interval {0, ..., m - 1}, m the s-th support length in ascending order,
    and ``columns[s]`` counts the columns of that length.  Empty
    columns are dropped.
    """
    table = _coordinate_table(q, alpha)
    if not np.all((table == 0) | (table == 1)):
        raise AssertionError(f"a coordinate table cell exceeds 1 at q={q}: (c1, sd) must fix c2")
    supports = table.T[table.any(axis=0)].astype(bool)
    if np.any(np.count_nonzero(supports & ~np.roll(supports, 1, axis=1), axis=1) > 1):
        raise AssertionError(f"a posterior support at q={q} is not a cyclic interval")
    lengths, counts = np.unique(np.count_nonzero(supports, axis=1), return_counts=True)
    members = (np.arange(q) < lengths[:, None]).astype(float)
    members.setflags(write=False)
    counts.setflags(write=False)
    return members, counts


def _class_pass(pair: NestedLatticePair, g: np.ndarray, fold) -> np.ndarray:
    """fold(laws, weights, sizes) over the posterior classes of a (k, r, N) stack, in blocks.

    A class is a tuple of one shape per coordinate.  Given an observation
    of class c, t1 is uniform on a product of translated shapes, so the
    seed g t1 has, up to a translation, the law laws[x, c] = #{t1 in the
    canonical product : g t1 = x}; ``sizes[c]`` = prod_j |shape_j| is its
    total and ``weights[c]`` = prod_j columns_j the number of observations
    in the class.  Each observation of the class covers sizes[c] of the
    q^(2N) pairs.

    The laws are built by prefix transitions over the coordinates, as
    ``fields.row_space_levels`` builds RREFs: coordinate j shifts the laws of
    every class prefix by c1 g[:, j] for each c1 (one gather) and sums the
    shifts of each shape (one matmul with its membership matrix).  Every
    entry is an integer no larger than q^N, so float64 holds it exactly.
    ``fold`` gets each block of the stack as a (b, q^r, classes) array of
    laws, of at most ``_LEAKAGE_BLOCK_CELLS`` cells (one matrix at least,
    the gather counted), and returns one value per matrix.  The caller
    runs ``_guard_stack`` before any work.
    """
    q, n, r = pair.q, pair.N, g.shape[-2]
    n_seed = q**r
    members, columns = _coordinate_classes(q, pair.alpha)  # alike at every coordinate
    weights = sizes = np.ones(1, dtype=np.int64)
    for _ in range(n):  # the newest coordinate's shape is the major index
        weights = np.multiply.outer(columns, weights).ravel()
        sizes = np.multiply.outer(members.sum(axis=1).astype(np.int64), sizes).ravel()
    # folds sum weights over (class, seed) cells and weights * sizes = pairs, both exactly
    _guard(max(int(weights.sum()) * n_seed, q ** (2 * n)), 1, 2**53, "exact float64 counting")
    per_matrix = n_seed * max(len(weights), q * len(weights) // len(columns))
    block = max(1, _LEAKAGE_BLOCK_CELLS // per_matrix)
    seed_digits = digits(np.arange(n_seed), q, r)[:, None, :]
    c1 = np.arange(q)[:, None]
    out = np.empty(len(g))
    for k0 in range(0, len(g), block):
        gb = g[k0:k0 + block]
        rows = np.arange(len(gb))[:, None, None]
        laws = np.zeros((len(gb), n_seed, 1))
        laws[:, 0, 0] = 1.0  # before any coordinate: one empty class, seed 0
        for j in range(n):
            # source[b, x, c1]: the seed index x - c1 g[b, :, j] before coordinate j
            source = undigits((seed_digits - c1 * gb[:, None, None, :, j]) % q, q)
            shifted = laws[rows, source]  # (b, seed, c1, class prefix)
            laws = (members @ shifted).reshape(len(gb), n_seed, -1)
        out[k0:k0 + len(gb)] = fold(laws, weights, sizes)
    return out


def _entropy_fold(laws, weights, sizes) -> np.ndarray:
    """sum_v (B[v] - A[v]) v log2 v per matrix: q^(2N) H(seed | observation).

    A[v] = sum_c weights[c] #{x : laws[x, c] = v} and
    B[v] = sum_c weights[c] [sizes[c] = v] are exact integer vectors (B does
    not depend on g), so the one float step is this fixed-order sum over v.
    """
    b, width = len(laws), int(sizes.max()) + 1  # laws and sizes take values 0..max size
    cells = laws.astype(np.int64) + (np.arange(b) * width)[:, None, None]
    a = np.bincount(cells.ravel(), weights=np.broadcast_to(weights, laws.shape).ravel(),
                    minlength=b * width)
    diff = np.bincount(sizes, weights=weights, minlength=width) - a.reshape(b, width)
    v = np.arange(width, dtype=float)
    return np.sum(diff * (v * np.log2(np.maximum(v, 1.0))), axis=-1)


def _guess_fold(laws, weights, sizes) -> np.ndarray:
    """sum_c weights[c] max_x laws[x, c] per matrix: q^(2N) P_guess, an exact integer."""
    return laws.max(axis=1).astype(np.int64) @ weights


def _orbit_keys(rref: np.ndarray, q: int) -> np.ndarray:
    """(k, r * N) orbit keys of a (k, r, N) stack of RREFs; equal keys give equal leakage.

    For each scale lam, every column c of lam * rref becomes the smaller of
    c and -c (read top row first) and the columns are sorted; the key is
    the lexicographic minimum of these matrices over lam, flattened.  It is
    a matrix of the input's orbit under a change of basis, a column
    permutation and column sign flips.  A sign flip reflects the cyclic
    interval a coordinate's posterior is uniform on, which translates the
    class law, so every count the folds read is the same on the whole
    orbit.  Equal orbits give equal keys when r = 1; when r > 1 one orbit
    may still get several.  lam and -lam give the same columns, so lam runs
    to q // 2; nothing is packed into an int, so no width overflows.

    The scales go in blocks of (lam, k, r, N) arrays of at most
    ``_ORBIT_BLOCK_CELLS`` cells (one scale at least): one lexsort sorts the
    columns of every scale in the block, and a second takes the minimum
    over the block's scales and the previous blocks' minimum.
    """
    k, r, n = rref.shape
    rref = rref.astype(np.int64)
    scales = np.arange(1, q // 2 + 1)
    per_block = max(1, _ORBIT_BLOCK_CELLS // max(1, k * r * n))
    best = np.empty((0, k, r * n), dtype=np.int64)
    for s0 in range(0, len(scales), per_block):
        m = rref * scales[s0:s0 + per_block, None, None, None] % q  # (lam, k, r, N)
        lead = np.take_along_axis(m, (m != 0).argmax(axis=2)[:, :, None, :], axis=2)
        m = np.where(2 * lead > q, (q - m) % q, m)  # c > -c iff its first nonzero entry > q / 2
        order = np.lexsort(m[:, :, ::-1].transpose(2, 0, 1, 3), axis=-1)  # row 0 the primary key
        keys = np.take_along_axis(m, order[:, :, None, :], axis=3).reshape(len(m), k, r * n)
        keys = np.concatenate([best, keys])
        least = np.lexsort(keys[..., ::-1].transpose(2, 0, 1), axis=0)[0]  # entry 0 primary
        best = keys[least, np.arange(k)][None]
    return best[0]


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, key_id) of ``np.unique(keys, axis=0, return_index=True, return_inverse=True)``.

    One stable lexsort of the rows (column 0 the primary key) and a compare
    of each sorted row with the one before it: ``first[i]`` is the first
    row of the i-th distinct key in sorted order, and ``key_id[j]`` is the
    sorted position of row j's key.
    """
    order = np.lexsort(keys.T[::-1])
    new = np.ones(len(keys), dtype=bool)
    np.any(keys[order[1:]] != keys[order[:-1]], axis=1, out=new[1:])
    key_id = np.empty(len(keys), dtype=np.intp)
    key_id[order] = np.cumsum(new) - 1
    return order[new], key_id


def _guard_stack(q: int, n: int, r: int):
    """The guard of exact leakage over r x N extractors, r > 0, run before any work.

    ``_MAX_MATRIX_CELLS`` bounds the q^(r+N) cells of one extractor's class
    laws (q^r seeds by at most q^N classes), the smallest block
    ``_class_pass`` builds.
    """
    _guard(q, r + n, _MAX_MATRIX_CELLS, "one extractor's class laws")


def _by_orbit_key(q: int, stack: np.ndarray, rref: np.ndarray, rank: np.ndarray,
                  statistic) -> np.ndarray:
    """statistic(stack, ranks) of a guarded (k, r, N) stack, r > 0, given its (rref, rank).

    ``statistic`` sees the first matrix of each distinct orbit key, in
    order of first occurrence; every matrix gets its key's value.
    """
    first, key_id = _group_rows(_orbit_keys(rref, q))
    order = np.argsort(first)  # key ids in order of first occurrence
    values = np.empty(len(first))
    values[order] = statistic(stack[first[order]], rank[first[order]])
    return values[key_id]


def _stacked(pair: NestedLatticePair, g, empty: float, statistic) -> float | np.ndarray:
    """statistic(stack, ranks) of one (r, N) extractor or a stack (..., r, N); ``empty`` if r = 0.

    The guards run first; one ``row_reduce`` then gives the ranks and the
    orbit keys (``_by_orbit_key``).
    """
    q = pair.q
    g = np.array(g, dtype=np.int64) % q
    out = np.full(g.shape[:-2], empty)
    if g.shape[-2] > 0:
        if g.shape[-1] != pair.N:
            raise ValueError(f"extractor must have {pair.N} columns")
        _guard_stack(q, pair.N, g.shape[-2])
        flat = g.reshape(-1, *g.shape[-2:])
        out = _by_orbit_key(q, flat, *row_reduce(flat, q), statistic).reshape(out.shape)
    return float(out) if g.ndim == 2 else out


def _leakage(pair: NestedLatticePair, stack: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """rank(g) log2 q - H(seed | observation) of each matrix of a guarded stack."""
    rank_bits = rank * math.log2(pair.q)
    return rank_bits - _class_pass(pair, stack, _entropy_fold) / pair.q ** (2 * pair.N)


def exact_seed_leakage(pair: NestedLatticePair, g: np.ndarray) -> float | np.ndarray:
    """Exact I(g(t1); observation) in bits under uniform independent t1, t2.

    The observation is (mod-coarse sum, wrap bits), which determines the
    relay's noiseless view.  ``g`` is one (r, N) extractor, which gives a
    float, or a stack (..., r, N), which gives a float64 array of shape
    (...), one value per matrix.  Nothing enumerates the q^(2N) codeword
    pairs: I = rank(g) log2 q - H(seed | observation), with the conditional
    entropy counted by posterior class (``_class_pass``, ``_entropy_fold``,
    bounded by ``_guard_stack``).  Its g-dependent
    part is an exact integer vector, so equal counts give bit-identical
    bits: a stack equals its single calls, and extractors related by a
    change of basis, a column permutation or a column sign flip tie
    exactly, which is why a stack is evaluated once per orbit key.
    An empty extractor leaks 0.0.
    """
    return _stacked(pair, g, 0.0, partial(_leakage, pair))


def guessing_probability(pair: NestedLatticePair, g: np.ndarray) -> float | np.ndarray:
    """Exact P_guess = sum_obs max_x P(x, obs): the relay's best chance of guessing g t1.

    P_guess = 2^-H_inf(seed | observation), the average min-entropy of
    Dodis-Ostrovsky-Reyzin-Smith (Fuzzy Extractors, SIAM J. Comput. 2008).
    Shapes, guards and the stack convention are those of
    ``exact_seed_leakage``; the numerator (``_guess_fold``) is an exact
    integer, divided by q^(2N) once.  An empty extractor gives 1.0, since
    its seed is constant.
    """
    return _stacked(pair, g, 1.0, lambda stack, rank: _class_pass(
        pair, stack, _guess_fold) / pair.q ** (2 * pair.N))


def _least_leaky(pair: NestedLatticePair, stack: np.ndarray, rref: np.ndarray,
                 rank: np.ndarray) -> LeakageRecord:
    """The first least leaky matrix of a guarded full-rank (k, r, N) stack, given its (rref, rank).

    The leakages come once per orbit key (``_by_orbit_key``), and the first
    minimum in stack order wins.  Both extractor searches end here.
    """
    mis = _by_orbit_key(pair.q, stack, rref, rank, partial(_leakage, pair))
    best = int(np.argmin(mis))
    return LeakageRecord(matrix=tuple(map(tuple, stack[best].tolist())),
                         exact_mi_bits=float(mis[best]))


def best_extractor_exhaustive(pair: NestedLatticePair, r: int) -> LeakageRecord:
    """Scan every full-row-rank r x N row space and return the leakage minimizer.

    Only matrices in reduced row-echelon form are evaluated, one per row
    space: an invertible change of basis permutes the seed alphabet
    bijectively, which leaves the mutual information unchanged, so one
    representative per row space is exact.  For r = 1 these are the rows
    whose first nonzero entry is 1.  The matrix-enumeration and class-law
    guards run first; the representatives are then the rank-r RREFs of
    level r of ``fields.row_space_levels``, in lexicographic order.  Each
    is its own RREF, so they go to ``_least_leaky`` unreduced; the first
    minimum wins.  An r = 0 extractor leaks 0.0.
    """
    q, n = pair.q, pair.N
    if r == 0:  # a constant seed
        return LeakageRecord(matrix=(), exact_mi_bits=0.0)
    _guard(q, r * n, MAX_PAIR_ENUM, "extractor-matrix enumeration")
    _guard_stack(q, n, r)
    rrefs, _ = next(itertools.islice(row_space_levels(q, n), r, None))
    reps = rrefs[np.count_nonzero(rrefs.any(axis=-1), axis=-1) == r]  # rank: nonzero rows
    if len(reps) == 0:
        raise RuntimeError("no full-row-rank matrix exists for these dimensions")
    return _least_leaky(pair, reps, reps, np.full(len(reps), r))


def best_sampled_extractor(
    pair: NestedLatticePair, r: int, candidates: int, rng: np.random.Generator
) -> LeakageRecord:
    """The least leaky of ``candidates`` uniform r x N draws that have full row rank.

    The candidates are one ``rng.integers(0, q, size=(candidates, r, N))``
    draw, which reads the same stream as one draw per candidate.  The
    guards of ``exact_seed_leakage`` run next, then one ``row_reduce`` of
    the draw: its ranks pick the full-rank candidates, and its RREFs give
    their orbit keys.  The full-rank stack goes to ``_least_leaky`` in
    draw order.  An r = 0 extractor reads no stream and leaks 0.0.  Raises
    RuntimeError when no candidate has full row rank.
    """
    q, n = pair.q, pair.N
    if r == 0 and candidates > 0:  # a constant seed
        return LeakageRecord(matrix=(), exact_mi_bits=0.0)
    draws = rng.integers(0, q, size=(candidates, r, n), dtype=np.int64)
    _guard_stack(q, n, r)
    rref, rank = row_reduce(draws, q)
    full = rank == r
    if not full.any():
        raise RuntimeError(
            f"no full-row-rank candidate in {candidates} samples (q={q}, r={r}, N={n})"
        )
    return _least_leaky(pair, draws[full], rref[full], rank[full])


# ---------------------------------------------------------------------------
# exhaustive additive-attack census for the detection code
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmdCensus:
    max_success: float
    bound: float
    histogram: dict[int, int]  # accepted-seed count -> number of attack tuples
    attacks: int
    holds: bool


def _forgery_rows(q: int, order: int, d: int) -> np.ndarray:
    """(first, stop, dx, weight) rows: the forged messages of the attack census.

    Row i is the range first..stop-1 of message ints (``digits`` in base
    Q = q^r, s'_d the most significant symbol), run at seed offset dx; each
    message stands for ``weight`` (s', dx) pairs of the census over every
    s' and every dx, for the reasons ``exact_amd_win_census`` gives:
    - s' = 0 at dx = 0, weight 1;
    - at dx = 0, the messages whose highest nonzero symbol is 1, one range
      [Q^k, 2 Q^k) per symbol k, weight Q - 1;
    - at dx = 1, when q does not divide d + 1, the messages with s'_d = 0,
      weight Q (Q - 1); when it does, every message, weight Q - 1.
    """
    top = order ** (d - 1)  # the place of s'_d
    if (d + 1) % q:
        translated = [0, top, 1, order * (order - 1)]
    else:
        translated = [0, order * top, 1, order - 1]
    scaled = [[order**k, 2 * order**k, 0, order - 1] for k in range(d)]
    return np.array([[0, 1, 0, 1], *scaled, translated], dtype=np.int64)


def exact_amd_win_census(params: AmdParams) -> AmdCensus:
    """Exact max acceptance probability over all additive attacks on the message s = 0.

    Covers all (s', dx, dh) with (s'-s, dx, dh) not identically zero —
    q^(r(d+2)) - 1 attacks — counting for each the seeds x that verify.  The
    whole histogram is independent of the reference message s because the
    attacker's free choice of (s'-s, dh) spans every polynomial the
    s-dependent terms can contribute, so the census starts from s = 0; the
    tests confirm that by sweeping s through a reference census.  Q = q^r.

    Only dx = 0 and dx = 1 are enumerated, because every dx != 0 gives the
    same histogram.  A forgery passes at seed x iff P(x) = dh, where
    P(x) = tag(s', x + dx) - x^(d+2).  P's leading term is
    (d+2) dx x^(d+1), nonzero because q does not divide d + 2.  As s' runs
    over GF(Q)^d, P's coefficients of x^1..x^d take every value exactly
    once, since s'_i reaches x^j only for j <= i, and x^i with coefficient 1
    (a unit-triangular map); for each s', dh shifts the x^0 coefficient of
    P - dh through every value.  So the (s', dh) pairs give each polynomial
    of leading term (d+2) dx x^(d+1) once, and dividing by (d+2) dx, which
    keeps the roots, gives each monic polynomial of degree d+1 once,
    whatever dx.  The histogram is H(dx = 0) + (Q - 1) H(dx = 1), minus
    the zero perturbation.

    Neither half enumerates every s', because a polynomial's number of
    roots does not change under g -> lam g (lam != 0) or x -> x + c:
    - dx = 0.  P(x) = sum_i s'_i x^i, and (lam s', lam dh) passes at the
      same seeds as (s', dh).  So s' = 0 runs once, and each message whose
      highest nonzero symbol is 1 stands for its Q - 1 multiples:
      (Q^d - 1)/(Q - 1) messages of weight Q - 1.
    - dx = 1.  x -> x + c maps the polynomials P - dh of leading term
      (d+2) x^(d+1), one per (s', dh), onto themselves and keeps their
      number of roots; it moves the x^d coefficient, s'_d + C(d+2, 2), by
      (d+2)(d+1) c.  When q does not divide d + 1 that is nonzero, so each
      translation orbit holds Q polynomials, one for each value of s'_d:
      the Q^(d-1) messages with s'_d = 0 run with weight Q.
      When q divides d + 1 (every binary field, GF(3^r) at d = 2 mod 3)
      all Q^d messages run with weight 1.
    ``_forgery_rows`` lists these ranges.  ``MAX_ATTACK_ENUM`` bounds the
    Q (1 + (Q^d - 1)/(Q - 1) + Q^(d-1) or Q^d) (s', dx, dh) cells enumerated,
    and a second guard bounds the Q x Q field tables by ``_MAX_FIELD_CELLS``:
    both run before the tables are built.

    All forged messages go through one blocked pass: each is tagged at its
    seeds y = x + dx, one gather reads the dh that each seed x needs, and two
    bincounts give each message's count of dh values per number of passing
    seeds, which its weight adds to the histogram.  Every array but the
    field tables stays within ``_AMD_BLOCK_CELLS`` cells, or the Q + 1 cells
    of one forged message when that is more.
    """
    f = params.field
    d = params.d
    order = f.order
    # the message ints run to Q^d < cells: a floor of the count below, which keeps it small
    _guard(order, d, MAX_ATTACK_ENUM, "the attack census's message range")
    rows = _forgery_rows(f.q, order, d)
    ends = np.cumsum(rows[:, 1] - rows[:, 0])  # the census's message list, range by range
    messages = int(ends[-1])
    cells = order * messages
    if cells > MAX_ATTACK_ENUM:
        raise SizeGuardError(f"attack census needs {cells} states, cap is {MAX_ATTACK_ENUM}")
    _guard(order, 2, _MAX_FIELD_CELLS, "the attack census's field tables")
    tables = f.tables()
    sub = tables["sub"].ravel()
    base_tag = amd_tag(params, np.zeros(d, dtype=np.int64), np.arange(order))
    ys = tables["add"][[0, 1]]  # ys[dx, x]: the forged seed x + dx
    skip = rows[:, 1] - ends  # list position + skip = message int, range by range
    block = max(1, _AMD_BLOCK_CELLS // (order + 1))  # forged messages per block
    hist = np.zeros(order + 1, dtype=np.int64)  # attacks per count of passing seeds
    for k0 in range(0, messages, block):
        k = np.arange(k0, min(k0 + block, messages))
        of = np.searchsorted(ends, k, side="right")  # each message's range
        sp = digits(k + skip[of], order, d)  # (b, d) forged s'
        tags = _amd_tag(params, sp[:, None, :], ys[rows[of, 2]])  # tags[b, x]: at seed x + dx
        tags *= order
        tags += base_tag
        at = np.arange(len(k))[:, None]
        cell = sub[tags]  # cell[b, x]: the dh seed x needs, in its message's row of cells
        cell += at * order
        counts = np.bincount(cell.ravel(), minlength=cell.size).reshape(len(k), order)
        counts += at * (order + 1)  # passing seeds per (s', dh), each s' its own row
        per_count = np.bincount(counts.ravel(), minlength=len(k) * (order + 1))
        hist += rows[of, 3] @ per_count.reshape(len(k), order + 1)
    hist[order] -= 1  # no perturbation at all, which every seed passes
    histogram = {hits: int(n) for hits, n in enumerate(hist) if n}
    attacks = int(hist.sum())
    max_hits = int(np.flatnonzero(hist).max())
    return AmdCensus(
        max_success=max_hits / order,
        bound=win_bound(params),
        histogram=histogram,
        attacks=attacks,
        holds=max_hits <= d + 1,
    )


# ---------------------------------------------------------------------------
# lattice censuses
# ---------------------------------------------------------------------------


def _first_bad_pair(size: int, n: int, block_bad) -> tuple[int, int] | None:
    """First (i, j) in row-major order of a size x size pair grid that fails.

    ``block_bad(i0, i1)`` returns the (i1 - i0, size) failure mask of rows
    i0..i1-1; the rows come in blocks of at most ``_CENSUS_BLOCK_ELEMS``
    vector entries (n per pair), so memory stays bounded whatever the cap
    admits.
    """
    rows = max(1, _CENSUS_BLOCK_ELEMS // (size * n))
    for i0 in range(0, size, rows):
        bad = block_bad(i0, min(i0 + rows, size)).ravel()
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), size)
            return i0 + i, j
    return None


def representation_census(pair: NestedLatticePair):
    """Round-trip and wrap-range check over every codebook pair.

    The size^2 pairs go through the batched ``represent_sums`` and
    ``reconstruct_sums`` in row blocks (``_first_bad_pair``).  Returns
    (passed, counterexample); the counterexample is the first failing
    (index1, index2) in row-major order, or None.
    """
    _guard(pair.q, 2 * pair.N, MAX_PAIR_ENUM, "representation census")
    size = pair.q**pair.N
    points = codebook_point(pair, digits(np.arange(size), pair.q, pair.N))

    def block_bad(i0, i1):
        u1, u2 = points[i0:i1, None, :], points[None, :, :]
        sum_mod, t = represent_sums(pair, u1, u2)
        in_range = (t >= 1) & (t <= 2**pair.N)
        back = reconstruct_sums(pair, sum_mod, np.where(in_range, t, 1))
        return ~in_range | np.any(back != u1 + u2, axis=-1)

    first = _first_bad_pair(size, pair.N, block_bad)
    return first is None, first


def isomorphism_census(pair: NestedLatticePair):
    """Bijectivity plus additivity of the coordinate map, geometrically.

    Every codebook point must decode back to its own coords, so the map
    from coords to points is one-to-one.  Addition is exercised through
    the real vectors: point(a) + point(b), reduced mod the coarse lattice
    and re-decoded, must land on the coordinate-wise mod-q sum.  The size^2
    pairs go through the batched lattice functions in row blocks
    (``_first_bad_pair``); the counterexample is the first failing (a, b)
    in row-major order over (index(a), index(b)).
    """
    _guard(pair.q, 2 * pair.N, MAX_PAIR_ENUM, "isomorphism census")
    size = pair.q**pair.N
    coords = digits(np.arange(size), pair.q, pair.N)
    points = codebook_point(pair, coords)
    if not np.array_equal(decode_fine_mod_coarse(pair, points), coords):
        return False, "coordinate map is not a bijection"

    def block_bad(i0, i1):
        geometric = mod_coarse(pair, points[i0:i1, None, :] + points[None, :, :])
        want = lattice_add(pair, coords[i0:i1, None, :], coords[None, :, :])
        return np.any(decode_fine_mod_coarse(pair, geometric) != want, axis=-1)

    first = _first_bad_pair(size, pair.N, block_bad)
    if first is None:
        return True, None
    i, j = first
    return False, (tuple(coords[i]), tuple(coords[j]))


def full_rank_census(q: int, cols: int) -> list[tuple[int, int, int, bool]]:
    """Exact full-row-rank fractions of rows x cols matrices, for rows = 1..cols.

    Returns one (rows, count, total, bound_holds) per row count, where
    bound_holds checks count/total against 1 - q^(rows - cols).  The counts
    are the product formula; while q^(rows*cols) <= ``_MAX_RANK_ENUM`` every
    matrix is also enumerated, and the enumeration must agree.  Ranks come
    from one ``fields.row_space_levels`` pass per call, by
    RREF([M'; v]) = RREF([RREF(M'); v]): each level's step carries the
    count of matrices per RREF of k - 1 rows to the RREFs of k rows, exactly
    in float64 under the cap, and the pass stops at the first row count
    over the cap.
    """
    levels = row_space_levels(q, cols)
    next(levels)  # level 0, the empty matrix
    per_rref = np.ones(1)  # matrices per RREF of the level
    census = []
    for rows in range(1, cols + 1):
        count, total = full_rank_fraction(q, rows, cols)
        if q ** (rows * cols) <= _MAX_RANK_ENUM:
            rrefs, step = next(levels)
            per_rref = np.bincount(step.ravel(), weights=np.repeat(per_rref, step.shape[1]),
                                   minlength=len(rrefs))
            rank = np.count_nonzero(rrefs.any(axis=-1), axis=-1)  # nonzero rows
            seen = int(per_rref[rank == rows].sum())
            if seen != count:
                raise AssertionError(
                    f"enumeration ({seen}) disagrees with product count ({count})"
                )
        holds = count * q ** (cols - rows) >= (q ** (cols - rows) - 1) * total
        census.append((rows, count, total, holds))
    return census


# ---------------------------------------------------------------------------
# hashing and entropy censuses
# ---------------------------------------------------------------------------


def universal_hash_census(q: int, N: int, r: int):
    """Max collision probability of the linear-map family, exactly.

    For every ordered pair x1 != x2, counts matrices G with G x1 = G x2;
    asserts the fraction never exceeds q^-r.  G x1 = G x2 exactly when
    G (x1 - x2) = 0, so the largest count is the largest kernel count
    #{G : G x = 0} over the nonzero x.
    """
    _guard(q, (r + 1) * N, _MAX_HASH_ENUM, "universal hash census")
    n_mat = q ** (r * N)
    n_vec = q**N
    vecs = digits(np.arange(1, n_vec), q, N)  # the nonzero differences x
    images = vecs @ all_matrices(q, r, N).transpose(0, 2, 1)
    images %= q  # in place: this int64 stack of products is the census's largest array
    max_coll = int(np.count_nonzero(~images.any(axis=-1), axis=0).max(initial=0))  # N = 0: no pair
    # integer form of max_coll / n_mat <= q^-r
    holds = max_coll * (q**r) <= n_mat
    return max_coll / n_mat, holds


def pinsker_check(joints) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Both sides of I(A;B) >= D^2 / (2 ln 2), D the L1 distance to the product.

    ``joints`` is one (a, b) law or a stack (..., a, b) of laws, float
    arrays each of nonnegative entries summing to 1.  A stack gives two
    arrays of shape (...), each entry equal to a call on its law alone.
    I(A;B) is the sum over cells of v/total (log2(v total) - log2(pa pb)),
    the terms formed elementwise and summed by one ``np.sum`` along the last
    axis, so a law and its place in a stack give the same pairwise sum.
    """
    probs = np.asarray(joints, dtype=float)
    if probs.ndim < 2:
        raise ValueError("joint distribution must be a 2-D array or a stack of them")
    cells = probs.reshape(*probs.shape[:-2], -1)
    total = cells.sum(axis=-1, keepdims=True)
    if not (np.all(cells >= 0) and np.all(np.abs(total - 1.0) <= 1e-12)):  # NaN fails too
        raise ValueError("entries must be a probability distribution")
    pa, pb = probs.sum(axis=-1), probs.sum(axis=-2)
    papb = (pa[..., :, None] * pb[..., None, :]).reshape(cells.shape)
    dist = np.abs(cells - papb).sum(axis=-1)
    rhs = dist * dist / (2.0 * math.log(2))
    nz = cells > 0
    # a zero cell enters as v = total, pa pb = total^2: a term of exactly 0
    vals = np.where(nz, cells, total)
    papb = np.where(nz, papb, total * total)
    lhs = np.sum(vals / total * (np.log2(vals * total) - np.log2(papb)), axis=-1)
    return (float(lhs), float(rhs)) if probs.ndim == 2 else (lhs, rhs)


def leftover_census(q: int, N: int, r: int, probs):
    """Matrix-averaged output entropy versus the leftover-hash floor.

    ``probs`` is the conditional source law, a probability vector over the
    q^N indices of GF(q)^N.  Averages the Shannon entropy of G(A) over
    every matrix G and compares with leftover_bound(r log2 q, H2(probs)).
    Returns (average, bound, holds); a nonpositive bound is vacuous and
    reported as holding.
    """
    _guard(q, (r + 1) * N, _MAX_HASH_ENUM, "leftover-hash census")
    n_mat = q ** (r * N)
    n_vec = q**N
    probs = np.asarray(probs, dtype=float)
    c = renyi_entropy(probs)  # validates the law
    if probs.shape != (n_vec,):
        raise ValueError(f"source law must have {n_vec} entries, got shape {probs.shape}")
    vecs = digits(np.arange(n_vec), q, N)
    total = 0.0
    for m in all_matrices(q, r, N):  # one matrix at a time keeps the float sum's order
        pushed = np.bincount(undigits((vecs @ m.T) % q, q), weights=probs, minlength=q**r)
        total += shannon_entropy(pushed)
    average = total / n_mat
    bound = leftover_bound(r * math.log2(q), c)
    holds = bound <= 0 or average > bound or math.isclose(average, bound, rel_tol=1e-12)
    return average, bound, holds
