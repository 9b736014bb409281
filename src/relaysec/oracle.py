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
only float step is one fixed-order sum per matrix.  The size guard still
bounds q^(2N), the number of pairs the law covers.  A call takes one
extractor or a stack of them, and each value is bit-identical to a call
on its matrix alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .amd import AmdParams, amd_tag, win_bound
from .extract import leftover_bound, renyi_entropy, shannon_entropy
from .fields import all_matrices, digits, full_rank_fraction, matrix_row_rank, row_spaces, undigits
from .lattice import (
    NestedLatticePair,
    codebook_point,
    decode_fine_mod_coarse,
    index_to_coords,
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
MAX_ATTACK_ENUM = 10**8  # q^(r(d+2)) attack tuples
_MAX_HASH_ENUM = 10**7  # q^(rN) matrices times q^N vectors of a hashing census
_MAX_RANK_ENUM = 10**5  # q^(rows*cols) matrices enumerated by the full-rank census
_CENSUS_BLOCK_ELEMS = 2**18  # vector entries per block of a pair census
_LEAKAGE_BLOCK_CELLS = 2**16  # class-law cells per block of an exact-leakage stack
_AMD_BLOCK_CELLS = 2**14  # (s', dx, dh) cells per block of the attack census


class SizeGuardError(ValueError):
    """An enumeration would exceed its cap."""


def _guard(size: int, cap: int, what: str):
    if size > cap:
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
    it.  Stored as float64, read-only.
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
    uniform on its c1-support.  Columns whose supports are cyclic
    translates of each other give translated seed posteriors, with the
    same entropy and the same largest mass, so they form one shape:
    ``members[s]`` is shape s's 0/1 indicator over Z_q (float64, for the
    class pass's matmul) and ``columns[s]`` (int64) counts its columns.
    Empty columns are dropped.  Every support is a cyclic interval, so
    there are q shapes, one per length.
    """
    table = _coordinate_table(q, alpha)
    if not np.all((table == 0) | (table == 1)):
        raise AssertionError(f"a coordinate table cell exceeds 1 at q={q}: (c1, sd) must fix c2")
    columns = {}
    for support in table.T.astype(bool):
        if support.any():  # the canonical translate: the largest rotation, as bytes
            key = max(np.roll(support, -s).tobytes() for s in range(q))
            columns[key] = columns.get(key, 0) + 1
    members = np.array([np.frombuffer(key, dtype=bool) for key in columns], dtype=float)
    counts = np.array(list(columns.values()), dtype=np.int64)
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
    ``fields.row_spaces`` builds RREFs: coordinate j shifts the laws of
    every class prefix by c1 g[:, j] for each c1 (one gather) and sums the
    shifts of each shape (one matmul with its membership matrix).  Every
    entry is an integer no larger than q^N, so float64 holds it exactly.
    ``fold`` gets each block of the stack as a (b, q^r, classes) array of
    laws, of at most ``_LEAKAGE_BLOCK_CELLS`` cells (one matrix at least,
    the gather counted), and returns one value per matrix.  The pair guard
    runs before any table is built.
    """
    q, n, r = pair.q, pair.N, g.shape[-2]
    n_seed = q**r
    _guard(q ** (2 * n), MAX_PAIR_ENUM, "codeword-pair enumeration")
    members, columns = _coordinate_classes(q, pair.alpha)  # alike at every coordinate
    weights = sizes = np.ones(1, dtype=np.int64)
    for _ in range(n):  # the newest coordinate's shape is the major index
        weights = np.multiply.outer(columns, weights).ravel()
        sizes = np.multiply.outer(members.sum(axis=1).astype(np.int64), sizes).ravel()
    # folds sum weights over (class, seed) cells and weights * sizes = pairs, both exactly
    _guard(max(int(weights.sum()) * n_seed, q ** (2 * n)), 2**53, "exact float64 counting")
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


def _stacked(pair: NestedLatticePair, g, empty: float, statistic) -> float | np.ndarray:
    """statistic(stack) for one (r, N) extractor or a stack (..., r, N); ``empty`` when r = 0."""
    g = np.array(g, dtype=np.int64) % pair.q
    out = np.full(g.shape[:-2], empty)
    if g.shape[-2] > 0:
        if g.shape[-1] != pair.N:
            raise ValueError(f"extractor must have {pair.N} columns")
        out = statistic(g.reshape(-1, *g.shape[-2:])).reshape(out.shape)
    return float(out) if g.ndim == 2 else out


def exact_seed_leakage(pair: NestedLatticePair, g: np.ndarray) -> float | np.ndarray:
    """Exact I(g(t1); observation) in bits under uniform independent t1, t2.

    The observation is (mod-coarse sum, wrap bits), which determines the
    relay's noiseless view.  ``g`` is one (r, N) extractor, which gives a
    float, or a stack (..., r, N), which gives a float64 array of shape
    (...), one value per matrix.  ``MAX_PAIR_ENUM`` bounds the q^(2N)
    codeword pairs the law covers, but nothing enumerates them: I = rank(g) log2 q -
    H(seed | observation), with the conditional entropy counted by
    posterior class (``_class_pass``, ``_entropy_fold``).  Its g-dependent
    part is an exact integer vector, so equal counts give bit-identical
    bits: a stack equals its single calls, and extractors related by a
    change of basis or a permutation of identical coordinates tie exactly.
    An empty extractor leaks 0.0.
    """
    def leakage(stack):
        rank_bits = matrix_row_rank(stack, pair.q) * math.log2(pair.q)
        return rank_bits - _class_pass(pair, stack, _entropy_fold) / pair.q ** (2 * pair.N)

    return _stacked(pair, g, 0.0, leakage)


def guessing_probability(pair: NestedLatticePair, g: np.ndarray) -> float | np.ndarray:
    """Exact P_guess = sum_obs max_x P(x, obs): the relay's best chance of guessing g t1.

    P_guess = 2^-H_inf(seed | observation), the average min-entropy of
    Dodis-Ostrovsky-Reyzin-Smith (Fuzzy Extractors, SIAM J. Comput. 2008).
    Shapes, guards and the stack convention are those of
    ``exact_seed_leakage``; the numerator (``_guess_fold``) is an exact
    integer, divided by q^(2N) once.  An empty extractor gives 1.0, since
    its seed is constant.
    """
    return _stacked(pair, g, 1.0, lambda stack: _class_pass(
        pair, stack, _guess_fold) / pair.q ** (2 * pair.N))


def _least_leaky(pair: NestedLatticePair, stack: np.ndarray) -> LeakageRecord:
    """The first leakage minimizer of a (k, r, N) stack, from one stacked leakage call."""
    mis = exact_seed_leakage(pair, stack)
    best = int(np.argmin(mis))
    return LeakageRecord(matrix=tuple(map(tuple, stack[best].tolist())),
                         exact_mi_bits=float(mis[best]))


def best_extractor_exhaustive(pair: NestedLatticePair, r: int) -> LeakageRecord:
    """Scan every full-row-rank r x N row space and return the leakage minimizer.

    Only matrices in reduced row-echelon form are evaluated, one per row
    space: an invertible change of basis permutes the seed alphabet
    bijectively, which leaves the mutual information unchanged, so one
    representative per row space is exact.  For r = 1 these are the rows
    whose first nonzero entry is 1.  They are the rank-r RREFs of ``fields.row_spaces``
    (RREF([M'; v]) = RREF([RREF(M'); v])), in lexicographic order, and go to
    ``exact_seed_leakage`` as one stack; the first minimum wins.
    """
    q, n = pair.q, pair.N
    _guard(q ** (r * n), MAX_PAIR_ENUM, "extractor-matrix enumeration")
    rrefs, _ = row_spaces(q, r, n)
    reps = rrefs[np.count_nonzero(rrefs.any(axis=-1), axis=-1) == r]  # rank: nonzero rows
    if len(reps) == 0:
        raise RuntimeError("no full-row-rank matrix exists for these dimensions")
    return _least_leaky(pair, reps)


def best_sampled_extractor(
    pair: NestedLatticePair, r: int, candidates: int, rng: np.random.Generator
) -> LeakageRecord:
    """The least leaky of ``candidates`` uniform r x N draws that have full row rank.

    The candidates are one ``rng.integers(0, q, size=(candidates, r, N))``
    draw, which reads the same stream as one draw per candidate; the
    full-rank ones go to ``exact_seed_leakage`` as one stack in draw order,
    and the first minimum wins.  An r = 0 draw reads no stream and leaks
    0.0.  Raises RuntimeError when no candidate has full row rank.
    """
    q, n = pair.q, pair.N
    draws = rng.integers(0, q, size=(candidates, r, n), dtype=np.int64)
    full = draws[matrix_row_rank(draws, q) == r]
    if len(full) == 0:
        raise RuntimeError(
            f"no full-row-rank candidate in {candidates} samples (q={q}, r={r}, N={n})"
        )
    return _least_leaky(pair, full)


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


def exact_amd_win_census(params: AmdParams, s=None) -> AmdCensus:
    """Exact max acceptance probability over all additive attacks on s.

    Enumerates all (s', dx, dh) with (s'-s, dx, dh) not identically zero
    — q^(r(d+2)) tuples — counting for each the seeds x that verify.  The
    maximum is independent of the reference message s because the
    attacker's free choice of (s'-s, dh) spans every polynomial the
    s-dependent terms can contribute; the small-field tests confirm that
    by sweeping s.  ``s`` is d symbol ints, all zero by default.
    """
    f = params.field
    d = params.d
    order = f.order
    _guard(order ** (d + 2), MAX_ATTACK_ENUM, "attack enumeration")
    s_int = np.zeros(d, dtype=np.int64) if s is None else np.asarray(s, dtype=np.int64)
    tables = f.tables()
    add, sub = tables["add"], tables["sub"]
    xs = np.arange(order)
    shifted = add[:, xs]  # shifted[dx, x] = x + dx
    block = max(1, _AMD_BLOCK_CELLS // (order * order))  # forged messages s' per block
    cells = (np.arange(block)[:, None] * order + xs)[:, :, None] * order  # flattens (s', dx, dh)
    base_tag = amd_tag(params, s_int, xs)
    hist = np.zeros(order + 1, dtype=np.int64)
    max_hits = 0
    for k0 in range(0, order**d, block):
        sp = digits(np.arange(k0, min(k0 + block, order**d)), order, d)  # (b, d) forged s'
        # counts[b, dx * order + dh]: seeds x passing (sp[b], dx, dh); x lands on the dh it needs
        cell = sub[amd_tag(params, sp[:, None, None, :], shifted), base_tag] + cells[: len(sp)]
        counts = np.bincount(cell.ravel(), minlength=cell.size).reshape(len(sp), order * order)
        counts[np.all(sp == s_int, axis=1), 0] = -1  # no perturbation at all
        hist += np.bincount(counts.ravel() + 1, minlength=order + 2)[1:]
        max_hits = max(max_hits, int(counts.max()))
    histogram = {hits: int(n) for hits, n in enumerate(hist) if n}
    attacks = int(hist.sum())
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
    size = pair.q**pair.N
    _guard(size * size, MAX_PAIR_ENUM, "representation census")
    points = codebook_point(pair, index_to_coords(pair, np.arange(size)))

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
    size = pair.q**pair.N
    _guard(size * size, MAX_PAIR_ENUM, "isomorphism census")
    coords = index_to_coords(pair, np.arange(size))
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


def full_rank_census(q: int, rows: int, cols: int):
    """Exact full-row-rank fraction, enumerated when small, counted exactly.

    Returns (count, total, bound_holds) where bound_holds checks the
    fraction against 1 - q^(rows - cols).  Direct enumeration runs when
    q^(rows*cols) <= ``_MAX_RANK_ENUM`` and must agree with the product formula.  Ranks
    come from ``fields.row_spaces``, by RREF([M'; v]) = RREF([RREF(M'); v]).
    """
    count, total = full_rank_fraction(q, rows, cols)
    if q ** (rows * cols) <= _MAX_RANK_ENUM:
        rrefs, index = row_spaces(q, rows, cols)
        seen = np.count_nonzero(np.count_nonzero(rrefs.any(axis=-1), axis=-1)[index] == rows)
        if seen != count:
            raise AssertionError(
                f"enumeration ({seen}) disagrees with product count ({count})"
            )
    bound_holds = count * q ** (cols - rows) >= (q ** (cols - rows) - 1) * total \
        if cols >= rows else count == 0
    return count, total, bound_holds


# ---------------------------------------------------------------------------
# hashing and entropy censuses
# ---------------------------------------------------------------------------


def universal_hash_census(q: int, N: int, r: int):
    """Max collision probability of the linear-map family, exactly.

    For every ordered pair x1 != x2, counts matrices G with G x1 = G x2;
    asserts the fraction never exceeds q^-r.  Exact in integers.
    """
    n_mat = q ** (r * N)
    n_vec = q**N
    _guard(n_mat * n_vec, _MAX_HASH_ENUM, "universal hash census")
    vecs = digits(np.arange(n_vec), q, N)
    # images[G, x]: index of G x
    images = undigits((vecs @ all_matrices(q, r, N).transpose(0, 2, 1)) % q, q)
    onehot = images[:, :, None] == np.arange(q**r)
    collisions = np.einsum("gax,gbx->ab", onehot, onehot, dtype=np.int64)
    np.fill_diagonal(collisions, 0)
    max_coll = int(collisions.max())
    # integer form of max_coll / n_mat <= q^-r
    holds = max_coll * (q**r) <= n_mat
    return max_coll / n_mat, holds


def pinsker_check(joints) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Both sides of I(A;B) >= D^2 / (2 ln 2), D the L1 distance to the product.

    ``joints`` is one (a, b) law or a stack (..., a, b) of laws, float
    arrays each of nonnegative entries summing to 1.  A stack gives two
    arrays of shape (...), each entry equal to a call on its law alone.
    I(A;B) is the sum over cells of v/total (log2(v total) - log2(pa pb)),
    the terms formed in place and summed by one ``np.sum`` along the last
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
    work = np.multiply(vals, total)
    np.log2(work, out=work)
    np.log2(papb, out=papb)
    np.subtract(work, papb, out=work)
    np.divide(vals, total, out=papb)
    np.multiply(papb, work, out=work)
    lhs = np.sum(work, axis=-1)
    return (float(lhs), float(rhs)) if probs.ndim == 2 else (lhs, rhs)


def leftover_census(q: int, N: int, r: int, probs):
    """Matrix-averaged output entropy versus the leftover-hash floor.

    ``probs`` is the conditional source law, a probability vector over the
    q^N indices of GF(q)^N.  Averages the Shannon entropy of G(A) over
    every matrix G and compares with leftover_bound(r log2 q, H2(probs)).
    Returns (average, bound, holds); a nonpositive bound is vacuous and
    reported as holding.
    """
    n_mat = q ** (r * N)
    n_vec = q**N
    _guard(n_mat * n_vec, _MAX_HASH_ENUM, "leftover-hash census")
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
