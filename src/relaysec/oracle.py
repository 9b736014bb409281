"""Brute-force ground-truth calculators for the desk-scale regime.

Every routine here enumerates its probability space exactly (guarded by
explicit size caps) and fails loudly rather than truncating: exact
mutual information of an extracted seed against the relay's noiseless
observation, the exhaustive additive-attack census for the detection
code, bijectivity/additivity of the coordinate map, full-rank and
collision censuses for random linear maps, and the entropy/Pinsker
inequalities used by the protocol analysis.

Exact seed leakage does not enumerate the q^(2N) codeword pairs one by
one.  The lattice acts coordinate-wise and the seed is linear in t1, so
the joint table [seed, observation] is composed from one small table per
coordinate: a cyclic convolution over Z_q^r along the seed axis and an
outer product along the observation axis.  The size guard still bounds
q^(2N), the number of pairs the table covers.  A call takes one extractor
or a stack of them; a stack runs the guards once and fills one workspace
of buffers in place for each matrix.

Mutual information is computed from exact counts (converted to bits at
the very end) so that equality-sensitive checks do not accumulate float
error.  One term kernel (``_mi_from_cells``) serves every caller, so a
table gives bit-identical bits whether it arrives alone, in a stack, or
through ``mutual_information_bits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .amd import AmdParams, amd_tag
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
    "mutual_information_bits",
]

# default enumeration caps; callers may widen them explicitly
MAX_PAIR_ENUM = 10**8  # q^(2N) codeword pairs
MAX_ATTACK_ENUM = 10**8  # q^(r(d+2)) attack tuples
_CENSUS_BLOCK_ELEMS = 2**18  # vector entries per block of a pair census
_AMD_BLOCK_CELLS = 2**14  # (s', dx, dh) cells per block of the attack census


class SizeGuardError(ValueError):
    """An enumeration would exceed its configured cap."""


def _guard(size: int, cap: int, what: str):
    if size > cap:
        raise SizeGuardError(f"{what} needs {size} states, cap is {cap}")


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def mutual_information_bits(joint: np.ndarray) -> float:
    """I(A;B) in bits from a joint array (rows A, columns B)."""
    joint = np.asarray(joint, dtype=float)
    nz = joint > 0
    papb = np.multiply.outer(joint.sum(axis=1), joint.sum(axis=0))[nz]
    return float(_mi_from_cells(joint[nz], joint.sum(), papb))


def _mi_from_cells(vals: np.ndarray, total, papb: np.ndarray, work=None) -> float | np.ndarray:
    """The one MI term kernel: sum of v/total (log2(v total) - log2(pa pb)) over cells.

    ``vals`` holds the nonzero cells in row-major order and ``papb`` the
    products of their row and column marginals.  The terms are formed in
    place (``papb`` is overwritten; ``work``, if given, is a buffer of the
    same shape) and summed by one ``np.sum`` along the last axis, so every
    caller gets the same terms in the same pairwise-summation tree.
    """
    work = np.multiply(vals, total, out=work)
    np.log2(work, out=work)
    np.log2(papb, out=papb)
    np.subtract(work, papb, out=work)
    np.divide(vals, total, out=papb)
    np.multiply(papb, work, out=work)
    return np.sum(work, axis=-1)


@dataclass(frozen=True)
class LeakageRecord:
    matrix: tuple
    exact_mi_bits: float
    q: int
    N: int
    r: int


# ---------------------------------------------------------------------------
# exact seed leakage against the noiseless relay observation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)  # keyed by scalars: undithered coordinates share one entry
def _coordinate_table(q: int, alpha: float, d1: float, d2: float) -> np.ndarray:
    """table[c1, 2*sd + w]: count of c2 with sum digit sd and wrap bit w at one coordinate.

    The scaled integer lattice acts coordinate-wise, so the mod-coarse sum
    digit and the wrap bit of coordinate j depend only on the digit pair
    (c1, c2) at j.  The table is built through the real 1-D geometry
    (codebook_point, represent_sums, decode_fine_mod_coarse); a test
    cross-checks the composed joint table against the direct N-D path.
    The counts are stored as float64, read-only, for the matmuls of
    ``_LeakageWorkspace.fill``; a workspace looks its N tables up once.
    """
    sub = NestedLatticePair(N=1, q=q, alpha=alpha, d1=(d1,), d2=(d2,))
    coords = np.arange(q)[:, None]
    sum_mod, t = represent_sums(
        sub, codebook_point(sub, coords, 1)[:, None], codebook_point(sub, coords, 2)[None, :])
    sum_digit = decode_fine_mod_coarse(
        sub, sum_mod.reshape(-1, 1), sub.dither(1) + sub.dither(2))[:, 0]
    wrap = (t - 1).ravel()
    c1 = np.repeat(np.arange(q), q)
    table = np.bincount((c1 * q + sum_digit) * 2 + wrap, minlength=2 * q * q)
    table = table.reshape(q, 2 * q).astype(float)
    table.setflags(write=False)  # shared by every caller through the cache
    return table


class _LeakageWorkspace:
    """Every buffer one exact-leakage call needs, reused for each matrix of a stack.

    The [seed index, observation id] joint table under uniform t1, t2 is
    built without enumerating pairs.  The observation id is
    (sum_j sd_j q^j) 2^N + sum_j w_j 2^j, for the mod-coarse sum digit sd_j
    and wrap bit w_j of coordinate j.  The seed g t1 = sum_j t1_j g[:, j] is
    a sum of per-coordinate terms and the observation is a tuple of
    per-coordinate parts, so the table is the convolution over Z_q^r of the
    per-coordinate tables along the seed axis and their outer product along
    the observation axis.  Coordinate j takes one gather and one matmul:
    the table so far, shifted by c1 g[:, j] for each c1, times the (q, 2q)
    coordinate table.  The counts are summed in float64, which is exact
    because every partial sum is an integer no larger than the q^(2N)
    total, guarded below 2^53; so the table needs no int64 round trip.

    The guards run once, at construction.  ``fill`` writes one matrix's
    table in place (``np.take``, ``np.matmul``, ``np.copyto`` with ``out``)
    and ``mutual_information`` feeds its nonzero cells to the MI kernel
    shared with ``mutual_information_bits``, so a stack pays for its
    buffers once and gets bit-identical values.
    """

    def __init__(self, pair: NestedLatticePair, r: int, cap: int):
        q, n = pair.q, pair.N
        _guard(q ** (2 * n), cap, "codeword-pair enumeration")
        _guard(q ** (2 * n), 2**53, "exact float64 counting")
        self.q, self.n_seed = q, q**r
        self.tables = [
            _coordinate_table(q, pair.alpha, pair.d1[j], pair.d2[j]) for j in range(n)
        ]
        self.seed_digits = digits(np.arange(self.n_seed), q, r)
        cells = self.n_seed * (2 * q) ** n
        self.gather = np.empty(cells // 2)  # (q, n_seed, (2q)^j) before the last matmul
        self.joint = np.empty(cells)  # the table so far; later the marginal outer product
        self.table = np.empty((self.n_seed, (2 * q) ** n))  # observation-id layout
        self.mask = np.empty(cells, dtype=bool)
        self.vals = np.empty(cells)
        self.papb = np.empty(cells)
        # axes (seed, sd_0, w_0, ..., sd_{N-1}, w_{N-1}) -> the observation id's digit order
        self.split = (self.n_seed,) + (q, 2) * n
        self.order = [0, *range(2 * n - 1, 0, -2), *range(2 * n, 0, -2)]
        self.obs_shape = (self.n_seed,) + (q,) * n + (2,) * n

    def fill(self, g: np.ndarray) -> np.ndarray:
        """The joint table of extractor g (r, N), written into ``self.table``."""
        q, n_seed = self.q, self.n_seed
        c1 = np.arange(q)[:, None, None]
        # source[j, c1, s] = s - c1 g[:, j], the seed index before coordinate j
        source = undigits((self.seed_digits - c1 * g.T[:, None, None, :]) % q, q)
        width = 1
        joint = self.joint[:n_seed].reshape(n_seed, 1)
        joint.fill(0.0)
        joint[0, 0] = 1.0  # before any coordinate: seed 0, empty observation
        for src, table in zip(source, self.tables):
            shifted = self.gather[: q * n_seed * width].reshape(q, n_seed, width)
            # the indices are in range; mode "clip" writes to out without buffering
            np.take(joint, src, axis=0, out=shifted, mode="clip")
            width *= 2 * q
            joint = self.joint[: n_seed * width].reshape(n_seed, width)
            np.matmul(shifted.reshape(q, -1).T, table, out=joint.reshape(-1, 2 * q))
        np.copyto(
            self.table.reshape(self.obs_shape),
            joint.reshape(self.split).transpose(self.order),
        )
        return self.table

    def mutual_information(self) -> float:
        """I(seed; observation) in bits of the table last filled."""
        table, mask = self.table, self.mask.reshape(self.table.shape)
        np.greater(table, 0, out=mask)
        k = int(np.count_nonzero(mask))
        vals = np.compress(self.mask, table.reshape(-1), out=self.vals[:k])
        pa = table.sum(axis=1)
        outer = np.multiply.outer(pa, table.sum(axis=0), out=self.joint.reshape(table.shape))
        papb = np.compress(self.mask, outer.reshape(-1), out=self.papb[:k])
        return float(_mi_from_cells(vals, pa.sum(), papb, work=self.joint[:k]))


def exact_seed_leakage(
    pair: NestedLatticePair, g: np.ndarray, cap: int = MAX_PAIR_ENUM
) -> float | np.ndarray:
    """Exact I(g(t1); observation) in bits under uniform independent t1, t2.

    The observation is (mod-coarse sum, wrap bits), which determines the
    relay's noiseless view.  ``g`` is one (r, N) extractor, which gives a
    float, or a stack (..., r, N), which gives a float64 array of shape
    (...), one value per matrix.  The joint table covers all q^(2N)
    codeword pairs, and ``cap`` bounds that count, but it is composed from
    per-coordinate tables (see ``_LeakageWorkspace``) rather than
    enumerated.  The guards run once per call and the whole stack shares
    one workspace; each value is bit-identical to a call on its matrix
    alone.
    """
    g = np.array(g, dtype=np.int64) % pair.q
    out = np.zeros(g.shape[:-2])  # an empty extractor (r = 0) leaks nothing
    if g.shape[-2] > 0:
        if g.shape[-1] != pair.N:
            raise ValueError(f"extractor must have {pair.N} columns")
        ws = _LeakageWorkspace(pair, g.shape[-2], cap)
        for idx in np.ndindex(out.shape):
            ws.fill(g[idx])
            out[idx] = ws.mutual_information()
    return float(out) if g.ndim == 2 else out


def _least_leaky(pair: NestedLatticePair, stack: np.ndarray, cap: int) -> LeakageRecord:
    """The first leakage minimizer of a (k, r, N) stack, from one stacked leakage call."""
    mis = exact_seed_leakage(pair, stack, cap=cap)
    best = int(np.argmin(mis))
    return LeakageRecord(
        matrix=tuple(map(tuple, stack[best].tolist())),
        exact_mi_bits=float(mis[best]), q=pair.q, N=pair.N, r=stack.shape[-2],
    )


def best_extractor_exhaustive(
    pair: NestedLatticePair, r: int, cap: int = MAX_PAIR_ENUM
) -> LeakageRecord:
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
    _guard(q ** (r * n), cap, "extractor-matrix enumeration")
    rrefs, _ = row_spaces(q, r, n)
    reps = rrefs[np.count_nonzero(rrefs.any(axis=-1), axis=-1) == r]  # rank: nonzero rows
    if len(reps) == 0:
        raise RuntimeError("no full-row-rank matrix exists for these dimensions")
    return _least_leaky(pair, reps, cap)


def best_sampled_extractor(
    pair: NestedLatticePair, r: int, candidates: int, rng: np.random.Generator,
    cap: int = MAX_PAIR_ENUM,
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
    return _least_leaky(pair, full, cap)


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


def exact_amd_win_census(
    params: AmdParams, s=None, cap: int = MAX_ATTACK_ENUM
) -> AmdCensus:
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
    _guard(order ** (d + 2), cap, "attack enumeration")
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
    bound = (d + 1) / order
    return AmdCensus(
        max_success=max_hits / order,
        bound=bound,
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


def representation_census(pair: NestedLatticePair, cap: int = MAX_PAIR_ENUM):
    """Round-trip and wrap-range check over every codebook pair.

    The size^2 pairs go through the batched ``represent_sums`` and
    ``reconstruct_sums`` in row blocks (``_first_bad_pair``).  Returns
    (passed, counterexample); the counterexample is the first failing
    (index1, index2) in row-major order, or None.
    """
    size = pair.q**pair.N
    _guard(size * size, cap, "representation census")
    points = codebook_point(pair, index_to_coords(pair, np.arange(size)))

    def block_bad(i0, i1):
        u1, u2 = points[i0:i1, None, :], points[None, :, :]
        sum_mod, t = represent_sums(pair, u1, u2)
        in_range = (t >= 1) & (t <= 2**pair.N)
        back = reconstruct_sums(pair, sum_mod, np.where(in_range, t, 1))
        return ~in_range | np.any(back != u1 + u2, axis=-1)

    first = _first_bad_pair(size, pair.N, block_bad)
    return first is None, first


def isomorphism_census(pair: NestedLatticePair, cap: int = MAX_PAIR_ENUM):
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
    _guard(size * size, cap, "isomorphism census")
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


def full_rank_census(q: int, rows: int, cols: int, enum_cap: int = 10**5):
    """Exact full-row-rank fraction, enumerated when small, counted exactly.

    Returns (count, total, bound_holds) where bound_holds checks the
    fraction against 1 - q^(rows - cols).  Direct enumeration runs when
    q^(rows*cols) <= enum_cap and must agree with the product formula.  Ranks
    come from ``fields.row_spaces``, by RREF([M'; v]) = RREF([RREF(M'); v]).
    """
    count, total = full_rank_fraction(q, rows, cols)
    if q ** (rows * cols) <= enum_cap:
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


def universal_hash_census(q: int, N: int, r: int, cap: int = 10**7):
    """Max collision probability of the linear-map family, exactly.

    For every ordered pair x1 != x2, counts matrices G with G x1 = G x2;
    asserts the fraction never exceeds q^-r.  Exact in integers.
    """
    n_mat = q ** (r * N)
    n_vec = q**N
    _guard(n_mat * n_vec, cap, "universal hash census")
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
    lhs = _mi_from_cells(np.where(nz, cells, total), total, np.where(nz, papb, total * total))
    return (float(lhs), float(rhs)) if probs.ndim == 2 else (lhs, rhs)


def leftover_census(q: int, N: int, r: int, probs, cap: int = 10**7):
    """Matrix-averaged output entropy versus the leftover-hash floor.

    ``probs`` is the conditional source law, a probability vector over the
    q^N indices of GF(q)^N.  Averages the Shannon entropy of G(A) over
    every matrix G and compares with leftover_bound(r log2 q, H2(probs)).
    Returns (average, bound, holds); a nonpositive bound is vacuous and
    reported as holding.
    """
    n_mat = q ** (r * N)
    n_vec = q**N
    _guard(n_mat * n_vec, cap, "leftover-hash census")
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
