"""Brute-force ground-truth calculators for the desk-scale regime.

Every routine here enumerates its probability space exactly (guarded by
explicit size caps) and fails loudly rather than truncating: exact
mutual information of an extracted seed against the relay's noiseless
observation, the exhaustive additive-attack census for the detection
code, bijectivity/additivity of the coordinate map, full-rank and
collision censuses for random linear maps, and the entropy/Pinsker
inequalities used by the protocol analysis.

Mutual information is computed from integer counts (converted to bits at
the very end) so that equality-sensitive checks do not accumulate float
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .amd import AmdParams, amd_tag
from .extract import DiscreteDistribution, leftover_bound, renyi_entropy
from .fields import all_matrices, digits, full_rank_fraction, matrix_row_rank, row_reduce
from .lattice import (
    NestedLatticePair,
    codebook_point,
    coords_to_field,
    decode_fine_mod_coarse,
    index_to_coords,
    lattice_add,
    mod_coarse,
    reconstruct_sum,
    represent_sum,
)

__all__ = [
    "SizeGuardError",
    "MAX_PAIR_ENUM",
    "MAX_ATTACK_ENUM",
    "JointDistribution",
    "LeakageRecord",
    "exact_seed_leakage",
    "best_extractor_exhaustive",
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


class SizeGuardError(ValueError):
    """An enumeration would exceed its configured cap."""


def _guard(size: int, cap: int, what: str):
    if size > cap:
        raise SizeGuardError(f"{what} needs {size} states, cap is {cap}")


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


class JointDistribution:
    """Joint law over a finite grid: probs[a, b] with recoverable marginals."""

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError("joint distribution must be a 2-D array")
        if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("entries must be a probability distribution")
        self.probs = probs

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "JointDistribution":
        counts = np.asarray(counts, dtype=float)
        return cls(counts / counts.sum())

    def marginal_a(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def mutual_information(self) -> float:
        return mutual_information_bits(self.probs)

    def variational_to_product(self) -> float:
        outer = np.outer(self.marginal_a(), self.marginal_b())
        return float(np.abs(self.probs - outer).sum())


def mutual_information_bits(joint: np.ndarray) -> float:
    """I(A;B) in bits from a joint array (rows A, columns B)."""
    joint = np.asarray(joint, dtype=float)
    total = joint.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    rows, cols = np.nonzero(nz)
    vals = joint[rows, cols]
    return float(
        np.sum(vals / total * (np.log2(vals * total) - np.log2(pa[rows] * pb[cols])))
    )


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


def _observation_index(pair: NestedLatticePair) -> tuple[np.ndarray, int]:
    """Same observation id, composed from per-coordinate tables.

    The scaled integer lattice acts coordinate-wise, so the mod-coarse
    sum digit and the wrap bit of coordinate j depend only on the digit
    pair at j.  Each per-coordinate table is built through the real 1-D
    geometry (represent_sum / decode on one-dimensional pairs); a test
    cross-checks this composition against the direct product path.
    """
    q, n = pair.q, pair.N
    size = q**n
    t_count = 2**n
    coords = digits(np.arange(size), q, n)
    coords_idx = np.zeros((size, size), dtype=np.int64)
    wrap_bits = np.zeros((size, size), dtype=np.int64)
    for j in range(n):
        sub = NestedLatticePair(
            N=1, q=q, alpha=pair.alpha,
            d1=(pair.d1[j],), d2=(pair.d2[j],),
        )
        offset = sub.dither(1) + sub.dither(2)
        sum_digit = np.zeros((q, q), dtype=np.int64)
        wrap = np.zeros((q, q), dtype=np.int64)
        for c1 in range(q):
            p1 = codebook_point(sub, np.array([c1]), 1)
            for c2 in range(q):
                p2 = codebook_point(sub, np.array([c2]), 2)
                rep = represent_sum(sub, p1, p2)
                sum_digit[c1, c2] = decode_fine_mod_coarse(
                    sub, np.array(rep.sum_mod), offset
                )[0]
                wrap[c1, c2] = rep.T - 1
        d1j = coords[:, j]
        coords_idx += sum_digit[np.ix_(d1j, d1j)] * q**j
        wrap_bits += wrap[np.ix_(d1j, d1j)] << j
    obs = coords_idx * t_count + wrap_bits
    return obs.reshape(-1), q**n * t_count


def _obs_cache(pair: NestedLatticePair, cap: int):
    # the guard applies per call: a warm cache must not widen a caller's cap
    _guard(pair.q ** (2 * pair.N), cap, "codeword-pair enumeration")
    return _cached_observation_index(pair)


@lru_cache(maxsize=4)  # a leakage scan over N = 1..3 reuses three entries
def _cached_observation_index(pair: NestedLatticePair) -> tuple[np.ndarray, int]:
    return _observation_index(pair)


def _seed_obs_counts(pair: NestedLatticePair, g: np.ndarray, cap: int) -> np.ndarray:
    """Joint counts [seed index, observation id] over all q^(2N) codeword pairs."""
    if g.shape[1] != pair.N:
        raise ValueError(f"extractor must have {pair.N} columns")
    obs_flat, n_obs = _obs_cache(pair, cap)
    q, n = pair.q, pair.N
    size = q**n
    r = g.shape[0]
    radix_r = q ** np.arange(r, dtype=np.int64)
    seed = ((digits(np.arange(size), q, n) @ g.T) % q) @ radix_r  # one seed index per t1
    seed_flat = np.repeat(seed, size)
    joint_flat = np.bincount(seed_flat * n_obs + obs_flat, minlength=(q**r) * n_obs)
    return joint_flat.reshape(q**r, n_obs)


def exact_seed_leakage(
    pair: NestedLatticePair, g: np.ndarray, cap: int = MAX_PAIR_ENUM
) -> float:
    """Exact I(g(t1); observation) in bits under uniform independent t1, t2.

    Enumerates all q^(2N) codeword pairs; the observation is (mod-coarse
    sum, wrap integer) which determines the relay's noiseless view.
    """
    g = np.array(g, dtype=np.int64) % pair.q
    if g.shape[0] == 0:
        return 0.0
    return mutual_information_bits(_seed_obs_counts(pair, g, cap))


def best_extractor_exhaustive(
    pair: NestedLatticePair, r: int, cap: int = MAX_PAIR_ENUM
) -> LeakageRecord:
    """Scan every full-row-rank r x N row space and return the leakage minimizer.

    Only matrices in reduced row-echelon form are evaluated, one per row
    space: an invertible change of basis permutes the seed alphabet
    bijectively, which leaves the mutual information unchanged, so one
    representative per row space is exact.  For r = 1 these are the rows
    whose first nonzero entry is 1.
    """
    q, n = pair.q, pair.N
    _guard(q ** (r * n), cap, "extractor-matrix enumeration")
    mats = all_matrices(q, r, n)
    rref, rank = row_reduce(mats, q)
    best = None
    for m in mats[(rank == r) & np.all(rref == mats, axis=(1, 2))]:
        mi = exact_seed_leakage(pair, m, cap=cap)
        if best is None or mi < best.exact_mi_bits:
            best = LeakageRecord(
                matrix=tuple(map(tuple, m.tolist())), exact_mi_bits=mi, q=q, N=n, r=r
            )
    if best is None:
        raise RuntimeError("no full-row-rank matrix exists for these dimensions")
    return best


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
    cells = xs[:, None] * order  # row offsets flattening (dx, dh)
    base_tag = amd_tag(params, s_int, xs)
    hist = np.zeros(order + 1, dtype=np.int64)
    max_hits = 0
    for s_prime in product(range(order), repeat=d):
        sp = np.array(s_prime, dtype=np.int64)
        diff = sub[amd_tag(params, sp, shifted), base_tag]  # forged dh making x pass
        # counts[dx, dh]: seeds x that verify under the attack (s', dx, dh)
        counts = np.bincount((diff + cells).ravel(), minlength=order * order)
        if np.array_equal(sp, s_int):
            counts[0] = -1  # no perturbation at all
        hist += np.bincount(counts + 1, minlength=order + 2)[1:]
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


def representation_census(pair: NestedLatticePair, cap: int = MAX_PAIR_ENUM):
    """Round-trip and wrap-range check over every codebook pair.

    Returns (passed, counterexample); the counterexample is the first
    failing (coords1, coords2) or None.
    """
    size = pair.q**pair.N
    _guard(size * size, cap, "representation census")
    points = [codebook_point(pair, index_to_coords(pair, k)) for k in range(size)]
    for i in range(size):
        for j in range(size):
            rep = represent_sum(pair, points[i], points[j])
            if not 1 <= rep.T <= 2**pair.N:
                return False, (i, j)
            back = reconstruct_sum(pair, rep)
            if not np.allclose(back, points[i] + points[j], rtol=0, atol=0):
                return False, (i, j)
    return True, None


def isomorphism_census(pair: NestedLatticePair, cap: int = MAX_PAIR_ENUM):
    """Bijectivity plus additivity of the coordinate map, geometrically.

    Addition is exercised through the real vectors: point(a) + point(b),
    reduced mod the coarse lattice and re-decoded, must land on the
    coordinate-wise mod-q sum.
    """
    size = pair.q**pair.N
    _guard(size * size, cap, "isomorphism census")
    coords = [index_to_coords(pair, k) for k in range(size)]
    images = {tuple(coords_to_field(pair, c)) for c in coords}
    if len(images) != size:
        return False, "coordinate map is not a bijection"
    for a in coords:
        pa = codebook_point(pair, a)
        for b in coords:
            geometric = mod_coarse(pair, pa + codebook_point(pair, b))
            got = decode_fine_mod_coarse(pair, geometric)
            want = lattice_add(pair, a, b)
            if not np.array_equal(got, want):
                return False, (tuple(a), tuple(b))
    return True, None


def full_rank_census(q: int, rows: int, cols: int, enum_cap: int = 10**5):
    """Exact full-row-rank fraction, enumerated when small, counted exactly.

    Returns (count, total, bound_holds) where bound_holds checks the
    fraction against 1 - q^(rows - cols).  Direct enumeration runs when
    q^(rows*cols) <= enum_cap and must agree with the product formula.
    """
    count, total = full_rank_fraction(q, rows, cols)
    if q ** (rows * cols) <= enum_cap:
        seen = np.count_nonzero(matrix_row_rank(all_matrices(q, rows, cols), q) == rows)
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
    radix = q ** np.arange(r, dtype=np.int64)
    images = radix @ ((all_matrices(q, r, N) @ vecs.T) % q)  # images[G, x]: index of G x
    onehot = images[:, :, None] == np.arange(q**r)
    collisions = np.einsum("gax,gbx->ab", onehot, onehot, dtype=np.int64)
    np.fill_diagonal(collisions, 0)
    max_coll = int(collisions.max())
    # integer form of max_coll / n_mat <= q^-r
    holds = max_coll * (q**r) <= n_mat
    return max_coll / n_mat, holds


def pinsker_check(joint: JointDistribution) -> tuple[float, float]:
    """Both sides of I(A;B) >= D^2 / (2 ln 2), D the L1 distance to the product."""
    lhs = joint.mutual_information()
    dist = joint.variational_to_product()
    rhs = dist * dist / (2.0 * math.log(2))
    return lhs, rhs


def leftover_census(q: int, N: int, r: int, dist: DiscreteDistribution, cap: int = 10**7):
    """Matrix-averaged output entropy versus the leftover-hash floor.

    ``dist`` is the conditional source law over GF(q)^N indices.  Averages
    the Shannon entropy of G(A) over every matrix G and compares with
    leftover_bound(r log2 q, H2(dist)).  Returns (average, bound, holds);
    a nonpositive bound is vacuous and reported as holding.
    """
    n_mat = q ** (r * N)
    n_vec = q**N
    _guard(n_mat * n_vec, cap, "leftover-hash census")
    probs = np.zeros(n_vec, dtype=float)
    for key, p in dist.probs.items():
        probs[int(key)] = p
    vecs = digits(np.arange(n_vec), q, N)
    radix = q ** np.arange(r, dtype=np.int64)
    total = 0.0
    for m in all_matrices(q, r, N):  # one matrix at a time keeps the float sum's order
        out = ((vecs @ m.T) % q) @ radix
        pushed = np.bincount(out, weights=probs, minlength=q**r)
        nz = pushed[pushed > 0]
        total += float(-np.sum(nz * np.log2(nz)))
    average = total / n_mat
    c = renyi_entropy(dist)
    bound = leftover_bound(r * math.log2(q), c)
    holds = bound <= 0 or average > bound or math.isclose(average, bound, rel_tol=1e-12)
    return average, bound, holds
