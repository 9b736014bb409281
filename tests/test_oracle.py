"""Exhaustive oracle routines: exact values, guards, self-consistency."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from relaysec import oracle
from relaysec.amd import AmdParams
from relaysec.amd import amd_tag
from relaysec.fields import (
    ExtField,
    all_matrices,
    digits,
    full_rank_fraction,
    matrix_row_rank,
    row_reduce,
    row_space_levels,
    row_spaces,
    undigits,
)
from relaysec.lattice import (
    NestedLatticePair,
    codebook_point,
    decode_fine_mod_coarse,
    index_to_coords,
    lattice_add,
    represent_sums,
)
from relaysec.oracle import (
    SizeGuardError,
    best_extractor_exhaustive,
    best_sampled_extractor,
    exact_amd_win_census,
    exact_seed_leakage,
    guessing_probability,
    isomorphism_census,
    leftover_census,
    pinsker_check,
    representation_census,
    universal_hash_census,
)


# ---------------------------------------------------------------------
# exact seed leakage
# ---------------------------------------------------------------------


def _seed_obs_counts(pair, g):
    """Joint counts [seed index, observation id] of one extractor, as int64.

    The reference composition of per-coordinate tables, without the
    posterior classes.  The observation id is (sum_j sd_j q^j) 2^N +
    sum_j w_j 2^j, for the sum digit sd_j and wrap bit w_j of coordinate j.
    The seed g t1 is a sum of per-coordinate terms and the observation a
    tuple of per-coordinate parts, so coordinate j takes one gather (the
    table so far, shifted by c1 g[:, j] for each c1) and one matmul with
    its (q, 2q) coordinate table.
    """
    q, n, r = pair.q, pair.N, g.shape[0]
    n_seed = q**r
    c1 = np.arange(q)[:, None, None]
    # source[j, c1, s] = s - c1 g[:, j], the seed index before coordinate j
    source = undigits((digits(np.arange(n_seed), q, r) - c1 * g.T[:, None, None, :]) % q, q)
    joint = np.zeros((n_seed, 1))
    joint[0, 0] = 1.0  # before any coordinate: seed 0, empty observation
    table = oracle._coordinate_table(q, pair.alpha)
    for src in source:
        joint = (joint[src].reshape(q, -1).T @ table).reshape(n_seed, -1)
    # axes (seed, sd_0, w_0, ..., sd_{N-1}, w_{N-1}) -> the observation id's digit order
    order = [0, *range(2 * n - 1, 0, -2), *range(2 * n, 0, -2)]
    joint = joint.reshape((n_seed,) + (q, 2) * n).transpose(order)
    return joint.reshape(n_seed, -1).astype(np.int64)


def test_leakage_empty_extractor_is_zero():
    pair = NestedLatticePair(N=2, q=3)
    assert exact_seed_leakage(pair, np.zeros((0, 2), dtype=int)) == 0.0
    stacked = exact_seed_leakage(pair, np.zeros((4, 0, 2), dtype=int))
    assert stacked.shape == (4,) and not stacked.any()


def _mi_reference(joint):
    """I(A;B) in bits of a joint table of counts or probabilities, by the formula as written."""
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


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize(
    "q,n,r",
    [(11, 1, 1), (11, 2, 1), (11, 3, 1), (5, 3, 2), (5, 4, 2), (3, 4, 2), (7, 3, 3), (5, 5, 2)],
)
def test_leakage_mi_bit_identical_to_reference(q, n, r, scaled):
    # the class pass sums by another formula than the joint table's MI, so the two
    # agree to rounding
    rng = np.random.default_rng(100 * q + 10 * n + r)
    pair = NestedLatticePair(N=n, q=q, alpha=1.3 if scaled else 1.0)
    stack = rng.integers(0, q, size=(3, r, n))
    stacked = exact_seed_leakage(pair, stack)
    guesses = guessing_probability(pair, stack)
    for m, got, guess in zip(stack, stacked.tolist(), guesses.tolist()):
        table = _seed_obs_counts(pair, m)
        want = _mi_reference(table)
        assert got == pytest.approx(want, abs=1e-12)
        assert exact_seed_leakage(pair, m) == got
        assert guess == int(table.max(axis=0).sum()) / q ** (2 * n)


def test_pinsker_mi_bit_identical_to_reference():
    # laws without zero cells: pinsker_check's I(A;B) sums the reference's terms in its order
    rng = np.random.default_rng(31)
    raws = [rng.random((3, 4)) for _ in range(200)]  # verify's pinsker joints
    raws += [rng.random((int(rng.integers(2, 5)), int(rng.integers(2, 6)))) for _ in range(200)]
    for joint in [raw / raw.sum() for raw in raws]:
        assert pinsker_check(joint)[0] == _mi_reference(joint)


def test_leakage_stack_matches_single_calls():
    rng = np.random.default_rng(8)
    r2 = rng.integers(0, 5, size=(6, 2, 3))
    r2[2] = [[1, 2, 3], [2, 4, 1]]  # rank 1
    r2[4] = 0
    g = np.array([[1, 2, 0], [0, 3, 4]])
    # repeats, a sign flip and a column permutation of g (its orbit), rank 1 and rank 0
    orbit = np.array([g, g, g * [1, -1, 1] % 5, g[:, [2, 0, 1]], [[1, 2, 0], [2, 4, 0]],
                      np.zeros((2, 3)), g, [[0, 0, 0], [3, 1, 0]], np.zeros((2, 3))], dtype=int)
    cases = [
        (NestedLatticePair(N=2, q=11), np.array([[[3, 7]]])),  # a stack of one
        (NestedLatticePair(N=3, q=5, alpha=1.3), r2),
        (NestedLatticePair(N=3, q=5), orbit),
        (NestedLatticePair(N=3, q=5, alpha=1.3), np.concatenate([r2, r2[::-1], orbit])),
        (NestedLatticePair(N=2, q=11), all_matrices(11, 1, 2)),  # the zero matrix first
    ]
    for pair, stack in cases:
        stacked = exact_seed_leakage(pair, stack)
        assert stacked.dtype == float and stacked.shape == stack.shape[:-2]
        assert stacked.tolist() == [exact_seed_leakage(pair, m) for m in stack]
        guesses = guessing_probability(pair, stack)
        assert guesses.tolist() == [guessing_probability(pair, m) for m in stack]
    assert stacked[0] == 0.0  # a constant seed leaks nothing
    pair, stack = cases[1]
    nested = exact_seed_leakage(pair, stack.reshape(2, 3, 2, 3))
    assert nested.shape == (2, 3) and nested.ravel().tolist() == exact_seed_leakage(pair, stack).tolist()


def test_leakage_stack_guard_raises_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a coordinate table was built before the size guard")

    monkeypatch.setattr(oracle, "_coordinate_table", no_work)
    monkeypatch.setattr(oracle, "MAX_PAIR_ENUM", 11**4 - 1)
    pair = NestedLatticePair(N=2, q=11)
    with pytest.raises(SizeGuardError):
        exact_seed_leakage(pair, all_matrices(11, 1, 2))


def test_leakage_q3_overextraction_hand_value():
    """r = N = 1 at q = 3: the observation is the real sum, triangular."""
    pair = NestedLatticePair(N=1, q=3)
    mi = exact_seed_leakage(pair, np.array([[1]]))
    counts = np.array([1, 2, 3, 2, 1], dtype=float)  # real sums -2..2
    h_obs = float(np.sum(counts / 9 * np.log2(9 / counts)))
    assert mi == pytest.approx(h_obs - math.log2(3), abs=1e-12)
    assert mi == pytest.approx(0.612, abs=1e-3)


def _entropy_from_counts(counts):
    counts = counts[counts > 0].astype(float)
    total = counts.sum()
    return float(np.sum(counts / total * (np.log2(total) - np.log2(counts))))


def seed_leakage_two_path(pair, g):
    """Leakage via the direct sum and via H(seed) + H(obs) - H(joint)."""
    joint = _seed_obs_counts(pair, np.array(g, dtype=np.int64) % pair.q)
    direct = _mi_reference(joint)
    decomposed = (
        _entropy_from_counts(joint.sum(axis=1))
        + _entropy_from_counts(joint.sum(axis=0))
        - _entropy_from_counts(joint.reshape(-1))
    )
    return direct, decomposed


def _observation_index_direct(pair):
    """Flattened observation id for every (t1, t2) codeword pair.

    The observation is the mod-coarse sum of the two transmitted signals
    together with the wrap integer T; both are computed through the real
    vector geometry, then indexed.
    """
    q, n = pair.q, pair.N
    size = q**n
    points = [codebook_point(pair, index_to_coords(pair, k)) for k in range(size)]
    t_count = 2**n
    obs = np.zeros((size, size), dtype=np.int64)
    radix = q ** np.arange(n, dtype=np.int64)
    for i in range(size):
        for j in range(size):
            sum_mod, t = represent_sums(pair, points[i], points[j])
            coords = decode_fine_mod_coarse(pair, sum_mod)
            obs[i, j] = int(np.dot(coords, radix)) * t_count + (int(t) - 1)
    return obs.reshape(-1), q**n * t_count


def test_leakage_two_paths_agree():
    for q, n, row in [(3, 1, [1]), (5, 2, [1, 2]), (11, 2, [3, 7])]:
        pair = NestedLatticePair(N=n, q=q)
        direct, decomposed = seed_leakage_two_path(pair, np.array([row]))
        assert abs(direct - decomposed) < 1e-10


def _seed_obs_counts_direct(pair, g):
    """Joint counts [seed, observation] by a bincount over every (t1, t2) pair."""
    q, n = pair.q, pair.N
    size = q**n
    obs, n_obs = _observation_index_direct(pair)
    radix_r = q ** np.arange(g.shape[0], dtype=np.int64)
    seed = ((index_to_coords(pair, np.arange(size)) @ g.T) % q) @ radix_r
    n_seed = q ** g.shape[0]
    flat = np.repeat(seed, size) * n_obs + obs
    return np.bincount(flat, minlength=n_seed * n_obs).reshape(n_seed, n_obs)


def test_seed_obs_counts_match_direct_path():
    """The per-coordinate composition equals the pair-by-pair table cell for cell."""
    cases = [
        (3, 1, 1.0, [[1]]),
        (5, 2, 1.0, [[1, 2]]),
        (5, 2, 1.0, [[1, 0], [3, 4]]),
        (3, 3, 1.0, [[0, 1, 2], [1, 1, 0]]),
        (3, 2, 0.7, [[2, 1]]),
        (3, 3, 1.3, [[1, 2, 2]]),
        (3, 3, 1.3, [[1, 0, 2], [0, 1, 1]]),
        (5, 2, 2.5, [[1, 1], [0, 0]]),
    ]
    for q, n, alpha, g in cases:
        pair = NestedLatticePair(N=n, q=q, alpha=alpha)
        g = np.array(g, dtype=np.int64)
        fast = _seed_obs_counts(pair, g)
        slow = _seed_obs_counts_direct(pair, g)
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        assert np.array_equal(fast, slow), (q, n, alpha, g.tolist())
        # the relay's best guess of the seed from each observation, summed over them
        assert guessing_probability(pair, g) == int(slow.max(axis=0).sum()) / q ** (2 * n)


def test_leakage_size_guard(monkeypatch):
    pair = NestedLatticePair(N=3, q=5)
    monkeypatch.setattr(oracle, "MAX_PAIR_ENUM", 100)
    with pytest.raises(SizeGuardError):
        exact_seed_leakage(pair, np.array([[1, 0, 0]]))


def test_leakage_guard_applies_with_cached_coordinate_tables(monkeypatch):
    pair = NestedLatticePair(N=2, q=11)
    exact_seed_leakage(pair, np.array([[1, 1]]))  # fills the per-coordinate tables
    monkeypatch.setattr(oracle, "MAX_PAIR_ENUM", 11**4 - 1)
    with pytest.raises(SizeGuardError):  # 11^4 pairs exceed the cap all the same
        exact_seed_leakage(pair, np.array([[1, 1]]))
    monkeypatch.setattr(oracle, "MAX_PAIR_ENUM", 11**4)
    assert exact_seed_leakage(pair, np.array([[1, 1]])) > 0


def test_leakage_guards_one_matrix_before_the_coordinate_tables(monkeypatch):
    # at q = 9973 one matrix's class laws hold q^2 cells, a pair count under MAX_PAIR_ENUM
    def unbuilt(q, alpha):
        raise AssertionError(f"the q = {q} coordinate tables were built before the guard")

    monkeypatch.setattr(oracle, "_coordinate_classes", unbuilt)
    for statistic in (exact_seed_leakage, guessing_probability):
        with pytest.raises(SizeGuardError, match=f"one extractor's class laws needs {9973**2} "):
            statistic(NestedLatticePair(N=1, q=9973), np.array([[1]]))
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_MAX_MATRIX_CELLS", 11**3 - 1)
    with pytest.raises(SizeGuardError):  # q^r seeds times q^N classes
        exact_seed_leakage(NestedLatticePair(N=2, q=11), np.array([[1, 1]]))
    monkeypatch.setattr(oracle, "_MAX_MATRIX_CELLS", 11**3)
    assert exact_seed_leakage(NestedLatticePair(N=2, q=11), np.array([[1, 1]])) > 0


def test_best_extractor_monotone_small():
    values = [
        best_extractor_exhaustive(NestedLatticePair(N=n, q=5), 1).exact_mi_bits
        for n in (1, 2)
    ]
    assert values[1] <= values[0]


def test_best_extractor_scaling_classes_are_equivalent():
    # leakage is invariant under output relabeling, the basis of evaluating
    # one representative per row space; equal class counts give equal bits
    pair = NestedLatticePair(N=2, q=5)
    base = exact_seed_leakage(pair, np.array([[1, 3]]))
    for c in (2, 3, 4):
        assert exact_seed_leakage(pair, (c * np.array([[1, 3]])) % 5) == base
    # r = 2: an invertible change of basis keeps the row space
    pair = NestedLatticePair(N=3, q=5)
    g = np.array([[1, 0, 2], [0, 1, 3]])
    base = exact_seed_leakage(pair, g)
    for b in ([[1, 1], [0, 1]], [[2, 0], [3, 1]], [[0, 1], [1, 0]]):
        assert exact_seed_leakage(pair, (np.array(b) @ g) % 5) == base


def test_leakage_ties_exactly_under_coordinate_permutation():
    # every coordinate shares one table, so permuting the columns of g
    # permutes the posterior classes and keeps every count
    rng = np.random.default_rng(12)
    for q, n, r in [(5, 4, 2), (11, 3, 1), (3, 4, 3)]:
        pair = NestedLatticePair(N=n, q=q)
        g = rng.integers(0, q, size=(r, n))
        perms = np.array(list(itertools.permutations(range(n))))
        stack = g[:, perms].transpose(1, 0, 2)  # stack[p] = g[:, perms[p]]
        leaks = exact_seed_leakage(pair, stack)
        guesses = guessing_probability(pair, stack)
        assert len(set(leaks.tolist())) == 1 and len(set(guesses.tolist())) == 1, (q, n, r)
        # one class pass per matrix: a stack of permutations shares one orbit key
        assert [exact_seed_leakage(pair, m) for m in stack] == leaks.tolist()
        assert [guessing_probability(pair, m) for m in stack] == guesses.tolist()


def _every_matrix_its_own_key(monkeypatch):
    """Stack calls then run the class pass on every matrix, as without orbit keys."""
    monkeypatch.setattr(oracle, "_orbit_keys", lambda rref, q: np.arange(len(rref))[:, None])


@pytest.mark.parametrize("alpha", [1.0, 1.3])
def test_column_sign_flips_leave_leakage_bit_identical(alpha):
    # a flip reflects the cyclic interval a source digit is uniform on, which translates
    # the class law; each single call runs its own class pass
    rng = np.random.default_rng(21)
    for q, n, r in [(5, 4, 2), (11, 3, 1), (7, 3, 2), (3, 4, 3)]:
        pair = NestedLatticePair(N=n, q=q, alpha=alpha)
        g = rng.integers(0, q, size=(r, n))
        base = exact_seed_leakage(pair, g), guessing_probability(pair, g)
        for signs in itertools.product((1, -1), repeat=n):
            flipped = g * np.array(signs) % q
            assert (exact_seed_leakage(pair, flipped), guessing_probability(pair, flipped)) == base


@pytest.mark.parametrize("n, orbits", [(1, 1), (2, 4), (3, 11)])
def test_orbit_keys_are_complete_at_r1(n, orbits, monkeypatch):
    # at r = 1 a change of basis is a scale, which the key minimises over
    q = 11
    rrefs, _ = row_spaces(q, 1, n)
    full = rrefs[rrefs.any(axis=(1, 2))]
    keys = np.unique(oracle._orbit_keys(full, q), axis=0)
    _every_matrix_its_own_key(monkeypatch)
    leaks = exact_seed_leakage(NestedLatticePair(N=n, q=q), full)
    assert len(keys) == len(set(leaks.tolist())) == orbits


def test_equal_orbit_keys_give_bit_equal_leakage(monkeypatch):
    # (q, r, N) = (5, 2, 4): the 806 row spaces take 18 leakage values under 91 keys,
    # since at r > 1 one orbit may get several keys
    q, r, n = 5, 2, 4
    rrefs, _ = row_spaces(q, r, n)
    full = rrefs[np.count_nonzero(rrefs.any(axis=-1), axis=-1) == r]
    _, key_id = np.unique(oracle._orbit_keys(full, q), axis=0, return_inverse=True)
    key_id = key_id.reshape(-1)
    _every_matrix_its_own_key(monkeypatch)
    pair = NestedLatticePair(N=n, q=q)
    leaks, guesses = exact_seed_leakage(pair, full), guessing_probability(pair, full)
    assert (len(full), key_id.max() + 1, len(set(leaks.tolist()))) == (806, 91, 18)
    for k in range(key_id.max() + 1):
        assert len(set(leaks[key_id == k].tolist())) == len(set(guesses[key_id == k].tolist())) == 1


def test_class_pass_sees_one_matrix_per_orbit_key(monkeypatch):
    q = 11
    pair = NestedLatticePair(N=3, q=q)
    stack = np.random.default_rng(6).integers(0, q, size=(64, 1, 3))
    _, first = np.unique(oracle._orbit_keys(row_reduce(stack, q)[0], q), axis=0, return_index=True)
    assert len(first) < len(stack)
    want = exact_seed_leakage(pair, stack)
    seen = []
    class_pass = oracle._class_pass

    def spy(pair, g, fold):
        seen.append(np.array(g))
        return class_pass(pair, g, fold)

    monkeypatch.setattr(oracle, "_class_pass", spy)
    assert exact_seed_leakage(pair, stack).tolist() == want.tolist()
    # the first matrix of each key, in order of first occurrence
    assert len(seen) == 1 and np.array_equal(seen[0], stack[np.sort(first)])


def test_best_extractor_r2_matches_brute_force():
    # one reduced row-echelon form per row space finds the minimum over
    # every full-rank matrix, bit for bit
    pair = NestedLatticePair(N=3, q=3)
    mats = all_matrices(3, 2, 3)
    brute = min(exact_seed_leakage(pair, m) for m in mats[matrix_row_rank(mats, 3) == 2])
    assert best_extractor_exhaustive(pair, 2).exact_mi_bits == brute


def test_best_extractor_first_minimum_in_rref_order():
    # the q=11 N=2 row spaces tie in pairs, so the winner depends on the order
    pair = NestedLatticePair(N=2, q=11)
    reps = [m for m in all_matrices(11, 1, 2) if m[0][m[0] != 0][:1].tolist() == [1]]
    best, best_mi = None, math.inf
    for m in reps:
        mi = exact_seed_leakage(pair, m)
        if mi < best_mi:
            best, best_mi = m, mi
    rec = best_extractor_exhaustive(pair, 1)
    assert [exact_seed_leakage(pair, m) for m in reps].count(best_mi) > 1
    assert rec.matrix == tuple(map(tuple, best.tolist())) and rec.exact_mi_bits == best_mi


@pytest.mark.parametrize("q, r, n", [(5, 2, 3), (3, 2, 3)])
def test_best_extractor_representatives_match_rref_filter(q, r, n, monkeypatch):
    # the row_spaces representatives are the matrices that are their own rank-r RREF
    mats = all_matrices(q, r, n)
    rref, rank = row_reduce(mats, q)
    want = mats[(rank == r) & np.all(rref == mats, axis=(1, 2))]
    seen = []

    def leakage(pair, g):
        seen.append(np.array(g))
        return exact_seed_leakage(pair, g)

    monkeypatch.setattr(oracle, "exact_seed_leakage", leakage)
    pair = NestedLatticePair(N=n, q=q)
    rec = best_extractor_exhaustive(pair, r)
    assert len(seen) == 1 and np.array_equal(seen[0], want)
    mis = exact_seed_leakage(pair, want)
    best = int(np.argmin(mis))
    assert rec.matrix == tuple(map(tuple, want[best].tolist()))
    assert rec.exact_mi_bits == mis[best]


def test_sampled_search_deterministic_and_minimizing():
    pair = NestedLatticePair(N=2, q=11)
    rec1 = best_sampled_extractor(pair, 1, 50, np.random.default_rng(4))
    rec2 = best_sampled_extractor(pair, 1, 50, np.random.default_rng(4))
    assert rec1 == rec2
    assert np.shape(rec1.matrix) == (1, 2)  # r x N
    draws = np.random.default_rng(4).integers(0, 11, size=(50, 1, 2), dtype=np.int64)
    assert rec1.exact_mi_bits == float(np.min(exact_seed_leakage(pair, draws[draws.any(axis=(1, 2))])))


def test_sampled_search_gets_full_rank_stack_and_first_minimum_wins(monkeypatch):
    seen = []

    def leakage(pair, g):  # a coarse stand-in with many ties
        seen.append(np.array(g))
        return np.sum(g, axis=(1, 2)) % 3.0

    monkeypatch.setattr(oracle, "exact_seed_leakage", leakage)
    rec = best_sampled_extractor(NestedLatticePair(N=2, q=2), 2, 50, np.random.default_rng(4))
    draws = np.random.default_rng(4).integers(0, 2, size=(50, 2, 2), dtype=np.int64)
    det = draws[:, 0, 0] * draws[:, 1, 1] - draws[:, 0, 1] * draws[:, 1, 0]
    full = draws[det % 2 == 1]  # a 2 x 2 binary matrix has rank 2 iff its determinant is odd
    assert 0 < len(full) < len(draws)
    assert len(seen) == 1 and np.array_equal(seen[0], full)
    values = (np.sum(full, axis=(1, 2)) % 3).tolist()
    assert values.count(min(values)) > 1  # ties exist, so the order matters
    assert rec.matrix == tuple(map(tuple, full[values.index(min(values))].tolist()))
    assert rec.exact_mi_bits == min(values)


def test_sampled_search_r0_is_exactly_zero_and_reads_no_stream():
    rng = np.random.default_rng(0)
    rec = best_sampled_extractor(NestedLatticePair(N=3, q=5), 0, 10, rng)
    assert rec.exact_mi_bits == 0.0 and rec.matrix == ()
    assert rng.integers(0, 100, 8).tolist() == np.random.default_rng(0).integers(0, 100, 8).tolist()


def test_sampled_search_failure_without_full_rank():
    class ZeroRng:  # every draw is the zero matrix, which has rank 0
        def integers(self, lo, hi, size=None, dtype=None):
            return np.zeros(size, dtype=np.int64)

    with pytest.raises(RuntimeError, match="no full-row-rank candidate in 5 samples"):
        best_sampled_extractor(NestedLatticePair(N=2, q=2), 2, 5, ZeroRng())


def test_leakage_deterministic():
    pair = NestedLatticePair(N=2, q=11)
    m = np.array([[2, 5]])
    assert exact_seed_leakage(pair, m) == exact_seed_leakage(pair, m)


def test_guessing_probability_roadmap_values():
    # P_guess from one seed stage at the default lattice (q=5, N=4) for two r = 2 extractors
    pair = NestedLatticePair(N=4, q=5)
    stack = np.array([[[1, 1, 1, 1], [0, 1, 2, 3]], [[1, 0, 1, 1], [0, 1, 1, 1]]])
    guesses = guessing_probability(pair, stack)
    assert guesses.tolist() == [20665 / 5**8, 24785 / 5**8]
    assert guesses.tolist() == [0.0529024, 0.0634496]
    assert [guessing_probability(pair, m) for m in stack] == guesses.tolist()


def test_guessing_probability_edge_cases(monkeypatch):
    pair = NestedLatticePair(N=2, q=5)
    assert guessing_probability(pair, np.zeros((0, 2), dtype=int)) == 1.0  # a constant seed
    assert guessing_probability(pair, np.zeros((1, 2), dtype=int)) == 1.0
    stacked = guessing_probability(pair, np.zeros((3, 0, 2), dtype=int))
    assert stacked.shape == (3,) and stacked.tolist() == [1.0] * 3
    monkeypatch.setattr(oracle, "MAX_PAIR_ENUM", 5**4 - 1)
    with pytest.raises(SizeGuardError):
        guessing_probability(pair, np.array([[1, 2]]))
    with pytest.raises(ValueError, match="2 columns"):
        guessing_probability(pair, np.array([[1, 2, 3]]))


@pytest.mark.parametrize("q", [5, 7, 11])
def test_coordinate_classes_are_q_interval_shapes(q):
    members, columns = oracle._coordinate_classes(q, 1.0)
    sizes = members.sum(axis=1).astype(int)
    assert sorted(sizes.tolist()) == list(range(1, q + 1))  # one shape per interval length
    for shape in members.astype(bool):  # a cyclic interval: one run of ones around Z_q
        assert np.count_nonzero(shape != np.roll(shape, 1)) in (0, 2)
    # a length-m interval has probability 2m/q^2 (m < q) and 1/q (m = q): 2 columns, then 1
    assert dict(zip(sizes.tolist(), columns.tolist())) == {m: 2 if m < q else 1 for m in range(1, q + 1)}


def test_coordinate_classes_reject_a_table_cell_above_one(monkeypatch):
    def doubled(q, alpha):
        return np.full((q, 2 * q), 2.0)

    oracle._coordinate_classes.cache_clear()  # a cached entry would never read the table
    monkeypatch.setattr(oracle, "_coordinate_table", doubled)
    with pytest.raises(AssertionError, match="must fix c2"):
        oracle._coordinate_classes(3, 1.0)


def test_coordinate_classes_reject_a_support_that_is_not_a_cyclic_interval(monkeypatch):
    def split(q, alpha):
        table = np.zeros((q, 2 * q))
        table[[0, 2], 0] = 1.0  # column 0's support {0, 2} is no cyclic interval of Z_5
        return table

    oracle._coordinate_classes.cache_clear()  # a cached entry would never read the table
    monkeypatch.setattr(oracle, "_coordinate_table", split)
    with pytest.raises(AssertionError, match="not a cyclic interval"):
        oracle._coordinate_classes(5, 1.0)


@pytest.mark.parametrize("block_cells", [1, 3 * 25 * 125])
def test_leakage_blocks_are_bit_identical(block_cells, monkeypatch):
    # 1: one matrix per block; 3 * 25 * 125: three per block, with a ragged last block
    pair = NestedLatticePair(N=3, q=5)
    stack = np.random.default_rng(3).integers(0, 5, size=(7, 2, 3))
    leaks, guesses = exact_seed_leakage(pair, stack), guessing_probability(pair, stack)
    monkeypatch.setattr(oracle, "_LEAKAGE_BLOCK_CELLS", block_cells)
    assert exact_seed_leakage(pair, stack).tolist() == leaks.tolist()
    assert guessing_probability(pair, stack).tolist() == guesses.tolist()


def test_leakage_memory_is_bounded_by_its_block():
    """64 q=11 N=3 extractors in one block peaked near 37 MB; in blocks of
    2^16 cells (four matrices), near 2.3 MB."""
    pair = NestedLatticePair(N=3, q=11)
    stack = np.random.default_rng(5).integers(0, 11, size=(64, 1, 3))
    exact_seed_leakage(pair, stack[:1])  # the cached coordinate tables are not the block's
    tracemalloc.start()
    try:
        exact_seed_leakage(pair, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * oracle._LEAKAGE_BLOCK_CELLS


# ---------------------------------------------------------------------
# detection-code attack census
# ---------------------------------------------------------------------


def test_amd_census_q5_r1_d1():
    census = exact_amd_win_census(AmdParams(field=ExtField(5, 1), d=1))
    assert census.holds
    assert census.max_success <= 0.4
    assert census.max_success == pytest.approx(0.4)  # the bound is tight here
    assert census.attacks == 5**3 - 1
    assert sum(census.histogram.values()) == census.attacks


def test_amd_census_independent_of_reference_message():
    p = AmdParams(field=ExtField(5, 1), d=1)
    maxima = set()
    histograms = []
    for s_val in range(5):
        census = exact_amd_win_census(p, s=(s_val,))
        maxima.add(census.max_success)
        histograms.append(tuple(sorted(census.histogram.items())))
    assert len(maxima) == 1
    assert len(set(histograms)) == 1


def test_amd_census_excludes_zero_perturbation():
    census = exact_amd_win_census(AmdParams(field=ExtField(5, 1), d=1))
    # the all-zero tuple would pass for every seed; its absence means no
    # attack is counted at success 5/5
    assert 5 not in census.histogram


def _amd_census_reference(params, s):
    """The census one forged message s' at a time: (histogram, max hits)."""
    order, d = params.field.order, params.d
    add, sub = params.field.tables()["add"], params.field.tables()["sub"]
    xs = np.arange(order)
    shifted = add[:, xs]
    base_tag = amd_tag(params, np.asarray(s), xs)
    hist, max_hits = np.zeros(order + 1, dtype=np.int64), 0
    for s_prime in itertools.product(range(order), repeat=d):
        sp = np.array(s_prime)
        diff = sub[amd_tag(params, sp, shifted), base_tag]
        counts = np.bincount((diff + xs[:, None] * order).ravel(), minlength=order * order)
        if np.array_equal(sp, s):
            counts[0] = -1
        hist += np.bincount(counts + 1, minlength=order + 2)[1:]
        max_hits = max(max_hits, int(counts.max()))
    return {hits: int(n) for hits, n in enumerate(hist) if n}, max_hits


@pytest.mark.parametrize("q, r, d, s", [
    (5, 1, 1, (3,)), (5, 1, 2, (0, 0)), (5, 1, 2, (4, 1)), (2, 2, 1, (2,)), (3, 1, 2, (2, 1)),
])
@pytest.mark.parametrize("block_cells", [None, 1, 3 * 5 * 5])
def test_amd_census_blocks_match_per_message_loop(q, r, d, s, block_cells, monkeypatch):
    # None: the default block; 1: one forged message per block; 75: a ragged last block
    if block_cells is not None:
        monkeypatch.setattr(oracle, "_AMD_BLOCK_CELLS", block_cells)
    params = AmdParams(field=ExtField(q, r), d=d)
    census = exact_amd_win_census(params, s=s)
    histogram, max_hits = _amd_census_reference(params, s)
    assert census.histogram == histogram
    assert census.max_success == max_hits / q**r
    assert census.attacks == q ** (r * (d + 2)) - 1  # only the zero perturbation is left out


def test_amd_census_memory_is_bounded_by_its_block():
    """GF(2^8), d=1: one dx per need block, since order^2 = 65,536 cells exceed the
    block.  The parent's two-gather census peaked near 2.6 MiB; a need table for
    every dx at once would take 134 MB."""
    params = AmdParams(field=ExtField(2, 8), d=1)
    params.field.tables()  # the cached field tables are not the census's
    tracemalloc.start()
    try:
        census = exact_amd_win_census(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.holds and census.attacks == 2**24 - 1
    assert peak <= 4 * 2**20


def test_amd_census_size_guard(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ATTACK_ENUM", 1000)
    with pytest.raises(SizeGuardError):
        exact_amd_win_census(AmdParams(field=ExtField(5, 2), d=2))


# ---------------------------------------------------------------------
# lattice censuses
# ---------------------------------------------------------------------


def test_representation_census_examples():
    ok, witness = representation_census(NestedLatticePair(N=2, q=5))
    assert ok and witness is None
    ok, _ = representation_census(NestedLatticePair(N=3, q=2))
    assert ok


def _isomorphism_census_scalar(pair):
    """Pair-by-pair additivity loop: the first failing (a, b) or None."""
    coords = [index_to_coords(pair, k) for k in range(pair.q**pair.N)]
    for a in coords:
        pa = codebook_point(pair, a)
        for b in coords:
            geometric = oracle.mod_coarse(pair, pa + codebook_point(pair, b))
            got = oracle.decode_fine_mod_coarse(pair, geometric)
            if not np.array_equal(got, lattice_add(pair, a, b)):
                return tuple(a), tuple(b)
    return None


@pytest.mark.parametrize("q, n, faulty_sum", [(5, 2, 3), (3, 3, 4), (2, 3, 2)])
def test_isomorphism_census_first_counterexample_matches_scalar_loop(
    monkeypatch, q, n, faulty_sum
):
    """A mod-coarse sum one fine step off wherever its digits add to faulty_sum.

    The fault sits in the census's sum path only: a decoder with the same
    fault also decodes some codebook points to the wrong coords, which the
    bijection check reports first.
    """
    real_decode, real_mod = oracle.decode_fine_mod_coarse, oracle.mod_coarse

    def faulty_decode(pair, y):
        got = real_decode(pair, y)
        wrong = got.sum(axis=-1) == faulty_sum
        got[..., 0] = (got[..., 0] + wrong) % pair.q
        return got

    def faulty_mod(pair, x):
        y = real_mod(pair, x)
        y[..., 0] += (real_decode(pair, y).sum(axis=-1) == faulty_sum) * pair.alpha
        return y

    pair = NestedLatticePair(N=n, q=q)
    monkeypatch.setattr(oracle, "decode_fine_mod_coarse", faulty_decode)
    assert isomorphism_census(pair) == (False, "coordinate map is not a bijection")
    monkeypatch.setattr(oracle, "decode_fine_mod_coarse", real_decode)
    monkeypatch.setattr(oracle, "mod_coarse", faulty_mod)
    want = _isomorphism_census_scalar(pair)
    assert want is not None and want[0] == (0,) * n != want[1]  # (a, b) order shows
    size = q**n
    for block_rows in (size, 4, 1):  # one whole-grid block, then row blocks
        monkeypatch.setattr(oracle, "_CENSUS_BLOCK_ELEMS", block_rows * size * n)
        assert isomorphism_census(pair) == (False, want), block_rows


def _representation_census_scalar(pair):
    """The pair-by-pair round-trip loop: the first failing (i, j) or None."""
    size = pair.q**pair.N
    points = [codebook_point(pair, index_to_coords(pair, k)) for k in range(size)]
    for i in range(size):
        for j in range(size):
            sum_mod, t = oracle.represent_sums(pair, points[i], points[j])
            if not 1 <= t <= 2**pair.N:
                return i, j
            back = oracle.reconstruct_sums(pair, sum_mod, t)
            if not np.array_equal(back, points[i] + points[j]):
                return i, j
    return None


@pytest.mark.parametrize("block_rows", [None, 4])
@pytest.mark.parametrize("q, n, fault", [(5, 2, "T"), (5, 2, "back"), (2, 3, "T")])
def test_representation_census_first_counterexample_matches_scalar_loop(
    monkeypatch, q, n, fault, block_rows
):
    """An out-of-range T, or a wrong reconstruction, on some sums; in one
    block or in blocks of four rows."""
    real_rep, real_rec = oracle.represent_sums, oracle.reconstruct_sums

    def represent(pair, u1, u2):
        sum_mod, t = real_rep(pair, u1, u2)
        if fault == "T":
            t = np.where((t == 1) & (np.sum(sum_mod, axis=-1) < 0), 0, t)
        return sum_mod, t

    def reconstruct(pair, sum_mod, t):
        back = real_rec(pair, sum_mod, t)
        if fault == "back":
            back = back + ((t == 2**pair.N) & (sum_mod[..., -1] < 0))[..., None]
        return back

    pair = NestedLatticePair(N=n, q=q)
    if block_rows is not None:
        monkeypatch.setattr(oracle, "_CENSUS_BLOCK_ELEMS", block_rows * q**n * n)
    assert representation_census(pair) == (True, None) and _representation_census_scalar(pair) is None
    monkeypatch.setattr(oracle, "represent_sums", represent)
    monkeypatch.setattr(oracle, "reconstruct_sums", reconstruct)
    want = _representation_census_scalar(pair)
    assert want is not None and want[0] != want[1]  # (i, j) order shows
    assert representation_census(pair) == (False, want)


def test_isomorphism_census_rejects_a_collapsing_coordinate_map(monkeypatch):
    """Coords (1, 1) sent to the point of (0, 0): the census must report the
    collision, which a check of coords alone cannot see."""
    real = oracle.codebook_point

    def collapsing(pair, c):
        c = np.array(c)
        c[np.all(c == 1, axis=-1)] = 0
        return real(pair, c)

    monkeypatch.setattr(oracle, "codebook_point", collapsing)
    assert isomorphism_census(NestedLatticePair(N=2, q=3)) == (
        False, "coordinate map is not a bijection")


def test_representation_census_memory_is_bounded_by_its_block(monkeypatch):
    """Each block holds at most _CENSUS_BLOCK_ELEMS vector entries, so the
    peak does not grow with size^2 (in one block, q=3 N=5 peaks near 12 MB)."""
    budget = 2**14
    monkeypatch.setattr(oracle, "_CENSUS_BLOCK_ELEMS", budget)
    pair = NestedLatticePair(N=5, q=3)
    tracemalloc.start()
    try:
        assert representation_census(pair) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * budget


def test_isomorphism_census_memory_is_bounded_by_its_block():
    """q=3, N=6 (531,441 pairs) at the default block: one whole-grid block
    peaked near 100 MB."""
    tracemalloc.start()
    try:
        assert isomorphism_census(NestedLatticePair(N=6, q=3)) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_census_guards(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_PAIR_ENUM", 10)
    with pytest.raises(SizeGuardError):
        representation_census(NestedLatticePair(N=2, q=5))
    with pytest.raises(SizeGuardError):
        isomorphism_census(NestedLatticePair(N=2, q=5))


# ---------------------------------------------------------------------
# hashing, leftover, pinsker
# ---------------------------------------------------------------------


def test_hashing_census_guards_at_the_fixed_cap():
    # 2^16 matrices times 2^8 vectors exceed the 10^7 cap; both guards run before any work
    want = "needs 16777216 states, cap is 10000000"
    with pytest.raises(SizeGuardError, match="universal hash census " + want):
        universal_hash_census(2, 8, 2)
    with pytest.raises(SizeGuardError, match="leftover-hash census " + want):
        leftover_census(2, 8, 2, np.full(2**8, 2.0**-8))


def test_universal_hash_census_examples():
    prob, holds = universal_hash_census(2, 2, 1)
    assert prob == pytest.approx(0.5) and holds
    prob, holds = universal_hash_census(3, 2, 1)
    assert prob <= 1 / 3 + 1e-15 and holds


def _hash_collisions_reference(q, n, r):
    """max over ordered pairs a != b of #{G : G a = G b}, one pair at a time."""
    mats = all_matrices(q, r, n).astype(np.int64)
    vecs = digits(np.arange(q**n), q, n)
    return max(int(np.count_nonzero(np.all((mats @ (a - b)) % q == 0, axis=1)))
               for a, b in itertools.permutations(vecs, 2))


@pytest.mark.parametrize("q, n, r", [
    (q, n, r) for q in (2, 3) for n in (1, 2, 3) for r in (1, 2) if r <= n])
def test_universal_hash_census_matches_per_pair_loop(q, n, r):
    prob, holds = universal_hash_census(q, n, r)
    max_coll = _hash_collisions_reference(q, n, r)
    assert prob == max_coll / q ** (r * n)
    assert holds == (max_coll * q**r <= q ** (r * n))


def test_universal_hash_census_memory():
    """q=2, N=7, r=2: the int64 products are the census's one large array."""
    tracemalloc.start()
    try:
        assert universal_hash_census(2, 7, 2) == (0.25, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (2^14, 2^7 - 1, 2) products, reduced in place, 32 MiB, and a 2 MiB kernel mask
    assert peak < 40 * 2**20


def test_full_rank_census_enumeration_matches_matrix_row_rank(monkeypatch):
    # the census raises unless its enumerated count equals full_rank_fraction's count;
    # with that count replaced by an independent rank count, it checks the two paths agree
    enumerated = []

    def rank_count(q, rows, cols):
        total = q ** (rows * cols)
        if total > oracle._MAX_RANK_ENUM:
            return full_rank_fraction(q, rows, cols)
        enumerated.append((q, rows, cols))
        count = np.count_nonzero(matrix_row_rank(all_matrices(q, rows, cols), q) == rows)
        return int(count), total

    monkeypatch.setattr(oracle, "full_rank_fraction", rank_count)
    grid = [(q, cols) for q in (2, 3, 5) for cols in range(1, 5)]
    for q, cols in grid:
        oracle.full_rank_census(q, cols)
    assert enumerated == [(q, rows, cols) for q, cols in grid for rows in range(1, cols + 1)
                          if q ** (rows * cols) <= oracle._MAX_RANK_ENUM]
    assert len(enumerated) == 24
    monkeypatch.setattr(oracle, "full_rank_fraction",
                        lambda q, rows, cols: (full_rank_fraction(q, rows, cols)[0] + 1, 1))
    with pytest.raises(AssertionError, match="disagrees with product count"):
        oracle.full_rank_census(2, 2)


def test_full_rank_census_one_level_pass_per_width(monkeypatch):
    levels_drawn = []

    def counting_levels(q, cols):
        levels_drawn.append(0)
        for level in row_space_levels(q, cols):
            levels_drawn[-1] += 1
            yield level

    monkeypatch.setattr(oracle, "row_space_levels", counting_levels)
    for q, cols, drawn in [(2, 1, 2), (2, 4, 5), (3, 3, 4), (3, 4, 3)]:
        # at q=3, cols=4 only rows 1 and 2 are enumerated: 3^12 matrices exceed the cap
        census = oracle.full_rank_census(q, cols)
        assert [row[0] for row in census] == list(range(1, cols + 1))
        for rows, count, total, holds in census:
            assert (count, total) == full_rank_fraction(q, rows, cols)
            assert holds == (Fraction(count, total) >= 1 - Fraction(q) ** (rows - cols))
        assert levels_drawn.pop() == drawn and not levels_drawn
    assert oracle.full_rank_census(2, 3)[1] == (2, 42, 64, True)


def test_universal_hash_census_grid():
    for q in (2, 3):
        for n in (1, 2, 3):
            for r in (1, 2):
                if r > n:
                    continue
                prob, holds = universal_hash_census(q, n, r)
                assert holds
                assert prob == pytest.approx(q**-r)


def test_leftover_census_uniform_gf2():
    avg, bound, holds = leftover_census(2, 2, 1, np.full(4, 0.25))
    assert avg == pytest.approx(0.75)  # three informative maps out of four
    assert bound == pytest.approx(1 - 2 ** (1 - 2) / math.log(2))
    assert holds


def test_leftover_census_point_mass_vacuous():
    avg, bound, holds = leftover_census(2, 2, 1, np.array([1.0, 0.0, 0.0, 0.0]))
    assert avg == 0.0
    assert bound < 0  # vacuous
    assert holds


def test_leftover_census_uniform_gf3():
    avg, bound, holds = leftover_census(3, 2, 1, np.full(9, 1 / 9))
    assert holds
    assert avg == pytest.approx((8 / 9) * math.log2(3))


def test_leftover_census_rejects_a_bad_source_law():
    for bad in (np.array([0.5, 0.5, 0.25, -0.25]),  # a negative entry
                np.array([0.25, 0.25, 0.25, 0.25 + 2e-12]),  # sum off 1 by more than 1e-12
                np.full(8, 1 / 8),  # a law over 8 outcomes, not q^N = 4
                np.full((2, 2), 0.25)):  # a table, not a vector
        with pytest.raises(ValueError):
            leftover_census(2, 2, 1, bad)


def test_pinsker_examples():
    lhs, rhs = pinsker_check(np.full((2, 2), 0.25))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)

    lhs, rhs = pinsker_check(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1 / (2 * math.log(2)))
    assert lhs >= rhs


def test_pinsker_randomized_sweep():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        raw = rng.random(shape)
        lhs, rhs = pinsker_check(raw / raw.sum())
        assert lhs >= rhs - 1e-12


def test_pinsker_stack_matches_per_joint_calls():
    rng = np.random.default_rng(41)
    raw = rng.random((4, 5, 3, 4))
    raw[0, :2, 1, :] = 0  # zero cells
    raw[1, 3] = np.eye(3, 4)
    laws = raw / raw.sum(axis=(-2, -1), keepdims=True)
    lhs, rhs = pinsker_check(laws)
    assert lhs.shape == rhs.shape == (4, 5)
    for idx in np.ndindex(4, 5):
        one = pinsker_check(laws[idx])
        assert isinstance(one[0], float) and one == (lhs[idx], rhs[idx])
        assert one[0] == pytest.approx(_mi_reference(laws[idx]), abs=1e-12)
    strict = laws[2:]  # no zero cells: bit-identical to the reference
    assert pinsker_check(strict)[0].tolist() == [[_mi_reference(j) for j in row] for row in strict]


def test_pinsker_stack_rejects_an_invalid_law_anywhere():
    laws = np.full((3, 4, 2, 2), 0.25)
    for pos in [(0, 0), (1, 2), (2, 3)]:  # the first law, one inside, the last
        bad = laws.copy()
        bad[pos][0, 0] = 0.3  # sums to 1.05
        with pytest.raises(ValueError):
            pinsker_check(bad)
    negative = laws.copy()
    negative[1, 2] = [[0.75, -0.25], [0.25, 0.25]]  # sums to 1
    with pytest.raises(ValueError):
        pinsker_check(negative)
    with pytest.raises(ValueError):
        pinsker_check(np.array([0.5, 0.5]))
    assert pinsker_check(laws)[0].shape == (3, 4)


def test_pinsker_mi_matches_count_table_reference():
    # count tables with zero cells, rows and columns: the law's I(A;B) is the counts' one
    rng = np.random.default_rng(23)
    counts = rng.integers(0, 3, size=(100, 4, 5))
    counts[:50, 1, :] = 0  # zero rows
    counts[25:75, :, 2] = 0  # zero columns
    for table in list(counts) + [rng.integers(0, 50, size=(3, 4)) for _ in range(100)]:
        mi = pinsker_check(table / table.sum())[0]
        assert mi == pytest.approx(_mi_reference(table), abs=1e-12)
        assert mi >= -1e-12


def test_joint_distribution_validation():
    for bad in (np.array([[0.5, 0.6]]),  # sums to 1.1
                np.array([[0.5, 0.5 + 2e-12]]),  # off 1 by more than 1e-12
                np.array([[0.75, -0.25], [0.25, 0.25]]),  # sums to 1, one entry negative
                np.array([[0.5, np.nan], [0.25, 0.25]]),  # not a number
                np.array([0.5, 0.5])):  # a vector, not a joint table
        with pytest.raises(ValueError):
            pinsker_check(bad)
