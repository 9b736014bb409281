"""Exhaustive oracle routines: exact values, guards, self-consistency."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from relaysec import fields, oracle
from relaysec.amd import AmdParams
from relaysec.amd import amd_tag
from relaysec.channel import HonestRelay
from relaysec.fields import (
    ExtField,
    all_matrices,
    digits,
    full_rank_fraction,
    matrix_row_rank,
    row_reduce,
    row_space_levels,
    undigits,
)
from relaysec.lattice import (
    NestedLatticePair,
    codebook_point,
    decode_fine_mod_coarse,
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
from relaysec.protocol import ProtocolParams, TwoHopProtocol, wilson_interval


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


def _engine_views(params, trials, chunk=20_000):
    """(seeds, ids) of the seed stages of noiseless honest trials 0..trials-1 at seed 7.

    ``seeds[stage]`` is the source's seed of stage 0 (x) or 1 (k) per trial, and
    ``ids[stage]`` the ``_seed_obs_counts`` observation id of what the relay saw
    in that exchange, formed from the engine's records of the end nodes' points.
    """
    proto = TwoHopProtocol(params)
    pair, q, n = proto.seed_pair, params.q, params.N
    seeds, ids = [[], []], [[], []]
    for start in range(0, trials, chunk):
        batch = proto.run_batch(HonestRelay(), 7, start, min(start + chunk, trials),
                                keep_records=True)
        for stage, seed in enumerate((batch.x, batch.k)):
            rec = batch.records[stage]
            residue, t = represent_sums(pair, rec.x1, rec.x2)
            ids[stage].append(undigits(decode_fine_mod_coarse(pair, residue), q) * 2**n + t - 1)
            seeds[stage].append(seed)
    return [np.concatenate(s) for s in seeds], [np.concatenate(i) for i in ids]


def _view_conformance(params, g, seeds, ids):
    """Per seed stage: (draws outside the support of g's exact joint, argmax-guesser hits)."""
    joint = _seed_obs_counts(NestedLatticePair(N=params.N, q=params.q), np.asarray(g))
    guess = joint.argmax(axis=0)
    return [(int(np.count_nonzero(joint[s, i] == 0)), int(np.count_nonzero(guess[i] == s)))
            for s, i in zip(seeds, ids)]


@pytest.mark.parametrize("params", [ProtocolParams(), ProtocolParams(
    q=5, r=1, d=1, N=2, msg_q=5, msg_N=1, msg_r0=1)])
def test_engine_relay_sees_what_the_oracle_assumes(params):
    # every (seed, observation) the engine draws lies in the exact joint's support, and the
    # exact argmax guesser hits at guessing_probability's rate (measured at the defaults:
    # 0.06324 against 0.0634496; at (5, 1, 1, 2): 0.26491 against 0.264)
    trials = 10**5
    seeds, ids = _engine_views(params, trials)
    g = TwoHopProtocol(params).extractor.matrix
    p_guess = guessing_probability(NestedLatticePair(N=params.N, q=params.q), g)
    for outside, hits in _view_conformance(params, g, seeds, ids):
        low, high = wilson_interval(hits, trials, 3.29)
        assert outside == 0 and low <= p_guess <= high, (outside, hits, p_guess)
    if params != ProtocolParams():
        return
    # mutation: the defaults modelled with an extractor of another orbit (P_guess 0.1296)
    wrong = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    p_wrong = guessing_probability(NestedLatticePair(N=params.N, q=params.q), wrong)
    assert p_wrong == 0.1296
    (outside, hits), _ = _view_conformance(params, wrong, seeds, ids)
    low, high = wilson_interval(hits, trials, 3.29)
    assert outside > 0 and not low <= p_wrong <= high, (outside, hits)


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
    monkeypatch.setattr(oracle, "_MAX_MATRIX_CELLS", 11**3 - 1)
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
    points = [codebook_point(pair, digits(k, q, n)) for k in range(size)]
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
    seed = ((digits(np.arange(size), q, n) @ g.T) % q) @ radix_r
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
    monkeypatch.setattr(oracle, "_MAX_MATRIX_CELLS", 100)
    with pytest.raises(SizeGuardError):  # 5^4 cells
        exact_seed_leakage(pair, np.array([[1, 0, 0]]))


def test_guards_state_a_huge_size_as_a_power():
    # 11^100001 has more digits than Python's int-to-str conversion allows, and is never built
    pair = NestedLatticePair(N=10**5, q=11)
    for statistic in (exact_seed_leakage, guessing_probability):
        with pytest.raises(SizeGuardError, match=r"class laws needs 11\^100001 states, cap is"):
            statistic(pair, np.ones((1, 10**5), dtype=np.int64))


def test_leakage_guard_applies_with_cached_coordinate_tables(monkeypatch):
    pair = NestedLatticePair(N=2, q=11)
    exact_seed_leakage(pair, np.array([[1, 1]]))  # fills the per-coordinate tables
    monkeypatch.setattr(oracle, "_MAX_MATRIX_CELLS", 11**3 - 1)
    with pytest.raises(SizeGuardError):  # 11^3 cells exceed the cap all the same
        exact_seed_leakage(pair, np.array([[1, 1]]))
    monkeypatch.setattr(oracle, "_MAX_MATRIX_CELLS", 11**3)
    assert exact_seed_leakage(pair, np.array([[1, 1]])) > 0


def test_leakage_guards_one_matrix_before_the_coordinate_tables(monkeypatch):
    # at q = 9973 one matrix's class laws hold q^2 cells
    def unbuilt(q, alpha):
        raise AssertionError(f"the q = {q} coordinate tables were built before the guard")

    monkeypatch.setattr(oracle, "_coordinate_classes", unbuilt)
    for statistic in (exact_seed_leakage, guessing_probability):
        with pytest.raises(SizeGuardError, match=r"one extractor's class laws needs 9973\^2 states"):
            statistic(NestedLatticePair(N=1, q=9973), np.array([[1]]))
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_MAX_MATRIX_CELLS", 11**3 - 1)
    with pytest.raises(SizeGuardError):  # q^r seeds times q^N classes
        exact_seed_leakage(NestedLatticePair(N=2, q=11), np.array([[1, 1]]))
    monkeypatch.setattr(oracle, "_MAX_MATRIX_CELLS", 11**3)
    assert exact_seed_leakage(NestedLatticePair(N=2, q=11), np.array([[1, 1]])) > 0


@pytest.mark.parametrize("q, n, r", [(5, 7, 1), (3, 11, 1)])
def test_class_pass_memory_per_cell(q, n, r):
    # one extractor's peak per class-law cell, so a call at _MAX_MATRIX_CELLS stays
    # near 200 MB (measured: 45 and 48 bytes for the leakage, 22 and 27 for P_guess)
    pair, g = NestedLatticePair(N=n, q=q), np.ones((r, n), dtype=np.int64)
    for statistic, bound in ((exact_seed_leakage, 64), (guessing_probability, 40)):
        statistic(pair, g)  # the cached coordinate tables are not the pass's
        tracemalloc.start()
        try:
            statistic(pair, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * q ** (r + n), (statistic.__name__, peak / q ** (r + n))


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


def _level(q, rows, cols):
    """The distinct RREFs of all rows x cols matrices: level ``rows`` of ``row_space_levels``."""
    return next(itertools.islice(row_space_levels(q, cols), rows, None))[0]


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
    rrefs = _level(q, 1, n)
    full = rrefs[rrefs.any(axis=(1, 2))]
    keys = np.unique(oracle._orbit_keys(full, q), axis=0)
    _every_matrix_its_own_key(monkeypatch)
    leaks = exact_seed_leakage(NestedLatticePair(N=n, q=q), full)
    assert len(keys) == len(set(leaks.tolist())) == orbits


def test_equal_orbit_keys_give_bit_equal_leakage(monkeypatch):
    # (q, r, N) = (5, 2, 4): the 806 row spaces take 18 leakage values under 91 keys,
    # since at r > 1 one orbit may get several keys
    q, r, n = 5, 2, 4
    rrefs = _level(q, r, n)
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


def _orbit_key_reference(rref, q):
    """The orbit key of one RREF, scale by scale and column by column."""
    r, n = rref.shape
    best = None
    for lam in range(1, q // 2 + 1):
        cols = []
        for c in (int(lam) * rref.astype(int) % q).T.tolist():
            neg = [(q - v) % q for v in c]
            cols.append(min(c, neg))  # lists compare lexicographically, top row first
        key = [v for row in zip(*sorted(cols)) for v in row]  # row-major, columns sorted
        best = key if best is None else min(best, key)
    return best


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_orbit_keys_match_a_scalar_reference(q):
    rng = np.random.default_rng(q)
    for r in (1, 2, 3):
        for n in range(r, 5):
            rref, _ = row_reduce(rng.integers(0, q, size=(40, r, n)), q)
            keys = oracle._orbit_keys(rref, q)
            assert keys.shape == (40, r * n)
            assert keys.tolist() == [_orbit_key_reference(m, q) for m in rref], (r, n)


def test_orbit_keys_blocks_over_scales(monkeypatch):
    # blocks of one scale each give the keys of one block for every scale
    q = 101
    rref, _ = row_reduce(np.random.default_rng(2).integers(0, q, size=(30, 2, 3)), q)
    whole = oracle._orbit_keys(rref, q)
    monkeypatch.setattr(oracle, "_ORBIT_BLOCK_CELLS", 1)
    assert oracle._orbit_keys(rref, q).tolist() == whole.tolist()


def test_orbit_keys_memory_is_bounded_over_scales():
    # q = 9973, N = 1: 4,986 scales, whose keys for 4,096 candidates at once would take 163 MB
    q = 9973
    rref, _ = row_reduce(np.random.default_rng(7).integers(1, q, size=(4096, 1, 1)), q)
    tracemalloc.start()
    try:
        keys = oracle._orbit_keys(rref, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.tolist() == [[1]] * 4096  # every nonzero scalar is one orbit
    assert peak < 16 * 8 * oracle._ORBIT_BLOCK_CELLS


def test_group_rows_matches_np_unique():
    rng = np.random.default_rng(9)
    for rows, cols, high in [(0, 3, 5), (1, 1, 2), (50, 1, 4), (200, 3, 3), (300, 6, 2), (64, 2, 11)]:
        keys = rng.integers(0, high, size=(rows, cols))
        _, first, key_id = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        got_first, got_id = oracle._group_rows(keys)
        assert got_first.tolist() == first.tolist() and got_id.tolist() == key_id.reshape(-1).tolist()


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
    # the row_space_levels representatives are the matrices that are their own rank-r RREF
    mats = all_matrices(q, r, n)
    rref, rank = row_reduce(mats, q)
    want = mats[(rank == r) & np.all(rref == mats, axis=(1, 2))]
    seen = []
    least_leaky = oracle._least_leaky

    def tail(pair, stack, rref, rank):
        seen.append(np.array(stack))
        return least_leaky(pair, stack, rref, rank)

    monkeypatch.setattr(oracle, "_least_leaky", tail)
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
    # the search hands its full-rank draws, with their (rref, rank), to the per-key evaluation
    seen = []

    def by_orbit_key(q, stack, rref, rank, statistic):  # a coarse stand-in with many ties
        seen.append((np.array(stack), np.array(rref), np.array(rank)))
        return np.sum(stack, axis=(1, 2)) % 3.0

    monkeypatch.setattr(oracle, "_by_orbit_key", by_orbit_key)
    rec = best_sampled_extractor(NestedLatticePair(N=2, q=2), 2, 50, np.random.default_rng(4))
    draws = np.random.default_rng(4).integers(0, 2, size=(50, 2, 2), dtype=np.int64)
    det = draws[:, 0, 0] * draws[:, 1, 1] - draws[:, 0, 1] * draws[:, 1, 0]
    full = draws[det % 2 == 1]  # a 2 x 2 binary matrix has rank 2 iff its determinant is odd
    assert 0 < len(full) < len(draws)
    assert len(seen) == 1 and np.array_equal(seen[0][0], full)
    rref, rank = row_reduce(full, 2)
    assert np.array_equal(seen[0][1], rref) and seen[0][2].tolist() == rank.tolist() == [2] * len(full)
    values = (np.sum(full, axis=(1, 2)) % 3).tolist()
    assert values.count(min(values)) > 1  # ties exist, so the order matters
    assert rec.matrix == tuple(map(tuple, full[values.index(min(values))].tolist()))
    assert rec.exact_mi_bits == min(values)


def test_sampled_search_row_reduces_its_draws_once(monkeypatch):
    calls = []
    reduce = fields.row_reduce

    def counted(m, q):
        calls.append(np.shape(m))
        return reduce(m, q)

    monkeypatch.setattr(fields, "row_reduce", counted)  # what matrix_row_rank would call
    monkeypatch.setattr(oracle, "row_reduce", counted)
    pair = NestedLatticePair(N=3, q=11)
    rec = best_sampled_extractor(pair, 1, 64, np.random.default_rng(3))
    assert calls == [(64, 1, 3)]
    monkeypatch.undo()
    draws = np.random.default_rng(3).integers(0, 11, size=(64, 1, 3), dtype=np.int64)
    full = draws[draws.any(axis=(1, 2))]
    mis = exact_seed_leakage(pair, full)
    assert rec.exact_mi_bits == mis.min() and rec.matrix == tuple(map(tuple, full[mis.argmin()].tolist()))


def test_sampled_search_guards_before_the_row_reduction(monkeypatch):
    def unreduced(m, q):
        raise AssertionError("the draws were row-reduced before the cell guard")

    monkeypatch.setattr(oracle, "row_reduce", unreduced)
    rng = np.random.default_rng(5)
    with pytest.raises(SizeGuardError, match=r"one extractor's class laws needs 11\^11 states"):
        best_sampled_extractor(NestedLatticePair(N=10, q=11), 1, 8, rng)
    # the draw came first, so the stream moved on by 8 x 1 x 10 words
    want = np.random.default_rng(5)
    want.integers(0, 11, size=(8, 1, 10))
    assert rng.integers(0, 100, 8).tolist() == want.integers(0, 100, 8).tolist()


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
    monkeypatch.setattr(oracle, "_MAX_MATRIX_CELLS", 5**3 - 1)
    with pytest.raises(SizeGuardError):
        guessing_probability(pair, np.array([[1, 2]]))
    with pytest.raises(ValueError, match="2 columns"):
        guessing_probability(pair, np.array([[1, 2, 3]]))


@pytest.mark.parametrize("q, n", [(5, 6), (11, 4)])
def test_unit_row_leakage_is_the_one_coordinate_value(q, n):
    # The coordinates are independent: a seed read off coordinate 1 leaks and is guessed
    # as at N = 1, and one read off coordinates 1 and 2 leaks twice as much and is guessed
    # with the square of the probability.  q^(2N) > 10^8 codeword pairs at both sizes.
    one, pair = NestedLatticePair(N=1, q=q), NestedLatticePair(N=n, q=q)
    leak, guess = exact_seed_leakage(one, [[1]]), guessing_probability(one, [[1]])
    e1, e12 = np.eye(1, n, dtype=np.int64), np.eye(2, n, dtype=np.int64)
    assert abs(exact_seed_leakage(pair, e1) - leak) < 1e-12
    assert guessing_probability(pair, e1) == guess
    assert abs(exact_seed_leakage(pair, e12) - 2 * leak) < 1e-12
    assert guessing_probability(pair, e12) == guess**2


def test_leakage_at_n6_r3_q5():
    # (N, r) = (6, 3) at q = 5, the d = 2 operating path's second point: 5^12 codeword
    # pairs, 5^9 class-law cells.  The default [I | ones] and the Reed-Solomon generator
    # (rows 1, a, a^2 at a in GF(5), and the point at infinity)
    pair = NestedLatticePair(N=6, q=5)
    identity_ones = np.hstack([np.eye(3, dtype=np.int64), np.ones((3, 3), dtype=np.int64)])
    reed_solomon = np.array([[1, 1, 1, 1, 1, 0], [0, 1, 2, 3, 4, 0], [0, 1, 4, 4, 1, 1]])
    stack = np.stack([identity_ones, reed_solomon])
    leak = exact_seed_leakage(pair, stack)
    assert leak.tolist() == [0.5004061842079448, 0.07141069256782107]
    assert leak.tolist() == [exact_seed_leakage(pair, g) for g in stack]
    guess = guessing_probability(pair, stack)
    assert guess.tolist() == [4211869 / 5**12, 2582629 / 5**12]
    assert guess.tolist() == [guessing_probability(pair, g) for g in stack]


def test_leakage_guard_bounds_the_class_laws_not_the_pairs():
    # (q, N, r) = (11, 5, 1): 11^10 codeword pairs, 11^6 cells, runs
    one, pair = NestedLatticePair(N=1, q=11), NestedLatticePair(N=5, q=11)
    e1 = np.eye(1, 5, dtype=np.int64)
    assert abs(exact_seed_leakage(pair, e1) - exact_seed_leakage(one, [[1]])) < 1e-12
    assert guessing_probability(pair, e1) == guessing_probability(one, [[1]])
    # (q, N, r) = (5, 8, 4): 5^12 cells, over the cap
    identity_ones = np.hstack([np.eye(4, dtype=np.int64), np.ones((4, 4), dtype=np.int64)])
    for statistic in (exact_seed_leakage, guessing_probability):
        with pytest.raises(SizeGuardError, match=r"one extractor's class laws needs 5\^12 states"):
            statistic(NestedLatticePair(N=8, q=5), identity_ones)


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


def _passing_seeds(params, dx):
    """count[s', dh]: the seeds at which (s', dx, dh) passes, over every forged message s'."""
    order, d = params.field.order, params.d
    add, sub = params.field.tables()["add"], params.field.tables()["sub"]
    xs = np.arange(order)
    sp = digits(np.arange(order**d), order, d)[:, None, :]
    dh = sub[amd_tag(params, sp, add[dx]), amd_tag(params, np.zeros(d, dtype=np.int64), xs)]
    return np.bincount((dh + np.arange(order**d)[:, None] * order).ravel(),
                       minlength=order ** (d + 1)).reshape(order**d, order)


def _amd_census_every_message(params):
    """The census over every forged message s' at dx = 0 and dx = 1: (histogram, max hits).

    dx = 1 stands for every dx != 0, and the zero perturbation is left out.
    """
    order = params.field.order
    per_dx = [np.bincount(_passing_seeds(params, dx).ravel(), minlength=order + 1)
              for dx in (0, 1)]
    hist = per_dx[0] + (order - 1) * per_dx[1]
    hist[order] -= 1
    return {h: int(n) for h, n in enumerate(hist) if n}, int(np.flatnonzero(hist).max())


# (q, r, d): GF(2), GF(2^2) d = 1 and 3, GF(2^3) d = 3, GF(2^4), GF(2^5), GF(2^8) d = 1,
# GF(3) d = 2 and 3, GF(3^2) d = 2, GF(3^3) d = 2, GF(5) d = 1 and 2, GF(5^2) d = 1 and 2,
# GF(7) d = 1 and 3, GF(11) d = 1, GF(13) d = 1 and 2; q divides d + 1 at 10 of them
_CENSUS_FIELDS = [(2, 1, 1), (2, 2, 1), (2, 2, 3), (2, 3, 3), (2, 4, 3), (2, 5, 1), (2, 8, 1),
                  (3, 1, 2), (3, 1, 3), (3, 2, 2), (3, 3, 2), (5, 1, 1), (5, 1, 2), (5, 2, 1),
                  (5, 2, 2), (7, 1, 1), (7, 1, 3), (11, 1, 1), (13, 1, 1), (13, 1, 2)]


@pytest.mark.parametrize("q, r, d", _CENSUS_FIELDS + [(5, 3, 2)])
def test_amd_census_matches_every_message(q, r, d):
    """One forged message per symmetry class gives the census over every message.

    The per-message reference runs on every field but GF(5^3), d = 2, where it takes seconds.
    """
    params = AmdParams(field=ExtField(q, r), d=d)
    census = exact_amd_win_census(params)
    references = [_amd_census_every_message(params)]
    if (q, r, d) != (5, 3, 2):
        references.append(_amd_census_reference(params, (0,) * d))
    for histogram, max_hits in references:
        assert census.histogram == histogram
        assert census.max_success == max_hits / q**r
        assert census.attacks == sum(histogram.values()) == q ** (r * (d + 2)) - 1
        assert census.holds == (max_hits <= d + 1)


def test_amd_census_independent_of_reference_message():
    # every reference message s of GF(5)^d, d = 1 and 2, gives the census from s = 0
    for d in (1, 2):
        params = AmdParams(field=ExtField(5, 1), d=d)
        want = _amd_census_reference(params, (0,) * d)
        for s in itertools.product(range(5), repeat=d):
            assert _amd_census_reference(params, s) == want, (d, s)
        assert exact_amd_win_census(params).histogram == want[0]


@pytest.mark.parametrize("q, r, d, s", [
    (5, 1, 1, (3,)), (5, 1, 2, (0, 0)), (5, 1, 2, (4, 1)), (2, 2, 1, (2,)), (3, 1, 2, (2, 1)),
    (5, 2, 2, (7, 19)), (2, 3, 3, (5, 0, 3)), (3, 2, 2, (4, 8)), (7, 1, 3, (6, 2, 5)),
    (5, 1, 4, (1, 0, 4, 2)),
])
@pytest.mark.parametrize("block_cells", [None, 1, 75, "ragged"])
def test_amd_census_blocks_match_per_message_loop(q, r, d, s, block_cells, monkeypatch):
    # None: the default block; 1: one forged message per block; 75: twelve forged messages
    # of GF(5) per block, at q^r + 1 cells each; ragged: just over half of the forged
    # messages per block, so the second block is partial.  q divides d + 1 at (2, 2, 1),
    # (3, 1, 2), (2, 3, 3), (3, 2, 2) and (5, 1, 4), so every message runs at dx = 1
    # there; at the others, (7, 1, 3) among them, only those with s'_d = 0.
    # The census starts from s = 0; the reference from s = 0 and from s gives the same.
    order = q**r
    if block_cells == "ragged":
        rows = oracle._forgery_rows(q, order, d)
        messages = int((rows[:, 1] - rows[:, 0]).sum())
        block_cells = (messages // 2 + 1) * (order + 1)
    if block_cells is not None:
        monkeypatch.setattr(oracle, "_AMD_BLOCK_CELLS", block_cells)
    params = AmdParams(field=ExtField(q, r), d=d)
    census = exact_amd_win_census(params)
    for reference in ((0,) * d, s):
        histogram, max_hits = _amd_census_reference(params, reference)
        assert census.histogram == histogram
        assert census.max_success == max_hits / order
        assert census.attacks == sum(histogram.values())
        assert census.holds == (max_hits <= d + 1)
    assert census.attacks == q ** (r * (d + 2)) - 1  # only the zero perturbation is left out


@pytest.mark.parametrize("q, r, d", [(2, 3, 1), (3, 2, 2), (7, 1, 2)])
def test_amd_census_every_nonzero_dx_gives_one_histogram(q, r, d):
    """The census enumerates dx = 0 and dx = 1 and counts dx = 1 for every dx != 0.

    Here every dx is enumerated, with every forged message s' and every dh.
    """
    params = AmdParams(field=ExtField(q, r), d=d)
    order = q**r
    add, sub = params.field.tables()["add"], params.field.tables()["sub"]
    xs = np.arange(order)
    base_tag = amd_tag(params, np.zeros(d, dtype=np.int64), xs)
    per_dx = np.zeros((order, order + 1), dtype=np.int64)  # per_dx[dx, hits]: (s', dh) cells
    for s_prime in itertools.product(range(order), repeat=d):
        dh = sub[amd_tag(params, np.array(s_prime), add[:, xs]), base_tag]  # dh[dx, x]
        for dx in range(order):
            per_dx[dx] += np.bincount(np.bincount(dh[dx], minlength=order), minlength=order + 1)
    for dx in range(2, order):
        assert np.array_equal(per_dx[dx], per_dx[1]), dx
    assert not np.array_equal(per_dx[0], per_dx[1])  # dx = 0 is a case of its own
    hist = per_dx[0] + (order - 1) * per_dx[1]
    hist[order] -= 1  # the zero perturbation
    assert exact_amd_win_census(params).histogram == {h: int(n) for h, n in enumerate(hist) if n}


@pytest.mark.parametrize("q, r, d", [(2, 3, 1), (3, 2, 2), (7, 1, 2), (5, 2, 1), (7, 1, 3),
                                     (5, 1, 4), (3, 1, 3)])
def test_amd_census_every_class_gives_one_histogram(q, r, d):
    """The symmetries the census enumerates by, checked on every forged message.

    dx = 0: (lam s', lam dh) passes at the seeds (s', dh) does, so every ray
    {lam s' : lam != 0} holds one count per dh, and the messages whose highest nonzero
    symbol is lam give one histogram for every lam.  dx = 1: when q does not divide d + 1,
    x -> x + c moves s'_d through every value, so each slice s'_d = v holds one message
    per translation orbit and every v gives one histogram, a 1/q^r share of the whole;
    when q divides d + 1 the slices are unions of orbits, and they differ.
    """
    params = AmdParams(field=ExtField(q, r), d=d)
    order = q**r
    mul = params.field.tables()["mul"]
    messages = digits(np.arange(order**d), order, d)
    count = _passing_seeds(params, 0)
    for lam in range(2, order):
        scaled = undigits(mul[lam, messages], order)  # the index of lam s'
        assert np.array_equal(count[scaled][:, mul[lam]], count), lam
    top = messages[np.arange(1, order**d), (messages[1:] != 0).cumsum(axis=1).argmax(axis=1)]
    per_count = np.apply_along_axis(np.bincount, 1, count, minlength=order + 1)
    rays = [per_count[1:][top == lam].sum(axis=0) for lam in range(1, order)]
    assert all(np.array_equal(ray, rays[0]) for ray in rays)
    per_count = np.apply_along_axis(np.bincount, 1, _passing_seeds(params, 1), minlength=order + 1)
    slices = [per_count[messages[:, -1] == v].sum(axis=0) for v in range(order)]
    same = all(np.array_equal(piece, slices[0]) for piece in slices)
    assert same == bool((d + 1) % q)
    if same:
        assert np.array_equal(order * slices[0], per_count.sum(axis=0))


@pytest.mark.parametrize("q, r", [(5, 2), (2, 8)])
def test_amd_census_d1_closed_form(q, r):
    """At d = 1, dx != 0 gives the monic quadratics, each once per dx: Q(Q-1)/2 with two
    roots, Q with one and Q(Q-1)/2 with none, Q = q^r.  dx = 0 gives s'x - dh, which
    has one root when s' != 0 and none when s' = 0 and dh != 0."""
    order = q**r
    census = exact_amd_win_census(AmdParams(field=ExtField(q, r), d=1))
    pairs = order * (order - 1) // 2
    assert census.histogram == {0: (order - 1) * pairs + order - 1,
                                1: (order - 1) * order + (order - 1) * order,
                                2: (order - 1) * pairs}


def test_amd_census_memory_is_bounded_by_its_block():
    """GF(2^8), d=1: 258 forged messages in blocks of 63, each message 256 dh cells and
    257 counts, peak near 1.1 MiB, most of it the tag's Horner temporaries.  A census
    over every dx with a need table per block of dx peaked near 2.6 MiB, and one need
    table for every dx at once would take 134 MB."""
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


def test_amd_census_guards_at_their_caps(monkeypatch):
    # GF(5^2), d = 2 enumerates 25 (1 + 26 + 25) = 1,300 (s', dx, dh) cells: s' = 0 and the
    # 26 messages whose highest nonzero symbol is 1 at dx = 0, the 25 with s'_2 = 0 at
    # dx = 1; its field tables hold 25^2 cells each
    params = AmdParams(field=ExtField(5, 2), d=2)
    want = exact_amd_win_census(params)
    for cap, size, what in [("MAX_ATTACK_ENUM", 1300, r"attack census needs 1300"),
                            ("_MAX_FIELD_CELLS", 25**2, r"field tables needs 25\^2")]:
        monkeypatch.setattr(oracle, cap, size)
        assert exact_amd_win_census(params) == want
        monkeypatch.setattr(oracle, cap, size - 1)
        with pytest.raises(SizeGuardError, match=what + f" states, cap is {size - 1}"):
            exact_amd_win_census(params)
        monkeypatch.undo()


def test_amd_census_guards_run_before_the_field_tables(monkeypatch):
    # GF(2^11), d = 1: 2048 (2 + 2048) cells are within the attack cap, but each field table
    # would hold 2048^2 int64 cells (32 MiB); GF(2^7), d = 3 needs 128 (1 + 16513 + 128^3)
    # cells, over the attack cap; at GF(2^9), d = 3 the message ints alone run past it
    def no_tables(*args):
        raise AssertionError("field tables built")

    monkeypatch.setattr(fields, "_op_tables", no_tables)
    with pytest.raises(SizeGuardError, match=r"field tables needs 2048\^2 states"):
        exact_amd_win_census(AmdParams(field=ExtField(2, 11), d=1))
    with pytest.raises(SizeGuardError, match=r"attack census needs 270549248 states"):
        exact_amd_win_census(AmdParams(field=ExtField(2, 7), d=3))
    with pytest.raises(SizeGuardError, match=r"message range needs 512\^3 states"):
        exact_amd_win_census(AmdParams(field=ExtField(2, 9), d=3))


def test_amd_census_gf625_d2_runs_under_the_default_cap():
    """(8, 4) at q = 5: 625^4 attack tuples from 625 (1 + 626 + 625) = 782,500 cells."""
    census = exact_amd_win_census(AmdParams(field=ExtField(5, 4), d=2))
    assert census.holds and census.max_success == census.bound == 3 / 625
    assert census.attacks == 625**4 - 1 == sum(census.histogram.values())


def test_amd_census_gf125_d2_runs_under_the_default_cap():
    """(N, r) = (6, 3) at q = 5: 125^4 attack tuples, which a guard on them would refuse."""
    census = exact_amd_win_census(AmdParams(field=ExtField(5, 3), d=2))
    assert census.holds and census.max_success == census.bound == 0.024
    assert census.attacks == 125**4 - 1 == sum(census.histogram.values())


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
    coords = [digits(k, pair.q, pair.N) for k in range(pair.q**pair.N)]
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
    points = [codebook_point(pair, digits(k, pair.q, pair.N)) for k in range(size)]
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


@pytest.mark.parametrize("census, name", [(representation_census, "representation census"),
                                          (isomorphism_census, "isomorphism census")])
def test_pair_census_guards_at_their_cap(census, name, monkeypatch):
    pair = NestedLatticePair(N=2, q=5)  # 5^4 codebook pairs
    monkeypatch.setattr(oracle, "MAX_PAIR_ENUM", 5**4)
    assert census(pair) == (True, None)
    monkeypatch.setattr(oracle, "MAX_PAIR_ENUM", 5**4 - 1)
    with pytest.raises(SizeGuardError, match=f"{name} needs 5\\^4 states, cap is 624"):
        census(pair)


@pytest.mark.parametrize("census, name", [(representation_census, "representation census"),
                                          (isomorphism_census, "isomorphism census")])
def test_pair_census_default_cap_refuses_before_any_work(census, name, monkeypatch):
    # N = 2 at q = 101: 101^4 = 104,060,401 pairs, the first size above 10^8 at N = 2
    def no_points(*args):
        raise AssertionError("codebook points built")

    monkeypatch.setattr(oracle, "codebook_point", no_points)
    with pytest.raises(SizeGuardError, match=f"{name} needs 101\\^4 states, cap is 100000000"):
        census(NestedLatticePair(N=2, q=101))


# ---------------------------------------------------------------------
# hashing, leftover, pinsker
# ---------------------------------------------------------------------


def test_hashing_census_guards_at_the_fixed_cap():
    # 2^16 matrices times 2^8 vectors exceed the 10^7 cap; both guards run before any work
    want = r"needs 2\^24 states, cap is 10000000"
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


@pytest.mark.parametrize("q, cols, short_rows", [(3, 4, 3), (2, 5, 4)])
def test_full_rank_census_fails_a_count_below_its_bound(q, cols, short_rows, monkeypatch):
    # q^(rows * cols) exceeds _MAX_RANK_ENUM at short_rows, so no enumeration checks the
    # count there; one matrix below ceil((1 - q^(rows - cols)) total) must fail the bound
    assert q ** (short_rows * cols) > oracle._MAX_RANK_ENUM

    def short_count(q, rows, cols):
        count, total = full_rank_fraction(q, rows, cols)
        if rows == short_rows:
            count = math.ceil((1 - Fraction(q) ** (rows - cols)) * total) - 1
        return count, total

    monkeypatch.setattr(oracle, "full_rank_fraction", short_count)
    census = oracle.full_rank_census(q, cols)
    assert [holds for *_, holds in census] == [rows != short_rows for rows in range(1, cols + 1)]


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
