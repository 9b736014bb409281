"""Four-stage protocol: correctness, detection, rates, determinism."""

import math
import os
import re
import warnings

import numpy as np
import pytest

from relaysec import amd, protocol
from relaysec.amd import amd_verify, win_bound
from relaysec.channel import (
    AdditiveLatticeOffset,
    CustomRelay,
    HonestRelay,
    PhaseRecord,
    RandomGarble,
    SubstituteLattice,
    power_audit,
)
from relaysec.lattice import (
    NestedLatticePair,
    average_codebook_power,
    codebook_point,
    decode_fine_mod_coarse,
    lattice_add,
)
from relaysec.protocol import (
    ProtocolParams,
    TwoHopProtocol,
    draw_layout,
    operating_point,
    payload_bits,
    wilson_interval,
)

from closed_form import rate_accounting

TINY = ProtocolParams(q=5, r=1, d=1, N=2, msg_q=5, msg_N=1, msg_r0=1)
DEFAULT = ProtocolParams()


def proto(params=DEFAULT):
    return TwoHopProtocol(params)


class StagedRelay:
    """Test helper: honest forwarding with a coords offset on chosen stages.

    Exchange positions within a batch: 0 and 1 are the seed exchanges, 2
    is the silent tag exchange, 3.. are the message blocks.
    """

    def __init__(self, protocol, offsets):
        self.protocol = protocol
        self.offsets = offsets  # position -> coords tuple, or "msg" for all blocks
        self.hops = 3 + protocol.blocks
        self.calls = 0

    def __call__(self, words, yr, s):
        pos = self.calls % self.hops
        self.calls += 1
        p = self.protocol
        pair = p.seed_pair if pos < 2 else (p.tag_pair if pos == 2 else p.msg_pair)
        t = decode_fine_mod_coarse(pair, yr)
        delta = self.offsets.get(pos)
        if delta is None and pos >= 3 and "msg" in self.offsets:
            delta = self.offsets["msg"]
        if delta is not None:
            t = lattice_add(pair, t, np.array(delta))
        return codebook_point(pair, t)


# ---------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(q=5, d=3)  # d + 2 divisible by q
    with pytest.raises(ValueError):
        ProtocolParams(q=5, r=3, N=4)  # beyond the extractable cap
    with pytest.raises(ValueError):
        ProtocolParams(msg_q=2, msg_N=4, msg_r0=1)  # binary code has no margin
    # the field's premises are checked before the caps that depend on r and N
    with pytest.raises(ValueError, match="q=4 is not prime"):
        ProtocolParams(q=4)
    with pytest.raises(ValueError, match="d \\+ 2 = 4 must not be divisible by q = 2"):
        ProtocolParams(q=2)
    # epsilon = -5 lifted the extractable cap above N = 2, and NaN crashed r_max
    for epsilon in (0.0, -5.0, math.nan):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            ProtocolParams(epsilon=epsilon, r=3, N=2)


@pytest.mark.parametrize("channel, message", [
    ({"power_limit": 0.0}, "power limit must be positive"),
    ({"power_limit": -1.0}, "power limit must be positive"),
    ({"noise_var_relay": -0.5}, "noise variances must be nonnegative"),
    ({"noise_var_dest": -1e-9}, "noise variances must be nonnegative"),
    # every rate read 1.0: a NaN reached the decoder's int64 cast
    ({"noiseless": False, "noise_var_relay": 1e308},
     "noise_var_relay = 1e[+]308: the largest noise draw, 8.57 deviations, leaves the int64"),
    ({"noiseless": False, "noise_var_dest": 1e308}, "noise_var_dest = 1e[+]308: the largest"),
    # 8.57 sqrt(3e35) = 4.7e18 > 2^62
    ({"noiseless": False, "noise_var_relay": 3e35}, "noise_var_relay = 3e[+]35: the largest"),
    ({"noiseless": False, "noise_var_relay": math.inf}, "noise_var_relay = inf: the largest"),
    ({"noiseless": False, "noise_var_dest": math.nan}, "noise_var_dest = nan: the largest"),
    # y / alpha leaves the range however small the noise
    ({"noiseless": False, "alpha": 1e-300}, "noise_var_relay = 1.0: the largest"),
])
def test_params_reject_bad_channel_settings(channel, message):
    with pytest.raises(ValueError, match=message):
        ProtocolParams(**channel)


@pytest.mark.parametrize("params, message", [
    # build_encoder enumerated all 5^10 points and died with a MemoryError
    ({"msg_N": 10}, "the message code's 5^10 codebook points exceed 100000"),
    ({"msg_N": 2**63}, f"the message code's 5^{2**63} codebook points exceed 100000"),
    # these ran, at a per-use power of 32 and with PT = inf
    ({"alpha": 4.0}, "the (q=5, alpha=4.0) code's per-use power 32.0 exceeds power_limit = 30.0"),
    ({"alpha": 1e300}, "the (q=5, alpha=1e+300) code's per-use power inf exceeds"),
    ({"alpha": 2.0, "power_limit": 7.9}, "the (q=5, alpha=2.0) code's per-use power 8.0 exceeds"),
    ({"msg_q": 23, "msg_r0": 1}, "the (msg_q=23, alpha=1.0) code's per-use power 44.0 exceeds"),
    ({"q": 23, "r": 1}, "the (q=23, alpha=1.0) code's per-use power 44.0 exceeds"),
    # simulate died with an "array is too big" or a 3.81 GiB MemoryError traceback
    ({"N": 2**63}, f"a trial draws {10 * 2**63 + 60} words, more than 16384, the most the "
                   "simulator draws per trial in batches of 512"),
    ({"N": 100000}, "a trial draws 1000060 words, more than 16384"),
])
def test_params_reject_an_oversized_message_code_or_codebook_power(params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ProtocolParams(**params)


@pytest.mark.parametrize("params, message", [
    # trial division to sqrt(2^61 - 1) ran first, and simulate and scan hung
    ({"q": 2**61 - 1, "r": 1, "d": 1}, f"GF({2**61 - 1}^r) has more than 1024 elements"),
    ({"msg_q": 2**61 - 1}, f"the message code's {2**61 - 1}^msg_N codebook points exceed 100000"),
])
def test_params_reject_a_huge_q_before_any_primality_test(params, message, monkeypatch):
    def trial_division(q):
        raise AssertionError(f"is_prime({q}) ran before the cap")

    monkeypatch.setattr(protocol, "is_prime", trial_division)
    monkeypatch.setattr(amd, "is_prime", trial_division)
    with pytest.raises(ValueError, match=re.escape(message)):
        ProtocolParams(**params)


def test_gaussian_params_admit_the_noise_the_decoder_holds():
    ProtocolParams(noise_var_relay=math.nan, noise_var_dest=1e308)  # noiseless: no noise drawn
    ProtocolParams(noiseless=False, alpha=3.6, noise_var_relay=0.1, noise_var_dest=0.1)
    ProtocolParams(noiseless=False, alpha=1e-300, noise_var_relay=0.0, noise_var_dest=0.0)
    p = ProtocolParams(noiseless=False, noise_var_relay=1e35, noise_var_dest=1e35)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN or overflowing int64 cast warns
        counts = TwoHopProtocol(p).run_batch(HonestRelay(), 1, 0, 200).counts()
    assert counts.sum() > 0


def test_trial_word_cap_edge():
    # at the other defaults W grows by about 10 words per unit of N
    assert draw_layout(ProtocolParams(N=1632))[1] == 16380
    with pytest.raises(ValueError, match="a trial draws 16388 words, more than 16384"):
        ProtocolParams(N=1633)


def test_codebook_power_premise_matches_the_lattice():
    # the edges the premise admits: msg_N = 7 at msg_q = 5, and a power equal to the limit
    ProtocolParams(msg_N=7)
    p = TwoHopProtocol(ProtocolParams(alpha=2.0, power_limit=8.0))
    assert max(p.stage_powers()) <= 8.0  # the message stage's K-average stays below it
    p = TwoHopProtocol(ProtocolParams(alpha=3.6))  # the Gaussian operating point, power 25.92
    assert max(p.stage_powers()) == pytest.approx(25.92) and 25.92 < p.params.power_limit


# ---------------------------------------------------------------------
# honest runs
# ---------------------------------------------------------------------


def test_honest_noiseless_exhaustive_messages():
    p = proto(TINY)  # d = 1: the messages are the 5 elements of GF(5)
    b = p.run_batch(HonestRelay(), 1, 0, 60)
    assert np.array_equal(np.unique(b.s), np.arange(p.ext_field.order))  # every message occurs
    assert b.decodable.all() and np.array_equal(b.s_hat, b.s)
    assert b.accepted.all() and not b.decode_errors().any()
    for a, a_hat in [(b.x, b.x_hat), (b.k, b.k_hat), (b.u, b.u_hat)]:
        assert np.array_equal(a, a_hat)


def test_honest_default_params_many_trials():
    b = proto().run_batch(HonestRelay(), 7, 0, 100)
    assert b.accepted.all() and not b.decode_errors().any()


def test_stage_diagnostics_consistent():
    p = proto()
    b = p.run_batch(HonestRelay(), 1, 0, 50)
    assert np.array_equal(b.h_hat, p.ext_field.tables()["sub"][b.u_hat, b.k_hat])


def test_acceptance_is_pure_replay():
    p = proto()
    for behavior in [HonestRelay(), SubstituteLattice((1,)), RandomGarble()]:
        b = p.run_batch(behavior, 11, 0, 30)
        verifies = b.decodable & amd_verify(p.amd, b.s_hat, b.x_hat, b.h_hat)
        assert np.array_equal(verifies, b.accepted)


# ---------------------------------------------------------------------
# attacks (noiseless algebra)
# ---------------------------------------------------------------------


def test_substitution_seed_is_g_of_t3_minus_jam():
    """Stage-0 substitution leaves the destination seed g(t3 - t2).

    The jamming draw is reproduced from the trial's seeding contract:
    trial i of seed 3 owns words i*W .. (i+1)*W - 1 of Philox(key=3); its
    stage-0 jam is N words after the d message words and the N stage-0
    source words, each mapped to floor(w * q / 2^64).
    """
    p = proto(TINY)
    prm = p.params
    t3 = np.array([2, 4])
    n_rand = math.floor(prm.msg_N * math.log2(prm.msg_q)) - prm.msg_r0
    blocks = math.ceil(payload_bits(prm.q, prm.r, prm.d) / prm.msg_r0)
    uses = 2 * prm.N + prm.r + blocks * prm.msg_N
    words = prm.d + 4 * prm.N + blocks * (n_rand + prm.msg_N) + 3 * uses
    words += -words % 4
    trials = 50
    b = p.run_batch(SubstituteLattice(tuple(t3)), 3, 0, trials)
    raw = np.random.Philox(key=3).random_raw(trials * words).reshape(trials, words)
    for i in range(trials):
        jam = raw[i, prm.d + prm.N : prm.d + 2 * prm.N]
        t2 = np.array([(int(w) * prm.q) >> 64 for w in jam])
        want = (p.extractor.matrix @ ((t3 - t2) % p.params.q)) % p.params.q
        assert b.x_hat[i] == want[0]  # r = 1: the seed is its one coordinate
    assert len(set(b.x_hat.tolist())) > 1  # varies with the jamming, not pinned to x


def test_additive_offset_shifts_seed_by_extractor_image():
    p = proto()
    delta = (1, 0, 2, 1)
    b = p.run_batch(AdditiveLatticeOffset(delta), 5, 0, 20)
    shift = (p.extractor.matrix @ np.array(delta)) % p.params.q
    shift_int = int(shift @ p.params.q ** np.arange(p.params.r))
    assert np.array_equal(b.x_hat, p.ext_field.tables()["add"][b.x, shift_int])


def test_otp_stage_offset_becomes_additive_tag_error():
    """A fine-lattice offset on the silent hop shifts u-hat additively."""
    p = proto()
    relay = StagedRelay(p, {2: (1, 0)})
    b = p.run_batch(CustomRelay(relay), 21, 0, 1)
    add, sub = p.ext_field.tables()["add"], p.ext_field.tables()["sub"]
    eps = 1  # coords (1, 0)
    assert b.u_hat[0] == add[b.u[0], eps]
    assert b.h_hat[0] == sub[add[b.u[0], eps], b.k_hat[0]]
    # seeds and message rode honest hops: an h-only forgery never verifies
    assert not b.decode_errors()[0]
    assert not b.accepted[0]


def test_substitution_win_rate_within_bound():
    p = proto()
    ((errors, _, wins),) = p.monte_carlo([SubstituteLattice((1,))], 2000, seed=31)
    bound = win_bound(p.amd)
    sigma = math.sqrt(bound * (1 - bound) / 2000)
    assert wins / 2000 <= bound + 3 * sigma
    assert errors / 2000 > 0.9  # the forged message rarely matches


def test_message_only_offset_wins_occur_but_stay_bounded():
    """Offsetting only the message blocks keeps x and h honest.

    Acceptance then needs tag(s_hat, x) == tag(s, x) with s_hat != s, a
    root condition on the uniform seed: wins occur but obey the bound.
    """
    p = proto()
    trials = 4000
    b = p.run_batch(CustomRelay(StagedRelay(p, {"msg": (1, 2)})), 77, 0, trials)
    forged = b.decodable & np.any(b.s_hat != b.s, axis=1)
    wins = int(np.sum(forged & b.accepted))
    bound = win_bound(p.amd)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert wins / trials <= bound + 3 * sigma
    assert forged.any()  # the attack does produce decodable forgeries
    # the relay draws nothing, so the counts are those of one trial per batch
    assert (wins, int(forged.sum())) == (14, 219)


def test_win_bound_distribution_free_in_message():
    """The detection bound holds per message value, not just on average."""
    p = proto(TINY)
    bound = win_bound(p.amd)
    batch = p.run_batch(SubstituteLattice((1,)), 0, 0, 10_000)
    wins = batch.accepted & np.any(batch.s_hat != batch.s, axis=1)
    for s_val in range(p.ext_field.order):
        group = batch.s[:, 0] == s_val
        trials = int(group.sum())
        assert trials > 1500  # each of the 5 values is drawn about 2,000 times
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert wins[group].sum() / trials <= bound + 3 * sigma


# ---------------------------------------------------------------------
# serialization and rate accounting
# ---------------------------------------------------------------------


def test_payload_bits_examples():
    assert payload_bits(5, 2, 2) == 10  # ceil(4 log2 5) = ceil(9.29)
    assert payload_bits(2, 3, 2) == 6  # exactly 6 bits
    assert payload_bits(11, 20, 4) == 277


def test_message_bit_round_trip():
    p = proto()
    s = np.random.default_rng(3).integers(0, p.ext_field.order, size=(50, p.params.d))
    symbols, fits = p._blocks_to_symbols(p._symbols_to_blocks(s))
    assert np.array_equal(symbols, s) and fits.all()
    # five 2-bit blocks of ones encode 1023 >= 25^2: no message has that value
    _, fits = p._blocks_to_symbols(np.full((1, p.blocks), 3))
    assert not fits[0]


def test_message_block_round_trip_at_64_padded_bits():
    # a 62-bit payload in 16 blocks of 4 bits: the padded value needs Python ints
    p = proto(ProtocolParams(q=7, r=2, d=11, N=4, msg_q=11, msg_N=2, msg_r0=4))
    assert (p.payload_bits, p.blocks) == (62, 16)
    order = p.ext_field.order
    s = np.random.default_rng(5).integers(0, order, size=(50, p.params.d))
    s[0], s[1] = 0, order - 1  # the values 0 and q^(rd) - 1
    blocks = p._symbols_to_blocks(s)
    assert blocks.dtype == np.int64 and blocks.min() >= 0 and blocks.max() < 16
    for row, sym in zip(blocks, s):
        value = sum(int(v) * order**j for j, v in enumerate(sym))
        assert [int(b) for b in row] == [(value >> 4 * j) & 15 for j in range(16)]
    symbols, fits = p._blocks_to_symbols(blocks)
    assert np.array_equal(symbols, s) and fits.all()
    # 2^64 - 1, and 2^62 with zero payload bits: both at least q^(rd) = 49^11 > 2^61
    ones = np.full((1, 16), 15)
    top = np.zeros((1, 16), dtype=np.int64)
    top[0, 15] = 4
    _, fits = p._blocks_to_symbols(np.vstack([ones, top]))
    assert not fits.any()


def _blocks_to_symbols_by_digit(p, blocks):
    """The digit-at-a-time loop that ``_blocks_to_symbols`` replaces, for comparison."""
    value = blocks.astype(p._block_weights.dtype) @ p._block_weights
    order = p.ext_field.order
    symbols = np.empty((len(blocks), p.params.d), dtype=np.int64)
    for j in range(p.params.d):
        symbols[:, j] = value % order
        value = value // order
    return symbols, (value == 0).astype(bool)


@pytest.mark.parametrize("params", [
    ProtocolParams(),
    ProtocolParams(q=7, r=2, d=11, N=4, msg_q=11, msg_N=2, msg_r0=4),  # 62 bits, 64 padded
    ProtocolParams(q=11, r=2, N=3, d=10),  # a 70-bit payload
])
def test_blocks_to_symbols_equals_the_digit_loop(params):
    p = proto(params)
    blocks = np.random.default_rng(8).integers(0, 2**params.msg_r0, size=(400, p.blocks))
    blocks[0], blocks[1] = 0, 2**params.msg_r0 - 1  # the least and the greatest value
    (symbols, fits), (want, want_fits) = (p._blocks_to_symbols(blocks),
                                          _blocks_to_symbols_by_digit(p, blocks))
    assert symbols.dtype == want.dtype and np.array_equal(symbols, want)
    assert fits.dtype == want_fits.dtype and np.array_equal(fits, want_fits)
    assert fits[0] and not fits[1] and fits[2:].any()


def test_block_count_and_rate_examples():
    # ceil(276.75 / 100) message blocks with a 100-bit-per-block encoder
    assert math.ceil(payload_bits(11, 20, 4) / 100) == 3
    n, rt = rate_accounting(100, 20, 11, 4, 1.0)
    assert n == 520
    assert rt == pytest.approx(4 * 20 * math.log2(11) / (2 * 520), rel=1e-12)
    assert round(rt, 3) == 0.266


def test_average_power_matches_power_audit_identity():
    p = proto()
    # trial 5 of seed 13: one (1, N) row per exchange record
    records = list(p.run_batch(HonestRelay(), 13, 5, 6, keep_records=True).records)
    stage01, stage2, stage3 = records[:2], records[2], records[3:]
    p1 = sum(float(np.sum(rec.x1**2)) for rec in stage01) / (2 * p.params.N)
    p2 = float(np.sum(stage2.x1**2)) / p.params.r
    msg_uses = sum(np.size(rec.x1) for rec in stage3)
    p3 = sum(float(np.sum(rec.x1**2)) for rec in stage3) / msg_uses
    audit = power_audit(records, p.params.power_limit)
    assert p.average_power(p1, p2, p3) == pytest.approx(audit["node1"]["average_power"],
                                                        abs=1e-9)
    assert audit["node1"]["channel_uses"] == operating_point(p.params)[0]


def test_power_audit_of_batch_records_averages_the_rows():
    """(B, N) records: B*n uses per node, and the mean of the per-row powers.

    Every trial transmits on the same number of uses, so the batch's
    average power is the mean of its trials' averages.
    """
    p = proto()
    trials = 40
    batch = p.run_batch(RandomGarble(), 13, 0, trials, keep_records=True)
    audit = power_audit(batch.records, p.params.power_limit)
    rows = [power_audit([PhaseRecord(*(getattr(rec, k)[i : i + 1] for k in
                                       ("x1", "x2", "yr", "xr", "y2")), rec.node2_active)
                         for rec in batch.records], p.params.power_limit) for i in range(trials)]
    n, prm = operating_point(p.params)[0], p.params
    node2_uses = 2 * prm.N + p.blocks * prm.msg_N  # node 2 is silent in the tag stage
    for node, uses in [("node1", n), ("node2", node2_uses), ("relay", n)]:
        assert audit[node]["channel_uses"] == trials * uses
        assert all(row[node]["channel_uses"] == uses for row in rows)
        mean = np.mean([row[node]["average_power"] for row in rows])
        assert audit[node]["average_power"] == pytest.approx(mean, rel=1e-12)


def test_rate_monotone_toward_half_Re():
    re = 1.0
    values = [rate_accounting(25, 25, 2, d, re)[1] for d in range(1, 65)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(v < 0.5 * re for v in values)
    assert 0.5 * re - values[-1] < 0.025


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


# ---------------------------------------------------------------------
# Monte Carlo determinism and seed uniformity
# ---------------------------------------------------------------------


def test_monte_carlo_honest_zero_rates():
    counts = proto().monte_carlo([HonestRelay()], 300, seed=2)
    assert np.array_equal(counts, [[0, 0, 0]]) and counts.dtype == np.int64


def test_monte_carlo_deterministic_across_workers():
    p = proto()
    r1 = p.monte_carlo([SubstituteLattice((1,))], 240, workers=1, seed=9)
    r2 = p.monte_carlo([SubstituteLattice((1,))], 240, workers=2, seed=9)
    r3 = p.monte_carlo([SubstituteLattice((1,))], 240, workers=3, seed=9)
    assert np.array_equal(r1, r2) and np.array_equal(r1, r3)


class InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, the tasks submitted
    and the most submitted and not yet read, and runs each task here as it is
    submitted."""

    built = []
    submitted = 0
    most_unread = 0

    def __init__(self, max_workers):
        self.built.append(max_workers)
        self.unread = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        InlinePool.submitted += 1
        self.unread += 1
        InlinePool.most_unread = max(InlinePool.most_unread, self.unread)
        return _Done(self, fn(*args))


class _Done:
    """A finished task of an InlinePool; reading its result marks it read."""

    def __init__(self, pool, value):
        self.pool, self.value = pool, value

    def result(self):
        self.pool.unread -= 1
        return self.value


def _inline_pool(monkeypatch, cpus):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "built", [])
    monkeypatch.setattr(InlinePool, "submitted", 0)
    monkeypatch.setattr(InlinePool, "most_unread", 0)
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("workers, cpus, pool", [
    (100_000, 64, 4),  # capped at the four chunks
    (100_000, 3, 3),   # capped at the usable CPUs
    (2, 64, 2),
    (100_000, 1, None),  # a pool of one runs in this process
])
def test_monte_carlo_pool_is_capped_at_tasks_and_cpus(monkeypatch, workers, cpus, pool):
    _inline_pool(monkeypatch, cpus)
    monkeypatch.setattr(protocol, "BATCH_TRIALS", 8)  # 30 trials are four chunks
    behaviors = [HonestRelay(), SubstituteLattice((1,)), AdditiveLatticeOffset((1,)),
                 RandomGarble()]
    p = proto(TINY)
    counts = p.monte_carlo(behaviors, 30, workers=workers, seed=5)
    assert InlinePool.built == ([] if pool is None else [pool])
    assert np.array_equal(counts, p.monte_carlo(behaviors, 30, seed=5))


def test_monte_carlo_pool_keeps_two_tasks_per_process_in_flight(monkeypatch):
    _inline_pool(monkeypatch, 3)
    behaviors = [HonestRelay(), SubstituteLattice((1,)), RandomGarble()]
    p = proto(TINY)
    trials = 6 * protocol.BATCH_TRIALS + 7  # seven chunks, one task each
    counts = p.monte_carlo(behaviors, trials, workers=3, seed=5)
    assert InlinePool.built == [3] and InlinePool.most_unread == 6
    assert np.array_equal(counts, p.monte_carlo(behaviors, trials, seed=5))


def test_monte_carlo_pool_runs_one_task_per_chunk_on_one_source_pass(monkeypatch):
    """Three behaviors over three chunks through a pool whose every task starts
    with an empty slot, as on a worker that ran other chunks before: three
    tasks, one source pass each, and the serial run's counts."""
    _inline_pool(monkeypatch, 3)
    monkeypatch.setattr(protocol, "BATCH_TRIALS", 10)
    passes = []
    real_source, real_submit = TwoHopProtocol._source, InlinePool.submit

    def source(self, words):
        passes.append(len(words))
        return real_source(self, words)

    def submit(pool, fn, *args):
        protocol._THREAD.shared = None
        return real_submit(pool, fn, *args)

    behaviors = [HonestRelay(), SubstituteLattice((1,)), RandomGarble()]
    p = proto(TINY)
    serial = p.monte_carlo(behaviors, 25, seed=8)
    monkeypatch.setattr(TwoHopProtocol, "_source", source)
    monkeypatch.setattr(InlinePool, "submit", submit)
    counts = p.monte_carlo(behaviors, 25, workers=3, seed=8)
    assert InlinePool.built == [3] and InlinePool.submitted == 3
    assert passes == [10, 10, 5]
    assert np.array_equal(counts, serial)


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_of_no_behaviors_is_an_empty_table(monkeypatch, workers):
    _inline_pool(monkeypatch, 2)
    counts = proto(TINY).monte_carlo([], 10, workers=workers)
    assert counts.shape == (0, 3) and counts.dtype == np.int64
    assert InlinePool.built == []


def test_monte_carlo_memory_does_not_grow_with_trials(monkeypatch):
    """10^8 trials (MAX_TRIALS) of two behaviors with each chunk's engine calls
    stubbed: the running total is exact and the heap peak stays small."""
    import tracemalloc

    def chunk_counts(self, behaviors, seed, chunk):
        return np.array([[len(chunk), 1, 0]] * len(behaviors))

    monkeypatch.setattr(TwoHopProtocol, "_chunk_counts", chunk_counts)
    p, trials = proto(TINY), protocol.MAX_TRIALS // 2
    tracemalloc.start()
    try:
        counts = p.monte_carlo([HonestRelay(), RandomGarble()], trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    batches = -(-trials // protocol.BATCH_TRIALS)
    assert counts.tolist() == [[trials, batches, 0]] * 2
    assert peak < 2**20, peak


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert protocol._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert protocol._usable_cpus() == (os.cpu_count() or 1)


def test_source_seed_uniform_chi_square():
    p = proto(TINY)
    trials = 10_000
    # row i is trial i of seed 101
    counts = np.bincount(p.run_batch(HonestRelay(), 101, 0, trials).x, minlength=5)
    expected = trials / 5
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 18.47  # df = 4 critical value at p = 0.001


def test_gaussian_mode_runs_and_reports():
    params = ProtocolParams(noiseless=False, noise_var_relay=0.01,
                            noise_var_dest=0.01)
    counts = TwoHopProtocol(params).monte_carlo([HonestRelay()], 100, seed=4)
    assert counts.shape == (1, 3) and 0 <= counts[0, 0] <= 100


def test_zero_variance_gaussian_equals_noiseless_outcomes():
    a = TwoHopProtocol(
        ProtocolParams(noiseless=False, noise_var_relay=0.0, noise_var_dest=0.0)
    )
    b = TwoHopProtocol(ProtocolParams(noiseless=True))
    ba, bb = (proto.run_batch(HonestRelay(), 55, 0, 20) for proto in (a, b))
    for name in ("s", "s_hat", "decodable", "accepted"):
        assert np.array_equal(getattr(ba, name), getattr(bb, name)), name


def test_low_noise_gaussian_honest_still_clean():
    # noise sigma 0.1 against a decision distance of 0.5: no decode errors
    # at this fixed seed and trial count
    params = ProtocolParams(noiseless=False, noise_var_relay=0.01,
                            noise_var_dest=0.01)
    counts = TwoHopProtocol(params).monte_carlo([HonestRelay()], 500, seed=606)
    assert np.array_equal(counts[:, :2], [[0, 0]])


def test_gaussian_honest_relay_clean_at_working_power():
    """alpha = 3.6 puts the codebook power (25.9) above the rate condition.

    Noise sigma 0.32 against a decision distance of 1.8: an honest relay
    decodes every trial, and the applied noise has its target moments.
    """
    params = ProtocolParams(noiseless=False, alpha=3.6, noise_var_relay=0.1,
                            noise_var_dest=0.1)
    p = TwoHopProtocol(params)
    trials = 2000
    counts = p.monte_carlo([HonestRelay()], trials, seed=36)
    assert np.array_equal(counts[:, :2], [[0, 0]])

    batch = p.run_batch(HonestRelay(), 36, 0, trials, keep_records=True)
    relay = np.concatenate([(rec.yr - rec.x1 - rec.x2).ravel() for rec in batch.records])
    dest = np.concatenate([(rec.y2 - rec.xr).ravel() for rec in batch.records])
    for noise, var in [(relay, params.noise_var_relay), (dest, params.noise_var_dest)]:
        n = len(noise)
        assert n == trials * operating_point(params)[0]
        assert abs(noise.mean()) <= 4 * math.sqrt(var / n)
        assert abs(noise.var() - var) <= 4 * var * math.sqrt(2 / (n - 1))
