"""Four-stage protocol: correctness, detection, rates, determinism."""

import math

import numpy as np
import pytest

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
from relaysec.lattice import codebook_point, decode_fine_mod_coarse, lattice_add
from relaysec.protocol import (
    ProtocolParams,
    TwoHopProtocol,
    payload_bits,
    rate_accounting,
    wilson_interval,
)

TINY = ProtocolParams(q=5, r=1, d=1, N=2, msg_q=5, msg_N=1, msg_r0=1)
DEFAULT = ProtocolParams()


def proto(params=DEFAULT):
    return TwoHopProtocol(params)


class StagedRelay:
    """Test helper: honest forwarding with a coords offset on chosen stages.

    Exchange positions within a batch: 0 and 1 are the seed exchanges, 2
    is the silent tag exchange, 3.. are the message blocks.  Zero-dither
    codes only (the honest decode inside uses no dither offset).
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


# ---------------------------------------------------------------------
# honest runs
# ---------------------------------------------------------------------


def test_honest_noiseless_exhaustive_messages():
    p = proto(TINY)
    for s_val in range(p.ext_field.order):
        b = p.run_batch(HonestRelay(), s_val, 0, 3, messages=np.full((3, 1), s_val))
        assert b.decodable.all() and np.all(b.s_hat == s_val)
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
    report = p.monte_carlo(SubstituteLattice((1,)), 2000, seed=31)
    sigma = math.sqrt(report.win_bound * (1 - report.win_bound) / 2000)
    assert report.adversary_win_rate <= report.win_bound + 3 * sigma
    assert report.decode_error_rate > 0.9  # the forged message rarely matches


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
    """The detection bound holds per fixed message, not just on average."""
    p = proto(TINY)
    bound = win_bound(p.amd)
    trials = 2000
    for s_val in (0, 2, 4):
        batch = p.run_batch(SubstituteLattice((1,)), s_val * 100_000, 0, trials,
                            messages=np.full((trials, 1), s_val))
        wins = int(np.sum(batch.accepted & np.any(batch.s_hat != s_val, axis=1)))
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert wins / trials <= bound + 3 * sigma


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
    symbols, fits = p._bits_to_symbols(p._symbols_to_bits(s))
    assert np.array_equal(symbols, s) and fits.all()
    # 10 ones encode 1023 >= 25^2: no message has that value
    _, fits = p._bits_to_symbols(np.ones((1, p.payload_bits), dtype=np.int64))
    assert not fits[0]


def test_block_count_and_rate_examples():
    # ceil(276.75 / 100) message blocks with a 100-bit-per-block encoder
    assert math.ceil(payload_bits(11, 20, 4) / 100) == 3
    n, rt = rate_accounting(100, 20, 11, 4, 1.0)
    assert n == 520
    assert rt == pytest.approx(4 * 20 * math.log2(11) / (2 * 520), rel=1e-12)
    assert round(rt, 3) == 0.266


def test_rate_report_matches_power_audit_identity():
    p = proto()
    # trial 5 of seed 13: one (1, N) row per exchange record
    records = list(p.run_batch(HonestRelay(), 13, 5, 6, keep_records=True).records)
    stage01, stage2, stage3 = records[:2], records[2], records[3:]
    p1 = sum(float(np.sum(rec.x1**2)) for rec in stage01) / (2 * p.params.N)
    p2 = float(np.sum(stage2.x1**2)) / p.params.r
    msg_uses = sum(np.size(rec.x1) for rec in stage3)
    p3 = sum(float(np.sum(rec.x1**2)) for rec in stage3) / msg_uses
    report = p.rate_report(p1, p2, p3)
    audit = power_audit(records, p.channel)
    assert report.PT == pytest.approx(audit["node1"]["average_power"], abs=1e-9)
    assert audit["node1"]["channel_uses"] == report.n


def test_power_audit_of_batch_records_averages_the_rows():
    """(B, N) records: B*n uses per node, and the mean of the per-row powers.

    Every trial transmits on the same number of uses, so the batch's
    average power is the mean of its trials' averages.
    """
    p = proto()
    trials = 40
    batch = p.run_batch(RandomGarble(), 13, 0, trials, keep_records=True)
    audit = power_audit(batch.records, p.channel)
    rows = [power_audit([PhaseRecord(*(getattr(rec, k)[i : i + 1] for k in
                                       ("x1", "x2", "yr", "xr", "y2")), rec.node2_active)
                         for rec in batch.records], p.channel) for i in range(trials)]
    n, prm = p.rate_report().n, p.params
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
    report = proto().monte_carlo(HonestRelay(), 300, seed=2)
    assert report.decode_error_rate == 0.0
    assert report.false_reject_rate == 0.0
    assert report.adversary_win_rate == 0.0


def test_monte_carlo_deterministic_across_workers():
    p = proto()
    r1 = p.monte_carlo(SubstituteLattice((1,)), 240, workers=1, seed=9)
    r2 = p.monte_carlo(SubstituteLattice((1,)), 240, workers=2, seed=9)
    r3 = p.monte_carlo(SubstituteLattice((1,)), 240, workers=3, seed=9)
    assert r1 == r2 == r3


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
    report = TwoHopProtocol(params).monte_carlo(HonestRelay(), 100, seed=4)
    assert 0.0 <= report.decode_error_rate <= 1.0


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
    report = TwoHopProtocol(params).monte_carlo(HonestRelay(), 500, seed=606)
    assert report.decode_error_rate == 0.0
    assert report.false_reject_rate == 0.0


def test_gaussian_honest_relay_clean_at_working_power():
    """alpha = 3.6 puts the codebook power (25.9) above the rate condition.

    Noise sigma 0.32 against a decision distance of 1.8: an honest relay
    decodes every trial, and the applied noise has its target moments.
    """
    params = ProtocolParams(noiseless=False, alpha=3.6, noise_var_relay=0.1,
                            noise_var_dest=0.1)
    p = TwoHopProtocol(params)
    trials = 2000
    report = p.monte_carlo(HonestRelay(), trials, seed=36)
    assert report.decode_error_rate == 0.0
    assert report.false_reject_rate == 0.0

    batch = p.run_batch(HonestRelay(), 36, 0, trials, keep_records=True)
    relay = np.concatenate([(rec.yr - rec.x1 - rec.x2).ravel() for rec in batch.records])
    dest = np.concatenate([(rec.y2 - rec.xr).ravel() for rec in batch.records])
    for noise, var in [(relay, params.noise_var_relay), (dest, params.noise_var_dest)]:
        n = len(noise)
        assert n == trials * p.rate_report().n
        assert abs(noise.mean()) <= 4 * math.sqrt(var / n)
        assert abs(noise.var() - var) <= 4 * var * math.sqrt(2 / (n - 1))
