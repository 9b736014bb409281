"""Two-hop channel phases, relay behaviors, and power accounting."""

import numpy as np
import pytest

from relaysec.channel import (
    AdditiveLatticeOffset,
    ChannelConfig,
    CustomRelay,
    HonestRelay,
    PhaseRecord,
    RandomGarble,
    SubstituteLattice,
    phase1,
    phase2,
    power_audit,
    relay_step,
)
from relaysec.lattice import (
    NestedLatticePair,
    average_codebook_power,
    codebook_point,
    decode_fine_mod_coarse,
    enumerate_coords,
    lattice_add,
)

NOISELESS = ChannelConfig(power_limit=10.0, noiseless=True)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------


def test_phase1_noiseless_sum():
    y = phase1(NOISELESS, np.array([1.0, 0.0]), np.array([-0.5, 2.0]), rng())
    assert np.array_equal(y, [0.5, 2.0])


def test_phase_length_mismatch():
    with pytest.raises(ValueError):
        phase1(NOISELESS, np.zeros(2), np.zeros(3), rng())


def test_phase1_gaussian_reproducible():
    cfg = ChannelConfig(power_limit=10.0)
    y1 = phase1(cfg, np.zeros(4), np.zeros(4), rng(42))
    y2 = phase1(cfg, np.zeros(4), np.zeros(4), rng(42))
    assert np.array_equal(y1, y2)


def test_phase_noise_moments():
    cfg = ChannelConfig(power_limit=10.0)
    g = rng(123)
    x1 = np.ones(1)
    x2 = -np.ones(1)
    samples = np.array([phase1(cfg, x1, x2, g)[0] for _ in range(100_000)])
    assert abs(samples.mean()) < 0.02
    assert abs(samples.var() - 1.0) < 0.02
    g = rng(124)
    samples2 = np.array([phase2(cfg, x1, g)[0] - 1.0 for _ in range(100_000)])
    assert abs(samples2.mean()) < 0.02
    assert abs(samples2.var() - 1.0) < 0.02


def test_phase2_noiseless_identity():
    xr = np.array([0.25, -1.5])
    assert np.array_equal(phase2(NOISELESS, xr, rng()), xr)


def test_zero_variance_matches_noiseless():
    zero_var = ChannelConfig(power_limit=10.0, noise_var_relay=0.0, noise_var_dest=0.0)
    x1, x2 = np.array([1.0, 2.0]), np.array([0.5, -0.25])
    assert np.array_equal(
        phase1(zero_var, x1, x2, rng(1)), phase1(NOISELESS, x1, x2, rng(2))
    )
    assert np.array_equal(
        phase2(zero_var, x1, rng(1)), phase2(NOISELESS, x1, rng(2))
    )


# ---------------------------------------------------------------------
# relay behaviors (noiseless algebra)
# ---------------------------------------------------------------------


def _forward(pair, behavior, t1, t2, seed=0):
    x1 = codebook_point(pair, t1, 1)
    x2 = codebook_point(pair, t2, 2)
    yr = x1 + x2
    in_dither = pair.dither(1) + pair.dither(2)
    xr = relay_step(behavior, pair, [yr], rng(seed), None, in_dither, 3,
                    power_limit=10.0)
    return decode_fine_mod_coarse(pair, xr, pair.dither(3))


def test_honest_relay_forwards_mod_sum_exhaustive():
    pair = NestedLatticePair(N=2, q=5, d1=(0.2, 0.0), d2=(0.0, -0.4), d3=(0.1, 0.1))
    for t1 in enumerate_coords(pair):
        for t2 in enumerate_coords(pair):
            got = _forward(pair, HonestRelay(), t1, t2)
            assert np.array_equal(got, lattice_add(pair, t1, t2))


def test_substitute_ignores_received_signal():
    pair = NestedLatticePair(N=2, q=5)
    behavior = SubstituteLattice((3, 1))
    outs = {tuple(_forward(pair, behavior, t1, [0, 0])) for t1 in enumerate_coords(pair)}
    assert outs == {(3, 1)}


def test_additive_offset_shifts_decoded_coords():
    pair = NestedLatticePair(N=2, q=5)
    delta = (1, 4)
    behavior = AdditiveLatticeOffset(delta)
    for t1 in [np.array([0, 0]), np.array([2, 3]), np.array([4, 4])]:
        t2 = np.array([1, 2])
        got = _forward(pair, behavior, t1, t2)
        want = lattice_add(pair, lattice_add(pair, t1, t2), np.array(delta))
        assert np.array_equal(got, want)


def test_garble_emits_codebook_points():
    pair = NestedLatticePair(N=2, q=3)
    for seed in range(10):
        got = _forward(pair, RandomGarble(), [0, 0], [0, 0], seed=seed)
        assert got.shape == (2,)
        assert np.all((0 <= got) & (got < 3))


def test_custom_relay_interface_and_clipping():
    pair = NestedLatticePair(N=2, q=3)
    seen = {}

    def strategy(mr, history, w):
        seen["args"] = (mr, history, w)
        return np.array([10.0, 10.0])  # per-use power 100, above the limit

    xr = relay_step(CustomRelay(strategy), pair, [np.zeros(2)], rng(3), "msg",
                    np.zeros(2), 3, power_limit=4.0)
    mr, history, w = seen["args"]
    assert isinstance(mr, np.random.Generator)
    assert isinstance(history, list) and len(history) == 1
    assert w == "msg"
    assert np.mean(xr**2) == pytest.approx(4.0)

    unclipped = relay_step(CustomRelay(strategy, enforce_power=False), pair,
                           [np.zeros(2)], rng(3), "msg", np.zeros(2), 3,
                           power_limit=4.0)
    assert np.mean(unclipped**2) == pytest.approx(100.0)


def test_custom_relay_sees_only_three_inputs():
    # the strategy signature is (local randomness, received history, message):
    # destination-side quantities are not part of the call by construction
    captured = []

    def strategy(*args):
        captured.append(args)
        return np.zeros(2)

    pair = NestedLatticePair(N=2, q=3)
    relay_step(CustomRelay(strategy), pair, [np.zeros(2)], rng(0), None,
               np.zeros(2), 3, power_limit=1.0)
    assert len(captured[0]) == 3


# ---------------------------------------------------------------------
# power audit
# ---------------------------------------------------------------------


def test_power_audit_zero_transmissions():
    rec = PhaseRecord(x1=np.zeros(3), x2=np.zeros(3), yr=np.zeros(3),
                      xr=np.zeros(3), y2=np.zeros(3))
    report = power_audit([rec], NOISELESS)
    assert report["node1"]["average_power"] == 0.0
    assert not report["node1"]["violates_limit"]


def test_power_audit_matches_codebook_average():
    pair = NestedLatticePair(N=1, q=3)
    records = []
    for c in range(3):
        x1 = codebook_point(pair, [c])
        records.append(PhaseRecord(x1=x1, x2=np.zeros(1), yr=x1,
                                   xr=np.zeros(1), y2=np.zeros(1)))
    report = power_audit(records, ChannelConfig(power_limit=1.0, noiseless=True))
    assert report["node1"]["average_power"] == pytest.approx(
        average_codebook_power(pair)
    )
    assert report["node1"]["average_power"] == pytest.approx(2 / 3)


def test_power_audit_skips_silent_node2():
    loud = PhaseRecord(x1=np.ones(2), x2=np.ones(2) * 3, yr=np.zeros(2),
                       xr=np.zeros(2), y2=np.zeros(2), node2_active=True)
    silent = PhaseRecord(x1=np.ones(2), x2=np.zeros(2), yr=np.zeros(2),
                         xr=np.zeros(2), y2=np.zeros(2), node2_active=False)
    report = power_audit([loud, silent], NOISELESS)
    assert report["node2"]["channel_uses"] == 2
    assert report["node2"]["average_power"] == pytest.approx(9.0)
    assert report["node1"]["channel_uses"] == 4


def test_power_audit_flags_violation():
    cfg = ChannelConfig(power_limit=0.5, noiseless=True)
    hot = PhaseRecord(x1=np.ones(2) * 2, x2=np.zeros(2), yr=np.zeros(2),
                      xr=np.zeros(2), y2=np.zeros(2))
    report = power_audit([hot], cfg)
    assert report["node1"]["violates_limit"]
    assert not report["relay"]["violates_limit"]
