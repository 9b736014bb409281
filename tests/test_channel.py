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
    index_to_coords,
    lattice_add,
)

NOISELESS = ChannelConfig(power_limit=10.0, noiseless=True)


def rng(seed=0):
    return np.random.default_rng(seed)


def all_coords(pair):
    return index_to_coords(pair, np.arange(pair.q**pair.N))


# ---------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------


def test_phase1_noiseless_sum():
    y = phase1(NOISELESS, np.array([1.0, 0.0]), np.array([-0.5, 2.0]))
    assert np.array_equal(y, [0.5, 2.0])


def test_phase_length_mismatch():
    with pytest.raises(ValueError):
        phase1(NOISELESS, np.zeros(2), np.zeros(3))


def test_phase1_gaussian_reproducible():
    """The observation is a function of the supplied normals, which Gaussian
    mode requires in the signal's shape."""
    cfg = ChannelConfig(power_limit=10.0)
    z = rng(42).standard_normal(4)
    y1 = phase1(cfg, np.zeros(4), np.zeros(4), z)
    y2 = phase1(cfg, np.zeros(4), np.zeros(4), z.copy())
    assert np.array_equal(y1, y2) and np.array_equal(y1, z)
    for bad in (None, z[:3], z.reshape(2, 2)):
        with pytest.raises(ValueError, match="standard normals"):
            phase1(cfg, np.zeros(4), np.zeros(4), bad)
        with pytest.raises(ValueError, match="standard normals"):
            phase2(cfg, np.zeros(4), bad)


def test_phase_noise_moments():
    """One batched call per phase: the noise is sqrt(var) times the normals."""
    cfg = ChannelConfig(power_limit=10.0, noise_var_relay=0.25, noise_var_dest=4.0)
    n = 100_000
    x1, x2 = np.ones((n, 2)), -np.full((n, 2), 0.5)
    z1, z2 = rng(123).standard_normal((2, n, 2))
    relay = phase1(cfg, x1, x2, z1) - (x1 + x2)
    dest = phase2(cfg, x1, z2) - x1
    for noise, z, var in [(relay, z1, 0.25), (dest, z2, 4.0)]:
        assert np.allclose(noise, np.sqrt(var) * z, rtol=0, atol=1e-12)
        assert abs(noise.mean()) < 0.02 * np.sqrt(var)
        assert abs(noise.var() - var) < 0.02 * var


def test_phase2_noiseless_identity():
    xr = np.array([0.25, -1.5])
    assert np.array_equal(phase2(NOISELESS, xr), xr)


def test_zero_variance_matches_noiseless():
    zero_var = ChannelConfig(power_limit=10.0, noise_var_relay=0.0, noise_var_dest=0.0)
    x1, x2 = np.array([1.0, 2.0]), np.array([0.5, -0.25])
    z1, z2 = rng(1).standard_normal((2, 2))
    assert np.array_equal(phase1(zero_var, x1, x2, z1), phase1(NOISELESS, x1, x2))
    assert np.array_equal(phase2(zero_var, x1, z2), phase2(NOISELESS, x1))


# ---------------------------------------------------------------------
# relay behaviors (noiseless algebra)
# ---------------------------------------------------------------------


def _forward(pair, behavior, t1, t2, draws=None):
    x1 = codebook_point(pair, t1, 1)
    x2 = codebook_point(pair, t2, 2)
    yr = x1 + x2
    in_dither = pair.dither(1) + pair.dither(2)
    xr = relay_step(behavior, pair, [yr], None, None, in_dither,
                    power_limit=10.0, draws=draws)
    return decode_fine_mod_coarse(pair, xr, pair.dither(3))


def test_honest_relay_forwards_mod_sum_exhaustive():
    pair = NestedLatticePair(N=2, q=5, d1=(0.2, 0.0), d2=(0.0, -0.4), d3=(0.1, 0.1))
    t1, t2 = all_coords(pair)[:, None], all_coords(pair)[None, :]
    got = _forward(pair, HonestRelay(), t1, t2)  # all 25 x 25 pairs in one call
    assert np.array_equal(got, lattice_add(pair, t1, t2))


def test_substitute_ignores_received_signal():
    pair = NestedLatticePair(N=2, q=5)
    behavior = SubstituteLattice((3, 1))
    outs = {tuple(row) for row in _forward(pair, behavior, all_coords(pair), [0, 0])}
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
    """The garble forwards the codebook points of its supplied coords, which
    it requires."""
    pair = NestedLatticePair(N=2, q=3, d3=(0.5, -0.25))
    draws = rng(0).integers(0, 3, size=(10, 2))
    zeros = np.zeros((10, 2), dtype=np.int64)
    assert np.array_equal(_forward(pair, RandomGarble(), zeros, zeros, draws), draws)
    with pytest.raises(ValueError, match="draws"):
        _forward(pair, RandomGarble(), zeros, zeros)


def test_custom_relay_interface_and_clipping():
    pair = NestedLatticePair(N=2, q=3)
    seen = {}

    def strategy(mr, history, w):
        seen["args"] = (mr, history, w)
        return np.array([10.0, 10.0])  # per-use power 100, above the limit

    xr = relay_step(CustomRelay(strategy), pair, [np.zeros(2)], rng(3), "msg",
                    np.zeros(2), power_limit=4.0)
    mr, history, w = seen["args"]
    assert isinstance(mr, np.random.Generator)
    assert isinstance(history, list) and len(history) == 1
    assert w == "msg"
    assert np.mean(xr**2) == pytest.approx(4.0)

    unclipped = relay_step(CustomRelay(strategy, enforce_power=False), pair,
                           [np.zeros(2)], rng(3), "msg", np.zeros(2),
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
               np.zeros(2), power_limit=1.0)
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
