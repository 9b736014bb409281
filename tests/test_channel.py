"""Two-hop channel phases, relay behaviors, and power accounting."""

import numpy as np
import pytest

from relaysec.channel import (
    AdditiveLatticeOffset,
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
from relaysec.fields import digits
from relaysec.lattice import (
    NestedLatticePair,
    average_codebook_power,
    codebook_point,
    decode_fine_mod_coarse,
    lattice_add,
)

def rng(seed=0):
    return np.random.default_rng(seed)


def all_coords(pair):
    return digits(np.arange(pair.q**pair.N), pair.q, pair.N)


# ---------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------


def test_phase1_noiseless_sum():
    # no noise is noiseless mode, whatever the variance
    for var in (1.0, 4.0):
        y = phase1(np.array([1.0, 0.0]), np.array([-0.5, 2.0]), None, var)
        assert np.array_equal(y, [0.5, 2.0])


def test_phase_length_mismatch():
    with pytest.raises(ValueError):
        phase1(np.zeros(2), np.zeros(3))


def test_phase1_gaussian_reproducible():
    """The observation is a function of the supplied normals, which must
    have the signal's shape."""
    z = rng(42).standard_normal(4)
    y1 = phase1(np.zeros(4), np.zeros(4), z)
    y2 = phase1(np.zeros(4), np.zeros(4), z.copy())
    assert np.array_equal(y1, y2) and np.array_equal(y1, z)
    for bad in (z[:3], z.reshape(2, 2)):
        with pytest.raises(ValueError, match="standard normals"):
            phase1(np.zeros(4), np.zeros(4), bad)
        with pytest.raises(ValueError, match="standard normals"):
            phase2(np.zeros(4), bad)


def test_phase_noise_moments():
    """One batched call per phase: the noise is sqrt(var) times the normals."""
    n = 100_000
    x1, x2 = np.ones((n, 2)), -np.full((n, 2), 0.5)
    z1, z2 = rng(123).standard_normal((2, n, 2))
    relay = phase1(x1, x2, z1, 0.25) - (x1 + x2)
    dest = phase2(x1, z2, 4.0) - x1
    for noise, z, var in [(relay, z1, 0.25), (dest, z2, 4.0)]:
        assert np.allclose(noise, np.sqrt(var) * z, rtol=0, atol=1e-12)
        assert abs(noise.mean()) < 0.02 * np.sqrt(var)
        assert abs(noise.var() - var) < 0.02 * var


def test_phase2_noiseless_identity():
    xr = np.array([0.25, -1.5])
    for var in (1.0, 4.0):
        assert np.array_equal(phase2(xr, None, var), xr)


def test_zero_variance_matches_noiseless():
    x1, x2 = np.array([1.0, 2.0]), np.array([0.5, -0.25])
    z1, z2 = rng(1).standard_normal((2, 2))
    assert np.array_equal(phase1(x1, x2, z1, 0.0), phase1(x1, x2))
    assert np.array_equal(phase2(x1, z2, 0.0), phase2(x1))


# ---------------------------------------------------------------------
# relay behaviors (noiseless algebra)
# ---------------------------------------------------------------------


def _forward(pair, behavior, t1, t2, words=None):
    yr = codebook_point(pair, t1) + codebook_point(pair, t2)
    if words is None:
        words = np.zeros(yr.shape, dtype=np.uint64)
    xr = relay_step(behavior, pair, (pair.N,), yr, words, None, 10.0)
    return decode_fine_mod_coarse(pair, xr)


def test_honest_relay_forwards_mod_sum_exhaustive():
    pair = NestedLatticePair(N=2, q=5, alpha=1.3)
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


def test_patterns_restart_at_each_exchange():
    """Over a pass of exchanges 3, 2 and 3 uses wide, a pattern starts again
    at each exchange, taken mod each use's nesting ratio."""
    pair = NestedLatticePair(N=8, q=(5, 5, 5, 3, 3, 7, 7, 7), alpha=0.9)
    widths = (3, 2, 3)
    zeros = np.zeros((4, 8), dtype=np.int64)
    yr = codebook_point(pair, zeros)
    words = np.zeros(yr.shape, dtype=np.uint64)
    # a config's pattern entries are unbounded: 4 + 105 * 2^70 is 4 mod 5, 3 and 7
    for pattern in [(4, 2), (4 + 105 * 2**70, 2)]:
        sub = relay_step(SubstituteLattice(pattern), pair, widths, yr, words, None, 10.0)
        assert decode_fine_mod_coarse(pair, sub).tolist() == [[4, 2, 4, 1, 2, 4, 2, 4]] * 4
    t = np.array([[1, 2, 3, 0, 1, 6, 5, 4]] * 4)
    add = relay_step(AdditiveLatticeOffset((6,)), pair, widths, codebook_point(pair, t), words,
                     None, 10.0)
    assert decode_fine_mod_coarse(pair, add).tolist() == [[2, 3, 4, 0, 1, 5, 4, 3]] * 4
    with pytest.raises(ValueError, match="widths"):
        relay_step(HonestRelay(), pair, (3, 3), yr, words, None, 10.0)


def test_garble_emits_codebook_points():
    """The garble forwards the codebook points of its words' uniform coords,
    and its words must have the received shape."""
    pair = NestedLatticePair(N=2, q=3)
    words = rng(0).integers(0, 2**64, size=(10, 2), dtype=np.uint64)
    zeros = np.zeros((10, 2), dtype=np.int64)
    got = _forward(pair, RandomGarble(), zeros, zeros, words)
    assert got.tolist() == [[(int(w) * 3) >> 64 for w in row] for row in words]
    with pytest.raises(ValueError, match="words"):
        _forward(pair, RandomGarble(), zeros, zeros, words[:, :1])


def _custom_step(fn, yr, power_limit=4.0):
    """One custom-relay pass over received blocks yr (B, k, N): k exchanges of
    N uses each, words 0..size-1; returns the transmissions as (B, k, N)."""
    b, k, n = yr.shape
    pair = NestedLatticePair(N=k * n, q=3)
    words = np.arange(yr.size, dtype=np.uint64).reshape(b, k * n)
    messages = np.arange(2 * b).reshape(b, 2)
    xr = relay_step(CustomRelay(fn), pair, (n,) * k, yr.reshape(b, k * n), words, messages,
                    power_limit)
    return xr.reshape(yr.shape)


def test_custom_relay_interface_and_clipping(caplog):
    """One call per exchange, in order, each covering every row; only the rows
    above the power limit are scaled down to it, with one warning per pass."""
    seen = []

    def strategy(words, yr, s):
        seen.append((words.copy(), yr.copy(), s))
        return yr

    yr = np.array([[[10.0, 10.0], [1.0, -1.0]],  # per-use powers 100, 1
                   [[1.0, 1.0], [3.0, 1.0]]])  # 1, 5
    with caplog.at_level("WARNING", logger="relaysec.channel"):
        xr = _custom_step(strategy, yr)
    assert len(seen) == 2
    for j, (words, got_yr, s) in enumerate(seen):
        assert words.dtype == np.uint64
        assert np.array_equal(words, np.arange(8).reshape(2, 2, 2)[:, j])
        assert np.array_equal(got_yr, yr[:, j])
        assert s.tolist() == [[0, 1], [2, 3]]
    power = np.mean(xr**2, axis=-1)
    assert power[0, 0] == pytest.approx(4.0) and power[1, 1] == pytest.approx(4.0)
    assert np.array_equal(xr[0, 1], yr[0, 1]) and np.array_equal(xr[1, 0], yr[1, 0])
    [warning] = [r.getMessage() for r in caplog.records]
    assert "2 of 4 (trial, exchange) rows: worst per-use power 100.000 -> 4.000" in warning


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_custom_relay_rejects_non_finite_output(bad):
    calls = []

    def strategy(words, yr, s):  # one bad entry in exchange 1
        calls.append(None)
        out = yr.copy()
        if len(calls) == 2:
            out[1, 0] = bad
        return out

    with pytest.raises(ValueError, match="exchange 1 is not finite"):
        _custom_step(strategy, np.zeros((2, 3, 2)))


def test_custom_relay_sees_only_three_inputs():
    # the strategy signature is (relay words, received block, messages):
    # destination-side quantities are not part of the call by construction
    captured = []

    def strategy(*args):
        captured.append(args)
        return np.zeros((1, 2))

    _custom_step(strategy, np.zeros((1, 1, 2)))
    assert len(captured[0]) == 3


# ---------------------------------------------------------------------
# power audit
# ---------------------------------------------------------------------


def test_power_audit_zero_transmissions():
    rec = PhaseRecord(x1=np.zeros(3), x2=np.zeros(3), yr=np.zeros(3),
                      xr=np.zeros(3), y2=np.zeros(3))
    report = power_audit([rec], 10.0)
    assert report["node1"]["average_power"] == 0.0
    assert not report["node1"]["violates_limit"]


def test_power_audit_matches_codebook_average():
    pair = NestedLatticePair(N=1, q=3)
    records = []
    for c in range(3):
        x1 = codebook_point(pair, [c])
        records.append(PhaseRecord(x1=x1, x2=np.zeros(1), yr=x1,
                                   xr=np.zeros(1), y2=np.zeros(1)))
    report = power_audit(records, 1.0)
    assert report["node1"]["average_power"] == pytest.approx(
        average_codebook_power(pair)
    )
    assert report["node1"]["average_power"] == pytest.approx(2 / 3)


def test_power_audit_skips_silent_node2():
    loud = PhaseRecord(x1=np.ones(2), x2=np.ones(2) * 3, yr=np.zeros(2),
                       xr=np.zeros(2), y2=np.zeros(2), node2_active=True)
    silent = PhaseRecord(x1=np.ones(2), x2=np.zeros(2), yr=np.zeros(2),
                         xr=np.zeros(2), y2=np.zeros(2), node2_active=False)
    report = power_audit([loud, silent], 10.0)
    assert report["node2"]["channel_uses"] == 2
    assert report["node2"]["average_power"] == pytest.approx(9.0)
    assert report["node1"]["channel_uses"] == 4


def test_power_audit_flags_violation():
    hot = PhaseRecord(x1=np.ones(2) * 2, x2=np.zeros(2), yr=np.zeros(2),
                      xr=np.zeros(2), y2=np.zeros(2))
    report = power_audit([hot], 0.5)
    assert report["node1"]["violates_limit"]
    assert not report["relay"]["violates_limit"]
