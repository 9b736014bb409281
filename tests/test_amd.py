"""Detection codec: tagging, verification, and the attack oracle."""

import itertools

import numpy as np
import pytest

from relaysec.amd import (
    AmdParams,
    _check_elements,
    amd_rate,
    amd_tag,
    amd_verify,
    check_premises,
    win_bound,
)
from relaysec.fields import ExtField

GF5 = ExtField(5, 1)  # elements are the residues 0..4


def exhaustive_attack_success(params, s, s_prime, dx, dh):
    """Exact acceptance probability of one additive attack, over uniform x.

    Counts the seeds x for which (s', x + dx, tag(s, x) + dh) verifies.
    The perturbation (s' - s, dx, dh) must not be identically zero.
    """
    f = params.field
    s, s_prime, dx, dh = _check_elements(f, s, s_prime, dx, dh)
    if np.array_equal(s, s_prime) and dx == 0 and dh == 0:
        raise ValueError("attack perturbation must not be identically zero")
    add = f.tables()["add"]
    xs = np.arange(f.order)
    forged_tag = add[amd_tag(params, s, xs), dh]
    hits = np.count_nonzero(amd_verify(params, s_prime, add[xs, dx], forged_tag))
    return hits / f.order


def params5(d=1):
    return AmdParams(field=GF5, d=d)


def test_tag_examples():
    assert amd_tag(params5(1), (2,), 3) == 3  # 27 + 6 = 33 = 3 mod 5
    assert amd_tag(params5(1), (0,), 0) == 0
    assert amd_tag(params5(2), (1, 1), 2) == 2  # 16 + 2 + 4


def test_tag_wrong_length_rejected():
    with pytest.raises(ValueError):
        amd_tag(params5(2), (1,), 0)


def test_out_of_range_elements_rejected():
    for s, x in [((5,), 0), ((0,), 5), ((-1,), 0)]:
        with pytest.raises(ValueError):
            amd_tag(params5(1), s, x)
    with pytest.raises(ValueError):
        amd_tag(AmdParams(field=ExtField(5, 2), d=2), [0, 25], 1)
    for dx, dh in [(5, 0), (0, -1)]:
        with pytest.raises(ValueError):
            exhaustive_attack_success(params5(1), (0,), (1,), dx, dh)


def test_verify_examples():
    p = params5(1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        s, x = (int(rng.integers(5)),), int(rng.integers(5))
        assert amd_verify(p, s, x, amd_tag(p, s, x))
    assert not amd_verify(p, (3,), 3, 3)
    assert amd_verify(p, (2,), 3, 3)
    assert amd_verify(p, [[2], [3]], 3, 3).tolist() == [True, False]


def test_honest_verification_never_fails_exhaustive():
    for d in (1, 2):
        p = params5(d)
        for s in itertools.product(range(5), repeat=d):
            for x in range(5):
                assert amd_verify(p, s, x, amd_tag(p, s, x))


def test_rate_examples():
    assert amd_rate(AmdParams(field=ExtField(11, 1), d=8)) == 0.8
    assert amd_rate(params5(1)) == pytest.approx(1 / 3)
    rates = [d / (d + 2) for d in range(1, 101)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > 0.98


def test_win_bound_examples():
    assert win_bound(AmdParams(field=ExtField(5, 2), d=2)) == pytest.approx(0.12)
    assert win_bound(params5(1)) == pytest.approx(0.4)
    # decreasing in r at fixed d, q
    bounds = [win_bound(AmdParams(field=ExtField(5, r), d=2)) for r in (1, 2, 3)]
    assert bounds[0] > bounds[1] > bounds[2]


def test_hypothesis_enforced():
    with pytest.raises(ValueError):
        AmdParams(field=GF5, d=3)  # d + 2 = 5 divisible by q
    with pytest.raises(ValueError):
        AmdParams(field=ExtField(3, 1), d=1)  # d + 2 = 3 divisible by q
    with pytest.raises(ValueError):
        AmdParams(field=GF5, d=0)
    with pytest.raises(ValueError, match="divisible"):
        AmdParams(field=ExtField(5, 2), d=3)  # the premise is on q, not q^r
    # the same premises without building a field
    for q, d in [(5, 3), (3, 1), (5, 0), (2, 2)]:
        with pytest.raises(ValueError):
            check_premises(q, d)
    with pytest.raises(ValueError, match="q=4 is not prime"):
        check_premises(4, 1)
    for q, d in [(5, 2), (2, 1), (3, 2), (11, 8)]:
        check_premises(q, d)


def test_attack_success_example():
    p = params5(1)
    success = exhaustive_attack_success(p, (0,), (1,), 0, 0)
    assert success == pytest.approx(1 / 5)  # only x = 0 satisfies x = 0


def test_attack_all_zero_perturbation_rejected():
    p = params5(1)
    with pytest.raises(ValueError):
        exhaustive_attack_success(p, (1,), (1,), 0, 0)


def test_attack_success_bounded_exhaustive_small():
    """Max over every (s, s', dx, dh) stays within (d+1)/q^r at q=5, r=1, d=1."""
    p = params5(1)
    bound = win_bound(p)
    worst = 0.0
    for s, sp, dx, dh in itertools.product(range(5), repeat=4):
        if sp == s and dx == 0 and dh == 0:
            continue
        succ = exhaustive_attack_success(p, (s,), (sp,), dx, dh)
        worst = max(worst, succ)
        # detection probability is the complement, per tuple
        assert succ + (1 - succ) == pytest.approx(1.0)
    assert worst <= bound + 1e-12
