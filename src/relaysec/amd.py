"""Algebraic manipulation detection codec over GF(q^r).

A codeword is the triple (s, x, h): message vector s of d symbols, a
random seed x, and the tag h = x^(d+2) + sum_i s_i * x^i.  Any additive
tampering (s', x + dx, h + dh) passes verification for at most a
(d+1)/q^r fraction of seeds, provided q is prime and q does not divide
d + 2, because the mismatch polynomial in x is nonzero of degree at most
d + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ExtField, ExtFieldElement

__all__ = [
    "AmdParams",
    "AmdCodeword",
    "amd_tag",
    "amd_tag_int",
    "amd_verify",
    "amd_encode",
    "amd_rate",
    "win_bound",
    "exhaustive_attack_success",
]


@dataclass(frozen=True)
class AmdParams:
    """Field and message length for the detection code."""

    field: ExtField
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("message length d must be >= 1")
        if (self.d + 2) % self.field.q == 0:
            raise ValueError(
                f"d + 2 = {self.d + 2} must not be divisible by q = {self.field.q}"
            )


@dataclass(frozen=True)
class AmdCodeword:
    s: tuple[ExtFieldElement, ...]
    x: ExtFieldElement
    h: ExtFieldElement


def _check_message(params: AmdParams, s) -> tuple[ExtFieldElement, ...]:
    s = tuple(s)
    if len(s) != params.d:
        raise ValueError(f"message must have {params.d} symbols, got {len(s)}")
    for sym in s:
        params.field._check(sym)
    return s


def amd_tag(params: AmdParams, s, x: ExtFieldElement) -> ExtFieldElement:
    """h = x^(d+2) + sum_{i=1..d} s_i * x^i."""
    s = _check_message(params, s)
    f = params.field
    h = f.pow(x, params.d + 2)
    xp = f.one()
    for sym in s:
        xp = f.mul(xp, x)
        h = f.add(h, f.mul(sym, xp))
    return h


def amd_tag_int(params: AmdParams, s, x) -> np.ndarray:
    """amd_tag on int-encoded elements, by Horner's rule over the field tables.

    h = x*(s_1 + x*(s_2 + ... + x*(s_d + x*x))).  ``s`` holds symbol ints
    with the d symbols on its last axis and ``x`` seed ints; their leading
    axes broadcast, so one call tags a whole batch of messages or seeds.
    """
    f = params.field
    tables = f.tables()
    add, mul = tables["add"], tables["mul"]
    s = np.asarray(s, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if s.ndim < 1 or s.shape[-1] != params.d:
        raise ValueError(f"message must have {params.d} symbols on its last axis")
    for a in (s, x):
        if a.size and (a.min() < 0 or a.max() >= f.order):
            raise ValueError(f"element ints must lie in [0, {f.order})")
    h = mul[x, x]
    for i in range(params.d - 1, -1, -1):
        h = mul[x, add[s[..., i], h]]
    return h


def amd_verify(params: AmdParams, s, x: ExtFieldElement, h: ExtFieldElement) -> bool:
    """True iff the received triple satisfies the tag rule."""
    return amd_tag(params, s, x) == h


def amd_encode(params: AmdParams, s, rng: np.random.Generator) -> AmdCodeword:
    """Draw a uniform seed and tag the message."""
    s = _check_message(params, s)
    x = params.field.random_element(rng)
    return AmdCodeword(s=s, x=x, h=amd_tag(params, s, x))


def amd_rate(params: AmdParams) -> float:
    """Message symbols per codeword symbol: d/(d+2)."""
    return params.d / (params.d + 2)


def win_bound(params: AmdParams) -> float:
    """Worst-case acceptance probability of additive tampering: (d+1)/q^r."""
    return (params.d + 1) / params.field.order


def exhaustive_attack_success(
    params: AmdParams, s, s_prime, dx: ExtFieldElement, dh: ExtFieldElement
) -> float:
    """Exact acceptance probability of one additive attack, over uniform x.

    Counts the seeds x for which (s', x + dx, tag(s, x) + dh) verifies.
    The perturbation (s' - s, dx, dh) must not be identically zero.
    """
    s = _check_message(params, s)
    s_prime = _check_message(params, s_prime)
    f = params.field
    if s == s_prime and dx.is_zero() and dh.is_zero():
        raise ValueError("attack perturbation must not be identically zero")
    hits = 0
    for x in f.elements():
        forged_tag = f.add(amd_tag(params, s, x), dh)
        if amd_verify(params, s_prime, f.add(x, dx), forged_tag):
            hits += 1
    return hits / f.order
