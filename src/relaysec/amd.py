"""Algebraic manipulation detection codec over GF(q^r).

A codeword is the triple (s, x, h): message vector s of d symbols, a
random seed x, and the tag h = x^(d+2) + sum_i s_i * x^i, every element
an int in [0, q^r) (see ``fields``).  Any additive tampering
(s', x + dx, h + dh) passes verification for at most a (d+1)/q^r
fraction of seeds, provided q is prime and q does not divide d + 2,
because the mismatch polynomial in x is nonzero of degree at most d + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ExtField, is_prime

__all__ = [
    "AmdParams",
    "check_premises",
    "amd_tag",
    "amd_verify",
    "amd_rate",
    "win_bound",
]


def check_premises(q: int, d: int) -> None:
    """Raise ValueError unless q is prime, d >= 1 and q does not divide d + 2.

    These are the premises of the (d+1)/q^r bound, for any extension
    degree r of the prime field GF(q).
    """
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if d < 1:
        raise ValueError("message length d must be >= 1")
    if (d + 2) % q == 0:
        raise ValueError(f"d + 2 = {d + 2} must not be divisible by q = {q}")


@dataclass(frozen=True)
class AmdParams:
    """Field and message length for the detection code."""

    field: ExtField
    d: int

    def __post_init__(self):
        check_premises(self.field.q, self.d)


def _check_elements(field: ExtField, *arrays) -> list[np.ndarray]:
    out = [np.asarray(a, dtype=np.int64) for a in arrays]
    for a in out:
        # one pass: a negative element viewed as uint64 exceeds every order
        if a.size and a.view(np.uint64).max() >= field.order:
            raise ValueError(f"element ints must lie in [0, {field.order})")
    return out


def amd_tag(params: AmdParams, s, x) -> np.ndarray:
    """h = x^(d+2) + sum_{i=1..d} s_i * x^i, by Horner's rule over the tables.

    h = x*(s_1 + x*(s_2 + ... + x*(s_d + x*x))).  ``s`` holds symbol ints
    with the d symbols on its last axis and ``x`` seed ints; their leading
    axes broadcast, so one call tags a whole batch of messages or seeds.
    """
    s, x = _check_elements(params.field, s, x)
    if s.ndim < 1 or s.shape[-1] != params.d:
        raise ValueError(f"message must have {params.d} symbols on its last axis")
    return _amd_tag(params, s, x)


def _amd_tag(params: AmdParams, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``amd_tag`` of int64 elements already in range, unchecked: the engine's form."""
    tables = params.field.tables()
    add, mul = tables["add"], tables["mul"]
    h = mul[x, x]
    for i in range(params.d - 1, -1, -1):
        h = mul[x, add[s[..., i], h]]
    return h


def amd_verify(params: AmdParams, s, x, h) -> np.ndarray:
    """True where the received triple satisfies the tag rule (broadcasting)."""
    return amd_tag(params, s, x) == h


def amd_rate(params: AmdParams) -> float:
    """Message symbols per codeword symbol: d/(d+2)."""
    return params.d / (params.d + 2)


def win_bound(params: AmdParams) -> float:
    """Worst-case acceptance probability of additive tampering: (d+1)/q^r."""
    return (params.d + 1) / params.field.order
