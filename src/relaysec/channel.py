"""Two-phase half-duplex Gaussian two-hop channel with pluggable relays.

Phase 1: the relay hears the superposition of both end nodes plus
Gaussian noise (or the exact sum in noiseless mode).  Phase 2: the
destination hears the relay's transmission plus its own noise.  Noise is
never drawn here: the caller passes standard normals of the signal's
shape (the trial engine takes them from its fixed word layout), and each
phase scales them by its noise deviation; passing none is noiseless
mode.  The power limit and noise variances live in
``protocol.ProtocolParams``, which checks them.  The relay's behavior is a
strategy object; every behavior gets the same inputs, one batched call
per pass over a trial's exchanges: the received signal, the relay's own
layout words and the messages — never the destination noise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .lattice import (
    NestedLatticePair,
    codebook_point,
    decode_fine_mod_coarse,
    lattice_add,
)

__all__ = [
    "PhaseRecord",
    "HonestRelay",
    "SubstituteLattice",
    "AdditiveLatticeOffset",
    "RandomGarble",
    "CustomRelay",
    "phase1",
    "phase2",
    "relay_step",
    "power_audit",
    "uniform_ints",
]

log = logging.getLogger(__name__)


@dataclass
class PhaseRecord:
    """One phase-1/phase-2 round; node-2 silence is tracked for the audit."""

    x1: np.ndarray
    x2: np.ndarray
    yr: np.ndarray
    xr: np.ndarray
    y2: np.ndarray
    node2_active: bool = True


def _add_noise(y: np.ndarray, noise, var: float) -> np.ndarray:
    if noise is None:
        return y
    if np.shape(noise) != y.shape:
        raise ValueError(f"noise must be standard normals of shape {y.shape}")
    return y + np.sqrt(var) * np.asarray(noise, dtype=float)


def phase1(x1, x2, noise=None, var: float = 1.0) -> np.ndarray:
    """Relay observation: x1 + x2 + Zr, the exact sum when ``noise`` is None.

    Zr is ``noise``, the caller's standard normal draws of the signal's
    shape, scaled by the relay's noise deviation sqrt(``var``).  Arrays
    may carry leading batch axes.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape:
        raise ValueError(f"length mismatch: {x1.shape} vs {x2.shape}")
    return _add_noise(x1 + x2, noise, var)


def phase2(xr, noise=None, var: float = 1.0) -> np.ndarray:
    """Destination observation: xr + Z_R, exactly xr when ``noise`` is None.

    Z_R is ``noise`` scaled by sqrt(``var``), as Zr in ``phase1``.
    """
    return _add_noise(np.asarray(xr, dtype=float), noise, var)


# ---------------------------------------------------------------------------
# relay behaviors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HonestRelay:
    """Decode the mod-coarse sum and forward its codebook point."""


@dataclass(frozen=True)
class SubstituteLattice:
    """Ignore the received signal and forward a chosen codebook point.

    ``pattern`` is cycled to the block dimension in use.
    """

    pattern: tuple[int, ...] = (1,)


@dataclass(frozen=True)
class AdditiveLatticeOffset:
    """Forward the honest decoding shifted by a fine-lattice offset."""

    pattern: tuple[int, ...] = (1,)


@dataclass(frozen=True)
class RandomGarble:
    """Forward a uniformly random codebook point."""


@dataclass(frozen=True)
class CustomRelay:
    """Arbitrary strategy ``fn(words, yr, s)``, called once per exchange, in order.

    For a batch of B trials, ``yr`` is the exchange's received block (B, N),
    ``words`` the exchange's raw uint64 relay words of the draw layout (B, N),
    the same words ``RandomGarble`` turns into coords, and ``s`` the (B, d)
    messages, symbol ints in [0, q^r).  The callable sees nothing else by
    construction; one that needs earlier blocks keeps them as its own state.
    It returns the (B, N) transmission: non-finite output is rejected and
    each row above the relay power limit is scaled down to it.
    """

    fn: object


def uniform_ints(words: np.ndarray, q) -> np.ndarray:
    """Uniform ints in [0, q) from 64-bit words: floor(w * q / 2^64), exactly.

    ``q`` is an int, or an int array that broadcasts to the shape of
    ``words``, one modulus per word (per column, say).  Each value is hit
    by floor(2^64/q) or ceil(2^64/q) words, so its probability is within
    2^-64 of 1/q.  The product is split into 32-bit halves so no
    intermediate exceeds 64 bits (every q in [1, 2^32)).
    """
    qq = np.asarray(q)
    if qq.dtype.kind not in "iu" or qq.size and not (qq.min() >= 1 and qq.max() < 2**32):
        raise ValueError(f"q = {q} must be integers in [1, 2^32)")
    w = np.asarray(words, dtype=np.uint64)
    qq = qq.astype(np.uint64)
    half = np.uint64(32)
    # in place: two arrays instead of a fresh temporary per step
    low = w & np.uint64(0xFFFFFFFF)
    low *= qq
    low >>= half
    high = w >> half
    high *= qq
    high += low
    high >>= half
    return high.view(np.int64)  # every value is below 2^32


def _cycle_pattern(pattern: tuple[int, ...], widths: tuple[int, ...], q) -> np.ndarray:
    """``pattern`` cycled over each exchange's uses from its start, mod each use's q."""
    pattern = tuple(pattern)
    if not pattern:
        raise ValueError("pattern must be nonempty")
    cycled = [pattern[i % len(pattern)] for w in widths for i in range(w)]
    # reduced as Python ints: a config's pattern entries have no upper bound
    return (np.array(cycled, dtype=object) % q).astype(np.int64)


def relay_step(
    behavior,
    pair: NestedLatticePair,
    widths: tuple[int, ...],
    yr: np.ndarray,
    words: np.ndarray,
    s,
    power_limit: float,
) -> np.ndarray:
    """Relay transmissions for the received signal ``yr`` of shape (..., n).

    The last axis is a pass over consecutive exchanges of ``widths`` channel
    uses each (n = sum(widths)), ``pair`` the code of those uses, with one
    nesting ratio per use when they differ; leading axes are trials, one
    row per trial.  ``words`` are the relay's raw uint64 layout words of
    ``yr``'s shape, which ``RandomGarble`` maps to uniform coords in
    [0, q) of each use's code and ``CustomRelay`` reads raw; ``s`` are the
    messages, which only ``CustomRelay`` reads.  A pattern restarts at
    each exchange.  A custom relay's callable is called once per exchange,
    in order, with that exchange's (..., width) slices; rows it sends above
    ``power_limit`` are scaled down to it, with one warning per pass.
    """
    if np.shape(words) != np.shape(yr):
        raise ValueError(f"relay words must have the received shape {np.shape(yr)}")
    if sum(widths) != np.shape(yr)[-1]:
        raise ValueError(f"exchange widths {widths} do not cover the {np.shape(yr)[-1]} "
                         "received uses")
    if isinstance(behavior, HonestRelay):
        return codebook_point(pair, decode_fine_mod_coarse(pair, yr))
    if isinstance(behavior, SubstituteLattice):
        t3 = _cycle_pattern(behavior.pattern, widths, pair.modulus)
        return codebook_point(pair, np.broadcast_to(t3, np.shape(yr)))
    if isinstance(behavior, AdditiveLatticeOffset):
        delta = _cycle_pattern(behavior.pattern, widths, pair.modulus)
        return codebook_point(pair, lattice_add(pair, decode_fine_mod_coarse(pair, yr), delta))
    if isinstance(behavior, RandomGarble):
        return codebook_point(pair, uniform_ints(words, pair.modulus))
    if isinstance(behavior, CustomRelay):
        xr = np.empty(np.shape(yr))
        power = np.empty(xr.shape[:-1] + (len(widths),))
        a = 0
        for j, w in enumerate(widths):  # in exchange order, so the relay stays causal
            out = np.asarray(behavior.fn(words[..., a : a + w], yr[..., a : a + w], s),
                             dtype=float)
            if out.shape != xr[..., a : a + w].shape:
                raise ValueError(f"custom relay output in exchange {j} must have shape "
                                 f"{xr[..., a : a + w].shape}, got {out.shape}")
            if not np.all(np.isfinite(out)):
                raise ValueError(f"custom relay output in exchange {j} is not finite")
            xr[..., a : a + w] = out
            power[..., j] = np.mean(out**2, axis=-1)
            a += w
        clipped = power > power_limit
        if clipped.any():
            log.warning("custom relay output clipped in %d of %d (trial, exchange) rows: "
                        "worst per-use power %.3f -> %.3f",
                        clipped.sum(), clipped.size, power.max(), power_limit)
            # rows at or below the limit are scaled by exactly 1
            scale = np.sqrt(power_limit / np.maximum(power, power_limit))
            xr *= np.repeat(scale, widths, axis=-1)
        return xr
    raise TypeError(f"unknown relay behavior: {behavior!r}")


# ---------------------------------------------------------------------------
# power accounting
# ---------------------------------------------------------------------------


def power_audit(records: list[PhaseRecord], power_limit: float) -> dict:
    """Per-node average power over that node's transmitting channel uses.

    A record's arrays may carry leading batch axes (the ``(B, N)`` records
    of ``run_batch``); every entry counts as one channel use.
    """
    sums = {"node1": 0.0, "node2": 0.0, "relay": 0.0}
    uses = {"node1": 0, "node2": 0, "relay": 0}
    for rec in records:
        sums["node1"] += float(np.sum(np.asarray(rec.x1) ** 2))
        uses["node1"] += np.size(rec.x1)
        if rec.node2_active:
            sums["node2"] += float(np.sum(np.asarray(rec.x2) ** 2))
            uses["node2"] += np.size(rec.x2)
        sums["relay"] += float(np.sum(np.asarray(rec.xr) ** 2))
        uses["relay"] += np.size(rec.xr)
    report = {}
    for node in sums:
        avg = sums[node] / uses[node] if uses[node] else 0.0
        report[node] = {
            "average_power": avg,
            "channel_uses": uses[node],
            "violates_limit": avg > power_limit,
        }
    return report
