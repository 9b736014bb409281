"""Two-phase half-duplex Gaussian two-hop channel with pluggable relays.

Phase 1: the relay hears the superposition of both end nodes plus
Gaussian noise (or the exact sum in noiseless mode).  Phase 2: the
destination hears the relay's transmission plus its own noise.  Noise is
never drawn here: the caller passes standard normals of the signal's
shape (the trial engine takes them from its fixed word layout), and each
phase scales them by its noise deviation.  The relay's behavior is a
strategy object; every behavior gets the same inputs, one batched call
per hop: the received blocks, the incoming dither, the relay's own
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
    "ChannelConfig",
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


@dataclass(frozen=True)
class ChannelConfig:
    power_limit: float
    noise_var_relay: float = 1.0
    noise_var_dest: float = 1.0
    noiseless: bool = False

    def __post_init__(self):
        if self.power_limit <= 0:
            raise ValueError("power limit must be positive")
        if self.noise_var_relay < 0 or self.noise_var_dest < 0:
            raise ValueError("noise variances must be nonnegative")


@dataclass
class PhaseRecord:
    """One phase-1/phase-2 round; node-2 silence is tracked for the audit."""

    x1: np.ndarray
    x2: np.ndarray
    yr: np.ndarray
    xr: np.ndarray
    y2: np.ndarray
    node2_active: bool = True


def _add_noise(y: np.ndarray, var: float, noise) -> np.ndarray:
    if noise is None or np.shape(noise) != y.shape:
        raise ValueError(f"noise must be standard normals of shape {y.shape}")
    return y + np.sqrt(var) * np.asarray(noise, dtype=float)


def phase1(cfg: ChannelConfig, x1, x2, noise=None) -> np.ndarray:
    """Relay observation: x1 + x2 + Zr (exact sum in noiseless mode).

    Zr is ``noise``, the caller's standard normal draws of the signal's
    shape, scaled by the relay's noise deviation; it is ignored in
    noiseless mode.  Arrays may carry leading batch axes.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape:
        raise ValueError(f"length mismatch: {x1.shape} vs {x2.shape}")
    y = x1 + x2
    if not cfg.noiseless:
        y = _add_noise(y, cfg.noise_var_relay, noise)
    return y


def phase2(cfg: ChannelConfig, xr, noise=None) -> np.ndarray:
    """Destination observation: xr + Z_R, with Z_R from ``noise`` as Zr in phase1."""
    y = np.asarray(xr, dtype=float)
    if not cfg.noiseless:
        y = _add_noise(y, cfg.noise_var_dest, noise)
    return y


# ---------------------------------------------------------------------------
# relay behaviors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HonestRelay:
    """Decode the mod-coarse sum and forward it on the outgoing dither."""


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


def uniform_ints(words: np.ndarray, q: int) -> np.ndarray:
    """Uniform ints in [0, q) from 64-bit words: floor(w * q / 2^64), exactly.

    Each value is hit by floor(2^64/q) or ceil(2^64/q) words, so its
    probability is within 2^-64 of 1/q.  The product is split into 32-bit
    halves so no intermediate exceeds 64 bits (q < 2^32).
    """
    if not 1 <= q < 2**32:
        raise ValueError(f"q = {q} must lie in [1, 2^32)")
    w = np.asarray(words, dtype=np.uint64)
    qq = np.uint64(q)
    half = np.uint64(32)
    low = (w & np.uint64(0xFFFFFFFF)) * qq
    return (((w >> half) * qq + (low >> half)) >> half).astype(np.int64)


def _cycle_pattern(pattern: tuple[int, ...], n: int, q: int) -> np.ndarray:
    pattern = tuple(pattern)
    if not pattern:
        raise ValueError("pattern must be nonempty")
    return np.array([pattern[i % len(pattern)] % q for i in range(n)], dtype=np.int64)


def relay_step(
    behavior,
    pair: NestedLatticePair,
    yr: np.ndarray,
    in_dither: np.ndarray,
    words: np.ndarray,
    s,
    power_limit: float,
) -> np.ndarray:
    """Relay transmissions for received blocks ``yr`` of shape (..., k, N).

    The last two axes are a hop's k consecutive exchanges and their N
    channel uses; leading axes are trials, one row per trial.
    ``in_dither`` is the dither sum the honest relay removes before
    decoding (d1 + d2 when both end nodes transmit, d1 alone when node 2
    is silent); every forward uses the outgoing dither d3.  ``words`` are
    the relay's raw uint64 layout words of ``yr``'s shape, which
    ``RandomGarble`` maps to uniform coords in [0, q) and ``CustomRelay``
    reads raw; ``s`` are the messages, which only ``CustomRelay`` reads.
    A custom relay's callable is called once per exchange, in order; rows
    it sends above ``power_limit`` are scaled down to it, with one warning.
    """
    if np.shape(words) != np.shape(yr):
        raise ValueError(f"relay words must have the received shape {np.shape(yr)}")
    if isinstance(behavior, HonestRelay):
        t_hat = decode_fine_mod_coarse(pair, yr, in_dither)
        return codebook_point(pair, t_hat, 3)
    if isinstance(behavior, SubstituteLattice):
        t3 = _cycle_pattern(behavior.pattern, pair.N, pair.q)
        return codebook_point(pair, np.broadcast_to(t3, np.shape(yr)), 3)
    if isinstance(behavior, AdditiveLatticeOffset):
        t_hat = decode_fine_mod_coarse(pair, yr, in_dither)
        delta = _cycle_pattern(behavior.pattern, pair.N, pair.q)
        return codebook_point(pair, lattice_add(pair, t_hat, delta), 3)
    if isinstance(behavior, RandomGarble):
        return codebook_point(pair, uniform_ints(words, pair.q), 3)
    if isinstance(behavior, CustomRelay):
        xr = np.empty(np.shape(yr))
        for j in range(xr.shape[-2]):  # in exchange order, so the relay stays causal
            out = np.asarray(behavior.fn(words[..., j, :], yr[..., j, :], s), dtype=float)
            if out.shape != xr[..., j, :].shape:
                raise ValueError(f"custom relay output in exchange {j} of the hop must "
                                 f"have shape {xr[..., j, :].shape}, got {out.shape}")
            if not np.all(np.isfinite(out)):
                raise ValueError(f"custom relay output in exchange {j} of the hop is not finite")
            xr[..., j, :] = out
        power = np.mean(xr**2, axis=-1)
        clipped = power > power_limit
        if clipped.any():
            log.warning("custom relay output clipped in %d of %d (trial, exchange) rows: "
                        "worst per-use power %.3f -> %.3f",
                        clipped.sum(), clipped.size, power.max(), power_limit)
            # rows at or below the limit are scaled by exactly 1
            xr *= np.sqrt(power_limit / np.maximum(power, power_limit))[..., None]
        return xr
    raise TypeError(f"unknown relay behavior: {behavior!r}")


# ---------------------------------------------------------------------------
# power accounting
# ---------------------------------------------------------------------------


def power_audit(records: list[PhaseRecord], cfg: ChannelConfig) -> dict:
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
            "violates_limit": avg > cfg.power_limit,
        }
    return report
