"""Four-stage transmission scheme with tamper detection at the destination.

Stage 0   node 1 sends a uniform lattice point, node 2 jams; both sides
          hash their view through the shared extractor, yielding the tag
          seed x at the source and its estimate at the destination.
Stage 1   same exchange again, yielding the one-time-pad key k.
Stage 2   node 1 sends u = h + k over an r-dimensional lattice block
          (node 2 silent), where h is the detection tag of the message.
Stage 3   the message symbols are serialized to bits and shipped in
          blocks through the invertible encoder, node 2 jamming.

The destination recovers h_hat = u_hat - k_hat and accepts iff the
decoded message verifies against (x_hat, h_hat).  A Byzantine relay that
forces a different message survives that check with probability at most
(d+1)/q^r plus a term that vanishes with the block length.

Trials run only in batches (``TwoHopProtocol.run_batch``; one trial is a
batch of one): every stage works on ``(B, ...)`` integer arrays, one row
per trial, and GF(q^r) elements are ints in ``[0, q^r)`` (base-q digits =
polynomial coefficients, lowest degree first, which are also the coords
of the r-dimensional tag code).  Trial i of seed S draws all its
randomness from a fixed block of 64-bit words of the counter-based
generator ``numpy.random.Philox(key=S)`` (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC 2011), so it is a pure function of
(S, i) whatever the batch size or worker count.  ``draw_layout`` gives the
word layout; ``uniform_ints`` and ``box_muller`` turn words into draws.
Each stage is one hop of k consecutive exchanges, coords ``(B, k, N)``:
k = 2 for the seed stages, 1 for the tag, ``blocks`` for the message.
Every relay behavior, custom strategies included, makes one batched
``relay_step`` call per hop and draws its randomness only from the
layout's relay words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .amd import AmdParams, amd_tag, amd_verify, win_bound
from .channel import (
    ChannelConfig,
    CustomRelay,
    PhaseRecord,
    phase1,
    phase2,
    relay_step,
    uniform_ints,
)
from .extract import (
    EncoderMap,
    ExtractorMap,
    build_encoder,
    decode_ranks,
    encode_message,
    encoder_bits,
    extract_seed,
    r0_max,
    r_max,
)
from .fields import ExtField
from .lattice import (
    NestedLatticePair,
    average_codebook_power,
    codebook_point,
    coords_to_index,
    decode_fine_mod_coarse,
    index_to_coords,
    lattice_sub,
)

__all__ = [
    "ProtocolParams",
    "RateReport",
    "SimReport",
    "TrialBatch",
    "TwoHopProtocol",
    "box_muller",
    "draw_layout",
    "rate_accounting",
    "payload_bits",
    "wilson_interval",
]

MAX_FIELD_ORDER = 1024  # q^r cap: the engine keeps q^r x q^r int tables
BATCH_TRIALS = 512  # trials per engine call in monte_carlo


@dataclass(frozen=True)
class ProtocolParams:
    """Static configuration for one protocol instance.

    Seed stages use an N-dimensional code with nesting ratio q; the tag
    stage reuses the same construction at dimension r; the message stage
    has its own (msg_q, msg_N) code and a binary encoder of msg_r0 bits
    per block.
    """

    q: int = 5
    r: int = 2
    d: int = 2
    N: int = 4
    epsilon: float = 0.1
    msg_q: int = 5
    msg_N: int = 2
    msg_r0: int = 2
    alpha: float = 1.0
    power_limit: float = 30.0
    noiseless: bool = True
    noise_var_relay: float = 1.0
    noise_var_dest: float = 1.0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("seed length r must be >= 1")
        cap = r_max(self.N, self.q, self.epsilon)
        if self.r > cap:
            raise ValueError(f"r = {self.r} exceeds the extractable cap {cap}")
        if self.q**self.r > MAX_FIELD_ORDER:
            raise ValueError(
                f"GF({self.q}^{self.r}) has more than {MAX_FIELD_ORDER} elements, "
                "the largest field the simulator tabulates"
            )
        msg_cap = r0_max(self.msg_N, math.log2(self.msg_q), self.epsilon)
        if self.msg_r0 > msg_cap or self.msg_r0 < 1:
            raise ValueError(
                f"msg_r0 = {self.msg_r0} outside [1, {msg_cap}] for the message code"
            )
        # AMD hypothesis is enforced eagerly so bad configs die before a run
        AmdParams(field=ExtField(self.q, self.r), d=self.d)


@dataclass(frozen=True)
class TrialBatch:
    """Trials start..stop-1 as arrays, one row per trial; elements are ints.

    ``s_hat`` rows are meaningful only where ``decodable``; ``records``
    holds one PhaseRecord of ``(B, dim)`` views per exchange when kept.
    """

    s: np.ndarray  # (B, d)
    s_hat: np.ndarray  # (B, d)
    decodable: np.ndarray  # (B,) bool
    accepted: np.ndarray  # (B,) bool
    x: np.ndarray
    x_hat: np.ndarray
    k: np.ndarray
    k_hat: np.ndarray
    u: np.ndarray
    u_hat: np.ndarray
    h_hat: np.ndarray
    records: tuple = ()

    def decode_errors(self) -> np.ndarray:
        """Trials whose destination did not recover the sent message."""
        return ~self.decodable | np.any(self.s_hat != self.s, axis=1)

    def counts(self) -> np.ndarray:
        """(decode errors, false rejects, adversary wins) over the batch."""
        err = self.decode_errors()
        return np.array([err.sum(), (~err & ~self.accepted).sum(),
                         (err & self.accepted).sum()], dtype=np.int64)


@dataclass(frozen=True)
class RateReport:
    n: int
    RT: float
    PT: float
    blocks: int


@dataclass(frozen=True)
class SimReport:
    trials: int
    decode_error_rate: float
    false_reject_rate: float
    adversary_win_rate: float
    decode_error_ci: tuple[float, float]
    false_reject_ci: tuple[float, float]
    adversary_win_ci: tuple[float, float]
    win_bound: float
    n: int
    RT: float
    PT: float
    seed: int


def payload_bits(q: int, r: int, d: int) -> int:
    """Exact bit length of a d-symbol GF(q^r) message: ceil(d*r*log2 q)."""
    return (q ** (r * d) - 1).bit_length()


def rate_accounting(N: int, r: int, q: int, d: int, Re: float) -> tuple[int, float]:
    """Channel uses per direction and the overall secrecy rate.

    n = 2N + r + ceil(d*r*log2(q) / (N*Re)) * N and RT = d*r*log2(q)/(2n);
    RT stays strictly below Re/2 and approaches it for large d.
    """
    info_bits = d * r * math.log2(q)
    blocks = math.ceil(info_bits / (N * Re))
    n = 2 * N + r + blocks * N
    return n, info_bits / (2 * n)


def wilson_interval(hits: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = hits / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# per-trial randomness
# ---------------------------------------------------------------------------


def box_muller(words: np.ndarray) -> np.ndarray:
    """Standard normals from 64-bit words, one per word, by Box-Muller.

    Words 2j and 2j+1 give u1 = ((w_2j >> 11) + 1) / 2^53 in (0, 1] and
    u2 = (w_2j+1 >> 11) / 2^53 in [0, 1); normal 2j is
    sqrt(-2 ln u1) cos(2 pi u2) and normal 2j+1 the same with sin.  The
    last axis must have even length.
    """
    w = np.asarray(words, dtype=np.uint64)
    if w.shape[-1] % 2:
        raise ValueError("Box-Muller needs an even number of words")
    shift = np.uint64(11)
    u1 = ((w[..., 0::2] >> shift) + np.uint64(1)) * 2.0**-53
    u2 = (w[..., 1::2] >> shift) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.empty(w.shape, dtype=float)
    z[..., 0::2] = radius * np.cos(theta)
    z[..., 1::2] = radius * np.sin(theta)
    return z


def _dimensions(p: ProtocolParams) -> tuple[int, int, int]:
    """(N0, blocks, n = 2N + r + blocks * msg_N): block bits, blocks, uses per trial."""
    blocks = math.ceil(payload_bits(p.q, p.r, p.d) / p.msg_r0)
    return encoder_bits(p.msg_N, p.msg_q), blocks, 2 * p.N + p.r + blocks * p.msg_N


def draw_layout(params: ProtocolParams) -> tuple[dict[str, slice], int]:
    """Word ranges of one trial's draws, in order, and its padded length W.

    With n = 2N + r + blocks*msg_N channel uses per trial (exchanges in order:
    seed stage 0, seed stage 1, tag stage, message blocks):

    message   d words, the message symbols, uniform in [0, q^r)
    seed      4N words: per seed stage, N source coords then N jam coords,
              uniform in [0, q)
    blocks    per message block, N0 - r0 randomizer bits (uniform in
              [0, 2)) then msg_N jam coords (uniform in [0, msg_q))
    relay     n words, one per channel use: the random garble's coords,
              uniform in [0, q) of that hop's code, or a custom
              relay's raw words
    noise     2n words through Box-Muller: normals 0..n-1 are the relay's
              noise per channel use, normals n..2n-1 the destination's
              (drawn in every mode, used only in Gaussian mode)

    W rounds the total up to a multiple of 4, the words of one Philox
    counter block.
    """
    p = params
    n0, blocks, uses = _dimensions(p)
    sizes = [("message", p.d), ("seed", 4 * p.N),
             ("blocks", blocks * (n0 - p.msg_r0 + p.msg_N)),
             ("relay", uses), ("noise", 2 * uses)]
    layout, at = {}, 0
    for name, size in sizes:
        layout[name] = slice(at, at + size)
        at += size
    return layout, -(-at // 4) * 4


@dataclass
class _Chunk:
    """The layout draws of trials start..stop-1 and the hop in progress."""

    message: np.ndarray  # (B, d) symbol ints
    seed: np.ndarray  # (B, stage, source/jam, N)
    randomizer: np.ndarray  # (B, blocks, N0 - r0) bits
    block_jam: np.ndarray  # (B, blocks, msg_N)
    relay_words: np.ndarray  # (B, n) raw words
    noise: np.ndarray | None  # (B, 2n) normals, Gaussian mode only
    records: list | None  # one PhaseRecord per exchange, when kept
    use: int = 0  # first channel use of the next hop


def _default_extractor(q: int, r: int, N: int) -> ExtractorMap:
    """Deterministic full-row-rank map: identity block padded with ones."""
    m = np.hstack([np.eye(r, dtype=np.int64), np.ones((r, N - r), dtype=np.int64)])
    return ExtractorMap(m % q, q)


def _default_msg_matrix(r0: int, n0: int) -> np.ndarray:
    return np.hstack([np.eye(r0, dtype=np.int64), np.ones((r0, n0 - r0), dtype=np.int64)]) % 2


class TwoHopProtocol:
    """Runner for trials, rate accounting, and Monte Carlo batches."""

    def __init__(self, params: ProtocolParams):
        self.params = params
        p = params
        self.ext_field = ExtField(p.q, p.r)
        self.amd = AmdParams(field=self.ext_field, d=p.d)
        self.seed_pair = NestedLatticePair(N=p.N, q=p.q, alpha=p.alpha)
        self.tag_pair = NestedLatticePair(N=p.r, q=p.q, alpha=p.alpha)
        self.msg_pair = NestedLatticePair(N=p.msg_N, q=p.msg_q, alpha=p.alpha)
        self.extractor = _default_extractor(p.q, p.r, p.N)
        n0, self.blocks, self.uses = _dimensions(p)
        self.encoder: EncoderMap = build_encoder(
            _default_msg_matrix(p.msg_r0, n0), self.msg_pair
        )
        self.payload_bits = payload_bits(p.q, p.r, p.d)
        self.channel = ChannelConfig(
            power_limit=p.power_limit,
            noise_var_relay=p.noise_var_relay,
            noise_var_dest=p.noise_var_dest,
            noiseless=p.noiseless,
        )
        self.layout, self.trial_words = draw_layout(p)
        tables = self.ext_field.tables()
        self._add, self._sub = tables["add"], tables["sub"]
        # message value <-> bits; python ints keep payloads beyond 62 bits exact
        big = np.int64 if self.payload_bits <= 62 else object
        self._symbol_weights = np.array(
            [self.ext_field.order**j for j in range(p.d)], dtype=big)
        self._bit_shifts = np.arange(self.payload_bits).astype(big)
        self._powers: tuple[float, float, float] | None = None

    # -- message serialization ------------------------------------------

    def _symbols_to_bits(self, s: np.ndarray) -> np.ndarray:
        """(B, d) symbol ints -> (B, payload_bits) bits, least significant first."""
        value = s.astype(self._symbol_weights.dtype) @ self._symbol_weights
        return ((value[:, None] >> self._bit_shifts) & 1).astype(np.int64)

    def _bits_to_symbols(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of _symbols_to_bits, with a mask of in-range values."""
        value = bits.astype(self._bit_shifts.dtype) @ (1 << self._bit_shifts)
        order = self.ext_field.order
        symbols = np.empty((len(bits), self.params.d), dtype=np.int64)
        for j in range(self.params.d):
            symbols[:, j] = value % order
            value = value // order
        return symbols, (value == 0).astype(bool)

    # -- randomness ---------------------------------------------------------

    def _draws(self, seed: int, start: int, stop: int, keep: bool) -> _Chunk:
        """Layout words of trials start..stop-1 from one Philox call."""
        p, lay, per_trial = self.params, self.layout, self.trial_words
        bitgen = np.random.Philox(key=seed, counter=start * per_trial // 4)
        words = bitgen.random_raw((stop - start) * per_trial).reshape(-1, per_trial)
        b = len(words)
        blocks = words[:, lay["blocks"]].reshape(b, self.blocks, -1)
        n_rand = self.encoder.N0 - self.encoder.r0
        noise = None if p.noiseless else box_muller(words[:, lay["noise"]])
        return _Chunk(
            message=uniform_ints(words[:, lay["message"]], self.ext_field.order),
            seed=uniform_ints(words[:, lay["seed"]], p.q).reshape(b, 2, 2, p.N),
            randomizer=uniform_ints(blocks[:, :, :n_rand], 2),
            block_jam=uniform_ints(blocks[:, :, n_rand:], p.msg_q),
            relay_words=words[:, lay["relay"]],
            noise=noise,
            records=[] if keep else None,
        )

    # -- stage primitives -------------------------------------------------

    def _hop(self, pair: NestedLatticePair, t1: np.ndarray, t2: np.ndarray | None,
             behavior, chunk: _Chunk) -> np.ndarray:
        """k consecutive two-phase exchanges, coords ``(B, k, N)``; returns the decoded coords.

        Exchange j takes the next channel uses a + jN .. a + (j+1)N - 1, and
        the relay words of those uses.
        """
        a, b = chunk.use, chunk.use + t1.shape[1] * pair.N
        chunk.use = b
        noise_r = noise_d = None
        if chunk.noise is not None:
            uses = chunk.noise.shape[1] // 2
            noise_r = chunk.noise[:, a:b].reshape(t1.shape)
            noise_d = chunk.noise[:, uses + a : uses + b].reshape(t1.shape)
        x1 = codebook_point(pair, t1, 1)
        if t2 is None:
            x2 = np.zeros_like(x1)
            in_dither = pair.dither(1)
        else:
            x2 = codebook_point(pair, t2, 2)
            in_dither = pair.dither(1) + pair.dither(2)
        yr = phase1(self.channel, x1, x2, noise_r)
        words = chunk.relay_words[:, a:b].reshape(t1.shape)
        xr = relay_step(behavior, pair, yr, in_dither, words, chunk.message,
                        self.params.power_limit)
        y2 = phase2(self.channel, xr, noise_d)
        if chunk.records is not None:
            chunk.records += [PhaseRecord(*(v[:, j] for v in (x1, x2, yr, xr, y2)), t2 is not None)
                              for j in range(t1.shape[1])]
        return decode_fine_mod_coarse(pair, y2, pair.dither(3))

    def _seed_stage(self, behavior, chunk: _Chunk):
        """Stages 0/1 in one hop: jammed exchanges, hashed on both sides.

        Returns (B, 2) source and destination seeds, columns x and k.
        """
        t1, t2 = chunk.seed[:, :, 0], chunk.seed[:, :, 1]
        t_hat = self._hop(self.seed_pair, t1, t2, behavior, chunk)
        t1_hat = lattice_sub(self.seed_pair, t_hat, t2)
        source = coords_to_index(self.tag_pair, extract_seed(self.extractor, t1))
        dest = coords_to_index(self.tag_pair, extract_seed(self.extractor, t1_hat))
        return source, dest

    def _tag_stage(self, behavior, u: np.ndarray, chunk: _Chunk) -> np.ndarray:
        """Stage 2: node 2 silent, u rides the r-dimensional code directly."""
        u_coords = index_to_coords(self.tag_pair, u)[:, None]
        u_hat_coords = self._hop(self.tag_pair, u_coords, None, behavior, chunk)
        return coords_to_index(self.tag_pair, u_hat_coords[:, 0])

    def _message_stage(self, behavior, s: np.ndarray, chunk: _Chunk):
        """Stage 3: serialized bits through the encoder, all blocks in one hop.

        Returns the decoded symbols and the rows whose every block landed
        in K with zero padding and an in-range value.
        """
        padded = np.zeros((len(s), self.blocks * self.params.msg_r0), dtype=np.int64)
        padded[:, : self.payload_bits] = self._symbols_to_bits(s)
        t1 = encode_message(self.encoder, padded.reshape(len(s), self.blocks, -1),
                            chunk.randomizer)
        t_hat = self._hop(self.msg_pair, t1, chunk.block_jam, behavior, chunk)
        ranks = self.encoder.ranks(lattice_sub(self.msg_pair, t_hat, chunk.block_jam))
        out_bits = decode_ranks(self.encoder, np.maximum(ranks, 0)).reshape(len(s), -1)
        # padding must stay zero for a well-formed message
        ok = np.all(ranks >= 0, axis=1) & ~np.any(out_bits[:, self.payload_bits :], axis=1)
        s_hat, fits = self._bits_to_symbols(out_bits[:, : self.payload_bits])
        return s_hat, ok & fits

    # -- trials -------------------------------------------------------------

    def run_batch(
        self,
        behavior,
        seed: int,
        start: int,
        stop: int,
        messages: np.ndarray | None = None,
        keep_records: bool = False,
    ) -> TrialBatch:
        """Execute stages 0-3 and the acceptance decision for trials start..stop-1.

        Row j is trial i = start + j of ``seed``, the same whatever batch
        holds it: its words are words i*W .. (i+1)*W - 1 of the stream of
        ``Philox(key=seed)``, W the padded length of ``draw_layout``, with
        uniform ints by ``uniform_ints`` (bias at most 2^-64) and Gaussian
        noise by ``box_muller``.  Every relay behavior reads only the
        trial's relay words, so a trial is a pure function of (seed, i,
        params, behavior, message) for any stateless relay, and row 0 of
        ``run_batch(behavior, seed, i, i + 1, keep_records=True)`` replays
        trial i with its records.  ``messages`` (B, d) symbol ints replace
        the drawn messages.  A custom relay's callable is called once per
        exchange, 3 + blocks times, each call covering all B trials.
        """
        if not 0 <= start < stop:
            raise ValueError(f"need 0 <= start < stop, got {start}, {stop}")
        chunk = self._draws(seed, start, stop, keep_records)
        if messages is not None:
            chunk.message = np.asarray(messages, dtype=np.int64)
        s = chunk.message

        source, dest = self._seed_stage(behavior, chunk)
        (x, k), (x_hat, k_hat) = source.T, dest.T
        h = amd_tag(self.amd, s, x)
        u = self._add[h, k]
        u_hat = self._tag_stage(behavior, u, chunk)
        s_hat, decodable = self._message_stage(behavior, s, chunk)

        h_hat = self._sub[u_hat, k_hat]
        accepted = decodable & amd_verify(self.amd, s_hat, x_hat, h_hat)
        return TrialBatch(
            s=s, s_hat=s_hat, decodable=decodable, accepted=accepted,
            x=x, x_hat=x_hat, k=k, k_hat=k_hat, u=u, u_hat=u_hat, h_hat=h_hat,
            records=tuple(chunk.records or ()),
        )

    def trial_counts(self, behavior, seed: int, start: int, stop: int) -> np.ndarray:
        """(decode errors, false rejects, adversary wins) over trials start..stop-1."""
        total = np.zeros(3, dtype=np.int64)
        for a in range(start, stop, BATCH_TRIALS):
            total += self.run_batch(behavior, seed, a, min(a + BATCH_TRIALS, stop)).counts()
        return total

    # -- accounting ---------------------------------------------------------

    def stage_powers(self) -> tuple[float, float, float]:
        """Measured per-use powers (seed stages, tag stage, message stage)."""
        if self._powers is None:
            p1 = average_codebook_power(self.seed_pair, 1)
            p2 = average_codebook_power(self.tag_pair, 1)
            total = 0.0
            for coords in self.encoder.subset_coords:
                pt = codebook_point(self.msg_pair, coords, 1)
                total += float(np.dot(pt, pt)) / self.msg_pair.N
            p3 = total / len(self.encoder.subset_coords)
            self._powers = (p1, p2, p3)
        return self._powers

    def rate_report(
        self, P1: float = 0.0, P2: float = 0.0, P: float = 0.0
    ) -> RateReport:
        """Channel-use, rate, and power accounting for this instance.

        PT charges 2N uses at P1, r uses at P2, and the actual (ceiled)
        message-stage uses at P, so it agrees exactly with a measured
        power audit when fed realized per-stage powers.
        """
        p = self.params
        info_bits = p.d * p.r * math.log2(p.q)
        n, msg_uses = self.uses, self.blocks * p.msg_N
        rt = info_bits / (2 * n)
        pt = (P1 * 2 * p.N + P2 * p.r + P * msg_uses) / n
        return RateReport(n=n, RT=float(rt), PT=float(pt), blocks=self.blocks)

    def monte_carlo(
        self,
        behavior,
        trials: int,
        workers: int = 1,
        seed: int = 0,
    ) -> SimReport:
        """Estimate decode-error, false-reject, and adversary-win rates.

        Trial i is row 0 of ``run_batch(behavior, seed, i, i + 1)``: a pure
        function of (seed, i) under the word layout of ``draw_layout``
        (Philox keyed by the seed, trial i at counter i*W/4), so reports
        are identical for any worker count and batch size.  Batches of
        ``BATCH_TRIALS`` trials of built-in behaviors spread over
        ``workers`` processes; custom relays, whose callables need not
        pickle, run their batches in this process.
        """
        if trials < 1:
            raise ValueError("need at least one trial")
        if workers <= 1 or isinstance(behavior, CustomRelay):
            counts = self.trial_counts(behavior, seed, 0, trials)
        else:
            # imported here: the pool loads multiprocessing, which one worker never needs
            from concurrent.futures import ProcessPoolExecutor

            args = [(self.params, behavior, seed, a, min(a + BATCH_TRIALS, trials))
                    for a in range(0, trials, BATCH_TRIALS)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                counts = sum(pool.map(_trial_counts, args))
        decode_err, false_rej, wins = (int(c) for c in counts)
        p1, p2, p3 = self.stage_powers()
        rr = self.rate_report(p1, p2, p3)
        return SimReport(
            trials=trials,
            decode_error_rate=decode_err / trials,
            false_reject_rate=false_rej / trials,
            adversary_win_rate=wins / trials,
            decode_error_ci=wilson_interval(decode_err, trials),
            false_reject_ci=wilson_interval(false_rej, trials),
            adversary_win_ci=wilson_interval(wins, trials),
            win_bound=win_bound(self.amd),
            n=rr.n,
            RT=rr.RT,
            PT=rr.PT,
            seed=seed,
        )


def _trial_counts(args) -> np.ndarray:
    params, behavior, seed, start, stop = args
    return _protocol_cache(params).trial_counts(behavior, seed, start, stop)


@lru_cache(maxsize=8)
def _protocol_cache(params: ProtocolParams) -> TwoHopProtocol:
    """The protocol instance for params, kept for the 8 most recent params."""
    return TwoHopProtocol(params)
