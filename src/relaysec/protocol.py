"""Four-stage transmission scheme with tamper detection at the destination.

Stage 0   node 1 sends a uniform lattice point, node 2 jams; both sides
          hash their view through the shared extractor, yielding the tag
          seed x at the source and its estimate at the destination.
Stage 1   same exchange again, yielding the one-time-pad key k.
Stage 2   node 1 sends u = h + k over an r-dimensional lattice block
          (node 2 silent), where h is the detection tag of the message.
Stage 3   the message value is cut into base-2^msg_r0 block values; each
          block value and a uniform randomizer pick its codebook point from
          the invertible encoder's table, node 2 jamming.

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

Node 1 never adapts to the relay: u reads only the source's own x and k.
So the engine first forms both end nodes' coords of all n channel uses
of a trial from its draws, ``(2, B, n)``: 2N seed-stage uses, r tag
uses, then msg_N uses per message block.  One pass then runs both phases
over every use at once on ``pass_pair``, whose nesting ratio is q on the
seed and tag uses and msg_q on the message uses, and the destination
splits the decoded uses back into the stages.  Every relay behavior,
custom strategies included, gets one batched ``relay_step`` call per
pass, with the exchange widths (N, N, r, msg_N, ...) so that a pattern
restarts at each exchange and a custom relay is still called once per
exchange, and draws its randomness only from the layout's relay words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .amd import AmdParams, amd_tag, amd_verify, check_premises, win_bound
from .channel import (
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
    encoder_bits,
    extract_seed,
    r0_max,
    r_max,
)
from .fields import ExtField, is_prime, undigits
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
    "TrialBatch",
    "TwoHopProtocol",
    "box_muller",
    "draw_layout",
    "payload_bits",
    "operating_point",
    "wilson_interval",
]

MAX_FIELD_ORDER = 1024  # q^r cap: the engine keeps q^r x q^r int tables
MAX_MESSAGE_POINTS = 10**5  # msg_q^msg_N cap: build_encoder sorts every codebook point
_MAX_NORMAL = math.sqrt(106 * math.log(2))  # box_muller's largest |normal|: u1 >= 2^-53
_DECODE_REACH = 2.0**62  # |y / alpha| the int64 decoder rounds, half its range for margin
BATCH_TRIALS = 512  # trials per engine call in monte_carlo
MAX_TRIAL_WORDS = 2**14  # W cap: one batch's BATCH_TRIALS x W uint64 draws fill 64 MiB


@dataclass(frozen=True)
class ProtocolParams:
    """Static configuration for one protocol instance.

    Seed stages use an N-dimensional code with nesting ratio q; the tag
    stage reuses the same construction at dimension r; the message stage
    has its own (msg_q, msg_N) code and a binary encoder of msg_r0 bits
    per block.  The channel's power limit and noise variances live here
    too; in noiseless mode the engine passes the channel no noise.
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
        # the two caps that q or msg_q alone can break come before any trial division
        if self.q > MAX_FIELD_ORDER:
            raise ValueError(f"GF({self.q}^r) has more than {MAX_FIELD_ORDER} elements at every "
                             "r >= 1, the largest field the simulator tabulates")
        if self.msg_q > MAX_MESSAGE_POINTS:
            raise ValueError(f"the message code's {self.msg_q}^msg_N codebook points exceed "
                             f"{MAX_MESSAGE_POINTS} at every msg_N >= 1, the most the simulator "
                             "enumerates")
        check_premises(self.q, self.d)  # first of the rest, since they do not depend on r or N
        if not is_prime(self.msg_q):
            raise ValueError(f"msg_q={self.msg_q} is not prime: the message code needs a prime "
                             "nesting ratio")
        if not self.power_limit > 0:
            raise ValueError("power limit must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.noise_var_relay < 0 or self.noise_var_dest < 0:
            raise ValueError("noise variances must be nonnegative")
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
        if self.d + 1 >= self.q**self.r:
            raise ValueError(f"detection bound (d+1)/q^r = {self.d + 1}/{self.q**self.r} "
                             "is not below 1: d + 1 must be less than q^r")
        # msg_q >= 2, so from the cap's bit length on 2^msg_N alone exceeds it: no huge power
        if (self.msg_N >= MAX_MESSAGE_POINTS.bit_length()
                or self.msg_q**self.msg_N > MAX_MESSAGE_POINTS):
            raise ValueError(f"the message code's {self.msg_q}^{self.msg_N} codebook points "
                             f"exceed {MAX_MESSAGE_POINTS}, the most the simulator enumerates")
        msg_cap = r0_max(self.msg_N, math.log2(self.msg_q), self.epsilon)
        if self.msg_r0 > msg_cap or self.msg_r0 < 1:
            raise ValueError(
                f"msg_r0 = {self.msg_r0} outside [1, {msg_cap}] for the message code"
            )
        words = draw_layout(self)[1]
        if words > MAX_TRIAL_WORDS:
            raise ValueError(f"a trial draws {words} words, more than {MAX_TRIAL_WORDS}, the most "
                             f"the simulator draws per trial in batches of {BATCH_TRIALS}")
        # the full codebook's power bounds every stage's, the message stage's K-average too
        for name, ratio in (("q", self.q), ("msg_q", self.msg_q)):
            power = average_codebook_power(NestedLatticePair(N=1, q=ratio, alpha=self.alpha))
            if not power <= self.power_limit:
                raise ValueError(f"the ({name}={ratio}, alpha={self.alpha}) code's per-use "
                                 f"power {power} exceeds power_limit = {self.power_limit}")
        if not self.noiseless:
            # each decoder rounds y / alpha to int64: y is at most a sum of two codebook points,
            # each coordinate within max(q, msg_q) alpha / 2, plus _MAX_NORMAL noise deviations
            room = (_DECODE_REACH - max(self.q, self.msg_q)) * self.alpha / _MAX_NORMAL
            for name in ("noise_var_relay", "noise_var_dest"):
                var = getattr(self, name)
                if var and not var < room * room:  # zero draws no noise; NaN and inf fail
                    raise ValueError(f"{name} = {var}: the largest noise draw, {_MAX_NORMAL:.2f} "
                                     f"deviations, leaves the int64 decoder's range at "
                                     f"alpha = {self.alpha}")


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
        return ~self.decodable | (self.s_hat != self.s).any(axis=1)

    def counts(self) -> np.ndarray:
        """(decode errors, false rejects, adversary wins) over the batch."""
        err = self.decode_errors()
        return np.array([err.sum(), (~err & ~self.accepted).sum(),
                         (err & self.accepted).sum()], dtype=np.int64)


def payload_bits(q: int, r: int, d: int) -> int:
    """Exact bit length of a d-symbol GF(q^r) message: ceil(d*r*log2 q)."""
    return (q ** (r * d) - 1).bit_length()


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


def operating_point(p: ProtocolParams) -> tuple[int, float, float, float]:
    """(n, RT, Re/2, winBound): uses per trial, RT = d*r*log2(q) / (2n), RT's limit, (d+1)/q^r.

    Re = msg_r0 / msg_N is the message code's rate in bits per use; RT stays
    below Re/2 and approaches it as d grows, not monotonically, because the
    block count is rounded up.  winBound is ``amd.win_bound`` of the tag code.
    """
    n = _dimensions(p)[2]
    bound = win_bound(AmdParams(field=ExtField(p.q, p.r), d=p.d))
    return n, p.d * p.r * math.log2(p.q) / (2 * n), p.msg_r0 / (2 * p.msg_N), bound


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
              uniform in [0, q) of that use's code, or a custom
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


def _identity_ones(rows: int, cols: int) -> np.ndarray:
    """[I | ones]: full row rank over every GF(q), the default extractor and encoder matrix."""
    return np.hstack([np.eye(rows, dtype=np.int64), np.ones((rows, cols - rows), dtype=np.int64)])


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
        self.extractor = ExtractorMap(_identity_ones(p.r, p.N), p.q)
        n0, self.blocks, self.uses = _dimensions(p)
        self.encoder: EncoderMap = build_encoder(_identity_ones(p.msg_r0, n0), self.msg_pair)
        self.payload_bits = payload_bits(p.q, p.r, p.d)
        self.layout, self.trial_words = draw_layout(p)
        # one pass over a trial's uses: its exchanges, each on its stage's code
        self.widths = (p.N, p.N, p.r) + (p.msg_N,) * self.blocks
        ratios = (p.q,) * (2 * p.N + p.r) + (p.msg_q,) * (self.blocks * p.msg_N)
        self.pass_pair = NestedLatticePair(N=self.uses, q=ratios, alpha=p.alpha)
        # the modulus of each word of the message, seed and blocks ranges, which lead the layout
        block_moduli = [2] * (n0 - p.msg_r0) + [p.msg_q] * p.msg_N
        self._moduli = np.array([self.ext_field.order] * p.d + [p.q] * (4 * p.N)
                                + block_moduli * self.blocks, dtype=np.int64)
        tables = self.ext_field.tables()
        self._add, self._sub = tables["add"], tables["sub"]
        # message value <-> block values; python ints keep padded values beyond 62 bits exact
        big = np.int64 if self.blocks * p.msg_r0 <= 62 else object
        self._symbol_weights = np.array(
            [self.ext_field.order**j for j in range(p.d)], dtype=big)
        self._block_weights = np.array(
            [2 ** (p.msg_r0 * j) for j in range(self.blocks)], dtype=big)
        self._powers: tuple[float, float, float] | None = None

    # -- message serialization ------------------------------------------

    def _symbols_to_blocks(self, s: np.ndarray) -> np.ndarray:
        """(B, d) symbol ints -> (B, blocks) base-2^msg_r0 digits of the message value."""
        value = s.astype(self._symbol_weights.dtype) @ self._symbol_weights
        return (value[:, None] // self._block_weights % 2**self.params.msg_r0).astype(np.int64)

    def _blocks_to_symbols(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of _symbols_to_blocks, with a mask of values below q^(rd)."""
        value = blocks.astype(self._block_weights.dtype) @ self._block_weights
        order = self.ext_field.order
        symbols = np.empty((len(blocks), self.params.d), dtype=np.int64)
        for j in range(self.params.d):
            symbols[:, j] = value % order
            value = value // order
        return symbols, (value == 0).astype(bool)

    # -- trials -------------------------------------------------------------

    def _source(self, words: np.ndarray, messages: np.ndarray | None):
        """(s, x, k, u, t): the messages, the source's seeds and tag, and both nodes' coords.

        ``words`` are the batch's (B, W) layout words and ``messages``, when
        given, replace the drawn messages.  ``t`` is (2, B, n): node 1's
        coords of every channel use, then node 2's, in use order.  Node 2 is
        silent in the tag stage, so its coords there are 0, whose point is +0.0.
        """
        p = self.params
        ints = uniform_ints(words[:, : len(self._moduli)], self._moduli)
        b, n_rand, seed_end = len(ints), self.encoder.N0 - self.encoder.r0, p.d + 4 * p.N
        # a copy: a view would keep every drawn int alive for the whole batch
        s = ints[:, : p.d].copy() if messages is None else messages.astype(np.int64)
        seeds = ints[:, p.d : seed_end].reshape(b, 2, 2, p.N)  # (B, stage, source/jam, N)
        blocks = ints[:, seed_end:].reshape(b, self.blocks, -1)  # randomizer bits, then jam
        x, k = extract_seed(self.extractor, seeds[:, :, 0]).T
        u = self._add[amd_tag(self.amd, s, x), k]
        tag, msg = 2 * p.N, 2 * p.N + p.r  # first use of the tag and of the message blocks
        t = np.zeros((2, b, self.uses), dtype=np.int64)
        t[:, :, :tag] = seeds.transpose(2, 0, 1, 3).reshape(2, b, tag)
        t[0, :, tag:msg] = index_to_coords(self.tag_pair, u)
        values = undigits(blocks[:, :, :n_rand], 2) + (self._symbols_to_blocks(s) << n_rand)
        t[0, :, msg:] = self.encoder.encode_table[values].reshape(b, -1)
        t[1, :, msg:] = blocks[:, :, n_rand:].reshape(b, -1)
        return s, x, k, u, t

    def _pass(self, behavior, t: np.ndarray, words: np.ndarray, s: np.ndarray, keep: bool):
        """(y2, records): both phases over every channel use at once, on ``pass_pair``.

        ``y2`` is the destination's (B, n) observation; ``records`` holds one
        PhaseRecord of (B, width) views per exchange when ``keep``, else is
        empty.  The end nodes' points are not held through the pass but
        formed again for the records, which keeps a large batch's heap peak
        (and its page faults) down.
        """
        p, pair, n = self.params, self.pass_pair, self.uses
        noise_r = noise_d = None
        if not p.noiseless:
            noise = box_muller(words[:, self.layout["noise"]])
            noise_r, noise_d = noise[:, :n], noise[:, n:]
        yr = phase1(*codebook_point(pair, t), noise_r, p.noise_var_relay)
        xr = relay_step(behavior, pair, self.widths, yr, words[:, self.layout["relay"]], s,
                        p.power_limit)
        y2 = phase2(xr, noise_d, p.noise_var_dest)
        if not keep:
            return y2, ()
        x1, x2 = codebook_point(pair, t)
        ends = np.cumsum(self.widths)  # exchange 2 is the tag stage, where node 2 is silent
        return y2, tuple(PhaseRecord(*(v[:, end - w : end] for v in (x1, x2, yr, xr, y2)), j != 2)
                         for j, (w, end) in enumerate(zip(self.widths, ends)))

    def _destination(self, y2: np.ndarray, jam: np.ndarray):
        """(x_hat, k_hat, u_hat, s_hat, decodable): the observation split back into stages.

        ``jam`` are node 2's (B, n) coords, which the destination knows and
        subtracts.  ``decodable`` marks the rows whose every message block
        landed in K with a value below q^(rd), which also rules out nonzero
        padding.
        """
        p, b, pair = self.params, len(y2), self.pass_pair
        t1_hat = lattice_sub(pair, decode_fine_mod_coarse(pair, y2), jam)
        tag, msg = 2 * p.N, 2 * p.N + p.r
        x_hat, k_hat = extract_seed(self.extractor, t1_hat[:, :tag].reshape(b, 2, p.N)).T
        u_hat = coords_to_index(self.tag_pair, t1_hat[:, tag:msg])
        block_coords = t1_hat[:, msg:].reshape(b, self.blocks, p.msg_N)
        values = self.encoder.decode_table[coords_to_index(self.msg_pair, block_coords)]
        s_hat, fits = self._blocks_to_symbols(np.maximum(values, 0))
        return x_hat, k_hat, u_hat, s_hat, (values >= 0).all(axis=1) & fits

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
        trial i with its records.  ``messages``, an integer array of shape
        (B, d) = (stop - start, d) of symbol ints, replaces the drawn
        messages.  A custom relay's callable is called once per exchange,
        3 + blocks times, each call covering all B trials.
        """
        if not 0 <= start < stop:
            raise ValueError(f"need 0 <= start < stop, got {start}, {stop}")
        if messages is not None:
            messages = np.asarray(messages)
            shape = (stop - start, self.params.d)
            if messages.dtype.kind not in "iu" or messages.shape != shape:
                raise ValueError(f"messages must be an integer array of shape {shape}, "
                                 f"got {messages.dtype} of shape {messages.shape}")
        per_trial = self.trial_words
        bitgen = np.random.Philox(key=seed, counter=start * per_trial // 4)
        words = bitgen.random_raw((stop - start) * per_trial).reshape(-1, per_trial)
        s, x, k, u, t = self._source(words, messages)
        y2, records = self._pass(behavior, t, words, s, keep_records)
        x_hat, k_hat, u_hat, s_hat, decodable = self._destination(y2, t[1])
        h_hat = self._sub[u_hat, k_hat]
        accepted = decodable & amd_verify(self.amd, s_hat, x_hat, h_hat)
        return TrialBatch(
            s=s, s_hat=s_hat, decodable=decodable, accepted=accepted,
            x=x, x_hat=x_hat, k=k, k_hat=k_hat, u=u, u_hat=u_hat, h_hat=h_hat,
            records=records,
        )

    # -- accounting ---------------------------------------------------------

    def stage_powers(self) -> tuple[float, float, float]:
        """Measured per-use powers (seed stages, tag stage, message stage)."""
        if self._powers is None:
            p1 = average_codebook_power(self.seed_pair)
            p2 = average_codebook_power(self.tag_pair)
            total = 0.0
            for coords in self.encoder.subset_coords:
                pt = codebook_point(self.msg_pair, coords)
                total += float(np.dot(pt, pt)) / self.msg_pair.N
            p3 = total / len(self.encoder.subset_coords)
            self._powers = (p1, p2, p3)
        return self._powers

    def average_power(self, P1: float, P2: float, P: float) -> float:
        """PT, the average power per channel use of one trial.

        PT charges 2N uses at P1, r uses at P2, and the actual (ceiled)
        message-stage uses at P, so it agrees exactly with a measured
        power audit when fed realized per-stage powers.
        """
        p = self.params
        return float((P1 * 2 * p.N + P2 * p.r + P * (self.blocks * p.msg_N)) / self.uses)

    def monte_carlo(self, behaviors, trials: int, workers: int = 1, seed: int = 0) -> np.ndarray:
        """(decode errors, false rejects, adversary wins) of each behavior, as int64 rows.

        Trial i of every behavior is row 0 of ``run_batch(behavior, seed, i,
        i + 1)``: a pure function of (seed, i) under the word layout of
        ``draw_layout`` (Philox keyed by the seed, trial i at counter
        i*W/4), so the counts are identical for any worker count and batch
        size.  The batches of ``BATCH_TRIALS`` trials of all behaviors form
        one task list, run in this process or, at ``workers`` > 1, over one
        pool of that many processes; a list holding a custom relay, whose
        callable need not pickle, runs in this process.
        """
        if trials < 1:
            raise ValueError("need at least one trial")
        chunks = range(0, trials, BATCH_TRIALS)
        tasks = [(b, a, min(a + BATCH_TRIALS, trials)) for b in behaviors for a in chunks]
        count = partial(self._task_counts, seed)
        if workers <= 1 or any(isinstance(b, CustomRelay) for b in behaviors):
            counts = list(map(count, tasks))
        else:
            # imported here: the pool loads multiprocessing, which one worker never needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                counts = list(pool.map(count, tasks))
        return np.array(counts, dtype=np.int64).reshape(len(behaviors), len(chunks), 3).sum(axis=1)

    def _task_counts(self, seed: int, task) -> np.ndarray:
        behavior, start, stop = task
        return self.run_batch(behavior, seed, start, stop).counts()

    def __reduce__(self):
        # pickled as its params: a pool worker runs its own cached instance
        return _protocol_cache, (self.params,)


@lru_cache(maxsize=8)
def _protocol_cache(params: ProtocolParams) -> TwoHopProtocol:
    """The protocol instance for params, kept for the 8 most recent params."""
    return TwoHopProtocol(params)
