"""Batched trial engine: draw layout, batch/worker invariance, scalar reference."""

import dataclasses
import math

import numpy as np
import pytest

from relaysec import amd, channel, lattice, protocol
from relaysec.amd import AmdParams, amd_tag
from relaysec.channel import (
    AdditiveLatticeOffset,
    CustomRelay,
    HonestRelay,
    PhaseRecord,
    RandomGarble,
    SubstituteLattice,
    _check_moduli,
    _uniform_ints,
    power_audit,
)
from relaysec.fields import ExtField, find_irreducible, is_prime, undigits
from relaysec.lattice import (
    codebook_point,
    decode_fine_mod_coarse,
    lattice_add,
)
from relaysec.protocol import (
    ProtocolParams,
    TwoHopProtocol,
    box_muller,
    payload_bits,
)

NOISELESS = ProtocolParams()
GAUSSIAN = ProtocolParams(noiseless=False, alpha=3.6,
                          noise_var_relay=0.1, noise_var_dest=0.1)
# seed, tag and message codes of different nesting ratios (7, 7, 5) and exchange widths (4, 2, 3)
MIXED = ProtocolParams(q=7, r=2, N=4, d=2, msg_q=5, msg_N=3, msg_r0=2)
BEHAVIORS = [HonestRelay(), SubstituteLattice((1,)), AdditiveLatticeOffset((1,)),
             RandomGarble()]
# patterns longer than one coordinate, which restart at each exchange
PATTERNED = [SubstituteLattice((1, 2, 3)), AdditiveLatticeOffset((2, 4))]
FIELDS = ("x", "x_hat", "k", "k_hat", "u", "u_hat", "h_hat", "s", "accepted", "decodable")


# ---------------------------------------------------------------------
# words -> draws
# ---------------------------------------------------------------------


def test_uniform_ints_is_exact_floor():
    rng = np.random.default_rng(0)
    words = np.concatenate([
        rng.integers(0, 2**64, size=2000, dtype=np.uint64),
        np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64),
    ])
    moduli = (1, 2, 3, 5, 25, 1024, 2**31 - 1, 2**32 - 1)
    for q in moduli:
        _check_moduli(q)
        got = _uniform_ints(words, q)
        want = [(int(w) * q) >> 64 for w in words]
        assert got.tolist() == want
    with pytest.raises(ValueError):
        _check_moduli(2**32)
    # one modulus per column, broadcast over the rows
    columns = words[:2000].reshape(250, len(moduli))
    _check_moduli(np.array(moduli))
    got = _uniform_ints(columns, np.array(moduli))
    assert got.tolist() == [[(int(w) * q) >> 64 for w, q in zip(row, moduli)] for row in columns]
    for bad in (0, -1, 2**32):  # each entry is range-checked
        with pytest.raises(ValueError):
            _check_moduli(np.array(moduli[:3] + (bad,) + moduli[4:]))


def test_box_muller_matches_formula():
    words = np.random.default_rng(1).integers(0, 2**64, size=(3, 8), dtype=np.uint64)
    z = box_muller(words)
    for row, out in zip(words, z):
        for j in range(0, 8, 2):
            u1 = ((int(row[j]) >> 11) + 1) / 2**53
            u2 = (int(row[j + 1]) >> 11) / 2**53
            radius = math.sqrt(-2 * math.log(u1))
            assert out[j] == pytest.approx(radius * math.cos(2 * math.pi * u2), abs=1e-12)
            assert out[j + 1] == pytest.approx(radius * math.sin(2 * math.pi * u2), abs=1e-12)
    extreme = box_muller(np.array([2**64 - 1, 0], dtype=np.uint64))  # u1 = 1
    assert np.all(np.isfinite(extreme))


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(a, m, q):
    """Remainder of the coefficient list a by the monic m over GF(q), trimmed."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        lead = a[-1]
        if lead == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % q
        a = _poly_trim(a)
    return _poly_trim(a)


def _poly_mul(a, b, q):
    """Product of coefficient lists over GF(q), lowest degree first, trimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_trim(out)


def test_field_tables_match_polynomial_arithmetic():
    """Every table entry against the scalar polynomial routines."""
    for f in [ExtField(2, 3), ExtField(3, 2), ExtField(5, 2), ExtField(7, 1)]:
        q, r, t = f.q, f.r, f.tables()

        def element(coeffs):
            return sum(c * q**k for k, c in enumerate(coeffs))

        elems = [[(k // q**j) % q for j in range(r)] for k in range(f.order)]
        for i, a in enumerate(elems):
            assert t["neg"][i] == element([-c % q for c in a])
            for j, b in enumerate(elems):
                assert t["add"][i, j] == element([(u + v) % q for u, v in zip(a, b)])
                assert t["sub"][i, j] == element([(u - v) % q for u, v in zip(a, b)])
                prod = _poly_mod(_poly_mul(a, b, q), list(f.modulus), q)
                assert t["mul"][i, j] == element(prod)


def _monic(k, q, deg):
    """The monic of degree deg whose lower coefficients are the base-q digits of k."""
    return [(k // q**j) % q for j in range(deg)] + [1]


def _is_reducible(p, q):
    """Some monic of degree 1..deg/2 divides p: trial division, one divisor at a time."""
    deg = len(p) - 1
    return any(_poly_mod(p, _monic(k, q, e), q) == [0]
               for e in range(1, deg // 2 + 1) for k in range(q**e))


def test_find_irreducible_is_the_first_irreducible():
    """Every q^r <= 1024: the modulus gives a field, and every earlier candidate is reducible."""
    for q in filter(is_prime, range(2, 1025)):
        r = 1
        while q**r <= 1024:
            modulus = list(find_irreducible(q, r))
            first = next(k for k in range(q**r) if _monic(k, q, r) == modulus)
            assert all(_is_reducible(_monic(k, q, r), q) for k in range(first))
            if r > 1:  # at r = 1 the modulus is x and mul is the product mod the prime q
                mul = ExtField(q, r).tables()["mul"]
                assert np.all(mul[1:, 1:] != 0)  # no zero divisor
            else:
                assert modulus == [0, 1]
            r += 1


def _power_sum_tag(params, s, x):
    """x^(d+2) + sum_i s_i x^i, one power and one term at a time (no Horner)."""
    t = params.field.tables()
    add, mul = t["add"], t["mul"]
    powers = [np.ones_like(np.asarray(x))]  # powers[i] = x^i
    for _ in range(params.d + 2):
        powers.append(mul[powers[-1], x])
    h = powers[params.d + 2]
    for i, sym in enumerate(s, start=1):
        h = add[h, mul[sym, powers[i]]]
    return h


def test_amd_tag_matches_power_sum():
    rng = np.random.default_rng(2)
    for q, r, d in [(5, 2, 2), (2, 3, 3), (3, 2, 2)]:
        params = AmdParams(field=ExtField(q, r), d=d)
        order = params.field.order
        msgs = rng.integers(0, order, size=(40, d))
        xs = np.arange(order)
        got = amd_tag(params, msgs[:, None, :], xs[None, :])
        for m, row in zip(msgs, got):
            assert row.tolist() == _power_sum_tag(params, m, xs).tolist()


# ---------------------------------------------------------------------
# scalar reference from the documented layout
# ---------------------------------------------------------------------


def _unif(word, q):
    return (int(word) * q) >> 64


def _layout_words(params, seed, trials):
    """Each trial's words, cut from one Philox stream by the documented layout."""
    p = params
    n_rand = math.floor(p.msg_N * math.log2(p.msg_q)) - p.msg_r0
    blocks = math.ceil(payload_bits(p.q, p.r, p.d) / p.msg_r0)
    uses = 2 * p.N + p.r + blocks * p.msg_N
    words = p.d + 4 * p.N + blocks * (n_rand + p.msg_N) + 3 * uses
    words += -words % 4
    raw = np.random.Philox(key=seed).random_raw(trials * words)
    return raw.reshape(trials, words), n_rand, blocks, uses


def _normals(words):
    z = []
    for j in range(0, len(words), 2):
        u1 = ((int(words[j]) >> 11) + 1) / 2**53
        u2 = (int(words[j + 1]) >> 11) / 2**53
        radius = math.sqrt(-2 * math.log(u1))
        z += [radius * math.cos(2 * math.pi * u2), radius * math.sin(2 * math.pi * u2)]
    return z


def _reference_trial(proto, behavior, words, n_rand, blocks, uses):
    """One trial through the per-vector lattice functions and the encoder tables.

    Field elements are ints; a seed vector v is the element sum v_j q^j, and
    the tag is the term-by-term power sum.  A custom relay's callable gets
    each exchange as a batch of one, its output scaled down to the power
    limit when above it.  ``records`` holds one PhaseRecord per exchange.
    """
    p, f, enc = proto.params, proto.ext_field, proto.encoder
    add, sub = f.tables()["add"], f.tables()["sub"]
    at = 0

    def element(vec):
        return sum(int(c) * p.q**j for j, c in enumerate(vec))

    def take(count):
        nonlocal at
        at += count
        return words[at - count : at]

    s = tuple(_unif(w, f.order) for w in take(p.d))
    seed_words = [take(p.N) for _ in range(4)]  # src0, jam0, src1, jam1
    block_words = [(take(n_rand), take(p.msg_N)) for _ in range(blocks)]
    relay_words = take(uses)
    z = _normals(take(2 * uses)) if not p.noiseless else [0.0] * (2 * uses)
    use = 0
    records = []

    def hop(pair, t1, t2):
        nonlocal use
        a, b = use, use + pair.N
        use = b
        x1 = codebook_point(pair, t1)
        x2 = np.zeros(pair.N) if t2 is None else codebook_point(pair, t2)
        yr = x1 + x2 + math.sqrt(p.noise_var_relay) * np.array(z[a:b])
        if isinstance(behavior, (SubstituteLattice, AdditiveLatticeOffset)):
            cycle = behavior.pattern  # from its start in every exchange
            pattern = np.array([cycle[i % len(cycle)] % pair.q for i in range(pair.N)])
        if isinstance(behavior, HonestRelay):
            t3 = decode_fine_mod_coarse(pair, yr)
        elif isinstance(behavior, SubstituteLattice):
            t3 = pattern
        elif isinstance(behavior, AdditiveLatticeOffset):
            t3 = lattice_add(pair, decode_fine_mod_coarse(pair, yr), pattern)
        elif isinstance(behavior, RandomGarble):
            t3 = np.array([_unif(w, pair.q) for w in relay_words[a:b]])
        if isinstance(behavior, CustomRelay):
            xr = behavior.fn(relay_words[None, a:b], yr[None], np.array([s]))[0]
            power = np.mean(xr**2)
            if power > p.power_limit:
                xr = xr * math.sqrt(p.power_limit / power)
        else:
            xr = codebook_point(pair, t3)
        y2 = xr + math.sqrt(p.noise_var_dest) * np.array(z[uses + a : uses + b])
        records.append(PhaseRecord(x1=x1, x2=x2, yr=yr, xr=xr, y2=y2,
                                   node2_active=t2 is not None))
        return decode_fine_mod_coarse(pair, y2)

    seeds = []
    for stage in range(2):
        t1 = np.array([_unif(w, p.q) for w in seed_words[2 * stage]])
        t2 = np.array([_unif(w, p.q) for w in seed_words[2 * stage + 1]])
        t1_hat = (hop(proto.seed_pair, t1, t2) - t2) % p.q
        seeds += [element(proto.extractor.matrix @ t1 % p.q),
                  element(proto.extractor.matrix @ t1_hat % p.q)]
    x, x_hat, k, k_hat = seeds
    u = int(add[_power_sum_tag(proto.amd, s, x), k])
    u_coords = np.array([(u // p.q**j) % p.q for j in range(p.r)])
    u_hat = element(hop(proto.tag_pair, u_coords, None))

    value = sum(sym * f.order**j for j, sym in enumerate(s))
    padded = [(value >> i) & 1 for i in range(blocks * p.msg_r0)]
    out_bits, ok = [], True
    for blk, (rand_w, jam_w) in enumerate(block_words):
        bits = padded[blk * p.msg_r0 : (blk + 1) * p.msg_r0]
        word = [_unif(w, 2) for w in rand_w] + bits  # (S', S), bit 0 first
        t2 = np.array([_unif(w, p.msg_q) for w in jam_w])
        t1 = enc.encode_table[sum(bit << i for i, bit in enumerate(word))]
        t1_hat = (hop(proto.msg_pair, t1, t2) - t2) % p.msg_q
        value = int(enc.decode_table[undigits(t1_hat, p.msg_q)])
        if value >= 0:
            out_bits += [(value >> i) & 1 for i in range(p.msg_r0)]
        else:
            ok = False
            out_bits += [0] * p.msg_r0
    got = sum(bit << i for i, bit in enumerate(out_bits))
    s_hat = None
    if ok and got < f.order**p.d:
        s_hat = tuple((got // f.order**j) % f.order for j in range(p.d))
    h_hat = sub[u_hat, k_hat]
    accepted = s_hat is not None and _power_sum_tag(proto.amd, s_hat, x_hat) == h_hat
    return {"x": x, "x_hat": x_hat, "k": k, "k_hat": k_hat, "u": u, "u_hat": u_hat,
            "s": s, "s_hat": s_hat, "accepted": accepted, "records": records}


def _step_relay(alpha, log=None):
    """Forward the received block plus a fine-lattice step where the relay word is odd.

    Stateless; each call appends (block shape, messages) to ``log`` when given.
    """

    def fn(words, yr, s):
        if log is not None:
            log.append((yr.shape, s.tolist()))
        return yr + alpha * (words % 2)

    return CustomRelay(fn)


def _assert_same_audit(proto, records, ref_records):
    limit = proto.params.power_limit
    got, want = power_audit(records, limit), power_audit(ref_records, limit)
    for node in want:
        assert got[node]["channel_uses"] == want[node]["channel_uses"]
        assert got[node]["violates_limit"] == want[node]["violates_limit"]
        assert got[node]["average_power"] == pytest.approx(want[node]["average_power"],
                                                           rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("params,trials", [
    (NOISELESS, 200),
    (GAUSSIAN, 200),
    (ProtocolParams(q=11, r=2, N=3, d=10), 200),  # a 70-bit payload: serialization past 62 bits
    (MIXED, 200),
])
@pytest.mark.parametrize("behavior", BEHAVIORS + PATTERNED + ["custom"])
def test_engine_matches_scalar_reference(params, trials, behavior):
    proto = TwoHopProtocol(params)
    seed = 4242
    words, n_rand, blocks, uses = _layout_words(params, seed, trials)
    log = []
    if behavior == "custom":
        behavior = _step_relay(params.alpha, log)
    batch = proto.run_batch(behavior, seed, 0, trials)
    if log:  # one call per exchange, each covering every trial
        dims = [params.N] * 2 + [params.r] + [params.msg_N] * blocks
        assert log == [((trials, dim), batch.s.tolist()) for dim in dims]
    for i in range(trials):
        ref = _reference_trial(proto, behavior, words[i], n_rand, blocks, uses)
        for name in ("x", "x_hat", "k", "k_hat", "u", "u_hat"):
            assert int(getattr(batch, name)[i]) == ref[name], (i, name)
        assert tuple(batch.s[i].tolist()) == ref["s"]
        s_hat = tuple(batch.s_hat[i].tolist()) if batch.decodable[i] else None
        assert s_hat == ref["s_hat"], i
        assert bool(batch.accepted[i]) == ref["accepted"], i
        if i % 40 == 0:  # trial i alone, with its (1, dim) records
            records = proto.run_batch(behavior, seed, i, i + 1, keep_records=True).records
            assert len(records) == len(ref["records"]) == 3 + blocks
            _assert_same_audit(proto, records, ref["records"])


# ---------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------


@pytest.mark.parametrize("params", [NOISELESS, GAUSSIAN])
def test_reports_identical_across_batch_sizes_and_workers(monkeypatch, params):
    """Row j of one call is behavior j's counts alone, at any batch size and
    worker count: through the pool for built-in behaviors, in this process
    once a custom relay is in the list."""
    proto = TwoHopProtocol(params)
    trials = 120
    behaviors = BEHAVIORS + [_step_relay(params.alpha)]
    alone = np.vstack([proto.monte_carlo([b], trials, seed=44) for b in behaviors])
    for size in (1, 7, 50, trials):
        monkeypatch.setattr(protocol, "BATCH_TRIALS", size)
        for workers in (1, 2):
            together = proto.monte_carlo(behaviors, trials, workers=workers, seed=44)
            assert np.array_equal(together, alone), (size, workers)
            built_in = proto.monte_carlo(BEHAVIORS, trials, workers=workers, seed=44)
            assert np.array_equal(built_in, alone[:-1]), (size, workers)


@pytest.mark.parametrize("params", [NOISELESS, GAUSSIAN])
def test_batch_rows_independent_of_chunking(params):
    """Every row and record row is the same in one batch, in chunks of 7, and
    alone (chunks of 1, how a single trial is replayed)."""
    proto = TwoHopProtocol(params)
    for behavior in BEHAVIORS + [_step_relay(params.alpha)]:
        whole = proto.run_batch(behavior, 12, 0, 60, keep_records=True)
        assert len(whole.records) == 3 + proto.blocks
        for step in (1, 7):
            parts = [proto.run_batch(behavior, 12, a, min(a + step, 60), keep_records=True)
                     for a in range(0, 60, step)]
            for name in FIELDS + ("s_hat", "h_hat"):
                joined = np.concatenate([getattr(b, name) for b in parts])
                assert np.array_equal(getattr(whole, name), joined), (behavior, step, name)
            for j, rec in enumerate(whole.records):
                assert all(b.records[j].node2_active == rec.node2_active for b in parts)
                for name in ("x1", "x2", "yr", "xr", "y2"):
                    joined = np.concatenate([getattr(b.records[j], name) for b in parts])
                    assert np.array_equal(getattr(rec, name), joined), (behavior, step, j, name)


def test_one_pass_per_batch(monkeypatch):
    """One relay_step call a batch over all n uses, split into the exchanges'
    widths; a custom relay is still called once per exchange, in order, and
    the records split the pass back into exchanges, node 2 silent at +0.0 in
    the tag's."""
    proto = TwoHopProtocol(MIXED)
    p = proto.params
    widths = (p.N, p.N, p.r) + (p.msg_N,) * proto.blocks
    calls = []
    real_step = protocol.relay_step

    def relay_step(behavior, pair, widths, yr, *args):
        calls.append((widths, yr.shape))
        return real_step(behavior, pair, widths, yr, *args)

    monkeypatch.setattr(protocol, "relay_step", relay_step)
    for behavior in BEHAVIORS + PATTERNED:
        calls.clear()
        batch = proto.run_batch(behavior, 9, 0, 50)
        assert calls == [(widths, (50, proto.uses))]
        assert batch.records == ()
    seen = []

    def relay(words, yr, s):
        seen.append(yr.shape)
        return yr

    batch = proto.run_batch(CustomRelay(relay), 9, 0, 50, keep_records=True)
    assert seen == [(50, w) for w in widths]  # 4, 4, 2, 3, ...: the exchange order
    assert len(batch.records) == 3 + proto.blocks == len(widths)
    for j, (rec, w) in enumerate(zip(batch.records, widths)):
        assert rec.node2_active == (j != 2)
        for name in ("x1", "x2", "yr", "xr", "y2"):
            assert getattr(rec, name).shape == (50, w)
    silent = batch.records[2].x2
    assert np.all(silent == 0.0) and not np.any(np.signbit(silent))


# ---------------------------------------------------------------------
# the input boundary: checks where inputs enter, unchecked kernels inside
# ---------------------------------------------------------------------


def _count_checks(monkeypatch) -> dict:
    """Count every call of the three range checks from now on, in every module
    that binds one; returns the live counts."""
    calls = {}
    for home, name in ((lattice, "_check_coords"), (amd, "_check_elements"),
                       (channel, "_check_moduli")):
        real = getattr(home, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        for module in (amd, channel, lattice, protocol):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


def _assert_same_batch(got, want):
    """Every TrialBatch field and record bit-identical, dtypes included."""
    for name in FIELDS + ("s_hat", "h_hat"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert len(got.records) == len(want.records)
    for rec, ref in zip(got.records, want.records):
        assert rec.node2_active == ref.node2_active
        for name in ("x1", "x2", "yr", "xr", "y2"):
            a, b = getattr(rec, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("params", [NOISELESS, GAUSSIAN])
def test_run_batch_range_checks_none_of_its_own_arrays(monkeypatch, params):
    """No coords, element or modulus check runs inside a batch, for any built-in
    behavior, with or without records; construction checks the moduli once."""
    proto = TwoHopProtocol(params)
    calls = _count_checks(monkeypatch)
    for behavior in BEHAVIORS + PATTERNED:
        for keep in (False, True):
            proto.run_batch(behavior, 7, 3, 40, keep_records=keep)
    assert calls == {}
    TwoHopProtocol(params)
    assert calls["_check_moduli"] == 1


@pytest.mark.parametrize("params", [NOISELESS, GAUSSIAN, MIXED,
                                    ProtocolParams(q=11, r=2, N=3, d=10)])  # a 70-bit payload
def test_kernels_equal_their_checking_forms(monkeypatch, params):
    """Every field and record of a batch is bit-identical when each kernel the
    engine calls is replaced by its checking public form.  The checking run is
    on a second instance, so its first batch forms the shared half again."""
    proto = TwoHopProtocol(params)
    behaviors = BEHAVIORS + PATTERNED + [_step_relay(params.alpha)]
    fast = [proto.run_batch(b, 21, 0, 60, keep_records=True) for b in behaviors]
    proto = TwoHopProtocol(params)
    calls = _count_checks(monkeypatch)
    draw = channel._uniform_ints

    def uniform_ints(words, q):  # the modulus check the engine makes once, on every draw
        channel._check_moduli(q)
        return draw(words, q)

    for module in (protocol, channel):
        monkeypatch.setattr(module, "_codebook_point", codebook_point)
        monkeypatch.setattr(module, "_uniform_ints", uniform_ints)
    monkeypatch.setattr(protocol, "_amd_tag", amd_tag)
    for behavior, want in zip(behaviors, fast):
        got = proto.run_batch(behavior, 21, 0, 60, keep_records=True)
        assert len(got.records) == 3 + proto.blocks
        _assert_same_batch(got, want)
    assert calls["_check_coords"] and calls["_check_elements"] and calls["_check_moduli"]


def test_every_behavior_sees_the_same_messages_and_jams():
    proto = TwoHopProtocol(NOISELESS)
    batches = [proto.run_batch(b, 3, 0, 40, keep_records=True) for b in BEHAVIORS]
    for b in batches[1:]:
        assert np.array_equal(b.s, batches[0].s)
        assert np.array_equal(b.x, batches[0].x) and np.array_equal(b.k, batches[0].k)
        for rec, rec0 in zip(b.records, batches[0].records):
            assert np.array_equal(rec.x2, rec0.x2)


# ---------------------------------------------------------------------
# custom relays and the instance cache
# ---------------------------------------------------------------------


def test_custom_lambda_relay_runs_with_workers():
    proto = TwoHopProtocol(NOISELESS)
    # amplify-and-forward, plus a zero multiple of the relay's own words
    relay = CustomRelay(lambda words, yr, s: yr + 0.0 * words)
    one = proto.monte_carlo([relay], 25, workers=1, seed=8)
    two = proto.monte_carlo([relay], 25, workers=2, seed=8)
    assert np.array_equal(one, two)
    assert np.array_equal(one[:, :2], [[0, 0]])


def test_custom_relay_words_are_the_layout_relay_words():
    """Exchange j's words are the relay words of its channel uses in each trial."""
    proto, p = TwoHopProtocol(NOISELESS), NOISELESS
    seen = []

    def relay(words, yr, s):
        seen.append(words.copy())
        return yr

    proto.run_batch(CustomRelay(relay), 6, 3, 9)
    words, n_rand, blocks, uses = _layout_words(p, 6, 9)
    at = p.d + 4 * p.N + blocks * (n_rand + p.msg_N)  # the first relay word
    dims = [p.N] * 2 + [p.r] + [p.msg_N] * blocks
    assert len(seen) == len(dims) and sum(dims) == uses
    for got, dim in zip(seen, dims):
        assert got.dtype == np.uint64
        assert np.array_equal(got, words[3:9, at : at + dim])
        at += dim


def test_protocol_cache_is_bounded():
    protocol._protocol_cache.cache_clear()
    for i in range(12):
        protocol._protocol_cache(ProtocolParams(power_limit=10.0 + i))
    assert protocol._protocol_cache.cache_info().currsize == 8
    protocol._protocol_cache.cache_clear()


def test_field_order_cap_rejected_at_construction():
    with pytest.raises(ValueError, match="tabulates"):
        ProtocolParams(q=11, r=3, N=12, d=2)


# ---------------------------------------------------------------------
# the reused Philox generator and the batch counts
# ---------------------------------------------------------------------


@pytest.mark.parametrize("key", [0, 1, 2**64, 2**128 - 1])
@pytest.mark.parametrize("counter", [0, 2**64 - 3, 2**64 + 1])
def test_philox_words_equal_a_fresh_generator(key, counter):
    # 40 words from 2^64 - 3 carry the counter into its second 64-bit word
    for count in (1, 6, 13, 40):
        want = np.random.Philox(key=key, counter=counter).random_raw(count)
        assert np.array_equal(protocol._philox_words(key, counter, count), want)


def test_philox_words_reject_a_key_or_counter_philox_rejects():
    for key, counter in [(-1, 0), (2**128, 0), (0, -1), (0, 2**256)]:
        with pytest.raises(ValueError):
            np.random.Philox(key=key, counter=counter)
        with pytest.raises(ValueError, match="Philox needs"):
            protocol._philox_words(key, counter, 4)


def test_threads_drawing_at_once_read_their_own_words():
    """random_raw releases the GIL while it fills its array, so a generator two
    threads shared could be re-keyed by one in the middle of the other's draw."""
    import threading

    keys = [[(key, 1000 * key) for key in range(j, 400, 2)] for j in (0, 1)]
    got = [[], []]

    def draw(j):
        for key, counter in keys[j]:
            got[j].append(protocol._philox_words(key, counter, 4099))

    threads = [threading.Thread(target=draw, args=(j,)) for j in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    for j in (0, 1):
        assert len(got[j]) == len(keys[j])
        for (key, counter), words in zip(keys[j], got[j]):
            assert np.array_equal(words, np.random.Philox(key=key, counter=counter).random_raw(4099))


def _same_rows(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in FIELDS)


def test_threads_interleaving_run_batch_get_the_single_thread_rows():
    """Each thread re-keys its own generator, so two threads running batches of
    one protocol at once, switching as often as the interpreter allows and
    meeting at a barrier in every exchange, get the rows one thread gets."""
    import sys
    import threading

    proto = TwoHopProtocol(GAUSSIAN)
    barrier = threading.Barrier(2)

    def meet(words, yr, s):
        barrier.wait(timeout=10)
        return yr

    def relay(seed, threaded):  # every fifth batch forwards yr through a custom relay
        if seed % 5:
            return HonestRelay()
        return CustomRelay(meet if threaded else lambda words, yr, s: yr)

    tasks = [[(seed, start) for seed in range(20) for start in (0, 70)],
             [(seed, start) for seed in range(20, 40) for start in (30, 110)]]
    got = [[], []]

    def run(j):
        for seed, start in tasks[j]:
            got[j].append(proto.run_batch(relay(seed, True), seed, start, start + 60))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for j in (0, 1):
        assert len(got[j]) == len(tasks[j])
        for (seed, start), batch in zip(tasks[j], got[j]):
            assert _same_rows(batch, proto.run_batch(relay(seed, False), seed, start, start + 60))


def test_a_batch_after_one_that_raised_reads_its_own_words():
    """A batch that raised after its draw, and the thread's generator left
    mid-block with a spare 32-bit half, do not shift the next batch's words."""
    proto = TwoHopProtocol(NOISELESS)
    want = proto.run_batch(HonestRelay(), 4, 10, 15)

    def fail(words, yr, s):
        raise RuntimeError("relay failed")

    with pytest.raises(RuntimeError, match="relay failed"):
        proto.run_batch(CustomRelay(fail), 4, 3, 7)
    generator = np.random.Generator(protocol._THREAD.philox)
    generator.random(3)
    generator.integers(0, 2**32, dtype=np.uint32)
    assert _same_rows(proto.run_batch(HonestRelay(), 4, 10, 15), want)


def test_counts_equal_the_three_sums():
    """counts' one bincount equals (errors, false rejects, wins) as three sums."""
    rng = np.random.default_rng(12)
    zeros = np.zeros(0, dtype=np.int64)
    for b, all_errors in [(0, False), (1, False), (40, False), (500, False), (30, True)]:
        s = rng.integers(0, 3, size=(b, 2))
        s_hat = np.where(rng.random((b, 2)) < 0.2, rng.integers(0, 3, size=(b, 2)), s)
        decodable = np.zeros(b, dtype=bool) if all_errors else rng.random(b) < 0.8
        accepted = rng.random(b) < 0.5
        batch = protocol.TrialBatch(s=s, s_hat=s_hat, decodable=decodable, accepted=accepted,
                                    x=zeros, x_hat=zeros, k=zeros, k_hat=zeros, u=zeros,
                                    u_hat=zeros, h_hat=zeros)
        err = ~decodable | (s_hat != s).any(axis=1)
        want = [err.sum(), (~err & ~accepted).sum(), (err & accepted).sum()]
        got = batch.counts()
        assert got.dtype == np.int64 and got.tolist() == want
        assert not all_errors or got[0] == b


# ---------------------------------------------------------------------
# the behavior-independent half, shared through this thread's slot
# ---------------------------------------------------------------------


RANGES = [(0, 50), (0, 51), (1, 51)]  # overlapping trial ranges, each its own slot key


@pytest.mark.parametrize("params", [NOISELESS, GAUSSIAN])
@pytest.mark.parametrize("keep", [False, True])
def test_a_reused_shared_half_equals_a_fresh_instance(params, keep):
    """Each behavior, on an instance that has just run other behaviors, other
    seeds and overlapping ranges, equals the same call on a fresh instance:
    after another behavior on the same trials (a slot hit) and after an
    overlapping range (a miss)."""
    behaviors = BEHAVIORS + [_step_relay(params.alpha)]
    proto = TwoHopProtocol(params)
    for j, behavior in enumerate(behaviors):
        other = behaviors[j - 1]
        for start, stop in RANGES:
            want = TwoHopProtocol(params).run_batch(behavior, 5, start, stop, keep_records=keep)
            for seed, (a, b) in [(6, (start, stop))] + [(5, r) for r in RANGES]:
                proto.run_batch(other, seed, a, b, keep_records=keep)
            proto.run_batch(other, 5, start, stop)
            _assert_same_batch(proto.run_batch(behavior, 5, start, stop, keep_records=keep),
                               want)
            overlap = RANGES[(RANGES.index((start, stop)) + 1) % len(RANGES)]
            proto.run_batch(other, 5, *overlap)
            _assert_same_batch(proto.run_batch(behavior, 5, start, stop, keep_records=keep),
                               want)


def test_instances_differing_only_in_alpha_never_share_a_slot():
    """The slot is keyed by the instance: a second code at the same (seed, start,
    stop) forms its own points, noise and sums."""
    narrow, wide = (TwoHopProtocol(dataclasses.replace(GAUSSIAN, alpha=a)) for a in (3.0, 3.6))
    want = TwoHopProtocol(wide.params).run_batch(HonestRelay(), 8, 0, 50, keep_records=True)
    first = narrow.run_batch(HonestRelay(), 8, 0, 50, keep_records=True)
    got = wide.run_batch(HonestRelay(), 8, 0, 50, keep_records=True)
    _assert_same_batch(got, want)
    assert not np.array_equal(first.records[0].yr, got.records[0].yr)
    assert protocol._THREAD.shared[0] is wide


def test_threads_on_one_instance_keep_their_own_slots():
    """Three threads (more than the two cores the suite is sized on) running every
    behavior of one instance at once, on their own seeds and switching as often
    as the interpreter allows, get the serial rows, and each thread's slot holds
    its own last batch."""
    import sys
    import threading

    proto = TwoHopProtocol(GAUSSIAN)
    seeds = [(11, 12), (13, 14), (15, 16)]
    serial = {seed: [TwoHopProtocol(GAUSSIAN).run_batch(b, seed, 0, 60) for b in BEHAVIORS]
              for pair in seeds for seed in pair}
    got, last = [{}, {}, {}], [None, None, None]

    def run(j):
        for seed in seeds[j]:
            for _ in range(3):
                got[j][seed] = [proto.run_batch(b, seed, 0, 60) for b in BEHAVIORS]
        last[j] = protocol._THREAD.shared[:2]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for j in range(3):
        assert last[j] == (proto, (seeds[j][-1], 0, 60))
        for seed in seeds[j]:
            for batch, want in zip(got[j][seed], serial[seed]):
                _assert_same_batch(batch, want)


def test_monte_carlo_forms_each_chunk_once_and_keeps_only_the_last(monkeypatch):
    """Over 10 chunks of four behaviors the source pass runs once per chunk, and
    afterwards the slot holds the last chunk's arrays alone."""
    monkeypatch.setattr(protocol, "BATCH_TRIALS", 5)
    proto = TwoHopProtocol(NOISELESS)
    passes = []
    real = TwoHopProtocol._source

    def source(self, words):
        passes.append(len(words))
        return real(self, words)

    monkeypatch.setattr(TwoHopProtocol, "_source", source)
    counts = proto.monte_carlo(BEHAVIORS, 50, seed=3)
    assert passes == [5] * 10
    instance, key, (words, s, x, k, u, t, yr, noise_d) = protocol._THREAD.shared
    assert instance is proto and key == (3, 45, 50) and noise_d is None
    assert all(len(a) == 5 for a in (words, s, x, k, u, yr)) and t.shape[1] == 5
    monkeypatch.setattr(protocol, "BATCH_TRIALS", 50)
    assert np.array_equal(counts, proto.monte_carlo(BEHAVIORS, 50, seed=3))


@pytest.mark.parametrize("workers", [1, 2])
def test_behavior_order_does_not_change_counts(workers):
    """A permuted mix returns its rows permuted the same way, over three chunks."""
    proto = TwoHopProtocol(GAUSSIAN)
    trials = 2 * protocol.BATCH_TRIALS + 76  # 1,100 at 512 a chunk
    counts = proto.monte_carlo(BEHAVIORS, trials, workers=workers, seed=19)
    for order in ([3, 2, 1, 0], [1, 3, 0, 2]):
        permuted = [BEHAVIORS[i] for i in order]
        assert np.array_equal(proto.monte_carlo(permuted, trials, workers=workers, seed=19),
                              counts[order])


def test_shared_arrays_are_read_only():
    """The source's arrays in a batch, and the words, received block and messages
    a custom relay gets, are read-only views shared with the other behaviors."""
    proto = TwoHopProtocol(NOISELESS)
    flags = []

    def relay(words, yr, s):
        flags.append([a.flags.writeable for a in (words, yr, s)])
        return yr

    batch = proto.run_batch(CustomRelay(relay), 2, 0, 30, keep_records=True)
    assert flags == [[False] * 3] * (3 + proto.blocks)
    assert not any(getattr(batch, name).flags.writeable for name in ("s", "x", "k", "u"))
    again = proto.run_batch(HonestRelay(), 2, 0, 30)
    assert all(getattr(again, name) is getattr(batch, name) for name in ("s", "u"))


def test_a_relay_that_writes_its_input_raises_and_leaves_the_slot_intact():
    proto = TwoHopProtocol(GAUSSIAN)

    def scribble(words, yr, s):
        yr += 1.0
        return yr

    with pytest.raises(ValueError, match="read-only"):
        proto.run_batch(CustomRelay(scribble), 4, 0, 40)
    for behavior in BEHAVIORS:
        _assert_same_batch(proto.run_batch(behavior, 4, 0, 40, keep_records=True),
                           TwoHopProtocol(GAUSSIAN).run_batch(behavior, 4, 0, 40,
                                                              keep_records=True))
