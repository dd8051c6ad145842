import random
import struct
from dataclasses import replace

import pytest

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from test_partition import (
    DEPTHS,
    EXACTNESS_SCHEDULES,
    KEY_SPACE,
    ceil_key,
    reference_interval,
    reference_word,
)
from test_sketch import no_field

from setrecon import fieldmath as fm
from setrecon import protocol as proto
from setrecon import sketch as sk
from setrecon.partition import (
    fair_probs,
    key_of,
    key_range,
    round_optimal_probs,
    schedule_from_strings,
)

FIG2_TRACE = [
    "a_to_b,1,-,0", "b_to_a,1,-,22",
    "a_to_b,2,0,0", "b_to_a,2,0,22",
    "a_to_b,2,1,0", "b_to_a,2,1,22",
    "a_to_b,3,0.0,0", "b_to_a,3,0.0,22",
    "a_to_b,3,0.1,0", "b_to_a,3,0.1,22",
    "a_to_b,3,1.0,0", "b_to_a,3,1.0,22",
    "a_to_b,3,1.1,0", "b_to_a,3,1.1,22",
    "a_to_b,4,0.1.0,0", "b_to_a,4,0.1.0,22",
    "a_to_b,4,0.1.1,0", "b_to_a,4,0.1.1,22",
    "a_to_b,4,1.1.0,0", "b_to_a,4,1.1.0,22",
    "a_to_b,4,1.1.1,0", "b_to_a,4,1.1.1,22",
]

FIG3_TX_PATHS = [(), (0,), (0, 0), (0, 1, 0), (1, 0), (1, 1, 0)]


def transmitted_paths(trace):
    """Paths of the sketches B sent, in order, read from the trace lines."""
    return [tuple(map(int, path.split("."))) if path != "-" else ()
            for direction, _, path, _ in (line.split(",") for line in trace)
            if direction == "b_to_a"]


def _instance(seed, delta, shared_count, bits=32):
    rng = random.Random(seed)
    pool = set()
    while len(pool) < delta + shared_count:
        pool.add(rng.getrandbits(bits))
    pool = sorted(pool)
    rng.shuffle(pool)
    a_count = rng.randint(0, delta)
    a_only = frozenset(pool[:a_count])
    b_only = frozenset(pool[a_count:delta])
    shared = set(pool[delta:])
    return set(a_only) | shared, set(b_only) | shared, a_only, b_only


def _reference_epsr(set_a, transport, config):
    """The recursive EPSR as first written; the iterative engine must make
    the same requests and recoveries in the same order."""
    run = proto._Run(set_a, transport, config)
    c = config.schedule.c

    def process(path, z, skip):
        if not skip and run.recover(path, z):
            return
        if len(path) >= config.schedule.key_depth:
            raise proto.ProtocolError("partition tree too deep; placement not separating")
        residual = z
        for j in range(c - 1):
            child = path + (j,)
            z_child = run.fetch(child, residual)
            process(child, z_child, skip=False)
            residual = run.subtract(residual, z_child)
            if run.recover(path, residual):
                return
        process(path + (c - 1,), residual, skip=True)

    return run.drive(lambda run, c: process((), run.fetch((), None), skip=False))


def test_respond_examples():
    fx = proto.load_fixture("fig2")
    fp = fx.config.fingerprint()
    empty = proto.Responder([], fx.config).reply(fp, ())
    assert sk.from_bytes(empty, fx.config.field_config) == sk.new_sketch(fx.config.field_config)
    responder = proto.Responder(fx.set_b, fx.config)
    parent = sk.from_bytes(responder.reply(fp, (1,)), fx.config.field_config)
    kids = [sk.from_bytes(responder.reply(fp, (1, j)), fx.config.field_config) for j in (0, 1)]
    q = fx.config.field_config.modulus
    assert parent.values == tuple(
        a * b % q for a, b in zip(kids[0].values, kids[1].values)
    )
    assert parent.count == kids[0].count + kids[1].count
    # byte-identical replies across responders
    r1 = proto.Responder(fx.set_b, fx.config)
    r2 = proto.Responder(fx.set_b, fx.config)
    assert r1.reply(fp, (0,)) == r2.reply(fp, (0,))


class RecordingTransport(proto.LoopbackTransport):
    """Loopback transport that also keeps every reply blob."""

    def __init__(self, responder):
        super().__init__(responder)
        self.blobs = []

    def request(self, fingerprint, path):
        blob = super().request(fingerprint, path)
        self.blobs.append((path, blob))
        return blob


def _members(index, path):
    """The elements in the index's slice for path."""
    return index.elements_in(*index.span(path))


@pytest.mark.parametrize("sched, depth", [(fair_probs(2), 3), (round_optimal_probs(4), 2)],
                         ids=["c2", "c4"])
def test_partition_index_sketches_match_members(sched, depth):
    # every sketch served is the sketch of the node's members, and the
    # members are the hashed placement's
    cfg = proto.ProtocolConfig(3, 1, 32, sched, hash_seed=5)
    elements = random.Random(8).sample(range(1 << 32), 2000)
    index = proto.PartitionIndex(elements, cfg)
    paths = [()]
    for d in range(depth):
        paths += [p + (j,) for p in paths if len(p) == d for j in range(sched.c)]
    for path in paths:  # breadth first, children in order
        members = _members(index, path)
        assert sorted(members) == sorted(e for e in elements if reference_word(
            sched, Fraction(key_of(e, 5), KEY_SPACE), len(path)) == path)
        assert index.sketch(*index.span(path)) == sk.sketch_of(cfg.field_config, members)
    # a child index outside the schedule is refused, also once its parent
    # and every real sibling have sketches
    for bad in ((sched.c,), (-1,)):
        with pytest.raises(proto.ProtocolError):
            _members(index, bad)
        with pytest.raises(proto.ProtocolError):
            index.sketch(*index.span(bad))


@settings(max_examples=60, deadline=None)
@given(schedule=st.sampled_from(EXACTNESS_SCHEDULES), data=st.data())
def test_partition_index_slices_match_reference_words(schedule, data):
    # random keys, and keys at the bounds of the partitions on the way to a
    # deep path and beside it, each placed by the Fraction reference
    depth = min(data.draw(DEPTHS), schedule.key_depth - 1)
    path = tuple(data.draw(st.lists(st.integers(0, schedule.c - 1),
                                    min_size=depth, max_size=depth)))
    keys = set(data.draw(st.lists(st.integers(0, KEY_SPACE - 1), max_size=40)))
    for d in range(depth + 1):
        for j in range(schedule.c):
            lo, _ = reference_interval(schedule, path[:d] + (j,))
            keys |= {ceil_key(lo) + k for k in (-1, 0, 1)}
    keys = sorted(k for k in keys if 0 <= k < KEY_SPACE)
    cfg = proto.ProtocolConfig(3, 1, 32, schedule)
    index = proto.PartitionIndex(range(len(keys)), replace(cfg, placement=dict(enumerate(keys))))
    words = [reference_word(schedule, Fraction(k, KEY_SPACE), depth + 1) for k in keys]
    for d in range(depth + 1):
        for node in [path[:d]] + [path[:d] + (j,) for j in range(schedule.c)]:
            assert _members(index, node) == [
                e for e, w in enumerate(words) if w[:len(node)] == node]


@pytest.mark.parametrize("n", [0, 1, proto._CHUNK - 1, proto._CHUNK, proto._CHUNK + 1, 2000])
def test_partition_index_inserts_each_element_once(n, monkeypatch):
    # construction inserts every element exactly once; a node's sketch then
    # inserts fewer than 2 * _CHUNK more and equals its members' sketch
    real_insert = sk.insert_set
    inserted = []
    monkeypatch.setattr(sk, "insert_set",
                        lambda z, elems: inserted.append(list(elems)) or real_insert(z, elems))
    cfg = proto.ProtocolConfig(3, 1, 32, fair_probs(2), hash_seed=2)
    elements = random.Random(n).sample(range(1 << 32), n)
    index = proto.PartitionIndex(elements, cfg)
    assert sorted(e for batch in inserted for e in batch) == sorted(elements)
    paths = [()]
    for d in range(6):
        paths += [p + (j,) for p in paths if len(p) == d for j in range(2)]
    for path in paths:
        inserted.clear()
        z = index.sketch(*index.span(path))
        assert len(inserted) == 1 and len(inserted[0]) < 2 * proto._CHUNK
        assert z == sk.sketch_of(cfg.field_config, _members(index, path))


def test_partition_index_refuses_duplicates():
    # with every key equal the sort keeps the input order, so the repeat
    # lands chunks away from the first copy; it is refused all the same
    cfg = proto.ProtocolConfig(3, 1, 32, fair_probs(2))
    elements = random.Random(1).sample(range(1 << 32), 300)
    with pytest.raises(sk.ElementError, match="duplicate"):
        proto.PartitionIndex(elements + elements[:1],
                             replace(cfg, placement=dict.fromkeys(elements, 0)))


@pytest.mark.parametrize("sched", [fair_probs(2), round_optimal_probs(4)],
                         ids=["c2", "c4"])
def test_responder_reuse_across_clients(sched, monkeypatch):
    # one long-lived B serving 20 clients answers exactly as a fresh B per client
    rng = random.Random(13)
    set_b = set(rng.sample(range(1 << 32), 300))
    cfg = proto.ProtocolConfig(3, 1, 32, sched, hash_seed=3)
    shared = {name: proto.Responder(set_b, replace(cfg, protocol=name))
              for name in ("psr", "epsr")}
    for _ in range(20):
        delta = rng.randint(0, 30)
        n_a = rng.randint(0, delta)
        b_only = set(rng.sample(sorted(set_b), delta - n_a))
        a_only = set(rng.sample(range(1 << 32), n_a)) - set_b
        set_a = (set_b - b_only) | a_only
        for name, engine in (("psr", proto.psr_reconcile), ("epsr", proto.epsr_reconcile)):
            c = replace(cfg, protocol=name)
            long_lived = RecordingTransport(shared[name])
            fresh = RecordingTransport(proto.Responder(set_b, c))
            out = engine(set_a, long_lived, c)
            assert out == engine(set_a, fresh, c)
            assert long_lived.blobs == fresh.blobs
            assert out[0].a_only == a_only and out[0].b_only == b_only
    # a repeated client is served from the kept sketches, with no sketch work on B
    class NoWorkTransport(proto.LoopbackTransport):
        def request(self, fingerprint, path):
            with monkeypatch.context() as m:
                m.setattr(sk, "sketch_of", None)
                m.setattr(sk, "subtract", None)
                m.setattr(sk, "to_bytes", None)
                return super().request(fingerprint, path)

    for name, engine in (("psr", proto.psr_reconcile), ("epsr", proto.epsr_reconcile)):
        c = replace(cfg, protocol=name)
        assert engine(set_a, NoWorkTransport(shared[name]), c)[0].b_only == b_only


def _malformed(cfg, case):
    field = cfg.field_config
    blob = bytearray(sk.to_bytes(sk.sketch_of(field, [7, 8])))
    if case == "short":
        return bytes(blob[:5])
    if case == "long":
        return bytes(blob + b"\0")
    value = field.modulus if case == "value" else 0
    blob[-field.value_bytes:] = value.to_bytes(field.value_bytes, "little")
    return bytes(blob)


@pytest.mark.parametrize("case, match", [("short", "too short"), ("long", "length"),
                                         ("value", "outside the field"), ("zero", "zero")],
                         ids=["short", "long", "value", "zero"])
@pytest.mark.parametrize("engine", [proto.psr_reconcile, proto.epsr_reconcile],
                         ids=["psr", "epsr"])
def test_malformed_reply_rejected(engine, case, match):
    cfg = proto.ProtocolConfig(3, 2, 32, fair_probs(2), hash_seed=1)
    blob = _malformed(cfg, case)

    class StubTransport:
        def request(self, fingerprint, path):
            return blob

    with pytest.raises(proto.ProtocolError, match=match) as info:
        engine({1, 2, 3}, StubTransport(), cfg)
    assert isinstance(info.value.__cause__, ValueError)


def test_fig2_golden_with_trace():
    fx = proto.load_fixture("fig2")
    trace = []
    res, m = proto.psr_reconcile(
        fx.set_a, proto.make_loopback(fx.set_b, fx.config, trace), fx.config,
    )
    assert (m.sketches_transmitted, m.recovery_calls, m.rounds) == (11, 11, 4)
    assert m.bits_b_to_a == 11 * sk.wire_cost(2, 1, 16)
    assert res.a_only == fx.set_a and res.b_only == fx.set_b
    assert trace == FIG2_TRACE
    assert 1 + max(len(p) for p in transmitted_paths(trace)) == m.rounds


def test_fig3_golden():
    fx = proto.load_fixture("fig3")
    trace = []
    res, m = proto.epsr_reconcile(
        fx.set_a, proto.make_loopback(fx.set_b, fx.config, trace), fx.config,
    )
    assert (m.sketches_transmitted, m.recovery_calls, m.rounds) == (6, 11, 4)
    assert res.a_only | res.b_only == fx.set_a | fx.set_b
    assert transmitted_paths(trace) == FIG3_TX_PATHS
    assert 1 + max(len(p) for p in transmitted_paths(trace)) == m.rounds


def test_equal_sets_single_round():
    cfg = proto.ProtocolConfig(3, 2, 32, fair_probs(2), hash_seed=1)
    s = set(range(500, 560))
    for engine in (proto.psr_reconcile, proto.epsr_reconcile):
        trace = []
        res, m = engine(s, proto.make_loopback(s, cfg, trace=trace), cfg)
        assert (m.sketches_transmitted, m.recovery_calls, m.rounds) == (1, 1, 1)
        assert not res.a_only and not res.b_only
        assert 1 + max(len(p) for p in transmitted_paths(trace)) == m.rounds


def test_fixture_protocol_override():
    # running the per-partition engine on the subtract-reuse fixture tree
    # gives the per-partition metrics, and vice versa
    fx = proto.load_fixture("fig3")
    cfg = replace(fx.config, protocol="psr")
    _, m = proto.reconcile(fx.set_a, proto.make_loopback(fx.set_b, cfg), cfg)
    assert (m.sketches_transmitted, m.recovery_calls, m.rounds) == (11, 11, 4)


def test_random_instances_both_engines():
    for seed in range(8):
        set_a, set_b, a_only, b_only = _instance(seed, delta=40 + 5 * seed, shared_count=30)
        cfg = proto.ProtocolConfig((2, 3, 5)[seed % 3], 2, 32, fair_probs(2), hash_seed=seed)
        psr_res, psr_m = proto.psr_reconcile(set_a, proto.make_loopback(set_b, cfg), cfg)
        epsr_res, epsr_m = proto.epsr_reconcile(set_a, proto.make_loopback(set_b, cfg), cfg)
        for res in (psr_res, epsr_res):
            assert res.a_only == a_only and res.b_only == b_only
        # c=2 pathwise identities
        assert epsr_m.recovery_calls == psr_m.recovery_calls
        assert epsr_m.rounds == psr_m.rounds
        assert epsr_m.sketches_transmitted <= psr_m.sketches_transmitted
        assert psr_m.recovery_calls == psr_m.sketches_transmitted
        splits = (psr_m.sketches_transmitted - 1) // 2
        assert epsr_m.sketches_transmitted == splits + 1
        assert epsr_m.recovery_calls == 2 * splits + 1
        if splits:
            assert epsr_m.sketches_transmitted < psr_m.sketches_transmitted
        # accounting
        cost = sk.wire_cost(cfg.mbar, cfg.gamma, cfg.element_bits)
        assert psr_m.bits_b_to_a == psr_m.sketches_transmitted * cost
        assert epsr_m.bits_b_to_a == epsr_m.sketches_transmitted * cost


@pytest.mark.parametrize("c", [2, 3, 4, 5])
@pytest.mark.parametrize("schedule", [fair_probs, round_optimal_probs], ids=["fair", "optimal"])
def test_epsr_engine_matches_recursive_reference(schedule, c, monkeypatch):
    recovered = []
    real_recover = sk.recover
    monkeypatch.setattr(sk, "recover",
                        lambda z, *rest: recovered.append(z) or real_recover(z, *rest))
    for seed in range(3):
        set_a, set_b, a_only, b_only = _instance(100 * c + seed, delta=50, shared_count=20)
        cfg = proto.ProtocolConfig(3, 1, 32, schedule(c), hash_seed=seed, protocol="epsr")
        runs = []
        for engine in (proto.epsr_reconcile, _reference_epsr):
            trace = []
            recovered.clear()
            out = engine(set_a, proto.make_loopback(set_b, cfg, trace=trace), cfg)
            runs.append((out, trace, list(recovered)))
        assert runs[0] == runs[1]
        assert runs[0][0][0].a_only == a_only and runs[0][0][0].b_only == b_only


@pytest.mark.parametrize("engine", [proto.psr_reconcile, proto.epsr_reconcile],
                         ids=["psr", "epsr"])
def test_depth_guard(engine):
    # a placement that never separates: every element has key 0
    cfg = proto.ProtocolConfig(1, 1, 32, fair_probs(2))
    cfg = replace(cfg, placement=dict.fromkeys(range(1, 11), 0))
    with pytest.raises(proto.ProtocolError, match="placement not separating"):
        engine(set(range(1, 11)), proto.make_loopback(set(), cfg), cfg)


@pytest.mark.parametrize("engine", [proto.psr_reconcile, proto.epsr_reconcile],
                         ids=["psr", "epsr"])
def test_skewed_schedule_separates_past_64_levels(engine):
    # (0.99, 0.01) needs hundreds of levels to part 300 keys; the depth
    # limit of this schedule is thousands of levels, so every key separates
    cfg = proto.ProtocolConfig(1, 1, 64, schedule_from_strings(["0.99", "0.01"]))
    rng = random.Random(3)
    set_a = {rng.getrandbits(64) for _ in range(300)}
    res, m = engine(set_a, proto.make_loopback(set(), cfg), cfg)
    assert res.a_only == set_a and not res.b_only
    assert m.rounds > 128


@pytest.mark.parametrize("engine", [proto.psr_reconcile, proto.epsr_reconcile],
                         ids=["psr", "epsr"])
def test_never_silently_wrong_on_small_universe(engine):
    # 6-bit elements and gamma 0 make false recoveries common; each must be
    # caught, so every run gives the exact difference and raises nothing
    rng = random.Random(1)
    wrong = []
    for i in range(2000):
        delta = rng.randint(0, 50)
        shared = rng.randint(0, 64 - delta)
        pool = rng.sample(range(64), delta + shared)
        n_a = rng.randint(0, delta)
        a_only, b_only, common = set(pool[:n_a]), set(pool[n_a:delta]), set(pool[delta:])
        cfg = proto.ProtocolConfig(3, 0, 6, fair_probs(2), hash_seed=i)
        res, _ = engine(a_only | common, proto.make_loopback(b_only | common, cfg), cfg)
        if res.a_only != a_only or res.b_only != b_only:
            wrong.append(i)
    assert wrong == []


# Schedules: fair and round-optimal for c 2..6, and two-way splits with
# both probabilities at least 1/10.  Extreme skew is left out for the
# test's runtime, not its results: at (0.999, 0.001), mbar 1, eleven
# 6-bit elements took 1.3-17 s per run on a 2-vCPU VM, with correct
# results, because such trees are 1300-2800 levels deep and `key_range`
# costs O(depth) per call.
PROPERTY_SCHEDULES = st.one_of(
    st.builds(fair_probs, st.integers(2, 6)),
    st.builds(round_optimal_probs, st.integers(2, 6)),
    st.fractions(Fraction(1, 10), Fraction(9, 10), max_denominator=100).map(
        lambda p: schedule_from_strings([p, 1 - p])),
)


@settings(max_examples=1000, deadline=None)
@given(schedule=PROPERTY_SCHEDULES, mbar=st.integers(1, 4), gamma=st.integers(0, 2),
       bits=st.integers(3, 8), seed=st.integers(0, 2**16), data=st.data())
def test_reconcile_exact_or_typed_error(schedule, mbar, gamma, bits, seed, data):
    # every run returns the exact difference or raises ProtocolError, over
    # empty and identical sets and the boundary elements 0 and 2^bits - 1,
    # unless no protocol could tell: gamma 0 on a tiny field lets a false
    # success through whose result is exact against another set B' that
    # sends A byte-identical replies (at 4 bits, mbar 2, A-only {1, 3, 15}
    # and B-only {6, 7, 11} next to the shared {2, 4, 5, 8}, the root
    # recovers A-only {2} and B-only {10}, which is B' = A - {2} + {10})
    top = (1 << bits) - 1
    n = data.draw(st.integers(0, min(48, top + 1)))
    pool = set(data.draw(st.permutations(range(top + 1)))[:n])
    pool |= data.draw(st.sets(st.sampled_from([0, top])))
    pool = sorted(pool)
    sides = data.draw(st.lists(st.sampled_from("sab"), min_size=len(pool), max_size=len(pool)))
    a_only = {e for e, side in zip(pool, sides) if side == "a"}
    b_only = {e for e, side in zip(pool, sides) if side == "b"}
    shared = set(pool) - a_only - b_only
    set_a = a_only | shared
    cfg = proto.ProtocolConfig(mbar, gamma, bits, schedule, hash_seed=seed)

    def run(engine, set_b):
        transport = RecordingTransport(proto.Responder(set_b, cfg))
        return engine(set_a, transport, cfg)[0], transport.blobs

    for engine in (proto.psr_reconcile, proto.epsr_reconcile):
        try:
            res, blobs = run(engine, b_only | shared)
        except proto.ProtocolError:
            continue
        if (res.a_only, res.b_only) != (a_only, b_only):
            assert res.a_only <= set_a and res.b_only.isdisjoint(set_a), engine.__name__
            assert run(engine, (set_a - res.a_only) | res.b_only)[1] == blobs, engine.__name__


def test_recover_checks_membership_and_placement():
    # a recovered piece counts only if it can be the difference at its path
    cfg = proto.ProtocolConfig(3, 1, 32, fair_probs(2))
    placement = {1: 0, 2: KEY_SPACE // 2, 3: KEY_SPACE // 2}  # 1 in (0,), 2 and 3 in (1,)
    run = proto._Run([1, 2], None, replace(cfg, placement=placement))

    def recover(path, a_only, b_only):
        """The run's recovery of this difference as the piece at `path`."""
        field = cfg.field_config
        z = sk.subtract(sk.sketch_of(field, a_only), sk.sketch_of(field, b_only))
        return run.recover(path, (z, *key_range(cfg.schedule, path)))

    assert not recover((0,), [2], [])  # A's element outside the partition
    assert not recover((0,), [4], [])  # A-only element not in A
    assert not recover((1,), [], [2])  # B-only element in A
    assert not recover((1,), [], [5])  # B-only element with no key
    assert not recover((0,), [], [3])  # B-only element outside the partition
    assert run.a_only == run.b_only == set()
    assert recover((1,), [2], [3])
    assert run.a_only == {2} and run.b_only == {3}
    assert not recover((1,), [], [3])  # B-only element merged already
    assert run.a_only == {2} and run.b_only == {3}


def test_residual_recovery_covers_unsent_children():
    # once child (0,) is requested, a recovery at the root is of the
    # residual, which holds only the keys of child (1,)
    cfg = proto.ProtocolConfig(3, 1, 32, fair_probs(2))
    placement = {1: 0, 2: KEY_SPACE // 2, 3: KEY_SPACE // 2, 4: 1}  # 1, 4 in (0,)
    cfg = replace(cfg, placement=placement)
    run = proto._Run([1, 2], proto.make_loopback([2, 3, 4], cfg), cfg)
    root = run.fetch((), None)
    residual = run.subtract(root, run.fetch((0,), root))

    def recover(a_only, b_only):
        """The run's recovery of this difference as the root's residual."""
        field = cfg.field_config
        z = sk.subtract(sk.sketch_of(field, a_only), sk.sketch_of(field, b_only))
        return run.recover((), (z, *residual[1:]))

    assert not recover([1], [])  # A's element of the requested child
    assert not recover([], [4])  # B-only key in the requested child
    assert run.a_only == run.b_only == set()
    assert recover([2], [3])
    assert run.a_only == {2} and run.b_only == {3}


@pytest.mark.parametrize("c", [2, 4])
@pytest.mark.parametrize("engine", [proto.psr_reconcile, proto.epsr_reconcile],
                         ids=["psr", "epsr"])
def test_each_party_resolves_a_sent_key_range_once(engine, c, monkeypatch):
    # A resolves a path's keys when it fetches it and B when it first serves
    # it; a residual takes its keys from its pieces, not from the root
    calls = []
    real_key_range = proto.key_range
    monkeypatch.setattr(proto, "key_range",
                        lambda *args: calls.append(args) or real_key_range(*args))
    pool = random.Random(c).sample(range(1 << 32), 260)
    a_only, b_only, shared = set(pool[:30]), set(pool[30:60]), set(pool[60:])
    cfg = proto.ProtocolConfig(5, 1, 32, fair_probs(c), hash_seed=c)
    res, m = engine(a_only | shared, proto.make_loopback(b_only | shared, cfg), cfg)
    assert res.a_only == a_only and res.b_only == b_only
    # one call per party per transmitted sketch, plus one per index built
    assert len(calls) == 2 * m.sketches_transmitted + 2


def test_same_partitions_split():
    set_a, set_b, _, _ = _instance(77, delta=50, shared_count=10)
    cfg = proto.ProtocolConfig(3, 2, 32, fair_probs(2), hash_seed=4)
    traces = {}
    for name, engine in (("psr", proto.psr_reconcile), ("epsr", proto.epsr_reconcile)):
        trace = []
        engine(set_a, proto.make_loopback(set_b, cfg, trace=trace), cfg)
        paths = transmitted_paths(trace)
        traces[name] = {p[:-1] for p in paths if p}  # parents of requests = splits
    assert traces["psr"] == traces["epsr"]


def test_schedule_independence_of_metrics():
    set_a, set_b, a_only, b_only = _instance(5, delta=30, shared_count=0)
    cfg = proto.ProtocolConfig(3, 2, 32, fair_probs(2), hash_seed=9)
    base = {}
    for name, engine in (("psr", proto.psr_reconcile), ("epsr", proto.epsr_reconcile)):
        base[name] = engine(set_a, proto.make_loopback(set_b, cfg), cfg)[1]
    # add shared elements; metrics must not move
    extra = set(range(10**6, 10**6 + 200))
    for name, engine in (("psr", proto.psr_reconcile), ("epsr", proto.epsr_reconcile)):
        _, m = engine(set_a | extra, proto.make_loopback(set_b | extra, cfg), cfg)
        assert m == base[name]


def test_c3_round_optimal_end_to_end():
    sched = round_optimal_probs(3)
    set_a, set_b, a_only, b_only = _instance(21, delta=45, shared_count=20)
    cfg = proto.ProtocolConfig(3, 2, 32, sched, hash_seed=2)
    psr_res, psr_m = proto.psr_reconcile(set_a, proto.make_loopback(set_b, cfg), cfg)
    epsr_res, epsr_m = proto.epsr_reconcile(set_a, proto.make_loopback(set_b, cfg), cfg)
    assert psr_res.a_only == epsr_res.a_only == a_only
    assert psr_res.b_only == epsr_res.b_only == b_only
    assert epsr_m.sketches_transmitted < psr_m.sketches_transmitted


def test_recover_accepts_external_rng():
    # recover takes no rng of its own: whatever state the caller's generators
    # are in, its outcome is a pure function of the sketch
    cfg = sk.field_setup(16, 6, 1)
    d = sk.subtract(sk.sketch_of(cfg, [10, 20, 30]), sk.sketch_of(cfg, [30, 40, 50, 60]))
    random.seed(5)
    out1 = sk.recover(d)
    random.seed(6)
    out2 = sk.recover(d)
    assert out1 == out2 and out1.flag
    assert out1.recovered_a == {10, 20} and out1.recovered_b == {40, 50, 60}


def test_metrics_match_expectation_tables():
    # sample means of the engines' counters agree with the recursions:
    # hashed placement of distinct elements is exactly the multinomial model
    import numpy as np

    from setrecon.analysis import expectation_tables

    delta, mbar, n_runs = 12, 2, 200
    for sched in (fair_probs(2), round_optimal_probs(3)):
        tables = expectation_tables(delta, mbar, sched)
        tx = {"psr": [], "epsr": []}
        rec = {"psr": [], "epsr": []}
        for i in range(n_runs):
            set_a, set_b, _, _ = _instance(1000 + i, delta=delta, shared_count=5)
            cfg = proto.ProtocolConfig(mbar, 2, 32, sched, hash_seed=i)
            for name, engine in (("psr", proto.psr_reconcile), ("epsr", proto.epsr_reconcile)):
                _, m = engine(set_a, proto.make_loopback(set_b, cfg), cfg)
                tx[name].append(m.sketches_transmitted)
                rec[name].append(m.recovery_calls)
        checks = (
            (tx["psr"], tables.n_bar[delta]),
            (rec["psr"], tables.n_bar[delta]),
            (tx["epsr"], tables.t_bar[delta]),
            (rec["epsr"], tables.u_bar[delta]),
        )
        for sample, expected in checks:
            arr = np.array(sample, dtype=float)
            stderr = arr.std(ddof=1) / np.sqrt(arr.size)
            assert abs(arr.mean() - expected) < 4 * stderr


def test_epsr_c4_skip_chain():
    sched = round_optimal_probs(4)
    set_a, set_b, a_only, b_only = _instance(31, delta=60, shared_count=10)
    cfg = proto.ProtocolConfig(2, 2, 32, sched, hash_seed=6)
    res, m = proto.epsr_reconcile(set_a, proto.make_loopback(set_b, cfg), cfg)
    assert res.a_only == a_only and res.b_only == b_only
    assert m.recovery_calls >= m.sketches_transmitted


def test_fingerprint_mismatch():
    cfg_a = proto.ProtocolConfig(3, 2, 32, fair_probs(2), hash_seed=1)
    cfg_b = proto.ProtocolConfig(3, 2, 32, fair_probs(2), hash_seed=2)
    transport = proto.make_loopback({1, 2}, cfg_b)
    with pytest.raises(proto.ProtocolError):
        proto.psr_reconcile({1, 2, 3}, transport, cfg_a)


def test_placement_mismatch_refused_at_first_request():
    # B hashes its elements, A places them by the fixture's path words: the
    # root request is refused, before any sketch is sent
    fx = proto.load_fixture("fig2")
    trace = []
    transport = proto.make_loopback(fx.set_b, replace(fx.config, placement=None), trace)
    with pytest.raises(proto.ProtocolError, match="fingerprint"):
        proto.psr_reconcile(fx.set_a, transport, fx.config)
    assert trace == ["a_to_b,1,-,0"]


def test_fingerprint_covers_every_shared_field():
    base = proto.load_fixture("fig2").config
    one_field_off = [
        replace(base, element_bits=17),
        replace(base, mbar=3),
        replace(base, gamma=2),
        replace(base, hash_seed=1),
        replace(base, schedule=schedule_from_strings(["1/3", "2/3"])),
        replace(base, placement=None),
        replace(base, placement={**base.placement, 9: 0}),
    ]
    prints = [cfg.fingerprint() for cfg in [base, *one_field_off]]
    assert len(set(prints)) == len(prints)
    # the protocol is each party's own choice, and a placement is a mapping
    assert replace(base, protocol="epsr").fingerprint() == base.fingerprint()
    reordered = dict(reversed(list(base.placement.items())))
    assert replace(base, placement=reordered).fingerprint() == base.fingerprint()


def test_reply_header_builds_no_field(monkeypatch):
    # a 10-byte reply naming 65535-bit elements is refused by its header,
    # without a search for a 65535-bit prime
    class WideHeader:
        def request(self, fingerprint, path):
            return struct.pack("<HHHi", 0xFFFF, 3, 2, 0)

    run = proto._Run({1, 2, 3}, WideHeader(), proto.ProtocolConfig(3, 2, 32, fair_probs(2)))
    monkeypatch.setattr(fm, "next_prime", no_field)
    with pytest.raises(proto.ProtocolError, match="header"):
        run.fetch((), None)


def test_wrong_config_reply_rejected():
    cfg = proto.ProtocolConfig(3, 2, 32, fair_probs(2), hash_seed=1)
    other = sk.field_setup(32, 4, 2)

    class BadTransport:
        def request(self, fingerprint, path):
            return sk.to_bytes(sk.new_sketch(other))

    with pytest.raises(proto.ProtocolError):
        proto.psr_reconcile({1, 2, 3}, BadTransport(), cfg)


def test_table_placement_errors():
    cfg = proto.ProtocolConfig(3, 1, 32, fair_probs(2))
    placement = {1: key_range(cfg.schedule, (0, 1))[0], 2: key_range(cfg.schedule, (0,))[0]}
    # an element with no key is refused when the index is built
    with pytest.raises(proto.ProtocolError, match="no placement for element 3"):
        proto.PartitionIndex([1, 3], replace(cfg, placement=placement))
    # so is a key outside the 64-bit key space
    for key in (-1, KEY_SPACE):
        with pytest.raises(proto.ProtocolError, match="outside"):
            proto.PartitionIndex([1, 2], replace(cfg, placement={1: 0, 2: key}))
    index = proto.PartitionIndex([1, 2], replace(cfg, placement=placement))
    assert _members(index, (0,)) == [2, 1] and _members(index, (1,)) == []
    assert _members(proto.PartitionIndex([1], replace(cfg, placement=placement)), (0, 1)) == [1]


def test_unknown_fixture():
    with pytest.raises(ValueError):
        proto.load_fixture("fig9")


def test_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        proto.ProtocolConfig(3, 2, 32, fair_probs(2), protocol="fast")
    # field parameters are checked when the config is made, not at first use,
    # and a width above the cap is refused before any prime search
    monkeypatch.setattr(fm, "next_prime", no_field)
    for mbar, gamma, bits in ((0, 1, 32), (3, -1, 32), (3, 1, 0), (3, 1, 70000), (3, 1, 1025)):
        with pytest.raises(sk.ConfigError):
            proto.ProtocolConfig(mbar, gamma, bits, fair_probs(2))
