import gc
import hashlib
import heapq
import re
import weakref
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from test_protocol import transmitted_paths

from setrecon import netsim
from setrecon import protocol as proto
from setrecon.partition import PartitionSchedule, fair_probs, key_range, round_optimal_probs
from setrecon.sketch import wire_cost


def _tree_counts(node, mbar, c):
    """Independent walker: evaluates the per-tree counting rules directly."""
    if node.count <= mbar:
        return 1, 1, 1, 0  # n, t, u, depth
    subs = [_tree_counts(ch, mbar, c) for ch in node.children]
    n = 1 + sum(s[0] for s in subs)
    acc, h = 0, c
    for k, ch in enumerate(node.children, start=1):
        acc += ch.count
        if acc >= node.count - mbar:
            h = k
            break
    t = (1 if h < c else 0) + sum(subs[k][1] for k in range(h))
    u = (1 if h < c else 0) + h - (1 if h == c else 0) + sum(subs[k][2] for k in range(h))
    depth = 1 + max(s[3] for s in subs)
    return n, t, u, depth


def _tree_from_words(words, mbar, c, depth=0):
    """Placement tree induced by explicit path words."""
    words = list(words)
    if len(words) <= mbar:
        return netsim.PlacementNode(len(words))
    return netsim.PlacementNode(len(words), tuple(
        _tree_from_words([w for w in words if w[depth] == j], mbar, c, depth + 1)
        for j in range(c)
    ))


def _reference_sample_tree(delta, mbar, schedule, rng):
    """The recursive sampler as first written; the iterative one must draw
    the same multinomials in the same order."""
    probs = schedule.as_floats()

    def go(count):
        if count <= mbar:
            return netsim.PlacementNode(count)
        parts = rng.multinomial(count, probs)
        return netsim.PlacementNode(count, tuple(go(int(x)) for x in parts))

    return go(delta)


def _preorder(tree):
    """(count, depth, number of children) per node, walked without recursion."""
    out, stack = [], [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        out.append((node.count, depth, len(node.children)))
        stack.extend((ch, depth + 1) for ch in reversed(node.children))
    return out


def _words_for_tree(node, path=()):
    """Assign one path word per difference element, leaf by leaf."""
    if not node.children:
        return [path] * node.count
    out = []
    for j, ch in enumerate(node.children):
        out.extend(_words_for_tree(ch, path + (j,)))
    return out


def test_single_round_closed_forms():
    leaf = netsim.PlacementNode(10)
    t_i = netsim.run_trial("psr", leaf, netsim.SCENARIO_PRESETS["I"]).total_ms
    t_iii = netsim.run_trial("psr", leaf, netsim.SCENARIO_PRESETS["III"]).total_ms
    assert t_i == pytest.approx(32.434, abs=1e-3)
    assert t_iii == pytest.approx(1368.6, abs=0.1)
    # delta=0 behaves identically to any leaf
    assert netsim.run_trial("epsr", netsim.PlacementNode(0),
                            netsim.SCENARIO_PRESETS["I"]).total_ms == t_i


def test_deterministic_event_logs():
    rng = np.random.default_rng(3)
    tree = netsim.sample_placement_tree(400, 50, fair_probs(2), rng)
    sc = netsim.SCENARIO_PRESETS["I"]
    log1, log2 = [], []
    r1 = netsim.run_trial("epsr", tree, sc, log1)
    r2 = netsim.run_trial("epsr", tree, sc, log2)
    assert log1 == log2 and r1.total_ms == r2.total_ms
    assert (netsim.sweep([200], sc, [1], ("psr",), 7, 100)
            == netsim.sweep([200], sc, [1], ("psr",), 7, 100))
    # log is globally time ordered; FIFO disciplines are visible in it
    times = [t for t, _, _ in log1]
    assert times == sorted(times)
    enq = [p for _, ev, p in log1 if ev == "reply_enqueued"]
    delivered = [p for _, ev, p in log1 if ev == "reply_delivered"]
    assert enq == delivered  # link departures keep arrival order
    # per-partition causal chains (PSR: one request and one recovery each)
    psr_log = []
    netsim.run_trial("psr", tree, sc, psr_log)
    chains = {}
    for t, ev, p in psr_log:
        chains.setdefault(p, []).append((ev, t))
    order = ("request_sent", "reply_enqueued", "reply_delivered",
             "recovery_started", "recovery_finished")
    for events in chains.values():
        assert [ev for ev, _ in events] == list(order)
        stamps = [t for _, t in events]
        assert stamps == sorted(stamps)


def test_event_log_dump(tmp_path):
    log = []
    netsim.run_trial("psr", netsim.PlacementNode(1), netsim.SCENARIO_PRESETS["I"], log)
    assert log[0] == (0, "request_sent", "-")
    assert log[-1] == (round(32.43363 * 1e6), "recovery_finished", "-")


def test_preset_values_exact():
    presets = netsim.SCENARIO_PRESETS
    assert [presets[k].latency_ms for k in "I II III".split()] == [10.0, 10.0, 10.0]
    assert [presets[k].throughput_bps for k in "I II III".split()] == [1e8, 1e8, 1e4]
    assert [presets[k].recovery_ms for k in "I II III".split()] == [12.3, 615.0, 12.3]
    for sc in presets.values():
        assert (sc.element_bits, sc.mbar, sc.gamma) == (256, 50, 1)
        assert sc.schedule == fair_probs(2)
    assert presets["I"].serialization_ns == 133_630
    assert presets["III"].serialization_ns == 1_336_300_000


def test_scenario_file_matches_preset(tmp_path):
    path = tmp_path / "custom.txt"
    path.write_text(
        "# scenario I clone\n"
        "latency_ms = 10\n"
        "throughput_bps = 1e8\n"
        "recovery_ms = 12.3\n"
        "n_cores = 1\n"
    )
    custom = netsim.load_scenario(str(path))
    preset = netsim.SCENARIO_PRESETS["I"]
    tree = netsim.PlacementNode(30)
    assert (
        netsim.run_trial("psr", tree, custom).total_ms
        == netsim.run_trial("psr", tree, preset).total_ms
    )


@pytest.mark.parametrize("name", sorted(netsim.SCENARIO_PRESETS))
def test_preset_round_trips_through_scenario_file(tmp_path, name):
    # every key a scenario file accepts, so a new ScenarioConfig field
    # that a file cannot set fails here
    preset = netsim.SCENARIO_PRESETS[name]
    keys = ("latency_ms", "throughput_bps", "recovery_ms", "n_cores",
            "element_bits", "mbar", "gamma")
    path = tmp_path / "preset.txt"
    path.write_text("".join(f"{key} = {getattr(preset, key)}\n" for key in keys))
    assert netsim.load_scenario(str(path)) == preset
    assert {f.name for f in fields(netsim.ScenarioConfig)} == {*keys, "schedule"}


def test_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("latency_ms = 10\nwarp_factor = 9\n")
    with pytest.raises(ValueError):
        netsim.load_scenario(str(bad))
    bad.write_text("latency_ms 10\n")
    with pytest.raises(ValueError):
        netsim.load_scenario(str(bad))
    for key in ("samples = 5", "name = x", "schedule = 1/2,1/2"):
        bad.write_text(key + "\n")
        with pytest.raises(ValueError, match="unknown key"):
            netsim.load_scenario(str(bad))
    # a value that does not parse, or a key given twice, is refused with
    # its file, line and key
    for text, line, key in (("latency_ms = 5\nmbar =\n", 2, "mbar"),
                            ("latency_ms = x\n", 1, "latency_ms"),
                            ("n_cores = 2.5\n", 1, "n_cores"),
                            ("mbar = 4\n# note\nmbar = 5\n", 3, "mbar")):
        bad.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:{line}: key '{key}'"):
            netsim.load_scenario(str(bad))
    # an infinite time parses as a float but cannot be simulated
    for text in ("latency_ms = inf\n", "recovery_ms = inf\n"):
        bad.write_text(text)
        with pytest.raises(ValueError, match="finite"):
            netsim.load_scenario(str(bad))


def test_hand_computed_fifo_timings():
    # mbar=2: root of 4 splits once into two succeeding leaves.  Link
    # serialization 100 ms forces visible FIFO queueing of the two replies.
    sc = netsim.ScenarioConfig(
        latency_ms=10, throughput_bps=10270, recovery_ms=5,
        element_bits=256, mbar=2, gamma=1,
    )
    assert sc.serialization_ns == 100_000_000
    tree = netsim.PlacementNode(4, (netsim.PlacementNode(2), netsim.PlacementNode(2)))
    psr = netsim.run_trial("psr", tree, sc, [])
    # root: req 0, at B 10, link 10-110, arrive 120, recovery 120-125 fails;
    # children requested at 125, at B 135; replies serialize back to back:
    # arrive 245 and 345; recoveries 245-250 and 345-350.
    assert psr.total_ms == pytest.approx(350.0)
    assert psr.sketches_transmitted == 3 and psr.recovery_calls == 3
    # EPSR: only child 0 is requested (arrives 245); child and residual
    # recoveries run back to back on one core; residual succeeds.
    epsr = netsim.run_trial("epsr", tree, sc)
    assert epsr.total_ms == pytest.approx(255.0)
    assert epsr.sketches_transmitted == 2 and epsr.recovery_calls == 3

    # 2 cores, zero serialization, fair c=4: a root of 8 splits into four
    # leaves of 2.  PSR: root reply at 20, recovery to 25 fails; the four
    # replies all arrive at 45 and recover two at a time: 50, then 55.
    sc = netsim.ScenarioConfig(latency_ms=10, throughput_bps=1e15, recovery_ms=5, n_cores=2,
                               mbar=2, schedule=fair_probs(4))
    assert sc.serialization_ns == 0
    tree = netsim.PlacementNode(8, (netsim.PlacementNode(2),) * 4)
    psr = netsim.run_trial("psr", tree, sc)
    assert psr.total_ms == pytest.approx(4 * 10 + 3 * 5)
    assert psr.sketches_transmitted == 5 and psr.recovery_calls == 5
    # EPSR: child j is requested when the residual before it fails; each
    # child and its residual recover side by side on the two cores.
    # Child 0 requested 25, arrives 45, residual 6 fails at 50; child 1
    # arrives 70, residual 4 fails at 75; child 2 arrives 95, residual 2
    # succeeds at 100, so child 3 is never requested.
    epsr = netsim.run_trial("epsr", tree, sc)
    assert epsr.total_ms == pytest.approx(8 * 10 + 4 * 5)
    assert epsr.sketches_transmitted == 4 and epsr.recovery_calls == 7


def _reference_clock(start, sc, log, labels):
    """The heap-based clock as first written: one heap of completions
    keyed by (time, issue order) and one heap of core free times.  Each
    completion carries its kind, taken from the kind that issued it:
    fetches and recoveries alternate, and `start` is the origin's
    recovery.  `netsim._clock` must give the same finish time and event
    log."""
    latency, serialization, recovery = sc.latency_ns, sc.serialization_ns, sc.recovery_ns
    cores = [0] * sc.n_cores
    events = [(0, 0, False, start)]
    seq = link_free = 0
    while events:
        t, _, was_fetch, issued = heapq.heappop(events)
        is_fetch = not was_fetch
        for action in issued:
            label = labels[id(action)]
            if is_fetch:
                at_b = t + latency
                link_free = max(link_free, at_b) + serialization
                done = link_free + latency
                if log is not None:
                    log += [(t, "request_sent", label), (at_b, "reply_enqueued", label),
                            (done, "reply_delivered", label)]
            else:
                begin = max(t, heapq.heappop(cores))
                done = begin + recovery
                heapq.heappush(cores, done)
                if log is not None:
                    log += [(begin, "recovery_started", label),
                            (done, "recovery_finished", label)]
            seq += 1
            heapq.heappush(events, (done, seq, is_fetch, action))
    return max(cores)


def _simultaneous_completions(log):
    """Times at which two replies arrive, and times at which a reply
    arrives as a recovery finishes."""
    done = {}
    for t, ev, _ in log:
        if ev in ("reply_delivered", "recovery_finished"):
            done.setdefault(t, []).append(ev)
    return (sum(evs.count("reply_delivered") > 1 for evs in done.values()),
            sum(len(set(evs)) == 2 for evs in done.values()))


def test_clock_matches_heap_reference():
    schedules = (fair_probs(2), fair_probs(3), round_optimal_probs(4),
                 PartitionSchedule((Fraction(9, 10), Fraction(1, 10))))
    presets = netsim.SCENARIO_PRESETS
    # zero serialization: replies to one round arrive together
    replies_tie = replace(presets["I"], throughput_bps=1e15)
    # equal latency and recovery: replies arrive as recoveries finish
    reply_recovery_tie = replace(presets["I"], recovery_ms=presets["I"].latency_ms)
    ties = {replies_tie: [0, 0], reply_recovery_tie: [0, 0]}
    for k, sched in enumerate(schedules):
        rng = np.random.default_rng(40 + k)
        for delta, mbar in ((30, 2), (150, 5), (400, 20)):
            tree = netsim.sample_placement_tree(delta, mbar, sched, rng)
            for protocol in ("psr", "epsr"):
                run = netsim._LabelledRun(tree, mbar, sched.c)
                proto.ENGINES[protocol](run, sched.c)
                for base in (*presets.values(), *ties):
                    for cores in range(1, 6):
                        sc = replace(base, mbar=mbar, schedule=sched, n_cores=cores)
                        log, ref_log = [], []
                        finished = netsim._clock(run.start, sc, log, run.labels)
                        assert finished == _reference_clock(run.start, sc, ref_log, run.labels)
                        assert log == ref_log
                        # a trial with a log times the same graph as one without
                        assert (netsim.run_trial(protocol, tree, sc)
                                == netsim.run_trial(protocol, tree, sc, []))
                        if base in ties:
                            for i, n in enumerate(_simultaneous_completions(log)):
                                ties[base][i] += n
    # each tie scenario holds the ties it is here for
    assert ties[replies_tie][0] > 0 and ties[reply_recovery_tie][1] > 0


def test_conservation_and_equivalence_with_protocol_engines():
    # the abstract success rule reproduces the concrete engines' decisions
    rng = np.random.default_rng(9)
    sc = replace(netsim.SCENARIO_PRESETS["I"], element_bits=16, mbar=2, gamma=1)
    cost = wire_cost(2, 1, 16)
    for trial in range(10):
        delta = int(rng.integers(3, 21))
        tree = netsim.sample_placement_tree(delta, 2, fair_probs(2), rng)
        words = _words_for_tree(tree)
        elements = list(range(1, len(words) + 1))
        placement = {e: key_range(fair_probs(2), w)[0] for e, w in zip(elements, words)}
        set_a = set(elements[0::2])
        set_b = set(elements[1::2])
        config = proto.ProtocolConfig(2, 1, 16, fair_probs(2), placement=placement)
        walker = _tree_counts(tree, 2, 2)
        for protocol, engine in (("psr", proto.psr_reconcile), ("epsr", proto.epsr_reconcile)):
            trace = []
            res, metrics = engine(
                set_a, proto.make_loopback(set_b, config, trace), config,
            )
            assert res.a_only | res.b_only == set(elements)
            sim_log = []
            sim = netsim.run_trial(protocol, tree, sc, sim_log)
            assert sim.sketches_transmitted == metrics.sketches_transmitted
            assert sim.recovery_calls == metrics.recovery_calls
            assert sim.rounds == metrics.rounds
            assert sim.bits_b_to_a == metrics.sketches_transmitted * cost
            # identical request sets, each partition requested exactly once
            sim_paths = sorted(
                tuple(int(x) for x in p.split(".")) if p != "-" else ()
                for _, ev, p in sim_log if ev == "request_sent"
            )
            assert sim_paths == sorted(transmitted_paths(trace))
            # walker agreement
            expected = {"psr": (walker[0], walker[0]), "epsr": (walker[1], walker[2])}
            tx, rec = expected[protocol]
            assert (sim.sketches_transmitted, sim.recovery_calls) == (tx, rec)
            assert sim.rounds == walker[3] + 1


def test_conservation_c3_sequential_splits():
    # ternary schedule exercises the simulator's sequential child requests
    # and the skip handling of the last child
    sched = round_optimal_probs(3)
    rng = np.random.default_rng(21)
    sc = replace(
        netsim.SCENARIO_PRESETS["I"], element_bits=16, mbar=2, gamma=1, schedule=sched
    )
    for _ in range(6):
        delta = int(rng.integers(5, 25))
        tree = netsim.sample_placement_tree(delta, 2, sched, rng)
        words = _words_for_tree(tree)
        elements = list(range(1, len(words) + 1))
        placement = {e: key_range(sched, w)[0] for e, w in zip(elements, words)}
        config = proto.ProtocolConfig(2, 1, 16, sched, placement=placement)
        walker = _tree_counts(tree, 2, 3)
        for protocol, engine in (("psr", proto.psr_reconcile), ("epsr", proto.epsr_reconcile)):
            res, metrics = engine(
                set(elements[0::2]),
                proto.make_loopback(set(elements[1::2]), config), config,
            )
            assert res.a_only | res.b_only == set(elements)
            sim = netsim.run_trial(protocol, tree, sc)
            assert sim.sketches_transmitted == metrics.sketches_transmitted
            assert sim.recovery_calls == metrics.recovery_calls
            expected = {"psr": (walker[0], walker[0]), "epsr": (walker[1], walker[2])}
            assert (sim.sketches_transmitted, sim.recovery_calls) == expected[protocol]


def test_scenario_ii_core_halving_and_iii_insensitivity():
    rng = np.random.default_rng(11)
    trees = [netsim.sample_placement_tree(1000, 50, fair_probs(2), rng) for _ in range(20)]

    def mean(name, cores):
        sc = replace(netsim.SCENARIO_PRESETS[name], n_cores=cores)
        return float(np.mean([netsim.run_trial("psr", t, sc).total_ms for t in trees]))

    t1, t2, t4 = (mean("II", c) for c in (1, 2, 4))
    assert 1.6 <= t1 / t2 <= 2.1
    assert 1.6 <= t2 / t4 <= 2.1
    times3 = [mean("III", c) for c in (1, 2, 4)]
    assert (max(times3) - min(times3)) / min(times3) < 0.05


def test_tree_from_words_matches_worked_example():
    tree = _tree_from_words(proto.WORKED_EXAMPLE_WORDS.values(), 2, 2)
    assert tree.count == 9
    left, right = tree.children
    assert (left.count, right.count) == (5, 4)
    assert [c.count for c in left.children] == [2, 3]
    assert [c.count for c in right.children] == [0, 4]
    assert _tree_counts(tree, 2, 2) == (11, 6, 11, 3)
    # the simulator reproduces the fig2/fig3 engine metrics on this tree
    sc = replace(netsim.SCENARIO_PRESETS["I"], element_bits=16, mbar=2, gamma=1)
    for protocol, metrics in (("psr", (11, 11, 4)), ("epsr", (6, 11, 4))):
        sim = netsim.run_trial(protocol, tree, sc)
        assert (sim.sketches_transmitted, sim.recovery_calls, sim.rounds) == metrics


@pytest.mark.parametrize("schedule,delta,mbar", [
    (fair_probs(2), 1000, 50), (fair_probs(2), 10_000, 50),
    (round_optimal_probs(4), 3000, 9), (fair_probs(3), 400, 1), (fair_probs(2), 7, 9),
])
def test_sample_placement_tree_matches_recursive_reference(schedule, delta, mbar):
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            tree = netsim.sample_placement_tree(delta, mbar, schedule, rng)
            assert _preorder(tree) == _preorder(_reference_sample_tree(delta, mbar, schedule, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_placement_tree_deep_skewed():
    # about a thousand levels: deeper than a recursive walk can go
    sched = PartitionSchedule((Fraction(99, 100), Fraction(1, 100)))
    tree = netsim.sample_placement_tree(20_000, 1, sched, np.random.default_rng(0))
    nodes = _preorder(tree)
    assert sum(count for count, _, kids in nodes if not kids) == 20_000
    assert all(count <= 1 for count, _, kids in nodes if not kids)
    assert all(kids in (0, 2) for _, _, kids in nodes)
    assert max(depth for _, depth, _ in nodes) > 800


def test_deep_tree_trials():
    # 3418 levels: both engines and the clock run without recursion
    sched = PartitionSchedule((Fraction(999, 1000), Fraction(1, 1000)))
    tree = netsim.sample_placement_tree(100, 1, sched, np.random.default_rng(0))
    twin = netsim.sample_placement_tree(100, 1, sched, np.random.default_rng(0))
    # nodes compare by identity, so == and repr do not walk the tree
    assert tree == tree and tree != twin and _preorder(tree) == _preorder(twin)
    assert repr(tree).startswith("<setrecon.netsim.PlacementNode object")
    sc = replace(netsim.SCENARIO_PRESETS["I"], mbar=1, schedule=sched)
    for protocol, counters in (("psr", (7829, 7829)), ("epsr", (3915, 7829))):
        r = netsim.run_trial(protocol, tree, sc)
        assert (r.sketches_transmitted, r.recovery_calls) == counters
        assert r.rounds == 3418 and r.total_ms == 118835.4917


def test_tree_must_fit_scenario():
    # A tree sampled with another schedule, or at a larger mbar, is refused
    # where the engine steps into a split node that lacks exactly c
    # children.  Unchecked, these gave a bare IndexError, or for the c=4
    # tree under c=2, 13 sketches and 207.7 ms in place of 65 and 839.6 ms.
    sc = replace(netsim.SCENARIO_PRESETS["I"], mbar=10)

    def tree(c):
        return netsim.sample_placement_tree(200, 10, fair_probs(c), np.random.default_rng(0))

    for t, scenario, match in (
            (tree(2), replace(sc, schedule=fair_probs(3)), "path '-' has 2 children, not .* c=3"),
            (tree(2), replace(sc, mbar=5), r"path '0(\.0)+(\.1)?' has 0 children, not .* c=2"),
            (tree(4), sc, "path '-' has 4 children, not .* c=2")):
        for protocol in ("psr", "epsr"):
            for log in (None, []):
                with pytest.raises(ValueError, match=match):
                    netsim.run_trial(protocol, t, scenario, log)
    # A split node whose children's counts are negative or do not sum to
    # its own fits no placement.  Unchecked, the first tree gave 3
    # sketches and 77.17 ms from PSR under preset I.
    leaf = netsim.PlacementNode
    for t, match in (
            (leaf(100, (leaf(1), leaf(1))), r"path '-' holds 100, but its children hold \[1, 1\]"),
            (leaf(100, (leaf(101), leaf(-1))), r"path '-' holds 100, .* \[101, -1\]"),
            (leaf(100, (leaf(60, (leaf(70), leaf(-10))), leaf(40))),
             r"path '0' holds 60, .* \[70, -10\]")):
        for protocol in ("psr", "epsr"):
            for log in (None, []):
                with pytest.raises(ValueError, match=match):
                    netsim.run_trial(protocol, t, netsim.SCENARIO_PRESETS["I"], log)
    fitted = netsim.run_trial("psr", tree(4), replace(sc, schedule=fair_probs(4)))
    assert (fitted.sketches_transmitted, fitted.total_ms) == (65, 839.56166)
    with pytest.raises(ValueError, match="root count -5 is negative"):
        netsim.run_trial("epsr", netsim.PlacementNode(-5), sc)


def _reference_sweep(deltas, scenario, cores_list, protocols, seed, samples):
    """`netsim.sweep` as first written, protocol-major: all trees under one
    protocol and core count before the next."""
    rows = []
    for delta in deltas:
        rng = np.random.default_rng(seed)
        trees = [netsim.sample_placement_tree(delta, scenario.mbar, scenario.schedule, rng)
                 for _ in range(samples)]
        for protocol in protocols:
            for cores in cores_list:
                sc = replace(scenario, n_cores=cores)
                times = np.array([netsim.run_trial(protocol, t, sc).total_ms for t in trees])
                stderr = float(times.std(ddof=1) / np.sqrt(len(times))) if len(times) > 1 else 0.0
                rows.append((delta, protocol, cores, float(times.mean()), stderr))
    return rows


def test_sweep_csv(tmp_path):
    import io

    sc = netsim.SCENARIO_PRESETS["I"]
    rows = netsim.sweep([60, 120], sc, [1, 2], ("psr", "epsr"), seed=1, samples=3)
    assert len(rows) == 8
    # tree-major order gives the rows of the protocol-major one, also with
    # a core count or a protocol given twice, or a single sample
    assert rows == _reference_sweep([60, 120], sc, [1, 2], ("psr", "epsr"), 1, 3)
    for args in (([300], netsim.SCENARIO_PRESETS["II"], [4, 1, 4], ("epsr", "psr", "epsr"), 5, 7),
                 ([500], netsim.SCENARIO_PRESETS["III"], [2], ("psr",), 2, 1)):
        assert netsim.sweep(*args) == _reference_sweep(*args)
    buf = io.StringIO()
    netsim.write_sweep_csv(buf, rows)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "delta,protocol,cores,mean_ms,stderr_ms"
    assert len(lines) == 9


# sha256 of every counter, total time and event log over the grid below, as
# the event-driven simulator first gave them.
RUN_TRIAL_DIGEST = "898c2b02889fa3b11fd77ac506d103828768f52dab452ca79956e0e3d683a268"


def _digest_grid():
    """The trees and scenarios of `test_run_trial_digest`, as (tree index,
    tree, [(scenario name, cores, scenario)])."""
    schedules = (fair_probs(2), fair_probs(3), round_optimal_probs(4),
                 PartitionSchedule((Fraction(9, 10), Fraction(1, 10))))
    grid = []
    for k, sched in enumerate(schedules):
        rng = np.random.default_rng(k)
        for mbar in (3, 50):
            for delta in (0, 17, 400, 1000):
                tree = netsim.sample_placement_tree(delta, mbar, sched, rng)
                grid.append((len(grid), tree, [
                    (name, cores, replace(netsim.SCENARIO_PRESETS[name], mbar=mbar,
                                          schedule=sched, n_cores=cores))
                    for name in ("I", "II", "III") for cores in (1, 2, 4)]))
    return grid


def test_run_trial_digest():
    digest = hashlib.sha256()
    for _, tree, scenarios in _digest_grid():
        for _, _, sc in scenarios:
            for protocol in ("psr", "epsr"):
                log = []
                r = netsim.run_trial(protocol, tree, sc, log)
                digest.update(repr((r.total_ms, r.sketches_transmitted,
                                    r.recovery_calls, r.bits_b_to_a,
                                    r.rounds, log)).encode())
    assert digest.hexdigest() == RUN_TRIAL_DIGEST


def test_trial_memo_matches_fresh_runs(monkeypatch):
    # A call with a log never reaches the memo, so it is the fresh result.
    grid = _digest_grid()
    fresh = {(i, name, cores, protocol): netsim.run_trial(protocol, tree, sc, [])
             for i, tree, scenarios in grid for name, cores, sc in scenarios
             for protocol in ("psr", "epsr")}
    engine_runs = []
    for name, engine in proto.ENGINES.items():
        monkeypatch.setitem(proto.ENGINES, name, lambda run, c, name=name, engine=engine: (
            engine_runs.append(name), engine(run, c)))
    # the benchmark's order: each tree under each protocol, core counts
    # innermost, so the engine runs once per tree and protocol
    for i, tree, scenarios in grid:
        for protocol in ("psr", "epsr"):
            for name, cores, sc in scenarios:
                assert netsim.run_trial(protocol, tree, sc) == fresh[i, name, cores, protocol]
    assert len(engine_runs) == 2 * len(grid)
    # the digest's order: the protocol alternates innermost, so every call misses
    engine_runs.clear()
    for i, tree, scenarios in grid:
        for name, cores, sc in scenarios:
            for protocol in ("psr", "epsr"):
                assert netsim.run_trial(protocol, tree, sc) == fresh[i, name, cores, protocol]
    assert len(engine_runs) == len(fresh)


def test_trial_memo_key():
    sc = netsim.SCENARIO_PRESETS["I"]
    rng = np.random.default_rng(12)
    # c: a fair-2 tree under fair 3 is refused after it ran under fair 2
    tree = netsim.sample_placement_tree(400, 50, fair_probs(2), rng)
    netsim.run_trial("psr", tree, sc)
    with pytest.raises(ValueError, match="c=3"):
        netsim.run_trial("psr", tree, replace(sc, schedule=fair_probs(3)))
    # mbar: a tree sampled at mbar 3 runs at mbar 50 as if fresh
    tree = netsim.sample_placement_tree(400, 3, fair_probs(2), rng)
    small = netsim.run_trial("epsr", tree, replace(sc, mbar=3))
    large = netsim.run_trial("epsr", tree, sc)
    assert large == netsim.run_trial("epsr", tree, sc, [])
    assert large.sketches_transmitted < small.sketches_transmitted
    # protocol: each gets its own counters on one tree
    psr = netsim.run_trial("psr", tree, sc)
    epsr = netsim.run_trial("epsr", tree, sc)
    assert psr == netsim.run_trial("psr", tree, sc, [])
    assert epsr == netsim.run_trial("epsr", tree, sc, [])
    assert psr.sketches_transmitted != epsr.sketches_transmitted


def test_trial_memo_after_refusal_and_with_logs():
    sc = netsim.SCENARIO_PRESETS["I"]
    tree = netsim.sample_placement_tree(1000, 50, fair_probs(2), np.random.default_rng(4))
    bad = netsim.PlacementNode(100, (netsim.PlacementNode(1), netsim.PlacementNode(1)))
    first_log = []
    expected = netsim.run_trial("psr", tree, sc, first_log)
    assert netsim.run_trial("psr", tree, sc) == expected
    # a refused tree stores no graph: it is refused again, and the next
    # valid call is correct
    for _ in range(2):
        with pytest.raises(ValueError, match="holds 100"):
            netsim.run_trial("psr", bad, sc)
    assert netsim.run_trial("psr", tree, sc) == expected
    # a log call after a memo hit gives the same log
    assert netsim.run_trial("psr", tree, sc) == expected
    second_log = []
    assert netsim.run_trial("psr", tree, sc, second_log) == expected
    assert repr(second_log) == repr(first_log)


def test_trial_memo_keeps_no_tree():
    sc = replace(netsim.SCENARIO_PRESETS["I"], mbar=10)
    tree = netsim.sample_placement_tree(300, 10, fair_probs(2), np.random.default_rng(6))
    netsim.run_trial("epsr", tree, sc)
    ref = weakref.ref(tree)
    del tree
    gc.collect()
    assert ref() is None
    # A new tree at a dead tree's address is a new tree.  Each tree here
    # is one new root over subtrees kept alive, so a freed root's memory
    # is likely to hold the next root; the subtrees' depths differ, and
    # so do the trials.
    five = netsim.PlacementNode(5)
    subtrees = [five]
    for _ in range(4):
        subtrees.append(netsim.PlacementNode(subtrees[-1].count + 5, (five, subtrees[-1])))
    sc = replace(sc, mbar=5)
    for k in range(30):
        sub = subtrees[k % 5]
        tree = netsim.PlacementNode(sub.count + 5, (five, sub))
        assert netsim.run_trial("psr", tree, sc).sketches_transmitted == 2 * (k % 5) + 3
        del tree


def test_scenario_validation():
    with pytest.raises(ValueError):
        netsim.ScenarioConfig(latency_ms=0)
    with pytest.raises(ValueError):
        netsim.ScenarioConfig(n_cores=0)
    with pytest.raises(ValueError):
        netsim.ScenarioConfig(mbar=0)
    with pytest.raises(ValueError):
        netsim.ScenarioConfig(throughput_bps=float("nan"))
    # the last three overflow _clock's integer nanoseconds
    for key, value in (("latency_ms", float("inf")), ("recovery_ms", float("inf")),
                       ("latency_ms", 1e305), ("recovery_ms", 1e305), ("throughput_bps", 1e-300)):
        with pytest.raises(ValueError, match="finite"):
            netsim.ScenarioConfig(**{key: value})
    with pytest.raises(ValueError):
        netsim.sweep([10], netsim.SCENARIO_PRESETS["I"], [1], ("psr",), seed=0, samples=0)
    with pytest.raises(ValueError):
        netsim.run_trial("udp", netsim.PlacementNode(1), netsim.SCENARIO_PRESETS["I"])
