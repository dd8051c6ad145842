"""Discrete-event simulation of reconciliation over a constrained link.

Topology: node A drives the protocol; node B answers sketch requests.
Requests A->B are zero-size but incur the one-way latency.  Replies are
precomputed at B, then occupy the B->A link (a FIFO queue draining at the
configured throughput) for their serialization time, and finally incur
the one-way latency again (store-and-forward).  Recoveries at A are jobs
of fixed duration on a multi-server FIFO CPU; every other computing step
takes zero time.  A trial runs the protocol's engine from `protocol` on
an abstract placement tree, where a sketch is a difference count that
recovers iff it is at most mbar, and times the engine's fetches and
recoveries.  `sample_placement_tree` draws one such tree; it is the
package's only per-tree sampler (`analysis.mc_sample_batch` draws trees
in bulk).

A trial records each fetch and recovery under the action whose
completion issues it.  Fetches and recoveries alternate in this graph: a
fetch is issued by the failed recovery before it (the root fetch by the
start), a recovery by the fetch that delivered its piece.  So an action
is just the list of actions it issues; its kind is known from its
issuer's, and log labels are made only when a log is asked for.  A tree
must fit its scenario: a negative root count, or a split node the engine
steps into that lacks exactly the schedule's c children or whose
children's counts are negative or do not sum to its own, raises
`ValueError`.

The graph depends on the protocol, the tree, mbar and c alone; only
`_clock` reads the link and the cores.  So `run_trial` keeps one entry:
the graph and counters of its last engine run made without a log.  A
later call without a log that passes the same tree object with the same
protocol, mbar and c only re-times that graph, as a sweep over core
counts does for each tree.  The entry holds the tree by weak reference
and goes when the tree does; a call with a log neither reads nor fills
it.

The model fixes the order of completions.  One link FIFO with a fixed
serialization, one recovery duration and FIFO cores make fetches
complete in the order they were issued, and recoveries too.  So `_clock`
keeps each completion stream as a sorted FIFO queue and the cores as a
ring, and costs O(1) per action; completions at the same time are taken
in issue order.

All times are integer nanoseconds internally; results are reported in
milliseconds.  Identical (protocol, tree, scenario) inputs produce
bit-identical event logs.
"""

from __future__ import annotations

import math
import typing
import weakref
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .partition import PartitionSchedule, fair_probs
from .protocol import ENGINES, ReconcileMetrics, RunCounters
from .sketch import wire_cost

_NS_PER_MS = 1_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Network and compute parameters of one simulated deployment."""

    latency_ms: float = 10.0
    throughput_bps: float = 1e8
    recovery_ms: float = 12.3
    n_cores: int = 1
    element_bits: int = 256
    mbar: int = 50
    gamma: int = 1
    schedule: PartitionSchedule = field(default_factory=lambda: fair_probs(2))

    def __post_init__(self):
        if not all(v > 0 for v in (self.latency_ms, self.throughput_bps, self.recovery_ms)):
            raise ValueError("latency, throughput and recovery time must be positive")
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        # sketch_bits raises ConfigError unless mbar >= 1, gamma >= 0 and
        # element_bits >= 1 (with mbar < 1 a placement tree would split
        # forever); _clock rounds these three times to integer nanoseconds
        if not all(map(math.isfinite, (self.latency_ms * _NS_PER_MS, self.recovery_ms * _NS_PER_MS,
                                       self.sketch_bits * 1e9 / self.throughput_bps))):
            raise ValueError("latency, recovery and serialization times must be finite in ns")

    @property
    def sketch_bits(self) -> int:
        return wire_cost(self.mbar, self.gamma, self.element_bits)

    @property
    def latency_ns(self) -> int:
        return round(self.latency_ms * _NS_PER_MS)

    @property
    def recovery_ns(self) -> int:
        return round(self.recovery_ms * _NS_PER_MS)

    @property
    def serialization_ns(self) -> int:
        return round(self.sketch_bits * 1e9 / self.throughput_bps)


SCENARIO_PRESETS = {
    "I": ScenarioConfig(latency_ms=10.0, throughput_bps=1e8, recovery_ms=12.3),
    "II": ScenarioConfig(latency_ms=10.0, throughput_bps=1e8, recovery_ms=615.0),
    "III": ScenarioConfig(latency_ms=10.0, throughput_bps=1e4, recovery_ms=12.3),
}


def load_scenario(source) -> ScenarioConfig:
    """Scenario by preset name, or from a key=value text file path whose
    keys are `ScenarioConfig`'s fields except `schedule`, each given at
    most once and parsed as its field's type.  A malformed line raises
    `ValueError` naming FILE:LINE."""
    if source in SCENARIO_PRESETS:
        return SCENARIO_PRESETS[source]
    types = typing.get_type_hints(ScenarioConfig)
    del types["schedule"]
    kwargs = {}
    with open(source, encoding="utf-8") as fobj:
        for lineno, raw in enumerate(fobj, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{source}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in types:
                raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
            if key in kwargs:
                raise ValueError(f"{source}:{lineno}: key {key!r} given twice")
            try:
                kwargs[key] = types[key](value.strip())
            except ValueError:
                raise ValueError(f"{source}:{lineno}: key {key!r}: not "
                                 f"{types[key].__name__}: {value.strip()!r}") from None
    return ScenarioConfig(**kwargs)


# ---------------------------------------------------------------------------
# Placement trees.


@dataclass(frozen=True, eq=False, repr=False)
class PlacementNode:
    """Difference counts of one partition and, when it splits, its children.
    Nodes compare by identity, since a tree may be deeper than recursion."""

    count: int
    children: tuple["PlacementNode", ...] = ()


def sample_placement_tree(delta: int, mbar: int, schedule: PartitionSchedule,
                          rng: np.random.Generator) -> PlacementNode:
    """Multinomial placement tree, split until every node holds <= mbar.

    Splits are drawn in pre-order (a node, then its children's subtrees
    left to right), so a given rng state always yields the same tree.  The
    walk keeps its own stack, so the tree may be arbitrarily deep.  A
    negative delta, or mbar < 1 (which would split forever), raises
    `ValueError`."""
    if delta < 0 or mbar < 1:
        raise ValueError(f"need delta >= 0 and mbar >= 1, got {delta} and {mbar}")
    probs = schedule.as_floats()
    if delta <= mbar:
        return PlacementNode(delta)
    # Each frame: a split node's count, its unvisited child counts, and
    # its finished children.
    stack = [(delta, iter(rng.multinomial(delta, probs).tolist()), [])]
    while True:
        count, parts, done = stack[-1]
        x = next(parts, None)
        if x is None:
            stack.pop()
            node = PlacementNode(count, tuple(done))
            if not stack:
                return node
            stack[-1][2].append(node)
        elif x <= mbar:
            done.append(PlacementNode(x))
        else:
            stack.append((x, iter(rng.multinomial(x, probs).tolist()), []))


# ---------------------------------------------------------------------------
# Event-driven trial.


@dataclass(frozen=True)
class TrialResult(ReconcileMetrics):
    """A simulated run's metrics and when its last recovery finished."""

    total_ms: float


def _label(path) -> str:
    return ".".join(map(str, path)) or "-"


class _TreeRun(RunCounters):
    """A protocol engine's run on a placement tree, recorded as the action
    graph of the module docstring (a residual's fetch is its child's);
    `start` is the origin's recovery, which issues the root fetch.

    A piece is a tuple (node, depth, count, fetch, recovery): the node it
    was fetched for and its depth (a residual keeps its parent's, also
    when it is the last child's sketch), its count, the fetch delivering
    it and its recovery, made with the piece since every piece is
    recovered once."""

    def __init__(self, tree: PlacementNode, mbar: int, c: int):
        super().__init__()
        self.tree, self.mbar, self.c = tree, mbar, c
        self.start = []

    def fetch(self, path, after) -> tuple:
        if after is None:
            node, depth, issued = self.tree, 0, self.start
        else:
            node, depth, _, _, issued = after
        for j in path[depth:]:
            children = node.children
            if len(children) != self.c:
                raise ValueError(f"tree node at path {_label(path[:depth])!r} has "
                                 f"{len(children)} children, not the schedule's c={self.c}")
            if not j:  # both engines enter a node they split by child 0 first
                total = 0
                for child in children:  # a loop: sum() and min() cost 4x more
                    count = child.count
                    if count < 0:
                        break
                    total += count
                if count < 0 or total != node.count:
                    raise ValueError(f"tree node at path {_label(path[:depth])!r} holds "
                                     f"{node.count}, but its children hold "
                                     f"{[child.count for child in children]}")
            node = children[j]
            depth += 1
        self.tx += 1
        if self.max_tx_depth < depth:
            self.max_tx_depth = depth
        action = []
        issued.append(action)
        return node, depth, node.count, action, []

    def subtract(self, z: tuple, z_child: tuple) -> tuple:
        # z_child was requested after z's recovery failed, so it arrives last.
        return z[0], z[1], z[2] - z_child[2], z_child[3], []

    def recover(self, path, z: tuple) -> bool:
        self.recoveries += 1
        z[3].append(z[4])
        return z[2] <= self.mbar


class _LabelledRun(_TreeRun):
    """A `_TreeRun` that also keeps each action's log label, keyed by the
    id of its list; the graph keeps every list alive until it is timed."""

    def __init__(self, tree: PlacementNode, mbar: int, c: int):
        super().__init__(tree, mbar, c)
        self.labels = {}

    def fetch(self, path, after) -> tuple:
        z = super().fetch(path, after)
        self.labels[id(z[3])] = _label(path)
        return z

    def recover(self, path, z: tuple) -> bool:
        self.labels[id(z[4])] = _label(path)
        return super().recover(path, z)


def _clock(start: list, sc: ScenarioConfig, log: list | None = None,
           labels: dict | None = None) -> int:
    """Times an action graph on the module's link and cores; returns when
    the last recovery finishes.  Given a `log` list and the actions'
    `labels`, appends each action's events to it.

    Every fetch has the same latency and serialization on one FIFO link,
    and every recovery the same duration on FIFO cores, so fetches finish
    in the order they were issued, and so do recoveries.  Each completion
    stream is therefore a FIFO queue already sorted by (time, issue
    order), the next event is the earlier of the two heads, and the core
    that frees first is the one taken longest ago: O(1) per action.
    Completions at the same time, and the actions one completion issues,
    are taken in the order they were issued.  Fetches and recoveries
    alternate in the graph, so a completion's queue says what it issues:
    a recovery (`start` is the origin's) issues fetches, a fetch issues
    recoveries."""
    latency, serialization, recovery = sc.latency_ns, sc.serialization_ns, sc.recovery_ns
    cores = deque([0] * sc.n_cores)  # free times, earliest first
    fetched, recovered = deque(), deque([(0, 0, start)])  # (done, seq, actions issued)
    seq = link_free = 0
    while True:
        if recovered and (not fetched or recovered[0] < fetched[0]):
            t, _, issued = recovered.popleft()
            for action in issued:
                seq += 1
                at_b = t + latency
                if link_free < at_b:
                    link_free = at_b
                link_free += serialization
                done = link_free + latency
                fetched.append((done, seq, action))
                if log is not None:
                    label = labels[id(action)]
                    log += [(t, "request_sent", label), (at_b, "reply_enqueued", label),
                            (done, "reply_delivered", label)]
        elif fetched:
            t, _, issued = fetched.popleft()
            for action in issued:
                seq += 1
                begin = cores.popleft()
                if begin < t:
                    begin = t
                done = begin + recovery
                cores.append(done)
                if action:  # a recovery that issues nothing changes nothing when it ends
                    recovered.append((done, seq, action))
                if log is not None:
                    label = labels[id(action)]
                    log += [(begin, "recovery_started", label),
                            (done, "recovery_finished", label)]
        else:
            return cores[-1]  # the ring is sorted: its last core frees last


# run_trial's memo: (weak reference to the tree, (protocol, mbar, c),
# action graph, counters) of its last engine run made without a log.
_last = None


def _forget(ref) -> None:
    """Drops the memo when its tree dies."""
    global _last
    if _last is not None and _last[0] is ref:
        _last = None


def run_trial(protocol: str, tree: PlacementNode, scenario: ScenarioConfig,
              log: list | None = None) -> TrialResult:
    """Simulate one full reconciliation: runs the protocol's engine on the
    tree and times the actions it takes.  Returns the completion time of
    the last recovery along with the communication counters.  Given a
    `log` list, appends the trial's events (time in ns, event, path label)
    to it in time order; ties keep their issue order.  A tree that does
    not fit the scenario raises `ValueError`: one with a negative count,
    or with a split node the engine steps into that lacks exactly the
    schedule's c children (a tree sampled with another schedule, or at a
    larger mbar) or whose children's counts are negative or do not sum to
    its own.

    The graph and counters of the last engine run made without a log are
    kept in one entry.  A call without a log that passes the same tree
    object with the same protocol, `scenario.mbar` and `schedule.c` times
    that graph again instead of rerunning the engine.  Calls with a log
    neither read nor fill the entry.  Every engine run first drops it, so
    two graphs are never alive at once, and a run that raises stores
    nothing.  The entry holds the tree by weak reference only."""
    global _last
    if protocol not in ENGINES:
        raise ValueError("protocol must be 'psr' or 'epsr'")
    if tree.count < 0:
        raise ValueError(f"tree root count {tree.count} is negative")
    c = scenario.schedule.c
    key = (protocol, scenario.mbar, c)
    last = _last
    if log is not None or last is None or last[0]() is not tree or last[1] != key:
        last = _last = None  # frees the old graph before the engine makes one
        run = (_TreeRun if log is None else _LabelledRun)(tree, scenario.mbar, c)
        ENGINES[protocol](run, c)
        if log is not None:
            events = []
            finished = _clock(run.start, scenario, events, run.labels)
            log += sorted(events, key=lambda event: event[0])  # stable: ties keep issue order
            return run.metrics(scenario.sketch_bits, TrialResult, total_ms=finished / _NS_PER_MS)
        counters = RunCounters()  # the run holds the tree, so only its counters are kept
        counters.tx, counters.recoveries, counters.max_tx_depth = (
            run.tx, run.recoveries, run.max_tx_depth)
        last = _last = (weakref.ref(tree, _forget), key, run.start, counters)
    finished = _clock(last[2], scenario)
    return last[3].metrics(scenario.sketch_bits, TrialResult, total_ms=finished / _NS_PER_MS)


def sweep(deltas, scenario: ScenarioConfig, cores_list, protocols, seed: int, samples: int):
    """Rows (delta, protocol, cores, mean_ms, stderr_ms) over `samples`
    placement trees per delta, deterministic given the seed; trees are
    shared across protocols and core counts for paired comparisons.  Each
    tree runs every protocol and core count in turn, core counts
    innermost, so `run_trial` reuses its graph across core counts."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    runs = [(protocol, cores, replace(scenario, n_cores=cores))
            for protocol in protocols for cores in cores_list]
    rows = []
    for delta in deltas:
        rng = np.random.default_rng(seed)
        trees = [
            sample_placement_tree(delta, scenario.mbar, scenario.schedule, rng)
            for _ in range(samples)
        ]
        per_tree = [[run_trial(protocol, tree, sc).total_ms for protocol, _, sc in runs]
                    for tree in trees]
        for (protocol, cores, _), column in zip(runs, zip(*per_tree)):
            times = np.array(column)
            stderr = float(times.std(ddof=1) / math.sqrt(len(times))) if len(times) > 1 else 0.0
            rows.append((delta, protocol, cores, float(times.mean()), stderr))
    return rows


def write_sweep_csv(fobj, rows) -> None:
    fobj.write("delta,protocol,cores,mean_ms,stderr_ms\n")
    for delta, protocol, cores, mean_ms, stderr_ms in rows:
        fobj.write(f"{delta},{protocol},{cores},{mean_ms:.6f},{stderr_ms:.6f}\n")
