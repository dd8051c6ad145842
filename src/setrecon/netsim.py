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
    walk keeps its own stack, so the tree may be arbitrarily deep."""
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


class _Piece:
    """A count-only difference sketch: the node it was fetched for and its
    depth (a residual keeps its parent's, also when it is the last child's
    sketch), its count, the action delivering it and its recovery."""

    __slots__ = ("node", "depth", "count", "ready", "recovery")

    def __init__(self, node: PlacementNode, depth: int, count: int, ready):
        self.node, self.depth, self.count, self.ready = node, depth, count, ready


class _TreeRun(RunCounters):
    """A protocol engine's run on a placement tree.  Each fetch and each
    recovery is recorded as an action (is_fetch, log label if `labelled`,
    actions it issues) under the action whose completion issues it."""

    def __init__(self, tree: PlacementNode, mbar: int, labelled: bool):
        super().__init__()
        self.mbar = mbar
        self.labelled = labelled
        # stands before the root: its "recovery" issues the root fetch at time 0
        self.origin = _Piece(tree, 0, tree.count, None)
        self.origin.recovery = (False, None, [])

    def _record(self, cause, is_fetch: bool, path) -> tuple:
        label = (".".join(map(str, path)) or "-") if self.labelled else None
        action = (is_fetch, label, [])
        cause[2].append(action)
        return action

    def fetch(self, path, after) -> _Piece:
        after = after or self.origin
        node = after.node
        for j in path[after.depth:]:
            node = node.children[j]
        self.tx += 1
        if self.max_tx_depth < len(path):
            self.max_tx_depth = len(path)
        return _Piece(node, len(path), node.count, self._record(after.recovery, True, path))

    def subtract(self, z: _Piece, z_child: _Piece) -> _Piece:
        # z_child was requested after z's recovery failed, so it arrives last.
        return _Piece(z.node, z.depth, z.count - z_child.count, z_child.ready)

    def recover(self, path, z: _Piece) -> bool:
        self.recoveries += 1
        z.recovery = self._record(z.ready, False, path)
        return z.count <= self.mbar


def _clock(start, sc: ScenarioConfig, log: list | None) -> int:
    """Times an action graph on the module's link and cores; returns when
    the last recovery finishes.

    Every fetch has the same latency and serialization on one FIFO link,
    and every recovery the same duration on FIFO cores, so fetches finish
    in the order they were issued, and so do recoveries.  Each completion
    stream is therefore a FIFO queue already sorted by (time, issue
    order), the next event is the earlier of the two heads, and the core
    that frees first is the one taken longest ago: O(1) per action.
    Completions at the same time, and the actions one completion issues,
    are taken in the order they were issued."""
    latency, serialization, recovery = sc.latency_ns, sc.serialization_ns, sc.recovery_ns
    cores = deque([0] * sc.n_cores)  # free times, earliest first
    fetched, recovered = deque(), deque([(0, 0, start[2])])  # (done, seq, actions issued)
    seq = link_free = 0
    while True:
        if recovered and (not fetched or recovered[0] < fetched[0]):
            t, _, issued = recovered.popleft()
        elif fetched:
            t, _, issued = fetched.popleft()
        else:
            return cores[-1]  # the ring is sorted: its last core frees last
        for is_fetch, label, next_actions in issued:
            seq += 1
            if is_fetch:
                at_b = t + latency
                if link_free < at_b:
                    link_free = at_b
                link_free += serialization
                done = link_free + latency
                fetched.append((done, seq, next_actions))
                if log is not None:
                    log += [(t, "request_sent", label), (at_b, "reply_enqueued", label),
                            (done, "reply_delivered", label)]
            else:
                begin = cores.popleft()
                if begin < t:
                    begin = t
                done = begin + recovery
                cores.append(done)
                recovered.append((done, seq, next_actions))
                if log is not None:
                    log += [(begin, "recovery_started", label),
                            (done, "recovery_finished", label)]


def run_trial(protocol: str, tree: PlacementNode, scenario: ScenarioConfig,
              log: list | None = None) -> TrialResult:
    """Simulate one full reconciliation: runs the protocol's engine on the
    tree and times the actions it takes.  Returns the completion time of
    the last recovery along with the communication counters.  Given a
    `log` list, appends the trial's events (time in ns, event, path label)
    to it in time order; ties keep their issue order."""
    if protocol not in ENGINES:
        raise ValueError("protocol must be 'psr' or 'epsr'")
    run = _TreeRun(tree, scenario.mbar, log is not None)
    ENGINES[protocol](run, scenario.schedule.c)
    events = None if log is None else []
    finished = _clock(run.origin.recovery, scenario, events)
    if log is not None:
        log += sorted(events, key=lambda event: event[0])  # stable: ties keep issue order
    return run.metrics(scenario.sketch_bits, TrialResult, total_ms=finished / _NS_PER_MS)


def sweep(deltas, scenario: ScenarioConfig, cores_list, protocols, seed: int, samples: int):
    """Rows (delta, protocol, cores, mean_ms, stderr_ms) over `samples`
    placement trees per delta, deterministic given the seed; trees are
    shared across protocols and core counts for paired comparisons."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rows = []
    for delta in deltas:
        rng = np.random.default_rng(seed)
        trees = [
            sample_placement_tree(delta, scenario.mbar, scenario.schedule, rng)
            for _ in range(samples)
        ]
        for protocol in protocols:
            for cores in cores_list:
                sc = replace(scenario, n_cores=cores)
                times = np.array(
                    [run_trial(protocol, t, sc).total_ms for t in trees]
                )
                stderr = float(times.std(ddof=1) / math.sqrt(len(times))) if len(times) > 1 else 0.0
                rows.append((delta, protocol, cores, float(times.mean()), stderr))
    return rows


def write_sweep_csv(fobj, rows) -> None:
    fobj.write("delta,protocol,cores,mean_ms,stderr_ms\n")
    for delta, protocol, cores, mean_ms, stderr_ms in rows:
        fobj.write(f"{delta},{protocol},{cores},{mean_ms:.6f},{stderr_ms:.6f}\n")
