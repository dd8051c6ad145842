"""Discrete-event simulation of reconciliation over a constrained link.

Topology: node A drives the protocol; node B answers sketch requests.
Requests A->B are zero-size but incur the one-way latency.  Replies are
precomputed at B, then occupy the B->A link (a FIFO queue draining at the
configured throughput) for their serialization time, and finally incur
the one-way latency again (store-and-forward).  Recoveries at A are jobs
of fixed duration on a multi-server FIFO CPU; every other computing step
takes zero time.  Recovery on a partition succeeds iff its difference
count is at most mbar, so trials run on abstract placement trees rather
than field arithmetic.  `sample_placement_tree` draws one such tree; it is
the package's only per-tree sampler (`analysis.mc_sample_batch` draws
trees in bulk).

All times are integer nanoseconds internally; results are reported in
milliseconds.  Identical (protocol, tree, scenario) inputs produce
bit-identical event logs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .partition import PartitionSchedule, fair_probs
from .sketch import wire_cost

_NS_PER_MS = 1_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Network and compute parameters of one simulated deployment."""

    name: str
    latency_ms: float = 10.0
    throughput_bps: float = 1e8
    recovery_ms: float = 12.3
    n_cores: int = 1
    element_bits: int = 256
    mbar: int = 50
    gamma: int = 1
    samples: int = 100
    schedule: PartitionSchedule = field(default_factory=lambda: fair_probs(2))

    def __post_init__(self):
        if min(self.latency_ms, self.throughput_bps, self.recovery_ms) <= 0:
            raise ValueError("latency, throughput and recovery time must be positive")
        if self.n_cores < 1 or self.samples < 1:
            raise ValueError("n_cores and samples must be >= 1")

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
    "I": ScenarioConfig("I", latency_ms=10.0, throughput_bps=1e8, recovery_ms=12.3),
    "II": ScenarioConfig("II", latency_ms=10.0, throughput_bps=1e8, recovery_ms=615.0),
    "III": ScenarioConfig("III", latency_ms=10.0, throughput_bps=1e4, recovery_ms=12.3),
}

_SCENARIO_FIELDS = {
    "name": str,
    "latency_ms": float,
    "throughput_bps": float,
    "recovery_ms": float,
    "n_cores": int,
    "element_bits": int,
    "mbar": int,
    "gamma": int,
    "samples": int,
}


def load_scenario(source) -> ScenarioConfig:
    """Scenario by preset name, or from a key=value text file path."""
    if source in SCENARIO_PRESETS:
        return SCENARIO_PRESETS[source]
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
            if key not in _SCENARIO_FIELDS:
                raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
            kwargs[key] = _SCENARIO_FIELDS[key](value.strip())
    kwargs.setdefault("name", "custom")
    return ScenarioConfig(**kwargs)


# ---------------------------------------------------------------------------
# Placement trees.


@dataclass(frozen=True)
class PlacementNode:
    """Difference counts of one partition and, when it splits, its children."""

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


@dataclass
class TrialResult:
    total_ms: float
    sketches_transmitted: int
    recovery_calls: int
    bits_b_to_a: int
    rounds: int
    log: list[tuple[int, str, str]] | None = None


class _Sim:
    def __init__(self, scenario: ScenarioConfig, collect_log: bool):
        self.sc = scenario
        self.events: list[tuple[int, int, object, object]] = []
        self.seq = 0
        self.link_free = 0
        self.cores = [0] * scenario.n_cores
        heapq.heapify(self.cores)
        self.tx = 0
        self.recoveries = 0
        self.max_tx_depth = 0
        self.finished_at = 0
        self.log: list[tuple[int, str, str]] | None = [] if collect_log else None

    def emit(self, t: int, event: str, path: str) -> None:
        if self.log is not None:
            self.log.append((t, event, path))

    def schedule(self, t: int, fn, arg) -> None:
        heapq.heappush(self.events, (t, self.seq, fn, arg))
        self.seq += 1

    def send_request(self, t: int, node, on_reply) -> None:
        """A->B request followed by the FIFO-serialized B->A reply."""
        sc = self.sc
        self.tx += 1
        self.max_tx_depth = max(self.max_tx_depth, node.depth)
        self.emit(t, "request_sent", node.path_str)
        at_b = t + sc.latency_ns
        start = max(self.link_free, at_b)
        self.emit(at_b, "reply_enqueued", node.path_str)
        self.link_free = start + sc.serialization_ns
        arrive = self.link_free + sc.latency_ns
        self.emit(arrive, "reply_delivered", node.path_str)
        self.schedule(arrive, on_reply, node)

    def run_cpu_job(self, t: int, path_str: str, on_done, arg) -> None:
        """Recovery job on the first free core, FIFO by creation order."""
        sc = self.sc
        self.recoveries += 1
        start = max(t, heapq.heappop(self.cores))
        finish = start + sc.recovery_ns
        heapq.heappush(self.cores, finish)
        self.emit(start, "recovery_started", path_str)
        self.emit(finish, "recovery_finished", path_str)
        self.finished_at = max(self.finished_at, finish)
        self.schedule(finish, on_done, arg)

    def loop(self) -> None:
        while self.events:
            t, _, fn, arg = heapq.heappop(self.events)
            fn(t, arg)


class _SimNode:
    __slots__ = ("node", "path", "depth", "parent", "next_child", "removed")

    def __init__(self, node: PlacementNode, path: tuple[int, ...],
                 parent: "_SimNode | None" = None):
        self.node = node
        self.path = path
        self.depth = len(path)
        self.parent = parent
        self.next_child = 0  # EPSR: next child index to request
        self.removed = 0  # EPSR: differences subtracted out of the residual

    @property
    def path_str(self) -> str:
        return ".".join(str(j) for j in self.path) if self.path else "-"

    def child(self, j: int) -> "_SimNode":
        return _SimNode(self.node.children[j], self.path + (j,), parent=self)


def run_trial(protocol: str, tree: PlacementNode, scenario: ScenarioConfig,
              collect_log: bool = False) -> TrialResult:
    """Simulate one full reconciliation; returns the completion time of the
    last recovery along with the communication counters."""
    if protocol not in ("psr", "epsr"):
        raise ValueError("protocol must be 'psr' or 'epsr'")
    sim = _Sim(scenario, collect_log)
    mbar = scenario.mbar
    c = scenario.schedule.c

    if protocol == "psr":

        def on_reply(t, sn: _SimNode):
            sim.run_cpu_job(t, sn.path_str, on_recovered, sn)

        def on_recovered(t, sn: _SimNode):
            if sn.node.count > mbar:
                for j in range(c):
                    sim.send_request(t, sn.child(j), on_reply)

        sim.send_request(0, _SimNode(tree, ()), on_reply)
    else:

        def start_split(t, sn: _SimNode):
            sim.send_request(t, sn.child(sn.next_child), on_child_reply)

        def on_child_reply(t, child: _SimNode):
            parent = child.parent
            # The child recovery is enqueued before the residual recovery
            # created by the same reply (fixed, documented tie-break).
            sim.run_cpu_job(t, child.path_str, on_child_recovered, child)
            parent.removed += child.node.count
            sim.run_cpu_job(t, parent.path_str, on_residual_recovered, parent)

        def on_child_recovered(t, child: _SimNode):
            if child.node.count > mbar:
                start_split(t, child)

        def on_residual_recovered(t, parent: _SimNode):
            if parent.node.count - parent.removed <= mbar:
                return  # residual success resolves all remaining children
            parent.next_child += 1
            if parent.next_child < c - 1:
                start_split(t, parent)
            else:
                # The last child reuses the residual: no transmission and
                # no extra recovery call, since its failure is the residual
                # failure just observed.  It always holds > mbar here.
                last = parent.child(c - 1)
                assert last.node.count > mbar
                start_split(t, last)

        def on_root_reply(t, sn: _SimNode):
            sim.run_cpu_job(t, sn.path_str, on_root_recovered, sn)

        def on_root_recovered(t, sn: _SimNode):
            if sn.node.count > mbar:
                start_split(t, sn)

        sim.send_request(0, _SimNode(tree, ()), on_root_reply)

    sim.loop()
    log = sim.log
    if log is not None:
        log = sorted(enumerate(log), key=lambda kv: (kv[1][0], kv[0]))
        log = [record for _, record in log]
    bits = sim.tx * scenario.sketch_bits
    return TrialResult(
        total_ms=sim.finished_at / _NS_PER_MS,
        sketches_transmitted=sim.tx,
        recovery_calls=sim.recoveries,
        bits_b_to_a=bits,
        rounds=sim.max_tx_depth + 1,
        log=log,
    )


def run_scenario(protocol: str, delta: int, scenario: ScenarioConfig,
                 seed: int) -> float:
    """Mean total reconciliation time (ms) over scenario.samples sampled
    placement trees; deterministic given the seed."""
    return sweep([delta], scenario, [scenario.n_cores], (protocol,), seed)[0][3]


def sweep(deltas, scenario: ScenarioConfig, cores_list, protocols, seed: int):
    """Rows (delta, protocol, cores, mean_ms, stderr_ms); trees are shared
    across protocols and core counts for paired comparisons."""
    rows = []
    for delta in deltas:
        rng = np.random.default_rng(seed)
        trees = [
            sample_placement_tree(delta, scenario.mbar, scenario.schedule, rng)
            for _ in range(scenario.samples)
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
