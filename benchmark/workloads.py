"""The benchmark's workloads: inputs made from a seed, timed jobs, checks.

Every workload runs the same three kinds of job, block after block:

* reconciliations, PSR and EPSR on the same input: real ones over the
  loopback transport (bulk-sync, wide-field), or simulated ones, netsim
  trials over sampled placement trees, timed in sweep points (model-sweep);
* the expectation tables of the workload's cost model (`analysis`);
* a Monte Carlo batch of placement trees for the same model (`analysis`).

The model jobs of the reconciliation workloads are small.  They feed the
check that the reconciliations' sketch and recovery counts agree with the
paper's recursions.  Model-sweep carries the large ones.

The difference sizes of successive clients follow a van der Corput
sequence, shifted by a random offset and wrapped into the size range.  Any
run of consecutive clients then covers the range evenly whatever the seed,
so medians and tails do not hinge on how many large differences a seed
happened to draw.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace

import numpy as np

import speed
from setrecon import analysis, netsim, protocol, sketch
from setrecon.partition import fair_probs, round_optimal_probs, schedule_from_strings

CLIENTS_PER_BLOCK = 2
SWEEP_POINT_TREES = 10
MC_Z_LIMIT = 4.0
EXACT_ROWS = 40


@dataclass
class Job:
    """One timed job: `run()` is timed; `check(result)` runs untimed and
    returns the number of failed items out of `weight`."""

    kind: str  # "recon" | "tables" | "mc"
    block: int
    weight: int
    run: object
    check: object
    trees: int = 0  # Monte Carlo trees sampled ("mc" jobs)
    samples: object = None  # result -> list[Sample] ("recon" jobs)


@dataclass
class Sample:
    """One timed reconciliation, real or simulated."""

    protocol: str
    seconds: float
    delta: int
    bits: int
    sketches: int
    recoveries: int
    rounds: int
    scale: float | None = None  # machine-speed scale; None: the job's own
    count: int = 1  # reconciliations averaged into `seconds`, summed into the rest


@dataclass
class Client:
    set_a: frozenset
    set_b: frozenset
    a_only: frozenset
    b_only: frozenset
    config: protocol.ProtocolConfig


def _van_der_corput(k: int) -> float:
    out, scale = 0.0, 0.5
    while k:
        if k & 1:
            out += scale
        k >>= 1
        scale /= 2
    return out


def _spread_deltas(rng: random.Random, lo: int, hi: int):
    """Endless difference sizes in [lo, hi] that fill the range evenly."""
    shift = rng.random()
    k = 0
    while True:
        yield lo + int(((_van_der_corput(k) + shift) % 1.0) * (hi - lo + 1))
        k += 1


def _distinct(rng: random.Random, count: int, bits: int, avoid=frozenset()) -> set[int]:
    out: set[int] = set()
    while len(out) < count:
        x = rng.getrandbits(bits)
        if x not in avoid:
            out.add(x)
    return out


def _limit(var: float, n: int, c: int) -> float:
    """Allowed deviation of a sum of n counts with total variance n*var from
    its expectation: MC_Z_LIMIT standard deviations, plus MC_Z_LIMIT jumps of
    one split (c + 1 counts) for rare splits, which a sample variance
    misjudges when few or none of the samples show them."""
    return MC_Z_LIMIT * (math.sqrt(var * n) + c + 1)


def _clear_cache(fn) -> None:
    """Clear the lru cache behind `fn`, looking through tracer wrappers."""
    while fn is not None:
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
            return
        fn = getattr(fn, "__wrapped__", None)


class Workload:
    """The job kinds shared by all workloads; subclasses make the inputs."""

    name = ""
    why = ""
    simulated = False  # reconciliations are netsim trials, not engine runs
    # Leading blocks that a timed run always completes, whatever --seconds
    # says; bits per difference are taken over them, so they repeat exactly
    # for a given seed.  The traced run covers the first `trace_blocks`.
    min_blocks = 16
    trace_blocks = 6

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.full = size == "full"
        self.errors: list[str] = []

    def setup(self) -> None:
        """Build everything the timed jobs need.  Subclasses extend it."""
        self.errors = []
        self.exact: dict = {}
        self.reference: dict = {}
        self.mc_moments: dict = {}

    def _prepare_exact(self, mbar: int, schedule) -> None:
        """Oracle of the tables job: exact rational rows d <= EXACT_ROWS."""
        self.exact[(mbar, schedule)] = analysis.exact_expectation_tables(
            EXACT_ROWS, mbar, schedule)

    def _prepare_reference(self, mbar: int, schedule, delta_max: int) -> None:
        """Float tables that the Monte Carlo and model checks compare with,
        held here because the timed tables jobs clear the library's cache."""
        _clear_cache(analysis.expectation_tables)
        self.reference[(mbar, schedule)] = analysis.expectation_tables(
            delta_max, mbar, schedule)

    def _fail(self, message: str) -> int:
        self.errors.append(message)
        return 1

    def tables_job(self, block: int, delta_max: int, models) -> Job:
        def run():
            out = []
            for mbar, schedule in models:
                _clear_cache(analysis.expectation_tables)
                out.append(analysis.expectation_tables(delta_max, mbar, schedule))
            return out

        def check(tables) -> int:
            for tab, key in zip(tables, models):
                for name, got, want in zip("ntu", (tab.n_bar, tab.t_bar, tab.u_bar),
                                           self.exact[key]):
                    for d in range(min(EXACT_ROWS, delta_max) + 1):
                        if not math.isclose(float(got[d]), float(want[d]), rel_tol=1e-9):
                            return self._fail(f"tables mbar={key[0]} {name}[{d}]: "
                                              f"{got[d]} != {float(want[d])}")
            return 0

        return Job("tables", block, 1, run, check)

    def mc_job(self, block: int, deltas, mbar: int, schedule, trees: int) -> Job:
        rng_seed = [self.seed, block]

        def run():
            rng = np.random.default_rng(rng_seed)
            return [analysis.mc_sample_batch(d, mbar, schedule, trees, rng) for d in deltas]

        def check(batches) -> int:
            ref = self.reference[(mbar, schedule)]
            for d, batch in zip(deltas, batches):
                moments = {}
                for key in "ntu":
                    vals = batch[key]
                    mean, var = float(vals.mean()), float(vals.var(ddof=1))
                    err = abs(mean - float(getattr(ref, f"{key}_bar")[d]))
                    limit = _limit(var, len(vals), schedule.c) / len(vals)
                    if err > limit + 1e-9:
                        return self._fail(f"mc d={d} {key}: mean off by {err:.4g} > {limit:.4g}")
                    moments[key] = (mean, var)
                self.mc_moments[(mbar, schedule, d)] = moments
            return 0

        return Job("mc", block, 1, run, check, trees=trees * len(deltas))

    def final_check(self, samples: list[Sample]) -> tuple[int, int]:
        """Checks over the whole run: (items checked, items failed)."""
        return 0, 0


class _LoopbackWorkload(Workload):
    """Real reconciliations: each client runs PSR, then EPSR."""

    mbar = gamma = bits = 0
    schedule = None
    delta_lo = delta_hi = 0
    mc_trees = 0
    # The model tables reach past the largest difference (the checks use
    # rows up to it only) so that the job is long enough to time, yet stays
    # a few percent of the workload's time.
    table_delta = 0

    def setup(self) -> None:
        super().setup()
        sketch.field_setup(self.bits, self.mbar, self.gamma)
        self._prepare_exact(self.mbar, self.schedule)
        self._prepare_reference(self.mbar, self.schedule, self.delta_hi)
        self.cost = sketch.wire_cost(self.mbar, self.gamma, self.bits)

    def _warm_up(self, rng: random.Random, delta: int) -> None:
        client = self.make_client(rng, delta)
        result, _ = protocol.psr_reconcile(client.set_a, self.transport(client), client.config)
        if (result.a_only, result.b_only) != (client.a_only, client.b_only):
            raise RuntimeError("warm-up reconciliation returned a wrong difference")

    def jobs(self):
        rng = random.Random(f"{self.seed}:{self.name}:clients")
        sizes = _spread_deltas(rng, self.delta_lo, self.delta_hi)
        block = 0
        while True:
            deltas = [next(sizes) for _ in range(CLIENTS_PER_BLOCK)]
            yield self.tables_job(block, self.table_delta, [(self.mbar, self.schedule)])
            yield self.mc_job(block, sorted(set(deltas)), self.mbar, self.schedule,
                              self.mc_trees)
            for delta in deltas:
                client = self.make_client(rng, delta)
                yield self.recon_job(block, client, "psr")
                yield self.recon_job(block, client, "epsr")
            block += 1

    def recon_job(self, block: int, client: Client, proto: str) -> Job:
        config = replace(client.config, protocol=proto)
        delta = len(client.a_only) + len(client.b_only)

        def run():
            engine = protocol.psr_reconcile if proto == "psr" else protocol.epsr_reconcile
            t0 = time.perf_counter()
            result, m = engine(client.set_a, self.transport(client), config)
            dt = time.perf_counter() - t0
            return result, m, [Sample(proto, dt, delta, m.bits_b_to_a,
                                      m.sketches_transmitted, m.recovery_calls, m.rounds)]

        def check(out) -> int:
            result, m, _ = out
            if (result.a_only, result.b_only) != (client.a_only, client.b_only):
                return self._fail(f"{proto} delta={delta}: wrong difference")
            if m.bits_b_to_a != m.sketches_transmitted * self.cost:
                return self._fail(f"{proto}: bits_b_to_a != sketches x wire_cost")
            if proto == "psr" and m.sketches_transmitted != m.recovery_calls:
                return self._fail("psr: sketches transmitted != recovery calls")
            return 0

        return Job("recon", block, 1, run, check, samples=lambda out: out[2])

    def final_check(self, samples: list[Sample]) -> tuple[int, int]:
        """Total sketches and recoveries against the cost model: the tables
        give each client's expectation and the Monte Carlo batches its
        variance."""
        ref = self.reference[(self.mbar, self.schedule)]
        totals = {key: [0.0, 0.0, 0.0] for key in "ntu"}  # observed, expected, var
        for s in samples:
            moments = self.mc_moments.get((self.mbar, self.schedule, s.delta))
            if moments is None:
                continue
            observed = {"n": s.sketches} if s.protocol == "psr" else {
                "t": s.sketches, "u": s.recoveries}
            for key, value in observed.items():
                acc = totals[key]
                acc[0] += value
                acc[1] += float(getattr(ref, f"{key}_bar")[s.delta])
                acc[2] += moments[key][1]
        bad = 0
        for key, (got, want, var) in totals.items():
            limit = _limit(var, 1, self.schedule.c)
            if abs(got - want) > limit:
                bad += self._fail(f"model check {key}: observed {got:.0f}, "
                                  f"expected {want:.1f}, allowed +-{limit:.1f}")
        return len(totals), bad


class BulkSync(_LoopbackWorkload):
    name = "bulk-sync"
    why = ("one long-lived B with a large set serves many clients that differ a "
           "little: sketch build and placement dominate, B-side work could be reused")
    mbar, gamma, bits = 25, 1, 64
    schedule = fair_probs(2)
    hash_seed = 1

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.n_b = 6000 if self.full else 300
        self.delta_lo, self.delta_hi = (0, 80) if self.full else (0, 40)
        self.table_delta = 1000 if self.full else 40
        self.mc_trees = 10000 if self.full else 200

    def setup(self) -> None:
        super().setup()
        rng = random.Random(f"{self.seed}:{self.name}:b")
        self.set_b = frozenset(_distinct(rng, self.n_b, self.bits))
        self.list_b = sorted(self.set_b)
        self.config = protocol.ProtocolConfig(self.mbar, self.gamma, self.bits,
                                              self.schedule, hash_seed=self.hash_seed)
        self.responder = protocol.Responder(self.set_b, self.config)
        # One client at the largest difference warms B's long-lived state,
        # so the timed clients meet a server in steady state.
        self._warm_up(rng, self.delta_hi)

    def make_client(self, rng: random.Random, delta: int) -> Client:
        n_a = rng.randint(0, delta)
        b_only = frozenset(rng.sample(self.list_b, delta - n_a))
        a_only = frozenset(_distinct(rng, n_a, self.bits, self.set_b))
        return Client((self.set_b - b_only) | a_only, self.set_b, a_only, b_only,
                      self.config)

    def transport(self, client: Client):
        return protocol.LoopbackTransport(self.responder)


class WideField(_LoopbackWorkload):
    name = "wide-field"
    why = ("fresh 256-bit set pairs per session, nothing reused: recovery and root "
           "finding dominate; exercises EPSR's c>2 sequential children")
    gamma, bits = 1, 256
    schedule = round_optimal_probs(4)

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.n_shared = 300 if self.full else 100
        self.mbar = 16 if self.full else 8
        self.delta_lo, self.delta_hi = (6, 48) if self.full else (4, 24)
        self.table_delta = 400 if self.full else 24
        self.mc_trees = 10000 if self.full else 200

    def setup(self) -> None:
        super().setup()
        self._warm_up(random.Random(f"{self.seed}:{self.name}:warm"), self.delta_lo)

    def make_client(self, rng: random.Random, delta: int) -> Client:
        pool = sorted(_distinct(rng, self.n_shared + delta, self.bits))
        rng.shuffle(pool)
        n_a = rng.randint(0, delta)
        a_only, b_only = frozenset(pool[:n_a]), frozenset(pool[n_a:delta])
        shared = frozenset(pool[delta:])
        config = protocol.ProtocolConfig(self.mbar, self.gamma, self.bits, self.schedule,
                                         hash_seed=rng.getrandbits(32))
        return Client(shared | a_only, shared | b_only, a_only, b_only, config)

    def transport(self, client: Client):
        # A fresh responder per reconciliation, inside the timed region.
        return protocol.LoopbackTransport(protocol.Responder(client.set_b, client.config))


class ModelSweep(Workload):
    name = "model-sweep"
    why = ("the paper's evaluators only: netsim trials, expectation tables and "
           "Monte Carlo trees; no sketch or field arithmetic")
    scenarios = ("I", "III")
    cores = (1, 2, 4)
    table_models = ((25, fair_probs(2)), (25, round_optimal_probs(4)))
    mc_mbar = 33
    mc_schedule = schedule_from_strings(["0.15", "0.1", "0.25", "0.2", "0.3"])
    simulated = True
    min_blocks = 2
    trace_blocks = 2

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        # Three times more trees, so three times more sweep points, at the
        # large difference than at the small one, so that the median lies
        # inside the mode of the slow trials; the sub-millisecond trials time
        # too unsteadily on a shared machine to carry it.
        self.trees = {1000: 10, 10000: 30} if self.full else {100: 2, 400: 6}
        self.table_delta = 10000 if self.full else 300
        self.mc_deltas = (400, 1600) if self.full else (100, 200)
        self.mc_trees = 10000 if self.full else 500

    def setup(self) -> None:
        super().setup()
        for mbar, schedule in self.table_models:
            self._prepare_exact(mbar, schedule)
        self._prepare_reference(self.mc_mbar, self.mc_schedule, max(self.mc_deltas))
        base = {name: netsim.SCENARIO_PRESETS[name] for name in self.scenarios}
        self.scenario_of = {(name, cores): replace(sc, n_cores=cores)
                            for name, sc in base.items() for cores in self.cores}
        warm = netsim.sample_placement_tree(200, 50, fair_probs(2), np.random.default_rng(0))
        for sc in base.values():
            for proto in ("psr", "epsr"):
                netsim.run_trial(proto, warm, sc)

    def jobs(self):
        block = 0
        while True:
            for name in self.scenarios:
                for delta, count in self.trees.items():
                    yield from self.sweep_jobs(block, name, delta, count)
            yield self.tables_job(block, self.table_delta, self.table_models)
            yield self.mc_job(block, self.mc_deltas, self.mc_mbar, self.mc_schedule,
                              self.mc_trees)
            block += 1

    def sweep_jobs(self, block: int, name: str, delta: int, count: int):
        """One cell of the netsim sweep: a job that samples the trees, then
        one that runs every protocol and core count on each tree (shared
        trees, as `sweep` does)."""
        base = self.scenario_of[(name, 1)]
        rng_seed = [self.seed, block, delta, self.scenarios.index(name)]
        trees: list = []

        def sample():
            rng = np.random.default_rng(rng_seed)
            trees[:] = [netsim.sample_placement_tree(delta, base.mbar, base.schedule, rng)
                        for _ in range(count)]
            return trees

        yield Job("recon", block, 1, sample, check=lambda _: 0, samples=lambda _: [])
        yield self.trials_job(block, name, delta, trees, count)

    def trials_job(self, block: int, name: str, delta: int, trees: list, count: int) -> Job:
        """Each tree's trials are timed between two runs of the speed kernel,
        so that a change of machine speed during the cell is charged to the
        trials it slowed."""
        runs = [(proto, cores, self.scenario_of[(name, cores)])
                for proto in ("psr", "epsr") for cores in self.cores]
        sketch_bits = self.scenario_of[(name, 1)].sketch_bits

        def run():
            if len(trees) != count:
                raise RuntimeError(f"{count} trees expected, {len(trees)} sampled")
            out = []
            kernel = speed.kernel_s()
            for i, tree in enumerate(trees):
                timed = []
                for proto, cores, sc in runs:
                    t0 = time.perf_counter()
                    res = netsim.run_trial(proto, tree, sc)
                    timed.append((proto, cores, time.perf_counter() - t0, res))
                after = speed.kernel_s()
                scale = speed.scale(kernel, after)
                kernel = after
                out.extend((i, proto, cores, seconds, scale, res)
                           for proto, cores, seconds, res in timed)
            return out

        def check(out) -> int:
            nodes = [_node_count(t) for t in trees]
            bad = 0
            for i, proto, cores, _, _, res in out:
                if res.bits_b_to_a != res.sketches_transmitted * sketch_bits:
                    bad += self._fail(f"netsim {proto}: bits != sketches x sketch_bits")
                elif proto == "psr" and not (
                        res.sketches_transmitted == res.recovery_calls == nodes[i]):
                    bad += self._fail(f"netsim psr {name} delta={delta} cores={cores}: "
                                      f"counters {res.sketches_transmitted}/"
                                      f"{res.recovery_calls} != {nodes[i]} tree nodes")
                elif not res.total_ms > 0:
                    bad += self._fail(f"netsim {proto}: non-positive time")
            return bad

        def samples(out) -> list[Sample]:
            """One sample per protocol, core count and batch of
            SWEEP_POINT_TREES trees, its mean trial time, as a row of
            `netsim.sweep` reports it.  Single trials last a millisecond or
            so, and the tail of a thousand of them is a burst of load on the
            machine, not the program."""
            points: dict[tuple, list] = {}
            for i, proto, cores, seconds, scale, res in out:
                points.setdefault((i // SWEEP_POINT_TREES, proto, cores), []).append(
                    (seconds, scale, res))
            samples = []
            for (_, proto, _), trials in points.items():
                raw = sum(seconds for seconds, _, _ in trials)
                scaled = sum(seconds * scale for seconds, scale, _ in trials)
                samples.append(Sample(
                    proto, raw / len(trials), delta * len(trials),
                    sum(res.bits_b_to_a for _, _, res in trials),
                    sum(res.sketches_transmitted for _, _, res in trials),
                    sum(res.recovery_calls for _, _, res in trials),
                    sum(res.rounds for _, _, res in trials),
                    scaled / raw, len(trials)))
            return samples

        return Job("recon", block, count * len(runs), run, check, samples=samples)


def _node_count(tree) -> int:
    stack, count = [tree], 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


WORKLOADS = {w.name: w for w in (BulkSync, WideField, ModelSweep)}
