"""Acceptance checks: one callable per release criterion.

Each criterion returns a CriterionResult with a pass flag and a detail
string; `run_criteria` executes a selection and reports one line per
criterion.  The thresholds here are release gates, pinned once and not
meant to be tuned.  Everything is deterministic: random draws use the
frozen seeds below.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import netsim
from .analysis import (
    enumerate_tree_expectations,
    exact_expectation_tables,
    expectation_tables,
    mc_sample_batch,
    psr_recovery_bound,
)
from .partition import PartitionSchedule, fair_probs, round_optimal_probs
from .protocol import (
    ProtocolConfig,
    epsr_reconcile,
    load_fixture,
    make_loopback,
    psr_reconcile,
    reconcile,
)
from .sketch import wire_cost

_MC_SEED = 20250801
_E2E_SEED = 20240811
_NETSIM_SEED = 424242


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


class _Check:
    """Collects sub-assertions so a criterion reports every miss at once."""

    def __init__(self):
        self.failures: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def result(self) -> tuple[bool, str]:
        if self.failures:
            return False, "; ".join(self.failures)
        return True, "; ".join(self.notes) if self.notes else "ok"


def criterion_1_worked_examples() -> tuple[bool, str]:
    """Reference tree: PSR 11/11/4, EPSR 6/11/4, both exact."""
    chk = _Check()
    expected = {"fig2": (11, 11, 4), "fig3": (6, 11, 4)}
    for name, (tx, rec, rounds) in expected.items():
        fx = load_fixture(name)
        res, m = reconcile(fx.set_a, make_loopback(fx.set_b, fx.config), fx.config)
        got = (m.sketches_transmitted, m.recovery_calls, m.rounds)
        chk.expect(got == (tx, rec, rounds), f"{name}: metrics {got} != {(tx, rec, rounds)}")
        chk.expect(
            res.a_only == fx.set_a and res.b_only == fx.set_b,
            f"{name}: wrong recovered difference",
        )
        chk.note(f"{name}={got}")
    return chk.result()


def criterion_2_recursion_oracle() -> tuple[bool, str]:
    """Placement-tree enumeration reproduces all three recursions exactly."""
    chk = _Check()
    schedules = {
        2: [fair_probs(2), PartitionSchedule((Fraction(2, 3), Fraction(1, 3)))],
        3: [fair_probs(3), round_optimal_probs(3)],
    }
    delta_max = 8
    for c, scheds in schedules.items():
        for sched in scheds:
            for mbar in (1, 2, 3):
                enum = enumerate_tree_expectations(delta_max, mbar, sched)
                exact = exact_expectation_tables(delta_max, mbar, sched)
                tables = expectation_tables(delta_max, mbar, sched)
                floats = (tables.n_bar, tables.t_bar, tables.u_bar)
                for which, e_arr, x_arr, f_arr in zip("NTU", enum, exact, floats):
                    for d in range(delta_max + 1):
                        chk.expect(
                            e_arr[d] == x_arr[d],
                            f"{which}_{d} enum {e_arr[d]} != exact {x_arr[d]} "
                            f"(c={c}, mbar={mbar}, probs={sched.probs})",
                        )
                        rel = abs(f_arr[d] - float(e_arr[d])) / float(e_arr[d])
                        chk.expect(
                            rel <= 1e-12,
                            f"{which}_{d} float off by {rel:.2e} (c={c}, mbar={mbar})",
                        )
    enum = enumerate_tree_expectations(3, 2, fair_probs(2))
    spot = (enum[0][3], enum[1][3], enum[2][3])
    chk.expect(
        spot == (Fraction(11, 3), Fraction(7, 3), Fraction(11, 3)),
        f"spot values {spot} != (11/3, 7/3, 11/3)",
    )
    chk.note("N_3=11/3 T_3=7/3 U_3=11/3 at (mbar=2, c=2 fair)")
    return chk.result()


def _verification_schedule() -> PartitionSchedule:
    return PartitionSchedule(
        tuple(Fraction(s) for s in ("0.15", "0.1", "0.25", "0.2", "0.3"))
    )


def criterion_3_mc_verification() -> tuple[bool, str]:
    """Monte Carlo means match the recursions within 3 standard errors."""
    chk = _Check()
    sched = _verification_schedule()
    mbar = 33
    grid = list(range(200, 2001, 200))
    tables = expectation_tables(max(grid), mbar, sched)
    rng = np.random.default_rng(_MC_SEED)
    worst = 0.0
    for delta in grid:
        draws = mc_sample_batch(delta, mbar, sched, 10_000, rng)
        for key, table in (("n", tables.n_bar), ("t", tables.t_bar), ("u", tables.u_bar)):
            arr = draws[key]
            stderr = arr.std(ddof=1) / math.sqrt(arr.size)
            z = abs(arr.mean() - table[delta]) / stderr
            worst = max(worst, z)
            chk.expect(z <= 3.0, f"{key.upper()} at delta={delta}: z={z:.2f} > 3")
    chk.note(f"worst |z| = {worst:.2f} over {3 * len(grid)} checks")
    return chk.result()


def criterion_4_redundancy_levels() -> tuple[bool, str]:
    """Mean redundancy over delta in [1e3, 1e4] near 3 (PSR) and 1.5 (EPSR)."""
    chk = _Check()
    mbar, gamma, bits = 25, 1, 64
    tables = expectation_tables(10_000, mbar, fair_probs(2))
    cost = wire_cost(mbar, gamma, bits)
    d = np.arange(1000, 10_001)
    red_psr = float((tables.n_bar[1000:] * cost / (d * bits)).mean())
    red_epsr = float((tables.t_bar[1000:] * cost / (d * bits)).mean())
    chk.expect(2.6 <= red_psr <= 3.4, f"PSR mean redundancy {red_psr:.3f} outside [2.6, 3.4]")
    chk.expect(1.3 <= red_epsr <= 1.7, f"EPSR mean redundancy {red_epsr:.3f} outside [1.3, 1.7]")
    chk.note(f"PSR={red_psr:.3f} EPSR={red_epsr:.3f}")
    return chk.result()


def criterion_5_identities_and_bound() -> tuple[bool, str]:
    """U=N at c=2; the 8e(c+1)d/(mbar+1) bound; T <= U everywhere."""
    chk = _Check()
    delta_max = 2000
    c2_schedules = [
        fair_probs(2),
        PartitionSchedule((Fraction(3, 10), Fraction(7, 10))),
        PartitionSchedule((Fraction(15, 100), Fraction(85, 100))),
    ]
    for sched in c2_schedules:
        t = expectation_tables(delta_max, 10, sched)
        rel = np.max(np.abs(t.u_bar - t.n_bar) / t.n_bar)
        chk.expect(rel <= 1e-9, f"U!=N at c=2 (probs={sched.probs}): rel {rel:.2e}")
        chk.expect(bool(np.all(t.t_bar <= t.u_bar * (1 + 1e-12))), "T > U at c=2")
    for c in (2, 3, 4):
        for mbar in (10, 25):
            t = expectation_tables(delta_max, mbar, fair_probs(c))
            d = np.arange(mbar + 1, delta_max + 1)
            bound = psr_recovery_bound(d, mbar, c)
            chk.expect(
                bool(np.all(t.n_bar[mbar + 1:] <= bound)),
                f"bound violated at c={c}, mbar={mbar}",
            )
            chk.expect(
                bool(np.all(t.t_bar <= t.u_bar * (1 + 1e-12))),
                f"T > U at c={c}, mbar={mbar}",
            )
    chk.note("U=N (3 schedules), bound (6 fair tables), T<=U")
    return chk.result()


def criterion_6_c_independence() -> tuple[bool, str]:
    """Round-optimal schedules: EPSR curves agree across c within 2%."""
    chk = _Check()
    mbar, gamma, bits = 25, 1, 64
    delta_max = 10_000
    lo = 100
    cost = wire_cost(mbar, gamma, bits)
    d = np.arange(lo, delta_max + 1)
    curves = {}
    for c in (2, 4, 8):
        t = expectation_tables(delta_max, mbar, round_optimal_probs(c))
        curves[c] = (
            t.t_bar[lo:] * cost / (d * bits),
            t.u_bar[lo:] * mbar / d,
        )
    for c in (4, 8):
        for name, idx in (("redundancy", 0), ("norm_complexity", 1)):
            rel = float(np.max(np.abs(curves[c][idx] - curves[2][idx]) / curves[2][idx]))
            chk.expect(rel <= 0.02, f"{name} c={c} vs c=2: max rel dev {rel:.4f} > 2%")
            chk.note(f"{name} c={c}: {rel * 100:.2f}%")
    return chk.result()


def random_instance(rng: random.Random, delta: int, shared: int, bits: int):
    """Random set pair of distinct `bits`-bit elements: `delta` differing
    ones, split at random between A-only and B-only, and `shared` common
    ones.  Returns (a_only, b_only, shared) as frozensets."""
    pool: set[int] = set()
    while len(pool) < delta + shared:
        pool.add(rng.getrandbits(bits))
    pool = sorted(pool)
    rng.shuffle(pool)
    a_count = rng.randint(0, delta)
    return frozenset(pool[:a_count]), frozenset(pool[a_count:delta]), frozenset(pool[delta:])


def criterion_7_end_to_end() -> tuple[bool, str]:
    """1000 reconciliations recover exactly the brute-force difference."""
    chk = _Check()
    rng = random.Random(_E2E_SEED)
    mbars = (3, 5, 9)
    failures = 0
    runs = 0
    for i in range(500):
        delta = rng.randint(0, 500)
        shared_count = rng.randint(0, 150)
        a_only, b_only, shared = random_instance(rng, delta, shared_count, 64)
        set_a = set(a_only) | shared
        set_b = set(b_only) | shared
        config = ProtocolConfig(
            mbar=mbars[i % len(mbars)],
            gamma=2,
            element_bits=64,
            schedule=fair_probs(2),
            hash_seed=i,
        )
        for engine in (psr_reconcile, epsr_reconcile):
            res, _ = engine(set_a, make_loopback(set_b, config), config)
            runs += 1
            if res.a_only != a_only or res.b_only != b_only:
                failures += 1
    chk.expect(runs == 1000, f"expected 1000 runs, got {runs}")
    chk.expect(failures == 0, f"{failures} incorrect reconciliations")
    chk.note("1000 runs, 0 failures")
    return chk.result()


def criterion_8_netsim_scenarios() -> tuple[bool, str]:
    """Scenario-level time ratios at delta=1000, 100 samples.

    Scenario I's 2->4 core-doubling ratio misses its [1.7, 2.1] bound at
    1.527, because of a latency floor: each of the trees' ~6 levels waits
    two one-way latencies (20 ms) that no core count shortens, over a
    third of the time at 4 cores.  The per-level wave model, the sum over
    levels of 2 latency + serialization + ceil(nodes/cores) recovery,
    predicts 1.536; tests/test_acceptance.py pins it against the simulator.
    The bound is kept as specified."""
    chk = _Check()
    delta = 1000
    presets = netsim.SCENARIO_PRESETS

    def mean_time(name: str, protocol: str, cores: int) -> float:
        rows = netsim.sweep([delta], presets[name], [cores], (protocol,), _NETSIM_SEED, 100)
        return rows[0][3]

    for name, lo, hi in (("I", 0.95, 1.05), ("II", 0.95, 1.05), ("III", 1.7, 2.1)):
        ratio = mean_time(name, "psr", 1) / mean_time(name, "epsr", 1)
        chk.expect(lo <= ratio <= hi, f"scenario {name} psr/epsr {ratio:.3f} outside [{lo}, {hi}]")
        chk.note(f"{name}: psr/epsr={ratio:.3f}")
    t1, t2, t4 = (mean_time("I", "psr", c) for c in (1, 2, 4))
    for label, ratio in (("1->2", t1 / t2), ("2->4", t2 / t4)):
        chk.expect(
            1.7 <= ratio <= 2.1,
            f"scenario I core doubling {label}: {ratio:.3f} outside [1.7, 2.1]",
        )
        chk.note(f"I {label}: {ratio:.3f}")
    for protocol in ("psr", "epsr"):
        times3 = [mean_time("III", protocol, c) for c in (1, 2, 4)]
        spread = (max(times3) - min(times3)) / min(times3)
        chk.expect(spread < 0.05, f"scenario III {protocol} core spread {spread:.4f} >= 5%")
        chk.note(f"III {protocol} core spread: {spread * 100:.2f}%")
    return chk.result()


def criterion_9_single_round_times() -> tuple[bool, str]:
    """Closed-form single-exchange trial times for scenarios I and III."""
    chk = _Check()
    leaf = netsim.PlacementNode(10)
    t_i = netsim.run_trial("psr", leaf, netsim.SCENARIO_PRESETS["I"]).total_ms
    t_iii = netsim.run_trial("epsr", leaf, netsim.SCENARIO_PRESETS["III"]).total_ms
    chk.expect(abs(t_i - 32.434) <= 0.001, f"scenario I single round {t_i:.5f} != 32.434 +- 0.001")
    chk.expect(abs(t_iii - 1368.6) <= 0.1, f"scenario III single round {t_iii:.3f} != 1368.6 +- 0.1")
    chk.note(f"I={t_i:.5f}ms III={t_iii:.2f}ms")
    return chk.result()


CRITERIA = (
    (1, "worked-example goldens", criterion_1_worked_examples),
    (2, "recursion vs enumeration oracle", criterion_2_recursion_oracle),
    (3, "Monte Carlo verification replica", criterion_3_mc_verification),
    (4, "redundancy levels", criterion_4_redundancy_levels),
    (5, "identity and bound properties", criterion_5_identities_and_bound),
    (6, "c-independence under round-optimal schedule", criterion_6_c_independence),
    (7, "end-to-end correctness", criterion_7_end_to_end),
    (8, "netsim scenario replication", criterion_8_netsim_scenarios),
    (9, "single-round closed forms", criterion_9_single_round_times),
)


def run_criteria(numbers=None) -> list[CriterionResult]:
    """Run the selected criteria (all by default), printing one line each.
    A number with no criterion raises `ValueError` before any runs."""
    known = {n for n, _, _ in CRITERIA}
    selected = set(numbers) if numbers else known
    if selected - known:
        raise ValueError(f"no criterion {sorted(selected - known)}; they are 1-{len(CRITERIA)}")
    results = []
    for number, name, fn in CRITERIA:
        if number not in selected:
            continue
        start = time.perf_counter()
        passed, detail = fn()
        results.append(
            CriterionResult(number, name, passed, detail, time.perf_counter() - start)
        )
        print(results[-1].line())
    return results
