"""Release acceptance gate: every criterion at its pinned tolerance.

One test per criterion; each prints its pass/fail line.  Criterion 8 is
expected to fail on one sub-clause (the scenario-I 2->4 core-doubling
ratio at delta=1000); the latency floor of the simulated system caps the
second doubling at ~1.53, below the required [1.7, 2.1].  See the
criterion's detail output: every other sub-clause passes.  The check is
implemented exactly as specified and deliberately not relaxed.
"""

import math
import time

import numpy as np
import pytest

from setrecon import netsim
from setrecon.acceptance import CRITERIA

_BUDGET_SECONDS = {1: 1, 2: 10, 3: 120, 4: 60, 5: 60, 6: 120, 7: 300, 8: 300, 9: 60}


@pytest.mark.parametrize("number,name,fn", CRITERIA, ids=[f"criterion_{n}" for n, _, _ in CRITERIA])
def test_acceptance_criterion(number, name, fn):
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} [{status}] {name}: {detail} ({elapsed:.1f}s)")
    assert elapsed <= _BUDGET_SECONDS[number], f"criterion {number} exceeded time budget"
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_8_latency_floor():
    """Criterion 8's scenario-I trees under the per-level wave model: each
    level costs 2 latency + serialization + ceil(nodes/cores) recovery, so
    latency sets a floor that more cores do not lower.  Measured model vs
    simulator: 875.7/802.8, 504.6/452.0, 328.5/296.0, 244.5/232.5 and
    207.6/209.2 ms at 1/2/4/8/16 cores; 2->4 ratio 1.536 vs 1.527."""
    scenario, delta, seed, samples = netsim.SCENARIO_PRESETS["I"], 1000, 424242, 100
    cores = (1, 2, 4, 8, 16)
    rng = np.random.default_rng(seed)  # the trees `sweep` draws
    widths = []  # nodes per level, one list per tree
    for _ in range(samples):
        level = [netsim.sample_placement_tree(delta, scenario.mbar, scenario.schedule, rng)]
        widths.append([])
        while level:
            widths[-1].append(len(level))
            level = [child for node in level for child in node.children]
    per_level = 2 * scenario.latency_ms + scenario.serialization_ns / 1e6
    model = {c: np.mean([sum(per_level + math.ceil(n / c) * scenario.recovery_ms for n in w)
                         for w in widths]) for c in cores}
    simulated = {c: mean for _, _, c, mean, _ in
                 netsim.sweep([delta], scenario, cores, ("psr",), seed, samples)}
    assert abs(model[2] / model[4] - simulated[2] / simulated[4]) <= 0.02
    for c in cores:
        assert abs(model[c] / simulated[c] - 1) <= 0.12, (c, model[c], simulated[c])
