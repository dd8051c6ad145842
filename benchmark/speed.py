"""Machine-speed scale for the benchmark's timings.

On a shared virtual machine the speed one process gets can change by tens
of percent within a second and stay changed for a minute, as other tenants
come and go on the same cores; a 40 s run then lands mostly in one speed or
the other, and run-to-run spread exceeds any useful regression bound.  A
fixed loop of 256-bit modular products, which uses no setrecon code, slows
together with the workloads: on a 2-vCPU Xeon VM by 1.4-1.6x, where sketch
build, root finding, netsim trials and tables slowed by 1.6-1.8x and large
Monte Carlo batches, vectorized NumPy, by 1.2x.  So a time measured
between two runs of the kernel is multiplied by `scale(before, after)`,
which takes it to a machine on which the kernel takes KERNEL_REF_S.  A
change to setrecon moves the measured time and not the kernel's, so it
moves the scaled time by the same share as the raw one.
"""

from __future__ import annotations

import time

KERNEL_MOD = (1 << 255) - 19
KERNEL_STEPS = 3000
KERNEL_REF_S = 0.002  # the kernel's time on the machine timings are scaled to


def kernel_s() -> float:
    """Time of the kernel, best of two runs."""
    best = float("inf")
    for _ in range(2):
        a = 3
        t0 = time.perf_counter()
        for i in range(KERNEL_STEPS):
            a = a * (a + i) % KERNEL_MOD
        best = min(best, time.perf_counter() - t0)
    return best


def scale(kernel_before: float, kernel_after: float) -> float:
    """Factor that takes a time measured between the two kernel runs to the
    reference machine."""
    return 2 * KERNEL_REF_S / (kernel_before + kernel_after)
