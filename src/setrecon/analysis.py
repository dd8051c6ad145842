"""Expected-cost analysis of the partitioned reconciliation protocols.

Three quantities are tabulated as functions of the difference count d
(0..delta_max), all equal to 1 for d <= mbar:

* n_bar: expected recovery calls of the per-partition protocol (which
  equal its transmitted sketches),
* t_bar: expected sketches transmitted by the subtract-reuse protocol,
* u_bar: expected recovery calls of the subtract-reuse protocol.

Each satisfies a conditional recursion over the multinomial placement of
the d difference elements into c weighted children.  The float tables are
computed bottom-up in log space.  Row d sums, for each child of weight p,
only the binomial window |i - d p| < sqrt(L d / 2): by Hoeffding's
inequality (Hoeffding, JASA 1963) the Binomial(d, p) mass outside it is at
most 2 exp(-L).  With L = 50 that is 3.9e-22 of each child's binomial
weight.  It multiplies earlier entries, which grow about linearly in d,
so the omitted terms stay some five orders of magnitude below one ulp
(2^-53 ~ 1.1e-16) of the entry, and a row costs O(c sqrt(d)) terms
instead of O(c d).  Exact
Fraction evaluators of the same recursions, plus an independent oracle
that enumerates every placement of a split directly from the per-tree
counting rules, serve as references.  The Monte Carlo sampler
`mc_sample_batch` draws many placement trees at once, level by level, and
evaluates all three counts and the tree depth jointly on each tree; the
single-tree sampler is `netsim.sample_placement_tree`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .partition import PartitionSchedule
from .sketch import wire_cost


def _lgamma_table(n: int) -> np.ndarray:
    lg = np.zeros(n + 1)
    for k in range(2, n + 1):
        lg[k] = math.lgamma(k + 1)
    return lg


@dataclass(frozen=True, eq=False)
class ExpectationTables:
    n_bar: np.ndarray
    t_bar: np.ndarray
    u_bar: np.ndarray


# L of the binomial window; the module docstring derives it.
_WINDOW_L = 50.0


def _epsr_corrections(delta_max: int, mbar: int, lg: np.ndarray,
                      skip_front: list[float]) -> np.ndarray:
    """Row d: sum over F in skip_front of sum_{i=0..mbar} C(d,i) (1-F)^i F^(d-i)."""
    corr = np.zeros(delta_max + 1)
    if mbar >= delta_max:  # no row past the base case
        return corr
    d = np.arange(mbar + 1, delta_max + 1)
    for f in skip_front:
        for i in range(mbar + 1):
            corr[mbar + 1:] += np.exp(lg[d] - lg[i] - lg[d - i] + i * math.log1p(-f)
                                      + (d - i) * math.log(f))
    return corr


@lru_cache(maxsize=32)
def expectation_tables(delta_max: int, mbar: int,
                       schedule: PartitionSchedule) -> ExpectationTables:
    """All three expectation tables for d = 0..delta_max, in one pass."""
    if delta_max < 0 or mbar < 1:
        raise ValueError("need delta_max >= 0 and mbar >= 1")
    probs = schedule.as_floats()
    c = schedule.c
    # Prefix sums F_1 .. F_{c-2}: the per-split probabilities, for each of
    # the first c-2 children, that everything beyond that child fits mbar.
    skip_front = [float(f) for f in np.cumsum(probs)[: c - 2]]
    lg = _lgamma_table(delta_max)
    corr = _epsr_corrections(delta_max, mbar, lg, skip_front)
    # columns n_bar, t_bar, u_bar
    x = np.ones((delta_max + 1, 3))
    idx = np.arange(delta_max + 1, dtype=float)
    logp = [math.log(p) for p in probs]
    log1p = [math.log1p(-p) for p in probs]
    for d in range(mbar + 1, delta_max + 1):
        r = math.sqrt(_WINDOW_L * d / 2)
        s = np.zeros(3)
        for j, p in enumerate(probs):
            lo, hi = max(0, math.ceil(d * p - r)), min(d, math.floor(d * p + r) + 1)
            i = idx[lo:hi]
            w = np.exp(lg[d] - lg[lo:hi] - lg[d - lo:d - hi:-1]
                       + i * (logp[j] - log1p[j]) + d * log1p[j])
            s += w @ x[lo:hi]
        denom = 1.0 - sum(p**d for p in probs)
        x[d] = ((1.0 + s[0]) / denom, (s[1] - corr[d]) / denom,
                (s[2] + (c - 1) - 2.0 * corr[d]) / denom)
    n_bar, t_bar, u_bar = (np.ascontiguousarray(x[:, k]) for k in range(3))
    for arr in (n_bar, t_bar, u_bar):
        arr.flags.writeable = False
    return ExpectationTables(n_bar, t_bar, u_bar)


def psr_recovery_bound(delta: float, mbar: int, c: int) -> float:
    """Closed-form upper bound 8e(c+1)d/(mbar+1) for fair partitioning."""
    return 8.0 * math.e * (c + 1) * delta / (mbar + 1)


# ---------------------------------------------------------------------------
# Exact rational evaluators (oracle references, small delta only).


def _exact_binom_weights(d: int, p: Fraction) -> list[Fraction]:
    one_m = 1 - p
    return [Fraction(math.comb(d, i)) * p**i * one_m ** (d - i) for i in range(d)]


def exact_expectation_tables(delta_max: int, mbar: int, schedule: PartitionSchedule):
    """Fraction versions of the three recursions (slow; oracle use only)."""
    probs = schedule.probs
    c = schedule.c
    skip_front = [sum(probs[:j]) for j in range(1, c - 1)]  # F_1 .. F_{c-2}
    n_bar = [Fraction(1)] * (delta_max + 1)
    t_bar = [Fraction(1)] * (delta_max + 1)
    u_bar = [Fraction(1)] * (delta_max + 1)
    for d in range(mbar + 1, delta_max + 1):
        s_n = s_t = s_u = Fraction(0)
        for p in probs:
            w = _exact_binom_weights(d, p)
            s_n += sum(wi * n_bar[i] for i, wi in enumerate(w))
            s_t += sum(wi * t_bar[i] for i, wi in enumerate(w))
            s_u += sum(wi * u_bar[i] for i, wi in enumerate(w))
        corr = Fraction(0)
        for f in skip_front:
            corr += sum(
                Fraction(math.comb(d, i)) * (1 - f) ** i * f ** (d - i)
                for i in range(mbar + 1)
            )
        denom = 1 - sum(p**d for p in probs)
        n_bar[d] = (1 + s_n) / denom
        t_bar[d] = (s_t - corr) / denom
        u_bar[d] = (s_u + (c - 1) - 2 * corr) / denom
    return n_bar, t_bar, u_bar


def h_index(counts, mbar: int, c: int, delta: int) -> int:
    """First k (1-based) whose accumulated child counts reach delta - mbar."""
    counts = list(counts)
    if len(counts) != c or any(x < 0 for x in counts) or sum(counts) != delta:
        raise ValueError("counts must be c nonnegative integers summing to delta")
    target = delta - mbar
    acc = 0
    for k, x in enumerate(counts, start=1):
        acc += x
        if acc >= target:
            return k
    raise AssertionError("unreachable: total always reaches delta - mbar")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_tree_expectations(delta_max: int, mbar: int,
                                schedule: PartitionSchedule):
    """Exact expectations built directly from the per-tree counting rules.

    For every composition of d into c children this applies the random
    variable definitions (recovery calls: 1 + sum over all children;
    sketches: 1{h<c} + sum over children 1..h; reuse-protocol recoveries:
    1{h<c} + h - 1{h=c} + sum over children 1..h) with exact multinomial
    weights, solving the single self-referencing term per d.  Independent
    of the marginalized recursions above, which it is used to validate.
    """
    probs = schedule.probs
    c = schedule.c
    n_bar = [Fraction(1)] * (delta_max + 1)
    t_bar = [Fraction(1)] * (delta_max + 1)
    u_bar = [Fraction(1)] * (delta_max + 1)
    for d in range(mbar + 1, delta_max + 1):
        acc_n = acc_t = acc_u = Fraction(0)
        self_w = Fraction(0)
        for comp in _compositions(d, c):
            coeff = 1
            rem = d
            for x in comp:
                coeff *= math.comb(rem, x)
                rem -= x
            w = Fraction(coeff)
            for p, x in zip(probs, comp):
                w *= p**x
            if w == 0:
                continue
            h = h_index(comp, mbar, c, d)
            known_n = Fraction(1)
            known_t = Fraction(1 if h < c else 0)
            known_u = Fraction((1 if h < c else 0) + h - (1 if h == c else 0))
            has_self = False
            for j, x in enumerate(comp, start=1):
                if x == d:
                    has_self = True  # the lone self-referencing child
                    continue
                known_n += n_bar[x]
                if j <= h:
                    known_t += t_bar[x]
                    known_u += u_bar[x]
            acc_n += w * known_n
            acc_t += w * known_t
            acc_u += w * known_u
            if has_self:
                self_w += w
        scale = 1 - self_w
        n_bar[d] = acc_n / scale
        t_bar[d] = acc_t / scale
        u_bar[d] = acc_u / scale
    return n_bar, t_bar, u_bar


# ---------------------------------------------------------------------------
# Monte Carlo sampler.


def mc_sample_batch(delta: int, mbar: int, schedule: PartitionSchedule,
                    n_samples: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Vectorized sampler: n_samples independent trees, processed level by
    level; statistically identical to evaluating the per-tree counting rules
    on n_samples trees from `netsim.sample_placement_tree`.  A negative
    delta, or mbar < 1 (which would split forever), raises `ValueError`."""
    if delta < 0 or mbar < 1:
        raise ValueError(f"need delta >= 0 and mbar >= 1, got {delta} and {mbar}")
    probs = np.array(schedule.as_floats())
    c = schedule.c
    n = np.ones(n_samples)
    t = np.zeros(n_samples)
    u = np.zeros(n_samples)
    depth = np.zeros(n_samples, dtype=np.int64)
    sizes = np.full(n_samples, delta, dtype=np.int64)
    owner = np.arange(n_samples)
    t_active = np.ones(n_samples, dtype=bool)
    level = 0
    while sizes.size:
        leaf = sizes <= mbar
        tl = leaf & t_active
        np.add.at(t, owner[tl], 1.0)
        np.add.at(u, owner[tl], 1.0)
        split = ~leaf
        if not split.any():
            break
        so = owner[split]
        ss = sizes[split]
        st = t_active[split]
        np.add.at(n, so, float(c))
        np.maximum.at(depth, so, level + 1)
        counts = rng.multinomial(ss, probs)
        h = (counts.cumsum(axis=1) >= (ss - mbar)[:, None]).argmax(axis=1) + 1
        contrib_t = (h < c).astype(float)
        np.add.at(t, so[st], contrib_t[st])
        np.add.at(u, so[st], (contrib_t + h - (h == c))[st])
        child_sizes = counts.reshape(-1)
        child_owner = np.repeat(so, c)
        cols = np.tile(np.arange(c), len(ss))
        child_active = np.repeat(st, c) & (cols < np.repeat(h, c))
        keep = (child_sizes > mbar) | child_active
        sizes = child_sizes[keep]
        owner = child_owner[keep]
        t_active = child_active[keep]
        level += 1
    return {"n": n, "t": t, "u": u, "depth": depth.astype(float)}


# ---------------------------------------------------------------------------
# CSV emission.

CSV_COLUMNS = (
    "delta",
    "n_bar",
    "t_bar",
    "u_bar",
    "redundancy_psr",
    "redundancy_epsr",
    "norm_complexity_psr",
    "norm_complexity_epsr",
)


def write_metrics_csv(fobj, delta_max: int, mbar: int, gamma: int,
                      element_bits: int, schedule: PartitionSchedule) -> None:
    """Emit the analysis table for d = 1..delta_max, 12 significant digits."""
    tables = expectation_tables(delta_max, mbar, schedule)
    cost = wire_cost(mbar, gamma, element_bits)
    fobj.write(",".join(CSV_COLUMNS) + "\n")
    for d in range(1, delta_max + 1):
        nb, tb, ub = tables.n_bar[d], tables.t_bar[d], tables.u_bar[d]
        row = (
            str(d),
            f"{nb:.12g}",
            f"{tb:.12g}",
            f"{ub:.12g}",
            f"{nb * cost / (d * element_bits):.12g}",
            f"{tb * cost / (d * element_bits):.12g}",
            f"{nb * mbar / d:.12g}",
            f"{ub * mbar / d:.12g}",
        )
        fobj.write(",".join(row) + "\n")
