"""Recursive weighted partitioning of the hashed key space [0, 1).

Elements are hashed to 64-bit integer keys k, the points k / 2^64, and the
unit interval is split into c weighted subintervals, recursively.  Placement
is exact integer arithmetic, so membership is unambiguous: every key belongs
to exactly one child at every depth.  A partition is identified by its path
word, the sequence of child indices from the root.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

_KEY_BITS = 64
_KEY_SPACE = 1 << _KEY_BITS


class ScheduleError(ValueError):
    """Invalid partitioning schedule."""


@dataclass(frozen=True)
class PartitionSchedule:
    """Branching factor and child probabilities of every split."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.probs) < 2:
            raise ScheduleError("need at least 2 partitions per split")
        if any(p <= 0 for p in self.probs):
            raise ScheduleError("partition probabilities must be positive")
        if sum(self.probs) != 1:
            raise ScheduleError("partition probabilities must sum to 1")

    @property
    def c(self) -> int:
        return len(self.probs)

    def cumulative(self) -> tuple[Fraction, ...]:
        """Prefix sums F_0 = 0, F_1, ..., F_c = 1."""
        acc = Fraction(0)
        out = [acc]
        for p in self.probs:
            acc += p
            out.append(acc)
        return tuple(out)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.probs)

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Common denominator D plus integer numerators and prefix sums."""
        denom = math.lcm(*(p.denominator for p in self.probs))
        nums = tuple(int(p * denom) for p in self.probs)
        return denom, nums, (0, *accumulate(nums))


def fair_probs(c: int) -> PartitionSchedule:
    """Equal-probability schedule p_j = 1/c."""
    if c < 2:
        raise ScheduleError("need c >= 2")
    return PartitionSchedule((Fraction(1, c),) * c)


def round_optimal_probs(c: int) -> PartitionSchedule:
    """Schedule p_j = 2^-j (last child 2^-(c-1)), which makes every
    residual binary branching fair and so minimizes expected rounds."""
    if c < 2:
        raise ScheduleError("need c >= 2")
    probs = [Fraction(1, 1 << j) for j in range(1, c)]
    probs.append(Fraction(1, 1 << (c - 1)))
    return PartitionSchedule(tuple(probs))


def schedule_from_strings(items) -> PartitionSchedule:
    """Parse probabilities given as decimal or fraction strings."""
    try:
        probs = tuple(Fraction(s) for s in items)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScheduleError(f"cannot parse probabilities: {exc}") from None
    return PartitionSchedule(probs)


def key_of(element: int, seed: int) -> int:
    """Deterministic 64-bit hash of (element, seed), in [0, 2^64)."""
    digest = hashlib.blake2b(b"%d:%d" % (element, seed), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def word_of_key(schedule: PartitionSchedule, key: int, depth: int) -> tuple[int, ...]:
    """First `depth` child indices of the path of the point key / 2^64.

    Exact integer arithmetic: the point num/den is located against the
    child boundaries scaled by D, then rescaled to the child's local
    coordinates, so no boundary leakage can occur at any depth.
    """
    denom, nums, cum = schedule.scaled
    num, den = key, _KEY_SPACE
    word = []
    for _ in range(depth):
        t = num * denom
        # cum holds integers, so cum[j] <= t/den exactly when cum[j] <= t // den
        j = bisect_right(cum, t // den) - 1
        word.append(j)
        num = t - cum[j] * den
        den *= nums[j]
    return tuple(word)
