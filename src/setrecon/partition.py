"""Recursive weighted partitioning of the hashed key space [0, 1).

Elements are hashed to 64-bit integer keys k, the points k / 2^64, and the
unit interval is split into c weighted subintervals, recursively.  A
partition, named by its path word of child indices from the root, holds the
keys in its `key_range`, computed in exact integer arithmetic; the ranges
of a split's children tile their parent's, so every key belongs to exactly
one child at every depth.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

_KEY_BITS = 64
_KEY_HASH = hashlib.blake2b(digest_size=8)


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

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.probs)

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Common denominator D plus integer numerators and prefix sums."""
        denom = math.lcm(*(p.denominator for p in self.probs))
        nums = tuple(int(p * denom) for p in self.probs)
        return denom, nums, (0, *accumulate(nums))

    @cached_property
    def key_depth(self) -> int:
        """Least depth d at which every partition is at most one key wide,
        max(nums)^d * 2^64 <= D^d; no split below it separates two keys."""
        denom, nums, _ = self.scaled
        width, scale, d = 1 << _KEY_BITS, 1, 0  # max(nums)^d * 2^64 and D^d
        while width > scale:
            width, scale, d = width * max(nums), scale * denom, d + 1
        return d


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
    h = _KEY_HASH.copy()
    h.update(b"%d:%d" % (element, seed))
    return int.from_bytes(h.digest(), "little")


def key_range(schedule: PartitionSchedule, path: tuple[int, ...]) -> tuple[int, int]:
    """The keys k of the partition at `path` are those with first <= k < end:
    both ends of its interval times 2^64, rounded up.  The root is (0, 2^64)."""
    denom, nums, cum = schedule.scaled
    lo, width = 0, 1  # left end and width of the interval, times denom^depth
    for j in path:
        lo = lo * denom + cum[j] * width
        width *= nums[j]
    scale = denom ** len(path)
    return -(-(lo << _KEY_BITS) // scale), -(-((lo + width) << _KEY_BITS) // scale)
