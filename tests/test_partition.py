import hashlib
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setrecon import partition as pt

KEY_SPACE = 1 << 64


def reference_word(schedule, key: Fraction, depth: int) -> tuple[int, ...]:
    """The placement as first written, in Fraction arithmetic over the point
    `key` of [0, 1); the integer placement must agree with it exactly."""
    denom = 1
    for p in schedule.probs:
        denom = denom * p.denominator // math.gcd(denom, p.denominator)
    nums = tuple(int(p * denom) for p in schedule.probs)
    cum = [0]
    for n in nums:
        cum.append(cum[-1] + n)
    num, den = key.numerator, key.denominator
    word = []
    for _ in range(depth):
        t = num * denom
        for j in range(schedule.c):
            if t < cum[j + 1] * den:
                word.append(j)
                num = t - cum[j] * den
                den = den * nums[j]
                break
    return tuple(word)


def reference_interval(schedule, path) -> tuple[Fraction, Fraction]:
    """Bounds [lo, hi) of the points of [0, 1) whose word starts with path."""
    cum = (0, *accumulate(schedule.probs))
    lo, width = Fraction(0), Fraction(1)
    for j in path:
        lo, width = lo + cum[j] * width, schedule.probs[j] * width
    return lo, lo + width


def first_key(schedule, path) -> int:
    """Smallest key of the partition at path (the left end, rounded up)."""
    return pt.key_range(schedule, path)[0]


def bounds_word(schedule, key: int, depth: int) -> tuple[int, ...]:
    """The word the first keys give: at each level, the last child whose
    first key is at or below `key` (the cut a partition index makes)."""
    word = ()
    for _ in range(depth):
        word += (max(j for j in range(schedule.c) if first_key(schedule, word + (j,)) <= key),)
    return word


def ceil_key(point: Fraction) -> int:
    """The point scaled by 2^64 and rounded up."""
    return -(-point.numerator * KEY_SPACE // point.denominator)


EXACTNESS_SCHEDULES = (
    pt.fair_probs(2),
    pt.round_optimal_probs(3),
    pt.round_optimal_probs(4),
    pt.schedule_from_strings(["0.15", "0.1", "0.25", "0.2", "0.3"]),
    pt.schedule_from_strings(["0.99", "0.01"]),
)

# depths checked: the first levels, and past the 64 bits of a key
DEPTHS = st.one_of(st.integers(0, 24), st.integers(65, 80))


def test_schedule_validation():
    with pytest.raises(pt.ScheduleError):
        pt.PartitionSchedule((Fraction(1),))
    with pytest.raises(pt.ScheduleError):
        pt.PartitionSchedule((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(pt.ScheduleError):
        pt.PartitionSchedule((Fraction(0), Fraction(1)))
    with pytest.raises(pt.ScheduleError):
        pt.fair_probs(1)
    with pytest.raises(pt.ScheduleError):
        pt.schedule_from_strings(["0.5", "nope"])


def test_round_optimal_probs():
    assert pt.round_optimal_probs(2).probs == (Fraction(1, 2), Fraction(1, 2))
    assert pt.round_optimal_probs(4).probs == (
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8),
    )
    for c in range(2, 33):
        assert sum(pt.round_optimal_probs(c).probs) == 1


def test_key_of_determinism_and_range():
    k1 = pt.key_of(123456, 7)
    assert k1 == pt.key_of(123456, 7)
    assert isinstance(k1, int) and 0 <= k1 < KEY_SPACE
    assert pt.key_of(123456, 8) != k1


@pytest.mark.parametrize("bits", [64, 256])
def test_key_of_matches_blake2b_expression(bits):
    # the copied hasher state gives the keys of one fresh hasher per call
    for seed in (0, 1, 7, 2**32 + 5):
        for element in (*range(100), (1 << bits) - 2, (1 << bits) - 1):
            digest = hashlib.blake2b(b"%d:%d" % (element, seed), digest_size=8).digest()
            assert pt.key_of(element, seed) == int.from_bytes(digest, "little")


def test_seed_changes_partition():
    sched = pt.fair_probs(2)
    elems = list(range(40))
    w0 = [bounds_word(sched, pt.key_of(e, 0), 3) for e in elems]
    w1 = [bounds_word(sched, pt.key_of(e, 1), 3) for e in elems]
    assert w0 != w1


def test_key_uniformity_ks():
    n = 1_000_000
    keys = sorted(pt.key_of(e, 3) / KEY_SPACE for e in range(n))
    d_stat = 0.0
    for i, x in enumerate(keys):
        d_stat = max(d_stat, abs((i + 1) / n - x), abs(x - i / n))
    assert d_stat < 1.628 / math.sqrt(n)  # 1% critical value


def test_multinomial_placement_chi_square():
    # left-count histogram of fair binary placement of 5 elements matches
    # Binomial(5, 1/2) at the 1% level over 10^4 trials
    sched = pt.fair_probs(2)
    trials, per = 10_000, 5
    hist = [0] * (per + 1)
    for t in range(trials):
        left = sum(pt.key_of(t * per + j, 9) < first_key(sched, (1,)) for j in range(per))
        hist[left] += 1
    chi2 = 0.0
    for k, got in enumerate(hist):
        expected = math.comb(per, k) / 2**per * trials
        chi2 += (got - expected) ** 2 / expected
    assert chi2 < 15.086  # chi-square 1% critical value, 5 dof


def test_path_word_roundtrip():
    sched = pt.round_optimal_probs(3)
    rng = random.Random(5)
    for _ in range(100):
        path = tuple(rng.randrange(3) for _ in range(rng.randrange(7)))
        lo, hi = reference_interval(sched, path)
        # any key inside the interval maps back to the same word
        key = lo + (hi - lo) * Fraction(rng.getrandbits(32), 1 << 33)
        assert (key * KEY_SPACE).denominator == 1  # exact at 64 bits
        assert bounds_word(sched, int(key * KEY_SPACE), len(path)) == path


def test_first_key_boundary():
    sched = pt.fair_probs(2)
    assert pt.key_range(sched, ()) == (0, KEY_SPACE)
    assert first_key(sched, ()) == first_key(sched, (0, 0, 0)) == 0
    assert first_key(sched, (1,)) == KEY_SPACE // 2
    assert first_key(sched, (1, 1)) == 3 * KEY_SPACE // 4
    assert bounds_word(sched, KEY_SPACE // 2, 1) == (1,)
    assert bounds_word(sched, KEY_SPACE // 2 - 1, 2) == (0, 1)
    assert bounds_word(sched, 0, 3) == (0, 0, 0)
    # depth 64 is one key wide; at 65 every other interval holds no key
    # and starts at the next key
    assert first_key(sched, (0,) * 63 + (1,)) == 1
    assert first_key(sched, (0,) * 64 + (1,)) == 1


@pytest.mark.parametrize("schedule, depth", [
    (pt.fair_probs(2), 64),
    (pt.fair_probs(3), 41),
    (pt.round_optimal_probs(4), 64),
    (pt.schedule_from_strings(["0.15", "0.1", "0.25", "0.2", "0.3"]), 37),
    (pt.schedule_from_strings(["0.99", "0.01"]), 4414),
])
def test_key_depth(schedule, depth):
    # the least depth at which the widest interval is at most one key wide
    widest = max(schedule.probs)
    assert schedule.key_depth == depth
    assert widest**depth * KEY_SPACE <= 1 < widest ** (depth - 1) * KEY_SPACE


@settings(max_examples=400, deadline=None)
@given(schedule=st.sampled_from(EXACTNESS_SCHEDULES), data=st.data())
def test_first_key_is_rounded_up_left_end(schedule, data):
    depth = data.draw(DEPTHS)
    path = tuple(data.draw(st.lists(st.integers(0, schedule.c - 1),
                                    min_size=depth, max_size=depth)))
    lo, hi = reference_interval(schedule, path)
    first = first_key(schedule, path)
    assert first == ceil_key(lo)
    if first < KEY_SPACE and Fraction(first, KEY_SPACE) < hi:
        assert reference_word(schedule, Fraction(first, KEY_SPACE), len(path)) == path


@settings(max_examples=400, deadline=None)
@given(schedule=st.sampled_from(EXACTNESS_SCHEDULES), data=st.data())
def test_key_range_children_tile_parent(schedule, data):
    depth = data.draw(DEPTHS)
    path = tuple(data.draw(st.lists(st.integers(0, schedule.c - 1),
                                    min_size=depth, max_size=depth)))
    first, end = pt.key_range(schedule, path)
    children = [pt.key_range(schedule, path + (j,)) for j in range(schedule.c)]
    assert children[0][0] == first and children[-1][1] == end
    for (_, child_end), (next_first, _) in zip(children, children[1:]):
        assert child_end == next_first


@settings(max_examples=400, deadline=None)
@given(
    schedule=st.sampled_from(EXACTNESS_SCHEDULES),
    key=st.integers(0, KEY_SPACE - 1),
    depth=DEPTHS,
)
def test_integer_word_matches_fraction_reference(schedule, key, depth):
    assert bounds_word(schedule, key, depth) == reference_word(
        schedule, Fraction(key, KEY_SPACE), depth)


@settings(max_examples=400, deadline=None)
@given(schedule=st.sampled_from(EXACTNESS_SCHEDULES), data=st.data())
def test_integer_word_exact_at_child_boundaries(schedule, data):
    # the first key at or above a child's lower boundary at depth <= 24,
    # and its neighbours on both sides
    depth = data.draw(st.integers(1, 24))
    path = tuple(data.draw(st.lists(st.integers(0, schedule.c - 1),
                                    min_size=depth - 1, max_size=depth - 1)))
    j = data.draw(st.integers(1, schedule.c - 1))
    lo, hi = reference_interval(schedule, path)
    cum = (0, *accumulate(schedule.probs))
    boundary = lo + cum[j] * (hi - lo)
    first = ceil_key(boundary)
    assert first_key(schedule, path + (j,)) == first
    for key in (first - 1, first, first + 1):
        if 0 <= key < KEY_SPACE:
            assert bounds_word(schedule, key, depth) == reference_word(
                schedule, Fraction(key, KEY_SPACE), depth)
    if Fraction(first, KEY_SPACE) < lo + cum[j + 1] * (hi - lo):
        # the child holds a key: the first one is placed in it
        assert bounds_word(schedule, first, depth) == path + (j,)
