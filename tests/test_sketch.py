import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setrecon import fieldmath as fm
from setrecon import sketch as sk


def _solve_monic_pair(points, values, m_a, m_b, q):
    # Gauss-Jordan for monic P (deg m_a) and Q (deg m_b) with P(z) = v*Q(z)
    # at the points; free variables are set to zero.  None if inconsistent.
    ncols = m_a + m_b
    rows = []
    for z, v in zip(points, values):
        row = [pow(z, j, q) for j in range(m_a)]
        row += [(-v * pow(z, j, q)) % q for j in range(m_b)]
        row.append((v * pow(z, m_b, q) - pow(z, m_a, q)) % q)
        rows.append(row)
    pivot_of_col = {}
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, q)
        rows[r] = [c * inv % q for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(ci - f * cr) % q for ci, cr in zip(rows[i], rows[r])]
        pivot_of_col[col] = r
        r += 1
    if any(row[ncols] for row in rows[r:]):
        return None
    x = [0] * ncols
    for col, prow in pivot_of_col.items():
        x[col] = rows[prow][ncols]
    return x[:m_a] + [1], x[m_a:] + [1]


def reference_recover(z):
    """`sk.recover` as a Gauss-Jordan solve of the monic pair, reduced by
    their gcd."""
    cfg, q, delta = z.config, z.config.modulus, z.count
    if abs(delta) > cfg.mbar:
        return sk.RecoveryOutcome(False, frozenset(), frozenset())
    span = cfg.mbar - ((cfg.mbar + delta) & 1)
    k = span + 1
    solved = _solve_monic_pair(cfg.eval_points[:k], z.values[:k],
                               (span + delta) // 2, (span - delta) // 2, q)
    failed = sk.RecoveryOutcome(False, frozenset(), frozenset())
    if solved is None:
        return failed
    p, qq = solved
    for pt, v in zip(cfg.eval_points[k:], z.values[k:]):
        if fm.poly_eval(p, pt, q) != v * fm.poly_eval(qq, pt, q) % q:
            return failed
    g = fm.poly_gcd(p, qq, q)
    if len(g) > 1:
        p = fm.poly_divmod(p, g, q)[0]
        qq = fm.poly_divmod(qq, g, q)[0]
    if len(p) + len(qq) - 2 > cfg.mbar or len(p) - len(qq) != delta:
        return failed
    rng = random.Random(int.from_bytes(sk._content_digest(z), "little"))
    roots_a = fm.find_distinct_roots(p, q, rng)
    roots_b = None if roots_a is None else fm.find_distinct_roots(qq, q, rng)
    if roots_b is None or max(roots_a + roots_b, default=0) >= cfg.universe_size:
        return failed
    return sk.RecoveryOutcome(True, frozenset(roots_a), frozenset(roots_b))


@pytest.fixture(scope="module")
def cfg4():
    return sk.field_setup(4, 2, 1)


def test_field_setup_examples(cfg4):
    assert cfg4.modulus == 23
    assert cfg4.eval_points == (16, 17, 18, 19)
    assert sk.field_setup(8, 2, 1).modulus == 263
    assert sk.field_setup(8, 2, 1).eval_points == (256, 257, 258, 259)
    tiny = sk.field_setup(1, 1, 0)
    assert tiny.modulus == 5 and tiny.eval_points == (2, 3)


def test_field_setup_validation():
    with pytest.raises(sk.ConfigError):
        sk.field_setup(0, 2, 1)
    with pytest.raises(sk.ConfigError):
        sk.field_setup(4, 0, 1)
    with pytest.raises(sk.ConfigError):
        sk.field_setup(4, 2, -1)
    with pytest.raises(sk.ConfigError):
        sk.field_setup(100000, 2, 1)


def test_init_identity(cfg4):
    z = sk.new_sketch(cfg4)
    assert z.values == (1, 1, 1, 1) and z.count == 0
    out = sk.recover(z)
    assert out.flag and not out.recovered_a and not out.recovered_b
    other = sk.sketch_of(cfg4, [3, 5])
    assert sk.subtract(other, z) == other


def test_insert_examples(cfg4):
    z = sk.insert_set(sk.new_sketch(cfg4), [3])
    assert z.values == (13, 14, 15, 16) and z.count == 1
    z35 = sk.sketch_of(cfg4, [3, 5])
    assert z35.values[0] == 5  # 13*11 mod 23
    assert z35.values[1] == 7  # 14*12 mod 23
    assert z35.count == 2


def test_insert_order_irrelevant(cfg4):
    z = sk.new_sketch(cfg4)
    ab = sk.insert_set(sk.insert_set(z, [3]), [5])
    ba = sk.insert_set(sk.insert_set(z, [5]), [3])
    assert ab == ba == sk.sketch_of(cfg4, [5, 3])


def test_insert_validation(cfg4):
    with pytest.raises(sk.ElementError):
        sk.insert_set(sk.new_sketch(cfg4), [16])
    with pytest.raises(sk.ElementError):
        sk.insert_set(sk.new_sketch(cfg4), [1, 1])


def _insert_reference(z, elements):
    """`insert_set` with one factor per reduction, element by element."""
    elems = list(elements)
    if len(set(elems)) != len(elems):
        raise sk.ElementError("duplicate elements: sketches represent sets")
    cfg = z.config
    q = cfg.modulus
    if z.count + len(elems) > 2**31 - 1:
        raise sk.ElementError("sketch count would overflow 32-bit range")
    vals = list(z.values)
    for e in elems:
        if not 0 <= e < cfg.universe_size:
            raise sk.ElementError(f"element {e} outside [0, 2^{cfg.element_bits})")
        for i, point in enumerate(cfg.eval_points):
            vals[i] = vals[i] * (point - e) % q
    return sk.SRSketch(cfg, tuple(vals), z.count + len(elems))


def _insert_outcome(insert, z, elems):
    try:
        return insert(z, elems)
    except sk.ElementError as exc:
        return f"ElementError: {exc}"


@pytest.mark.parametrize("bits", [1, 2, 3, 8, 16, 31, 32, 63, 64, 65, 127, 128, 129,
                                  255, 256, 257, 512, 1024])
def test_insert_set_matches_reference(bits):
    # Every length mod 3, below and above the width where factors are grouped,
    # into sketches holding arbitrary values and counts.
    rng = random.Random(bits)
    cfg = sk.field_setup(bits, 3, 1)
    size = cfg.universe_size
    for n in [*range(11), 64, 65, 200]:
        if n > size:
            continue
        elems = (rng.sample(range(size), n) if bits < 63
                 else [rng.getrandbits(bits) for _ in range(n)])
        values = tuple(rng.randrange(1, cfg.modulus) for _ in range(cfg.n_points))
        # An arbitrary count, the last count that fits, then one that overflows.
        counts = (rng.choice([-1, 1]) * rng.randrange(1, 1000), 2**31 - 1 - n, 2**31 - n)
        cases = [elems, elems + [size + rng.randrange(9), -1 - rng.randrange(9)]]
        rng.shuffle(cases[1])  # the refusal names the first outside element
        if elems:
            cases.append(elems + [rng.choice(elems), -1])  # duplicates are refused first
        for count in counts:
            start = sk.SRSketch(cfg, values, count)
            for case in cases:
                assert (_insert_outcome(sk.insert_set, start, case)
                        == _insert_outcome(_insert_reference, start, case))


def test_subtract_example(cfg4):
    d = sk.subtract(sk.sketch_of(cfg4, [3, 5]), sk.sketch_of(cfg4, [5, 7]))
    assert d.values[0] == 4 and d.count == 0
    out = sk.recover(d)
    assert out.flag
    assert out.recovered_a == frozenset({3}) and out.recovered_b == frozenset({7})


def test_subtract_group_laws(cfg4):
    z = sk.sketch_of(cfg4, [1, 9, 12])
    assert sk.subtract(z, z) == sk.new_sketch(cfg4)
    # disjoint union factorizes pointwise
    s, t = [2, 4], [7, 11]
    zu = sk.sketch_of(cfg4, s + t)
    zs, zt = sk.sketch_of(cfg4, s), sk.sketch_of(cfg4, t)
    assert zu.values == tuple(a * b % 23 for a, b in zip(zs.values, zt.values))
    assert sk.subtract(zu, zt) == zs


def test_subtract_errors(cfg4):
    other = sk.field_setup(4, 2, 2)
    with pytest.raises(sk.MismatchError):
        sk.subtract(sk.new_sketch(cfg4), sk.new_sketch(other))
    bad = sk.SRSketch(cfg4, (0, 1, 1, 1), 0)
    with pytest.raises(ZeroDivisionError):
        sk.subtract(sk.new_sketch(cfg4), bad)


def test_count_overflow_guard(cfg4):
    z = sk.SRSketch(cfg4, (1, 1, 1, 1), 2**31 - 1)
    with pytest.raises(sk.ElementError):
        sk.insert_set(z, [3])


def test_roundtrip_random_instances():
    rng = random.Random(11)
    cfg = sk.field_setup(16, 6, 1)
    for _ in range(150):
        universe = 1 << 16
        da = rng.randrange(0, 4)
        db = rng.randrange(0, 4 - min(3, da) + 1)
        pool = rng.sample(range(universe), da + db + 6)
        a_only, b_only = pool[:da], pool[da:da + db]
        shared = pool[da + db:]
        za = sk.sketch_of(cfg, a_only + shared)
        zb = sk.sketch_of(cfg, b_only + shared)
        out = sk.recover(sk.subtract(za, zb))
        assert out.flag
        assert out.recovered_a == frozenset(a_only)
        assert out.recovered_b == frozenset(b_only)
        assert len(out.recovered_a) - len(out.recovered_b) == da - db


def test_over_capacity_fails():
    rng = random.Random(12)
    cfg = sk.field_setup(16, 2, 1)
    for _ in range(100):
        pool = rng.sample(range(1 << 16), 3)
        out = sk.recover(sk.sketch_of(cfg, pool))  # 3 > mbar=2, one-sided
        assert not out.flag


def test_oracle_equivalence_tiny_universe():
    cfg = sk.field_setup(4, 4, 1)
    universe = range(16)
    from itertools import combinations

    subsets = [frozenset(c) for size in (0, 1, 2) for c in combinations(universe, size)]
    for sa in subsets:
        for sb in subsets:
            diff = sa ^ sb
            if len(diff) > 4:
                continue
            out = sk.recover(sk.subtract(sk.sketch_of(cfg, sa), sk.sketch_of(cfg, sb)))
            assert out.flag
            assert out.recovered_a == sa - sb and out.recovered_b == sb - sa


def test_oracle_equivalence_tiny_universe_sampled():
    rng = random.Random(13)
    cfg = sk.field_setup(4, 4, 1)
    for _ in range(400):
        sa = frozenset(rng.sample(range(16), rng.randrange(5)))
        sb = frozenset(rng.sample(range(16), rng.randrange(5)))
        out = sk.recover(sk.subtract(sk.sketch_of(cfg, sa), sk.sketch_of(cfg, sb)))
        if len(sa ^ sb) <= 4:
            assert out.flag
            assert out.recovered_a == sa - sb and out.recovered_b == sb - sa


def test_false_success_rate_bounded():
    # sizes above capacity: observed false-success rate stays within a 10x
    # envelope of (size/2^bits)^gamma
    rng = random.Random(14)
    cfg = sk.field_setup(8, 3, 1)
    trials_per_size = 12_500
    for size in range(4, 13):
        hits = 0
        for _ in range(trials_per_size):
            pool = rng.sample(range(256), size)
            a = pool[: (size + 1) // 2]
            b = pool[(size + 1) // 2:]
            out = sk.recover(sk.subtract(sk.sketch_of(cfg, a), sk.sketch_of(cfg, b)))
            if out.flag:
                hits += 1
        bound = 10.0 * (size / 256.0)
        assert hits / trials_per_size <= bound, (size, hits)


# (element_bits, mbar, gamma, cases): tiny fields, where false successes
# are common, and the benchmark's wide fields.
DIFFERENTIAL_CONFIGS = [
    (6, 3, 0, 3500), (4, 4, 1, 3500), (8, 3, 1, 3500), (16, 2, 1, 2500),
    (16, 6, 1, 2000), (64, 25, 1, 40), (256, 16, 1, 40),
]


def test_recover_matches_reference():
    # same outcome as the Gauss-Jordan path, for difference sizes 0 ..
    # 2*mbar+3 split at random between the two sides; where the two differ,
    # the reference is falsely successful and the extended-Euclid path
    # refuses
    rng = random.Random(17)
    for bits, mbar, gamma, cases in DIFFERENTIAL_CONFIGS:
        cfg = sk.field_setup(bits, mbar, gamma)
        for i in range(cases):
            size = min(i % (2 * mbar + 4), 1 << bits)
            pool = set()
            while len(pool) < size:
                pool.add(rng.getrandbits(bits))
            pool = sorted(pool)
            rng.shuffle(pool)
            n_a = rng.randint(0, size)
            a, b = frozenset(pool[:n_a]), frozenset(pool[n_a:])
            z = sk.subtract(sk.sketch_of(cfg, a), sk.sketch_of(cfg, b))
            got, want = sk.recover(z), reference_recover(z)
            if got != want:
                assert want.flag and not got.flag, (bits, mbar, gamma, a, b)
                assert (want.recovered_a, want.recovered_b) != (a, b)
    # one such case: P and Q share the factor Z - 64, a root at an
    # evaluation point; the reference divides it out and finds B-only {24}
    # for a difference of nine
    cfg = sk.field_setup(6, 3, 0)
    z = sk.subtract(sk.sketch_of(cfg, [30, 39, 47, 56]), sk.sketch_of(cfg, [10, 19, 37, 55, 61]))
    assert reference_recover(z) == sk.RecoveryOutcome(True, frozenset(), frozenset({24}))
    assert not sk.recover(z).flag


@pytest.mark.parametrize("bits", [64, 256])
def test_recover_with_candidates_matches_recover(bits, monkeypatch):
    # candidates holding every root of P plus non-roots give recover(z)'s
    # outcome on both sides of the cost rule (at most bits * deg P of them
    # are evaluated, more are left to factoring), at deg P 0 to 5 and past
    # capacity; leaving out one A-only element, or adding one B-only
    # element, fails on both sides
    real_roots = fm.find_distinct_roots
    factored = []
    monkeypatch.setattr(fm, "find_distinct_roots",
                        lambda f, q, rng: factored.append(len(f) - 1) or real_roots(f, q, rng))
    cfg = sk.field_setup(bits, 8, 1)
    rng = random.Random(bits)
    for d_a, d_b in ((0, 0), (0, 2), (1, 0), (1, 3), (2, 0), (2, 2), (3, 1), (5, 3), (5, 5)):
        budget = bits * d_a
        pool = set()
        while len(pool) < d_a + d_b + budget + 1:
            pool.add(rng.getrandbits(bits))
        pool = list(pool)
        a_only, b_only, others = pool[:d_a], pool[d_a:d_a + d_b], pool[d_a + d_b:]
        z = sk.subtract(sk.sketch_of(cfg, a_only), sk.sketch_of(cfg, b_only))
        want = sk.recover(z)
        if d_a + d_b <= cfg.mbar:
            assert want == sk.RecoveryOutcome(True, frozenset(a_only), frozenset(b_only))
        for n, evaluated in ((budget, True), (budget + 1, False)):
            candidates = a_only + others[:n - d_a]
            rng.shuffle(candidates)
            factored.clear()
            assert sk.recover(z, candidates) == want, (d_a, d_b, n)
            if want.flag:
                assert factored == ([d_b] if evaluated else [d_a, d_b])
            if want.flag and d_a:
                candidates = a_only[1:] + others[:n - d_a + 1]
                assert not sk.recover(z, candidates).flag, ("A-only left out", d_a, d_b, n)
            if want.flag and d_b and n > d_a:
                candidates = a_only + b_only[:1] + others[:n - d_a - 1]
                assert not sk.recover(z, candidates).flag, ("B-only added", d_a, d_b, n)


def test_roundtrip_without_verification_points():
    # gamma=0 leaves no spare evaluations; recovery still works for true
    # differences of either parity
    rng = random.Random(16)
    for mbar in (3, 4):
        cfg = sk.field_setup(16, mbar, 0)
        for da, db in ((0, 0), (1, 0), (2, 1), (mbar, 0), (mbar - 1, 1)):
            pool = rng.sample(range(1 << 16), da + db)
            out = sk.recover(
                sk.subtract(sk.sketch_of(cfg, pool[:da]), sk.sketch_of(cfg, pool[da:]))
            )
            assert out.flag
            assert out.recovered_a == frozenset(pool[:da])
            assert out.recovered_b == frozenset(pool[da:])


def test_large_field_setup():
    cfg = sk.field_setup(256, 50, 1)
    assert cfg.modulus.bit_length() == 257
    assert cfg.eval_points[0] == 1 << 256 and len(cfg.eval_points) == 52
    elem = (1 << 256) - 12345
    z = sk.sketch_of(cfg, [elem])
    out = sk.recover(z)
    assert out.flag and out.recovered_a == {elem}


def test_serialization_roundtrip(cfg4):
    z = sk.sketch_of(cfg4, [3, 5, 9])
    blob = sk.to_bytes(z)
    assert sk.from_bytes(blob, cfg4) == z
    assert len(blob) == 10 + 4 * cfg4.value_bytes
    with pytest.raises(ValueError):
        sk.from_bytes(blob[:-1], cfg4)
    with pytest.raises(ValueError):
        sk.from_bytes(b"\x00" * 4, cfg4)
    # value outside the field
    bad = bytearray(blob)
    bad[10:10 + cfg4.value_bytes] = cfg4.modulus.to_bytes(cfg4.value_bytes, "little")
    with pytest.raises(ValueError):
        sk.from_bytes(bytes(bad), cfg4)


_CFG4 = sk.field_setup(4, 2, 1)
_BLOB4 = sk.to_bytes(sk.sketch_of(_CFG4, [3, 5, 9]))


def no_field(n):
    """A stand-in for `fm.next_prime` in checks that no field is built."""
    raise AssertionError(f"a field was built: next_prime of {n.bit_length()} bits")


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=8).map(lambda tail: _BLOB4[:10] + tail),
    st.tuples(st.integers(0, len(_BLOB4) - 1), st.integers(0, 255)).map(
        lambda ib: _BLOB4[:ib[0]] + bytes([ib[1]]) + _BLOB4[ib[0] + 1:]),
))
def test_from_bytes_reads_against_the_given_field(blob):
    # any bytes either decode to a sketch over the caller's field or raise
    # ValueError; no field is built from a header, nor cached
    cached = sk.field_setup.cache_info().currsize
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fm, "next_prime", no_field)
        try:
            z = sk.from_bytes(blob, _CFG4)
        except ValueError:
            z = None
    assert sk.field_setup.cache_info().currsize == cached
    if z is not None:
        assert z.config == _CFG4 and sk.to_bytes(z) == blob


def test_recover_deterministic(cfg4):
    d = sk.subtract(sk.sketch_of(cfg4, [3, 5]), sk.sketch_of(cfg4, [5, 7]))
    assert sk.recover(d) == sk.recover(d)


def test_wire_cost_examples():
    assert sk.wire_cost(25, 1, 64) == 1754
    assert sk.wire_cost(50, 1, 256) == 13363
    assert sk.wire_cost(2, 1, 8) == 35
    with pytest.raises(sk.ConfigError):
        sk.wire_cost(0, 1, 8)


def _time_it(fn, min_total=0.05):
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_total:
            return elapsed / reps
        reps = max(reps * 2, int(reps * min_total / max(elapsed, 1e-9)))


def test_complexity_shape():
    # recovery cost grows much faster with capacity than the linear
    # insert/subtract operations; the two capacities are timed in turn and
    # each operation keeps its fastest round, so a change in machine load
    # between the two capacities does not skew the ratios
    rng = random.Random(15)
    ops = {}
    for mbar in (8, 32):
        cfg = sk.field_setup(32, mbar, 1)
        elems = rng.sample(range(1 << 32), mbar)
        base = sk.new_sketch(cfg)
        za = sk.sketch_of(cfg, elems[: mbar // 2])
        zb = sk.sketch_of(cfg, elems[mbar // 2:])
        diff = sk.subtract(za, zb)
        ops[mbar] = (
            lambda base=base: sk.insert_set(base, [12345]),
            lambda za=za, zb=zb: sk.subtract(za, zb),
            lambda diff=diff: sk.recover(diff),
        )
    results = {mbar: [float("inf")] * 3 for mbar in ops}
    for _ in range(5):
        for mbar, fns in ops.items():
            for i, fn in enumerate(fns):
                results[mbar][i] = min(results[mbar][i], _time_it(fn))
    insert_ratio = results[32][0] / results[8][0]
    subtract_ratio = results[32][1] / results[8][1]
    recover_ratio = results[32][2] / results[8][2]
    assert recover_ratio > 2.5 * insert_ratio, (insert_ratio, recover_ratio)
    assert recover_ratio > 2.5 * subtract_ratio, (subtract_ratio, recover_ratio)


@pytest.mark.parametrize("bits", [16, 64, 256])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subtract_matches_pointwise_inverse(bits, data):
    cfg = sk.field_setup(bits, data.draw(st.integers(1, 40)), data.draw(st.integers(0, 3)))
    q, n = cfg.modulus, cfg.n_points
    va = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    vb = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    za = sk.SRSketch(cfg, tuple(va), data.draw(st.integers(-5, 5)))
    zero = data.draw(st.none() | st.integers(0, n - 1))
    if zero is not None:
        vb[zero] = 0
        with pytest.raises(ZeroDivisionError):
            sk.subtract(za, sk.SRSketch(cfg, tuple(vb), 0))
        return
    zb = sk.SRSketch(cfg, tuple(vb), data.draw(st.integers(-5, 5)))
    got = sk.subtract(za, zb)
    assert got.values == tuple(a * pow(b, -1, q) % q for a, b in zip(va, vb))
    assert got.count == za.count - zb.count
