import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setrecon import fieldmath as fm
from setrecon import sketch as sk


def poly_from_roots(roots, q):
    out = [1]
    for r in roots:
        out = fm.poly_mul(out, [(-r) % q, 1], q)
    return out


def poly_add(a, b, q):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % q
    return fm.poly_trim(out)


def reference_poly_pow_mod(base, e, mod, q):
    """Right-to-left square-and-multiply with schoolbook reduction, as first
    written; poly_pow_mod must return exactly the same list."""
    result = [1]
    acc = fm.poly_mod(base, mod, q)
    while e:
        if e & 1:
            result = fm.poly_mod(fm.poly_mul(result, acc, q), mod, q)
        e >>= 1
        if e:
            acc = fm.poly_mod(fm.poly_mul(acc, acc, q), mod, q)
    return result


def _reference_split_linear(f, q, rng):
    deg = len(f) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [(-f[0]) % q]
    if deg == 2:
        return fm._quadratic_roots(f, q)
    half = (q - 1) // 2
    for _ in range(64):
        a = rng.randrange(q)
        w = reference_poly_pow_mod([a, 1], half, f, q)
        g = fm.poly_gcd(fm.poly_sub(w, [1], q), f, q)
        if 0 < len(g) - 1 < deg:
            left = _reference_split_linear(g, q, rng)
            right = _reference_split_linear(fm.poly_divmod(f, g, q)[0], q, rng)
            if left is None or right is None:
                return None
            return left + right
    return None


def reference_find_distinct_roots(f, q, rng):
    """Completeness test Z^q ≡ Z (mod f) by its own exponentiation, then
    random splits only, as first written."""
    if not f:
        return None
    f = fm.poly_monic(f, q)
    deg = len(f) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [(-f[0]) % q]
    if deg == 2:
        return fm._quadratic_roots(f, q)
    if reference_poly_pow_mod([0, 1], q, f, q) != [0, 1]:
        return None
    return _reference_split_linear(f, q, rng)


# Small primes, 1009, 257 and 65537 (q - 1 = 2^8 and 2^16, so the degree
# caps the splitter's 2^s classes), and the sketch moduli at 16, 64 and
# 256 bits.
MODULI = (2, 3, 5, 7, 13, 1009, 257, 65537) + tuple(
    sk.field_setup(bits, mbar, gamma).modulus
    for bits, mbar, gamma in ((16, 2, 1), (64, 25, 1), (256, 16, 1))
)
MODULUS_IDS = [str(q) if q < 10**6 else f"{q.bit_length()}bit" for q in MODULI]


def _naive_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert fm.is_prime(n) == _naive_is_prime(n), n


def test_is_prime_large_known():
    assert fm.is_prime((1 << 61) - 1)  # Mersenne prime
    assert not fm.is_prime((1 << 61) + 1)
    assert fm.is_prime(2**64 + 13)


@pytest.mark.parametrize("start,expected", [(20, 23), (260, 263), (4, 5), (2, 2), (24, 29)])
def test_next_prime(start, expected):
    assert fm.next_prime(start) == expected


def _rand_poly(rng, deg, q):
    p = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
    return p


def test_poly_divmod_roundtrip():
    # A small modulus and two wide ones.  After the random degrees, each
    # divisor degree d divides a dividend of degree d and one of degree
    # 2d - 2, the degree `poly_mod` sees after squaring a remainder.
    for q in (10007, fm.next_prime(2**64 + 27), fm.next_prime(2**256 + 18)):
        rng = random.Random(1)
        pairs = [(_rand_poly(rng, rng.randrange(0, 12), q), _rand_poly(rng, rng.randrange(0, 6), q))
                 for _ in range(50)]
        pairs += [(_rand_poly(rng, deg, q), _rand_poly(rng, d, q))
                  for d in range(1, 28) for deg in (d, 2 * d - 2)]
        for a, b in pairs:
            quot, rem = fm.poly_divmod(a, b, q)
            assert len(rem) < len(b) or not rem
            assert all(0 <= c < q for c in quot + rem)
            assert poly_add(fm.poly_mul(quot, b, q), rem, q) == fm.poly_trim(list(a))


def test_poly_gcd_common_factor():
    rng = random.Random(2)
    q = 101
    for _ in range(30):
        f = poly_from_roots([rng.randrange(q) for _ in range(3)], q)
        g = _rand_poly(rng, 2, q)
        h = _rand_poly(rng, 2, q)
        got = fm.poly_gcd(fm.poly_mul(f, g, q), fm.poly_mul(f, h, q), q)
        # f divides the gcd
        assert fm.poly_divmod(got, fm.poly_monic(f, q), q)[1] == []


def test_poly_eval_horner():
    q = 97
    poly = [3, 0, 5, 1]  # 3 + 5x^2 + x^3
    for x in range(q):
        assert fm.poly_eval(poly, x, q) == (3 + 5 * x * x + x**3) % q


def test_poly_pow_mod_fermat():
    q = 1009
    for a in (0, 1, 17, 500):
        # Z^q mod (Z - a) is the constant a^q = a
        assert fm.poly_pow_mod([0, 1], q, [(-a) % q, 1], q) == ([a] if a else [])


def test_sqrt_mod_exhaustive_small():
    for q in (23, 29, 13, 17, 1009):  # covers both q mod 4 branches
        residues = 0
        for a in range(q):
            s = fm.sqrt_mod(a, q)
            if s is not None:
                residues += 1
                assert s * s % q == a
        assert residues == (q + 1) // 2


def test_find_distinct_roots_recovers_exact_sets():
    rng = random.Random(3)
    q = 1009
    for _ in range(60):
        k = rng.randrange(0, 8)
        roots = rng.sample(range(q), k)
        f = poly_from_roots(roots, q)
        got = fm.find_distinct_roots(f, q, random.Random(1))
        assert got is not None and sorted(got) == sorted(roots)


def test_find_distinct_roots_rejects_non_split():
    q = 1009
    rng = random.Random(4)
    # repeated root
    f = fm.poly_mul(poly_from_roots([5, 5], q), poly_from_roots([9], q), q)
    assert fm.find_distinct_roots(f, q, rng) is None
    # irreducible quadratic: x^2 - n for a non-residue n
    n = next(a for a in range(2, q) if fm.sqrt_mod(a, q) is None)
    assert fm.find_distinct_roots([(-n) % q, 0, 1], q, rng) is None
    # linear factor times irreducible quadratic
    f = fm.poly_mul([(-n) % q, 0, 1], poly_from_roots([7], q), q)
    assert fm.find_distinct_roots(f, q, rng) is None
    # zero polynomial
    assert fm.find_distinct_roots([], q, rng) is None


def _same_roots(got, want):
    return (got is None) == (want is None) and (got is None or sorted(got) == sorted(want))


@st.composite
def _polys(draw, q, max_deg):
    deg = draw(st.integers(-1, max_deg))
    if deg < 0:
        return []
    return [draw(st.integers(0, q - 1)) for _ in range(deg)] + [draw(st.integers(1, q - 1))]


@pytest.mark.parametrize("q", MODULI, ids=MODULUS_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_pow_mod_matches_reference(q, data):
    mod = data.draw(_polys(q, 30).filter(bool), label="mod")
    base = data.draw(st.one_of(
        _polys(q, 35),
        st.builds(lambda a, b: [a, b], st.integers(0, q - 1), st.sampled_from((1, q - 1))),
        st.just([0, 1]),
    ), label="base")
    e = data.draw(st.one_of(
        st.integers(0, 70), st.integers(0, q + 2), st.sampled_from((q, (q - 1) // 2)),
    ), label="e")
    assert fm.poly_pow_mod(base, e, mod, q) == reference_poly_pow_mod(base, e, mod, q)


def test_poly_pow_mod_edge_cases():
    q = 1009
    for e in (0, 1, 5):
        with pytest.raises(ZeroDivisionError):
            fm.poly_pow_mod([0, 1], e, [], q)
    # base^0 is [1] for every modulus, also a constant one
    assert fm.poly_pow_mod([3, 1], 0, [7], q) == [1]
    assert fm.poly_pow_mod([], 0, [1, 2, 3], q) == [1]
    assert fm.poly_pow_mod([3, 1], 4, [7], q) == []
    assert fm.poly_pow_mod([], 3, [1, 2, 3], q) == []
    # degree-1 modulus, non-monic: Z^e mod (2Z - 4) is 2^e
    assert fm.poly_pow_mod([0, 1], 10, [(-4) % q, 2], q) == [1024 % q]
    # coefficients outside [0, q) and a base of degree >= the modulus
    assert fm.poly_pow_mod([q + 3], 2, [1, 0, 1], q) == [9]
    base = [5, 0, 0, 7, 1]
    assert fm.poly_pow_mod(base, 9, [2, 3, 1], q) == reference_poly_pow_mod(base, 9, [2, 3, 1], q)
    with pytest.raises(ValueError):
        fm.poly_pow_mod([0, 1], -1, [1, 0, 1], q)


@pytest.mark.parametrize("q", MODULI, ids=MODULUS_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_find_distinct_roots_matches_reference(q, data):
    kind = data.draw(st.sampled_from(("split", "repeated", "irreducible", "random", "zero")))
    if kind == "zero":
        f = []
    elif kind == "random":
        f = data.draw(_polys(q, 30))
    else:
        k = data.draw(st.integers(kind == "repeated", min(q, 30)))
        pool = st.one_of(st.integers(0, q - 1), st.sampled_from((0, 1, q - 1)))
        roots = data.draw(st.lists(pool, min_size=k, max_size=k, unique=True))
        f = poly_from_roots(roots, q)
        if kind == "repeated":
            f = fm.poly_mul(f, poly_from_roots(roots[:1], q), q)
        if kind == "irreducible":
            n = next((a for a in range(2, q) if fm.sqrt_mod(a, q) is None), None)
            f = fm.poly_mul(f, [1, 1, 1] if q == 2 else [(-n) % q, 0, 1], q)
    if f:
        f = fm.poly_mul_scalar(f, data.draw(st.integers(1, q - 1)), q)
    seed = data.draw(st.integers(0, 2**32))
    got = fm.find_distinct_roots(f, q, random.Random(seed))
    assert _same_roots(got, reference_find_distinct_roots(f, q, random.Random(seed)))
    if kind == "split":
        assert got is not None and len(got) == len(f) - 1
    elif kind != "random":
        assert got is None


@pytest.mark.parametrize("q", MODULI, ids=MODULUS_IDS)
def test_find_distinct_roots_degree_sweep(q):
    # Every modulus at degrees up to 30: split (with roots 0 and q-1),
    # times an irreducible quadratic, and with a repeated root.
    rng = random.Random(q)
    n = next((a for a in range(2, q) if fm.sqrt_mod(a, q) is None), None)
    quad = [1, 1, 1] if q == 2 else [(-n) % q, 0, 1]
    for deg in (1, 2, 3, 4, 5, 8, 13, 21, 30):
        roots = [0, q - 1][:deg] + [rng.randrange(q) for _ in range(deg - 2)]
        f = fm.poly_mul_scalar(poly_from_roots(roots, q), rng.randrange(1, q), q)
        split = len(set(roots)) == deg
        for g, splits in ((f, split), (fm.poly_mul(f, quad, q), False),
                          (fm.poly_mul(f, [(-roots[-1]) % q, 1], q), False)):
            got = fm.find_distinct_roots(g, q, random.Random(deg))
            assert _same_roots(got, reference_find_distinct_roots(g, q, random.Random(deg)))
            assert (got is not None) == splits
            assert not splits or sorted(got) == sorted(roots)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_quadratic_roots_exhaustive_small_fields(q):
    # Every monic quadratic against its brute-force roots: two distinct
    # roots, or None for a double root or an irreducible one.
    for b in range(q):
        for c in range(q):
            roots = [r for r in range(q) if (r * r + b * r + c) % q == 0]
            want = roots if len(roots) == 2 else None
            assert _same_roots(fm._quadratic_roots([c, b, 1], q), want), (b, c)
            got = fm.find_distinct_roots([c, b, 1], q, random.Random(q))
            assert _same_roots(got, want), (b, c)


@pytest.mark.parametrize("q,deg", [(2, 3), (2, 4), (2, 6), (3, 3), (3, 4), (5, 3), (5, 4), (7, 3)])
def test_find_distinct_roots_small_fields_exhaustive(q, deg):
    # Every monic polynomial of the degree; over F_2 none of degree >= 3
    # splits into distinct linear factors.
    for code in range(q**deg):
        f = [(code // q**i) % q for i in range(deg)] + [1]
        got = fm.find_distinct_roots(f, q, random.Random(code))
        assert _same_roots(got, reference_find_distinct_roots(f, q, random.Random(code))), f
        if q == 2:
            assert got is None


def test_find_distinct_roots_one_full_degree_exponentiation(monkeypatch):
    # The root 0 comes off first, leaving f/Z of degree 5, so 2^s = 8 (2^4
    # divides q - 1 = 1008).  u = Z^((q-1)/8) puts 1, 7 and 11 in classes
    # of their own and 3, 5 together, so u both passes the completeness
    # test and splits f/Z: no other exponentiation has the full degree (the
    # reference makes two, Z^q and its first split).
    q = 1009
    roots = [1, 3, 5, 7, 11, 0]
    f = poly_from_roots(roots, q)
    calls = []
    real = fm.poly_pow_mod
    monkeypatch.setattr(fm, "poly_pow_mod", lambda *args: calls.append(args) or real(*args))
    assert sorted(fm.find_distinct_roots(f, q, random.Random(0))) == sorted(roots)
    assert [c for c in calls if len(c[2]) >= len(f) - 1] == [([0, 1], (q - 1) // 8, f[1:], q)]


def test_find_distinct_roots_keeps_the_class_of_the_shift():
    # Over F_7, r^3 = 1 for r in {1, 2, 4}, so u = Z^3 leaves the whole root
    # set in one class at shift 0.  A drawn shift a = -r gives u(r) = 0: r
    # is what is left after the gcds with u - 1 and u + 1, and it must not
    # be lost.
    q, roots = 7, [1, 2, 4]
    f = poly_from_roots(roots, q)
    assert fm.poly_pow_mod([0, 1], 3, f, q) == [1]
    hit = set()
    for seed in range(40):
        assert sorted(fm.find_distinct_roots(f, q, random.Random(seed))) == roots
        hit.add(-random.Random(seed).randrange(q) % q)
    assert hit >= set(roots)


def test_find_distinct_roots_fewer_exponentiations_than_reference(monkeypatch):
    # Fixed seeds and split polynomials of degree 3-16 at the 64- and
    # 256-bit sketch moduli: the splitter, completeness test included, makes
    # fewer exponentiations than the reference's binary splits alone.
    calls = Counter()

    def counting(side, real):
        def counted(*args):
            calls[side] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(fm, "poly_pow_mod", counting("new", fm.poly_pow_mod))
    monkeypatch.setitem(globals(), "reference_poly_pow_mod",
                        counting("reference", reference_poly_pow_mod))
    for bits, mbar in ((64, 25), (256, 16)):
        q = sk.field_setup(bits, mbar, 1).modulus
        for deg in range(3, 17):
            for seed in range(2):
                rng = random.Random(seed * 100 + deg)
                f = poly_from_roots([rng.randrange(q) for _ in range(deg)], q)
                got = fm.find_distinct_roots(f, q, random.Random(seed))
                want = _reference_split_linear(f, q, random.Random(seed))
                assert sorted(got) == sorted(want)
    assert calls["new"] < calls["reference"], calls


@pytest.mark.parametrize("bits,mbar,gamma,reps", [
    (64, 25, 1, 1), (256, 16, 1, 1), (16, 2, 1, 20), (6, 3, 0, 20),
])
def test_recover_outcome_matches_reference_roots(bits, mbar, gamma, reps, monkeypatch):
    # Difference sizes 0 .. mbar+3, split at random between the two sides,
    # with the elements 0 and 2^bits - 1 in the difference or in the shared
    # part; the larger sizes fail, and gamma = 0 admits false successes.
    cfg = sk.field_setup(bits, mbar, gamma)
    top = (1 << bits) - 1
    rng = random.Random(bits * 1000 + mbar)
    outcomes = []
    for size in range(mbar + 4):
        for rep in range(reps):
            rest = set()
            while len(rest) < size + 6:
                rest.add(rng.randrange(1, top))
            rest = rng.sample(sorted(rest), len(rest))
            ordered = [0, top] + rest if (size + rep) % 2 == 0 else rest + [0, top]
            diff, shared = ordered[:size], ordered[size:]
            da = rng.randrange(size + 1)
            d = sk.subtract(sk.sketch_of(cfg, diff[:da] + shared),
                            sk.sketch_of(cfg, diff[da:] + shared))
            got = sk.recover(d)
            with monkeypatch.context() as m:
                m.setattr(fm, "find_distinct_roots", reference_find_distinct_roots)
                assert sk.recover(d) == got
            if size <= mbar:
                assert got == sk.RecoveryOutcome(True, frozenset(diff[:da]), frozenset(diff[da:]))
            outcomes.append(got.flag)
    assert not all(outcomes)
