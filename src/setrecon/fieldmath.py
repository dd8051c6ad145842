"""Arithmetic over prime fields and dense univariate polynomials.

Polynomials over F_q are plain lists of ints in [0, q) with little-endian
coefficient order: [a_0, a_1, ..., a_n] is a_0 + a_1*Z + ... + a_n*Z^n.
The leading coefficient is nonzero and [] is the zero polynomial.  No
wrapper objects are used; every function takes the modulus q explicitly.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173,
)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 40 primes as bases."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    if n <= 2:
        return 2
    c = n | 1
    while not is_prime(c):
        c += 2
    return c


def poly_trim(a: list[int]) -> list[int]:
    """Strip trailing zero coefficients in place and return the list."""
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_sub(a: list[int], b: list[int], q: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % q
    return poly_trim(out)


def poly_mul_scalar(a: list[int], s: int, q: int) -> list[int]:
    s %= q
    if s == 0:
        return []
    return [c * s % q for c in a]


def poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim([c % q for c in out])


def poly_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by nonzero b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], poly_trim(r)
    inv_lead = pow(b[-1], -1, q)
    quot = [0] * (len(r) - db)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] % q
        if c == 0:
            continue
        f = c * inv_lead % q
        quot[k - db] = f
        # r[k] is left as it is, since no later step reads it; the
        # remainder is reduced once, at the end.
        for j in range(db):
            r[k - db + j] -= f * b[j]
    return poly_trim(quot), poly_trim([c % q for c in r[:db]])


def poly_mod(a: list[int], b: list[int], q: int) -> list[int]:
    return poly_divmod(a, b, q)[1]


def poly_monic(a: list[int], q: int) -> list[int]:
    if not a:
        return []
    if a[-1] == 1:
        return list(a)
    return poly_mul_scalar(a, pow(a[-1], -1, q), q)


def poly_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """Monic gcd via Euclid."""
    a, b = list(a), list(b)
    while b:
        a, b = b, poly_mod(a, b, q)
    return poly_monic(a, q)


def poly_eval(a: list[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % q
    return acc


def poly_pow_mod(base: list[int], e: int, mod: list[int], q: int) -> list[int]:
    """base^e reduced modulo the polynomial `mod` (e >= 0; base^0 is [1]).

    Left-to-right square-and-multiply modulo the monic associate f of
    `mod`, of degree d.  The residue stays Kronecker-packed, its d
    coefficients in w-bit slots of one integer, so each square is one
    integer product.  A table of Z^k mod f for k = d .. 2d-2, built once
    per call and packed too, makes reducing a product one linear
    combination of table rows weighted by its high coefficients.  Slots
    are read with shifts and masks and brought back into [0, q) once per
    step.
    """
    if e < 0:
        raise ValueError("negative exponent")
    acc = poly_trim([c % q for c in poly_mod(base, mod, q)])
    if e == 0:
        return [1]
    if not acc:
        return []
    f = poly_monic(mod, q)
    d = len(f) - 1
    # rows[i] = Z^(d+i) mod f.  A slot must hold (2d-1)*q^2: a slot of a
    # product plus a combination of d-1 table rows.
    rows = [[(-c) % q for c in f[:d]]]
    for _ in range(d - 2):
        top = rows[-1][-1]
        rows.append([(lo + top * c) % q for lo, c in zip([0] + rows[-1][:-1], rows[0])])
    w = 2 * q.bit_length() + (2 * d).bit_length()
    mask = (1 << w) - 1
    last = w * (d - 1)  # offset of the last of the d slots
    low = w * d

    def pack(a: list[int]) -> int:
        return sum(c << (w * i) for i, c in enumerate(a))

    folds = list(zip(range(low, low + last, w), map(pack, rows)))

    def reduce(x: int) -> int:
        # x packs a polynomial of degree <= 2d-2; slot d+i folds back as
        # (its value mod q) * rows[i], then each of the d slots is taken
        # mod q.
        y = x & ((1 << low) - 1)
        for shift, row in folds:
            y += ((x >> shift) & mask) % q * row
        r = 0
        for shift in range(last, -1, -w):
            r = (r << w) | ((y >> shift) & mask) % q
        return r

    r = packed_acc = pack(acc)
    for bit in bin(e)[3:]:
        r = reduce(r * r)
        if bit == "1":
            r = reduce(r * packed_acc)
    return poly_trim([(r >> shift) & mask for shift in range(0, low, w)])


@lru_cache(maxsize=None)
def _two_power_roots(q: int) -> tuple[int, int]:
    """(v, w) for an odd prime q: 2^v is the largest power of two dividing
    q - 1, and w = z^((q-1)/2^v) for the least non-residue z is a primitive
    2^v-th root of unity."""
    v = ((q - 1) & (1 - q)).bit_length() - 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    return v, pow(z, (q - 1) >> v, q)


def sqrt_mod(a: int, q: int) -> int | None:
    """Square root of a modulo odd prime q, or None for a non-residue."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    # Tonelli-Shanks, with c a primitive 2^m-th root of unity
    m, c = _two_power_roots(q)
    d = (q - 1) >> m
    t, r = pow(a, d, q), pow(a, (d + 1) // 2, q)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        m, c = i, b * b % q
        t = t * c % q
        r = r * b % q
    return r


def _quadratic_roots(f: list[int], q: int) -> list[int] | None:
    """Distinct roots of a monic quadratic, or None if it does not split."""
    b, c = f[1], f[0]
    if q == 2:
        # 2 has no inverse: Z^2 + Z is the only split monic quadratic
        return [0, 1] if (b, c) == (1, 0) else None
    disc = (b * b - 4 * c) % q
    if disc == 0:
        return None
    s = sqrt_mod(disc, q)
    if s is None:
        return None
    inv2 = (q + 1) // 2
    return [(-b + s) * inv2 % q, (-b - s) * inv2 % q]


def _unit_roots(q: int, deg: int) -> list[int]:
    # The 2^s-th roots of unity, 1 first, for splitting a polynomial of
    # degree deg >= 3 over F_q, q odd; find_distinct_roots says why s is
    # capped by the degree.
    v, w = _two_power_roots(q)
    s = min(v, (deg - 1).bit_length())
    zeta = pow(w, 1 << (v - s), q)
    return [pow(zeta, k, q) for k in range(1 << s)]


def _split_linear(
    f: list[int], q: int, rng: random.Random, first: tuple[list[int], ...] = ()
) -> list[int] | None:
    # f is monic; from degree 3 on it is known to be a product of distinct
    # linear factors Z - r with r != 0 (degree 2 is solved directly, or
    # None).  For u = (Z + a)^((q-1)/2^s) mod f, u(r) is a 2^s-th root of
    # unity zeta, or 0 for r = -a; gcd(u - zeta, f) takes out the class of
    # zeta, and what is left after every zeta is the class of 0.  The
    # candidates u in `first` are tried before up to 64 shifts a drawn
    # from rng.
    deg = len(f) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [(-f[0]) % q]
    if deg == 2:
        return _quadratic_roots(f, q)
    zetas = _unit_roots(q, deg)
    e = (q - 1) // len(zetas)
    drawn = (poly_pow_mod([rng.randrange(q), 1], e, f, q) for _ in range(64))
    for u in chain(first, drawn):
        parts, rest = [], f
        for zeta in zetas:
            g = poly_gcd(poly_sub(u, [zeta], q), rest, q)
            if len(g) > 1:
                parts.append(g)
                rest = poly_divmod(rest, g, q)[0]
                if len(rest) == 1:
                    break
        if len(rest) > 1:
            parts.append(rest)
        if len(parts) > 1:
            roots = []
            for g in parts:
                got = _split_linear(g, q, rng)
                if got is None:
                    return None
                roots += got
            return roots
    return None


def find_distinct_roots(f: list[int], q: int, rng: random.Random) -> list[int] | None:
    """All roots of f if it splits into distinct linear factors over F_q.

    Returns None when it does not (repeated roots, irreducible factors, or
    the zero polynomial).  A root at 0 is taken off first.  For the rest,
    of degree d >= 3, one exponentiation u = Z^((q-1)/2^s) mod f serves
    twice: u^(2^s) = Z^(q-1) ≡ 1 (mod f), by s squarings, is the
    completeness test, and the gcds of f with u - zeta, over the 2^s-th
    roots of unity zeta, sort the roots 2^s ways by r^((q-1)/2^s).
    Further splits use shifts Z + a, with a drawn from rng.  2^s is the
    2-power part of q - 1, but not above the least power of two >= d: each
    class costs one gcd, and past that point there are more classes than
    roots, so further classes add gcds faster than they separate roots.
    """
    if not f:
        return None
    f = poly_monic(f, q)
    zero = []
    if f[0] == 0:
        f = f[1:]
        if f[0] == 0:
            return None
        zero = [0]
    deg = len(f) - 1
    if deg < 3:
        rest = _split_linear(f, q, rng)
    else:
        # Z^(q-1) ≡ 1 (mod f) iff f is squarefree and splits with nonzero
        # roots, which needs deg f < q.  That bound also keeps q = 2 out.
        if deg >= q:
            return None
        zetas = _unit_roots(q, deg)
        u = poly_pow_mod([0, 1], (q - 1) // len(zetas), f, q)
        w = u
        for _ in range(len(zetas).bit_length() - 1):
            w = poly_mod(poly_mul(w, w, q), f, q)
        if w != [1]:
            return None
        rest = _split_linear(f, q, rng, (u,))
    return None if rest is None else zero + rest
