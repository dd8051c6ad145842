"""Arithmetic over prime fields and dense univariate polynomials.

Polynomials over F_q are plain lists of ints in [0, q) with little-endian
coefficient order: [a_0, a_1, ..., a_n] is a_0 + a_1*Z + ... + a_n*Z^n.
The leading coefficient is nonzero and [] is the zero polynomial.  No
wrapper objects are used; every function takes the modulus q explicitly.
"""

from __future__ import annotations

import random
from itertools import chain
from operator import mul

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


def _ks_width(q: int, n: int) -> int:
    # Bytes per packed slot: a product slot sums up to n products of two
    # coefficients in [0, q), so it must hold n*q^2.
    return (2 * q.bit_length() + n.bit_length() + 8) // 8


def _ks_pack(a: list[int], nbytes: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(nbytes, "little") for c in a), "little")


def _ks_unpack(x: int, n: int, nbytes: int) -> list[int]:
    # The first n slots of x, not reduced mod q.
    raw = x.to_bytes(n * nbytes, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little") for i in range(0, n * nbytes, nbytes)]


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
        for j in range(db + 1):
            r[k - db + j] = (r[k - db + j] - f * b[j]) % q
    return poly_trim(quot), poly_trim([c % q for c in r])


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
    `mod`, of degree d.  Each square is one Kronecker-packed product.  A
    table of Z^k mod f for k = d .. 2d-2, built once per call, is kept
    packed, so reducing a product is one linear combination of packed rows
    weighted by its high coefficients.  Multiplying by a linear base is an
    O(d) update.
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
    # rows[i] = Z^(d+i) mod f.  A packed slot must hold (2d-1)*q^2: a slot
    # of a product plus a combination of d-1 table rows.
    rows = [[(-c) % q for c in f[:d]]]
    for _ in range(d - 2):
        top = rows[-1][-1]
        rows.append([(lo + top * c) % q for lo, c in zip([0] + rows[-1][:-1], rows[0])])
    nbytes = _ks_width(q, 2 * d)
    packed_rows = [_ks_pack(row, nbytes) for row in rows[:d - 1]]  # none if d == 1
    low_bits = 8 * nbytes * d

    def reduce(x: int) -> list[int]:
        # x packs a product of degree <= 2d-2; slot d+i folds back as
        # (its value mod q) * rows[i].
        high = [c % q for c in _ks_unpack(x >> low_bits, d - 1, nbytes)]
        x = (x & ((1 << low_bits) - 1)) + sum(map(mul, high, packed_rows))
        return [c % q for c in _ks_unpack(x, d, nbytes)]

    r = acc + [0] * (d - len(acc))
    packed_acc = _ks_pack(r, nbytes)
    for bit in bin(e)[3:]:
        x = _ks_pack(r, nbytes)
        r = reduce(x * x)
        if bit == "0":
            continue
        if len(acc) == 2:
            a, b = acc
            top = b * r[-1]
            r = [(a * lo + b * hi + top * c) % q for lo, hi, c in zip(r, [0] + r[:-1], rows[0])]
        else:
            r = reduce(_ks_pack(r, nbytes) * packed_acc)
    return poly_trim(r)


def sqrt_mod(a: int, q: int) -> int | None:
    """Square root of a modulo odd prime q, or None for a non-residue."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    # Tonelli-Shanks
    s = 0
    d = q - 1
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    m, c, t, r = s, pow(z, d, q), pow(a, d, q), pow(a, (d + 1) // 2, q)
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


def _split_linear(
    f: list[int], q: int, rng: random.Random, first: tuple[list[int], ...] = ()
) -> list[int] | None:
    # f is monic; from degree 3 on it is known to be a product of distinct
    # linear factors (degree 2 is solved directly, or None).  A candidate
    # w = (Z + a)^((q-1)/2) mod f splits off the roots r with r + a a
    # nonzero square, as gcd(w - 1, f).  The candidates in `first` are
    # tried before up to 64 shifts a drawn from rng.
    deg = len(f) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [(-f[0]) % q]
    if deg == 2:
        return _quadratic_roots(f, q)
    half = (q - 1) // 2
    drawn = (poly_pow_mod([rng.randrange(q), 1], half, f, q) for _ in range(64))
    for w in chain(first, drawn):
        g = poly_gcd(poly_sub(w, [1], q), f, q)
        if 0 < len(g) - 1 < deg:
            left = _split_linear(g, q, rng)
            right = _split_linear(poly_divmod(f, g, q)[0], q, rng)
            if left is None or right is None:
                return None
            return left + right
    return None


def find_distinct_roots(f: list[int], q: int, rng: random.Random) -> list[int] | None:
    """All roots of f if it splits into distinct linear factors over F_q.

    Returns None when it does not (repeated roots, irreducible factors, or
    the zero polynomial).  For degree >= 3 one exponentiation,
    w = Z^((q-1)/2) mod f, serves twice: Z*w^2 = Z^q ≡ Z (mod f) is the
    completeness test, and gcd(w - 1, f) is a first split with shift 0.
    Further splits use shifts drawn from rng.
    """
    if not f:
        return None
    f = poly_monic(f, q)
    deg = len(f) - 1
    if deg < 3:
        return _split_linear(f, q, rng)
    # Z^q ≡ Z (mod f) iff f is squarefree and fully split, which needs
    # deg f <= q.  That bound also keeps q = 2, where Z*w^2 = Z, out.
    if deg > q:
        return None
    w = poly_pow_mod([0, 1], (q - 1) // 2, f, q)
    if poly_mod(poly_mul([0, 1], poly_mul(w, w, q), q), f, q) != [0, 1]:
        return None
    return _split_linear(f, q, rng, (w,))
