"""Polynomial set-representation sketches over a prime field.

A sketch stores the evaluations of the characteristic polynomial
prod(Z - s) of a set at n = mbar + gamma + 1 fixed field points, plus a
signed element count.  Subtracting two sketches pointwise yields the
sketch of a rational function whose numerator and denominator roots are
the one-sided set differences; `recover` reconstructs those roots as
long as the total difference has at most `mbar` elements.

Sketches are immutable values; every operation returns a new sketch.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from . import fieldmath as fm

_COUNT_MIN = -(2**31)
_COUNT_MAX = 2**31 - 1
_HEADER = struct.Struct("<HHHi")
MAX_ELEMENT_BITS = 1024  # a field's prime search: 0.5 s at 1024 bits, 4 s at 2048 (2 vCPUs)
_GROUP_BITS = 128  # widest elements whose factors `insert_set` multiplies three at a time


class ConfigError(ValueError):
    """Invalid sketch configuration parameters."""


class ElementError(ValueError):
    """Element outside the universe, or duplicate elements in a set."""


class MismatchError(ValueError):
    """Operation across two sketches with different configurations."""


@dataclass(frozen=True)
class FieldConfig:
    """Field and evaluation-point layout shared by compatible sketches.

    The modulus is the smallest prime >= 2^element_bits + mbar + gamma + 1
    and the evaluation points are the consecutive integers starting at
    2^element_bits, so they can never collide with set elements.
    """

    element_bits: int
    mbar: int
    gamma: int
    modulus: int
    eval_points: tuple[int, ...]

    @property
    def n_points(self) -> int:
        return self.mbar + self.gamma + 1

    @property
    def universe_size(self) -> int:
        return 1 << self.element_bits

    @property
    def value_bytes(self) -> int:
        return (self.modulus.bit_length() + 7) // 8


@lru_cache(maxsize=None)
def field_setup(element_bits: int, mbar: int, gamma: int) -> FieldConfig:
    """Build the unique FieldConfig for the given parameters."""
    wire_cost(mbar, gamma, element_bits)  # refuses parameters below their lower bounds
    if element_bits > MAX_ELEMENT_BITS:
        raise ConfigError(f"element_bits above {MAX_ELEMENT_BITS}")
    if mbar > 0xFFFF or gamma > 0xFFFF:
        raise ConfigError("parameters exceed the 16-bit wire header")
    n = mbar + gamma + 1
    base = (1 << element_bits) + n
    q = fm.next_prime(base)
    points = tuple(range(1 << element_bits, (1 << element_bits) + n))
    return FieldConfig(element_bits, mbar, gamma, q, points)


@dataclass(frozen=True)
class SRSketch:
    """Evaluations of a (ratio of) characteristic polynomial(s), plus the
    signed cardinality delta of what it represents."""

    config: FieldConfig
    values: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class RecoveryOutcome:
    flag: bool
    recovered_a: frozenset[int]
    recovered_b: frozenset[int]


_FAILED = RecoveryOutcome(False, frozenset(), frozenset())


def new_sketch(config: FieldConfig) -> SRSketch:
    """Sketch of the empty set: all values 1, count 0."""
    return SRSketch(config, (1,) * config.n_points, 0)


def insert_set(sk: SRSketch, elements) -> SRSketch:
    """Insert all elements of a set (duplicates rejected)."""
    elems = list(elements)
    if len(set(elems)) != len(elems):
        raise ElementError("duplicate elements: sketches represent sets")
    cfg = sk.config
    q = cfg.modulus
    if sk.count + len(elems) > _COUNT_MAX:
        raise ElementError("sketch count would overflow 32-bit range")
    limit = cfg.universe_size
    for e in elems:
        if not 0 <= e < limit:
            raise ElementError(f"element {e} outside [0, 2^{cfg.element_bits})")
    # Each point's value stays in a local while the elements are walked.  Up
    # to _GROUP_BITS, three factors share one reduction, which saves more
    # interpreter work than the wider product costs; above it the wider
    # product costs more, and every element takes the one-factor loop.
    head = len(elems) % 3 if cfg.element_bits <= _GROUP_BITS else len(elems)
    single = elems[:head]
    triples = list(zip(elems[head::3], elems[head + 1::3], elems[head + 2::3]))
    vals = []
    for z, v in zip(cfg.eval_points, sk.values):
        for e in single:
            v = v * (z - e) % q
        for a, b, c in triples:
            v = v * (z - a) * (z - b) * (z - c) % q
        vals.append(v)
    return SRSketch(cfg, tuple(vals), sk.count + len(elems))


def sketch_of(config: FieldConfig, elements) -> SRSketch:
    return insert_set(new_sketch(config), elements)


def subtract(za: SRSketch, zb: SRSketch) -> SRSketch:
    """Pointwise ratio za/zb; represents the symmetric difference when both
    arguments are pure-set sketches over the same configuration."""
    cfg = za.config
    if cfg != zb.config:
        raise MismatchError("sketch configurations differ")
    if 0 in zb.values:
        raise ZeroDivisionError("zero evaluation in subtrahend sketch")
    q = cfg.modulus
    # Batch inversion (Montgomery's trick): invert the product of all
    # subtrahend values once; 1/vb_i is then prefix_(i-1) / prefix_i.
    prefix = list(accumulate(zb.values, lambda x, y: x * y % q))
    inv = pow(prefix[-1], -1, q)
    vals = [0] * len(prefix)
    for i in range(len(prefix) - 1, 0, -1):
        vals[i] = za.values[i] * prefix[i - 1] * inv % q
        inv = inv * zb.values[i] % q
    vals[0] = za.values[0] * inv % q
    return SRSketch(cfg, tuple(vals), za.count - zb.count)


def wire_cost(mbar: int, gamma: int, element_bits: int) -> int:
    """Accounting size of one sketch on the wire, in bits."""
    if mbar < 1 or gamma < 0 or element_bits < 1:
        raise ConfigError("need mbar >= 1, gamma >= 0, element_bits >= 1")
    return (mbar + gamma + 1) * (element_bits + 1) - 1


def _rational(points, values, m_a: int, q: int):
    """P/Q with deg P <= m_a, deg Q <= len(points) - 1 - m_a, Q monic and
    P(z) = v*Q(z) at the given consecutive points: the extended Euclidean
    algorithm on (prod(Z - z), R), where R interpolates the values, stopped
    at the first remainder of degree <= m_a."""
    # Newton divided differences; consecutive points divide order j by j.
    coef = list(values)
    for j in range(1, len(coef)):
        inv = pow(j, -1, q)
        for i in range(len(coef) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * inv % q
    # r_prev = prod(Z - z); r is the interpolant, by Horner in Newton form.
    r_prev, r = [1], []
    for z, c in zip(reversed(points), reversed(coef)):
        r_prev = fm.poly_mul(r_prev, [-z % q, 1], q)
        r = fm.poly_sub(fm.poly_mul(r, [-z % q, 1], q), [-c % q], q)
    # Invariant: r = t*R mod prod(Z - z), and deg t = len(points) - deg r_prev.
    t_prev, t = [], [1]
    while len(r) - 1 > m_a:
        quo, rem = fm.poly_divmod(r_prev, r, q)
        r_prev, r = r, rem
        t_prev, t = t, fm.poly_sub(t_prev, fm.poly_mul(quo, t, q), q)
    inv = pow(t[-1], -1, q)
    return fm.poly_mul_scalar(r, inv, q), fm.poly_mul_scalar(t, inv, q)


def recover(sk: SRSketch, candidates=None) -> RecoveryOutcome:
    """Attempt to recover the represented one-sided differences.

    Rational function reconstruction: the extended Euclidean algorithm
    finds P/Q from the first evaluations, the remaining ones verify it, and
    the roots of P and Q are the A-only and B-only elements.  Succeeds
    (with the exact difference) whenever the sketch is the subtraction of
    two pure-set sketches whose symmetric difference has at most mbar
    elements.  Larger differences fail, up to the false-success
    probability controlled by gamma.  All failure paths fold into
    flag=False.

    `candidates`, if given, are A's (distinct) elements in the partition,
    so a success needs every root of P among them and no root of Q among
    them; this is checked however the roots were found.  When there are at
    most element_bits * deg P candidates, P is evaluated at each and
    recovery fails unless exactly deg P of them are roots; P is monic, so
    it is then their product.  The rule weighs |candidates| * deg P
    evaluation steps against the about element_bits * deg P^2 field
    operations of factoring.  Otherwise, and always for Q, roots are found
    by `fm.find_distinct_roots`, which splits them 2^s ways per
    exponentiation with the 2-power roots of unity of F_q; its shifts are
    drawn from a generator seeded from the sketch content, and the root
    set does not depend on them, so the outcome is a pure function of the
    sketch and the candidates.  The checks that need the placement, or
    what a run has merged already, are the caller's.
    """
    cfg = sk.config
    q = cfg.modulus
    delta = sk.count
    if abs(delta) > cfg.mbar:
        return _FAILED
    # Largest degree budget with the parity of delta that still fits mbar;
    # the true difference always has d_a + d_b ≡ delta (mod 2).
    span = cfg.mbar - ((cfg.mbar + delta) & 1)
    k = span + 1
    p, qq = _rational(cfg.eval_points[:k], sk.values[:k], (span + delta) // 2, q)
    # Both characteristic polynomials are monic, and their degrees differ
    # by the count.
    if not p or p[-1] != 1 or len(p) - len(qq) != delta:
        return _FAILED
    for z, v in zip(cfg.eval_points[k:], sk.values[k:]):
        if fm.poly_eval(p, z, q) != v * fm.poly_eval(qq, z, q) % q:
            return _FAILED
    rng = random.Random(int.from_bytes(_content_digest(sk), "little"))
    deg_p = len(p) - 1
    if candidates is not None and len(candidates) <= cfg.element_bits * deg_p:
        roots_a = [x for x in candidates if fm.poly_eval(p, x, q) == 0]
        if len(roots_a) != deg_p:
            return _FAILED
    else:
        roots_a = fm.find_distinct_roots(p, q, rng)
        if roots_a is None:
            return _FAILED
    roots_b = fm.find_distinct_roots(qq, q, rng)
    if roots_b is None:
        return _FAILED
    # A factor common to P and Q divides prod(Z - z) and so puts a root at
    # an evaluation point, outside the universe.
    limit = cfg.universe_size
    if any(r >= limit for r in roots_a) or any(r >= limit for r in roots_b):
        return _FAILED
    if candidates is not None:
        members = set(candidates)
        if not (members.issuperset(roots_a) and members.isdisjoint(roots_b)):
            return _FAILED
    return RecoveryOutcome(True, frozenset(roots_a), frozenset(roots_b))


def to_bytes(sk: SRSketch) -> bytes:
    """Canonical little-endian serialization (header + fixed-width values)."""
    cfg = sk.config
    if not _COUNT_MIN <= sk.count <= _COUNT_MAX:
        raise ElementError("sketch count outside 32-bit range")
    out = bytearray(_HEADER.pack(cfg.element_bits, cfg.mbar, cfg.gamma, sk.count))
    vb = cfg.value_bytes
    for v in sk.values:
        out += v.to_bytes(vb, "little")
    return bytes(out)


def from_bytes(data: bytes, config: FieldConfig) -> SRSketch:
    """The sketch over `config` that `data` serializes.  A header naming other
    parameters is malformed like any other blob: no field is built from it."""
    if len(data) < _HEADER.size:
        raise ValueError("sketch blob too short")
    bits, mbar, gamma, count = _HEADER.unpack_from(data)
    if (bits, mbar, gamma) != (config.element_bits, config.mbar, config.gamma):
        raise ValueError(f"sketch header ({bits}, {mbar}, {gamma}) is not the field's "
                         f"({config.element_bits}, {config.mbar}, {config.gamma})")
    vb = config.value_bytes
    expected = _HEADER.size + config.n_points * vb
    if len(data) != expected:
        raise ValueError(f"sketch blob length {len(data)}, expected {expected}")
    vals = []
    for i in range(config.n_points):
        off = _HEADER.size + i * vb
        v = int.from_bytes(data[off:off + vb], "little")
        # No honest sketch holds 0: evaluation points lie outside the
        # universe, so every value is a product or ratio of nonzero ones.
        if not 0 < v < config.modulus:
            raise ValueError("sketch value zero or outside the field")
        vals.append(v)
    return SRSketch(config, tuple(vals), count)


def _content_digest(sk: SRSketch) -> bytes:
    return hashlib.blake2b(to_bytes(sk), digest_size=8).digest()
