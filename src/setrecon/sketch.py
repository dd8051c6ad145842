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
    if element_bits < 1 or mbar < 1 or gamma < 0:
        raise ConfigError("need element_bits >= 1, mbar >= 1, gamma >= 0")
    if element_bits > 0xFFFF or mbar > 0xFFFF or gamma > 0xFFFF:
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
    vals = list(sk.values)
    for e in elems:
        if not 0 <= e < cfg.universe_size:
            raise ElementError(f"element {e} outside [0, 2^{cfg.element_bits})")
        for i, z in enumerate(cfg.eval_points):
            vals[i] = vals[i] * (z - e) % q
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


def _solve_monic_pair(points, values, m_a: int, m_b: int, q: int):
    """Solve for monic P (deg m_a) and Q (deg m_b) with P(z) = v*Q(z) at the
    given points.  Returns (P, Q) or None if the system is inconsistent.
    Free variables (common-factor padding) are set to zero."""
    ncols = m_a + m_b
    rows = []
    for z, v in zip(points, values):
        row = [0] * (ncols + 1)
        zp = 1
        for j in range(m_a):
            row[j] = zp
            zp = zp * z % q
        rhs = v * pow(z, m_b, q) - zp  # zp == z^m_a here
        zp = 1
        for j in range(m_b):
            row[m_a + j] = (-v * zp) % q
            zp = zp * z % q
        row[ncols] = rhs % q
        rows.append(row)

    pivot_of_col: dict[int, int] = {}
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
    for i in range(r, len(rows)):
        if rows[i][ncols]:
            return None

    x = [0] * ncols
    for col, prow in pivot_of_col.items():
        x[col] = rows[prow][ncols]
    return x[:m_a] + [1], x[m_a:] + [1]


def recover(sk: SRSketch, rng: random.Random | None = None) -> RecoveryOutcome:
    """Attempt to recover the represented one-sided differences.

    Succeeds (with the exact difference) whenever the sketch is the
    subtraction of two pure-set sketches whose symmetric difference has at
    most mbar elements.  Larger differences fail, up to the false-success
    probability controlled by gamma.  All failure paths fold into
    flag=False.  The randomized root splitting draws from `rng`; by
    default a generator seeded from the sketch content is used, so the
    outcome is a pure function of the sketch.
    """
    cfg = sk.config
    q = cfg.modulus
    delta = sk.count
    if abs(delta) > cfg.mbar:
        return _FAILED
    # Largest degree budget with the parity of delta that still fits mbar;
    # the true difference always has d_a + d_b ≡ delta (mod 2).
    span = cfg.mbar - ((cfg.mbar + delta) & 1)
    m_a = (span + delta) // 2
    m_b = (span - delta) // 2
    k = span + 1
    solved = _solve_monic_pair(cfg.eval_points[:k], sk.values[:k], m_a, m_b, q)
    if solved is None:
        return _FAILED
    p, qq = solved
    for z, v in zip(cfg.eval_points[k:], sk.values[k:]):
        if fm.poly_eval(p, z, q) != v * fm.poly_eval(qq, z, q) % q:
            return _FAILED
    g = fm.poly_gcd(p, qq, q)
    if len(g) > 1:
        p = fm.poly_divmod(p, g, q)[0]
        qq = fm.poly_divmod(qq, g, q)[0]
    deg_a, deg_b = len(p) - 1, len(qq) - 1
    if deg_a + deg_b > cfg.mbar or deg_a - deg_b != delta:
        return _FAILED
    if rng is None:
        rng = random.Random(int.from_bytes(_content_digest(sk), "little"))
    roots_a = fm.find_distinct_roots(p, q, rng)
    if roots_a is None:
        return _FAILED
    roots_b = fm.find_distinct_roots(qq, q, rng)
    if roots_b is None:
        return _FAILED
    limit = cfg.universe_size
    if any(r >= limit for r in roots_a) or any(r >= limit for r in roots_b):
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


def from_bytes(data: bytes) -> SRSketch:
    if len(data) < _HEADER.size:
        raise ValueError("sketch blob too short")
    bits, mbar, gamma, count = _HEADER.unpack_from(data)
    cfg = field_setup(bits, mbar, gamma)
    vb = cfg.value_bytes
    expected = _HEADER.size + cfg.n_points * vb
    if len(data) != expected:
        raise ValueError(f"sketch blob length {len(data)}, expected {expected}")
    vals = []
    for i in range(cfg.n_points):
        off = _HEADER.size + i * vb
        v = int.from_bytes(data[off:off + vb], "little")
        if v >= cfg.modulus:
            raise ValueError("sketch value outside the field")
        vals.append(v)
    return SRSketch(cfg, tuple(vals), count)


def _content_digest(sk: SRSketch) -> bytes:
    return hashlib.blake2b(to_bytes(sk), digest_size=8).digest()
