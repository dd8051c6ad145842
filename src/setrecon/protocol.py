"""Executable partitioned set-reconciliation protocols.

Node A (the caller) reconciles its set against node B, reachable only
through a request/reply transport: A sends a partition path word, B
replies with the serialized sketch of its elements in that partition.
Each protocol is written once, as an engine that drives a run through
three calls: `fetch(path, after)` returns the difference sketch of the
partition at `path`, where `after` is the sketch whose failed recovery
issued the request (None for the root); `subtract(z, z_child)` takes a
child's sketch out of its parent's; `recover(path, z)` says whether the
recovery of `z` succeeded.  `ENGINES` names the two engines:

* `psr_engine` requests a sketch for every partition it visits.
* `epsr_engine` requests sketches only for the first children of each
  split and derives the remaining child by subtracting the transmitted
  ones from the parent sketch, halving communication.

The config's placement maps each element to a 64-bit key, by default its
hash `key_of(element, hash_seed)`.  In a `PartitionIndex` each party's set
is sorted by key once, a partition is the slice between the bisections at
the ends of its `key_range`, and its sketch a ratio of two prefix sketches.

`psr_reconcile`, `epsr_reconcile` and `reconcile` run the engines on real
sketches over a transport; `netsim.run_trial` runs the same engines on
difference counts and times what they do.  A run counts sketches
transmitted, recovery calls, communication rounds (1 + deepest
transmitted partition), and B->A bits, where one sketch always costs
(mbar+gamma+1)(element_bits+1)-1 bits regardless of its actual
serialized size.  A->B requests are free by convention.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

from . import sketch as sk
from .partition import (
    PartitionSchedule,
    fair_probs,
    key_of,
    key_range,
)


class ProtocolError(Exception):
    """Protocol-level misuse: config mismatch, unknown placement, bad reply."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters shared by both parties of a reconciliation.  `placement`
    maps each element to its 64-bit key; None means `key_of(element,
    hash_seed)`."""

    mbar: int
    gamma: int
    element_bits: int
    schedule: PartitionSchedule
    hash_seed: int = 0
    protocol: str = "psr"
    placement: Mapping[int, int] | None = field(default=None, hash=False)

    def __post_init__(self):
        if self.protocol not in ENGINES:
            raise ValueError("protocol must be 'psr' or 'epsr'")
        self.field_config  # raises ConfigError for invalid field parameters

    @property
    def field_config(self) -> sk.FieldConfig:
        return sk.field_setup(self.element_bits, self.mbar, self.gamma)

    def fingerprint(self) -> str:
        """A digest of every field the parties share: all but `protocol`."""
        placement = None if self.placement is None else sorted(self.placement.items())
        shared = (self.element_bits, self.mbar, self.gamma, self.hash_seed,
                  self.schedule.probs, placement)
        return hashlib.blake2b(repr(shared).encode(), digest_size=8).hexdigest()


@dataclass(frozen=True)
class ReconcileMetrics:
    sketches_transmitted: int
    recovery_calls: int
    rounds: int
    bits_b_to_a: int


class RunCounters:
    """The counters of an engine's run, shared by the loopback run
    (`_Run`) and the simulated one (`netsim._TreeRun`).  Each run's
    `fetch` bumps `tx` and `max_tx_depth`, and its `recover` bumps
    `recoveries`, inline."""

    def __init__(self):
        self.tx = self.recoveries = self.max_tx_depth = 0

    def metrics(self, sketch_bits: int, record=ReconcileMetrics, **extra):
        """The run's `record`: rounds are 1 + the deepest transmitted
        partition, and B->A bits cost `sketch_bits` per sketch."""
        return record(self.tx, self.recoveries, self.max_tx_depth + 1,
                      self.tx * sketch_bits, **extra)


@dataclass(frozen=True)
class ReconcileResult:
    """One-sided differences as seen from A."""

    a_only: frozenset[int]
    b_only: frozenset[int]


_CHUNK = 64  # sorted elements between prefix sketches


class PartitionIndex:
    """One party's elements sorted by placement key: the partition at a path
    is the slice of keys in its `key_range`.  Prefix sketches, one every
    `_CHUNK` elements and one of the whole set, are made at construction;
    a node's sketch is the ratio of the prefixes around its slice with its
    < 2 * `_CHUNK` ends inserted."""

    def __init__(self, elements, config: ProtocolConfig):
        self._schedule, self._field = config.schedule, config.field_config
        elements = list(elements)
        if len(set(elements)) != len(elements):
            raise sk.ElementError("duplicate elements: sketches represent sets")
        placement, seed = config.placement, config.hash_seed
        self.key = placement.get if placement is not None else lambda e: key_of(e, seed)
        keys = list(map(self.key, elements))
        if None in keys:
            raise ProtocolError(f"no placement for element {elements[keys.index(None)]}")
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self._keys = [keys[i] for i in order]
        self._elements = [elements[i] for i in order]
        if self._slice(*self.span(())) != (0, len(keys)):
            raise ProtocolError("placement key outside [0, 2^64)")
        self._prefix = [sk.new_sketch(self._field)]
        for i in range(0, len(keys), _CHUNK):
            self._prefix.append(sk.insert_set(self._prefix[-1], self._elements[i:i + _CHUNK]))

    def span(self, path: tuple[int, ...]) -> tuple[int, int]:
        """The `key_range` (first, end) of the partition at `path`."""
        if len(path) > self._schedule.key_depth:
            raise ProtocolError("tree too deep; placement not separating: two keys collide")
        if path and not 0 <= min(path) <= max(path) < self._schedule.c:
            raise ProtocolError(f"no partition at path {path}")
        return key_range(self._schedule, path)

    def _slice(self, first: int, end: int) -> tuple[int, int]:
        return bisect_left(self._keys, first), bisect_left(self._keys, end)

    def elements_in(self, first: int, end: int) -> list[int]:
        """The elements whose keys k have first <= k < end, in key order."""
        lo, hi = self._slice(first, end)
        return self._elements[lo:hi]

    def sketch(self, first: int, end: int) -> sk.SRSketch:
        """The sketch of `elements_in(first, end)`."""
        lo, hi = self._slice(first, end)
        first = -(-lo // _CHUNK)
        last = len(self._prefix) - 1 if hi == len(self._elements) else hi // _CHUNK
        if first < last:
            ends = self._elements[lo:first * _CHUNK] + self._elements[last * _CHUNK:hi]
            return sk.insert_set(sk.subtract(self._prefix[last], self._prefix[first]), ends)
        return sk.sketch_of(self._field, self._elements[lo:hi])


class Responder:
    """B-side request handler serving serialized partition sketches.  B's
    set is fixed, so each path's reply is made once and kept, as the bytes
    it sends, for later clients: one sketch per distinct path requested."""

    def __init__(self, set_b, config: ProtocolConfig):
        self._fingerprint = config.fingerprint()
        self._index = PartitionIndex(set_b, config)
        self._replies: dict[tuple[int, ...], bytes] = {}

    def reply(self, fingerprint: str, path: tuple[int, ...]) -> bytes:
        if fingerprint != self._fingerprint:
            raise ProtocolError("request fingerprint does not match responder config")
        blob = self._replies.get(path)
        if blob is None:
            blob = self._replies[path] = sk.to_bytes(self._index.sketch(*self._index.span(path)))
        return blob


class LoopbackTransport:
    """In-process transport wiring A directly to a Responder.  Given a
    `trace` list, it appends one line "direction,round,path,bytes" per
    message; the request's line comes before the reply is made, so a
    refused request leaves it too."""

    def __init__(self, responder: Responder, trace: list[str] | None = None):
        self._responder = responder
        self._trace = trace

    def request(self, fingerprint: str, path: tuple[int, ...]) -> bytes:
        if self._trace is not None:
            where = f"{len(path) + 1},{'.'.join(map(str, path)) or '-'}"
            self._trace.append(f"a_to_b,{where},0")
        blob = self._responder.reply(fingerprint, path)
        if self._trace is not None:
            self._trace.append(f"b_to_a,{where},{len(blob)}")
        return blob


def make_loopback(set_b, config: ProtocolConfig,
                  trace: list[str] | None = None) -> LoopbackTransport:
    return LoopbackTransport(Responder(set_b, config), trace)


class _Run(RunCounters):
    """The loopback run of an engine: real sketches, A's side subtracted from
    each of B's replies, and the merge of every recovered piece.  A piece is
    a difference sketch with the (first, end) key range it covers."""

    def __init__(self, set_a, transport, config: ProtocolConfig):
        super().__init__()
        self.config = config
        self.transport = transport
        self.fingerprint = config.fingerprint()
        self.field = config.field_config
        self.index = PartitionIndex(set_a, config)
        self.a_only: set[int] = set()
        self.b_only: set[int] = set()

    def fetch(self, path: tuple[int, ...], after) -> tuple[sk.SRSketch, int, int]:
        first, end = self.index.span(path)
        za = self.index.sketch(first, end)
        blob = self.transport.request(self.fingerprint, path)
        try:
            zb = sk.from_bytes(blob, self.field)
        except ValueError as exc:
            raise ProtocolError(f"malformed reply for path {path}: {exc}") from exc
        self.tx += 1
        self.max_tx_depth = max(self.max_tx_depth, len(path))
        return sk.subtract(za, zb), first, end

    def subtract(self, z, z_child):
        """The residual covers the keys after the child's: both engines
        request a split's children in order."""
        return sk.subtract(z[0], z_child[0]), z_child[2], z[2]

    def recover(self, path: tuple[int, ...], piece) -> bool:
        """Whether the piece recovers to the difference in its keys.
        `sk.recover` checks it against A's elements in those keys, its
        candidates; a success counts only if none of the piece is merged
        already (pieces come from disjoint partitions or residuals) and
        every B-only key lies in them.  Otherwise the engine splits
        further."""
        self.recoveries += 1
        z, first, end = piece
        outcome = sk.recover(z, self.index.elements_in(first, end))
        got_a, got_b = outcome.recovered_a, outcome.recovered_b
        if not (outcome.flag and self.a_only.isdisjoint(got_a) and self.b_only.isdisjoint(got_b)
                and all(k is not None and first <= k < end for k in map(self.index.key, got_b))):
            return False
        self.a_only |= got_a
        self.b_only |= got_b
        return True

    def drive(self, engine) -> tuple[ReconcileResult, ReconcileMetrics]:
        engine(self, self.config.schedule.c)
        result = ReconcileResult(frozenset(self.a_only), frozenset(self.b_only))
        config = self.config
        return result, self.metrics(sk.wire_cost(config.mbar, config.gamma, config.element_bits))


def psr_engine(run, c: int) -> None:
    """Per-partition reconciliation, in level order: every failed recovery
    splits the partition and requests all c children in the next round;
    every request is followed by exactly one recovery."""
    queue: deque[tuple[tuple[int, ...], object]] = deque([((), None)])
    while queue:
        path, after = queue.popleft()
        z = run.fetch(path, after)
        if not run.recover(path, z):
            queue.extend((path + (j,), z) for j in range(c))


def epsr_engine(run, c: int) -> None:
    """Reconciliation reusing each parent sketch for its last child.

    At a split, children are requested one at a time.  Each child is
    recovered, and split in turn, as soon as it arrives; then it is
    subtracted from the parent and recovery is attempted on the residual.
    Residual success ends the split early; if all c-1 requests fail to
    finish the job, the final residual *is* the last child's sketch, which
    is split without transmission and without a redundant recovery call
    (the residual attempt already failed for it).  `split` yields each
    child to be split before it goes on; a stack of the splits in progress
    keeps this order depth first at any depth."""

    def split(path, z):
        residual = z
        for j in range(c - 1):
            child = path + (j,)
            z_child = run.fetch(child, residual)
            if not run.recover(child, z_child):
                yield child, z_child
            residual = run.subtract(residual, z_child)
            if run.recover(path, residual):
                return
        yield path + (c - 1,), residual

    z = run.fetch((), None)
    stack = [] if run.recover((), z) else [split((), z)]
    while stack:
        item = next(stack[-1], None)
        if item is None:
            stack.pop()
        else:
            stack.append(split(*item))


ENGINES = {"psr": psr_engine, "epsr": epsr_engine}


def psr_reconcile(set_a, transport, config: ProtocolConfig):
    """Reconcile with `psr_engine`: one sketch per visited partition."""
    return _Run(set_a, transport, config).drive(psr_engine)


def epsr_reconcile(set_a, transport, config: ProtocolConfig):
    """Reconcile with `epsr_engine`: the last child's sketch is derived."""
    return _Run(set_a, transport, config).drive(epsr_engine)


def reconcile(set_a, transport, config: ProtocolConfig):
    return _Run(set_a, transport, config).drive(ENGINES[config.protocol])


# Path words of the documented 9-difference splitting tree (root 9 -> 5/4
# -> 2,3 / 0,4 -> 2,1 / 2,2) used by tests and the fig2/fig3 CLI fixtures;
# each element's key is the first key of its word's partition.
WORKED_EXAMPLE_WORDS: dict[int, tuple[int, ...]] = {
    1: (0, 0, 0, 0),
    2: (0, 0, 1, 0),
    3: (0, 1, 0, 0),
    4: (0, 1, 0, 1),
    5: (0, 1, 1, 0),
    6: (1, 1, 0, 0),
    7: (1, 1, 0, 1),
    8: (1, 1, 1, 0),
    9: (1, 1, 1, 1),
}

_FIXTURE_PROTOCOLS = {"fig2": "psr", "fig3": "epsr"}


@dataclass(frozen=True)
class Fixture:
    set_a: frozenset[int]
    set_b: frozenset[int]
    config: ProtocolConfig


def load_fixture(name: str) -> Fixture:
    """Built-in placements `fig2` (PSR) and `fig3` (EPSR) over one shared
    tree, pinned so metrics are exactly reproducible."""
    try:
        proto = _FIXTURE_PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from fig2, fig3") from None
    schedule = fair_probs(2)
    placement = {e: key_range(schedule, word)[0] for e, word in WORKED_EXAMPLE_WORDS.items()}
    config = ProtocolConfig(
        mbar=2,
        gamma=1,
        element_bits=16,
        schedule=schedule,
        hash_seed=0,
        protocol=proto,
        placement=placement,
    )
    set_a = frozenset({1, 3, 5, 7, 9})
    set_b = frozenset({2, 4, 6, 8})
    return Fixture(set_a, set_b, config)
