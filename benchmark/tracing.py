"""Span tracer that times setrecon's layers from outside the package.

The tracer replaces selected public functions and methods of the six core
modules with wrappers that record one span per call: name, start, end,
parent span, session (operation) id and one per-call value such as the
number of elements inserted or whether a recovery succeeded.  Each function
is wrapped where callers look it up (a name imported with ``from .x import
f`` is wrapped in the importing module), so the package itself is not
edited.  Spans are kept in flat arrays in memory and summarized, or
written out, only after the measured work has finished.

A hook whose target no longer exists is recorded as absent, and its layer
is reported as absent when none of its hooks could be installed.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from contextlib import contextmanager

LAYERS = ("partition", "sketch", "fieldmath", "protocol", "netsim", "analysis")


def _inserted(args, kwargs, result):
    return result.count - args[0].count


def _flag(args, kwargs, result):
    return int(result.flag)


def _nbytes(args, kwargs, result):
    return len(result)


def _jobs(args, kwargs, result):
    return result.sketches_transmitted + result.recovery_calls


def _trees(args, kwargs, result):
    return len(result["n"])


# (layer, module, attribute path, span name, per-call value or None)
HOOKS = (
    ("partition", "setrecon.protocol", "word_of_key", "word_of_key", None),
    ("partition", "setrecon.protocol", "key_of", "key_of", None),
    ("partition", "setrecon.partition", "word_of_key", "word_of_key", None),
    ("partition", "setrecon.partition", "key_of", "key_of", None),
    ("sketch", "setrecon.sketch", "insert_set", "insert_set", _inserted),
    ("sketch", "setrecon.sketch", "subtract", "subtract", None),
    ("sketch", "setrecon.sketch", "to_bytes", "to_bytes", None),
    ("sketch", "setrecon.sketch", "from_bytes", "from_bytes", None),
    ("sketch", "setrecon.sketch", "recover", "recover", _flag),
    ("fieldmath", "setrecon.fieldmath", "find_distinct_roots", "find_distinct_roots", None),
    ("fieldmath", "setrecon.fieldmath", "poly_pow_mod", "poly_pow_mod", None),
    ("protocol", "setrecon.protocol", "psr_reconcile", "engine", None),
    ("protocol", "setrecon.protocol", "epsr_reconcile", "engine", None),
    ("protocol", "setrecon.protocol", "LoopbackTransport.request", "request", _nbytes),
    ("protocol", "setrecon.protocol", "Responder.reply", "reply", None),
    ("netsim", "setrecon.netsim", "sample_placement_tree", "sample_tree", None),
    ("netsim", "setrecon.netsim", "run_trial", "run_trial", _jobs),
    ("analysis", "setrecon.analysis", "expectation_tables", "expectation_tables", None),
    ("analysis", "setrecon.analysis", "mc_sample_batch", "mc_sample_batch", _trees),
)


class Tracer:
    """Records spans while `active`; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.active = False
        self.session = -1
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.absent_hooks: list[str] = []
        self.value_errors = 0
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.sess = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, module, attr, span, value_fn in HOOKS:
            where = f"{module}.{attr}"
            try:
                owner = importlib.import_module(module)
                *outer, leaf = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent_hooks.append(where)
                continue
            if span not in self._ids:
                self._ids[span] = len(self.names)
                self.names.append(span)
                self.layer_of[span] = layer
            wrapper = self._wrap(original, self._ids[span], value_fn)
            setattr(owner, leaf, wrapper)
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def absent_layers(self) -> list[str]:
        present = set(self.layer_of.values())
        return [layer for layer in LAYERS if layer not in present]

    def _wrap(self, fn, name_id: int, value_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if value_fn is not None:
                try:
                    tracer.value[sid] = value_fn(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.value_errors += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- recording ----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.sess.append(self.session)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def recording(self, session: int):
        """Record spans of one operation under the given session id."""
        self.session = session
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._stack.clear()

    # -- summaries ----------------------------------------------------------

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (sum of durations), self time (busy
        minus the time covered by child spans), top (busy of spans whose
        parent belongs to another layer), and the values split by outcome."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        layer_of_id = [self.layer_of[name] for name in self.names]
        out = {
            name: {"calls": 0, "busy": 0.0, "self": 0.0, "top": 0.0,
                   "value": 0, "busy_v1": 0.0, "busy_v0": 0.0}
            for name in self.names
        }
        for i in range(n):
            nid = self.name_id[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["busy"] += dur[i]
            row["self"] += dur[i] - covered[i]
            p = self.parent[i]
            if p < 0 or layer_of_id[self.name_id[p]] != layer_of_id[nid]:
                row["top"] += dur[i]
            v = self.value[i]
            row["value"] += v
            row["busy_v1" if v else "busy_v0"] += dur[i]
        return out

    def write_spans(self, path) -> None:
        """Write every span as one CSV line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as fobj:
            fobj.write("id,name,layer,parent,session,start_s,end_s,value\n")
            for i in range(len(self.start)):
                name = self.names[self.name_id[i]]
                fobj.write(
                    f"{i},{name},{self.layer_of[name]},{self.parent[i]},"
                    f"{self.sess[i]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.value[i]}\n"
                )
