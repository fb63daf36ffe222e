"""Span tracer that instruments the library from outside its source.

``Tracer.install()`` rebinds every public function of every loaded
``operad_forge`` module, and every public method of the classes those
modules define, to a wrapper that records a span.  The library's modules
refer to each other both as ``from .x import f`` and as ``op.f``, so one
function can be bound in several namespaces; each binding is replaced and
``restore()`` puts every one back.

A span is (name, parent, start, end) with times from ``CLOCK_MONOTONIC``.
Spans stay in memory, in four flat arrays, until the run ends.  A span's
self time is its duration minus the durations of its child spans; because
the run is single-threaded, spans nest and the self times of all spans add
up to the duration of the root span.

A span costs about a microsecond, which is more than some kernels take.
The names in ``COUNT_ONLY`` therefore get a wrapper that only counts calls;
their time stays in the self time of the span that called them.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from contextlib import contextmanager

PACKAGE = "operad_forge"
# Layers are the library's modules; the ``_kernels`` package is named
# ``kernels`` so that every span and metric name starts with a letter.
LAYERS = ("kernels", "combinatorics", "operads", "axioms", "graded", "endo",
          "ftalgebra", "bv")
ROOT = "bench"

# Small helpers called once per surface, word or cycle: a span would cost
# about as much as the call, so these only count calls.  Their time stays
# in the self time of the span that called them (relabel keeps the cost of
# sort_cycles and canonicalize_cycle, for instance).
COUNT_ONLY = frozenset({
    "kernels.koszul_sign",
    "kernels.apply_perm_to_word",
    "kernels.invert_perm",
    "kernels.compose_perms",
    "combinatorics.canonicalize_cycle",
    "combinatorics.sort_cycles",
    "combinatorics.trim_bseq",
    "combinatorics.block_permutation",
    "combinatorics.QOSurface.is_stable",
    "combinatorics.QOCSurface.is_stable",
    "combinatorics.QCElement.is_stable",
    "operads.sort_cycles",
    "operads.is_admissible",
    "operads.element_kind",
    "operads.open_labels",
    "operads.closed_labels",
    "axioms.AxiomReport.record",
    "ftalgebra.AlgebraData.tensor",
    "bv.BVElement.add_term",
    "bv.BVElement.table",
    "bv.WordSymmetry.canonical",
    "bv.string_vertex_F",
})

_clock = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _traceable(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


def _span_name(fn) -> str:
    module = fn.__module__[len(PACKAGE) + 1:]
    return f"{module.split('.', 1)[0].lstrip('_')}.{fn.__qualname__}"


class Tracer:
    """Records spans around the library's public functions and methods."""

    def __init__(self):
        self.names: list[str] = []
        self.sid = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counted: dict[str, list] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- instrumentation --------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span_wrapper(self, fn, name):
        i = self._name_id(name)
        sids, parents, starts, ends = self.sid, self.parent, self.start, self.end
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = _clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(sids)
            sids.append(i)
            parents.append(stack[-1])
            ends.append(0.0)
            push(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()

        return wrapper

    def _count_wrapper(self, fn, name):
        box = self.counted.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            return self._count_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    def install(self) -> None:
        """Rebind every public library function and method to a wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        classes: set[int] = set()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if _traceable(obj) and obj.__module__.startswith(PACKAGE + "."):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj, _span_name(obj))
                    self._rebind(module, attr, wrappers[id(obj)])
                elif (isinstance(obj, type) and id(obj) not in classes
                      and obj.__module__.startswith(PACKAGE + ".")):
                    classes.add(id(obj))
                    self._wrap_methods(obj)

    def _wrap_methods(self, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and isinstance(obj, types.FunctionType):
                self._rebind(cls, attr, self._wrap(obj, _span_name(obj)))

    def _rebind(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every binding ``install`` replaced, newest first."""
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def run_root(self, fn, name=ROOT):
        """Call ``fn()`` inside the root span, which stands for the
        benchmark's own code."""
        return self._span_wrapper(fn, name)()

    # -- results ----------------------------------------------------------

    def self_times(self) -> array:
        n = len(self.sid)
        covered = array("d", bytes(8 * n))
        starts, ends, parents = self.start, self.end, self.parent
        for k in range(n):
            p = parents[k]
            if p >= 0:
                covered[p] += ends[k] - starts[k]
        for k in range(n):
            covered[k] = ends[k] - starts[k] - covered[k]
        return covered

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus count-only calls."""
        self_t = self.self_times()
        calls = [0] * len(self.names)
        secs = [0.0] * len(self.names)
        for i, t in zip(self.sid, self_t):
            calls[i] += 1
            secs[i] += t
        out: dict[str, dict] = {}
        for name, c, t in zip(self.names, calls, secs):
            if c:
                row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
                row["calls"] += c
                row["self_s"] += t
        for name, box in self.counted.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0})["calls"] += box[0]
        return out

    def write(self, base: str) -> None:
        """Write the spans as ``base.json`` (names, layout) and ``base.bin``."""
        with open(base + ".bin", "wb") as fh:
            for arr in (self.sid, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "count": len(self.sid),
            "layout": ["name_id:int32", "parent:int64", "start_s:float64",
                       "end_s:float64"],
            "clock": "CLOCK_MONOTONIC",
            "count_only_calls": {k: v[0] for k, v in self.counted.items()},
        }
        with open(base + ".json", "w") as fh:
            json.dump(meta, fh)


def read_spans(base: str) -> tuple[dict, list[tuple[str, int, float, float]]]:
    """Read a written trace back as (metadata, [(name, parent, start, end)])."""
    with open(base + ".json") as fh:
        meta = json.load(fh)
    n = meta["count"]
    arrays = [array("i"), array("q"), array("d"), array("d")]
    with open(base + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    names = meta["names"]
    spans = [(names[s], p, a, b) for s, p, a, b in zip(*arrays)]
    return meta, spans
