"""In-memory span tracer, installed from outside the program.

Spans wrap the public entry points of each layer (see ``instrument.py``).
A span is ``(id, parent, name, start, end, flags)``; spans stay in memory
and are written once, at the end of the run.  Synchronous spans nest on a
stack, so a span's parent is the innermost synchronous span open when it
started.  Spans of coroutine functions never go on the stack: other
tasks run while they wait, so they measure waiting, not busy time, and are
left out of self-time accounting.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

ASYNC = 1
"""Flag: a coroutine span (waiting time; not on the nesting stack)."""
NESTED_NAME = 2
"""Flag: an ancestor span has the same name (recursion)."""
NESTED_LAYER = 4
"""Flag: an ancestor span belongs to the same layer."""

ROOT = 0
"""Parent id of a span opened with no enclosing span."""


def layer_of(name: str) -> str:
    """``"sim.dynamics"`` -> ``"sim"``."""
    return name.split(".", 1)[0]


class Tracer:
    """Records spans and counters; patches entry points in and out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = [ROOT]
        self._stack_layers: list[str] = [""]
        self._name_depth: dict[int, int] = {}
        self._layer_depth: dict[str, int] = {}
        self._next = 1
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _ix(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def current_layer(self) -> str:
        """Layer of the innermost open synchronous span ("" at top)."""
        return self._stack_layers[-1]

    def _enter(self, ix: int, layer: str) -> tuple:
        sid = self._next
        self._next = sid + 1
        names, layers = self._name_depth, self._layer_depth
        flags = ((NESTED_NAME if names.get(ix) else 0)
                 | (NESTED_LAYER if layers.get(layer) else 0))
        names[ix] = names.get(ix, 0) + 1
        layers[layer] = layers.get(layer, 0) + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        self._stack_layers.append(layer)
        return sid, parent, ix, layer, flags

    def _exit(self, frame: tuple, start: float, end: float) -> None:
        sid, parent, ix, layer, flags = frame
        self._stack.pop()
        self._stack_layers.pop()
        self._name_depth[ix] -= 1
        self._layer_depth[layer] -= 1
        self.spans.append((sid, parent, ix, start, end, flags))

    @contextmanager
    def span(self, name: str):
        """A synchronous span around a block of the benchmark's own code."""
        frame = self._enter(self._ix(name), layer_of(name))
        start = time.perf_counter()
        try:
            yield frame[0]
        finally:
            self._exit(frame, start, time.perf_counter())

    def wrap(self, fn, name, *, within: str | None = None, on_result=None):
        """A traced stand-in for ``fn``.

        ``name`` is a span name, or a callable ``(args) -> name``.
        ``within``: only open a span when the innermost open span belongs
        to that layer (otherwise the call stays in its caller's span).
        ``on_result(tracer, args, result)`` runs after each traced call.
        """
        tracer = self
        clock = time.perf_counter
        static = None if callable(name) else (self._ix(name), layer_of(name))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                ix = static[0] if static else tracer._ix(name(args))
                sid = tracer._next
                tracer._next = sid + 1
                parent = tracer._stack[-1]
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.spans.append((sid, parent, ix, start, clock(),
                                         ASYNC))
                if on_result is not None:
                    on_result(tracer, args, result)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if within is not None and tracer._stack_layers[-1] != within:
                return fn(*args, **kwargs)
            if static:
                frame = tracer._enter(*static)
            else:
                span_name = name(args)
                frame = tracer._enter(tracer._ix(span_name),
                                      layer_of(span_name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, start, clock())
            if on_result is not None:
                on_result(tracer, args, result)
            return result
        return wrapper

    # -- patching ----------------------------------------------------------
    def patch_attr(self, owner, attr: str, replacement) -> None:
        """``setattr(owner, attr, replacement)``, undone by :meth:`unpatch`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, cls, attr: str, name, **kw) -> None:
        """Trace ``cls.attr`` (a plain or class method, possibly inherited)."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, **kw))
        else:
            replacement = self.wrap(raw, name, **kw)
        self._patches.append((cls, attr, cls.__dict__.get(attr, _ABSENT)))
        setattr(cls, attr, replacement)

    def patch_function(self, fn, name, *, modules=None, **kw) -> None:
        """Trace every module-global reference to ``fn``.

        Callers that did ``from m import fn`` hold their own reference, so
        every loaded ``repro`` module (or just ``modules``) is searched for
        globals that *are* ``fn``.
        """
        wrapper = self.wrap(fn, name, **kw)
        if modules is None:
            modules = [m for n, m in list(sys.modules.items())
                       if n == "repro" or n.startswith("repro.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, wrapper)

    def unpatch(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Dump every span, the name table and the counters as one
        compressed ``.npz`` (columns ``id, parent, name, start, end,
        flags``; ``name`` indexes ``names``)."""
        import numpy as np
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = list(zip(*self.spans)) or [()] * 6
        np.savez_compressed(
            path,
            id=np.array(cols[0], dtype=np.int64),
            parent=np.array(cols[1], dtype=np.int64),
            name=np.array(cols[2], dtype=np.int32),
            start=np.array(cols[3], dtype=np.float64),
            end=np.array(cols[4], dtype=np.float64),
            flags=np.array(cols[5], dtype=np.int8),
            names=np.array(self.names, dtype=str),
            counts=np.array(json.dumps(dict(self.counts))),
        )


_ABSENT = object()


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Self time of every synchronous span.

    A span's self time is its duration minus the part of its interval
    that its (synchronous) child spans cover; overlapping children are
    merged first, and each child is clipped to the parent's interval.
    Coroutine spans get no entry and cover nothing.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    own: dict[int, tuple[float, float]] = {}
    for sid, parent, _name, start, end, flags in spans:
        if flags & ASYNC:
            continue
        own[sid] = (start, end)
        if parent != ROOT:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for sid, (start, end) in own.items():
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[sid] = (end - start) - covered
    return out


def summarize(spans, names: list[str]) -> dict:
    """Per-name and per-layer totals over a list of spans.

    Returns ``{"busy": {name: s}, "self": {name: s}, "calls": {name: n},
    "layer_busy": {layer: s}, "layer_self": {layer: s},
    "wait": {name: s}}``.  ``busy`` counts a name's outermost spans only,
    so recursion is not double counted; ``layer_busy`` likewise counts a
    layer's outermost spans.  ``wait`` sums coroutine spans.
    """
    selfs = self_times(spans)
    busy: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    layer_busy: Counter = Counter()
    layer_self: Counter = Counter()
    wait: Counter = Counter()
    for sid, _parent, ix, start, end, flags in spans:
        name = names[ix]
        calls[name] += 1
        if flags & ASYNC:
            wait[name] += end - start
            continue
        if not flags & NESTED_NAME:
            busy[name] += end - start
        if not flags & NESTED_LAYER:
            layer_busy[layer_of(name)] += end - start
        own[name] += selfs[sid]
        layer_self[layer_of(name)] += selfs[sid]
    return {"busy": busy, "self": own, "calls": calls,
            "layer_busy": layer_busy, "layer_self": layer_self,
            "wait": wait}
