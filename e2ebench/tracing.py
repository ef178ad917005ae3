"""In-memory span recording around the public calls into each layer.

A :class:`Tracer` records spans — a name, a start, an end, the span that
caused it, and a trace id (one lookup, one micro-batch or one epoch) —
into plain lists and writes them out once, when the run ends.  Spans
come from two sources:

* explicit spans the workload modules open around their own calls
  (:meth:`Tracer.span`, :meth:`Tracer.record` for awaited lookups whose
  start and end happen on the event loop);
* wrappers installed on the program's public functions and methods for
  the duration of a traced phase (:meth:`Tracer.patch`,
  :meth:`Tracer.patch_everywhere`), removed again by :meth:`Tracer.restore`.

Spans nest per thread, so a span's *self time* is its duration minus the
time its direct children cover; over a single-threaded phase the self
times of all spans add up to the duration of the root spans, which is
what :func:`reconcile` checks.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Relative tolerance of the span-tree identity (self times sum to roots).
IDENTITY_TOLERANCE = 1e-6
#: Share of a traced phase's wall time its root spans must cover.
COVERAGE_TOLERANCE = 0.05


class Tracer:
    """Span recorder; cheap enough to wrap per-SST calls on a hot path."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ids: list[int] = []
        self.sizes: list[int] = []
        self.trace_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, size: int = 0) -> int:
        """Open a span under the innermost open span of this thread."""
        stack = self._stack()
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.ids.append(self.trace_id)
            self.sizes.append(size)
            self.ends.append(float("nan"))
            self.starts.append(perf_counter())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, size: int = 0, trace_id: int | None = None):
        if trace_id is not None:
            self.trace_id = trace_id
        index = self.begin(name, size)
        try:
            yield index
        finally:
            self.end(index)

    def record(self, name: str, start: float, end: float, trace_id: int, size: int = 1) -> None:
        """Add a finished root span (an awaited lookup timed by its caller)."""
        with self._lock:
            self.names.append(name)
            self.parents.append(-1)
            self.ids.append(trace_id)
            self.sizes.append(size)
            self.starts.append(start)
            self.ends.append(end)

    # ------------------------------------------------------------------ #
    # Wrapping the program's public calls                                #
    # ------------------------------------------------------------------ #

    def wrap(self, func, name: str, size=None):
        """``func`` with a span around every call; ``size(*args)`` sizes it."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name, size(*args) if size is not None else 0)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a traced wrapper."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, self.wrap(original, name, size))

    def patch_everywhere(self, func, name: str, size=None) -> None:
        """Trace ``func`` under every name a loaded ``repro`` module binds it to."""
        traced = self.wrap(func, name, size)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, func))
                    setattr(module, attr, traced)

    def restore(self) -> None:
        """Undo every patch, newest first (inherited attributes are removed)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def patched(self, installs):
        """Install ``installs()`` for the body of the ``with``, then restore."""
        installs()
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------ #
    # Analysis                                                           #
    # ------------------------------------------------------------------ #

    def arrays(self, first: int = 0, last: int | None = None) -> dict:
        """Spans ``[first, last)`` as numpy arrays, with self times."""
        last = len(self.names) if last is None else last
        names = np.array(self.names[first:last], dtype=object)
        starts = np.array(self.starts[first:last], dtype=np.float64)
        ends = np.array(self.ends[first:last], dtype=np.float64)
        parents = np.array(self.parents[first:last], dtype=np.int64)
        durations = ends - starts
        child_time = np.zeros(durations.size)
        inside = parents >= first
        np.add.at(child_time, parents[inside] - first, durations[inside])
        return {
            "names": names,
            "starts": starts,
            "durations": durations,
            "self": durations - child_time,
            "roots": parents < first,
            "sizes": np.array(self.sizes[first:last], dtype=np.int64),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON lines: a header naming the fields, then one
        ``[name, start, end, parent, id, size]`` array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start", "end", "parent", "id", "size"]}))
            handle.write("\n")
            rows = zip(self.names, self.starts, self.ends, self.parents, self.ids, self.sizes)
            for row in rows:
                handle.write(json.dumps(row) + "\n")


def layer_table(spans: dict) -> dict:
    """Per span name: calls, total duration, self time, sizes, durations."""
    table = {}
    for name in sorted(set(spans["names"].tolist())):
        mask = spans["names"] == name
        table[name] = {
            "calls": int(mask.sum()),
            "total_s": float(spans["durations"][mask].sum()),
            "self_s": float(spans["self"][mask].sum()),
            "size": int(spans["sizes"][mask].sum()),
            "durations": spans["durations"][mask],
        }
    return table


def reconcile(spans: dict, wall_s: float) -> dict:
    """Check a single-threaded traced phase against its measured wall time.

    The span tree must be consistent (every self time non-negative, self
    times summing to the root durations) and the root spans must cover
    the phase's wall time to within :data:`COVERAGE_TOLERANCE`.
    """
    root_total = float(spans["durations"][spans["roots"]].sum())
    self_total = float(spans["self"].sum())
    identity_error = abs(self_total - root_total) / max(root_total, 1e-12)
    coverage = root_total / wall_s if wall_s > 0 else 0.0
    min_self = float(spans["self"].min()) if spans["self"].size else 0.0
    return {
        "wall_s": wall_s,
        "root_total_s": root_total,
        "self_total_s": self_total,
        "identity_error": identity_error,
        "coverage": coverage,
        "min_self_s": min_self,
        "reconciled": bool(
            identity_error <= IDENTITY_TOLERANCE
            and min_self >= -1e-6
            and abs(1.0 - coverage) <= COVERAGE_TOLERANCE
        ),
    }
