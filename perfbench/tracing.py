"""In-memory spans around calls into the program's layers.

The traced run wraps public entry points of the layers under test (a
method on a class, or a module-level function wherever modules bound it)
from the benchmark's own files, records one span per call, and removes
the wrappers afterwards.  Spans carry name, start, end, parent span and
the request (sample) id; they stay in memory until the run writes them
out.  The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "name", "request", "start", "end", "attrs",
                 "child_time")

    def __init__(self, span_id, parent, name, request, start, attrs):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.request = request
        self.start = start
        self.end = None
        self.attrs = attrs
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "request": self.request, "start": self.start,
                "end": self.end, "self": self.self_time, **self.attrs}


class Tracer:
    """Span recorder with a call stack; timestamps come from ``clock``.

    ``clock`` should be :meth:`pairing.Pairer.now`, so reference-kernel
    runs between samples never land inside a span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request = None
        self.attrs: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.request,
                    self.clock(), {**self.attrs, **attrs})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_time += span.duration

    # -- wrapping --------------------------------------------------------
    def wrap_method(self, cls, attr: str, name: str, label=None) -> None:
        """Record a span around every call of ``cls.attr``.

        ``label(self, *args, **kwargs)`` may return extra span attributes.
        """
        original = cls.__dict__[attr]
        binder = type(original) \
            if isinstance(original, (classmethod, staticmethod)) else None
        function = original.__func__ if binder is not None else original
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            attrs = label(*args, **kwargs) if label is not None else {}
            span = tracer.begin(name, **attrs)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(span)

        setattr(cls, attr, binder(wrapper) if binder is not None else wrapper)
        self._patches.append((cls, attr, original))

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Record a span around ``module.attr`` everywhere it is bound.

        Modules that imported the function by name hold their own
        reference, so every loaded ``repro`` module binding the same
        object is patched too.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original))

    def unwrap(self) -> None:
        """Remove every wrapper, restoring the original objects."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------
    def orphans(self) -> list[Span]:
        """Spans whose parent is missing, or that never ended."""
        ids = {span.id for span in self.spans}
        return [span for span in self.spans
                if span.end is None
                or (span.parent is not None and span.parent not in ids)]

    def select(self, name: str, **attrs) -> list[Span]:
        return [span for span in self.spans if span.name == name
                and all(span.attrs.get(k) == v for k, v in attrs.items())]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")


def layer_table(tracer: Tracer, root: str, ratios: dict) -> tuple[list, dict]:
    """Per-layer self time under the ``root`` sample spans.

    ``ratios`` maps a request id to its reference-pairing ratio, so layer
    times are paired exactly like the end-to-end samples they sit in.
    Returns ``(rows, totals)``: rows of ``(layer, calls, self_ms, share)``
    sorted by self time, and the end-to-end, per-layer-sum and
    unaccounted totals in ms.
    """
    by_id = {span.id: span for span in tracer.spans}
    roots = {span.id for span in tracer.spans if span.name == root}

    def root_of(span):
        while span.parent is not None:
            span = by_id[span.parent]
        return span

    e2e = sum(by_id[i].duration * ratios[by_id[i].request] for i in roots)
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        if span.id in roots or root_of(span).id not in roots:
            continue
        ratio = ratios[span.request]
        calls[span.name] += 1
        self_ms[span.name] += span.self_time * ratio * 1e3
    e2e_ms = e2e * 1e3
    covered = sum(self_ms.values())
    rows = sorted(((name, calls[name], ms, ms / e2e_ms)
                   for name, ms in self_ms.items()),
                  key=lambda row: -row[2])
    unaccounted = e2e_ms - covered
    return rows, {"e2e_ms": e2e_ms, "layers_ms": covered,
                  "unaccounted_ms": unaccounted,
                  "unaccounted_share": unaccounted / e2e_ms}


def format_layer_table(workload: str, rows, totals) -> str:
    lines = [f"per-layer self time: {workload}",
             f"  {'layer':<28}{'calls':>8}{'self ms':>12}{'share':>9}"]
    for name, count, ms, share in rows:
        lines.append(f"  {name:<28}{count:>8}{ms:>12.2f}{share:>8.1%}")
    lines.append(f"  {'sum of layers':<36}{totals['layers_ms']:>12.2f}"
                 f"{totals['layers_ms'] / totals['e2e_ms']:>8.1%}")
    lines.append(f"  {'unaccounted':<36}{totals['unaccounted_ms']:>12.2f}"
                 f"{totals['unaccounted_share']:>8.1%}")
    lines.append(f"  {'end to end':<36}{totals['e2e_ms']:>12.2f}"
                 f"{1.0:>8.1%}")
    return "\n".join(lines)
