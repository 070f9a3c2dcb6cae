"""In-memory spans around calls into the coxsub modules.

The benchmark never edits the package: it swaps a module attribute (the
name a caller looks up at call time) for a wrapper that records a span,
and restores the original when the traced region ends.  Spans are kept in
memory and written out once, when the run ends.

A span's self time is its duration minus the time covered by its child
spans; calls are nested on one thread, so the children's durations add up
without overlap.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.captured: dict = {}
        self._stack: list[dict] = []
        self._op = 0

    def new_op(self) -> int:
        """Start a new operation; the spans it records share its id."""
        self._op += 1
        return self._op

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "op": self._op,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
            "children_s": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent["children_s"] += rec["end"] - rec["start"]

    def attr(self, key: str, default=None):
        """Nearest enclosing span's value for ``key``."""
        for rec in reversed(self._stack):
            if key in rec["attrs"]:
                return rec["attrs"][key]
        return default

    def wrap(self, fn, name, on_result=None, capture=False):
        """Wrap ``fn`` in a span.

        ``name`` is a string or a callable ``(args, kwargs) -> str | None``;
        ``None`` records no span for that call.  ``on_result`` sees
        ``(result, args, kwargs, span)`` and may add attributes to the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            with self.span(label) as rec:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args, kwargs, rec)
            if capture:
                self.captured[label] = result
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Install ``(owner, attribute, wrapper)`` triples, undo them on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------ summaries

    def self_time(self, rec: dict) -> float:
        return (rec["end"] - rec["start"]) - rec["children_s"]

    def median_self(self, name: str) -> float:
        """Median self time per call of ``name``; 0.0 when never called."""
        vals = [self.self_time(s) for s in self.spans if s["name"] == name]
        return statistics.median(vals) if vals else 0.0

    def attr_values(self, name: str, key: str) -> list:
        return [s["attrs"][key] for s in self.spans if s["name"] == name and key in s["attrs"]]

    def records(self) -> list[dict]:
        """Spans as plain rows, with self time, for the trace file."""
        return [
            {
                "id": s["id"],
                "op": s["op"],
                "name": s["name"],
                "parent": s["parent"],
                "start": s["start"],
                "end": s["end"],
                "self_s": self.self_time(s),
                **({"attrs": s["attrs"]} if s["attrs"] else {}),
            }
            for s in self.spans
        ]
