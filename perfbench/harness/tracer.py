"""In-memory span tracing from outside the program.

A :class:`Tracer` wraps synchronous entry points of the layers under test
(instance methods via subclasses, class methods via :meth:`Tracer.patch`)
and records one span per call: name, start, end and the index of the
enclosing span. Nesting follows the call stack: every wrapped entry point
is synchronous and the whole benchmark runs on one thread, so a span
opened inside another one's call is its child.

Self time (span duration minus the part its direct children cover) is
aggregated per span name as calls finish, so the per-layer table is exact
however many spans are kept. At most :data:`SPAN_CAPACITY` spans are retained for
the written span file; the rest are counted as dropped.

Wrappers check :attr:`Tracer.enabled` on every call, so a run can flip
tracing on and off between measurement windows; with it off a wrapper is
one attribute read and a plain call.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

_clock = time.perf_counter

#: Spans kept for the span file; later ones only count towards the totals.
SPAN_CAPACITY = 200_000

#: One retained span: (name, start, end, parent index or -1).
Span = Tuple[str, float, float, int]


class LayerTotals:
    """Calls and self seconds of one span name."""

    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Span stack, bounded span store and per-name self-time totals."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.dropped = 0
        self.totals: Dict[str, LayerTotals] = {}
        # Open frames: [name, start, child seconds, parent index]
        self._stack: List[list] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        # Reserve this span's index now so children can point at it.
        index = len(self.spans) if len(self.spans) < SPAN_CAPACITY else -1
        if index >= 0:
            self.spans.append((name, 0.0, 0.0, parent))
        frame = [name, 0.0, 0.0, index]
        stack.append(frame)
        start = frame[1] = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            totals = self.totals.get(name)
            if totals is None:
                totals = self.totals[name] = LayerTotals()
            totals.calls += 1
            totals.self_s += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if index >= 0:
                self.spans[index] = (name, start, end, parent)
            else:
                self.dropped += 1

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A traced stand-in for *fn*."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def patch(self, owner: Any, attribute: str, name: str) -> Iterator[None]:
        """Trace ``owner.attribute`` (a class or module) while inside."""
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self.wrap(name, original))
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.totals[n].calls for n in names if n in self.totals)

    def self_seconds(self, *names: str) -> float:
        return sum(self.totals[n].self_s for n in names if n in self.totals)

    def self_time_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds and microseconds per call."""
        return {
            name: {
                "calls": totals.calls,
                "self_s": totals.self_s,
                "self_us_per_call": (
                    1e6 * totals.self_s / totals.calls if totals.calls else 0.0
                ),
            }
            for name, totals in sorted(
                self.totals.items(), key=lambda item: -item[1].self_s
            )
        }

    def write_spans(self, path: str) -> int:
        """Write retained spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": None if parent < 0 else parent,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)
