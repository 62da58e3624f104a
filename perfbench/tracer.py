"""Span tracer that wraps the program's public functions from outside.

Each wrapped function records one span per call: name, start, end, id and
the id of the span that was open when it was called. Wrappers are installed
on the module or class attribute, so every caller that looks the name up at
call time (``sequence.generate`` from ``cli`` and ``theorems``,
``gf2poly.gcd`` from inside ``is_irreducible``) goes through them and nested
calls get parented spans. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


@dataclass(frozen=True)
class Target:
    """One attribute to wrap. ``count`` maps (args, result) to a number of
    work items added to the counter ``name + "." + unit``; ``raises`` lists
    exception types counted as ``name + ".skipped"`` and re-raised."""

    owner: object
    attr: str
    name: str
    unit: str | None = None
    count: Callable | None = None
    raises: tuple = ()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, target: Target, fn):
        name = target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except target.raises:
                self.counts[name + ".skipped"] += 1
                raise
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end))
            if target.count is not None:
                self.counts[f"{name}.{target.unit}"] += target.count(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Swap every target for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for t in targets:
                original = t.owner.__dict__[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Per-name calls, total time and self time.

    A span's self time is its duration minus the durations of its direct
    children. Calls are single-threaded and nested, so children never
    overlap one another and lie inside their parent's interval.
    """
    child_time: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    stats: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = stats.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = s.end - s.start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[s.id]
    return stats
