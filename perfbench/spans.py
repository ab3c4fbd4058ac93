"""The benchmark's own span recorder.

A span is one timed call into a layer of the program, recorded from
the benchmark's side of the boundary: name, start, end, the span that
was open when it began (its parent) and the id of the operation it
belongs to.  Spans stay in memory and are written out once, when the
run ends.  Timestamps are ``time.perf_counter()`` seconds.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe in-memory span recorder.

    Each thread keeps its own stack of open spans, so spans opened by
    concurrent client threads nest correctly; a root span opened with
    no operation id starts a new operation.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
            op = parent.op if parent is not None else next(self._ops)
        current = Span(span_id, parent.id if parent else None, op, name,
                       time.perf_counter(), attrs=attrs)
        stack.append(current)
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(current)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for span in sorted(self.spans, key=lambda s: s.start):
                stream.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: Dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        clipped = [(max(child.start, span.start), min(child.end, span.end))
                   for child in children.get(span.id, ())]
        result[span.id] = span.duration - _covered(
            [(a, b) for a, b in clipped if b > a])
    return result


def descendants(spans: List[Span], root_ids) -> List[Span]:
    """The spans under (and including) the given root span ids."""
    by_parent: Dict[Optional[int], list] = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    found, frontier = [], [s for s in spans if s.id in set(root_ids)]
    while frontier:
        span = frontier.pop()
        found.append(span)
        frontier.extend(by_parent.get(span.id, ()))
    return found
