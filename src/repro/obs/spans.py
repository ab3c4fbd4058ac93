"""Pipeline spans: nested, timed, attributed — and dogfood-ready.

The paper's thesis is that load imbalance you cannot see cannot be
fixed; this module gives the tool's *own* parallel machinery the same
eyes it turns on traced programs.  A :func:`span` wraps one pipeline
stage (reading a chunk, accumulating a shard, computing a dispersion
matrix, running a serve job) and records its wall-clock interval plus
free-form attributes.  Collected spans feed two consumers:

* the per-stage timing table behind ``--profile``;
* :mod:`repro.obs.selftrace`, which serializes spans into the repro
  trace format itself (workers as ranks, stages as regions), so
  ``repro analyze`` can diagnose imbalance in our own worker fleets.

Design constraints, in order:

1. **Zero overhead when disabled.**  ``span(...)`` with recording off
   returns a shared no-op context manager — one global load, one
   attribute check, no allocation.  Hot loops keep their span call
   sites unconditionally; the ``bench_obs`` guard holds the disabled
   cost under 2 %.
2. **Thread-safe.**  All appends take one lock; worker identity is a
   thread-local label so concurrent serve jobs attribute their spans
   correctly.
3. **Process-safe.**  :func:`fanout` is the one process pool: it runs
   each task in a worker that discards the spans it inherited through
   fork, records only while the parent records, and returns the task's
   spans with its result, so the parent's recorder gains exactly the
   workers' spans — no side channel, nothing duplicated.

Timestamps are ``time.perf_counter()`` values: on the platforms we
support that clock is system-wide (``CLOCK_MONOTONIC`` on Linux), so
parent and worker spans share a timeline without synchronization.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..errors import ReproError

#: Worker label recorded when neither the span nor the thread says
#: otherwise — the orchestrating process itself.
DEFAULT_WORKER = "main"

#: Stage name of the interpreter start-up span (``python -m repro``
#: up to command dispatch); the timing table lists it first.
IMPORT_STAGE = "import"


@dataclass(frozen=True)
class Span:
    """One timed interval of one pipeline stage.

    ``name`` becomes the region and ``activity`` the activity of the
    corresponding self-trace event; ``worker`` is the logical executor
    (shard index, process slot, job thread) that becomes a rank.
    """

    name: str
    begin: float
    end: float
    worker: str = DEFAULT_WORKER
    activity: str = "computation"
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.begin

    def to_dict(self) -> dict:
        return {"name": self.name, "begin": self.begin, "end": self.end,
                "worker": self.worker, "activity": self.activity,
                "attributes": self.attributes}

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(name=str(payload["name"]),
                   begin=float(payload["begin"]),
                   end=float(payload["end"]),
                   worker=str(payload.get("worker", DEFAULT_WORKER)),
                   activity=str(payload.get("activity", "computation")),
                   attributes=dict(payload.get("attributes") or {}))


class _Recorder:
    """The process-wide span sink (exactly one per process)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()
        self.enabled = False

    # -- recording -----------------------------------------------------
    def append(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def extend(self, spans: Sequence[Span]) -> None:
        with self._lock:
            self._spans.extend(spans)

    def take(self) -> List[Span]:
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    # -- worker labels -------------------------------------------------
    @property
    def worker(self) -> str:
        return getattr(self._local, "worker", DEFAULT_WORKER)

    def set_worker(self, label: Optional[str]) -> str:
        previous = self.worker
        self._local.worker = DEFAULT_WORKER if label is None else str(label)
        return previous


_RECORDER = _Recorder()


def is_enabled() -> bool:
    """True while this process is recording spans."""
    return _RECORDER.enabled


def enable() -> None:
    """Start recording spans in this process (idempotent).

    Spans recorded by :func:`fanout` workers come home with the task
    results, so nothing beyond this process needs setting up.
    """
    _RECORDER.enabled = True


def disable() -> None:
    """Stop recording and drop anything not yet drained."""
    _RECORDER.enabled = False
    _RECORDER.take()


def set_worker(label: Optional[str]) -> str:
    """Set this thread's worker label; returns the previous one."""
    return _RECORDER.set_worker(label)


def current_worker() -> str:
    """The worker label spans on this thread record by default."""
    return _RECORDER.worker


class _NoopSpan:
    """The shared disabled-path span: enter/exit/set do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _LiveSpan:
    """A recording span; created only while recording is enabled."""

    __slots__ = ("_name", "_worker", "_activity", "_attributes", "_begin")

    def __init__(self, name: str, worker: Optional[str], activity: str,
                 attributes: dict) -> None:
        self._name = name
        self._worker = worker
        self._activity = activity
        self._attributes = attributes

    def __enter__(self) -> "_LiveSpan":
        self._begin = time.perf_counter()
        return self

    def set(self, **attributes) -> "_LiveSpan":
        """Attach attributes discovered mid-span (chunk counts, ...)."""
        self._attributes.update(attributes)
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter()
        recorder = _RECORDER
        if recorder.enabled:     # a drain/disable may have raced us
            worker = self._worker if self._worker is not None \
                else recorder.worker
            recorder.append(Span(
                name=self._name, begin=self._begin, end=end,
                worker=worker, activity=self._activity,
                attributes=self._attributes))
        return False


def record(item: Span) -> None:
    """Record a span timed elsewhere, such as start-up, which ends
    before recording can be enabled."""
    if _RECORDER.enabled:
        _RECORDER.append(item)


def span(name: str, *, worker: Optional[str] = None,
         activity: str = "computation", **attributes):
    """A context manager timing one pipeline stage.

    Disabled recording returns a shared no-op — safe (and nearly free)
    to leave on hot paths.  ``worker`` defaults to the thread's label
    (see :func:`set_worker`); ``activity`` classifies the span within
    its stage the way trace activities classify events within regions.
    """
    if not _RECORDER.enabled:
        return _NOOP
    return _LiveSpan(name, worker, activity, attributes)


# ----------------------------------------------------------------------
# Worker fan-out
# ----------------------------------------------------------------------
@contextmanager
def worker_scope(label: Optional[str] = None) -> Iterator[None]:
    """Label this thread's spans ``label`` for the duration of a task;
    the previous label is restored afterwards."""
    previous = _RECORDER.set_worker(label)
    try:
        yield
    finally:
        _RECORDER.set_worker(previous)


def _run_in_worker(fn: Callable, recording: bool, task):
    """One task inside a pool process: returns ``(result, spans)``."""
    recorder = _RECORDER
    # A forked child inherits the parent's undrained spans; they are
    # the parent's to report, not this task's.
    recorder.take()
    recorder.enabled = recording
    result = fn(task)
    return result, recorder.take()


def fanout(fn: Callable, tasks: Sequence, jobs: Optional[int] = None
           ) -> list:
    """``[fn(task) for task in tasks]`` over up to ``jobs`` processes.

    ``jobs`` defaults to one per CPU and never exceeds the task count;
    a single job runs the tasks inline.  ``fn`` must be a module-level
    function, since the pool pickles it.  Spans the workers record
    reach this process's recorder, so :func:`drain` returns them.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(tasks)))
    if jobs == 1:
        return [fn(task) for task in tasks]
    import multiprocessing
    # Fork where the platform offers it: a forkserver or spawn worker
    # re-imports the package, which costs about a second per run.
    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else None)
    runner = partial(_run_in_worker, fn, _RECORDER.enabled)
    with multiprocessing.get_context(method).Pool(jobs) as pool:
        pairs = pool.map(runner, tasks)
    if _RECORDER.enabled:        # a drain/disable may have raced us
        for _, spans in pairs:
            _RECORDER.extend(spans)
    return [result for result, _ in pairs]


def drain() -> List[Span]:
    """All spans recorded so far, in begin-time order; clears them.

    Spans from :func:`fanout` workers are included: they were appended
    here when their tasks returned.
    """
    collected = _RECORDER.take()
    collected.sort(key=lambda item: item.begin)
    return collected


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageSummary:
    """Aggregate of every span sharing one stage name."""

    name: str
    count: int
    total: float
    mean: float
    largest: float
    workers: int


def summarize_spans(spans: Sequence[Span]) -> List[StageSummary]:
    """Per-stage aggregates: the import stage first, then the
    largest total first."""
    grouped: Dict[str, List[Span]] = {}
    for item in spans:
        grouped.setdefault(item.name, []).append(item)
    summaries = []
    for name, members in grouped.items():
        total = sum(member.duration for member in members)
        summaries.append(StageSummary(
            name=name, count=len(members), total=total,
            mean=total / len(members),
            largest=max(member.duration for member in members),
            workers=len({member.worker for member in members})))
    summaries.sort(key=lambda item: (item.name != IMPORT_STAGE,
                                     -item.total, item.name))
    return summaries


def render_span_table(spans: Sequence[Span]) -> str:
    """The ``--profile`` per-stage timing table."""
    if not spans:
        raise ReproError("no spans were recorded")
    from ..viz import format_table
    wall = max(item.end for item in spans) - min(item.begin
                                                 for item in spans)
    rows = []
    for summary in summarize_spans(spans):
        share = (summary.total / wall * 100.0) if wall > 0 else 0.0
        rows.append([
            summary.name, str(summary.count), str(summary.workers),
            f"{summary.total * 1e3:.2f}", f"{summary.mean * 1e3:.3f}",
            f"{summary.largest * 1e3:.3f}", f"{share:.1f}%",
        ])
    return format_table(
        ["stage", "spans", "workers", "total (ms)", "mean (ms)",
         "max (ms)", "of wall"],
        rows,
        title=f"Pipeline profile: {len(spans)} spans over "
              f"{wall * 1e3:.1f} ms of wall clock")


__all__ = ["DEFAULT_WORKER", "IMPORT_STAGE", "Span", "StageSummary",
           "current_worker", "disable", "drain", "enable", "fanout",
           "is_enabled", "record", "render_span_table", "set_worker",
           "span", "summarize_spans", "worker_scope"]
