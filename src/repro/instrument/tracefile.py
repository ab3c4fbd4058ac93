"""Trace file format: newline-delimited JSON with a header record.

Post-mortem analysis needs traces on disk.  The format is deliberately
simple and self-describing:

* line 1 — header object: ``{"format": "repro-trace", "version": 1,
  "ranks": N, "events": M}``;
* lines 2..M+1 — one event object per line with keys ``r`` (rank),
  ``g`` (region), ``a`` (activity), ``b`` (begin), ``e`` (end),
  ``k`` (kind), ``n`` (nbytes), ``p`` (partner).

Files ending in ``.gz`` are transparently gzip-compressed.  This module
is the only JSONL decoder:

* :func:`iter_trace` yields *chunks* (lists) of at most ``chunk_size``
  events, so peak memory is bounded by the chunk size however long the
  trace is;
* :func:`iter_trace_span` iterates one byte range of an uncompressed
  file — the shard reader of :mod:`repro.shards`;
* :func:`read_trace` is the concatenation of :func:`iter_trace`'s
  chunks, so the eager and the streaming paths decode identically.

Reading validates the header and every event.  A corrupt or truncated
file is *salvaged* by default: the valid prefix of events is kept and a
:class:`~repro.errors.TraceWarning` reports what was lost — a run that
died mid-write should still be analyzable.  ``on_error="raise"``
restores the strict behaviour, and a file whose header is unreadable
(nothing salvageable) raises :class:`~repro.errors.TraceError` in both
modes.  In strict mode an iterator raises at the chunk that hits the
damage, after the earlier chunks were yielded; :func:`read_trace`
buffers, so its caller never sees a partial prefix.

Blank (whitespace-only) lines are not damage: they are skipped in both
modes and do not count against the header's promised event count,
mirroring the binary reader's tolerance for trailing NUL padding.
"""

from __future__ import annotations

import gzip
import json
import warnings
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from ..errors import TraceError, TraceWarning
from .events import TraceEvent
from .tracer import Tracer

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1

#: Default number of events per yielded chunk.
DEFAULT_CHUNK_SIZE = 8192

PathLike = Union[str, Path]
EventChunk = List[TraceEvent]


def _open(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_trace(path: PathLike, events: Iterable[TraceEvent]) -> int:
    """Write events to ``path``; returns the number written."""
    event_list = list(events)
    ranks = max((event.rank for event in event_list), default=-1) + 1
    target = Path(path)
    with _open(target, "w") as stream:
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
                  "ranks": ranks, "events": len(event_list)}
        stream.write(json.dumps(header) + "\n")
        for event in event_list:
            record = {"r": event.rank, "g": event.region, "a": event.activity,
                      "b": event.begin, "e": event.end, "k": event.kind,
                      "n": event.nbytes, "p": event.partner}
            stream.write(json.dumps(record) + "\n")
    return len(event_list)


def write_tracer(path: PathLike, tracer: Tracer) -> int:
    """Write everything a tracer recorded."""
    return write_trace(path, tracer.events)


# ----------------------------------------------------------------------
# Reader plumbing shared with the binary format
# ----------------------------------------------------------------------
def _require_file(path: PathLike) -> Path:
    source = Path(path)
    if not source.exists():
        raise TraceError(f"trace file {source} does not exist")
    return source


def _checked_source(path: PathLike, on_error: str,
                    chunk_size: int) -> Path:
    """Validate a reader's arguments; returns the (existing) trace."""
    if on_error not in ("salvage", "raise"):
        raise TraceError(
            f"on_error must be 'salvage' or 'raise', got {on_error!r}")
    if chunk_size < 1:
        raise TraceError(f"chunk_size must be >= 1, got {chunk_size}")
    return _require_file(path)


def _stream_damage(source: Path, salvaged: int, reason: str,
                   on_error: str, in_span: bool = False) -> None:
    """Handle damage mid-stream: raise, or warn about the salvaged
    prefix.  A whole file damaged before its first event has nothing
    to salvage and raises in both modes; a shard's span may salvage
    nothing, since the other spans hold the rest of the trace."""
    if on_error == "raise" or (salvaged == 0 and not in_span):
        raise TraceError(f"trace {source}: {reason}")
    scope = " of the span" if in_span else ""
    warnings.warn(TraceWarning(
        f"trace {source}: {reason}; salvaged the first "
        f"{salvaged} event(s){scope}"), stacklevel=3)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _parse_header(source: Path, header_line: str) -> Optional[int]:
    """Validate the header line; returns the promised event count."""
    if not header_line:
        raise TraceError(f"trace file {source} is empty")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as error:
        raise TraceError(f"bad trace header: {error}") from error
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceError(
            f"not a {FORMAT_NAME} file (format={header.get('format')!r})"
            if isinstance(header, dict) else
            f"not a {FORMAT_NAME} file (header is not an object)")
    if header.get("version") != FORMAT_VERSION:
        raise TraceError(
            f"unsupported trace version {header.get('version')!r}")
    return header.get("events")


def _event_from_json(line) -> TraceEvent:
    record = json.loads(line)
    return TraceEvent(
        rank=int(record["r"]), region=str(record["g"]),
        activity=str(record["a"]), begin=float(record["b"]),
        end=float(record["e"]), kind=str(record["k"]),
        nbytes=int(record["n"]), partner=int(record["p"]))


#: What a damaged event line raises while it is decoded (ValueError
#: covers json.JSONDecodeError and UnicodeDecodeError).
_BAD_EVENT = (KeyError, TypeError, ValueError, TraceError)


def promised_events(path: PathLike) -> Optional[int]:
    """The event count the header of an uncompressed trace promises
    (``None`` when it promises none) — what the sharded driver checks
    its merged total against, since no span reader sees the whole
    file."""
    source = _require_file(path)
    with open(source, "rb") as stream:
        return _parse_header(
            source, stream.readline().decode("utf-8", errors="replace"))


def iter_trace(path: PathLike, chunk_size: int = DEFAULT_CHUNK_SIZE,
               on_error: str = "salvage") -> Iterator[EventChunk]:
    """Iterate a JSONL trace (optionally gzipped) in bounded chunks.

    Yields lists of at most ``chunk_size`` events, in file order.
    ``on_error`` controls what happens when the file is damaged past its
    header: ``"salvage"`` (the default) keeps the valid prefix of events
    and issues a :class:`~repro.errors.TraceWarning`; ``"raise"`` turns
    any damage into a :class:`~repro.errors.TraceError`.  A missing
    file, an unreadable header or a damaged file with no salvageable
    events raises in both modes.
    """
    source = _checked_source(path, on_error, chunk_size)
    chunk: EventChunk = []
    yielded = 0
    expected = None
    damaged = False
    try:
        with _open(source, "r") as stream:
            expected = _parse_header(source, stream.readline())
            for line_number, line in enumerate(stream, start=2):
                if not line.strip():
                    continue
                try:
                    chunk.append(_event_from_json(line))
                except _BAD_EVENT as error:
                    _stream_damage(
                        source, yielded + len(chunk),
                        f"bad event at line {line_number}: {error}",
                        on_error)
                    damaged = True
                    break
                if len(chunk) == chunk_size:
                    yielded += len(chunk)
                    yield chunk
                    chunk = []
    except (EOFError, OSError, UnicodeDecodeError) as error:
        # A truncated gzip stream surfaces as EOFError (or BadGzipFile,
        # an OSError) anywhere during iteration; overwritten bytes can
        # also break the UTF-8 decoding itself — whatever decoded
        # cleanly before the damage is the salvageable prefix.
        _stream_damage(source, yielded + len(chunk),
                       f"damaged stream: {error}", on_error)
        damaged = True
    if chunk:
        yielded += len(chunk)
        yield chunk
    if not damaged and expected is not None and expected != yielded:
        _stream_damage(
            source, yielded,
            f"truncated: header promises {expected} events, "
            f"found {yielded}", on_error)


def iter_trace_span(path: PathLike, start: int, stop: int,
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    on_error: str = "salvage") -> Iterator[EventChunk]:
    """Iterate the events of one byte range of an *uncompressed* JSONL
    trace.

    An event line belongs to the span iff its first byte lies in
    ``[start, stop)``; spans that tile the file therefore partition the
    events exactly once, regardless of where the cut points fall inside
    lines.  ``start == 0`` validates and skips the header line.  An
    empty span is fine (no events), so the shard planner need not
    inspect line boundaries.  Gzip members are not seekable mid-stream;
    use :func:`iter_trace` for ``.gz`` files.
    """
    source = _checked_source(path, on_error, chunk_size)
    if source.suffix == ".gz":
        raise TraceError(
            f"trace {source}: byte-range spans require an uncompressed "
            "trace (gzip streams are not seekable)")
    if start < 0 or stop < start:
        raise TraceError(f"invalid byte span [{start}, {stop})")

    chunk: EventChunk = []
    yielded = 0
    with open(source, "rb") as stream:
        if start == 0:
            _parse_header(source, stream.readline().decode(
                "utf-8", errors="replace"))
        else:
            # Discard the (possibly partial) line containing start-1;
            # the next line starts at the first line boundary >= start.
            stream.seek(start - 1)
            stream.readline()
        while True:
            offset = stream.tell()
            if offset >= stop:
                break
            line = stream.readline()
            if not line:
                break
            if not line.strip():
                continue
            try:
                chunk.append(_event_from_json(line.decode("utf-8")))
            except _BAD_EVENT as error:
                _stream_damage(source, yielded + len(chunk),
                               f"bad event at byte {offset}: {error}",
                               on_error, in_span=True)
                break
            if len(chunk) == chunk_size:
                yielded += len(chunk)
                yield chunk
                chunk = []
    if chunk:
        yield chunk


def read_trace(path: PathLike,
               on_error: str = "salvage") -> List[TraceEvent]:
    """Read a trace file back into a list of events.

    The chunks of :func:`iter_trace` concatenated, with the same
    salvage/raise behaviour; a strict read that hits damage raises
    without returning a partial prefix.
    """
    events: List[TraceEvent] = []
    for chunk in iter_trace(path, on_error=on_error):
        events.extend(chunk)
    return events


def read_tracer(path: PathLike, on_error: str = "salvage") -> Tracer:
    """Read a trace file into a fresh :class:`Tracer`."""
    tracer = Tracer()
    tracer.extend(read_trace(path, on_error=on_error))
    return tracer
