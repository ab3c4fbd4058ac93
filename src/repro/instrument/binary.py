"""Binary trace format: compact fixed-record encoding.

JSONL traces are self-describing but bulky; long simulations produce
millions of events.  This module provides a second on-disk format with
fixed-size records (`struct`-packed), a string table for region and
activity names, and the same validation guarantees as the JSONL reader.

Layout (little-endian):

* header — magic ``b"RPTB"``, version ``u16``, rank count ``u32``,
  event count ``u64``, string-table length ``u32``;
* string table — the UTF-8 region and activity names, NUL-separated,
  referenced by index;
* events — one 37-byte record each:
  ``u32 rank, u16 region_id, u16 activity_id, f64 begin, f64 end,
  u8 kind_id, u64 nbytes, i32 partner`` (packed without padding).

:func:`iter_binary_trace` is the one decoder of the format: it reads
``chunk_size`` records at a time, so memory stays bounded however long
the trace is.  :func:`iter_binary_span` runs the same record loop over
one record range (the shard reader of :mod:`repro.shards`), and
:func:`read_binary_trace` is the concatenation of the chunks.
:func:`sniff_format` detects which reader a file needs;
:func:`read_any` dispatches, so tools accept either format.
"""

from __future__ import annotations

import struct
from functools import partial
from pathlib import Path
from typing import (Callable, Generator, Iterable, Iterator, List,
                    NamedTuple, Optional, Tuple)

from ..errors import TraceError
from .events import EVENT_KINDS, TraceEvent
from .tracefile import (DEFAULT_CHUNK_SIZE, EventChunk, PathLike,
                        _checked_source, _require_file, _stream_damage)
from .tracefile import read_trace as read_jsonl
from .tracer import Tracer

MAGIC = b"RPTB"
VERSION = 1

_HEADER = struct.Struct("<4sHIQI")
_RECORD = struct.Struct("<IHHddBQi")


def write_binary_trace(path: PathLike,
                       events: Iterable[TraceEvent]) -> int:
    """Write events in the binary format; returns the number written."""
    event_list = list(events)
    names: List[str] = []
    index = {}

    def intern(name: str) -> int:
        if name not in index:
            if len(names) >= 0xFFFF:
                raise TraceError("string table overflow (65535 names)")
            index[name] = len(names)
            names.append(name)
        return index[name]

    records = []
    for event in event_list:
        records.append(_RECORD.pack(
            event.rank, intern(event.region), intern(event.activity),
            event.begin, event.end, EVENT_KINDS.index(event.kind),
            event.nbytes, event.partner))
    table = b"\x00".join(name.encode("utf-8") for name in names)
    ranks = max((event.rank for event in event_list), default=-1) + 1
    with open(Path(path), "wb") as stream:
        stream.write(_HEADER.pack(MAGIC, VERSION, ranks,
                                  len(event_list), len(table)))
        stream.write(table)
        for record in records:
            stream.write(record)
    return len(event_list)


class _Preamble(NamedTuple):
    """Decoded header and string table of a binary trace."""

    count: int
    names: List[str]
    data_offset: int


def _read_preamble(source: Path, stream) -> _Preamble:
    """Decode the header and string table.  Without them no record can
    be decoded, so any damage here raises in both modes."""
    head = stream.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise TraceError(f"{source} is too short to be a binary trace")
    magic, version, _, count, table_length = _HEADER.unpack(head)
    if magic != MAGIC:
        raise TraceError(f"{source} is not a binary repro trace")
    if version != VERSION:
        raise TraceError(f"unsupported binary trace version {version}")
    table_bytes = stream.read(table_length)
    if len(table_bytes) != table_length:
        raise TraceError(f"{source} truncated inside the string table")
    try:
        names = ([part.decode("utf-8")
                  for part in table_bytes.split(b"\x00")]
                 if table_length else [])
    except UnicodeDecodeError as error:
        raise TraceError(f"corrupt string table: {error}") from error
    return _Preamble(count, names, _HEADER.size + table_length)


def _decode_record(record_index: int, fields: tuple,
                   names: List[str]) -> TraceEvent:
    """Build one record's event; raises :class:`TraceError` on any
    damage."""
    (rank, region_id, activity_id, begin, end, kind_id, nbytes,
     partner) = fields
    if region_id >= len(names) or activity_id >= len(names):
        raise TraceError(f"record {record_index}: name index out of range")
    if kind_id >= len(EVENT_KINDS):
        raise TraceError(f"record {record_index}: bad kind {kind_id}")
    try:
        return TraceEvent(
            rank=rank, region=names[region_id],
            activity=names[activity_id], begin=begin, end=end,
            kind=EVENT_KINDS[kind_id], nbytes=nbytes, partner=partner)
    except TraceError as error:
        raise TraceError(f"record {record_index}: {error}") from None


def _record_chunks(stream, names: List[str], first: int, count: int,
                   chunk_size: int, damage: Callable[[int, str], None]
                   ) -> Generator[EventChunk, None, Optional[int]]:
    """Decode the ``count`` records at the stream position (record
    ``first`` onwards), ``chunk_size`` at a time.

    A damaged record goes to ``damage(salvaged, reason)`` — which
    raises or warns — and ends the iteration after the valid prefix of
    its chunk; the generator then returns ``None``.  Otherwise it
    returns the number of records decoded, fewer than ``count`` when
    the file ends early.
    """
    decoded = 0
    while decoded < count:
        want = min(chunk_size, count - decoded)
        data = stream.read(want * _RECORD.size)
        whole = len(data) // _RECORD.size
        chunk: EventChunk = []
        records = _RECORD.iter_unpack(
            memoryview(data)[:whole * _RECORD.size])
        for position, fields in enumerate(records):
            try:
                chunk.append(_decode_record(first + decoded + position,
                                            fields, names))
            except TraceError as error:
                damage(decoded + position, str(error))
                if chunk:
                    yield chunk
                return None
        decoded += whole
        if chunk:
            yield chunk
        if whole < want:                # short read: file ends early
            break
    return decoded


def iter_binary_trace(path: PathLike,
                      chunk_size: int = DEFAULT_CHUNK_SIZE,
                      on_error: str = "salvage") -> Iterator[EventChunk]:
    """Iterate a binary trace in bounded chunks.

    Every record is validated.  ``on_error="salvage"`` (the default)
    tolerates a file truncated or corrupted inside the event records —
    the valid prefix is kept with a :class:`~repro.errors.TraceWarning`.
    Damage before the first record (header or string table) leaves
    nothing decodable and raises :class:`~repro.errors.TraceError` in
    both modes, as does ``on_error="raise"`` for any damage at all.

    Trailing NUL padding after the promised records (block-padded
    archival storage) is not damage: it is skipped in both modes, the
    binary counterpart of the blank lines the JSONL reader skips.
    """
    source = _checked_source(path, on_error, chunk_size)
    with open(source, "rb") as stream:
        preamble = _read_preamble(source, stream)
        decoded = yield from _record_chunks(
            stream, preamble.names, 0, preamble.count, chunk_size,
            partial(_stream_damage, source, on_error=on_error))
        if decoded is None:
            return
        trailing = stream.read()
        if decoded < preamble.count or trailing.strip(b"\x00"):
            _stream_damage(
                source, decoded,
                f"truncated: header promises {preamble.count} events "
                f"({preamble.count * _RECORD.size} bytes), found "
                f"{stream.tell() - preamble.data_offset}", on_error)


def iter_binary_span(path: PathLike, start: int, stop: int,
                     chunk_size: int = DEFAULT_CHUNK_SIZE,
                     on_error: str = "salvage") -> Iterator[EventChunk]:
    """Iterate the records ``[start, stop)`` of a binary trace.

    The shard reader: seeks straight to the first record of the range
    and never reads outside it (plus the fixed-size preamble).  Ranges
    beyond the file's promised records are clipped; damage inside the
    range follows ``on_error`` like everything else.
    """
    source = _checked_source(path, on_error, chunk_size)
    if start < 0 or stop < start:
        raise TraceError(f"invalid record span [{start}, {stop})")
    with open(source, "rb") as stream:
        preamble = _read_preamble(source, stream)
        stop = min(stop, preamble.count)
        if start >= stop:
            return
        stream.seek(preamble.data_offset + start * _RECORD.size)
        decoded = yield from _record_chunks(
            stream, preamble.names, start, stop - start, chunk_size,
            partial(_stream_damage, source, on_error=on_error,
                    in_span=True))
        if decoded is not None and decoded < stop - start:
            _stream_damage(source, decoded,
                           f"truncated inside record span "
                           f"[{start}, {stop})", on_error, in_span=True)


def binary_record_count(path: PathLike) -> Tuple[int, int]:
    """``(record count, data offset)`` of a binary trace, from the
    preamble alone — what the shard planner needs without reading the
    records."""
    source = _require_file(path)
    with open(source, "rb") as stream:
        preamble = _read_preamble(source, stream)
    return preamble.count, preamble.data_offset


def read_binary_trace(path: PathLike,
                      on_error: str = "salvage") -> List[TraceEvent]:
    """Read a binary trace file into a list of events.

    The chunks of :func:`iter_binary_trace` concatenated, with the same
    salvage/raise behaviour.
    """
    events: List[TraceEvent] = []
    for chunk in iter_binary_trace(path, on_error=on_error):
        events.extend(chunk)
    return events


def sniff_format(path: PathLike) -> str:
    """``"binary"``, ``"jsonl"`` or ``"unknown"`` by file signature."""
    source = _require_file(path)
    if source.suffix == ".gz":
        return "jsonl"
    with open(source, "rb") as stream:
        head = stream.read(4)
    if head == MAGIC:
        return "binary"
    if head[:1] == b"{":
        return "jsonl"
    return "unknown"


def read_any(path: PathLike,
             on_error: str = "salvage") -> List[TraceEvent]:
    """Read a trace file in whichever supported format it uses."""
    kind = sniff_format(path)
    if kind == "binary":
        return read_binary_trace(path, on_error=on_error)
    if kind == "jsonl":
        return read_jsonl(path, on_error=on_error)
    raise TraceError(f"{path} is in no supported trace format")


def read_any_tracer(path: PathLike, on_error: str = "salvage") -> Tracer:
    """Read either format into a fresh :class:`Tracer`."""
    tracer = Tracer()
    tracer.extend(read_any(path, on_error=on_error))
    return tracer
