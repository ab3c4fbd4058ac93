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

:func:`sniff_format` detects which reader a file needs;
:func:`read_any` dispatches, so tools accept either format.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path
from typing import Iterable, List, Union

from ..errors import TraceError, TraceWarning
from .events import EVENT_KINDS, TraceEvent
from .tracefile import read_trace as read_jsonl
from .tracer import Tracer

MAGIC = b"RPTB"
VERSION = 1

_HEADER = struct.Struct("<4sHIQI")
_RECORD = struct.Struct("<IHHddBQi")

PathLike = Union[str, Path]


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


def _salvage(source: Path, events: list, reason: str,
             on_error: str) -> List[TraceEvent]:
    if on_error == "raise" or not events:
        raise TraceError(f"trace {source}: {reason}")
    warnings.warn(TraceWarning(
        f"trace {source}: {reason}; salvaged the first "
        f"{len(events)} event(s)"), stacklevel=3)
    return events


def read_binary_trace(path: PathLike,
                      on_error: str = "salvage") -> List[TraceEvent]:
    """Read a binary trace file, validating every record.

    ``on_error="salvage"`` (the default) tolerates a file truncated or
    corrupted inside the event records — the valid prefix is returned
    with a :class:`~repro.errors.TraceWarning`.  Damage before the first
    record (header or string table) leaves nothing decodable and raises
    :class:`~repro.errors.TraceError` in both modes, as does
    ``on_error="raise"`` for any damage at all.

    Trailing NUL padding after the promised records (block-padded
    archival storage) is not damage: it is skipped in both modes, the
    binary counterpart of the blank lines the JSONL reader skips.
    """
    if on_error not in ("salvage", "raise"):
        raise TraceError(
            f"on_error must be 'salvage' or 'raise', got {on_error!r}")
    source = Path(path)
    if not source.exists():
        raise TraceError(f"trace file {source} does not exist")
    data = source.read_bytes()
    if len(data) < _HEADER.size:
        raise TraceError(f"{source} is too short to be a binary trace")
    magic, version, _, count, table_length = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceError(f"{source} is not a binary repro trace")
    if version != VERSION:
        raise TraceError(f"unsupported binary trace version {version}")
    offset = _HEADER.size
    table_bytes = data[offset:offset + table_length]
    if len(table_bytes) != table_length:
        # Without the full string table no record can be decoded, so
        # there is nothing to salvage.
        raise TraceError(f"{source} truncated inside the string table")
    try:
        names = ([part.decode("utf-8")
                  for part in table_bytes.split(b"\x00")]
                 if table_length else [])
    except UnicodeDecodeError as error:
        raise TraceError(f"corrupt string table: {error}") from error
    offset += table_length
    expected_bytes = count * _RECORD.size
    available = len(data) - offset
    decodable = min(count, available // _RECORD.size)
    events: List[TraceEvent] = []
    for record_index in range(decodable):
        (rank, region_id, activity_id, begin, end, kind_id, nbytes,
         partner) = _RECORD.unpack_from(offset=offset +
                                        record_index * _RECORD.size,
                                        buffer=data)
        if region_id >= len(names) or activity_id >= len(names):
            return _salvage(
                source, events,
                f"record {record_index}: name index out of range",
                on_error)
        if kind_id >= len(EVENT_KINDS):
            return _salvage(
                source, events,
                f"record {record_index}: bad kind {kind_id}", on_error)
        try:
            events.append(TraceEvent(
                rank=rank, region=names[region_id],
                activity=names[activity_id], begin=begin, end=end,
                kind=EVENT_KINDS[kind_id], nbytes=nbytes, partner=partner))
        except TraceError as error:
            return _salvage(source, events,
                            f"record {record_index}: {error}", on_error)
    trailing = data[offset + expected_bytes:]
    if available < expected_bytes or trailing.strip(b"\x00"):
        return _salvage(
            source, events,
            f"truncated: header promises {count} events "
            f"({expected_bytes} bytes), found {available}", on_error)
    return events


def sniff_format(path: PathLike) -> str:
    """``"binary"``, ``"jsonl"`` or ``"unknown"`` by file signature."""
    source = Path(path)
    if not source.exists():
        raise TraceError(f"trace file {source} does not exist")
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
