"""Independent reference implementations for the differential suites.

The production readers and windower are the streaming kernels run over
one chunk, so comparing them with the public eager API would compare
the code with itself.  This module keeps second, deliberately naive
implementations to compare against:

* :func:`read_trace` / :func:`read_binary_trace` — eager decoders that
  read a whole file, each with its own header validation and salvage
  logic, and restate the on-disk layouts instead of importing them;
* :func:`profile` — the per-event loop that adds every duration into
  the ``t_ijp`` tensor in trace order;
* :func:`rescan_window_profiles` / :func:`rescan_window_profiles_at` —
  the per-window rescan: clip the full event list against each window
  in turn and profile the slice (O(windows x events)).

Fed the same input, production output must be bit-identical to these.
"""

from __future__ import annotations

import gzip
import json
import struct
import warnings
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.measurements import DEFAULT_ACTIVITIES, MeasurementSet
from repro.errors import TraceError, TraceWarning
from repro.instrument import (EVENT_KINDS, OUTSIDE_REGION, TraceEvent,
                              Tracer, Window, equal_edges)

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1
MAGIC = b"RPTB"
VERSION = 1
HEADER = struct.Struct("<4sHIQI")
RECORD = struct.Struct("<IHHddBQi")


# ----------------------------------------------------------------------
# Eager decoders
# ----------------------------------------------------------------------
def _salvage(source: Path, events: list, reason: str,
             on_error: str) -> List[TraceEvent]:
    if on_error == "raise" or not events:
        raise TraceError(f"trace {source}: {reason}")
    warnings.warn(TraceWarning(
        f"trace {source}: {reason}; salvaged the first "
        f"{len(events)} event(s)"), stacklevel=3)
    return events


def _check_on_error(on_error: str) -> None:
    if on_error not in ("salvage", "raise"):
        raise TraceError(
            f"on_error must be 'salvage' or 'raise', got {on_error!r}")


def _open(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def read_trace(path, on_error: str = "salvage") -> List[TraceEvent]:
    """Read a whole JSONL trace (optionally gzipped) into a list."""
    _check_on_error(on_error)
    source = Path(path)
    if not source.exists():
        raise TraceError(f"trace file {source} does not exist")
    events: List[TraceEvent] = []
    expected = None
    try:
        with _open(source) as stream:
            header_line = stream.readline()
            if not header_line:
                raise TraceError(f"trace file {source} is empty")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as error:
                raise TraceError(f"bad trace header: {error}") from error
            if not isinstance(header, dict) \
                    or header.get("format") != FORMAT_NAME:
                raise TraceError(
                    f"not a {FORMAT_NAME} file "
                    f"(format={header.get('format')!r})"
                    if isinstance(header, dict) else
                    f"not a {FORMAT_NAME} file (header is not an object)")
            if header.get("version") != FORMAT_VERSION:
                raise TraceError(
                    f"unsupported trace version {header.get('version')!r}")
            expected = header.get("events")
            for line_number, line in enumerate(stream, start=2):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    event = TraceEvent(
                        rank=int(record["r"]), region=str(record["g"]),
                        activity=str(record["a"]), begin=float(record["b"]),
                        end=float(record["e"]), kind=str(record["k"]),
                        nbytes=int(record["n"]), partner=int(record["p"]))
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError, TraceError) as error:
                    return _salvage(
                        source, events,
                        f"bad event at line {line_number}: {error}",
                        on_error)
                events.append(event)
    except (EOFError, OSError, UnicodeDecodeError) as error:
        return _salvage(source, events, f"damaged stream: {error}",
                        on_error)
    if expected is not None and expected != len(events):
        return _salvage(
            source, events,
            f"truncated: header promises {expected} events, "
            f"found {len(events)}", on_error)
    return events


def read_binary_trace(path, on_error: str = "salvage") -> List[TraceEvent]:
    """Read a whole binary trace into a list, one record at a time."""
    _check_on_error(on_error)
    source = Path(path)
    if not source.exists():
        raise TraceError(f"trace file {source} does not exist")
    data = source.read_bytes()
    if len(data) < HEADER.size:
        raise TraceError(f"{source} is too short to be a binary trace")
    magic, version, _, count, table_length = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceError(f"{source} is not a binary repro trace")
    if version != VERSION:
        raise TraceError(f"unsupported binary trace version {version}")
    offset = HEADER.size
    table_bytes = data[offset:offset + table_length]
    if len(table_bytes) != table_length:
        raise TraceError(f"{source} truncated inside the string table")
    try:
        names = ([part.decode("utf-8")
                  for part in table_bytes.split(b"\x00")]
                 if table_length else [])
    except UnicodeDecodeError as error:
        raise TraceError(f"corrupt string table: {error}") from error
    offset += table_length
    expected_bytes = count * RECORD.size
    available = len(data) - offset
    decodable = min(count, available // RECORD.size)
    events: List[TraceEvent] = []
    for record_index in range(decodable):
        (rank, region_id, activity_id, begin, end, kind_id, nbytes,
         partner) = RECORD.unpack_from(data,
                                       offset + record_index * RECORD.size)
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


# ----------------------------------------------------------------------
# Per-event profile loop
# ----------------------------------------------------------------------
def profile(tracer: Tracer,
            regions: Optional[Sequence[str]] = None,
            activities: Optional[Sequence[str]] = None,
            aggregation: str = "max",
            n_ranks: Optional[int] = None) -> MeasurementSet:
    """Sum every event's duration into its tensor cell, in trace order."""
    if len(tracer) == 0:
        raise TraceError("cannot profile an empty trace")
    region_names = tuple(regions) if regions is not None else tracer.regions()
    if not region_names:
        raise TraceError("trace contains no annotated regions")
    if activities is not None:
        activity_names = tuple(activities)
    else:
        seen = tracer.activities()
        activity_names = tuple(
            [name for name in DEFAULT_ACTIVITIES if name in seen] +
            [name for name in seen if name not in DEFAULT_ACTIVITIES])
    if n_ranks is None:
        n_ranks = tracer.n_ranks
    elif n_ranks < tracer.n_ranks:
        raise TraceError(
            f"n_ranks={n_ranks} but the trace mentions rank "
            f"{tracer.n_ranks - 1}")
    region_index = {name: i for i, name in enumerate(region_names)}
    activity_index = {name: j for j, name in enumerate(activity_names)}

    tensor = np.zeros((len(region_names), len(activity_names), n_ranks))
    for event in tracer.events:
        if event.region == OUTSIDE_REGION:
            continue
        i = region_index.get(event.region)
        if i is None:
            continue    # caller restricted the region set
        j = activity_index.get(event.activity)
        if j is None:
            raise TraceError(
                f"trace contains activity {event.activity!r} not in "
                f"{activity_names}")
        tensor[i, j, event.rank] += event.duration

    preliminary = MeasurementSet(tensor, regions=region_names,
                                 activities=activity_names,
                                 aggregation=aggregation)
    total = max(tracer.elapsed, preliminary.covered_time)
    return MeasurementSet(tensor, regions=region_names,
                          activities=activity_names,
                          total_time=total, aggregation=aggregation)


# ----------------------------------------------------------------------
# Per-window rescan
# ----------------------------------------------------------------------
def _clip(event: TraceEvent, begin: float,
          end: float) -> Optional[TraceEvent]:
    clipped_begin = max(event.begin, begin)
    clipped_end = min(event.end, end)
    if clipped_end <= clipped_begin:
        return None
    return TraceEvent(rank=event.rank, region=event.region,
                      activity=event.activity, begin=clipped_begin,
                      end=clipped_end, kind=event.kind, nbytes=event.nbytes,
                      partner=event.partner)


def _resolve_layout(tracer: Tracer, regions: Optional[Sequence[str]],
                    activities: Optional[Sequence[str]]
                    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    region_names = tuple(regions) if regions is not None else tracer.regions()
    if not region_names:
        raise TraceError("trace contains no annotated regions")
    if activities is None:
        return region_names, profile(tracer, regions=region_names).activities
    return region_names, tuple(activities)


def _rescan_windows(tracer: Tracer, edges: Sequence[float],
                    region_names: Tuple[str, ...],
                    activity_names: Tuple[str, ...]) -> List[Window]:
    windows: List[Window] = []
    for begin, end in zip(edges, edges[1:]):
        sliced = Tracer()
        for event in tracer.events:
            clipped = _clip(event, begin, end)
            if clipped is not None:
                sliced.add(clipped)
        if len(sliced) == 0:
            continue
        try:
            measurements = profile(sliced, regions=region_names,
                                   activities=activity_names,
                                   n_ranks=tracer.n_ranks)
        except TraceError:
            continue        # window's events do not fit the layout
        windows.append(Window(begin=begin, end=end,
                              measurements=measurements))
    if not windows:
        raise TraceError("no window contains annotated events")
    return windows


def rescan_window_profiles_at(tracer: Tracer, boundaries: Sequence[float],
                              regions: Optional[Sequence[str]] = None,
                              activities: Optional[Sequence[str]] = None
                              ) -> List[Window]:
    """Rescan windowing between explicit boundaries."""
    edges = [float(value) for value in boundaries]
    if len(edges) < 2:
        raise TraceError("need at least two boundaries")
    if any(later <= earlier for earlier, later in zip(edges, edges[1:])):
        raise TraceError("boundaries must be strictly increasing")
    if len(tracer) == 0:
        raise TraceError("cannot window an empty trace")
    region_names, activity_names = _resolve_layout(tracer, regions,
                                                   activities)
    return _rescan_windows(tracer, edges, region_names, activity_names)


def rescan_window_profiles(tracer: Tracer, n_windows: int,
                           regions: Optional[Sequence[str]] = None,
                           activities: Optional[Sequence[str]] = None
                           ) -> List[Window]:
    """Rescan windowing into ``n_windows`` equal slices of the trace's
    extent."""
    if n_windows < 1:
        raise TraceError("need at least one window")
    if len(tracer) == 0:
        raise TraceError("cannot window an empty trace")
    edges = equal_edges(tracer.begin, tracer.elapsed, n_windows)
    region_names, activity_names = _resolve_layout(tracer, regions,
                                                   activities)
    return _rescan_windows(tracer, edges, region_names, activity_names)
