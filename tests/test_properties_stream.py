"""Property tests for the streaming engine (Hypothesis).

The invariants the one-pass design rests on:

* chunking is irrelevant — however an event stream is cut into chunks,
  the finalized measurements are bit-identical to the per-event
  profile loop of ``tests/oracles.py`` (per-cell additions happen in
  the same event order);
* the windowed kernel is chunking-invariant too — over any chunking,
  :class:`WindowedAccumulator` and :func:`window_profiles` bin
  bit-identically to the per-window rescan of ``tests/oracles.py``;
* sharding is irrelevant up to summation rounding — any partition of
  the stream into consecutive segments, accumulated independently and
  merged in order, agrees to 1e-12 with the same labels;
* merging is associative, and finalized *values* are insensitive to
  merge order (label order follows the merge sequence, so values are
  compared by label);
* a randomly truncated trace file streams exactly like the oracle's
  eager decoders read it: both salvage the same prefix or both raise.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OnlineAccumulator, WindowedAccumulator
from repro.core.measurements import DEFAULT_ACTIVITIES
from repro.core.online import OUTSIDE_REGION
from repro.errors import ReproError, TraceError, TraceWarning
from repro.instrument import (TraceEvent, Tracer, equal_edges,
                              iter_binary_trace, iter_trace, window_profiles,
                              write_binary_trace, write_trace)
from tests import oracles

REGIONS = ("alpha", "beta", "gamma")
ACTIVITIES = ("computation", "point-to-point", "collective",
              "synchronization", "io phase")


@st.composite
def annotated_traces(draw, max_size=50, min_size=0, max_rank=3,
                     regions=REGIONS, activities=ACTIVITIES):
    """Event lists with at least one annotated event.  Times are
    dyadic rationals, so every duration and sum is exact in binary
    floating point (bit-identity assertions stay meaningful)."""

    def event(rank, region, activity, begin_units, duration_units):
        return TraceEvent(rank, region, activity, begin_units / 16.0,
                          (begin_units + duration_units) / 16.0)

    events = draw(st.lists(
        st.builds(event,
                  rank=st.integers(0, max_rank),
                  region=st.sampled_from(regions + (OUTSIDE_REGION,)),
                  activity=st.sampled_from(activities),
                  begin_units=st.integers(0, 512),
                  duration_units=st.integers(0, 64)),
        min_size=min_size, max_size=max_size))
    events.append(event(draw(st.integers(0, max_rank)),
                        draw(st.sampled_from(regions)),
                        draw(st.sampled_from(activities)),
                        draw(st.integers(0, 512)),
                        draw(st.integers(1, 64))))
    return events


def eager_profile(events):
    tracer = Tracer()
    tracer.extend(events)
    return oracles.profile(tracer)


def chunked(events, chunk_sizes):
    """Cut ``events`` into consecutive chunks, cycling through the
    given chunk sizes."""
    chunks = []
    position = 0
    while position < len(events):
        size = chunk_sizes[len(chunks) % len(chunk_sizes)]
        chunks.append(events[position:position + size])
        position += size
    return chunks


def partition(events, sizes):
    """Cut ``events`` into consecutive segments of the given relative
    sizes (at least one segment; sizes normalized to the list)."""
    cuts = [0]
    remaining = len(events)
    for size in sizes:
        cuts.append(min(cuts[-1] + size, len(events)))
    cuts.append(len(events))
    return [events[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo] \
        or [events]


def values_by_label(measurements):
    """{(region, activity, rank): value} — the label-indexed tensor,
    for order-insensitive comparison."""
    return {
        (region, activity, rank): measurements.times[i, j, rank]
        for i, region in enumerate(measurements.regions)
        for j, activity in enumerate(measurements.activities)
        for rank in range(measurements.n_processors)
    }


class TestChunkingInvariance:
    @settings(max_examples=60, deadline=None)
    @given(events=annotated_traces(),
           chunk_sizes=st.lists(st.integers(1, 17), min_size=1,
                                max_size=8))
    def test_any_chunking_is_bit_identical_to_profile(self, events,
                                                      chunk_sizes):
        reference = eager_profile(events)
        accumulator = OnlineAccumulator().consume(
            chunked(events, chunk_sizes))
        streamed = accumulator.finalize()
        assert streamed.regions == reference.regions
        assert streamed.activities == reference.activities
        assert np.array_equal(streamed.times, reference.times)
        assert streamed.total_time == reference.total_time


class TestWindowedChunkingInvariance:
    """The windowed kernel, fed any chunking of any trace — and the
    in-memory windower built on it — bins exactly like the oracle's
    per-window rescan: events straddling window edges, events outside
    every region or in an unlisted one, and a fixed activity layout
    missing an activity (which drops the windows it occurs in)."""

    # Few cells, so a cell often gets several events in one chunk.
    SEEN = ("computation", "collective", "io phase")

    @settings(max_examples=80, deadline=None)
    @given(events=annotated_traces(min_size=40, max_size=120, max_rank=1,
                                   regions=REGIONS[:2], activities=SEEN),
           chunk_sizes=st.lists(st.integers(1, 17), min_size=1,
                                max_size=8),
           n_windows=st.integers(1, 9),
           regions=st.sampled_from((None, REGIONS[:1])),
           activities=st.sampled_from((None, SEEN[:-1])))
    def test_any_chunking_is_bit_identical_to_the_rescan(
            self, events, chunk_sizes, n_windows, regions, activities):
        # Scaled and shifted times are no longer dyadic, so durations
        # and sums round and a change in the per-cell summation order
        # shows; the negative shift puts the whole trace before t=0.
        for scale, offset in ((1.0 / 3.0, 0.0), (0.7, 0.0), (0.1, -40.0)):
            tracer = Tracer()
            for event in events:
                tracer.record(event.rank, event.region, event.activity,
                              event.begin * scale + offset,
                              event.end * scale + offset)
            self.assert_matches_rescan(tracer, chunk_sizes, n_windows,
                                       regions, activities)

    @staticmethod
    def assert_matches_rescan(tracer, chunk_sizes, n_windows, regions,
                              activities):
        try:
            reference = oracles.rescan_window_profiles(
                tracer, n_windows, regions=regions, activities=activities)
        except ReproError as error:
            # Production must fail the same way: no annotated window
            # (TraceError), or a window before t=0 holding no annotated
            # time, whose wall clock comes out non-positive
            # (MeasurementError).
            reference = type(error)
        seen = tracer.activities()
        layout = (
            regions if regions is not None else tracer.regions(),
            activities if activities is not None else tuple(
                [name for name in DEFAULT_ACTIVITIES if name in seen]
                + [name for name in seen if name not in DEFAULT_ACTIVITIES]))
        binner = WindowedAccumulator(
            equal_edges(tracer.begin, tracer.elapsed, n_windows), *layout,
            tracer.n_ranks).consume(
                chunked(list(tracer.events), chunk_sizes))
        candidates = (binner.finalize,
                      lambda: window_profiles(tracer, n_windows,
                                              regions=regions,
                                              activities=activities))
        for candidate in candidates:
            if isinstance(reference, type):
                with pytest.raises(reference):
                    candidate()
                continue
            got = candidate()
            assert [(w.begin, w.end) for w in got] \
                == [(w.begin, w.end) for w in reference]
            for mine, theirs in zip(got, reference):
                assert mine.measurements.regions \
                    == theirs.measurements.regions
                assert mine.measurements.activities \
                    == theirs.measurements.activities
                assert np.array_equal(mine.measurements.times,
                                      theirs.measurements.times)
                assert mine.measurements.total_time \
                    == theirs.measurements.total_time


class TestShardingInvariance:
    @settings(max_examples=60, deadline=None)
    @given(events=annotated_traces(),
           sizes=st.lists(st.integers(1, 20), min_size=1, max_size=6))
    def test_any_consecutive_partition_merges_to_the_profile(self, events,
                                                             sizes):
        reference = eager_profile(events)
        parts = [OnlineAccumulator().update(segment)
                 for segment in partition(events, sizes)]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        streamed = merged.finalize()
        assert streamed.regions == reference.regions
        assert streamed.activities == reference.activities
        np.testing.assert_allclose(streamed.times, reference.times,
                                   rtol=0, atol=1e-12)
        assert abs(streamed.total_time - reference.total_time) <= 1e-12


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(events=annotated_traces(), cut_a=st.integers(0, 50),
           cut_b=st.integers(0, 50))
    def test_merge_is_associative(self, events, cut_a, cut_b):
        lo, hi = sorted((min(cut_a, len(events)), min(cut_b, len(events))))
        a = OnlineAccumulator().update(events[:lo])
        b = OnlineAccumulator().update(events[lo:hi])
        c = OnlineAccumulator().update(events[hi:])
        left = a.merge(b).merge(c).finalize()
        right = a.merge(b.merge(c)).finalize()
        assert left.regions == right.regions
        assert left.activities == right.activities
        np.testing.assert_allclose(left.times, right.times,
                                   rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(events=annotated_traces(), cut=st.integers(0, 50))
    def test_merge_values_are_order_insensitive(self, events, cut):
        """a.merge(b) and b.merge(a) may order labels differently, but
        every (region, activity, rank) cell holds the same value."""
        cut = min(cut, len(events))
        a = OnlineAccumulator().update(events[:cut])
        b = OnlineAccumulator().update(events[cut:])
        forward = a.merge(b).finalize()
        backward = b.merge(a).finalize()
        assert sorted(forward.regions) == sorted(backward.regions)
        assert sorted(forward.activities) == sorted(backward.activities)
        one = values_by_label(forward)
        other = values_by_label(backward)
        assert one.keys() == other.keys()
        assert all(abs(one[key] - other[key]) <= 1e-12 for key in one)
        assert abs(forward.total_time - backward.total_time) <= 1e-12


def stream_salvaged(iterator, path, chunk_size):
    """Drain a streaming reader with warnings hidden, like the eager
    ``read_salvaged`` helper; returns events or raises TraceError."""
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TraceWarning)
        for chunk in iterator(path, chunk_size=chunk_size):
            events.extend(chunk)
    return events


class TestTruncationParity:
    """Streaming a damaged file behaves exactly like eager reading:
    same salvaged prefix, or both raise."""

    def sample_events(self):
        return [
            TraceEvent(rank % 4, REGIONS[rank % 3], ACTIVITIES[rank % 5],
                       float(rank), float(rank) + 0.5,
                       kind=("compute", "send")[rank % 2],
                       nbytes=rank * 100, partner=(rank + 1) % 4)
            for rank in range(12)
        ]

    def assert_parity(self, eager_reader, iterator, path, chunk_size):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TraceWarning)
            try:
                expected = eager_reader(path)
            except TraceError:
                with pytest.raises(TraceError):
                    stream_salvaged(iterator, path, chunk_size)
                return
        assert stream_salvaged(iterator, path, chunk_size) == expected

    @settings(max_examples=80, deadline=None)
    @given(offset=st.integers(0, 10_000), chunk_size=st.integers(1, 7))
    def test_jsonl_truncation(self, tmp_path_factory, offset, chunk_size):
        directory = tmp_path_factory.mktemp("jsonl")
        path = directory / "t.jsonl"
        write_trace(path, self.sample_events())
        data = path.read_bytes()
        path.write_bytes(data[:min(offset, len(data))])
        self.assert_parity(oracles.read_trace, iter_trace, path, chunk_size)

    @settings(max_examples=40, deadline=None)
    @given(offset=st.integers(0, 10_000), chunk_size=st.integers(1, 7))
    def test_gzip_truncation(self, tmp_path_factory, offset, chunk_size):
        directory = tmp_path_factory.mktemp("gz")
        path = directory / "t.jsonl.gz"
        write_trace(path, self.sample_events())
        data = path.read_bytes()
        path.write_bytes(data[:min(offset, len(data))])
        self.assert_parity(oracles.read_trace, iter_trace, path, chunk_size)

    @settings(max_examples=80, deadline=None)
    @given(offset=st.integers(0, 10_000), chunk_size=st.integers(1, 7))
    def test_binary_truncation(self, tmp_path_factory, offset, chunk_size):
        directory = tmp_path_factory.mktemp("bin")
        path = directory / "t.rptb"
        write_binary_trace(path, self.sample_events())
        data = path.read_bytes()
        path.write_bytes(data[:min(offset, len(data))])
        self.assert_parity(oracles.read_binary_trace, iter_binary_trace, path,
                           chunk_size)

    @settings(max_examples=40, deadline=None)
    @given(position=st.integers(0, 2000), junk=st.binary(min_size=1,
                                                         max_size=8),
           chunk_size=st.integers(1, 7))
    def test_jsonl_corruption(self, tmp_path_factory, position, junk,
                              chunk_size):
        """Overwritten bytes anywhere in the file: still parity."""
        directory = tmp_path_factory.mktemp("corrupt")
        path = directory / "t.jsonl"
        write_trace(path, self.sample_events())
        data = bytearray(path.read_bytes())
        position = min(position, len(data) - 1)
        data[position:position + len(junk)] = junk
        path.write_bytes(bytes(data))
        self.assert_parity(oracles.read_trace, iter_trace, path, chunk_size)
