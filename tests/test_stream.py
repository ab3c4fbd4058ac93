"""Unit tests for the chunked trace iterators and the shard planner.

The streaming readers' contract: concatenating every yielded chunk
reproduces an independent eager reader (``tests/oracles.py``) exactly
(events, salvage behaviour, blank line / NUL padding tolerance), with
no chunk larger than ``chunk_size`` — and span iterators that tile a
file partition its events exactly once, no matter where the cut points
fall.
"""

import gzip
import warnings

import pytest

from repro.errors import TraceError, TraceWarning
from repro.instrument import (TraceEvent, iter_any, iter_binary_span,
                              iter_binary_trace, iter_trace,
                              iter_trace_span, read_binary_trace,
                              read_trace, write_binary_trace, write_trace)
from repro.shards import Shard, accumulate_shard, plan_shards
from tests import oracles


def sample_events(count=23):
    return [
        TraceEvent(rank % 4, f"region {rank % 3}",
                   ("computation", "point-to-point")[rank % 2],
                   float(rank), float(rank) + 0.5,
                   kind=("compute", "send")[rank % 2],
                   nbytes=rank * 10, partner=(rank + 1) % 4)
        for rank in range(count)
    ]


def drain(chunks):
    """Concatenate a chunk iterator into one event list."""
    events = []
    for chunk in chunks:
        events.extend(chunk)
    return events


class TestIterTrace:
    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 23, 1000])
    def test_concatenation_equals_eager(self, tmp_path, chunk_size):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        assert drain(iter_trace(path, chunk_size)) \
            == oracles.read_trace(path)

    def test_chunks_are_bounded(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        sizes = [len(chunk) for chunk in iter_trace(path, chunk_size=5)]
        assert all(size <= 5 for size in sizes)
        assert sizes == [5, 5, 5, 5, 3]

    def test_gzip(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, sample_events())
        assert drain(iter_trace(path, 4)) == sample_events()

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            next(iter_trace(tmp_path / "none.jsonl"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            drain(iter_trace(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": "other"}\n')
        with pytest.raises(TraceError):
            drain(iter_trace(path))

    def test_bad_chunk_size(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        with pytest.raises(TraceError, match="chunk_size"):
            next(iter_trace(path, chunk_size=0))

    def test_bad_on_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        with pytest.raises(TraceError, match="on_error"):
            next(iter_trace(path, on_error="ignore"))

    def test_truncation_salvages_with_warning(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.warns(TraceWarning, match="salvaged"):
            got = drain(iter_trace(path, 4))
        assert got == sample_events()[:-1]

    def test_truncation_raises_in_strict_mode(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceError, match="truncated"):
            drain(iter_trace(path, 4, on_error="raise"))

    def test_corrupt_line_salvages_prefix(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        lines = path.read_text().splitlines()
        lines[5] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(TraceWarning):
            got = drain(iter_trace(path, 3))
        assert got == sample_events()[:4]


class TestBlankLineParity:
    """A blank line is not damage — in either reader, in either mode
    (the JSONL mirror of the binary format's NUL-padding tolerance)."""

    def _with_blanks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events(6))
        lines = path.read_text().splitlines()
        # interior blank, whitespace-only line, and trailing blanks
        lines.insert(3, "")
        lines.insert(5, "   \t")
        path.write_text("\n".join(lines) + "\n\n\n")
        return path

    def test_eager_skips_blanks_in_both_modes(self, tmp_path):
        path = self._with_blanks(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TraceWarning)
            assert read_trace(path) == sample_events(6)
            assert read_trace(path, on_error="raise") == sample_events(6)

    def test_streaming_skips_blanks_in_both_modes(self, tmp_path):
        path = self._with_blanks(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TraceWarning)
            assert drain(iter_trace(path, 2)) == sample_events(6)
            assert drain(iter_trace(path, 2,
                                    on_error="raise")) == sample_events(6)


class TestNulPaddingParity:
    """Trailing NUL padding (block-padded storage) is not damage — in
    either binary reader, in either mode; any other trailing byte is."""

    def _padded(self, tmp_path, padding=b"\x00" * 512):
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events(6))
        path.write_bytes(path.read_bytes() + padding)
        return path

    def test_eager_tolerates_padding_in_both_modes(self, tmp_path):
        path = self._padded(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TraceWarning)
            assert read_binary_trace(path) == sample_events(6)
            assert read_binary_trace(
                path, on_error="raise") == sample_events(6)

    def test_streaming_tolerates_padding_in_both_modes(self, tmp_path):
        path = self._padded(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TraceWarning)
            assert drain(iter_binary_trace(path, 2)) == sample_events(6)
            assert drain(iter_binary_trace(
                path, 2, on_error="raise")) == sample_events(6)

    def test_non_nul_trailing_junk_is_still_damage(self, tmp_path):
        path = self._padded(tmp_path, padding=b"\x00\x00junk")
        with pytest.warns(TraceWarning):
            assert read_binary_trace(path) == sample_events(6)
        with pytest.warns(TraceWarning):
            assert drain(iter_binary_trace(path, 4)) == sample_events(6)
        with pytest.raises(TraceError):
            read_binary_trace(path, on_error="raise")
        with pytest.raises(TraceError):
            drain(iter_binary_trace(path, 4, on_error="raise"))


class TestIterBinaryTrace:
    @pytest.mark.parametrize("chunk_size", [1, 3, 23, 1000])
    def test_concatenation_equals_eager(self, tmp_path, chunk_size):
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events())
        assert drain(iter_binary_trace(path, chunk_size)) \
            == oracles.read_binary_trace(path)

    def test_truncated_records_salvaged(self, tmp_path):
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events())
        path.write_bytes(path.read_bytes()[:-25])
        with pytest.warns(TraceWarning, match="truncated"):
            got = drain(iter_binary_trace(path, 4))
        assert got == sample_events()[:len(got)]
        assert len(got) < len(sample_events())

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "t.rptb"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(TraceError):
            drain(iter_binary_trace(path))


class TestIterAny:
    def test_dispatch(self, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        gz = tmp_path / "t.jsonl.gz"
        binary = tmp_path / "t.rptb"
        write_trace(jsonl, sample_events())
        write_trace(gz, sample_events())
        write_binary_trace(binary, sample_events())
        for path in (jsonl, gz, binary):
            assert drain(iter_any(path, 7)) == sample_events()

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_bytes(b"garbage data here")
        with pytest.raises(TraceError, match="no supported"):
            iter_any(path)


class TestJsonlSpans:
    def test_tiling_partitions_events(self, tmp_path):
        """Any monotone sequence of cut points partitions the events."""
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        size = path.stat().st_size
        for cuts in ([0, size], [0, 1, size], [0, size // 2, size],
                     [0, size // 3, 2 * size // 3, size],
                     sorted(set(range(0, size, 17)) | {size})):
            got = []
            for start, stop in zip(cuts, cuts[1:]):
                got.extend(drain(iter_trace_span(path, start, stop, 4)))
            assert got == sample_events()

    def test_span_starting_past_header_skips_partial_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        header_end = len(path.read_bytes().split(b"\n", 1)[0]) + 1
        # A span starting inside the first event line must not yield it.
        inner = drain(iter_trace_span(path, header_end + 2,
                                      path.stat().st_size))
        assert inner == sample_events()[1:]

    def test_gzip_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, sample_events())
        with pytest.raises(TraceError, match="not seekable"):
            drain(iter_trace_span(path, 0, 100))

    def test_invalid_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        with pytest.raises(TraceError, match="invalid byte span"):
            drain(iter_trace_span(path, 10, 5))

    def test_empty_span_yields_nothing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        assert drain(iter_trace_span(path, 100, 100)) == []


class TestBinarySpans:
    def test_tiling_partitions_events(self, tmp_path):
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events())
        count = len(sample_events())
        for cuts in ([0, count], [0, 1, count], [0, 5, 11, count]):
            got = []
            for start, stop in zip(cuts, cuts[1:]):
                got.extend(drain(iter_binary_span(path, start, stop, 3)))
            assert got == sample_events()

    def test_range_is_clipped_to_file(self, tmp_path):
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events())
        assert drain(iter_binary_span(path, 20, 999)) == sample_events()[20:]
        assert drain(iter_binary_span(path, 999, 1000)) == []


class TestShardPlanner:
    def test_plans_cover_every_event_once(self, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        binary = tmp_path / "t.rptb"
        write_trace(jsonl, sample_events())
        write_binary_trace(binary, sample_events())
        for path in (jsonl, binary):
            for n_shards in (1, 2, 3, 8, 100):
                shards = plan_shards(path, n_shards)
                assert 1 <= len(shards) <= n_shards
                merged = accumulate_shard(shards[0])
                for shard in shards[1:]:
                    merged = merged.merge(accumulate_shard(shard))
                assert merged.n_events == len(sample_events())

    def test_gzip_degrades_to_whole_file_shard(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, sample_events())
        shards = plan_shards(path, 8)
        assert [shard.kind for shard in shards] == ["whole"]
        assert accumulate_shard(shards[0]).n_events == len(sample_events())

    def test_binary_plan_uses_record_ranges(self, tmp_path):
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events())
        shards = plan_shards(path, 4)
        assert all(shard.kind == "binary" for shard in shards)
        assert shards[0].start == 0
        assert shards[-1].stop == len(sample_events())

    def test_rejects_bad_inputs(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        with pytest.raises(TraceError, match="at least one shard"):
            plan_shards(path, 0)
        with pytest.raises(TraceError, match="does not exist"):
            plan_shards(tmp_path / "none.jsonl", 2)
        bad = tmp_path / "t.dat"
        bad.write_bytes(b"not a trace")
        with pytest.raises(TraceError, match="no supported"):
            plan_shards(bad, 2)

    def test_shard_kind_is_validated(self, tmp_path):
        with pytest.raises(TraceError, match="shard kind"):
            Shard(path="x", kind="zip")
