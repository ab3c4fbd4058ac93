"""Format-neutral chunked trace iteration (the out-of-core entry).

Each on-disk format has one decoder, in its own module:
:mod:`repro.instrument.tracefile` (JSONL, optionally gzipped) and
:mod:`repro.instrument.binary`.  Both decode in *chunks* (lists) of at
most ``chunk_size`` events, so peak memory is bounded by the chunk size
(plus the fixed-size decoder state) no matter how long the trace is;
the eager :func:`~repro.instrument.read_trace` and
:func:`~repro.instrument.read_binary_trace` are those chunks
concatenated.  This module adds what does not depend on the format:

* :func:`iter_any` — sniffs the format and iterates whichever it is;
* :func:`instrument_chunks` — per-chunk decode spans for ``--profile``
  and ``repro self``;
* re-exports of the per-format iterators (:func:`iter_trace`,
  :func:`iter_binary_trace`, and the shard readers
  :func:`iter_trace_span` / :func:`iter_binary_span`) and of
  :data:`DEFAULT_CHUNK_SIZE`.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import TraceError
from ..obs import spans as obspans
from .binary import iter_binary_span, iter_binary_trace, sniff_format
from .tracefile import (DEFAULT_CHUNK_SIZE, EventChunk, PathLike,
                        iter_trace, iter_trace_span)

__all__ = ["DEFAULT_CHUNK_SIZE", "instrument_chunks", "iter_any",
           "iter_binary_span", "iter_binary_trace", "iter_trace",
           "iter_trace_span"]


def _spanned_chunks(chunks: Iterator[EventChunk], stage: str,
                    trace: str) -> Iterator[EventChunk]:
    """Wrap each ``next()`` of a chunk iterator in a decode span.

    The span covers the decode work (file reads, JSON/struct parsing),
    not the consumer's fold — the two alternate, so `repro self` can
    tell whether a slow stream spends its time decoding or
    accumulating.  StopIteration must be caught inside the ``with``
    (PEP 479: letting it escape a generator raises RuntimeError).
    """
    chunks = iter(chunks)
    while True:
        with obspans.span(stage, activity="decode", trace=trace) as live:
            try:
                chunk = next(chunks)
            except StopIteration:
                return
            live.set(events=len(chunk))
        yield chunk


def instrument_chunks(chunks: Iterator[EventChunk], stage: str,
                      trace: PathLike) -> Iterator[EventChunk]:
    """Per-chunk decode spans around ``chunks`` — only when span
    recording is enabled at call time; otherwise the iterator comes
    back untouched, so the streaming hot loop pays nothing."""
    if not obspans.is_enabled():
        return chunks
    return _spanned_chunks(chunks, stage, str(trace))


def iter_any(path: PathLike, chunk_size: int = DEFAULT_CHUNK_SIZE,
             on_error: str = "salvage") -> Iterator[EventChunk]:
    """Iterate a trace in whichever supported format it uses."""
    kind = sniff_format(path)
    if kind == "binary":
        chunks = iter_binary_trace(path, chunk_size=chunk_size,
                                   on_error=on_error)
    elif kind == "jsonl":
        chunks = iter_trace(path, chunk_size=chunk_size,
                            on_error=on_error)
    else:
        raise TraceError(f"{path} is in no supported trace format")
    return instrument_chunks(chunks, "stream_decode", path)
