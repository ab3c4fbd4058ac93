"""Load on a ``repro serve`` daemon: a write phase, then a read phase.

Write phase: one client uploads each trace (``POST /traces``) and asks
for its cold reports right after, so every report is computed while
its trace is still in the store; a repeated upload must take the
dedup path.  Read phase: two client threads, each a closed loop (a
client sends its next request only when the previous one returned),
fetch cached reports in a seeded random order and scrape ``/metrics``
every ``scrape_every`` requests.  Requests in the first
``warmup_seconds`` are discarded.

All HTTP goes through the program's own ``ServeClient`` — what
``repro submit``/``repro fetch`` use — with its ``sleep`` injected so
retries are counted.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from check import Tally


@dataclass
class Upload:
    path: Path
    reports: List[Tuple[str, dict]] = field(default_factory=list)
    repeat: bool = False            # same bytes as an earlier upload
    groups: Dict[str, str] = field(default_factory=dict)  # kind -> ref
    concurrent: bool = False        # two clients request its reports
    timed: bool = False             # an ingest_s / cold_report_s sample


class RetryCounter:
    """Stands in for ``time.sleep`` inside ServeClient; counts retries."""

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()

    def __call__(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
        time.sleep(seconds)


def client(url: str, retries: RetryCounter):
    from repro.serve.client import ServeClient
    return ServeClient(url, timeout=170.0, retries=2, sleep=retries)


@dataclass
class WriteResult:
    ingest: List[float] = field(default_factory=list)
    cold: List[float] = field(default_factory=list)
    keys: List[Tuple[str, str, dict]] = field(default_factory=list)
    texts: Dict[Tuple[str, str, str], str] = field(default_factory=dict)
    repeats: int = 0
    deduped: int = 0

    def has(self, key) -> bool:
        """Whether the report ``key`` (sha, kind, params) was written."""
        return _key(*key) in self.texts


def _key(sha: str, kind: str, params: dict) -> Tuple[str, str, str]:
    return sha, kind, repr(sorted(params.items()))


def write_phase(url: str, uploads: List[Upload], tally: Tally,
                retries: RetryCounter, result: WriteResult,
                span=None) -> None:
    """Upload ``uploads`` in order, adding to ``result``."""
    from repro.errors import ReproError
    span = span or _no_span
    http = client(url, retries)
    for upload in uploads:
        start = time.perf_counter()
        try:
            with span("http_submit", trace=upload.path.name):
                meta = http.submit(upload.path)
        except ReproError as error:
            tally.fail(f"submit {upload.path.name}: {error}")
            continue
        if upload.timed:
            result.ingest.append(time.perf_counter() - start)
        if upload.repeat:
            result.repeats += 1
            result.deduped += not meta["created"]
        tally.record(not upload.repeat or not meta["created"],
                     f"repeat upload of {upload.path.name} was stored anew")
        sha = meta["sha256"]
        for kind, params in upload.reports:
            callers = 2 if upload.concurrent else 1
            payloads = [None] * callers
            seconds = [0.0] * callers

            def fetch(slot, kind=kind, params=params):
                began = time.perf_counter()
                try:
                    with span("http_report", kind=kind):
                        payloads[slot] = client(url, retries).report(
                            sha, kind, timeout=170.0, **params)
                except ReproError as error:
                    payloads[slot] = {"status": "error",
                                      "error": str(error)}
                seconds[slot] = time.perf_counter() - began

            threads = [threading.Thread(target=fetch, args=(slot,))
                       for slot in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for slot in range(callers):
                payload = payloads[slot]
                where = f"{kind} report of {upload.path.name}"
                # Concurrent callers merge onto one job, or the later
                # one hits the cache if the job already finished.
                if payload.get("status") != "ok" or (
                        payload.get("cached") and not upload.concurrent):
                    tally.fail(f"{where}: status {payload.get('status')} "
                               f"cached={payload.get('cached')} "
                               f"{payload.get('error', '')}")
                    continue
                text = payload["text"].encode("utf-8")
                if not tally.record(
                        tally.matches(upload.groups.get(kind), text, where),
                        f"{where} differs from the CLI output"):
                    continue
                if upload.timed:
                    result.cold.append(seconds[slot])
                result.texts[_key(sha, kind, params)] = payload["text"]
            result.keys.append((sha, kind, params))


@dataclass
class ReadResult:
    """Timed hits: when each began and how long it took, and the timed
    window (``start`` .. ``start + seconds``, perf_counter seconds)."""
    began: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    scrapes: List[float] = field(default_factory=list)
    start: float = 0.0
    seconds: float = 0.0


def read_phase(url: str, written: WriteResult, tally: Tally,
               retries: RetryCounter, seed: int, seconds: float,
               min_hits: int = 1000, warmup_seconds: float = 1.0,
               scrape_every: int = 20, span=None) -> ReadResult:
    """Two closed-loop readers; timed window after ``warmup_seconds``."""
    from repro.errors import ReproError
    span = span or _no_span
    keys = [key for key in written.keys if written.has(key)]
    result = ReadResult()
    lock = threading.Lock()
    stop = threading.Event()
    started = time.perf_counter()
    timed_from = started + warmup_seconds

    def reader(slot: int) -> None:
        http = client(url, retries)
        order = random.Random(seed * 2 + slot)
        count = 0
        while not stop.is_set():
            count += 1
            if count % scrape_every == 0:
                began = time.perf_counter()
                try:
                    with span("http_scrape"):
                        http.metrics()
                    tally.ok()
                except ReproError as error:
                    tally.fail(f"scrape: {error}")
                if began >= timed_from:
                    with lock:
                        result.scrapes.append(time.perf_counter() - began)
                continue
            sha, kind, params = keys[order.randrange(len(keys))]
            began = time.perf_counter()
            try:
                with span("http_hit", kind=kind):
                    payload = http.report(sha, kind, timeout=170.0,
                                          **params)
            except ReproError as error:
                tally.fail(f"hit {kind}: {error}")
                continue
            elapsed = time.perf_counter() - began
            good = (payload.get("status") == "ok" and payload.get("cached")
                    and payload.get("text")
                    == written.texts[_key(sha, kind, params)])
            if not tally.record(bool(good), f"hit {kind} {sha[:12]}: "
                                f"status {payload.get('status')} "
                                f"cached={payload.get('cached')}"):
                continue
            if began >= timed_from:
                with lock:
                    result.began.append(began)
                    result.latencies.append(elapsed)

    threads = [threading.Thread(target=reader, args=(slot,), daemon=True)
               for slot in range(2)]
    for thread in threads:
        thread.start()
    deadline = started + warmup_seconds + seconds
    hard_stop = deadline + 60.0
    try:
        while True:
            now = time.perf_counter()
            with lock:
                hits = len(result.latencies)
            if (now >= deadline and hits >= min_hits) or now >= hard_stop \
                    or not keys:
                break
            time.sleep(0.01)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    result.start = timed_from
    result.seconds = time.perf_counter() - timed_from
    return result


def _no_span(*args, **kwargs):
    return nullcontext()
