"""The traced run: per-layer metrics from spans around layer calls.

Spans are recorded by the benchmark (``spans.Recorder``) around calls
into each layer's public functions; nothing inside the program is
instrumented.  Span names follow the program's own ``repro.obs`` stage
names where one exists (``read_trace``, ``stream_decode``, ``profile``,
``window``, ``shard_*``, ``batch_analyze``, ``batch_report``).

The run has six passes:

1. **startup** — interpreter start and imports, in child processes;
2. **replay** — each CLI operation of the workload, in process: one
   child-process ``import repro.cli`` (the start-up the verb pays),
   then the verb's layer calls.  The ``self_share.*`` metrics are
   shares of this pass's self time;
3. **layers** — readers, decode and aggregation on the workload's
   JSONL/gzip/binary traces, shards, sweep cold and warm;
4. **serve** — the untraced run's daemon session, with spans around
   each HTTP call, then the daemon's own counters and peak RSS;
5. **final entry count** — store, cache and job-runner calls in
   process, on the store the daemon left behind;
6. **memory** — peak RSS of the streaming, sharded and temporal verbs
   (``os.wait4`` of the child).
"""

from __future__ import annotations

import statistics
import time
import urllib.request
from pathlib import Path
from typing import Dict, List

import procs
import workloads
from check import Tally
from spans import Recorder, descendants, self_times

LAYER_OF = {
    "startup": "startup",
    "read_trace": "decode", "stream_decode": "decode",
    "profile": "aggregate", "accumulate": "aggregate",
    "finalize": "aggregate", "window": "aggregate",
    "window_accumulate": "aggregate",
    "shard_plan": "shard", "shard_accumulate": "shard",
    "shard_merge": "shard", "shard_fanout": "shard",
    "batch_analyze": "analysis", "batch_report": "analysis",
    "temporal_analysis": "analysis", "temporal_report": "analysis",
    "sweep": "sweep",
}
SHARE_LAYERS = ("startup", "decode", "aggregate", "shard", "analysis",
                "sweep")

_CLI_IMPORT = ("import sys, repro.cli; "
               "print(len(sys.modules), int('scipy' in sys.modules))")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _fmt(path) -> str:
    name = str(path)
    return ("gzip" if name.endswith(".gz")
            else "binary" if name.endswith(".rptb") else "jsonl")


class Layers:
    """Spanned calls into the program's layers (imported in process)."""

    def __init__(self, recorder: Recorder, root: Path, tally: Tally):
        self.rec = recorder
        self.span = recorder.span
        self.root = root
        self.tally = tally

    # -- start-up -------------------------------------------------------
    def startup(self, code: str, what: str) -> procs.Result:
        with self.span("startup", what=what):
            result = procs.python(code, self.root)
        self.tally.record(result.returncode == 0,
                          f"startup probe {what!r} exited "
                          f"{result.returncode}")
        return result

    # -- readers and aggregation ----------------------------------------
    def read(self, path, **attrs):
        from repro.instrument import read_any_tracer
        with self.span("read_trace", format=_fmt(path), **attrs) as span:
            tracer = read_any_tracer(str(path))
        span.attrs["events"] = len(tracer)
        return tracer

    def chunks(self, path, tag: str, iterator=None):
        """Chunks of ``iter_any`` (or ``iterator``), with a span around
        every ``next()``."""
        from repro.instrument.stream import iter_any
        if iterator is None:
            iterator = iter_any(str(path))
        while True:
            with self.span("stream_decode", format=_fmt(path), run=tag):
                try:
                    chunk = next(iterator)
                except StopIteration:
                    return
            yield chunk

    def accumulate(self, chunks, accumulator):
        for chunk in chunks:
            with self.span("accumulate"):
                accumulator.update(chunk)
        return accumulator

    def analyze_report(self, measurements, sections: dict):
        from repro.cli import render_analyze_report
        from repro.core import AnalysisSession
        session = AnalysisSession(measurements)
        with self.span("batch_analyze"):
            session.analyze(index="euclidean")
        with self.span("batch_report"):
            return render_analyze_report(measurements, session=session,
                                         **sections) + "\n"

    def temporal_report(self, windows, n_events: int, sections: dict):
        from repro.cli import render_temporal_report
        from repro.core.temporal import temporal_analysis
        with self.span("temporal_analysis"):
            temporal_analysis(windows)
        with self.span("temporal_report"):
            return render_temporal_report(windows, n_events,
                                          **sections) + "\n"

    def shards(self, path, tag: str):
        """Plan two shards, fold each in process through its span
        reader (the work ``accumulate_shard`` does, with decode and
        accumulation spanned apart), merge."""
        from repro.core.online import OnlineAccumulator
        from repro.instrument.stream import (iter_any, iter_binary_span,
                                             iter_trace_span)
        from repro.shards import plan_shards
        with self.span("shard_plan"):
            plan = plan_shards(str(path), 2)
        parts = []
        for index, shard in enumerate(plan):
            if shard.kind == "binary":
                reader = iter_binary_span(shard.path, shard.start,
                                          shard.stop)
            elif shard.kind == "jsonl":
                reader = iter_trace_span(shard.path, shard.start,
                                         shard.stop)
            else:
                reader = iter_any(shard.path)
            with self.span("shard_accumulate", shard=index, run=tag):
                parts.append(self.accumulate(
                    self.chunks(path, tag, reader), OnlineAccumulator()))
        with self.span("shard_merge"):
            merged = parts[0]
            for part in parts[1:]:
                merged = merged.merge(part)
        return merged

    # -- one CLI operation, replayed in process -------------------------
    def replay(self, op: workloads.CliOp) -> None:
        from repro.core.online import OnlineAccumulator, WindowedAccumulator
        from repro.instrument import profile, window_profiles
        from repro.instrument.windows import equal_edges
        args = op.args
        path = args[-1]
        with self.span("op", metric=op.metric):
            self.startup(_CLI_IMPORT, "import repro.cli")
            if "--sweep" in args:
                from repro.sweep import SweepConfig, sweep_traces
                with self.span("sweep", mode="cold"):
                    sweep_traces(args[args.index("--sweep") + 1],
                                 SweepConfig(n_windows=16), jobs=2,
                                 use_cache=False)
                return
            if args[0] == "analyze":
                sections = {flag.lstrip("-"): True for flag in args
                            if flag in workloads.ALL_SECTIONS}
                if "--jobs" in args:
                    accumulator = self.shards(path, "replay-shards")
                elif "--stream" in args:
                    accumulator = self.accumulate(
                        self.chunks(path, "replay"), OnlineAccumulator())
                else:
                    tracer = self.read(path)
                    with self.span("profile"):
                        measurements = profile(tracer)
                if "--jobs" in args or "--stream" in args:
                    with self.span("finalize"):
                        measurements = accumulator.finalize()
                text = self.analyze_report(measurements, sections)
            else:
                sections = {"phases": "--phases" in args,
                            "heatmap": "--heatmap" in args}
                if "--forecast" in args:
                    sections["forecast"] = float(
                        args[args.index("--forecast") + 1])
                n_windows = int(args[args.index("--windows") + 1])
                if "--stream" in args:
                    scout = self.accumulate(self.chunks(path, "scout"),
                                            OnlineAccumulator())
                    with self.span("finalize"):
                        layout = scout.finalize()
                    binner = WindowedAccumulator(
                        equal_edges(scout.begin, scout.elapsed, n_windows),
                        layout.regions, layout.activities, scout.n_ranks)
                    for chunk in self.chunks(path, "bin"):
                        with self.span("window_accumulate"):
                            binner.update(chunk)
                    with self.span("finalize"):
                        windows = binner.finalize()
                    n_events = binner.n_events
                else:
                    tracer = self.read(path)
                    with self.span("window"):
                        windows = window_profiles(tracer, n_windows)
                    n_events = len(tracer)
                text = self.temporal_report(windows, n_events, sections)
        self.tally.record(
            self.tally.matches(op.group, text.encode("utf-8"),
                               f"replay of {op.metric}"),
            f"in-process replay of {op.metric} differs from the CLI")


def _durations(rec: Recorder, name: str, **match) -> List[float]:
    return [span.duration for span in rec.named(name)
            if all(span.attrs.get(k) == v for k, v in match.items())]


def _timed(span_fn, name: str, call, repeat: int = 5):
    for _ in range(repeat):
        with span_fn(name):
            call()


def run_traced(workload: workloads.Workload, work: Path, root: Path,
               seed: int, seconds: float, tally: Tally):
    """Every per-layer metric; returns (values, counts, recorder)."""
    rec = Recorder()
    layer = Layers(rec, root, tally)
    span = rec.span
    values: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    run_start = time.perf_counter()

    # 1. start-up ------------------------------------------------------
    for _ in range(3):
        layer.startup("pass", "bare")
        layer.startup("import repro", "import repro")
        probe = layer.startup(_CLI_IMPORT, "import repro.cli")
    modules, scipy_loaded = probe.stdout.split()

    # 2. replay of the workload's CLI session ---------------------------
    for op in workload.cli_ops:
        layer.replay(op)
    values["startup.bare_s"] = _median(_durations(rec, "startup",
                                                  what="bare"))
    values["startup.import_repro_s"] = _median(
        _durations(rec, "startup", what="import repro"))
    values["startup.import_cli_s"] = _median(
        _durations(rec, "startup", what="import repro.cli"))
    values["startup.modules"] = int(modules)
    values["startup.scipy_loaded"] = int(scipy_loaded)
    replayed = [s for s in rec.spans if s.name == "op"]
    replay_ids = {s.id for s in replayed}
    own = self_times(rec.spans)
    in_replay = descendants(rec.spans, replay_ids)
    total = sum(own[s.id] for s in in_replay)
    for name in SHARE_LAYERS:
        values[f"self_share.{name}"] = sum(
            own[s.id] for s in in_replay
            if LAYER_OF.get(s.name) == name) / total
    counts["replayed_ops"] = len(replayed)

    # 3. layers on the workload's traces -------------------------------
    for form, path in workload.traces.items():
        tracer = layer.read(path, run="layers")
        seconds_read = _durations(rec, "read_trace", run="layers",
                                  format=form)[0]
        values[f"read_trace.{form}_s"] = seconds_read
        if form != "gzip":
            values[f"read_trace.{form}_eps"] = len(tracer) / seconds_read
        chunks = list(layer.chunks(path, f"layers-{form}"))
        values[f"stream_decode.{form}_s"] = sum(
            _durations(rec, "stream_decode", run=f"layers-{form}"))
        if form == "jsonl":
            values["stream_decode.chunks"] = len(chunks)
            _aggregate_metrics(layer, tracer, chunks, values)
            _shard_metrics(layer, path, values)
        del tracer, chunks
    for name, metric in (("batch_analyze", "analyze_s"),
                         ("batch_report", "report_s"),
                         ("temporal_analysis", "temporal_analysis_s"),
                         ("temporal_report", "temporal_report_s")):
        values[metric] = sum(_durations(rec, name))    # over the replay
    _sweep_metrics(layer, workload, work, values)

    # 4. the daemon session, spanned ------------------------------------
    with workloads.ServeSession(workload, work, root, seed, tally,
                                span=span) as session:
        session.write(workload.opening + workload.uploads)
        session.read(seconds / 8, min_hits=1000, warmup=1.0)
        _http_probes(layer, session.daemon.url, values)
    _serve_counters(session, values)
    values["rss.daemon_mb"] = session.daemon.rss_mb

    # 5. store / cache / jobs at the final entry count -------------------
    _final_entry_metrics(layer, workload, work, session.written, values)
    values["http.hit_overhead_s"] = (values["hit_p50_s"]
                                     - values["jobs.fetch_hit_s"])

    # 6. memory of the streaming, sharded and temporal verbs ------------
    jsonl = str(workload.traces["jsonl"])
    for metric, args in (
            ("rss.stream_mb", ["analyze", "--stream", jsonl]),
            ("rss.jobs_mb", ["analyze", "--jobs", "2", jsonl]),
            ("rss.temporal_mb", ["temporal", "--windows", "16", jsonl]),
            ("rss.temporal_stream_mb",
             ["temporal", "--windows", "16", "--stream", jsonl])):
        result = procs.repro(args, root)
        tally.record(result.returncode == 0,
                     f"{' '.join(args[:-1])}: exit {result.returncode}")
        values[metric] = result.rss_mb

    values["trace.overhead_ratio"] = _overhead(rec, run_start)
    counts["spans"] = len(rec.spans)
    return values, counts, rec


def _aggregate_metrics(layer: Layers, tracer, chunks, values: dict) -> None:
    """profile, online accumulation over chunks already decoded,
    finalize, windowing and windowed accumulation (16 windows)."""
    from repro.core.online import OnlineAccumulator, WindowedAccumulator
    from repro.instrument import profile, window_profiles
    from repro.instrument.windows import equal_edges
    span = layer.span
    with span("profile", run="layers") as timed:
        profile(tracer)
    values["profile_s"] = timed.duration
    accumulator = OnlineAccumulator()
    with span("accumulate_pass") as timed:
        layer.accumulate(chunks, accumulator)
    values["accumulate_s"] = timed.duration
    with span("finalize", run="layers") as timed:
        layout = accumulator.finalize()
    values["finalize_s"] = timed.duration
    with span("window", run="layers") as timed:
        window_profiles(tracer, 16)
    values["window_s"] = timed.duration
    binner = WindowedAccumulator(
        equal_edges(accumulator.begin, accumulator.elapsed, 16),
        layout.regions, layout.activities, accumulator.n_ranks)
    with span("window_accumulate_pass") as timed:
        for chunk in chunks:
            binner.update(chunk)
    values["window_accumulate_s"] = timed.duration


def _shard_metrics(layer: Layers, path, values: dict) -> None:
    """Plan, per-shard busy time, merge, and the fan-out's extra cost:
    the wall time of ``shard_accumulate(jobs=2)`` beyond plan, the
    busiest shard and the merge."""
    from repro.shards import shard_accumulate
    layer.shards(path, "layers-shards")
    rec = layer.rec
    plan = rec.named("shard_plan")[-1].duration
    busy = _durations(rec, "shard_accumulate", run="layers-shards")
    merge = rec.named("shard_merge")[-1].duration
    with layer.span("shard_fanout"):
        shard_accumulate(str(path), jobs=2)
    fanout = rec.named("shard_fanout")[-1].duration
    values["shard.plan_s"] = plan
    values["shard.busy_max_s"] = max(busy)
    values["shard.busy_mean_s"] = statistics.mean(busy)
    values["shard.imbalance"] = max(busy) / statistics.mean(busy)
    values["shard.merge_s"] = merge
    values["shard.fanout_overhead_s"] = fanout - plan - max(busy) - merge


def _sweep_metrics(layer: Layers, workload, work: Path,
                   values: dict) -> None:
    from repro.sweep import SweepConfig, discover_traces, sweep_traces
    config = SweepConfig(n_windows=16)
    cache = work / "sweep-cache"
    directory = workload.sweep_dir
    with layer.span("sweep", mode="cold"):
        sweep_traces(directory, config, jobs=2, use_cache=False)
    with layer.span("sweep", mode="fill"):
        sweep_traces(directory, config, jobs=2, cache_dir=cache)
    with layer.span("sweep", mode="warm"):
        warm = sweep_traces(directory, config, jobs=2, cache_dir=cache)
    layer.tally.record(all(summary.cached for summary in warm),
                       "warm sweep recomputed a cached trace")
    cold = _durations(layer.rec, "sweep", mode="cold")
    values["sweep.cold_s"] = _median(cold)
    values["sweep.warm_s"] = _median(_durations(layer.rec, "sweep",
                                                mode="warm"))
    values["sweep.per_trace_s"] = values["sweep.cold_s"] / len(
        discover_traces(directory))


def _http_probes(layer: Layers, url: str, values: dict) -> None:
    """Health and scrape latencies against the loaded daemon."""
    def get(path, accept=None):
        request = urllib.request.Request(
            url + path, headers={"Accept": accept} if accept else {})
        with urllib.request.urlopen(request, timeout=60) as response:
            body = response.read()
        layer.tally.record(response.status == 200 and body,
                           f"GET {path} answered {response.status}")

    _timed(layer.span, "http_healthz", lambda: get("/healthz"), 10)
    _timed(layer.span, "http_scrape_json", lambda: get("/metrics"), 10)
    _timed(layer.span, "http_scrape_prom",
           lambda: get("/metrics", "text/plain"), 10)
    values["http.healthz_s"] = _median(_durations(layer.rec,
                                                  "http_healthz"))
    values["http.scrape_s"] = _median(_durations(layer.rec,
                                                 "http_scrape_json"))
    values["http.scrape_prom_s"] = _median(_durations(layer.rec,
                                                      "http_scrape_prom"))


def _serve_counters(session: "workloads.ServeSession",
                    values: dict) -> None:
    counters = session.final.get("counters", {})
    latency = session.final.get("latency", {})
    values["hit_p50_s"] = workloads.quantile(session.hits, 0.5)
    values["http.hit_p99_s"] = workloads.quantile(session.hits, 0.99)
    values["jobs.computed"] = counters.get("jobs_computed", 0)
    values["jobs.failed"] = counters.get("jobs_failed", 0)
    values["jobs.shed"] = counters.get("jobs_shed", 0)
    values["jobs.singleflight_merged"] = counters.get(
        "singleflight_merged", 0)
    values["http.status_4xx"] = counters.get("responses_4xx", 0)
    values["http.status_5xx"] = counters.get("responses_5xx", 0)
    values["client.retries"] = session.retries.count
    miss = (latency.get("report_miss") or {}).get("p50_seconds")
    compute = (latency.get("job_compute") or {}).get("p50_seconds")
    values["jobs.queue_wait_s"] = (miss - compute
                                   if miss is not None and compute
                                   is not None else float("nan"))
    values["store.evictions"] = session.final.get("store", {}).get(
        "evictions", 0)
    cache = session.final.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    values["cache.hit_ratio"] = (cache.get("hits", 0) / lookups
                                 if lookups else float("nan"))
    written = session.written
    values["store.dedup_ratio"] = (written.deduped / written.repeats
                                   if written.repeats else float("nan"))


def _final_entry_metrics(layer: Layers, workload, work: Path, written,
                         values: dict) -> None:
    """Per-op store/cache/job costs on the store the daemon left."""
    from repro.cache import ReportCache
    from repro.serve.jobs import JobRunner, build_report
    from repro.serve.store import TraceStore, trace_sha256
    span, rec = layer.span, layer.rec
    directory = work / "store"
    store = TraceStore(directory, max_bytes=workload.store_cap)
    cache = ReportCache(directory / "report-cache",
                        max_bytes=workload.cache_cap)
    keys = sorted(cache.keys())
    values["store.entries"] = store.stats()["entries"]
    values["cache.entries"] = len(keys)
    _timed(span, "store.stats", store.stats)
    _timed(span, "store.len", lambda: len(store))
    _timed(span, "store.evict", store.evict)
    _timed(span, "cache.stats", cache.stats)
    _timed(span, "cache.get", lambda: cache.get(keys[0]))
    for index, probe in enumerate(workload.probes):
        with span("store.hash"):
            trace_sha256(probe)
        with span("store.add"):
            _, created = store.add_file(probe)
        layer.tally.record(created, f"probe trace {probe.name} not stored")
        with span("cache.put"):
            cache.put(f"perfbench-probe-{index}", "x" * 4096)
    # In-process hits through the runner (no HTTP): the job layer's own
    # share of a cache-hit request.
    runner = JobRunner(store, cache, workers=2)
    try:
        pairs = [key for key in written.keys if written.has(key)]
        for sha, kind, params in pairs * max(1, 100 // len(pairs)):
            with span("jobs.fetch_hit"):
                payload = runner.fetch(sha, kind, params)
            layer.tally.record(payload.get("cached") is True,
                               f"in-process fetch of {kind} missed")
    finally:
        runner.shutdown()
    sha = trace_sha256(workload.traces["jsonl"])
    path = workload.traces["jsonl"]
    for kind, params in (("analyze", {"index": "euclidean"}),
                         ("temporal", {"index": "euclidean",
                                       "windows": 16})):
        with span("jobs.build_report", kind=kind):
            build_report(path, sha, kind, params)
        values[f"jobs.build_report.{kind}_s"] = _median(
            _durations(rec, "jobs.build_report", kind=kind))
    for name in ("store.stats", "store.len", "store.evict", "cache.stats",
                 "cache.get", "store.hash", "store.add", "cache.put",
                 "jobs.fetch_hit"):
        values[f"{name}_s"] = _median(_durations(rec, name))


def _overhead(rec: Recorder, run_start: float) -> float:
    """1 + (spans recorded x measured cost of one span) / traced wall."""
    probe = Recorder()
    count = 2000
    began = time.perf_counter()
    for _ in range(count):
        with probe.span("probe", run="x"):
            pass
    per_span = (time.perf_counter() - began) / count
    wall = time.perf_counter() - run_start
    return 1.0 + len(rec.spans) * per_span / wall
