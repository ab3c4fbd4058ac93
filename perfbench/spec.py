"""What the benchmark measures: workloads and metric definitions.

This module is the single source of ``BENCHMARK.json`` at the repo
root (``python3 perfbench/run.py --print-spec > BENCHMARK.json``).
Entries carry more than that file may hold: each end-to-end metric
says what it times on every workload, and each per-layer metric names
the end-to-end metrics (``metric@workload``) it should move, so a
later performance claim can cite the prediction it tests.
"""

from __future__ import annotations

import json

#: Seed for held-out confirmation of claims.  Tune on any other seed;
#: a claimed gain must also hold when the benchmark runs with this one.
HELD_OUT_SEED = 90210

WORKLOADS = {
    "cli-bulk": (
        "One 130k-event, 16-rank trace as JSONL/gzip/binary; 3k-event "
        "uploads. Most work: read_trace/stream_decode, then profile/online/"
        "windows/shards. Bypassed: analysis kernels (flat)."),
    "cli-small": (
        "Paper, wide 64x256 and drifting traces; daemon with capped store, "
        "mixed uploads, dedup, one 40k trace. Most work: start-up, store/"
        "cache/jobs/HTTP. Bypassed: decode (no effect)."),
}

# name, unit, better, bound, {workload: what is timed}
_ALL = tuple(WORKLOADS)
#: Times each workload runs every CLI operation in the untraced run.
ROUNDS = {"cli-bulk": 3, "cli-small": 3}
#: --seconds: the untraced run's timed cache-hit reading, in windows
#: spread over the run; the fixed CLI rounds set most of its length.
RUN_SECONDS = 3
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, {
        workload: f"median of {rounds} `python -m repro --version`, "
        "one before each round" for workload, rounds
        in ROUNDS.items()}),
    ("analyze_jsonl_s", "s", "lower", 0.25, {
        "cli-bulk": "eager analyze, bulk JSONL",
        "cli-small": "paper trace, all sections"}),
    ("analyze_gzip_s", "s", "lower", 0.25, {
        "cli-bulk": "eager analyze, bulk gzip",
        "cli-small": "drifting gzip trace, all sections"}),
    ("analyze_binary_s", "s", "lower", 0.25, {
        "cli-bulk": "eager analyze, bulk binary",
        "cli-small": "wide binary trace, all sections"}),
    ("analyze_stream_s", "s", "lower", 0.25, {
        "cli-bulk": "--stream, bulk JSONL",
        "cli-small": "--stream, paper trace, all sections"}),
    ("analyze_jobs_s", "s", "lower", 0.25, {
        "cli-bulk": "--jobs 2, bulk JSONL",
        "cli-small": "--jobs 2, paper trace, all sections"}),
    ("temporal_s", "s", "lower", 0.25, {
        "cli-bulk": "temporal --windows 16, bulk JSONL",
        "cli-small": "drifting trace, --phases --forecast --heatmap"}),
    ("temporal_stream_s", "s", "lower", 0.25, {
        "cli-bulk": "temporal --stream, bulk JSONL",
        "cli-small": "drifting trace --stream, all sections"}),
    ("sweep_s", "s", "lower", 0.25, {
        "cli-bulk": "cold --sweep --jobs 2 over the bulk binary trace",
        "cli-small": "cold --sweep --jobs 2 over the 9 drifting traces"}),
    ("rss_mb", "MB", "lower", 0.15, {
        "cli-bulk": "peak RSS of eager JSONL analyze",
        "cli-small": "peak RSS of wide-trace analyze"}),
    ("ingest_s", "s", "lower", 0.25, {
        "cli-bulk": "median upload latency, 24 distinct 3k-event JSONL "
        "traces of the bulk shape",
        "cli-small": "median upload latency, 24 distinct 3k-event JSONL "
        "traces, among 9 mixed uploads"}),
    ("cold_report_s", "s", "lower", 0.25, {
        workload: "median cache-miss analyze latency of the ingest_s "
        "uploads" for workload in _ALL}),
    ("hit_p50_s", "s", "lower", 0.25, {
        workload: "lower quartile over 24 read windows (one after every "
        "CLI operation) of the window's p50 hit latency, 2 closed-loop "
        "clients" for workload in _ALL}),
    # No tail-latency metric here: on a shared 2-core host a window's
    # p90 or p99 doubles whenever the host is contended, and no
    # statistic over windows kept it within any bound.  The p99 is the
    # per-layer http.hit_p99_s of the traced run.
    ("hit_rps", "1/s", "higher", 0.25, {
        workload: "upper quartile over the read windows of cache hits "
        "per second" for workload in _ALL}),
    ("ok_ratio", "ratio", "higher", 0.01, {
        workload: "1 - failed/attempted operations" for workload in _ALL}),
]

# name, unit, better, moves (end-to-end metric@workload)
_EAGER_BULK = ["analyze_jsonl_s@cli-bulk", "analyze_gzip_s@cli-bulk",
               "analyze_binary_s@cli-bulk", "temporal_s@cli-bulk"]
_STREAM_BULK = ["analyze_stream_s@cli-bulk", "temporal_stream_s@cli-bulk"]
_SERVE_COLD = ["ingest_s@cli-bulk", "cold_report_s@cli-bulk"]
_JSONL_EAGER = ["analyze_jsonl_s@cli-bulk", "temporal_s@cli-bulk"] + _SERVE_COLD
_BINARY_EAGER = ["analyze_binary_s@cli-bulk", "analyze_binary_s@cli-small"]
_STARTUP = (["setup_s@cli-bulk", "setup_s@cli-small"]
            + [f"{name}@cli-small" for name in (
                "analyze_jsonl_s", "analyze_stream_s", "analyze_jobs_s",
                "temporal_s", "temporal_stream_s", "sweep_s")])
PER_LAYER = [
    ("startup.bare_s", "s", "lower", ["none: machine baseline"]),
    ("startup.import_repro_s", "s", "lower", _STARTUP),
    ("startup.import_cli_s", "s", "lower", _STARTUP),
    ("startup.modules", "count", "lower", _STARTUP),
    ("startup.scipy_loaded", "count", "lower", _STARTUP),
    ("read_trace.jsonl_s", "s", "lower", _JSONL_EAGER),
    ("read_trace.gzip_s", "s", "lower",
     ["analyze_gzip_s@cli-bulk"]),
    ("read_trace.binary_s", "s", "lower", _BINARY_EAGER),
    ("read_trace.jsonl_eps", "events/s", "higher", _JSONL_EAGER),
    ("read_trace.binary_eps", "events/s", "higher", _BINARY_EAGER),
    ("stream_decode.jsonl_s", "s", "lower", _STREAM_BULK),
    ("stream_decode.gzip_s", "s", "lower", _STREAM_BULK),
    ("stream_decode.binary_s", "s", "lower", _STREAM_BULK),
    ("stream_decode.chunks", "count", "lower", _STREAM_BULK),
    ("profile_s", "s", "lower", _EAGER_BULK + ["cold_report_s@cli-bulk"]),
    ("accumulate_s", "s", "lower",
     _STREAM_BULK + ["analyze_jobs_s@cli-bulk"]),
    ("finalize_s", "s", "lower", _STREAM_BULK),
    ("window_s", "s", "lower",
     ["temporal_s@cli-bulk"]),
    ("window_accumulate_s", "s", "lower", ["temporal_stream_s@cli-bulk"]),
    ("shard.plan_s", "s", "lower", ["analyze_jobs_s@cli-bulk"]),
    ("shard.busy_max_s", "s", "lower", ["analyze_jobs_s@cli-bulk"]),
    ("shard.busy_mean_s", "s", "lower", ["analyze_jobs_s@cli-bulk"]),
    ("shard.imbalance", "ratio", "lower", ["analyze_jobs_s@cli-bulk"]),
    ("shard.merge_s", "s", "lower", ["analyze_jobs_s@cli-bulk"]),
    ("shard.fanout_overhead_s", "s", "lower", ["analyze_jobs_s@cli-bulk"]),
    ("analyze_s", "s", "lower", ["analyze_binary_s@cli-small"]),
    ("report_s", "s", "lower", ["analyze_binary_s@cli-small"]),
    ("temporal_analysis_s", "s", "lower", ["temporal_s@cli-small"]),
    ("temporal_report_s", "s", "lower", ["temporal_s@cli-small"]),
    ("sweep.cold_s", "s", "lower", ["sweep_s@cli-small"]),
    ("sweep.warm_s", "s", "lower", ["sweep_s@cli-small"]),
    ("sweep.per_trace_s", "s", "lower", ["sweep_s@cli-small"]),
    ("cache.get_s", "s", "lower", ["hit_p50_s@cli-small"]),
    ("cache.put_s", "s", "lower", ["cold_report_s@cli-small"]),
    ("cache.stats_s", "s", "lower", ["hit_rps@cli-small"]),
    ("cache.entries", "count", "higher", ["hit_p50_s@cli-small"]),
    ("cache.hit_ratio", "ratio", "higher", ["hit_p50_s@cli-small"]),
    ("store.hash_s", "s", "lower", ["ingest_s@cli-small"]),
    ("store.add_s", "s", "lower", ["ingest_s@cli-small"]),
    ("store.evict_s", "s", "lower", ["ingest_s@cli-small"]),
    ("store.stats_s", "s", "lower", ["hit_rps@cli-small"]),
    ("store.len_s", "s", "lower", ["hit_rps@cli-small"]),
    ("store.entries", "count", "higher", ["ingest_s@cli-small"]),
    ("store.evictions", "count", "lower", ["ingest_s@cli-small"]),
    ("store.dedup_ratio", "ratio", "higher", ["ingest_s@cli-small"]),
    ("jobs.build_report.analyze_s", "s", "lower",
     ["cold_report_s@cli-small", "cold_report_s@cli-bulk"]),
    ("jobs.build_report.temporal_s", "s", "lower",
     ["cold_report_s@cli-small", "cold_report_s@cli-bulk"]),
    ("jobs.fetch_hit_s", "s", "lower", ["hit_p50_s@cli-small"]),
    ("jobs.queue_wait_s", "s", "lower", ["cold_report_s@cli-small"]),
    ("jobs.computed", "count", "lower", ["cold_report_s@cli-small"]),
    ("jobs.failed", "count", "lower", ["ok_ratio@cli-small"]),
    ("jobs.shed", "count", "lower", ["ok_ratio@cli-small"]),
    ("jobs.singleflight_merged", "count", "higher",
     ["cold_report_s@cli-small"]),
    ("http.hit_overhead_s", "s", "lower",
     ["hit_p50_s@cli-small", "hit_rps@cli-small"]),
    ("http.hit_p99_s", "s", "lower", ["hit_p50_s@cli-small"]),
    ("http.healthz_s", "s", "lower", ["none: daemon readiness probe"]),
    ("http.scrape_s", "s", "lower", ["hit_rps@cli-small"]),
    ("http.scrape_prom_s", "s", "lower", ["hit_rps@cli-small"]),
    ("client.retries", "count", "lower",
     ["hit_p50_s@cli-small", "ok_ratio@cli-small"]),
    ("http.status_4xx", "count", "lower", ["ok_ratio@cli-small"]),
    ("http.status_5xx", "count", "lower", ["ok_ratio@cli-small"]),
    ("rss.stream_mb", "MB", "lower", ["rss_mb@cli-bulk"]),
    ("rss.jobs_mb", "MB", "lower", ["rss_mb@cli-bulk"]),
    ("rss.temporal_mb", "MB", "lower", ["rss_mb@cli-bulk"]),
    ("rss.temporal_stream_mb", "MB", "lower", ["rss_mb@cli-bulk"]),
    ("rss.daemon_mb", "MB", "lower", ["none: daemon peak RSS at drain"]),
    ("trace.overhead_ratio", "ratio", "lower", ["none: tracer cost"]),
] + [
    (f"self_share.{layer}", "ratio", "lower", [f"share of {what}"])
    for layer, what in (
        ("startup", "replayed self time in interpreter start"),
        ("decode", "replayed self time in read_trace + stream_decode"),
        ("aggregate", "replayed self time in profile/online/windows"),
        ("shard", "replayed self time in shard plan/fan-out/merge"),
        ("analysis", "replayed self time in analysis + rendering"),
        ("sweep", "replayed self time in the sweep driver"),
    )]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> str:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound, _ in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _ in PER_LAYER],
    }
    return json.dumps(spec, indent=2) + "\n"


def explain() -> str:
    """Workloads, what each end-to-end metric times on each, and the
    end-to-end metrics each per-layer metric should move."""
    lines = ["workloads:"]
    lines += [f"  {name}: {why}" for name, why in WORKLOADS.items()]
    lines.append("\nend-to-end metrics (bound = allowed worsening; each "
                 "CLI metric is the mean of one run per round, rounds: "
                 + ", ".join(f"{name} {count}"
                             for name, count in ROUNDS.items())
                 + "; every timing but setup_s is divided, and hit_rps "
                 "multiplied, by the run's machine-speed factor, see "
                 "speed.py):")
    for name, unit, better, bound, timed in END_TO_END:
        lines.append(f"  {name} [{unit}, {better} is better, "
                     f"bound {bound:g}]")
        lines += [f"    {workload}: {what}"
                  for workload, what in timed.items()]
    lines.append("\nper-layer metrics -> end-to-end metrics they move:")
    for name, unit, better, moves in PER_LAYER:
        lines.append(f"  {name} [{unit}, {better}]: {', '.join(moves)}")
    return "\n".join(lines) + "\n"
