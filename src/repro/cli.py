"""Command-line interface — the methodology as a performance tool.

The paper's conclusion plans to "integrate our methodology into a
performance tool"; this module is that integration for the reproduced
stack.  Subcommands:

* ``repro analyze TRACEFILE``   — post-mortem analysis of a trace file
  (as written by :func:`repro.instrument.write_trace`): full report,
  optional pattern figures and Lorenz curves.  ``--stream`` analyzes
  the trace out-of-core in bounded-memory chunks (``--chunk-size``),
  and ``--jobs J`` fans the file out over J shard workers with a
  deterministic merge — same report, any trace size.
* ``repro paper``               — reproduce the paper's §4 example from
  the calibrated reconstruction (tables, figures, narrative).
* ``repro cfd``                 — run the CFD workload on the simulator,
  analyze it, optionally keep the trace.
* ``repro counters TRACEFILE``  — the dissimilarity analysis on counting
  parameters (messages or bytes) instead of timings.
* ``repro faults``              — fault injection as validation: run the
  blame-localization campaign and score precision/recall.
* ``repro temporal TRACEFILE``  — time-resolved analysis: per-window
  imbalance trends, drifting regions, phase detection and threshold
  forecasts; ``--sweep DIR`` fans the analysis out over every trace in
  a directory (multiprocessing, on-disk content-keyed cache);
  ``--stream`` windows a single trace in two bounded-memory passes.
* ``repro self``                — dogfooding: profile the tool's own
  sharded analysis pipeline, print its per-stage timing table and
  imbalance indices, optionally export the spans as a repro trace.
  ``analyze`` and ``temporal`` accept ``--profile``/``--profile-out``
  to do the same for any run.
* ``repro serve``               — run the analysis service daemon: HTTP
  trace ingestion into a content-addressed store, a bounded worker
  pool over the shared report cache, ``/metrics`` + ``/healthz``
  observability, graceful job-draining shutdown.
* ``repro submit TRACEFILE``    — upload a trace to a running daemon.
* ``repro fetch TRACE``         — fetch a report from a running daemon
  (byte-identical to the corresponding local command's output).

Trace files may be JSONL (optionally gzipped) or the compact binary
format (``.rptb``); the readers sniff the format.  Damaged trace files
are salvaged with a warning by default; ``--strict`` makes any damage
fatal.

Exit codes: ``0`` success, ``1`` a check failed (``repro paper``
verification, ``repro faults --require-perfect``), ``2`` an expected
error (bad arguments, unreadable input, any :class:`ReproError`),
``3`` an internal error (set ``REPRO_DEBUG=1`` for the traceback).

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import __version__
from .errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    from .serve.client import DEFAULT_URL
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Load-imbalance analysis of message-passing programs "
                    "(reproduction of Calzarossa/Massari/Tessera, "
                    "PACT 2003).")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze_cmd = commands.add_parser(
        "analyze", help="analyze a trace file post mortem")
    analyze_cmd.add_argument("tracefile", help="trace written by repro "
                                               "(.jsonl, .jsonl.gz or "
                                               ".rptb)")
    analyze_cmd.add_argument("--patterns", action="store_true",
                             help="also print the per-activity pattern "
                                  "figures")
    analyze_cmd.add_argument("--lorenz", metavar="REGION",
                             help="also print the Lorenz curve of one "
                                  "region")
    analyze_cmd.add_argument("--index", default="euclidean",
                             help="index of dispersion (default: "
                                  "euclidean)")
    analyze_cmd.add_argument("--diagnose", action="store_true",
                             help="also print the automated diagnosis")
    analyze_cmd.add_argument("--timeline", action="store_true",
                             help="also print the per-rank ASCII "
                                  "timeline")
    analyze_cmd.add_argument("--significance", type=float, metavar="EPS",
                             help="also report the noise-calibrated "
                                  "threshold for relative jitter EPS")
    analyze_cmd.add_argument("--export-chrome", metavar="PATH",
                             help="also export the trace in Chrome "
                                  "Trace Event Format (Perfetto)")
    analyze_cmd.add_argument("--heatmap", action="store_true",
                             help="also print the per-processor share "
                                  "heatmap")
    analyze_cmd.add_argument("--whatif", action="store_true",
                             help="also print the balancing what-if "
                                  "table")
    analyze_cmd.add_argument("--strict", action="store_true",
                             help="refuse damaged trace files instead "
                                  "of salvaging their valid prefix")
    analyze_cmd.add_argument("--drop-missing-ranks", action="store_true",
                             help="exclude ranks with no recorded "
                                  "events (e.g. lost from a salvaged "
                                  "trace) from the analysis")
    analyze_cmd.add_argument("--stream", action="store_true",
                             help="stream the trace in bounded-memory "
                                  "chunks instead of loading every "
                                  "event (incompatible with --timeline "
                                  "and --export-chrome)")
    analyze_cmd.add_argument("--chunk-size", type=int, default=8192,
                             metavar="N",
                             help="events per streamed chunk "
                                  "(default: 8192)")
    analyze_cmd.add_argument("--jobs", type=int, default=None,
                             metavar="J",
                             help="fan the file out over J worker "
                                  "processes (sharded map-reduce; "
                                  "implies --stream; default: "
                                  "sequential)")
    _add_profile_arguments(analyze_cmd)

    commands.add_parser(
        "paper", help="reproduce the paper's application example")

    cfd_cmd = commands.add_parser(
        "cfd", help="simulate the CFD workload and analyze it")
    cfd_cmd.add_argument("--ranks", type=int, default=16)
    cfd_cmd.add_argument("--steps", type=int, default=4)
    cfd_cmd.add_argument("--grid", type=int, default=256,
                         help="square grid edge length")
    cfd_cmd.add_argument("--trace", metavar="PATH",
                         help="write the trace to this file")

    testbed_cmd = commands.add_parser(
        "testbed", help="manage a tracefile repository")
    testbed_cmd.add_argument("directory")
    testbed_actions = testbed_cmd.add_subparsers(dest="action",
                                                 required=True)
    testbed_actions.add_parser("list", help="list stored traces")
    add_action = testbed_actions.add_parser("add", help="ingest a trace")
    add_action.add_argument("tracefile")
    add_action.add_argument("--program", required=True)
    add_action.add_argument("--machine", required=True)
    add_action.add_argument("--tag", action="append", default=[])
    show_action = testbed_actions.add_parser(
        "show", help="analyze one stored trace")
    show_action.add_argument("trace_id")

    counters_cmd = commands.add_parser(
        "counters", help="dissimilarity analysis on counting parameters")
    counters_cmd.add_argument("tracefile")
    counters_cmd.add_argument("--counter", default="messages",
                              choices=("messages", "bytes", "events"))
    counters_cmd.add_argument("--strict", action="store_true",
                              help="refuse damaged trace files instead "
                                   "of salvaging their valid prefix")

    faults_cmd = commands.add_parser(
        "faults", help="fault injection as validation of the "
                       "methodology's localization")
    faults_cmd.add_argument("--campaign", action="store_true",
                            help="run the blame-localization campaign "
                                 "and print the precision/recall table")
    faults_cmd.add_argument("--criterion", default="maximum",
                            choices=("maximum", "elbow", "percentile",
                                     "share"),
                            help="ranking criterion used for the blame "
                                 "claims (default: maximum)")
    faults_cmd.add_argument("--require-perfect", action="store_true",
                            help="exit non-zero unless every fault is "
                                 "localized and every claim is correct")

    temporal_cmd = commands.add_parser(
        "temporal", help="time-resolved imbalance analysis: per-window "
                         "trends, phases and drift forecasts")
    temporal_cmd.add_argument("tracefile", nargs="?",
                              help="trace to analyze (omit with --sweep)")
    temporal_cmd.add_argument("--sweep", metavar="DIR",
                              help="analyze every trace in DIR in "
                                   "parallel instead of one file")
    temporal_cmd.add_argument("--windows", type=int, default=16,
                              help="number of equal time windows "
                                   "(default: 16)")
    temporal_cmd.add_argument("--index", default="euclidean",
                              help="index of dispersion (default: "
                                   "euclidean)")
    temporal_cmd.add_argument("--phases", action="store_true",
                              help="also print the change-point phase "
                                   "segmentation")
    temporal_cmd.add_argument("--forecast", type=float, metavar="LEVEL",
                              help="also forecast the window at which "
                                   "each region's imbalance reaches "
                                   "LEVEL")
    temporal_cmd.add_argument("--heatmap", action="store_true",
                              help="also print the region x window "
                                   "imbalance heatmap")
    temporal_cmd.add_argument("--jobs", type=int, default=None,
                              help="worker processes for --sweep "
                                   "(default: one per CPU)")
    temporal_cmd.add_argument("--no-cache", action="store_true",
                              help="ignore and do not update the sweep "
                                   "result cache")
    temporal_cmd.add_argument("--strict", action="store_true",
                              help="refuse damaged trace files instead "
                                   "of salvaging their valid prefix")
    temporal_cmd.add_argument("--stream", action="store_true",
                              help="two-pass bounded-memory windowed "
                                   "accumulation instead of loading "
                                   "every event (single trace only)")
    temporal_cmd.add_argument("--chunk-size", type=int, default=8192,
                              metavar="N",
                              help="events per streamed chunk "
                                   "(default: 8192)")
    _add_profile_arguments(temporal_cmd)

    self_cmd = commands.add_parser(
        "self", help="profile the tool's own pipeline and turn the "
                     "methodology on itself")
    self_cmd.add_argument("tracefile", nargs="?",
                          help="trace to analyze under profiling "
                               "(default: a synthesized paper trace)")
    self_cmd.add_argument("--jobs", type=int, default=2, metavar="J",
                          help="shard worker processes for the profiled "
                               "run (default: 2)")
    self_cmd.add_argument("--chunk-size", type=int, default=8192,
                          metavar="N",
                          help="events per streamed chunk "
                               "(default: 8192)")
    self_cmd.add_argument("--index", default="euclidean",
                          help="index of dispersion for the "
                               "self-imbalance figures (default: "
                               "euclidean)")
    self_cmd.add_argument("--trace", metavar="PATH", dest="self_trace",
                          help="write the recorded spans as a repro "
                               "trace file (analyzable with "
                               "`repro analyze`)")
    self_cmd.add_argument("--report", action="store_true",
                          help="also print the full imbalance report "
                               "of the self-trace")

    serve_cmd = commands.add_parser(
        "serve", help="run the analysis service daemon: HTTP trace "
                      "ingestion, cached report serving, /metrics")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8765,
                           help="bind port; 0 picks a free one "
                                "(default: 8765)")
    serve_cmd.add_argument("--store", default=".repro-serve",
                           metavar="DIR",
                           help="trace store + report cache directory "
                                "(default: .repro-serve)")
    serve_cmd.add_argument("--cache-dir", metavar="DIR",
                           help="report cache directory (default: "
                                "report-cache under --store)")
    serve_cmd.add_argument("--workers", type=int, default=4,
                           help="analysis worker threads (default: 4)")
    serve_cmd.add_argument("--max-body-bytes", type=int,
                           default=None, metavar="N",
                           help="largest accepted request body; bigger "
                                "uploads get HTTP 413 (default: 256 MiB)")
    serve_cmd.add_argument("--max-queue", type=int, default=None,
                           metavar="N",
                           help="jobs in flight before load is shed "
                                "with HTTP 429 (default: 64)")
    serve_cmd.add_argument("--max-cache-bytes", type=int, default=None,
                           metavar="N",
                           help="report cache size cap; exceeding it "
                                "evicts least-recently-used reports "
                                "(default: unbounded)")
    serve_cmd.add_argument("--max-store-bytes", type=int, default=None,
                           metavar="N",
                           help="trace store size cap; exceeding it "
                                "evicts least-recently-analyzed traces "
                                "(default: unbounded)")
    serve_cmd.add_argument("--request-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="per-connection socket timeout guarding "
                                "against slow-loris peers (default: 60)")
    serve_cmd.add_argument("--ready-file", metavar="PATH",
                           help="write 'HOST PORT' here once serving "
                                "(for scripts and CI)")
    serve_cmd.add_argument("--verbose", action="store_true",
                           help="log every request to stderr")

    submit_cmd = commands.add_parser(
        "submit", help="upload a trace to a running analysis daemon")
    submit_cmd.add_argument("tracefile", help="trace to upload "
                                              "(.jsonl, .jsonl.gz or "
                                              ".rptb)")
    submit_cmd.add_argument("--url", default=DEFAULT_URL,
                            help=f"daemon base URL (default: "
                                 f"{DEFAULT_URL})")
    submit_cmd.add_argument("--name", help="display name to store with "
                                           "the trace (default: the "
                                           "file name)")
    _add_retry_arguments(submit_cmd)

    fetch_cmd = commands.add_parser(
        "fetch", help="fetch a report from a running analysis daemon")
    fetch_cmd.add_argument("trace",
                           help="trace file (submitted first if needed) "
                                "or the sha256 digest of a stored trace")
    fetch_cmd.add_argument("--url", default=DEFAULT_URL,
                           help=f"daemon base URL (default: "
                                f"{DEFAULT_URL})")
    fetch_cmd.add_argument("--kind", default="analyze",
                           choices=("analyze", "diagnose", "whatif",
                                    "temporal"),
                           help="report kind (default: analyze)")
    fetch_cmd.add_argument("--index", default="euclidean",
                           help="index of dispersion (default: "
                                "euclidean)")
    fetch_cmd.add_argument("--windows", type=int, default=16,
                           help="window count for --kind temporal "
                                "(default: 16)")
    fetch_cmd.add_argument("--json", action="store_true",
                           help="print the structured JSON report "
                                "instead of the rendered text")
    _add_retry_arguments(fetch_cmd)
    return parser


def _add_profile_arguments(command) -> None:
    """The self-observability flags shared by ``analyze``/``temporal``."""
    command.add_argument("--profile", action="store_true",
                         help="record pipeline spans and print the "
                              "per-stage timing table after the report")
    command.add_argument("--profile-out", metavar="PATH",
                         help="write the recorded spans as a repro "
                              "trace file (implies --profile; analyze "
                              "it with `repro analyze` or `repro self`)")


def _add_retry_arguments(command) -> None:
    """The client-resilience flags shared by ``submit`` and ``fetch``."""
    command.add_argument("--retries", type=int, default=2,
                         help="extra attempts after a connection "
                              "failure, 429 or 503 (default: 2; "
                              "0 disables retrying)")
    command.add_argument("--retry-max-wait", type=float, default=15.0,
                         metavar="SECONDS",
                         help="ceiling on one retry backoff sleep, "
                              "also caps an honored Retry-After "
                              "(default: 15)")


def _make_client(arguments):
    from .serve.client import ServeClient
    if arguments.retries < 0:
        raise ReproError("--retries must not be negative")
    if arguments.retry_max_wait < 0:
        raise ReproError("--retry-max-wait must not be negative")
    return ServeClient(arguments.url, retries=arguments.retries,
                       retry_max_wait=arguments.retry_max_wait)


class _Profiled:
    """Span recording around one command, when ``--profile`` asks.

    On success, prints the per-stage timing table after the command's
    own output and optionally serializes the spans as a repro trace
    (``--profile-out``) — the dogfooding loop: the profile of an
    analysis run is itself an analyzable trace.  On failure the spans
    are dropped; the error message must stay the last thing printed.
    """

    def __init__(self, arguments) -> None:
        self._out = getattr(arguments, "profile_out", None)
        self._active = bool(getattr(arguments, "profile", False)
                            or self._out)
        self._startup = getattr(arguments, "startup", None)

    def __enter__(self) -> "_Profiled":
        if self._active:
            from .obs import spans as obspans
            obspans.enable()
            if self._startup is not None:
                obspans.record(obspans.Span(
                    obspans.IMPORT_STAGE, *self._startup,
                    activity="startup"))
        return self

    def __exit__(self, exc_type, *exc_info) -> bool:
        if not self._active:
            return False
        from .obs import spans as obspans
        spans = obspans.drain()
        obspans.disable()
        if exc_type is not None:
            return False
        if spans:
            print()
            print(obspans.render_span_table(spans))
            if self._out:
                from .obs.selftrace import write_selftrace
                count = write_selftrace(self._out, spans)
                print(f"\nwrote {count} self-trace events to "
                      f"{self._out}")
        else:
            print("\n(no pipeline spans were recorded)")
        return False


def _check_stream_arguments(arguments) -> None:
    if arguments.chunk_size < 1:
        raise ReproError("--chunk-size must be at least 1")
    jobs = getattr(arguments, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ReproError("--jobs must be at least 1")


def _streamed_measurements(arguments, on_error: str):
    """Bounded-memory trace aggregation: sequential chunked streaming,
    or the sharded map-reduce driver when --jobs asks for workers."""
    _check_stream_arguments(arguments)
    if arguments.jobs is not None and arguments.jobs > 1:
        from .shards import shard_accumulate
        accumulator = shard_accumulate(arguments.tracefile,
                                       jobs=arguments.jobs,
                                       chunk_size=arguments.chunk_size,
                                       on_error=on_error)
    else:
        from .core.online import OnlineAccumulator
        from .instrument.stream import iter_any
        accumulator = OnlineAccumulator().consume(
            iter_any(arguments.tracefile,
                     chunk_size=arguments.chunk_size, on_error=on_error))
    return accumulator.finalize()


def render_analyze_report(measurements, *, index: str = "euclidean",
                          patterns: bool = False,
                          lorenz: Optional[str] = None,
                          diagnose: bool = False,
                          heatmap: bool = False, whatif: bool = False,
                          significance: Optional[float] = None,
                          tracer=None, timeline: bool = False,
                          export_chrome: Optional[str] = None,
                          session=None) -> str:
    """The exact text ``repro analyze`` prints for this flag set.

    Shared between the CLI command and the analysis service daemon
    (:mod:`repro.serve`), so a report fetched over HTTP is
    byte-identical to the corresponding command's output by
    construction.  ``tracer`` is only needed for the flags that require
    the full event list (``timeline``, ``export_chrome``).  Passing an
    existing :class:`~repro.core.AnalysisSession` reuses its cached
    matrices; by default a fresh one backs every section.
    """
    from .core import AnalysisSession
    if session is None:
        session = AnalysisSession(measurements)
    analysis = session.analyze(index=index)
    sections = [session.report(index=index)]
    if patterns:
        from .viz import render_pattern_grid
        sections.extend(render_pattern_grid(grid)
                        for grid in analysis.patterns)
    if lorenz:
        from .viz.lorenz import render_region_lorenz
        sections.append(render_region_lorenz(measurements, lorenz))
    if diagnose:
        from .core import render_diagnosis
        sections.append(render_diagnosis(session.diagnosis(index=index)))
    if timeline:
        from .viz import render_timeline
        sections.append(render_timeline(tracer))
    if export_chrome:
        from .instrument import export_chrome_trace
        count = export_chrome_trace(export_chrome, tracer)
        sections.append(f"exported {count} events to {export_chrome}")
    if heatmap:
        from .viz import render_heatmap
        sections.append(render_heatmap(measurements))
    if whatif:
        from .core import balance_predictions, render_predictions
        sections.append(render_predictions(
            balance_predictions(measurements)))
    if significance is not None:
        from .core import noise_quantile
        threshold = noise_quantile(measurements.n_processors,
                                   epsilon=significance)
        import numpy as np
        significant = int((np.nan_to_num(analysis.activity_view.dispersion)
                           > threshold).sum())
        sections.append(
            f"noise-calibrated threshold (eps="
            f"{significance:g}, q=0.95): {threshold:.5f}; "
            f"{significant} (region, activity) pairs exceed it")
    return "\n\n".join(sections)


def _command_analyze(arguments) -> int:
    on_error = "raise" if arguments.strict else "salvage"
    if arguments.jobs is not None and not arguments.stream:
        arguments.stream = True       # sharding is a streaming mode
    with _Profiled(arguments):
        if arguments.stream:
            for flag in ("timeline", "export_chrome"):
                if getattr(arguments, flag):
                    raise ReproError(
                        f"--{flag.replace('_', '-')} needs the full "
                        "event list; drop --stream/--jobs to use it")
            tracer = None
            measurements = _streamed_measurements(arguments, on_error)
        else:
            from .instrument import read_any_tracer, profile
            from .obs import spans as obspans
            with obspans.span("read_trace", activity="read",
                              trace=str(arguments.tracefile)):
                tracer = read_any_tracer(arguments.tracefile,
                                         on_error=on_error)
            with obspans.span("profile", activity="aggregate"):
                measurements = profile(tracer)
        preamble = []
        if arguments.drop_missing_ranks:
            missing = measurements.missing_processors()
            if missing:
                preamble.append(
                    "dropping rank(s) with no recorded events: "
                    + ", ".join(str(p) for p in missing))
                measurements = measurements.without_missing_processors()
        text = render_analyze_report(
            measurements, index=arguments.index,
            patterns=arguments.patterns,
            lorenz=arguments.lorenz, diagnose=arguments.diagnose,
            heatmap=arguments.heatmap, whatif=arguments.whatif,
            significance=arguments.significance, tracer=tracer,
            timeline=arguments.timeline,
            export_chrome=arguments.export_chrome)
        print("\n\n".join(preamble + [text]))
    return 0


def _command_paper(arguments) -> int:
    from .calibrate import reconstruct, verify
    from .core import analyze, render_full_report
    measurements = reconstruct()
    report = verify(measurements)
    print(report.describe())
    print()
    print(render_full_report(analyze(measurements)))
    return 0 if report.passed else 1


def _command_cfd(arguments) -> int:
    from .apps import CFDConfig, run_cfd
    from .core import analyze, render_full_report
    config = CFDConfig(grid=(arguments.grid, arguments.grid),
                       steps=arguments.steps)
    result, tracer, measurements = run_cfd(config, n_ranks=arguments.ranks)
    print(f"simulated {result.elapsed:.3f} s on {arguments.ranks} ranks "
          f"({result.messages} messages, {len(tracer)} events)\n")
    print(render_full_report(analyze(measurements)))
    if arguments.trace:
        if str(arguments.trace).endswith(".rptb"):
            from .instrument import write_binary_trace
            count = write_binary_trace(arguments.trace, tracer.events)
        else:
            from .instrument import write_tracer
            count = write_tracer(arguments.trace, tracer)
        print(f"\nwrote {count} events to {arguments.trace}")
    return 0


def _command_counters(arguments) -> int:
    from .core import analyze, render_full_report
    from .instrument import read_any_tracer
    from .instrument.counters import count_profile
    on_error = "raise" if arguments.strict else "salvage"
    tracer = read_any_tracer(arguments.tracefile, on_error=on_error)
    measurements = count_profile(tracer, counter=arguments.counter)
    analysis = analyze(measurements, cluster_count=None)
    print(f"counting parameter: {arguments.counter}\n")
    print(render_full_report(analysis))
    return 0


def _command_testbed(arguments) -> int:
    from .testbed import Testbed
    testbed = Testbed(arguments.directory)
    if arguments.action == "list":
        if len(testbed) == 0:
            print("(empty testbed)")
        for entry in testbed.entries():
            tags = f" [{', '.join(entry.tags)}]" if entry.tags else ""
            print(f"{entry.trace_id}: {entry.program} on {entry.machine}, "
                  f"P={entry.n_ranks}, {entry.events} events, "
                  f"{entry.elapsed:.4g} s{tags}")
        return 0
    if arguments.action == "add":
        from .instrument import read_any_tracer
        tracer = read_any_tracer(arguments.tracefile)
        entry = testbed.store(tracer, program=arguments.program,
                              machine=arguments.machine,
                              tags=tuple(arguments.tag))
        print(f"stored as {entry.trace_id}")
        return 0
    # show
    from .core import analyze, render_full_report
    from .instrument import profile
    tracer = testbed.load(arguments.trace_id)
    print(render_full_report(analyze(profile(tracer))))
    return 0


def _command_faults(arguments) -> int:
    from .faults import default_campaign, run_campaign
    if not arguments.campaign:
        print("default blame-localization campaign "
              "(run with --campaign to execute):\n")
        for case in default_campaign():
            print(f"  {case.name:22s} {case.plan.describe():44s} "
                  f"-> {case.expected_region} / {case.expected_activity}"
                  f" / ranks {case.expected_ranks}")
        return 0
    report = run_campaign(criterion=arguments.criterion)
    print(report.render())
    if arguments.require_perfect and not report.perfect:
        print("\ncampaign is NOT perfect", file=sys.stderr)
        return 1
    return 0


def _format_level(value: float) -> str:
    if value == float("inf"):
        return "never"
    return f"{value:.4g}"


def _streamed_windows(arguments, on_error: str):
    """Two-pass streaming windowed accumulation.

    Pass 1 discovers the extent and the (region, activity, rank)
    layout; pass 2 bins the same stream against the shared equal-slice
    edges.  Produces the identical window list (and therefore report
    text) as the in-memory windower.  Salvage warnings are silenced on
    the second pass — the first already reported them.
    """
    import warnings as _warnings

    from .core.online import OnlineAccumulator, WindowedAccumulator
    from .errors import TraceWarning
    from .instrument.stream import iter_any
    from .instrument.windows import equal_edges
    _check_stream_arguments(arguments)
    scout = OnlineAccumulator().consume(
        iter_any(arguments.tracefile, chunk_size=arguments.chunk_size,
                 on_error=on_error))
    layout = scout.finalize()
    edges = equal_edges(scout.begin, scout.elapsed, arguments.windows)
    binner = WindowedAccumulator(edges, layout.regions, layout.activities,
                                 scout.n_ranks)
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", TraceWarning)
        binner.consume(iter_any(arguments.tracefile,
                                chunk_size=arguments.chunk_size,
                                on_error=on_error))
    return binner.finalize(), binner.n_events


def render_temporal_report(windows, n_events: int, *,
                           index: str = "euclidean",
                           phases: bool = False,
                           forecast: Optional[float] = None,
                           heatmap: bool = False) -> str:
    """The exact text ``repro temporal`` prints for this flag set.

    Shared between the CLI command and the analysis service daemon
    (:mod:`repro.serve`): ``windows`` is the per-window profile list
    (from :func:`~repro.instrument.window_profiles` or the streaming
    binner), ``n_events`` the event count the header reports.
    """
    from .core.temporal import temporal_analysis
    from .viz import format_table, render_sparkline, render_temporal_heatmap
    analysis = temporal_analysis(windows, index=index)
    drifting = set(analysis.drifting_regions())

    span = windows[-1].end - windows[0].begin
    sections = [f"time-resolved analysis: {analysis.n_windows} windows "
                f"over {span:.4g} s ({n_events} events, index {index})"]
    rows = []
    for trend in analysis.trends:
        rows.append([
            trend.region,
            render_sparkline(trend.series),
            f"{trend.slope:+.4g}",
            f"{trend.mean:.4g}",
            f"{trend.final:.4g}",
            f"{trend.amplification:.4g}",
            "DRIFTING" if trend.region in drifting else "",
        ])
    sections.append(format_table(
        ["region", "per-window ID", "slope/win", "mean", "final",
         "amplif.", "verdict"],
        rows, title="Region imbalance over time"))
    if analysis.activity_trends:
        sections.append(format_table(
            ["activity", "per-window ID", "slope/win", "mean", "final"],
            [[trend.activity, render_sparkline(trend.series),
              f"{trend.slope:+.4g}", f"{trend.mean:.4g}",
              f"{trend.final:.4g}"]
             for trend in analysis.activity_trends],
            title="Activity imbalance over time"))
    if phases:
        segments = analysis.phases()
        sections.append("\n".join(
            [f"phases (overall imbalance level, "
             f"{len(segments)} segment(s)):"]
            + [f"  windows {phase.begin:>3d}..{phase.end - 1:<3d} "
               f"level {phase.mean:.4g}" for phase in segments]))
    if forecast is not None:
        sections.append("\n".join(
            [f"forecast: window at which each region reaches "
             f"ID {forecast:g}"]
            + [f"  {region}: {_format_level(crossing)}"
               for region, crossing
               in analysis.forecast(forecast).items()]))
    if heatmap:
        sections.append(render_temporal_heatmap(
            {trend.region: trend.series for trend in analysis.trends}))
    return "\n\n".join(sections)


def _command_temporal(arguments) -> int:
    if arguments.windows < 1:
        raise ReproError("--windows must be at least 1")
    if arguments.sweep and arguments.stream:
        raise ReproError("--stream applies to a single trace; "
                         "--sweep already streams per worker")
    if arguments.sweep:
        from .sweep import SweepConfig, render_sweep_table, sweep_traces
        config = SweepConfig(n_windows=arguments.windows,
                             index=arguments.index,
                             forecast_threshold=arguments.forecast)
        with _Profiled(arguments):
            summaries = sweep_traces(arguments.sweep, config,
                                     jobs=arguments.jobs,
                                     use_cache=not arguments.no_cache)
            print(render_sweep_table(summaries))
        failed = [s for s in summaries if not s.ok]
        if failed:
            print(f"\n{len(failed)} trace(s) could not be analyzed",
                  file=sys.stderr)
        return 0
    if not arguments.tracefile:
        raise ReproError("temporal needs a trace file (or --sweep DIR)")

    on_error = "raise" if arguments.strict else "salvage"
    with _Profiled(arguments):
        from .obs import spans as obspans
        if arguments.stream:
            windows, n_events = _streamed_windows(arguments, on_error)
        else:
            from .instrument import read_any_tracer, window_profiles
            with obspans.span("read_trace", activity="read",
                              trace=str(arguments.tracefile)):
                tracer = read_any_tracer(arguments.tracefile,
                                         on_error=on_error)
            with obspans.span("window", activity="window",
                              windows=arguments.windows):
                windows = window_profiles(tracer, arguments.windows)
            n_events = len(tracer)
        print(render_temporal_report(
            windows, n_events, index=arguments.index,
            phases=arguments.phases,
            forecast=arguments.forecast, heatmap=arguments.heatmap))
    return 0


def _command_self(arguments) -> int:
    """Dogfooding: profile an analysis run, then turn the methodology
    on the profile.

    Runs the sharded streaming analysis under span recording (over the
    given trace, or a synthesized paper trace when none is supplied),
    prints the per-stage timing table plus the per-stage imbalance
    indices, and optionally serializes the spans as a repro trace —
    which every other verb accepts like any program's trace.
    """
    import tempfile

    from .obs import spans as obspans
    from .obs.selftrace import (render_self_report, self_imbalance,
                                write_selftrace)
    from .shards import shard_accumulate
    if arguments.jobs < 1:
        raise ReproError("--jobs must be at least 1")
    if arguments.chunk_size < 1:
        raise ReproError("--chunk-size must be at least 1")

    with tempfile.TemporaryDirectory(prefix="repro-self-") as workdir:
        if arguments.tracefile:
            tracefile = str(arguments.tracefile)
            source = tracefile
        else:
            from .calibrate import synthesize_paper_trace
            tracefile = str(Path(workdir) / "paper.jsonl")
            synthesize_paper_trace(tracefile)
            source = "synthesized paper trace"
        obspans.enable()
        try:
            accumulator = shard_accumulate(
                tracefile, jobs=arguments.jobs,
                chunk_size=arguments.chunk_size)
            render_analyze_report(accumulator.finalize(),
                                  index=arguments.index)
            spans = obspans.drain()
        finally:
            obspans.disable()

    print(f"profiled the analysis pipeline over {source} "
          f"({arguments.jobs} shard worker(s))\n")
    print(obspans.render_span_table(spans))
    pairs = self_imbalance(spans, index=arguments.index)
    width = max(len(stage) for stage, _ in pairs)
    print(f"\nper-stage self-imbalance (index {arguments.index}, "
          "scaled by mean duration):")
    for stage, value in pairs:
        print(f"  {stage:<{width}s}  {value:.4g}")
    if arguments.report:
        print()
        print(render_self_report(spans, index=arguments.index))
    if arguments.self_trace:
        count = write_selftrace(arguments.self_trace, spans)
        print(f"\nwrote {count} self-trace events to "
              f"{arguments.self_trace}")
    return 0


def _command_serve(arguments) -> int:
    import signal
    import threading

    from .serve import (DEFAULT_MAX_BODY_BYTES, DEFAULT_MAX_QUEUE,
                        DEFAULT_REQUEST_TIMEOUT, AnalysisServer)
    if arguments.workers < 1:
        raise ReproError("--workers must be at least 1")
    if not 0 <= arguments.port <= 65535:
        raise ReproError("--port must be between 0 and 65535")
    for flag in ("max_body_bytes", "max_queue", "max_cache_bytes",
                 "max_store_bytes"):
        value = getattr(arguments, flag)
        if value is not None and value < 1:
            raise ReproError(
                f"--{flag.replace('_', '-')} must be at least 1")
    if arguments.request_timeout is not None \
            and arguments.request_timeout <= 0:
        raise ReproError("--request-timeout must be positive")
    try:
        daemon = AnalysisServer(
            arguments.store, host=arguments.host, port=arguments.port,
            workers=arguments.workers, cache_dir=arguments.cache_dir,
            verbose=arguments.verbose,
            max_body_bytes=(arguments.max_body_bytes
                            if arguments.max_body_bytes is not None
                            else DEFAULT_MAX_BODY_BYTES),
            max_queue=(arguments.max_queue
                       if arguments.max_queue is not None
                       else DEFAULT_MAX_QUEUE),
            max_cache_bytes=arguments.max_cache_bytes,
            max_store_bytes=arguments.max_store_bytes,
            request_timeout=(arguments.request_timeout
                             if arguments.request_timeout is not None
                             else DEFAULT_REQUEST_TIMEOUT))
    except OSError as error:
        raise ReproError(
            f"cannot bind {arguments.host}:{arguments.port}: {error}")

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    daemon.start()
    host, port = daemon.address
    print(f"serving on http://{host}:{port} "
          f"(store: {daemon.store.directory}, "
          f"workers: {daemon.workers})", flush=True)
    if arguments.ready_file:
        Path(arguments.ready_file).write_text(f"{host} {port}\n")
    stop.wait()
    print(f"shutting down: draining {daemon.runner.in_flight()} "
          "in-flight job(s)", flush=True)
    daemon.shutdown()
    return 0


def _command_submit(arguments) -> int:
    meta = _make_client(arguments).submit(arguments.tracefile,
                                          name=arguments.name)
    verb = "stored" if meta["created"] else "already stored"
    note = " [salvaged]" if meta["salvaged"] else ""
    print(f"{verb} {meta['sha256']} ({meta['events']} events, "
          f"{meta['ranks']} ranks, {meta['n_bytes']} bytes){note}")
    return 0


def _command_fetch(arguments) -> int:
    import json as _json

    if arguments.windows < 1:
        raise ReproError("--windows must be at least 1")
    client = _make_client(arguments)
    target = Path(arguments.trace)
    if target.is_file():
        sha = client.submit(target)["sha256"]
    elif len(arguments.trace) == 64 \
            and all(c in "0123456789abcdef" for c in arguments.trace):
        sha = arguments.trace
    else:
        raise ReproError(f"{arguments.trace} is neither a readable "
                         "trace file nor a sha256 digest")
    params = {"index": arguments.index}
    if arguments.kind == "temporal":
        params["windows"] = arguments.windows
    payload = client.report(sha, arguments.kind, **params)
    if arguments.json:
        print(_json.dumps(payload["report"], indent=2, sort_keys=True))
    else:
        # The daemon's text already ends with the newline the local
        # command's final print() would emit — write it verbatim so
        # `repro fetch` is byte-identical to the local command.
        sys.stdout.write(payload["text"])
    return 0


_COMMANDS = {
    "analyze": _command_analyze,
    "paper": _command_paper,
    "cfd": _command_cfd,
    "counters": _command_counters,
    "testbed": _command_testbed,
    "faults": _command_faults,
    "temporal": _command_temporal,
    "self": _command_self,
    "serve": _command_serve,
    "submit": _command_submit,
    "fetch": _command_fetch,
}


def _validate_file_arguments(arguments) -> None:
    """Fail fast on unreadable file arguments, before any heavy work."""
    sweep = getattr(arguments, "sweep", None)
    if sweep is not None and not Path(sweep).is_dir():
        raise ReproError(f"sweep directory {sweep} does not exist")
    tracefile = getattr(arguments, "tracefile", None)
    if tracefile is None:
        return
    path = Path(tracefile)
    if not path.exists():
        raise ReproError(f"trace file {path} does not exist")
    if path.is_dir():
        raise ReproError(f"trace file {path} is a directory")


def main(argv: Optional[List[str]] = None, *,
         started: Optional[float] = None) -> int:
    """Entry point; returns a process exit code.

    ``started`` is the ``time.perf_counter()`` reading at which
    ``python -m repro`` began; ``--profile`` then opens its table with
    an ``import`` row from there to command dispatch.

    Expected failures (any :class:`ReproError`: bad input files, invalid
    parameters, damaged traces in strict mode) print a one-line message
    and exit ``2``.  Anything else is a bug in the tool itself: the
    exception is summarized without a traceback and the exit code is
    ``3``; set ``REPRO_DEBUG=1`` to re-raise for debugging.
    """
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    try:
        _validate_file_arguments(arguments)
        if started is not None:
            arguments.startup = (started, time.perf_counter())
        return _COMMANDS[arguments.command](arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:                # noqa: BLE001 - last resort
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"internal error: {type(error).__name__}: {error}\n"
              "(set REPRO_DEBUG=1 for the full traceback)",
              file=sys.stderr)
        return 3


if __name__ == "__main__":     # pragma: no cover
    sys.exit(main())
