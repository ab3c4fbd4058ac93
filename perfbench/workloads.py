"""The two workloads: their seeded inputs and the untraced run.

Every workload measures every end-to-end metric on its own inputs:
the same user session — CLI verbs one at a time, and beside them a
``repro serve`` daemon taking uploads, cold reports and cache hits —
over inputs whose size, shape and count stress different layers (see
``spec.WORKLOADS``).
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import corpus
import procs
import spec
from check import Tally
from speed import SpeedProbe
from serve_load import (RetryCounter, Upload, WriteResult, client,
                        read_phase, write_phase)

#: Events in the cli-bulk trace and in cli-small's one large upload.
N_BULK = 130_000
N_LARGE = 40_000

ALL_SECTIONS = ["--diagnose", "--whatif", "--patterns", "--heatmap"]
TEMPORAL_SECTIONS = ["--phases", "--forecast", "0.5", "--heatmap"]


@dataclass
class CliOp:
    metric: str
    args: List[str]
    group: Optional[str]          # outputs of one group must be identical
    rss: bool = False             # its peak RSS is the run's rss_mb


@dataclass
class Workload:
    """``opening`` uploads go to the daemon before any timing; the
    ``uploads`` are spread over the run, one share after every CLI
    operation.  Only uploads marked ``timed`` give ``ingest_s`` and
    ``cold_report_s`` samples: same-shaped traces, so the medians do
    not jump between clusters of different sizes."""
    name: str
    files: List[Path]
    cli_ops: List[CliOp]
    opening: List[Upload]
    uploads: List[Upload]
    sweep_dir: Path
    traces: Dict[str, Path]       # format -> the trace the layers replay
    rounds: int                   # times every CLI operation runs
    store_cap: Optional[int] = None
    cache_cap: Optional[int] = None
    references: Dict[str, bytes] = field(default_factory=dict)
    prefix_checks: List[tuple] = field(default_factory=list)
    probes: List[Path] = field(default_factory=list)


def _timed_uploads(rng: np.random.Generator, directory: Path, count: int,
                   **shape) -> List[Upload]:
    """``count`` distinct JSONL traces of one shape, each uploaded with
    a cold ``analyze`` report."""
    return [Upload(corpus.write_format(directory, f"ingest{index:02d}",
                                       corpus.bulk_trace(rng, **shape),
                                       "jsonl"),
                   [("analyze", {})], timed=True)
            for index in range(count)]


def _interleave(timed: List[Upload], other: List[Upload]) -> List[Upload]:
    """``other`` spread evenly among ``timed`` (one timed per slot)."""
    merged = []
    for slot, upload in enumerate(timed):
        merged.append(upload)
        merged += other[slot * len(other) // len(timed):
                        (slot + 1) * len(other) // len(timed)]
    return merged


def cli_bulk(rng: np.random.Generator, work: Path, root: Path) -> Workload:
    traces = corpus.write_formats(work / "bulk", "bulk",
                                  corpus.bulk_trace(rng, N_BULK))
    jsonl = str(traces["jsonl"])
    ops = [
        CliOp("analyze_jsonl_s", ["analyze", jsonl], "analyze:bulk",
              rss=True),
        CliOp("analyze_gzip_s", ["analyze", str(traces["gzip"])],
              "analyze:bulk"),
        CliOp("analyze_binary_s", ["analyze", str(traces["binary"])],
              "analyze:bulk"),
        CliOp("analyze_stream_s", ["analyze", "--stream", jsonl],
              "analyze:bulk"),
        CliOp("analyze_jobs_s", ["analyze", "--jobs", "2", jsonl],
              "analyze:bulk"),
        CliOp("temporal_s", ["temporal", "--windows", "16", jsonl],
              "temporal:bulk"),
        CliOp("temporal_stream_s",
              ["temporal", "--windows", "16", "--stream", jsonl],
              "temporal:bulk"),
    ]
    # The sweep covers the binary form alone: one trace, run inline.
    sweep_dir = work / "bulk-sweep"
    sweep_dir.mkdir(parents=True, exist_ok=True)
    os.link(traces["binary"], sweep_dir / traces["binary"].name)
    ops.append(CliOp("sweep_s", ["temporal", "--sweep", str(sweep_dir),
                                 "--jobs", "2", "--no-cache"],
                     "sweep:bulk"))
    rounds = spec.ROUNDS["cli-bulk"]
    # The daemon gets the bulk trace (its cold reports must equal the
    # CLI's); the timed uploads are bulk-shaped 3k-event JSONL traces,
    # decoded eagerly on ingest.
    opening = [Upload(traces["binary"],
                      [("analyze", {}), ("temporal", {"windows": 16})],
                      groups={"analyze": "analyze:bulk",
                              "temporal": "temporal:bulk"})]
    timed = _timed_uploads(rng, work / "ingest", rounds * len(ops),
                           n_events=3000)
    # One repeat of a timed upload takes the dedup path.
    uploads = _interleave(timed, [Upload(timed[0].path, repeat=True)])
    return Workload("cli-bulk", [*traces.values(),
                                 *(upload.path for upload in timed)],
                    ops, opening, uploads, sweep_dir, traces, rounds)


def _paper_trace(path: Path, root: Path) -> Path:
    """The synthesized paper trace: the one input the program writes
    itself (its bytes are fingerprinted like every other input)."""
    result = procs.python(
        "from repro.calibrate import synthesize_paper_trace; "
        f"synthesize_paper_trace({str(path)!r})", root)
    if result.returncode != 0:
        raise RuntimeError("cannot synthesize the paper trace: "
                           + result.stderr.decode(errors="replace"))
    return path


def cli_small(rng: np.random.Generator, work: Path, root: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    paper = _paper_trace(work / "paper.jsonl", root)
    wide = corpus.write(work / "wide.rptb",
                        corpus.wide_trace(rng).binary_bytes())
    drift_dir = work / "drift"
    drift = []
    # Nine equal-sized drifting traces, three per format.
    for index in range(9):
        trace = corpus.bulk_trace(rng, 3000, n_ranks=8, n_regions=4,
                                  drift=2.0)
        form = ("jsonl", "gzip", "binary")[index % 3]
        drift.append(corpus.write_format(drift_dir, f"drift{index}",
                                         trace, form))
    paper_s, wide_s = str(paper), str(wide)
    drift0, drift1 = str(drift[0]), str(drift[1])
    ops = [
        CliOp("analyze_jsonl_s", ["analyze", *ALL_SECTIONS, paper_s],
              "analyze-all:paper"),
        CliOp("analyze_gzip_s", ["analyze", *ALL_SECTIONS, drift1],
              "analyze-all:drift1"),
        CliOp("analyze_binary_s", ["analyze", *ALL_SECTIONS, wide_s],
              "analyze-all:wide", rss=True),
        CliOp("analyze_stream_s",
              ["analyze", "--stream", *ALL_SECTIONS, paper_s],
              "analyze-all:paper"),
        CliOp("analyze_jobs_s",
              ["analyze", "--jobs", "2", *ALL_SECTIONS, paper_s],
              "analyze-all:paper"),
        CliOp("temporal_s",
              ["temporal", "--windows", "16", *TEMPORAL_SECTIONS, drift0],
              "temporal-all:drift0"),
        CliOp("temporal_stream_s",
              ["temporal", "--windows", "16", "--stream",
               *TEMPORAL_SECTIONS, drift0], "temporal-all:drift0"),
        CliOp("sweep_s", ["temporal", "--sweep", str(drift_dir), "--jobs",
                          "2", "--no-cache"], "sweep:drift"),
    ]
    rounds = spec.ROUNDS["cli-small"]
    golden = (root / "docs" / "paper_report.txt").read_bytes()
    opening = [Upload(paper, [("analyze", {}), ("diagnose", {}),
                              ("whatif", {})], groups={"analyze": "golden"}),
               Upload(paper, repeat=True), Upload(wide, [("analyze", {})])]
    # The mixed corpus: the seed changes every trace's content and the
    # upload order, not its shape — the same sizes (log-spaced over
    # 1k..16k events), rank and region counts, drift and formats every
    # time; some uploads repeat an earlier trace (the dedup path) and
    # one large trace gets its reports from two clients at once.
    count = 6
    shapes = [(int(round(n_events)), (4, 8, 16)[index % 3],
               3 + index % 5, (0.0, 1.5)[index % 2],
               ("jsonl", "gzip", "binary")[index % 3],
               ("diagnose", {}) if index % 2 else ("temporal", {"windows": 16}),
               index % 3 == 2)
              for index, n_events in enumerate(
                  np.geomspace(1000, 16000, count))]
    mixed = []
    for index, position in enumerate(rng.permutation(count)):
        n_events, n_ranks, n_regions, drift_rate, form, second, repeat = \
            shapes[position]
        trace = corpus.bulk_trace(rng, n_events, n_ranks=n_ranks,
                                  n_regions=n_regions, drift=drift_rate)
        path = corpus.write_format(work / "mixed", f"t{index:03d}", trace,
                                   form)
        mixed.append(Upload(path, [("analyze", {}), second]))
        if repeat:
            mixed.append(Upload(path, repeat=True))
        if index == count // 2:
            large = corpus.write_format(
                work / "large", "large", corpus.bulk_trace(rng, N_LARGE),
                "jsonl")
            mixed.append(Upload(large, [("analyze", {}),
                                        ("temporal", {"windows": 16})],
                                concurrent=True))
    timed = _timed_uploads(rng, work / "ingest", rounds * len(ops),
                           n_events=3000, n_ranks=8, n_regions=4)
    uploads = _interleave(timed, mixed)
    # The store cap is below the corpus, so eviction runs during ingest.
    sizes = {upload.path: upload.path.stat().st_size
             for upload in opening + uploads}
    rest = sum(sizes.values()) - sizes[large]
    workload = Workload(
        "cli-small", [*drift, *sizes], ops, opening, uploads, drift_dir,
        {"jsonl": paper, "binary": wide, "gzip": drift[1]}, rounds,
        store_cap=sizes[large] + int(0.4 * rest), cache_cap=256 << 20,
        references={"golden": golden})
    # All-sections output opens with the plain report: the golden bytes.
    workload.prefix_checks.append(
        ("analyze-all:paper", golden.rstrip(b"\n") + b"\n\n"))
    return workload


BUILDERS = {"cli-bulk": cli_bulk, "cli-small": cli_small}


def build(name: str, seed: int, work: Path, root: Path) -> Workload:
    """The workload's inputs, plus five tiny probe traces that the
    traced run ingests into the final store to time one add."""
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(name)])
    workload = BUILDERS[name](rng, work / "corpus", root)
    workload.probes = [
        corpus.write_format(work / "corpus" / "probe", f"probe{index}",
                            corpus.bulk_trace(rng, 200, n_ranks=4,
                                              n_regions=3), "binary")
        for index in range(5)]
    workload.files += workload.probes
    return workload


# ----------------------------------------------------------------------
# Untraced run
# ----------------------------------------------------------------------

def run_cli_op(op: CliOp, root: Path, tally: Tally) -> procs.Result:
    result = procs.repro(op.args, root)
    label = " ".join(op.args[:-1] + [Path(op.args[-1]).name])
    if result.returncode != 0:
        tally.fail(f"{label}: exit {result.returncode}: "
                   + result.stderr.decode(errors="replace")[-300:])
        return result
    tally.record(tally.matches(op.group, result.stdout, label),
                 f"{label}: output differs from "
                 f"{tally.sources.get(op.group)}")
    return result


def check_prefixes(workload: Workload, tally: Tally) -> None:
    for group, prefix in workload.prefix_checks:
        tally.record(tally.references.get(group, b"").startswith(prefix),
                     f"{group} does not open with the golden report")


class ServeSession:
    """A ``repro serve`` daemon for one run: :meth:`write` uploads and
    asks for cold reports, :meth:`read` runs one read window over the
    reports written so far; leaving scrapes ``/metrics`` one last time
    and drains the daemon (its exit code must be 0)."""

    def __init__(self, workload: Workload, work: Path, root: Path,
                 seed: int, tally: Tally, span=None) -> None:
        self.workload, self.work, self.root = workload, work, root
        self.seed, self.tally, self.span = seed, tally, span
        self.retries = RetryCounter()
        self.written = WriteResult()
        self.reads = []
        self.final: dict = {}

    def __enter__(self) -> "ServeSession":
        store = self.work / "store"
        if store.exists():
            shutil.rmtree(store)
        self.daemon = procs.Daemon(
            self.root, store, workers=2,
            max_store_bytes=self.workload.store_cap,
            max_cache_bytes=self.workload.cache_cap).__enter__()
        return self

    def write(self, uploads: List[Upload]) -> None:
        write_phase(self.daemon.url, uploads, self.tally, self.retries,
                    self.written, span=self.span)

    def read(self, seconds: float, min_hits: int = 0,
             warmup: float = 0.0) -> None:
        self.reads.append(read_phase(
            self.daemon.url, self.written, self.tally, self.retries,
            self.seed * 1000 + len(self.reads), seconds,
            min_hits=min_hits, warmup_seconds=warmup, span=self.span))

    def __exit__(self, exc_type, *exc_info) -> None:
        try:
            if exc_type is None:
                self.final = client(self.daemon.url, self.retries).metrics()
        finally:
            self.daemon.stop()
        self.tally.record(self.daemon.returncode == 0,
                          f"daemon exited {self.daemon.returncode} "
                          "after SIGTERM")

    @property
    def hits(self) -> List[float]:
        return [value for read in self.reads for value in read.latencies]


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (the daemon's own convention)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered))))] \
        if ordered else float("nan")


def run_untraced(workload: Workload, work: Path, root: Path, seed: int,
                 seconds: float, tally: Tally):
    """Measure every end-to-end metric; returns (values, counts, samples).

    The machine is shared: a single timing varies by 10-20 percent and
    the machine's speed drifts within minutes.  So every kind of sample
    is spread evenly over the whole run.  After the opening uploads the
    run makes ``workload.rounds`` rounds.  Each round is one
    ``--version`` start-up (``setup_s``) and then every CLI operation
    once, in an order rotated by one per round; after every operation
    comes one *slot*: the next share of the uploads with their cold
    reports, in every other slot the machine-speed probes
    (``speed.py``), then a read window of cache hits ``seconds`` /
    (number of slots) long.
    """
    samples: Dict[str, List[float]] = {"setup_s": []}
    phases = dict.fromkeys(("start", "opening", "setup", "cli", "probe",
                            "write", "read", "drain"), 0.0)
    clock = [time.perf_counter()]

    def lap(phase: str) -> None:
        now = time.perf_counter()
        phases[phase] += now - clock[0]
        clock[0] = now

    def setup_sample() -> None:
        result = procs.repro(["--version"], root)
        if tally.record(result.returncode == 0 and result.stdout,
                        f"--version exited {result.returncode}"):
            samples["setup_s"].append(result.seconds)

    probe = SpeedProbe(root)
    ops = workload.cli_ops
    slots = workload.rounds * len(ops)
    uploads = workload.uploads
    with ServeSession(workload, work, root, seed, tally) as session:
        lap("start")
        session.write(workload.opening)
        lap("opening")
        slot = 0
        for rounds in range(workload.rounds):
            setup_sample()
            lap("setup")
            for op in ops[rounds:] + ops[:rounds]:
                result = run_cli_op(op, root, tally)
                samples.setdefault(op.metric, []).append(result.seconds)
                if op.rss:
                    samples.setdefault("rss_mb", []).append(result.rss_mb)
                lap("cli")
                session.write(uploads[slot * len(uploads) // slots:
                                      (slot + 1) * len(uploads) // slots])
                lap("write")
                if slot % 2 == 0:
                    probe.sample()
                    lap("probe")
                session.read(seconds / slots)
                lap("read")
                slot += 1
    lap("drain")
    check_prefixes(workload, tally)
    # A CLI operation's few samples are averaged (on this kind of noise
    # the mean of three is steadier than their median); the start-up
    # and memory samples and the many short serve samples give medians.
    values = {name: (statistics.median if name in ("setup_s", "rss_mb")
                     else statistics.mean)(values)
              for name, values in samples.items() if values}
    windows = [read for read in session.reads if read.latencies]
    samples.update(ingest_s=session.written.ingest,
                   cold_report_s=session.written.cold,
                   hit_p50_s=[quantile(read.latencies, 0.5)
                              for read in windows],
                   hit_rps=[len(read.latencies) / read.seconds
                            for read in windows])
    values.update(ingest_s=statistics.median(samples["ingest_s"]),
                  cold_report_s=statistics.median(samples["cold_report_s"]))
    # The host is contended now and then, and a read window that falls
    # in such a moment is up to twice as slow: two readers and the
    # daemon keep both cores busy, so a slowdown becomes queueing.  The
    # hit metrics read the calmer windows — the lower quartile of the
    # windows' p50 latencies, the upper quartile of their rates — the
    # way timeit reads the fastest of its repeats; a slower program
    # slows every window.
    p50s = statistics.quantiles(samples["hit_p50_s"], n=4)
    rates = statistics.quantiles(samples["hit_rps"], n=4)
    values.update(hit_p50_s=p50s[0], hit_rps=rates[2])
    counts = {name: len(values) for name, values in samples.items()}
    counts.update(hits=len(session.hits), phases=phases)
    # Every timing but set-up is reported at nominal machine speed.
    factor = probe.factor()
    samples.update(measured=dict(values), speed_factor=factor,
                   speed_probes=probe.samples)
    for name in values:
        if name.endswith("_s") and name != "setup_s":
            values[name] /= factor
    values["hit_rps"] *= factor
    return values, counts, samples
