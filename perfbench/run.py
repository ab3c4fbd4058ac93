"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-bulk --seed 1 --seconds 3 \\
        --trace 0

``--trace 0`` measures every end-to-end metric with tracing off, at
nominal machine speed (see ``speed.py``);
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  Inputs are generated from ``--seed``; ``spec.HELD_OUT_SEED``
is kept for confirming claims.  The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``);
the lines before it print every metric by name with its unit and
sample count.  The full record — metadata, input fingerprints, sample
counts, load averages, failures and (traced) the span file — is
written under ``.perfbench/results/``.  Any correctness mismatch
makes the exit code 1; a checkout without the program makes it 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def metadata(root: Path) -> dict:
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-spec", action="store_true",
                        help="print BENCHMARK.json and exit")
    parser.add_argument("--explain", action="store_true",
                        help="print what every metric measures and which "
                        "end-to-end metrics each layer metric moves")
    if argv is None:
        argv = sys.argv[1:]
    if "--print-spec" in argv or "--explain" in argv:
        import spec
        sys.stdout.write(spec.benchmark_json() if "--print-spec" in argv
                         else spec.explain())
        return 0
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import spec
    if args.workload not in spec.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (one of "
              f"{', '.join(spec.WORKLOADS)})", file=sys.stderr)
        return 2
    import procs
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    # SIGTERM unwinds like an exception, so the clean-up below runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    procs.start_launcher()        # before anything large is imported
    try:
        return _run(args, spec)
    finally:
        procs.stop_launcher()


def _run(args, spec) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import corpus
    import workloads
    from check import Tally
    started = time.perf_counter()
    results = ROOT / ".perfbench" / "results"
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "held_out_seed": spec.HELD_OUT_SEED,
              "meta": metadata(ROOT), "load_before": os.getloadavg()}
    try:
        built = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, work, ROOT)
        os.sync()              # no write-back of the inputs while timing
        record["corpus_seconds"] = time.perf_counter() - built
        record["fingerprints"] = corpus.fingerprint(workload.files,
                                                    work / "corpus")
        tally.references.update(workload.references)
        tally.sources.update({group: "reference file"
                              for group in workload.references})
        if args.trace:
            import layers
            values, counts, spans = layers.run_traced(
                workload, work, ROOT, args.seed, args.seconds, tally)
            spans.write(results / _stem(args, "spans.jsonl"))
            names = [name for name, *_ in spec.PER_LAYER]
        else:
            values, counts, record["raw_samples"] = \
                workloads.run_untraced(workload, work, ROOT, args.seed,
                                       args.seconds, tally)
            names = [name for name, *_ in spec.END_TO_END]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values["ok_ratio"] = 1.0 - tally.failed / max(tally.attempted, 1)
    for name in names:
        if not math.isfinite(values.get(name, math.nan)):
            tally.fail(f"metric {name} was not measured")
            values.pop(name, None)
    record.update(wall_seconds=time.perf_counter() - started,
                  load_after=os.getloadavg(), values=values,
                  samples=counts, attempted=tally.attempted,
                  failed=tally.failed, failures=tally.reasons)
    (results / _stem(args, "json")).write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str))

    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    if not args.trace:
        print(f"machine-speed factor {record['raw_samples']['speed_factor']:.4f}"
              " (timings below but setup_s are divided by it; the measured"
              " ones are in the result file)")
    for name in names:
        print(f"{name:32s} {values.get(name, float('nan')):>14.6g} "
              f"{spec.UNITS[name]:9s} n={counts.get(name, 1)}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name],
                           "unit": spec.UNITS[name]}
                    for name in names if name in values}}))
    return 0 if tally.correct and all(name in values for name in names) \
        else 1


def _stem(args, suffix: str) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}.{suffix}"


if __name__ == "__main__":
    sys.exit(main())
