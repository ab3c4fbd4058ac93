"""Single-pass windower and stacked temporal indices — the cost of
time-resolved analysis.

Two comparisons on a simulated CFD trace:

* **windower** — the historical per-window rescan
  (``rescan_window_profiles`` of ``tests/oracles.py``, O(windows x
  events)) against the single-pass sweep
  (:func:`repro.instrument.window_profiles`), checking the measurement
  sets are bit-identical and reporting the speedup.  The acceptance
  bar is a >= 5x speedup at 64 windows.
* **indices** — W independent per-window
  :func:`~repro.core.views.compute_region_view` calls against the
  stacked :class:`repro.core.WindowedBatch` engine (one kernel call
  for all windows), checking agreement within 1e-9.

Run standalone::

    python benchmarks/bench_temporal.py            # full, asserts 5x
    python benchmarks/bench_temporal.py --quick    # CI smoke run

or through pytest (``pytest benchmarks/bench_temporal.py -s``), which
executes the quick differential smoke test.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401  (resolves when installed or PYTHONPATH=src)
except ImportError:                                  # pragma: no cover
    sys.path.insert(0, str(ROOT / "src"))
# The rescan reference lives with the test oracles, not in the package.
sys.path.insert(0, str(ROOT))

import numpy as np

from repro.apps import CFDConfig, run_cfd
from repro.core import WindowedBatch, compute_region_view
from repro.instrument import window_profiles
from tests.oracles import rescan_window_profiles

#: Window counts swept; the last one is the acceptance point.
WINDOW_COUNTS = (16, 64)
QUICK_WINDOW_COUNTS = (8,)
SPEEDUP_FLOOR = 5.0


def cfd_tracer(quick: bool):
    """The cfd trace the ISSUE's acceptance criterion names."""
    config = CFDConfig(grid=(64, 64), steps=2) if quick \
        else CFDConfig(grid=(256, 256), steps=4)
    _, tracer, _ = run_cfd(config, n_ranks=16)
    return tracer


def best_of(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def check_windower_differential(tracer, n_windows: int) -> None:
    """Sweep and rescan must produce bit-identical windows."""
    old = rescan_window_profiles(tracer, n_windows)
    new = window_profiles(tracer, n_windows)
    assert len(old) == len(new), (len(old), len(new))
    for reference, candidate in zip(old, new):
        assert reference.begin == candidate.begin
        assert reference.end == candidate.end
        assert np.array_equal(reference.measurements.times,
                              candidate.measurements.times), \
            "windowed tensors diverged"
        assert reference.measurements.total_time == \
            candidate.measurements.total_time


def check_indices_differential(windows) -> None:
    """Stacked and per-window region indices must agree within 1e-9."""
    sets = [window.measurements for window in windows]
    stacked = WindowedBatch(sets).region_index()
    looped = np.array([compute_region_view(ms).index for ms in sets])
    np.testing.assert_allclose(stacked, looped, rtol=1e-9, atol=1e-9,
                               err_msg="stacked region indices diverged")


def run_sweep(tracer, window_counts, repeats: int) -> list:
    rows = []
    for n_windows in window_counts:
        check_windower_differential(tracer, n_windows)
        rescan_time = best_of(
            lambda: rescan_window_profiles(tracer, n_windows), repeats)
        sweep_time = best_of(
            lambda: window_profiles(tracer, n_windows), repeats)

        windows = window_profiles(tracer, n_windows)
        check_indices_differential(windows)
        sets = [window.measurements for window in windows]
        loop_time = best_of(
            lambda: [compute_region_view(ms).index for ms in sets],
            repeats)
        batch_time = best_of(
            lambda: WindowedBatch(sets).region_index(), repeats)
        rows.append((n_windows, len(tracer), rescan_time, sweep_time,
                     rescan_time / sweep_time, loop_time, batch_time,
                     loop_time / batch_time))
    return rows


def render(rows) -> str:
    from repro.viz import format_table
    table = [[str(w), str(e),
              f"{rescan * 1e3:.1f}", f"{sweep * 1e3:.1f}",
              f"{win_speedup:.1f}x",
              f"{loop * 1e3:.1f}", f"{batch * 1e3:.1f}",
              f"{index_speedup:.1f}x"]
             for w, e, rescan, sweep, win_speedup, loop, batch,
             index_speedup in rows]
    return format_table(
        ["windows", "events", "rescan (ms)", "sweep (ms)", "speedup",
         "loop idx (ms)", "batch idx (ms)", "speedup"],
        table,
        title="Windower (rescan vs single-pass sweep) and per-window "
              "indices (loop vs stacked batch)")


def test_temporal_quick_smoke():
    """Pytest entry point: differential equality plus a sanity speedup
    on the small trace (no absolute-performance assertion — machine
    speed varies; the script's full mode enforces the 5x floor)."""
    tracer = cfd_tracer(quick=True)
    rows = run_sweep(tracer, QUICK_WINDOW_COUNTS, repeats=2)
    assert rows[0][4] > 0.0
    print()
    print(render(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="rescan vs single-pass windowing and stacked "
                    "temporal indices")
    parser.add_argument("--quick", action="store_true",
                        help="small trace only, no speedup assertion "
                             "(CI smoke run)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-R timing repeats (default 5)")
    arguments = parser.parse_args(argv)
    if arguments.repeats < 1:
        parser.error("--repeats must be >= 1")

    tracer = cfd_tracer(arguments.quick)
    window_counts = QUICK_WINDOW_COUNTS if arguments.quick \
        else WINDOW_COUNTS
    repeats = min(arguments.repeats, 2) if arguments.quick \
        else arguments.repeats
    rows = run_sweep(tracer, window_counts, repeats)
    print(render(rows))

    if arguments.quick:
        print("\nquick mode: differential checks passed")
        return 0
    final_speedup = rows[-1][4]
    n_windows = window_counts[-1]
    if final_speedup < SPEEDUP_FLOOR:
        print(f"\nFAIL: {final_speedup:.1f}x windower speedup at "
              f"{n_windows} windows is below the "
              f"{SPEEDUP_FLOOR:.0f}x floor")
        return 1
    print(f"\nOK: {final_speedup:.1f}x windower speedup at {n_windows} "
          f"windows (floor: {SPEEDUP_FLOOR:.0f}x)")
    return 0


if __name__ == "__main__":                           # pragma: no cover
    sys.exit(main())
