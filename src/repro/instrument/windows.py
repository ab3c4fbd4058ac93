"""Windowed profiles: slicing a trace into time intervals.

A single profile averages away *dynamic* behavior — a program whose
imbalance grows over time looks moderately imbalanced overall.  This
module slices a trace into consecutive time windows and aggregates each
window separately, producing the per-interval measurement sets that
:mod:`repro.core.temporal` analyzes for trends.

Events spanning a window boundary are split proportionally: the portion
of the interval inside each window is attributed to that window, so the
windowed tensors sum (over windows) to the whole-trace tensor exactly.

The windower is the streaming kernel run over one chunk: a layout pass
of :class:`~repro.core.online.OnlineAccumulator` fixes the labels and
the extent, then one :class:`~repro.core.online.WindowedAccumulator`
update bins every event (boundary-split) into all windows in a single
vectorized sweep.  The in-memory and the streaming ``temporal`` paths
therefore share one binning kernel and give bit-identical windows.

Windows are anchored at the trace's actual ``[begin, end]`` extent, not
at t=0: a trace whose first event starts at ``t0 > 0`` (a salvaged
suffix, a replayed segment) gets ``n`` equal windows of the occupied
span rather than empty leading windows and misaligned phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.measurements import MeasurementSet
from ..core.online import OnlineAccumulator, WindowedAccumulator
from ..errors import TraceError
from .tracer import Tracer


@dataclass(frozen=True)
class Window:
    """One time window of a trace with its aggregated profile."""

    begin: float
    end: float
    measurements: MeasurementSet

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.begin + self.end)


def _binned(tracer: Tracer, edges_of: Callable[[OnlineAccumulator],
                                               Sequence[float]],
            regions: Optional[Sequence[str]],
            activities: Optional[Sequence[str]]) -> List[Window]:
    """Window a trace with the streaming kernels run over one chunk.

    A layout pass fixes the (region, activity, rank) layout and the
    extent from the whole trace, so sparse windows do not change the
    row/column order; one :class:`WindowedAccumulator` update then bins
    every event.  With a fixed ``activities`` layout, a window holding
    an annotated event of another activity is dropped.
    """
    if len(tracer) == 0:
        raise TraceError("cannot window an empty trace")
    events = tracer.events
    scout = OnlineAccumulator(regions=regions).update(events)
    edges = edges_of(scout)
    region_names = scout.regions()
    if not region_names:
        raise TraceError("trace contains no annotated regions")
    activity_names = (tuple(activities) if activities is not None
                      else scout.activities())
    binner = WindowedAccumulator(edges, region_names, activity_names,
                                 scout.n_ranks)
    return binner.update(events).finalize()


def window_profiles_at(tracer: Tracer, boundaries: Sequence[float],
                       regions: Optional[Sequence[str]] = None,
                       activities: Optional[Sequence[str]] = None
                       ) -> List[Window]:
    """Profile the trace between explicit time boundaries.

    ``boundaries`` are strictly increasing times; window k covers
    ``[boundaries[k], boundaries[k+1])``.  Use this to align windows
    with known phase boundaries (e.g. time-step starts) instead of the
    equal slicing of :func:`window_profiles`.
    """
    return _binned(tracer, lambda scout: boundaries, regions, activities)


def equal_edges(begin: float, end: float, n_windows: int) -> List[float]:
    """``n_windows`` equal slices of the extent ``[begin, end]``.

    Anchored at the actual first event time, not t=0; the final edge is
    pinned to the exact trace end so the last sliver of every event
    survives the float arithmetic.  Shared by the in-memory windower
    and the streaming :class:`~repro.core.online.WindowedAccumulator`,
    so both bin against bit-identical boundaries.
    """
    if n_windows < 1:
        raise TraceError("need at least one window")
    span = end - begin
    if span <= 0.0:
        raise TraceError("trace spans no time")
    edges = [begin + span * k / n_windows for k in range(n_windows)]
    edges.append(end)
    return edges


def window_profiles(tracer: Tracer, n_windows: int,
                    regions: Optional[Sequence[str]] = None,
                    activities: Optional[Sequence[str]] = None
                    ) -> List[Window]:
    """Slice a trace into ``n_windows`` equal time windows and profile
    each.

    Windows cover the trace's occupied extent ``[begin, end]`` — a
    trace starting at ``t0 > 0`` gets no empty leading windows.  Region
    and activity orders are fixed across windows (by default: the whole
    trace's), so the per-window measurement sets are directly
    comparable.  Windows containing no events are dropped.
    """
    return _binned(tracer,
                   lambda scout: equal_edges(scout.begin, scout.elapsed,
                                             n_windows),
                   regions, activities)
