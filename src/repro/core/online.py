"""One-pass mergeable accumulators: the streaming analysis engine.

The paper's whole methodology — dispersion matrices, the three views
(``ID_P_ip``, ``ID_A_j``, ``SID_A_j``, ``ID_C_i``, ``SID_C_i``),
ranking and the efficiency factorization — is a function of the
``t_ijp`` tensor alone, and ``t_ijp`` is a *sum* of event durations.
That makes the tensor an exactly mergeable sufficient statistic: it can
be accumulated one bounded chunk of events at a time, and partial
accumulations from disjoint shards of a trace can be added together,
without ever holding the event list.  Per-cell moments (sums, sums of
squares over processors) and every registered index then derive from
the finalized tensor exactly as in the in-memory path.

* :class:`OnlineAccumulator` — the one aggregation kernel.
  ``update(events)`` folds a chunk into the running per-(region,
  activity, rank) sums; ``merge(other)`` combines two accumulators
  (associative, and order-insensitive up to the first-appearance
  ordering of labels); ``finalize()`` produces the
  :class:`~repro.core.measurements.MeasurementSet`.
  :func:`repro.instrument.profile` is this accumulator run over the
  full event list as one chunk, so any chunking in file order is
  bit-identical to it, and merged shards agree within one float
  rounding of the summation tree.
* :class:`WindowedAccumulator` — the one windowing kernel: bins
  boundary-split events into fixed time windows, one chunk at a time,
  in a vectorized sweep.  :func:`repro.instrument.window_profiles` is
  this accumulator run over the full event list as one chunk.

Memory is bounded by the (regions x activities x ranks) layout — and,
for the windowed form, the window count — never by the event count.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceError
from .measurements import DEFAULT_ACTIVITIES, MeasurementSet

#: Region label recorded for time outside every annotated region
#: (mirrors :data:`repro.instrument.events.OUTSIDE_REGION`; duplicated
#: here so :mod:`repro.core` keeps no import edge into the
#: instrumentation package).
OUTSIDE_REGION = "(outside regions)"


def _ordered_activities(seen: Sequence[str]) -> Tuple[str, ...]:
    """The profile's activity ordering: the paper's canonical four (in
    the paper's order) first, then extras in first-appearance order."""
    return tuple(
        [name for name in DEFAULT_ACTIVITIES if name in seen] +
        [name for name in seen if name not in DEFAULT_ACTIVITIES])


class OnlineAccumulator:
    """Per-(region, activity, rank) duration sums, one chunk at a time.

    :func:`repro.instrument.profile` runs it over a whole trace, and its
    parameters are the profile's: ``regions``
    fixes the region order (events in unlisted regions are skipped),
    ``activities`` fixes the activity order (an event with an unlisted
    activity raises :class:`~repro.errors.TraceError`), and ``n_ranks``
    widens the processor axis beyond the ranks actually seen.  With
    the defaults, regions appear in order of first appearance and
    activities follow the paper's canonical ordering.

    The accumulator is picklable (plain dicts, lists and scalars), so
    shard workers can build one per shard and ship it back for merging.
    """

    def __init__(self, regions: Optional[Sequence[str]] = None,
                 activities: Optional[Sequence[str]] = None,
                 aggregation: str = "max",
                 n_ranks: Optional[int] = None):
        self._fixed_regions = tuple(regions) if regions is not None else None
        self._fixed_activities = (tuple(activities)
                                  if activities is not None else None)
        self._aggregation = aggregation
        self._given_ranks = n_ranks
        #: (region, activity) -> summed durations indexed by rank (a
        #: zero-padded row: 32 B per rank, not a dict entry per cell).
        #: Insertion order is first-appearance order, which merge
        #: preserves.
        self._sums: Dict[Tuple[str, str], List[float]] = {}
        self._region_order: List[str] = []
        self._region_set = set()
        self._activity_order: List[str] = []
        self._activity_set = set()
        self._max_rank = -1
        self._min_begin = float("inf")
        self._max_end = float("-inf")
        self._n_events = 0

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def update(self, events: Iterable) -> "OnlineAccumulator":
        """Fold one chunk of events into the running sums.

        Per tensor cell the additions happen in event order, so feeding
        a trace chunk by chunk gives the floating-point sums of one
        whole-trace chunk bit for bit.
        """
        fixed_regions = (set(self._fixed_regions)
                         if self._fixed_regions is not None else None)
        fixed_activities = (set(self._fixed_activities)
                            if self._fixed_activities is not None else None)
        sums = self._sums
        for event in events:
            self._n_events += 1
            if event.begin < self._min_begin:
                self._min_begin = event.begin
            if event.end > self._max_end:
                self._max_end = event.end
            if event.rank > self._max_rank:
                self._max_rank = event.rank
            activity = event.activity
            # Activity discovery draws on *every* event — like
            # ``tracer.activities()`` — even those the tensor skips.
            if fixed_activities is None \
                    and activity not in self._activity_set:
                self._activity_set.add(activity)
                self._activity_order.append(activity)
            region = event.region
            if region == OUTSIDE_REGION:
                continue
            if fixed_regions is not None:
                if region not in fixed_regions:
                    continue    # caller restricted the region set
            elif region not in self._region_set:
                self._region_set.add(region)
                self._region_order.append(region)
            if fixed_activities is not None \
                    and activity not in fixed_activities:
                raise TraceError(
                    f"trace contains activity {activity!r} not in "
                    f"{self._fixed_activities}")
            row = sums.get((region, activity))
            if row is None:
                row = sums[region, activity] = []
            rank = event.rank
            if rank >= len(row):
                row.extend([0.0] * (rank + 1 - len(row)))
            row[rank] += event.end - event.begin
        return self

    def consume(self, chunks: Iterable[Iterable]) -> "OnlineAccumulator":
        """Fold an iterator of chunks (e.g. :func:`iter_any`'s output)."""
        for chunk in chunks:
            self.update(chunk)
        return self

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "OnlineAccumulator") -> "OnlineAccumulator":
        """Combine two accumulators into a fresh one (neither operand is
        mutated).

        Cell sums add, extents take min/max, and discovered label
        orders concatenate (self's labels first, then other's unseen
        ones) — merging shards in file order therefore reproduces the
        whole file's first-appearance order.  The operation is
        associative, and finalized *values* are insensitive to merge
        order; only the label ordering follows the merge sequence.
        """
        if self._aggregation != other._aggregation:
            raise TraceError(
                f"cannot merge accumulators with aggregations "
                f"{self._aggregation!r} and {other._aggregation!r}")
        if self._fixed_regions != other._fixed_regions:
            raise TraceError("cannot merge accumulators with different "
                             "fixed region layouts")
        if self._fixed_activities != other._fixed_activities:
            raise TraceError("cannot merge accumulators with different "
                             "fixed activity layouts")
        ranks = self._given_ranks
        if other._given_ranks is not None:
            ranks = (other._given_ranks if ranks is None
                     else max(ranks, other._given_ranks))
        merged = OnlineAccumulator(
            regions=self._fixed_regions,
            activities=self._fixed_activities,
            aggregation=self._aggregation, n_ranks=ranks)
        merged._sums = {key: list(row) for key, row in self._sums.items()}
        for key, row in other._sums.items():
            mine = merged._sums.setdefault(key, [])
            mine.extend([0.0] * (len(row) - len(mine)))
            for rank, value in enumerate(row):
                mine[rank] += value
        merged._region_order = list(self._region_order)
        merged._region_set = set(self._region_set)
        for region in other._region_order:
            if region not in merged._region_set:
                merged._region_set.add(region)
                merged._region_order.append(region)
        merged._activity_order = list(self._activity_order)
        merged._activity_set = set(self._activity_set)
        for activity in other._activity_order:
            if activity not in merged._activity_set:
                merged._activity_set.add(activity)
                merged._activity_order.append(activity)
        merged._max_rank = max(self._max_rank, other._max_rank)
        merged._min_begin = min(self._min_begin, other._min_begin)
        merged._max_end = max(self._max_end, other._max_end)
        merged._n_events = self._n_events + other._n_events
        return merged

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Events folded in so far."""
        return self._n_events

    @property
    def n_ranks(self) -> int:
        """Ranks seen so far (0 when empty), like ``Tracer.n_ranks``."""
        return max(self._max_rank + 1, self._given_ranks or 0)

    @property
    def begin(self) -> float:
        """Earliest event begin seen (0 when empty)."""
        return 0.0 if self._n_events == 0 else self._min_begin

    @property
    def elapsed(self) -> float:
        """Latest event end seen — the traced wall clock (0 when
        empty), like ``Tracer.elapsed``."""
        return 0.0 if self._n_events == 0 else self._max_end

    def regions(self) -> Tuple[str, ...]:
        """Region order the finalized set will use."""
        if self._fixed_regions is not None:
            return self._fixed_regions
        return tuple(self._region_order)

    def activities(self) -> Tuple[str, ...]:
        """Activity order the finalized set will use."""
        if self._fixed_activities is not None:
            return self._fixed_activities
        return _ordered_activities(self._activity_order)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> MeasurementSet:
        """The measurement set of everything folded in so far.

        ``T`` is the larger of the traced wall clock and the covered
        time.  The accumulator itself is unchanged and can keep
        accumulating.
        """
        if self._n_events == 0:
            raise TraceError("cannot profile an empty trace")
        region_names = self.regions()
        if not region_names:
            raise TraceError("trace contains no annotated regions")
        activity_names = self.activities()
        n_ranks = self._max_rank + 1
        if self._given_ranks is not None:
            if self._given_ranks < n_ranks:
                raise TraceError(
                    f"n_ranks={self._given_ranks} but the trace mentions "
                    f"rank {self._max_rank}")
            n_ranks = self._given_ranks
        region_index = {name: i for i, name in enumerate(region_names)}
        activity_index = {name: j for j, name in enumerate(activity_names)}
        tensor = np.zeros((len(region_names), len(activity_names), n_ranks))
        for (region, activity), row in self._sums.items():
            tensor[region_index[region], activity_index[activity],
                   :len(row)] = row
        preliminary = MeasurementSet(tensor, regions=region_names,
                                     activities=activity_names,
                                     aggregation=self._aggregation)
        total = max(self._max_end, preliminary.covered_time)
        return MeasurementSet(tensor, regions=region_names,
                              activities=activity_names,
                              total_time=total,
                              aggregation=self._aggregation)

    def session(self):
        """An :class:`~repro.core.batch.AnalysisSession` over the
        finalized measurements — the streaming entry into the memoized
        batch engine."""
        from .batch import AnalysisSession
        return AnalysisSession(self.finalize())


class WindowedAccumulator:
    """Per-window profiles of boundary-split events, one chunk at a
    time.

    Requires the window ``edges`` and the (region, activity, rank)
    layout up front — the time-resolved CLI discovers both with a first
    :class:`OnlineAccumulator` pass, then bins the same stream on a
    second pass; :func:`repro.instrument.window_profiles` does both
    passes over the in-memory event list as one chunk.  Any chunking
    in file order finalizes to the same ``List[Window]``, bit for bit.
    """

    def __init__(self, edges: Sequence[float],
                 regions: Sequence[str], activities: Sequence[str],
                 n_ranks: int):
        self.edges = [float(value) for value in edges]
        if len(self.edges) < 2:
            raise TraceError("need at least two boundaries")
        if any(later <= earlier
               for earlier, later in zip(self.edges, self.edges[1:])):
            raise TraceError("boundaries must be strictly increasing")
        self.region_names = tuple(regions)
        self.activity_names = tuple(activities)
        if n_ranks < 1:
            raise TraceError("need at least one rank")
        n_windows = len(self.edges) - 1
        self._edge_array = np.asarray(self.edges)
        self._region_ids = {name: i
                            for i, name in enumerate(self.region_names)
                            if name != OUTSIDE_REGION}
        self._activity_ids = {name: j
                              for j, name in enumerate(self.activity_names)}
        self._tensors = np.zeros((n_windows, len(self.region_names),
                                  len(self.activity_names), n_ranks))
        self._last_end = np.zeros(n_windows)
        self._occupied = np.zeros(n_windows, dtype=bool)
        self._poisoned = np.zeros(n_windows, dtype=bool)
        self._n_events = 0

    @property
    def n_windows(self) -> int:
        return len(self.edges) - 1

    @property
    def n_events(self) -> int:
        return self._n_events

    def update(self, events: Iterable) -> "WindowedAccumulator":
        """Bin one chunk of events in a single vectorized sweep.

        Each event finds the windows it overlaps by binary search on
        the edges and is split at their boundaries.  The split
        durations are scattered straight into the running tensors with
        one unbuffered ``np.add.at``, which adds in event order per
        cell — so any chunking of a trace, including one chunk, gives
        bit-identical sums.
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        n_events = len(events)
        if n_events == 0:
            return self
        edges = self._edge_array
        n_windows, n_regions, n_activities, n_ranks = self._tensors.shape
        begins = np.array([event.begin for event in events], dtype=float)
        ends = np.array([event.end for event in events], dtype=float)
        ranks = np.array([event.rank for event in events], dtype=np.intp)
        # Flattened (region, activity) cell per event: -1 marks events
        # the profile skips (outside or unlisted regions), -2 an
        # indexed region whose activity is missing from the layout —
        # profiling a window that holds one would raise, so such an
        # event poisons every window it touches.
        region_of = np.array([self._region_ids.get(event.region, -1)
                              for event in events], dtype=np.intp)
        activity_of = np.array([self._activity_ids.get(event.activity, -1)
                                for event in events], dtype=np.intp)
        cells = np.where(region_of < 0, -1,
                         np.where(activity_of < 0, -2,
                                  region_of * n_activities + activity_of))

        # Window range [lo, hi] each event can overlap; expand into
        # (event, window) pairs, events in chunk order.
        lo = np.maximum(np.searchsorted(edges, begins, side="right") - 1, 0)
        hi = np.minimum(np.searchsorted(edges, ends, side="left") - 1,
                        n_windows - 1)
        counts = np.maximum(hi - lo + 1, 0)
        event_of = np.repeat(np.arange(n_events), counts)
        offsets = np.repeat(counts.cumsum() - counts, counts)
        window_of = lo[event_of] + (np.arange(event_of.size) - offsets)

        clipped_begin = np.maximum(begins[event_of], edges[window_of])
        clipped_end = np.minimum(ends[event_of], edges[window_of + 1])
        durations = clipped_end - clipped_begin
        overlap = durations > 0.0
        event_of = event_of[overlap]
        window_of = window_of[overlap]
        cell_of = cells[event_of]
        counted = cell_of >= 0
        rank_of = ranks[event_of[counted]]
        if rank_of.size and rank_of.max() >= n_ranks:
            raise TraceError(f"event of rank {rank_of.max()} outside the "
                             f"layout's {n_ranks} ranks")

        self._n_events += n_events
        self._occupied[window_of] = True
        np.maximum.at(self._last_end, window_of, clipped_end[overlap])
        self._poisoned[window_of[cell_of == -2]] = True
        targets = ((window_of[counted] * (n_regions * n_activities)
                    + cell_of[counted]) * n_ranks + rank_of)
        np.add.at(self._tensors.reshape(-1), targets,
                  durations[overlap][counted])
        return self

    def consume(self, chunks: Iterable[Iterable]) -> "WindowedAccumulator":
        """Fold an iterator of chunks."""
        for chunk in chunks:
            self.update(chunk)
        return self

    def merge(self, other: "WindowedAccumulator") -> "WindowedAccumulator":
        """Combine two windowed accumulators over the same edges and
        layout into a fresh one (tensors add, extents take max)."""
        if self.edges != other.edges:
            raise TraceError("cannot merge windowed accumulators with "
                             "different edges")
        if (self.region_names != other.region_names
                or self.activity_names != other.activity_names
                or self._tensors.shape != other._tensors.shape):
            raise TraceError("cannot merge windowed accumulators with "
                             "different layouts")
        merged = WindowedAccumulator(self.edges, self.region_names,
                                     self.activity_names,
                                     self._tensors.shape[3])
        merged._tensors = self._tensors + other._tensors
        merged._last_end = np.maximum(self._last_end, other._last_end)
        merged._occupied = self._occupied | other._occupied
        merged._poisoned = self._poisoned | other._poisoned
        merged._n_events = self._n_events + other._n_events
        return merged

    def finalize(self) -> List:
        """The windows: unoccupied and poisoned windows dropped,
        per-window ``T`` the larger of the window's covered time and
        its last event end."""
        from ..instrument.windows import Window
        windows = []
        for w in range(self.n_windows):
            if not self._occupied[w] or self._poisoned[w]:
                continue
            preliminary = MeasurementSet(self._tensors[w].copy(),
                                         regions=self.region_names,
                                         activities=self.activity_names)
            total = max(float(self._last_end[w]), preliminary.covered_time)
            windows.append(Window(begin=self.edges[w],
                                  end=self.edges[w + 1],
                                  measurements=preliminary
                                  .with_total_time(total)))
        if not windows:
            raise TraceError("no window contains annotated events")
        return windows
