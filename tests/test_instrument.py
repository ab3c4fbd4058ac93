"""Unit tests for trace events, the tracer and profile aggregation."""

import numpy as np
import pytest

from repro.errors import MeasurementError, TraceError
from repro.instrument import (OUTSIDE_REGION, Tracer, TraceEvent, profile,
                              window_profiles)


class TestTraceEvent:
    def test_duration(self):
        event = TraceEvent(0, "r", "computation", 1.0, 3.5)
        assert event.duration == pytest.approx(2.5)

    def test_rejects_reversed_interval(self):
        with pytest.raises(TraceError):
            TraceEvent(0, "r", "computation", 2.0, 1.0)

    def test_rejects_negative_rank(self):
        with pytest.raises(TraceError):
            TraceEvent(-1, "r", "computation", 0.0, 1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(TraceError):
            TraceEvent(0, "r", "computation", 0.0, 1.0, kind="sleep")

    def test_rejects_empty_activity(self):
        with pytest.raises(TraceError):
            TraceEvent(0, "r", "", 0.0, 1.0)

    def test_with_region(self):
        event = TraceEvent(0, "r", "computation", 0.0, 1.0)
        relabelled = event.with_region("s")
        assert relabelled.region == "s"
        assert relabelled.duration == event.duration


class TestTracer:
    def test_record_defaults_outside_region(self):
        tracer = Tracer()
        tracer.record(0, "", "computation", 0.0, 1.0)
        assert tracer.events[0].region == OUTSIDE_REGION

    def test_elapsed_and_ranks(self):
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 1.0)
        tracer.record(2, "r", "computation", 0.5, 3.0)
        assert tracer.elapsed == 3.0
        assert tracer.n_ranks == 3

    def test_rank_counts_even_when_its_events_end_at_zero(self):
        """A zero-duration event at t=0 still registers its rank (it
        used to slip past the running max and crash profile with an
        out-of-range rank)."""
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 1.0)
        tracer.record(3, "r", "computation", 0.0, 0.0)
        assert tracer.n_ranks == 4
        from repro.instrument import profile
        assert profile(tracer).n_processors == 4

    def test_regions_in_first_appearance_order(self):
        tracer = Tracer()
        tracer.record(0, "b", "computation", 0.0, 1.0)
        tracer.record(0, "a", "computation", 1.0, 2.0)
        tracer.record(0, "b", "computation", 2.0, 3.0)
        assert tracer.regions() == ("b", "a")

    def test_events_of(self):
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 1.0)
        tracer.record(1, "r", "computation", 0.0, 2.0)
        assert len(tracer.events_of(0)) == 1
        assert len(tracer.events_of(5)) == 0

    def test_clear(self):
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 1.0)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.elapsed == 0.0

    def test_extend(self):
        tracer = Tracer()
        tracer.extend([TraceEvent(0, "r", "computation", 0.0, 1.0),
                       TraceEvent(1, "r", "computation", 0.0, 1.0)])
        assert len(tracer) == 2


class TestProfile:
    def make_tracer(self):
        tracer = Tracer()
        # rank 0: 1s compute in r1, 0.5s p2p in r1; rank 1: 2s compute.
        tracer.record(0, "r1", "computation", 0.0, 1.0)
        tracer.record(0, "r1", "point-to-point", 1.0, 1.5, kind="send")
        tracer.record(1, "r1", "computation", 0.0, 2.0)
        tracer.record(0, "r2", "computation", 1.5, 1.7)
        tracer.record(1, "", "computation", 2.0, 2.5)   # outside
        return tracer

    def test_tensor_values(self):
        ms = profile(self.make_tracer())
        assert ms.regions == ("r1", "r2")
        i = ms.activity_index("computation")
        np.testing.assert_allclose(ms.times[0, i, :], [1.0, 2.0])
        j = ms.activity_index("point-to-point")
        np.testing.assert_allclose(ms.times[0, j, :], [0.5, 0.0])

    def test_outside_time_counts_toward_total_only(self):
        ms = profile(self.make_tracer())
        # Covered: r1 (max comp 2.0 + max p2p 0.5) + r2 (0.2) = 2.7;
        # elapsed = 2.5 -> total = max(2.5, 2.7) = 2.7.
        assert ms.covered_time == pytest.approx(2.7)
        assert ms.total_time == pytest.approx(2.7)

    def test_activities_follow_canonical_order(self):
        ms = profile(self.make_tracer())
        assert ms.activities == ("computation", "point-to-point")

    def test_extra_activity_appended(self):
        tracer = self.make_tracer()
        tracer.record(0, "r1", "io", 1.7, 1.8)
        ms = profile(tracer)
        assert ms.activities[-1] == "io"

    def test_region_order_override(self):
        ms = profile(self.make_tracer(), regions=("r2", "r1"))
        assert ms.regions == ("r2", "r1")

    def test_region_restriction(self):
        ms = profile(self.make_tracer(), regions=("r1",))
        assert ms.n_regions == 1

    def test_missing_region_gives_zero_row(self):
        ms = profile(self.make_tracer(), regions=("r1", "r2", "r3"))
        assert ms.times[2].sum() == 0.0

    def test_unknown_activity_restriction_rejected(self):
        with pytest.raises(TraceError):
            profile(self.make_tracer(), activities=("computation",))

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            profile(Tracer())

    def test_outside_only_trace_rejected(self):
        tracer = Tracer()
        tracer.record(0, "", "computation", 0.0, 1.0)
        with pytest.raises(TraceError):
            profile(tracer)

    def test_mean_aggregation_passthrough(self):
        ms = profile(self.make_tracer(), aggregation="mean")
        i = ms.activity_index("computation")
        assert ms.region_activity_times[0, i] == pytest.approx(1.5)


class TestBeforeTimeZero:
    """A trace lying before t=0 has no positive wall clock where the
    listed regions (or one window) hold no annotated time; the error
    says so instead of blaming ``total_time``."""

    def make_tracer(self, shift=0.0):
        tracer = Tracer()
        tracer.record(0, "alpha", "computation", shift - 40.0, shift - 39.0)
        tracer.record(1, "gamma", "computation", shift - 39.0, shift - 37.0)
        return tracer

    def test_profile_names_the_cause(self):
        with pytest.raises(MeasurementError,
                           match=r"the trace holds no annotated time in "
                                 r"the listed regions and ends at or "
                                 r"before t=0 \(last event end -37 s\)"):
            profile(self.make_tracer(), regions=("beta",))

    def test_window_profiles_names_the_cause(self):
        with pytest.raises(MeasurementError,
                           match=r"window \[-38.5, -37\) holds no "
                                 r"annotated time in the listed regions "
                                 r"and ends at or before t=0 "
                                 r"\(last event end -37 s\)"):
            window_profiles(self.make_tracer(), 2,
                            regions=("alpha", "beta"))

    def test_the_same_trace_after_time_zero_profiles(self):
        tracer = self.make_tracer(shift=140.0)
        assert profile(tracer, regions=("beta",)).total_time == 103.0
        windows = window_profiles(tracer, 2, regions=("alpha", "beta"))
        assert windows[-1].measurements.total_time == 103.0
