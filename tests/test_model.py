"""Unit tests for the core domain types and closed-form computations."""

import math

import numpy as np
import pytest

from abrplan import (
    CapacityTrace,
    InvalidScheduleError,
    QualityLevel,
    QualityPlan,
    VideoSpec,
    compute_cost,
    compute_quality,
    compute_utilization,
    make_threshold_schedule,
)

MBPS = 1e6


class TestCapacityTrace:
    def test_basic_properties(self):
        t = CapacityTrace(slot_duration=0.5, capacities=(1.0, 2.0, 3.0))
        assert t.n_slots == 3
        assert t.window_length == 1.5
        assert np.array_equal(t.as_array, [1.0, 2.0, 3.0])

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CapacityTrace(slot_duration=0.0, capacities=(1.0,))
        with pytest.raises(ValueError):
            CapacityTrace(slot_duration=1.0, capacities=())
        with pytest.raises(ValueError):
            CapacityTrace(slot_duration=1.0, capacities=(1.0, -2.0))
        with pytest.raises(ValueError):
            CapacityTrace(slot_duration=1.0, capacities=(float("inf"),))

    @pytest.mark.parametrize(
        "slot_duration, capacities",
        [(1.0, (1.7e308, 1.0) * 10), (1.0, (1e308,) * 20), (2.0, (1e308,))],
        ids=["alternating", "every-slot", "times-the-slot"],
    )
    def test_rejects_an_infinite_total_volume(self, slot_duration, capacities):
        """Each capacity is finite, but the window's bit volume overflows a
        float, and so would the running sums that transmission walks."""
        with pytest.raises(ValueError, match="total bit volume"):
            CapacityTrace(slot_duration=slot_duration, capacities=capacities)

    def test_largest_finite_volume_is_legal(self):
        t = CapacityTrace(slot_duration=1.0, capacities=(1.7e308 / 2, 1.7e308 / 2))
        assert math.isfinite(t.cumulative[-1] * t.slot_duration)

    def test_zero_capacity_is_legal(self):
        t = CapacityTrace(slot_duration=1.0, capacities=(0.0, 1.0))
        assert t.capacities[0] == 0.0

    def test_tail(self):
        t = CapacityTrace(slot_duration=2.0, capacities=(1.0, 2.0, 3.0))
        tail = t.tail(1)
        assert tail.capacities == (2.0, 3.0)
        assert tail.slot_duration == 2.0
        with pytest.raises(ValueError):
            t.tail(3)


class TestVideoSpec:
    def _spec(self, **kw):
        base = dict(
            n_segments=4,
            frames_per_segment=2,
            frame_rate=2.0,
            levels=(QualityLevel(8.0, 0.5), QualityLevel(16.0, 1.0)),
            prefetch_frames=2,
        )
        base.update(kw)
        return VideoSpec(**base)

    def test_derived_quantities(self):
        spec = self._spec()
        assert spec.n_levels == 2
        assert spec.total_frames == 8
        assert spec.cache_segments == 1
        assert spec.frame_bits(1) == 4.0
        assert spec.frame_bits(2) == 8.0
        # full size at the top level: b_L * N * S / frame_rate
        assert spec.frame_bits(spec.n_levels) * spec.total_frames == 16.0 * 8 / 2.0

    def test_cache_rounds_up_and_caps_at_n(self):
        assert self._spec(prefetch_frames=3).cache_segments == 2
        assert self._spec(prefetch_frames=8).cache_segments == 4

    def test_rejects_non_increasing_levels(self):
        with pytest.raises(ValueError):
            self._spec(levels=(QualityLevel(8.0, 0.5), QualityLevel(8.0, 1.0)))
        with pytest.raises(ValueError):
            self._spec(levels=(QualityLevel(8.0, 0.6), QualityLevel(16.0, 0.6)))

    def test_rejects_bad_weights_and_bounds(self):
        with pytest.raises(ValueError):
            self._spec(levels=(QualityLevel(8.0, 0.0),))
        with pytest.raises(ValueError):
            self._spec(levels=(QualityLevel(8.0, 1.5),))
        with pytest.raises(ValueError):
            self._spec(prefetch_frames=0)
        with pytest.raises(ValueError):
            self._spec(prefetch_frames=9)  # > N*S

    @pytest.mark.parametrize(
        "field, value",
        [("n_segments", 12.5), ("n_segments", 4.0), ("n_segments", True),
         ("frames_per_segment", False), ("prefetch_frames", 2.0)],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match="integers"):
            self._spec(**{field: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -2.0])
    def test_rejects_out_of_range_rate_and_bitrate(self, value):
        with pytest.raises(ValueError, match="frame_rate"):
            self._spec(frame_rate=value)
        with pytest.raises(ValueError, match="bitrates"):
            self._spec(levels=(QualityLevel(value, 0.5), QualityLevel(16.0, 1.0)))

    @pytest.mark.parametrize(
        "bitrate, frame_rate, error",
        [(5e-324, 2.0, ValueError), (1e308, 0.1, ValueError), (8.0, 10**400, OverflowError), (10**400, 2.0, OverflowError)],
        ids=["zero", "inf", "int-rate-past-floats", "int-bitrate-past-floats"],
    )
    def test_rejects_a_frame_size_that_underflows_or_overflows(self, bitrate, frame_rate, error):
        """Each rate and bitrate is in range alone, but the frame size
        ``bitrate / frame_rate`` is 0 or inf in floats, or its integer
        operands do not fit a float."""
        with pytest.raises(error, match="frame size|too large"):
            self._spec(frame_rate=frame_rate, levels=(QualityLevel(bitrate, 1.0),))

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_rejects_booleans_as_rate_bitrate_and_weight(self, value):
        with pytest.raises(ValueError, match="frame_rate"):
            self._spec(frame_rate=value)
        with pytest.raises(ValueError, match="bitrates"):
            self._spec(levels=(QualityLevel(value, 0.5), QualityLevel(16.0, 1.0)))
        with pytest.raises(ValueError, match="weights"):
            self._spec(levels=(QualityLevel(8.0, 0.5), QualityLevel(16.0, value)))

    def test_accepts_numpy_integer_counts(self):
        assert self._spec(n_segments=np.int64(4)).total_frames == 8


class TestQualityPlan:
    def test_validate_accepts_ascending_after_cache(self, toy_spec):
        QualityPlan((1, 1, 2, 2)).validate(toy_spec)
        QualityPlan((1, 1, 1, 1)).validate(toy_spec)

    def test_validate_rejections(self, toy_spec):
        with pytest.raises(ValueError):
            QualityPlan((1, 1, 2)).validate(toy_spec)  # wrong length
        with pytest.raises(ValueError):
            QualityPlan((1, 1, 3, 3)).validate(toy_spec)  # out of range
        with pytest.raises(ValueError):
            QualityPlan((2, 2, 2, 2)).validate(toy_spec)  # cache not level 1
        with pytest.raises(ValueError):
            QualityPlan((1, 2, 1, 2)).validate(toy_spec)  # decreasing

    def test_uniform(self, toy_spec):
        assert QualityPlan.uniform(toy_spec, 1).segment_levels == (1, 1, 1, 1)

    def test_runs_are_canonical(self):
        plan = QualityPlan((1, 1, 2, 2, 2, 4))
        assert plan.runs == ((0, 1), (2, 2), (5, 4))
        assert plan.n_segments == 6
        # an empty run (2, 3) and a repeated level are folded away
        rebuilt = QualityPlan.from_runs([(0, 1), (2, 3), (2, 2), (4, 2), (5, 4)], 6)
        assert rebuilt.runs == plan.runs and rebuilt == plan

    @pytest.mark.parametrize(
        "runs, n",
        [([(1, 1)], 4), ([(0, 1), (3, 2), (2, 3)], 4), ([(0, 1), (5, 2)], 4), ([], 4)],
        ids=["not-from-0", "out-of-order", "past-the-end", "no-runs"],
    )
    def test_from_runs_rejects_malformed_runs(self, runs, n):
        with pytest.raises(ValueError):
            QualityPlan.from_runs(runs, n)


class TestThresholdSchedule:
    def test_direct_example(self):
        t = CapacityTrace(1.0, (1 * MBPS, 3 * MBPS, 2 * MBPS, 5 * MBPS))
        s = make_threshold_schedule(t, 2.5 * MBPS)
        assert s.as_array.tolist() == [0.0, 3 * MBPS, 0.0, 5 * MBPS]
        assert s.cumulative.tolist() == [0.0, 0.0, 3 * MBPS, 3 * MBPS, 8 * MBPS]
        assert make_threshold_schedule(t, 0.0).as_array.tolist() == list(t.capacities)
        assert make_threshold_schedule(t, 2.5 * MBPS).as_array.tolist() == s.as_array.tolist()

    def test_alpha_zero_is_greedy(self):
        t = CapacityTrace(1.0, (1.0, 2.0, 0.0))
        assert make_threshold_schedule(t, 0.0).as_array.tolist() == list(t.capacities)

    def test_alpha_above_max_idles_everywhere(self):
        t = CapacityTrace(1.0, (1.0, 2.0))
        assert make_threshold_schedule(t, 3.0).as_array.tolist() == [0.0, 0.0]

    def test_threshold_form_and_shrinkage(self):
        rng = np.random.default_rng(7)
        caps = tuple(rng.uniform(0.5, 3.0, 20).tolist())
        t = CapacityTrace(1.0, caps)
        prev_active = None
        for alpha in sorted(rng.uniform(0.0, 3.5, 10)):
            s = make_threshold_schedule(t, alpha)
            for r, c in zip(s.as_array.tolist(), caps):
                assert r == 0.0 or r == c
            active = set(np.flatnonzero(s.as_array).tolist())
            if prev_active is not None:
                assert active <= prev_active
            prev_active = active

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            make_threshold_schedule(CapacityTrace(1.0, (1.0,)), -1.0)

    def test_arrays_are_read_only(self):
        s = make_threshold_schedule(CapacityTrace(1.0, (1.0, 2.0)), 1.5)
        for arr in (s.as_array, s.cumulative):
            with pytest.raises(ValueError):
                arr[0] = 9.0


class TestUtilization:
    def test_full_and_idle(self):
        t = CapacityTrace(1.0, (2.0, 2.0, 2.0))
        full = [2.0, 2.0, 2.0]
        assert compute_utilization(t, full, session_length=3.0) == pytest.approx(1.0)
        assert compute_utilization(t, [0.0] * 3, session_length=3.0) == 0.0

    def test_half_active(self):
        t = CapacityTrace(1.0, (2 * MBPS,) * 4)
        bits = [2 * MBPS, 0.0, 2 * MBPS, 0.0]
        assert compute_utilization(t, bits, session_length=4.0) == pytest.approx(0.5)

    def test_zero_capacity_slot_with_zero_bits_ok(self):
        t = CapacityTrace(1.0, (0.0, 2.0))
        assert compute_utilization(t, [0.0, 1.0], 2.0) == pytest.approx(0.25)

    def test_errors(self):
        t = CapacityTrace(1.0, (0.0, 2.0))
        with pytest.raises(InvalidScheduleError):
            compute_utilization(t, [1.0, 0.0], 2.0)  # bits on a dead slot
        with pytest.raises(InvalidScheduleError):
            compute_utilization(t, [0.0, 3.0], 2.0)  # over slot volume
        with pytest.raises(InvalidScheduleError):
            compute_utilization(t, [0.0, -1.0], 2.0)
        with pytest.raises(ValueError):
            compute_utilization(t, [0.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            compute_utilization(t, [0.0], 1.0)


class TestQuality:
    def _two_level_spec(self, w_lo=0.5, w_hi=1.0):
        # 4 single-frame segments so frame fractions equal segment fractions
        return VideoSpec(
            n_segments=4,
            frames_per_segment=1,
            frame_rate=1.0,
            levels=(QualityLevel(3000e3, w_lo), QualityLevel(6000e3, w_hi)),
            prefetch_frames=1,
        )

    def test_worked_example(self):
        spec = self._two_level_spec()
        assert compute_quality(spec, QualityPlan((2, 2, 2, 2))) == 1.0
        assert compute_quality(spec, QualityPlan((1, 1, 2, 2))) == 0.5 * 0.5 + 0.5 * 1.0

    def test_all_top_level_gives_top_weight(self, toy_spec):
        # plan bypasses cache validation on purpose: quality only counts levels
        assert compute_quality(toy_spec, QualityPlan((2, 2, 2, 2))) == 1.0

    def test_half_and_half_table_weights(self):
        levels = tuple(
            QualityLevel(b * MBPS, w)
            for b, w in zip((0.4, 0.75, 1.0, 2.5, 4.5), (0.09, 0.17, 0.22, 0.55, 1.0))
        )
        spec = VideoSpec(180, 30, 30.0, levels, 120)
        plan = QualityPlan((1,) * 90 + (5,) * 90)
        assert compute_quality(spec, plan) == pytest.approx(0.545)

    def test_permutation_invariance(self, toy_spec):
        a = compute_quality(toy_spec, QualityPlan((1, 2, 1, 2)))
        b = compute_quality(toy_spec, QualityPlan((2, 2, 1, 1)))
        assert a == b

    def test_length_mismatch(self, toy_spec):
        with pytest.raises(ValueError):
            compute_quality(toy_spec, QualityPlan((1, 1)))


class TestCost:
    def test_examples(self):
        assert compute_cost(1.0, 1.0, 0.0) == 1.0
        assert compute_cost(0.6, 0.8, 4.5) == pytest.approx(-3.0)
        assert compute_cost(0.0, 0.0, 7.0) == 0.0

    def test_monotonicity(self):
        assert compute_cost(0.5, 0.9, 2.0) < compute_cost(0.5, 0.8, 2.0)
        assert compute_cost(0.6, 0.8, 2.0) > compute_cost(0.5, 0.8, 2.0)

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            compute_cost(0.5, 0.5, -0.1)


def test_frame_bits_match_weights_arrays(toy_spec):
    assert np.allclose([toy_spec.frame_bits(level) for level in (1, 2)], [4.0, 8.0])
    assert np.allclose(toy_spec.weights, [0.5, 1.0])
