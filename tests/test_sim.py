"""Simulator tests: hand-checked sessions, transmission rules, and
cross-validation against an independent frame-at-a-time re-simulation."""

import numpy as np
import pytest

from abrplan import (
    CapacityTrace,
    InfeasiblePlanError,
    QualityLevel,
    QualityPlan,
    VideoSpec,
    default_trace_config,
    default_video_spec,
    evaluate,
    exist_violation,
    generate_synthetic,
    make_threshold_schedule,
    transmit_video,
)
from abrplan.sim import _trajectory_from_counts, session_length

from reference import (
    random_small_instance,
    reference_transmit,
    reference_violation,
)


class TestHandCheckedSession:
    """The 6-slot toy instance, verified end to end by hand.

    Trace c = (16, 8, 16, 16, 16, 16) bps, dt = 1 s; plan (1, 1, 2, 2) at
    alpha = 16: the cache segment goes out greedily in slot 0 together with
    segment 2 (same level), slot 1 is below threshold, segments 3-4 land in
    slots 2-3, playback starts at slot 1 and runs 4 s.
    """

    ALPHA = 16.0
    PLAN = QualityPlan((1, 1, 2, 2))

    def test_transmission(self, toy_spec, toy_trace):
        sched = make_threshold_schedule(toy_trace, self.ALPHA)
        tx = transmit_video(toy_trace, sched, toy_spec, self.PLAN)
        assert tx.frames_at_boundary[-1] == toy_spec.total_frames
        assert np.allclose(tx.bits_used_per_slot, [16, 0, 16, 16, 0, 0])
        assert np.array_equal(tx.frames_at_boundary, [0, 4, 4, 6, 8, 8, 8])

    def test_outcome(self, toy_spec, toy_trace):
        out = evaluate(toy_trace, self.ALPHA, toy_spec, self.PLAN, a=2.0)
        assert out.startup_slot == 1
        assert out.arrived_frames == (0, 4, 4, 6, 8, 8, 8)
        assert out.watched_frames == (0, 0, 2, 4, 6, 8, 8)
        assert out.stall_events == ()
        # T = 1 s startup + 4 s playback; three full slots used out of five
        assert out.utilization == pytest.approx(0.6)
        assert out.quality == pytest.approx(0.75)
        assert out.cost == pytest.approx(0.6 - 2.0 * 0.75)

    def test_session_length(self, toy_spec, toy_trace):
        tx = transmit_video(toy_trace, make_threshold_schedule(toy_trace, self.ALPHA), toy_spec, self.PLAN)
        traj = _trajectory_from_counts(tx.frames_at_boundary.astype(float), toy_spec, toy_trace.slot_duration)
        startup_delay = traj.startup_checkpoint * toy_trace.slot_duration
        assert session_length(toy_spec, startup_delay, traj.stall_events) == pytest.approx(5.0)


class TestTransmissionRules:
    def _spec(self, n_segments=3, prefetch=1):
        return VideoSpec(
            n_segments=n_segments,
            frames_per_segment=1,
            frame_rate=1.0,
            levels=(QualityLevel(8.0, 0.5), QualityLevel(16.0, 1.0)),
            prefetch_frames=prefetch,
        )

    def test_bit_conservation_single_level(self, toy_spec, toy_trace):
        plan = QualityPlan.uniform(toy_spec, 1)
        tx = transmit_video(toy_trace, make_threshold_schedule(toy_trace, 0.0), toy_spec, plan)
        assert tx.frames_at_boundary[-1] == toy_spec.total_frames
        assert tx.bits_used_per_slot.sum() == pytest.approx(8 * 4.0)  # N*S * b_1/rate

    def test_alpha_above_max_never_completes(self, toy_spec, toy_trace):
        plan = QualityPlan.uniform(toy_spec, 1)
        sched = make_threshold_schedule(toy_trace, 100.0)
        tx = transmit_video(toy_trace, sched, toy_spec, plan)
        # greedy prefetch still ships the cache segment, nothing more
        assert tx.frames_at_boundary[-1] < toy_spec.total_frames
        assert tx.frames_at_boundary[-1] == toy_spec.frames_per_segment
        assert exist_violation(toy_trace, 100.0, toy_spec, plan)

    def test_one_level_per_slot_wastes_residual(self):
        spec = self._spec()
        trace = CapacityTrace(1.0, (8.0, 100.0, 100.0))
        plan = QualityPlan((1, 1, 2))
        tx = transmit_video(trace, make_threshold_schedule(trace, 0.0), spec, plan)
        # slot 1 carries frame 2 (level 1, 8 bits) then stops at the level
        # change; frame 3 (16 bits) would fit in the 92 bits left, but
        # waits for slot 2
        assert np.allclose(tx.bits_used_per_slot, [8.0, 8.0, 16.0])
        assert tx.frames_at_boundary.tolist() == [0, 1, 2, 3]  # not 3 by boundary 2

    def test_partial_frame_carries_across_slots(self):
        spec = self._spec(n_segments=2)
        trace = CapacityTrace(1.0, (8.0, 6.0, 10.0))
        plan = QualityPlan((1, 2))
        tx = transmit_video(trace, make_threshold_schedule(trace, 0.0), spec, plan)
        # frame 2 receives 6 of its 16 bits in slot 1 and the other 10 in
        # slot 2, which alone could not carry it
        assert tx.frames_at_boundary[-1] == spec.total_frames
        assert np.allclose(tx.bits_used_per_slot, [8.0, 6.0, 10.0])
        assert tx.frames_at_boundary.tolist() == [0, 1, 1, 2]

    def test_no_bits_on_inactive_slots(self):
        spec = self._spec(n_segments=4, prefetch=1)
        trace = CapacityTrace(1.0, (10.0, 3.0, 10.0, 3.0, 10.0, 10.0))
        plan = QualityPlan.uniform(spec, 1)
        sched = make_threshold_schedule(trace, 5.0)
        tx = transmit_video(trace, sched, spec, plan)
        active = sched.as_array > 0
        assert np.all(tx.bits_used_per_slot[~active][1:] == 0)  # slot 0 is greedy

    def test_greedy_prefetch_ignores_threshold(self):
        spec = self._spec(n_segments=3, prefetch=1)
        trace = CapacityTrace(1.0, (3.0, 10.0, 10.0))
        # slot 0 is below threshold but the cache segment still moves
        sched = make_threshold_schedule(trace, 5.0)
        tx = transmit_video(trace, sched, spec, plan=QualityPlan.uniform(spec, 1))
        assert tx.bits_used_per_slot[0] > 0


class TestPlaybackTrajectory:
    def test_everything_arrives_instantly(self, toy_spec, toy_trace):
        u = np.full(toy_trace.n_slots + 1, float(toy_spec.total_frames))
        traj = _trajectory_from_counts(u, toy_spec, toy_trace.slot_duration)
        assert traj.startup_checkpoint == 0
        assert traj.stall_events == ()
        # l ramps by 2 frames per slot to 8
        assert np.allclose(traj.watched, [0, 2, 4, 6, 8, 8, 8])

    def test_arrivals_stopping_midway_stall_once(self):
        # 10-frame toy session: 5 frames arrive early, then nothing
        spec = VideoSpec(5, 2, 2.0, (QualityLevel(8.0, 1.0),), prefetch_frames=2)
        u = np.array([0.0, 5, 5, 5, 5, 5, 5])  # on a 6-slot grid, dt = 1 s
        traj = _trajectory_from_counts(u, spec, 1.0)
        assert traj.startup_checkpoint == 1
        # l ramps 2 frames/s from slot 1 and catches u=5 midway through slot 3
        assert len(traj.stall_events) == 1
        assert traj.stall_events[0][0] == 4
        assert traj.watched[-1] == 5.0

    def test_boundary_equality_is_feasible(self):
        # u(k) == l(k) exactly at every checkpoint: constraint is >=, not >
        spec = VideoSpec(4, 2, 2.0, (QualityLevel(8.0, 1.0),), prefetch_frames=2)
        u = np.array([0.0, 2, 4, 6, 8, 8])
        traj = _trajectory_from_counts(u, spec, 1.0)
        assert traj.stall_events == ()

    def test_u_ge_l_iff_no_stalls(self):
        # l freezes during stalls, so u >= l always holds; "no stalls" is
        # equivalent to l tracking the unconstrained playback ramp
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec, trace = random_small_instance(rng)
            alpha = float(rng.choice(trace.capacities))
            plan = QualityPlan.uniform(spec, 1)
            tx = transmit_video(trace, make_threshold_schedule(trace, alpha), spec, plan)
            u = tx.frames_at_boundary.astype(float)
            traj = _trajectory_from_counts(u, spec, trace.slot_duration)
            assert np.all(u >= traj.watched - 1e-9)
            if traj.startup_checkpoint is None:
                continue
            n_cp = u.shape[0] - 1
            step = spec.frame_rate * trace.slot_duration
            ramp = np.clip(
                (np.arange(n_cp + 1) - traj.startup_checkpoint) * step,
                0.0,
                float(spec.total_frames),
            )
            on_ramp = bool(np.all(np.abs(traj.watched - ramp) < 1e-9))
            assert (len(traj.stall_events) == 0) == on_ramp


class TestEvaluate:
    def test_strict_mode_raises(self, toy_spec, toy_trace):
        plan = QualityPlan.uniform(toy_spec, 2)  # invalid: cache must be level 1
        with pytest.raises(ValueError):
            evaluate(toy_trace, 0.0, toy_spec, plan, a=1.0)
        starved = CapacityTrace(1.0, (1.0, 1.0, 1.0))
        with pytest.raises(InfeasiblePlanError):
            evaluate(starved, 0.0, toy_spec, QualityPlan.uniform(toy_spec, 1), a=1.0)

    @pytest.mark.parametrize(
        "capacities, strict, message",
        [
            ((1.0, 1.0, 1.0), True, "incomplete delivery"),
            ((16.0, 0.0, 0.0, 0.0, 16.0, 16.0, 16.0, 16.0), True, "playback stalled"),
            ((4.0, 0.0, 0.0, 0.0, 0.0, 0.0), False, "playback never started"),
            # delivered and never stalled, but the window ends before playback does
            ((16.0,) * 4, True, "playback does not finish within the window"),
        ],
    )
    def test_infeasible_sessions_say_why(self, toy_spec, capacities, strict, message):
        trace = CapacityTrace(1.0, capacities)
        with pytest.raises(InfeasiblePlanError, match=message):
            evaluate(trace, 0.0, toy_spec, QualityPlan.uniform(toy_spec, 1), a=1.0, strict=strict)

    def test_feasible_session_has_no_negative_bits(self, zero_rate_instance):
        trace, spec = zero_rate_instance
        out = evaluate(trace, 3.1377652831369094, spec, QualityPlan((1, 1, 1, 1, 2)), a=1.0)
        assert min(out.bits_used_per_slot) >= 0.0

    def test_non_strict_returns_stalls(self, toy_spec):
        trace = CapacityTrace(1.0, (16.0, 0.0, 0.0, 0.0, 16.0, 16.0, 16.0, 16.0))
        out = evaluate(trace, 0.0, toy_spec, QualityPlan.uniform(toy_spec, 1), a=1.0, strict=False)
        assert out.stall_events

    def test_higher_alpha_lowers_utilization_same_plan(self, toy_spec, toy_trace):
        plan = QualityPlan((1, 1, 2, 2))
        lo = evaluate(toy_trace, 0.0, toy_spec, plan, a=0.0)
        hi = evaluate(toy_trace, 16.0, toy_spec, plan, a=0.0)
        assert hi.utilization <= lo.utilization

    def test_anticipation_safety(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(60):
            spec, trace = random_small_instance(rng)
            plan = QualityPlan.uniform(spec, 1)
            alphas = sorted(set(trace.capacities))
            feas = [a for a in alphas if not exist_violation(trace, a, spec, plan)]
            if not feas:
                continue
            top = max(feas)
            for a in alphas:
                if a <= top:
                    assert not exist_violation(trace, a, spec, plan)
                    checked += 1
        assert checked > 20


class TestAgainstReference:
    """Cross-validation against the independent re-simulation oracle."""

    @staticmethod
    def _ascending_plan(rng, spec):
        """Cache at level 1, then one random breakpoint per higher level
        (coinciding breakpoints skip a level)."""
        levels = np.ones(spec.n_segments, dtype=int)
        for cut in np.sort(rng.integers(spec.cache_segments, spec.n_segments + 1, spec.n_levels - 1)):
            levels[cut:] += 1
        return QualityPlan(tuple(levels.tolist()))

    def test_transmission_agrees(self):
        rng = np.random.default_rng(42)
        # stock-size windows: runs span many slots and partial frames carry
        # across many boundaries
        stock = [
            (default_video_spec(), generate_synthetic(default_trace_config(seed)))
            for seed in range(3)
        ]
        for spec, trace in [random_small_instance(rng) for _ in range(120)] + stock:
            plan = self._ascending_plan(rng, spec)
            alpha = float(rng.choice(list(trace.capacities) + [0.0]))
            sched = make_threshold_schedule(trace, alpha)
            ref_bits, ref_times, ref_done = reference_transmit(trace, alpha, spec, plan)
            tx = transmit_video(trace, sched, spec, plan)
            ref_counts = np.searchsorted(
                ref_times, (np.arange(trace.n_slots + 1) + 1e-9) * trace.slot_duration, side="right"
            )
            assert (tx.frames_at_boundary[-1] >= spec.total_frames) == ref_done
            assert np.array_equal(tx.frames_at_boundary, ref_counts)
            assert np.allclose(tx.bits_used_per_slot, ref_bits, rtol=1e-6, atol=1e-6)

    def test_violation_agrees(self):
        rng = np.random.default_rng(43)
        for _ in range(150):
            spec, trace = random_small_instance(rng)
            plan = self._ascending_plan(rng, spec)
            alpha = float(rng.choice(list(trace.capacities) + [0.0]))
            assert exist_violation(trace, alpha, spec, plan) == reference_violation(
                trace, alpha, spec, plan
            )

    def test_determinism(self):
        rng = np.random.default_rng(44)
        spec, trace = random_small_instance(rng)
        plan = QualityPlan.uniform(spec, 1)
        a = evaluate(trace, 0.0, spec, plan, a=1.0, strict=False)
        b = evaluate(trace, 0.0, spec, plan, a=1.0, strict=False)
        assert a == b
