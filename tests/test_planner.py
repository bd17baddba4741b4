"""Planner tests: threshold ladders, the ascending-level heuristic, the
exhaustive oracle, and stall partitioning."""

import json
import math
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

from abrplan import planner
from abrplan import (
    AbrPlanError,
    CapacityTrace,
    InfeasiblePartError,
    NoFeasibleSessionError,
    OracleBudgetError,
    QualityLevel,
    QualityPlan,
    VideoSpec,
    compute_quality,
    default_trace_config,
    default_video_spec,
    enumerate_candidates,
    evaluate,
    exhaustive_best_plan,
    exist_violation,
    fit_ascending_levels,
    generate_synthetic,
    invest_threshold,
    invest_threshold_candidates,
    make_threshold_schedule,
    optimal_threshold_candidates,
    plan_session,
    plan_with_stalls,
    relative_performance_error,
    save_trace,
    select_candidate,
    transmit_video,
)
from abrplan.cli import main
from abrplan.sim import session_length

from reference import random_small_instance, reference_best_ascending_plan

M = 1e6


@contextmanager
def counted_cache_runs():
    """Count the planner's greedy cache runs (calls of ``_lowest_arrivals``)
    and the continuation steps taken on them (calls of what it returns)."""
    counts = {"cache_runs": 0, "steps": 0}
    build = planner._lowest_arrivals

    def counted(*args):
        counts["cache_runs"] += 1
        arrivals, cache = build(*args)

        def step(schedule):
            counts["steps"] += 1
            return arrivals(schedule)

        return step, cache

    with mock.patch.object(planner, "_lowest_arrivals", counted):
        yield counts


class TestInvestThreshold:
    TRACE = CapacityTrace(1.0, (2 * M, 1 * M, 3 * M, 4 * M))

    def test_hand_traced_steps(self):
        # sorted [1,2,3,4] Mbit volumes, cumsum [1,3,6,10]
        assert invest_threshold(self.TRACE, 1, 2 * M) == 1 * M
        assert invest_threshold(self.TRACE, 3, 2 * M) == 3 * M

    def test_abandon_everything(self):
        assert invest_threshold(self.TRACE, 5, 2 * M) == 4 * M

    def test_step_too_small(self):
        assert invest_threshold(self.TRACE, 1, 0.5 * M) == 1 * M

    def test_non_decreasing_in_step(self):
        prev = 0.0
        for i in range(1, 12):
            alpha = invest_threshold(self.TRACE, i, 1.3 * M)
            assert alpha >= prev
            prev = alpha

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            invest_threshold(self.TRACE, 0, 1 * M)
        with pytest.raises(ValueError):
            invest_threshold(self.TRACE, 1, 0.0)


class TestInvestConfig:
    """The invest ladder's one setting, its quantum, is checked before any step."""

    @pytest.mark.parametrize("quantum", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_positive_and_non_finite_quanta(self, quantum, toy_spec, toy_trace):
        with pytest.raises(ValueError, match="quantum_bits"):
            invest_threshold(TestInvestThreshold.TRACE, 1, quantum)
        with pytest.raises(ValueError, match="quantum_bits"):
            invest_threshold_candidates(TestInvestThreshold.TRACE, quantum)
        with pytest.raises(ValueError, match="quantum_bits"):
            enumerate_candidates(toy_trace, toy_spec, quantum_bits=quantum)

    def test_accepts_a_positive_finite_quantum(self):
        t = TestInvestThreshold.TRACE
        assert invest_threshold(t, 1, 1e-300) == 1 * M
        assert invest_threshold_candidates(t, 1e-300) == optimal_threshold_candidates(t)


class TestThresholdCandidates:
    def test_optimal_is_distinct_sorted(self):
        t = CapacityTrace(1.0, (2.0, 1.0, 2.0, 3.0))
        assert optimal_threshold_candidates(t) == [1.0, 2.0, 3.0]

    def test_constant_trace_single_candidate(self):
        t = CapacityTrace(1.0, (2.0, 2.0, 2.0))
        assert optimal_threshold_candidates(t) == [2.0]

    def test_cardinality_bound(self):
        rng = np.random.default_rng(0)
        t = CapacityTrace(1.0, tuple(rng.uniform(1, 3, 190).tolist()))
        assert len(optimal_threshold_candidates(t)) <= 190

    def test_invest_ladder_ascending_and_deduped(self):
        t = CapacityTrace(1.0, (2 * M, 1 * M, 3 * M, 4 * M))
        ladder = invest_threshold_candidates(t, 2 * M)
        assert ladder == sorted(set(ladder))
        assert ladder[0] == 1 * M
        assert ladder[-1] <= 4 * M
        # every rung is an actual capacity value
        assert set(ladder) <= set(t.capacities)

    def test_invest_ladder_subset_of_optimal(self):
        rng = np.random.default_rng(1)
        t = CapacityTrace(1.0, tuple(rng.uniform(1 * M, 3 * M, 30).tolist()))
        opt = set(optimal_threshold_candidates(t))
        for q in (1 * M, 2 * M, 5 * M):
            assert set(invest_threshold_candidates(t, q)) <= opt


    def test_invest_ladder_with_a_tiny_quantum(self):
        """The walk takes at most one step per slot, so a quantum of one bit
        on a 190-slot window finishes at once; below float precision the
        ladder is its limit, every distinct capacity."""
        rng = np.random.default_rng(2)
        t = CapacityTrace(1.0, tuple(rng.uniform(1 * M, 3 * M, 190).tolist()))
        opt = optimal_threshold_candidates(t)
        assert invest_threshold_candidates(t, 1.0) == opt
        assert invest_threshold_candidates(t, 1e-300) == opt


@pytest.mark.filterwarnings("error")
class TestInvestLadderExtremes:
    """The ladder at the ends of the float range, with warnings as errors."""

    TRACE = CapacityTrace(1.0, (3 * M, 1 * M, 2 * M, 2 * M, 5 * M))

    def test_a_huge_quantum_gives_min_and_max(self):
        # i·Q overflows to inf here, silently
        assert invest_threshold_candidates(self.TRACE, 1e308) == [1 * M, 5 * M]

    def test_an_all_zero_trace_has_one_rung(self):
        for q in (5e-324, 1.0, 1e308):
            assert invest_threshold_candidates(CapacityTrace(1.0, (0.0, 0.0, 0.0)), q) == [0.0]

    def test_the_smallest_quantum_gives_every_capacity(self):
        assert invest_threshold_candidates(self.TRACE, 5e-324) == [1 * M, 2 * M, 3 * M, 5 * M]


class TestFitAscendingLevels:
    def test_infeasible_when_even_level1_stalls(self, toy_spec):
        starved = CapacityTrace(1.0, (1.0, 1.0, 1.0, 1.0))
        fit = fit_ascending_levels(starved, 0.0, toy_spec)
        assert not fit.feasible

    def test_abundant_capacity_maxes_out(self, toy_spec):
        rich = CapacityTrace(1.0, (1000.0,) * 6)
        fit = fit_ascending_levels(rich, 0.0, toy_spec)
        assert fit.feasible
        assert fit.plan.segment_levels == (1, 2, 2, 2)

    def test_output_is_valid_and_feasible(self):
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(60):
            spec, trace = random_small_instance(rng)
            alpha = float(rng.choice(trace.capacities))
            fit = fit_ascending_levels(trace, alpha, spec)
            fit.plan.validate(spec)
            if fit.feasible:
                assert not exist_violation(trace, alpha, spec, fit.plan)
                hits += 1
        assert hits > 10

    def test_one_cache_run_per_fit(self):
        """The fit transmits no plan: it gets its all-level-1 arrivals from
        one greedy cache run and one continuation step on its schedule, and
        extends them by one run step after each level it places, counted
        through the planner's names as the layer benchmark counts them."""
        spec, trace = default_video_spec(), generate_synthetic(default_trace_config(0))
        with mock.patch.object(planner, "transmit_video", wraps=planner.transmit_video) as transmits, \
                mock.patch.object(planner, "extend_arrivals", wraps=planner.extend_arrivals) as extensions, \
                counted_cache_runs() as runs:
            fit = fit_ascending_levels(trace, min(trace.capacities), spec)
        assert fit.feasible and len(fit.plan.runs) > 2  # levels placed past the cache
        assert transmits.call_count == 0
        assert runs == {"cache_runs": 1, "steps": 1}
        assert extensions.call_count == fit.plan.runs[-1][1] - 1  # one per level placed

    def test_one_schedule_per_threshold_examined(self):
        """The enumeration builds each threshold's schedule once, for its
        fit and its scoring transmit. It runs the window's greedy cache run
        once, for the window's deadlines, takes one continuation step for
        each threshold's all-level-1 arrivals, and transmits each
        candidate's fitted plan once."""
        spec, trace = default_video_spec(), generate_synthetic(default_trace_config(0))
        with mock.patch.object(planner, "make_threshold_schedule", wraps=planner.make_threshold_schedule) as builds, \
                mock.patch.object(planner, "transmit_video", wraps=planner.transmit_video) as transmits, \
                counted_cache_runs() as runs:
            candidates, examined = enumerate_candidates(trace, spec)
        assert examined > len(candidates) > 100
        assert [c.args[1] for c in builds.call_args_list] == planner.optimal_threshold_candidates(trace)[:examined]
        assert transmits.call_count == len(candidates)
        assert runs == {"cache_runs": 1, "steps": examined}


class TestCandidateSelection:
    def _candidates(self, toy_spec, toy_trace):
        cands, examined = enumerate_candidates(toy_trace, toy_spec)
        return cands, examined

    def test_enumeration_ascends_and_counts(self, toy_spec, toy_trace):
        cands, examined = self._candidates(toy_spec, toy_trace)
        alphas = [c.alpha for c in cands]
        assert alphas == sorted(alphas)
        assert examined >= len(cands)
        for c in cands:
            c.plan.validate(toy_spec)

    def test_a_zero_minimizes_utilization(self, toy_spec, toy_trace):
        cands, _ = self._candidates(toy_spec, toy_trace)
        best = select_candidate(cands, 0.0)
        assert best.sigma == min(c.sigma for c in cands)

    def test_tie_breaks_to_smaller_alpha(self):
        from abrplan.planner import Candidate

        def cand(alpha, sigma, rho):
            return Candidate(alpha, QualityPlan((1,)), sigma, rho)

        tied = [cand(1.0, 0.5, 0.5), cand(2.0, 0.5, 0.5)]
        assert select_candidate(tied, 1.0).alpha == 1.0

    def test_empty_candidates_raise(self):
        with pytest.raises(NoFeasibleSessionError):
            select_candidate([], 1.0)

    def test_enumeration_does_not_evaluate(self, monkeypatch):
        """Each threshold is scored from one transmit of its fitted plan;
        ``evaluate`` runs only when a candidate's outcome is read, and
        ``plan_session`` reads only the selected one's."""
        spec, trace = default_video_spec(), generate_synthetic(default_trace_config(0))

        def refuse(*args, **kwargs):
            raise AssertionError("enumerate_candidates called evaluate")

        monkeypatch.setattr(planner, "evaluate", refuse)
        cands, _ = enumerate_candidates(trace, spec)
        assert len(cands) > 1
        monkeypatch.setattr(planner, "evaluate", mock.Mock(wraps=evaluate))
        plan_session(trace, spec, 4.5)
        assert planner.evaluate.call_count == 1

    def test_window_shorter_than_video_raises(self, toy_spec):
        short = CapacityTrace(1.0, (100.0, 100.0))  # video plays 4 s
        with pytest.raises(NoFeasibleSessionError):
            enumerate_candidates(short, toy_spec)

    @pytest.mark.parametrize(
        "capacities, case",
        [((1.0,) * 6, "no start-up"), ((8.0, 0.0, 0.0, 0.0, 0.0, 0.0), "lowest stalls")],
    )
    def test_early_exits(self, toy_spec, capacities, case, tmp_path):
        """The two ways a window ends the search before a fit places a
        level: the cache run never reaches the prefetch frames, so the
        window has no deadlines; or it starts playback, but the all-level-1
        plan stalls at the lowest threshold. The 8-bit cache goes in slot 0
        of the second window, and nothing after it."""
        trace, alpha = CapacityTrace(1.0, capacities), min(capacities)
        window = planner._window(trace, toy_spec)
        if case == "no start-up":
            assert window is None
        else:
            assert not window.met_by(window.lowest_arrivals(planner.make_threshold_schedule(trace, alpha)))
        assert enumerate_candidates(trace, toy_spec) == ([], 1)
        assert fit_ascending_levels(trace, alpha, toy_spec).feasible is False
        assert exhaustive_best_plan(trace, alpha, toy_spec, 0.0) is None
        video, trace_csv = tmp_path / "video.json", tmp_path / "trace.csv"
        video.write_text(json.dumps({
            "n_segments": toy_spec.n_segments, "frames_per_segment": toy_spec.frames_per_segment,
            "frame_rate": toy_spec.frame_rate, "prefetch_frames": toy_spec.prefetch_frames,
            "levels": [{"bitrate_bps": lvl.bitrate_bps, "weight": lvl.weight} for lvl in toy_spec.levels],
        }))
        save_trace(trace, trace_csv)
        result = CliRunner().invoke(
            main, ["plan", "--video", str(video), "--trace", str(trace_csv), "--a", "1", "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and result.output.count("\n") == 1


# (trace, spec, level): a frame size that VideoSpec holds, whose cost in
# bits / dt is 0 or inf once divided by the window's slot duration
DEGENERATE_FRAME_COSTS = {
    "underflow": (CapacityTrace(2.0, (4e5,) * 6), VideoSpec(3, 1, 2.0, (QualityLevel(1e-323, 0.5), QualityLevel(4e5, 1.0)), 1), 1),
    "overflow": (CapacityTrace(0.5, (4e5,) * 12), VideoSpec(3, 1, 1.0, (QualityLevel(4e5, 0.5), QualityLevel(1e308, 1.0)), 1), 2),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_FRAME_COSTS))
def test_a_frame_cost_outside_the_float_range_is_refused(case):
    """5e-324 bits a frame over a 2 s slot is 0 bits / dt, and 1e308 bits
    over a 0.5 s slot is inf: the window's search and a transmit of a plan
    at that level each raise one AbrPlanError (CLI exit 4) before any
    numpy warning."""
    trace, spec, level = DEGENERATE_FRAME_COSTS[case]
    alpha = min(trace.capacities)
    plan = QualityPlan((1, 1, level))
    calls = {
        "enumerate_candidates": lambda: enumerate_candidates(trace, spec),
        "fit_ascending_levels": lambda: fit_ascending_levels(trace, alpha, spec),
        "exhaustive_best_plan": lambda: exhaustive_best_plan(trace, alpha, spec, 0.0),
        "transmit_video": lambda: transmit_video(trace, make_threshold_schedule(trace, alpha), spec, plan),
    }
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AbrPlanError, match=f"level {level}'s frame size") as caught:
                call()
        assert type(caught.value) is AbrPlanError and caught.value.exit_code == 4, name


class TestPlanSession:
    def test_deterministic(self, toy_spec, toy_trace):
        a = plan_session(toy_trace, toy_spec, 2.0)
        b = plan_session(toy_trace, toy_spec, 2.0)
        assert a == b

    def test_outcome_cost_matches_components(self, toy_spec, toy_trace):
        res = plan_session(toy_trace, toy_spec, 2.0)
        out = res.outcome
        assert out.cost == pytest.approx(out.utilization - 2.0 * out.quality)

    def test_large_a_maximizes_quality(self, toy_spec, toy_trace):
        res = plan_session(toy_trace, toy_spec, 100.0)
        cands, _ = enumerate_candidates(toy_trace, toy_spec)
        assert res.outcome.quality == max(c.rho for c in cands)

    def test_benchmark_dominance(self, toy_spec, toy_trace):
        for a in (0.0, 0.5, 2.0, 10.0):
            res = plan_session(toy_trace, toy_spec, a)
            cands, _ = enumerate_candidates(toy_trace, toy_spec)
            bench = cands[0]  # alpha = c_min benchmark
            assert res.outcome.cost <= bench.sigma - a * bench.rho + 1e-12

    def test_invest_mode_runs(self, toy_spec, toy_trace):
        res = plan_session(toy_trace, toy_spec, 2.0, quantum_bits=16.0)
        assert res.alpha_th in set(toy_trace.capacities)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outcome_is_the_evaluation_of_the_selection(self, seed):
        """The reported outcome is ``evaluate`` of the selected threshold and
        plan at the planning a, field for field."""
        spec, trace = default_video_spec(), generate_synthetic(default_trace_config(seed))
        res = plan_session(trace, spec, 4.5)
        assert res.outcome == evaluate(trace, res.alpha_th, spec, res.plan, 4.5)


class TestExhaustiveOracle:
    def test_single_level_video(self):
        spec = VideoSpec(3, 1, 1.0, (QualityLevel(8.0, 1.0),), 1)
        trace = CapacityTrace(1.0, (100.0, 100.0, 100.0, 100.0))
        res = exhaustive_best_plan(trace, 0.0, spec, a=1.0)
        assert res.plan.segment_levels == (1, 1, 1)

    def test_two_segment_unconstrained(self):
        spec = VideoSpec(2, 1, 1.0, (QualityLevel(8.0, 0.5), QualityLevel(16.0, 1.0)), 1)
        trace = CapacityTrace(1.0, (1000.0, 1000.0, 1000.0))
        res = exhaustive_best_plan(trace, 0.0, spec, a=1.0)
        assert res.plan.segment_levels == (1, 2)

    def test_infeasible_returns_none(self, toy_spec):
        starved = CapacityTrace(1.0, (1.0,) * 5)
        assert exhaustive_best_plan(starved, 0.0, toy_spec, a=1.0) is None

    def test_budget_guard(self):
        spec = VideoSpec(30, 1, 1.0, (QualityLevel(1.0, 0.5), QualityLevel(2.0, 1.0)), 1)
        trace = CapacityTrace(1.0, (10.0,) * 40)
        with pytest.raises(OracleBudgetError):
            exhaustive_best_plan(trace, 0.0, spec, a=1.0)

    def test_agrees_with_flat_enumeration(self):
        rng = np.random.default_rng(9)
        compared = 0
        for _ in range(40):
            spec, trace = random_small_instance(rng)
            alpha = float(rng.choice(trace.capacities))
            res = exhaustive_best_plan(trace, alpha, spec, a=0.0)
            ref = reference_best_ascending_plan(trace, alpha, spec, exist_violation)
            if ref is None:
                assert res is None
                continue
            assert res is not None
            assert res.outcome.quality == pytest.approx(ref[0])
            compared += 1
        assert compared > 10

    def test_dominates_heuristic(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            spec, trace = random_small_instance(rng)
            alpha = float(rng.choice(trace.capacities))
            fit = fit_ascending_levels(trace, alpha, spec)
            if not fit.feasible:
                continue
            res = exhaustive_best_plan(trace, alpha, spec, a=0.0)
            assert res is not None
            assert res.outcome.quality >= compute_quality(spec, fit.plan) - 1e-12


class TestPlanWithStalls:
    def test_k0_degenerates_to_plan_session(self, toy_spec, toy_trace):
        base = plan_session(toy_trace, toy_spec, 2.0)
        out = base.outcome
        length = session_length(toy_spec, out.startup_slot * toy_trace.slot_duration, out.stall_events)
        split = plan_with_stalls(toy_trace, toy_spec, 2.0, ())
        assert split.parts == (base,)
        assert (split.utilization, split.quality, split.cost) == (out.utilization, out.quality, out.cost)
        assert split.session_length == length
        assert split.cut_segments == ()
        assert split.part_start_slots == (0,)

    def test_infeasible_k0_is_part_0(self, toy_spec):
        starved = CapacityTrace(1.0, (1.0,) * 8)
        with pytest.raises(InfeasiblePartError) as err:
            plan_with_stalls(starved, toy_spec, 2.0, ())
        assert err.value.part_index == 0

    def test_partition_shape_and_quality(self, toy_spec):
        trace = CapacityTrace(1.0, (64.0,) * 12)
        split = plan_with_stalls(trace, toy_spec, 2.0, (3,))
        assert len(split.parts) == 2
        assert len(split.parts[0].plan.segment_levels) == 2
        assert len(split.parts[1].plan.segment_levels) == 2
        all_levels = tuple(
            lvl for part in split.parts for lvl in part.plan.segment_levels
        )
        assert split.quality == pytest.approx(compute_quality(toy_spec, QualityPlan(all_levels)))
        assert split.cost == pytest.approx(split.utilization - 2.0 * split.quality)
        assert split.part_start_slots[0] == 0
        assert split.part_start_slots[1] >= 1

    def test_infeasible_part_identified(self, toy_spec):
        # plenty for part 1, nothing left for part 2
        trace = CapacityTrace(1.0, (64.0, 64.0, 1.0, 1.0, 1.0, 1.0, 1.0))
        with pytest.raises(InfeasiblePartError) as err:
            plan_with_stalls(trace, toy_spec, 2.0, (3,))
        assert err.value.part_index == 1

    def test_cut_bounds_checked(self, toy_spec, toy_trace):
        with pytest.raises(ValueError):
            plan_with_stalls(toy_trace, toy_spec, 2.0, (1,))
        with pytest.raises(ValueError):
            plan_with_stalls(toy_trace, toy_spec, 2.0, (3, 2))


def test_relative_performance_error():
    assert relative_performance_error(1.0, 1.0) == 0.0
    assert relative_performance_error(1.15, 1.0) == pytest.approx(0.15)
    assert math.isnan(relative_performance_error(1.0, 0.0))
