"""Planner tests: threshold ladders, the ascending-level heuristic, the
exhaustive oracle, and stall partitioning."""

import math
from unittest import mock

import numpy as np
import pytest

from abrplan import planner
from abrplan import (
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
    detect_stall_segments,
    enumerate_candidates,
    evaluate,
    exhaustive_best_plan,
    exist_violation,
    fit_ascending_levels,
    generate_synthetic,
    invest_threshold,
    invest_threshold_candidates,
    optimal_threshold_candidates,
    plan_session,
    plan_with_stalls,
    relative_performance_error,
    select_candidate,
)
from abrplan.sim import session_length

from reference import random_small_instance, reference_best_ascending_plan

M = 1e6


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

    def test_one_transmit_per_fit(self):
        """The fit transmits its all-level-1 plan and extends its arrivals
        by one run step after each level it places, counted through the
        planner's names as the layer benchmark counts them."""
        spec, trace = default_video_spec(), generate_synthetic(default_trace_config(0))
        with mock.patch.object(planner, "transmit_video", wraps=planner.transmit_video) as transmits, \
                mock.patch.object(planner, "extend_arrivals", wraps=planner.extend_arrivals) as extensions:
            fit = fit_ascending_levels(trace, min(trace.capacities), spec)
        assert fit.feasible and len(fit.plan.runs) > 2  # levels placed past the cache
        assert transmits.call_count == 1
        assert extensions.call_count == fit.plan.runs[-1][1] - 1  # one per level placed


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

    def test_window_shorter_than_video_raises(self, toy_spec):
        short = CapacityTrace(1.0, (100.0, 100.0))  # video plays 4 s
        with pytest.raises(NoFeasibleSessionError):
            enumerate_candidates(short, toy_spec)


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


class TestStallPolicy:
    """Where the stall-tolerant planner cuts the video when it takes the
    natural stall positions."""

    def test_detect_stall_segments(self, toy_spec):
        # capacity dries up mid-session: lowest quality at full utilization stalls
        trace = CapacityTrace(1.0, (16.0, 0.0, 0.0, 0.0, 16.0, 16.0, 16.0, 16.0))
        cuts = detect_stall_segments(trace, toy_spec, 1)
        assert len(cuts) == 1
        assert 2 <= cuts[0] <= toy_spec.n_segments

    def test_detect_raises_when_no_stalls(self, toy_spec, toy_trace):
        with pytest.raises(NoFeasibleSessionError):
            detect_stall_segments(toy_trace, toy_spec, 1)


class TestPlanWithStalls:
    def test_k0_degenerates_to_plan_session(self, toy_spec, toy_trace):
        base = plan_session(toy_trace, toy_spec, 2.0)
        out = base.outcome
        length = session_length(toy_spec, out.startup_slot * toy_trace.slot_duration, out.stall_events)
        for cuts in ((), detect_stall_segments(toy_trace, toy_spec, 0)):
            split = plan_with_stalls(toy_trace, toy_spec, 2.0, cuts)
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
