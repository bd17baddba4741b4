"""Acceptance gate: seven end-to-end criteria with pinned tolerances and
runtime caps. Each test is marked with its criterion number; a PASS/FAIL
line per criterion is printed in the terminal summary (see conftest)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import abrplan as ap
from abrplan import (
    CapacityTrace,
    QualityLevel,
    QualityPlan,
    VideoSpec,
)
from abrplan.cli import main as cli_main
from abrplan.sim import _trajectory_from_counts, deadline_check

from reference import random_small_instance

A_SWEEP = (0.5, 4.5, 4.6, 4.7, 10.0)
N_TABLE_INSTANCES = 30

_cache: dict = {}


def table_instances():
    """30 seeded stock instances with their full threshold enumerations.

    Built once and shared: criterion 5 reads invest results out of the same
    candidate sets criterion 4 uses for the benchmark comparison.
    """
    if "enums" not in _cache:
        spec = ap.default_video_spec()
        out = []
        for seed in range(N_TABLE_INSTANCES):
            trace = ap.generate_synthetic(ap.default_trace_config(seed))
            candidates, _ = ap.enumerate_candidates(trace, spec)
            out.append((trace, candidates))
        _cache["enums"] = out
    return _cache["enums"]


@pytest.mark.criterion(1)
def test_criterion_1_worked_quality_example():
    """The two-level quality example reproduces exactly, in under 1 ms."""
    w_lo, w_hi = 0.5, 1.0
    spec = VideoSpec(
        n_segments=4,
        frames_per_segment=1,
        frame_rate=1.0,
        levels=(QualityLevel(3000e3, w_lo), QualityLevel(6000e3, w_hi)),
        prefetch_frames=1,
    )
    all_high = QualityPlan((2, 2, 2, 2))
    split = QualityPlan((1, 1, 2, 2))
    ap.compute_quality(spec, all_high)  # warm-up outside the timed region
    t0 = time.perf_counter()
    rho_high = ap.compute_quality(spec, all_high)
    rho_split = ap.compute_quality(spec, split)
    elapsed = time.perf_counter() - t0
    assert rho_high == w_hi * 1.0
    assert rho_split == 0.5 * w_lo + 0.5 * w_hi
    assert elapsed < 1e-3


@pytest.mark.criterion(2)
def test_criterion_2_structural_properties():
    """>= 1000 randomized structural checks in under 30 s: threshold form,
    active-set shrinkage, ascending plans, bit conservation, stall
    detection consistency, determinism."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = 0
    for i in range(1000):
        spec, trace = random_small_instance(rng)
        alpha = float(rng.choice(list(trace.capacities) + [0.0]))
        sched = ap.make_threshold_schedule(trace, alpha)
        assert all(r in (0.0, c) for r, c in zip(sched.as_array.tolist(), trace.capacities))
        higher = ap.make_threshold_schedule(trace, alpha * 1.5 + 0.1)
        assert set(np.flatnonzero(higher.as_array)) <= set(np.flatnonzero(sched.as_array))

        fit = ap.fit_ascending_levels(trace, alpha, spec)
        levels = np.asarray(fit.plan.segment_levels)
        cache = spec.cache_segments
        assert np.all(levels[:cache] == 1) and np.all(np.diff(levels[cache:]) >= 0)

        dt = trace.slot_duration
        tx = ap.transmit_video(trace, sched, spec, fit.plan)
        delivered = int(tx.frames_at_boundary[-1])
        cost_sum = sum(
            spec.frame_bits(fit.plan.segment_levels[f // spec.frames_per_segment])
            for f in range(delivered)
        )
        sent = float(tx.bits_used_per_slot.sum())
        assert sent >= cost_sum - 1e-9
        if delivered >= spec.total_frames:
            assert abs(sent - cost_sum) < 1e-6

        u = tx.frames_at_boundary.astype(float)
        traj = _trajectory_from_counts(u, spec, dt)
        assert np.all(u >= traj.watched - 1e-9)
        if traj.startup_checkpoint is not None:
            ramp = np.clip(
                (np.arange(u.shape[0]) - traj.startup_checkpoint)
                * spec.frame_rate
                * dt,
                0.0,
                float(spec.total_frames),
            )
            on_ramp = bool(np.all(np.abs(traj.watched - ramp) < 1e-9))
            assert (len(traj.stall_events) == 0) == on_ramp

        if i % 10 == 0:
            again = ap.transmit_video(trace, ap.make_threshold_schedule(trace, alpha), spec, fit.plan)
            assert np.array_equal(again.bits_used_per_slot, tx.bits_used_per_slot)
            assert (deadline_check(again.frames_at_boundary, spec, dt) is None) == (
                deadline_check(tx.frames_at_boundary, spec, dt) is None
            )
        cases += 1
    elapsed = time.perf_counter() - t0
    assert cases >= 1000
    assert elapsed < 30.0


@pytest.mark.criterion(3)
def test_criterion_3_oracle_equivalence():
    """100 seeded small instances: heuristic feasibility implies oracle
    feasibility, oracle quality dominates, mean quality ratio >= 0.95."""
    t0 = time.perf_counter()
    ratios = []
    for s in range(100):
        rng = np.random.default_rng(1000 + s)
        n = int(rng.integers(3, 9))
        n_levels = int(rng.integers(2, 4))
        b = float(rng.uniform(2.0, 4.0))
        bitrates = [b]
        for _ in range(n_levels - 1):
            b *= float(rng.uniform(1.4, 2.2))
            bitrates.append(b)
        weights = [b / max(bitrates) for b in bitrates]
        spec = VideoSpec(
            n_segments=n,
            frames_per_segment=4,
            frame_rate=4.0,
            levels=tuple(QualityLevel(br, w) for br, w in zip(bitrates, weights)),
            prefetch_frames=4,
        )
        mean = bitrates[0] * float(rng.uniform(1.2, 2.5))
        caps = rng.uniform(0.5 * mean, 1.5 * mean, 12)
        trace = CapacityTrace(1.0, tuple(caps.tolist()))
        alphas = sorted(set(trace.capacities))
        alpha = float(alphas[int(rng.integers(0, len(alphas)))])

        fit = ap.fit_ascending_levels(trace, alpha, spec)
        oracle = ap.exhaustive_best_plan(trace, alpha, spec, a=0.0)
        if fit.feasible:
            assert oracle is not None  # heuristic feasible => oracle feasible
            heur_rho = ap.compute_quality(spec, fit.plan)
            assert oracle.outcome.quality >= heur_rho - 1e-12
            ratios.append(heur_rho / oracle.outcome.quality)
    elapsed = time.perf_counter() - t0
    assert len(ratios) >= 30  # enough feasible instances to mean over
    assert float(np.mean(ratios)) >= 0.95
    assert elapsed < 120.0


@pytest.mark.criterion(4)
def test_criterion_4_benchmark_dominance_and_threshold_trend():
    """30 stock instances: planner cost never exceeds the minimum-threshold
    benchmark for every a in the sweep, and the chosen threshold is
    non-increasing in a."""
    t0 = time.perf_counter()
    for trace, candidates in table_instances():
        assert candidates, "every stock instance must be feasible"
        bench = candidates[0]
        assert bench.alpha == min(trace.capacities)
        prev_alpha = None
        for a in A_SWEEP:
            best = ap.select_candidate(candidates, a)
            cost = best.sigma - a * best.rho
            bench_cost = bench.sigma - a * bench.rho
            assert cost <= bench_cost + 1e-12
            if prev_alpha is not None:
                assert best.alpha <= prev_alpha + 1e-12
            prev_alpha = best.alpha
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0


@pytest.mark.criterion(5)
def test_criterion_5_quantum_ladder_accuracy():
    """Coarse threshold ladders (1-5 Mbit per step) stay within 16% of the
    full-enumeration objective on the 30 stock instances."""
    t0 = time.perf_counter()
    a = 4.5
    worst = 0.0
    for trace, candidates in table_instances():
        opt = ap.select_candidate(candidates, a)
        opt_cost = opt.sigma - a * opt.rho
        by_alpha = {c.alpha: c for c in candidates}
        for q_mbit in (1, 2, 3, 4, 5):
            ladder = ap.invest_threshold_candidates(trace, q_mbit * 1e6)
            # ladder rungs are capacity values; the feasible ones are exactly
            # the rungs present in the full enumeration (same fit, same
            # stop rule, and all-level-1 feasibility is monotone in alpha)
            subset = [by_alpha[alpha] for alpha in ladder if alpha in by_alpha]
            assert subset, "the minimum-capacity rung is always feasible"
            inv = ap.select_candidate(subset, a)
            inv_cost = inv.sigma - a * inv.rho
            deviation = abs(inv_cost - opt_cost) / abs(opt_cost)
            worst = max(worst, deviation)
            assert deviation <= 0.16
    # spot-check the subset construction against the planner entry point
    trace, candidates = table_instances()[0]
    direct = ap.plan_session(trace, ap.default_video_spec(), a, quantum_bits=2e6)
    ladder = ap.invest_threshold_candidates(trace, 2e6)
    by_alpha = {c.alpha: c for c in candidates}
    expected = ap.select_candidate([by_alpha[x] for x in ladder if x in by_alpha], a)
    assert direct.alpha_th == expected.alpha
    assert direct.outcome.cost == pytest.approx(expected.sigma - a * expected.rho)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0


@pytest.mark.criterion(6)
def test_criterion_6_stall_study():
    """On a capacity-rich seeded instance, forcing one stall improves the
    objective somewhere at low a but nowhere at high a."""
    t0 = time.perf_counter()
    spec = replace(ap.default_video_spec(), n_segments=40)
    trace = ap.generate_synthetic(
        ap.SyntheticTraceConfig(mean_bps=4e6, window_slots=45, seed=0)
    )
    results = {}
    for a in (0.5, 10.0):
        base = ap.plan_session(trace, spec, a)
        improving = []
        for seg in range(2, spec.n_segments + 1):
            try:
                split = ap.plan_with_stalls(trace, spec, a, (seg,))
            except ap.AbrPlanError:
                continue
            if split.cost < base.outcome.cost - 1e-12:
                improving.append(seg)
        results[a] = improving
    assert len(results[0.5]) >= 1, "low a: at least one stall position must improve"
    assert results[10.0] == [], "high a: no stall position may improve"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0


@pytest.mark.criterion(7)
def test_criterion_7_robustness_pipeline(tmp_path, capsys):
    """Substituted criterion: the external drive-test dataset is not
    shipped, so instead the robustness pipeline must complete on 20
    synthetic realizations with an exact error formula and a finite mean
    error, and the CLI must emit the versioned report schema."""
    t0 = time.perf_counter()
    # the error formula itself, exactly
    rng = np.random.default_rng(7)
    for _ in range(100):
        real, mean = rng.uniform(0.1, 2.0, 2)
        expected = abs((real - mean) / mean)
        assert ap.relative_performance_error(real, mean) == expected
    assert math.isnan(ap.relative_performance_error(1.0, 0.0))

    spec = ap.default_video_spec()
    realizations = [
        ap.generate_synthetic(ap.default_trace_config(seed)) for seed in range(20)
    ]
    base = ap.mean_trace(realizations)
    result = ap.plan_session(base, spec, 4.5)
    errors_sigma, errors_rho, flagged = [], [], 0
    for real in realizations:
        try:
            out = ap.evaluate(real, result.alpha_th, spec, result.plan, 4.5, strict=False)
        except ap.AbrPlanError:
            flagged += 1
            continue
        errors_sigma.append(
            ap.relative_performance_error(out.utilization, result.outcome.utilization)
        )
        errors_rho.append(
            ap.relative_performance_error(out.quality, result.outcome.quality)
        )
    assert len(errors_sigma) + flagged == 20
    assert errors_sigma, "at least one realization must evaluate"
    mean_sigma = float(np.mean(errors_sigma))
    mean_rho = float(np.mean(errors_rho))
    assert math.isfinite(mean_sigma) and math.isfinite(mean_rho)
    print(
        f"robustness over 20 realizations: mean P_error sigma={mean_sigma:.4f} "
        f"rho={mean_rho:.4f} ({flagged} flagged)"
    )

    # same pipeline through the CLI, emitting the versioned schema
    trace_dir = tmp_path / "realizations"
    trace_dir.mkdir()
    for seed, real in enumerate(realizations):
        ap.save_trace(real, trace_dir / f"seed{seed:02d}.csv")
    out_csv = tmp_path / "robustness.csv"
    cli = CliRunner().invoke(
        cli_main,
        ["robustness", "--trace-dir", str(trace_dir), "--a", "4.5", "--out", str(out_csv)],
    )
    assert cli.exit_code == 0, cli.output
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "# schema: abrplan.robustness/1"
    assert len(lines) == 2 + 20
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
