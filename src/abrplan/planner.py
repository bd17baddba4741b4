"""Transmission-threshold and quality-level planning.

Given a capacity window and a video, the planner searches threshold
candidates (either every distinct capacity value, or a coarser ladder that
abandons a fixed data quantum per step), fits the best ascending quality
plan to each threshold with a binary-search heuristic, and returns the
candidate minimizing utilization - a * quality.

An exhaustive tree search over all ascending plans is provided as a
desk-scale oracle for the heuristic, and a partitioning mode plans around
playback stalls at given segments.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import InfeasiblePartError, NoFeasibleSessionError, OracleBudgetError
from .model import (
    CapacityTrace,
    QualityPlan,
    SessionOutcome,
    VideoSpec,
    compute_cost,
    compute_quality,
    compute_utilization,
    make_threshold_schedule,
)
# exist_violation and evaluate stay importable from here: perfbench's tracer patches these names;
# the planner's transmits and extensions go through these names too, so that they can be counted
from .sim import (
    _EPS, _playback_ramp, _trajectory_from_counts, deadline_check, evaluate, exist_violation, extend_arrivals,
    meets_deadlines, session_length, transmit_video,
)


@dataclass(frozen=True)
class PlanResult:
    alpha_th: float
    plan: QualityPlan
    outcome: SessionOutcome
    candidates_evaluated: int
    benchmark: Candidate  # the minimum-threshold (greedy) candidate


@dataclass(frozen=True)
class Candidate:
    """One evaluated threshold: its fitted plan and a-independent scores.
    It keeps what it was evaluated on and simulates the full outcome again
    when that is first read, so that an enumeration holds no per-slot data
    for each threshold."""

    alpha: float
    plan: QualityPlan
    sigma: float
    rho: float
    evaluated_on: tuple = field(default=(), repr=False, compare=False)  # (trace, spec, a)

    @cached_property
    def outcome(self) -> SessionOutcome:
        """The simulated session, with its cost at the a it was evaluated for."""
        trace, spec, a = self.evaluated_on
        return evaluate(trace, self.alpha, spec, self.plan, a=a)


def invest_threshold(trace: CapacityTrace, step_index: int, quantum_bits: float) -> float:
    """Threshold after abandoning ~``step_index * quantum_bits`` of volume.

    Sorts the per-slot capacities ascending, cumulative-sums their bit
    volumes, and returns the capacity at the largest index whose cumulative
    volume stays within the budget; the smallest capacity when even the
    first slot exceeds it.
    """
    if step_index < 1:
        raise ValueError("step_index must be >= 1")
    if not 0 < quantum_bits < math.inf:  # also rejects nan
        raise ValueError(f"quantum_bits must be positive and finite, got {quantum_bits}")
    sorted_c = np.sort(trace.as_array)
    cum = np.cumsum(sorted_c * trace.slot_duration)
    ind = int(np.searchsorted(cum, step_index * quantum_bits, side="right")) - 1
    return float(sorted_c[max(ind, 0)])


def optimal_threshold_candidates(trace: CapacityTrace) -> list[float]:
    """All distinct capacity values, ascending."""
    return np.unique(trace.as_array).tolist()


def invest_threshold_candidates(trace: CapacityTrace, quantum_bits: float) -> list[float]:
    """The candidate ladder the variable-footstep mode walks: the minimum
    capacity, ``invest_threshold`` at each step i >= 2 while i - 1 quanta
    stay below the total volume, and the maximum capacity, ascending and
    without duplicates. Steps between the same two cumulative volumes
    share one threshold, so only the first step that reaches each volume
    matters: sorted slot m is a rung iff that step is walked and stays
    below volume m + 1."""
    if not 0 < quantum_bits < math.inf:  # also rejects nan
        raise ValueError(f"quantum_bits must be positive and finite, got {quantum_bits}")
    sorted_c = np.sort(trace.as_array)
    cum = np.cumsum(sorted_c * trace.slot_duration)
    total = float(np.sum(trace.as_array) * trace.slot_duration)
    if total / quantum_bits >= 2**53:  # steps past float precision: the limit has every capacity
        return optimal_threshold_candidates(trace)
    with np.errstate(over="ignore"):  # i·Q is inf near the float maximum, as in Python floats
        # the first step i >= 2 whose budget i·Q reaches each volume; below
        # 2**53 steps the rounded quotient is within 2 of it
        i = np.maximum(2.0, np.ceil(cum / quantum_bits) - 2)
        while (short := i * quantum_bits < cum).any():
            i += short
        rung = ((i[:-1] - 1) * quantum_bits < total) & (i[:-1] * quantum_bits < cum[1:])
    return np.unique(np.concatenate((sorted_c[:1], sorted_c[:-1][rung], sorted_c[-1:]))).tolist()


@dataclass(frozen=True)
class LevelFit:
    feasible: bool
    plan: QualityPlan
    lookups: int = 0  # probes answered from the frame deadlines instead of simulated


def _suffix_lookup(due, curve, cost: float):
    """``fits(u, f)``: whether a run of frames f.. at ``cost`` a frame, started
    in the slot after arrivals u reach f, has ``due[i]`` frames by each slot
    boundary i where more than f are due (see ``deadline_check``); ``due``
    is the same for every feasible plan at every threshold of the window."""
    # latest[i] + f * cost: the furthest start that keeps up from boundary i on
    latest = np.minimum.accumulate((curve - due * cost)[::-1])[::-1]

    def fits(u, first: int) -> bool:
        k = int(u.searchsorted(first))  # slot the run starts in
        deadline = int(due.searchsorted(first, side="right"))  # of frame ``first``
        return k < len(curve) - 1 and curve[k] <= latest[deadline] + first * cost + _EPS * cost

    return fits


def fit_ascending_levels(
    trace: CapacityTrace,
    alpha: float,
    spec: VideoSpec,
    *,
    due: Optional[np.ndarray] = None,
) -> LevelFit:
    """Heuristic quality assignment for a fixed threshold.

    Starts with every segment at level 1 and, for each higher level in
    turn, binary-searches a segment from which that level can run to the
    end of the video without a stall. Feasibility is not monotone in that
    segment, so the start found need not be the earliest: it is feasible,
    and the segment before it is infeasible or is the search's lower bound
    (the previous level's start, or the end of the cache). Cache segments
    stay at level 1. Infeasible means even the all-level-1 session stalls.

    A probe at segment ``mid`` (the current plan below it, level s from it
    on) is one lookup: the current plan is feasible, so the probe is
    feasible iff its level-s run meets its frames' deadlines. The fit
    transmits only the all-level-1 plan. After each placement it extends
    the arrivals by one run step (``extend_arrivals``), and its verdict is
    ``meets_deadlines`` on the last arrivals.

    The due frames come from ``deadline_check`` on the all-level-1
    arrivals, or are given as ``due``: they are the same at every threshold
    of the window, so a caller that has them from one threshold passes
    them, and the fit then checks the all-level-1 arrivals with
    ``meets_deadlines`` too.
    """
    n, fps, dt = spec.n_segments, spec.frames_per_segment, trace.slot_duration
    schedule = make_threshold_schedule(trace, alpha)
    plan = QualityPlan.uniform(spec, 1)
    u = transmit_video(trace, schedule, spec, plan).frames_at_boundary
    if due is None:
        if (session := deadline_check(u, spec, dt)) is None:
            return LevelFit(False, plan)
        due = session[1]
    elif not meets_deadlines(u, due):
        return LevelFit(False, plan)
    lookups = 0
    for s in range(2, spec.n_levels + 1):
        fits = _suffix_lookup(due, schedule.cumulative, spec.frame_bits(s) / dt)
        lo = max(plan.runs[-1][0], spec.cache_segments)
        best = n  # sentinel: do not place level s
        hi = n - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            lookups += 1
            if fits(u, mid * fps):
                best = mid
                hi = mid - 1
            else:
                lo = mid + 1
        if best == n:
            break  # level s placed nowhere; heavier levels cannot fit either
        plan = QualityPlan.from_runs(plan.runs + ((best, s),), n)
        u = extend_arrivals(trace, schedule, spec, u, best * fps, s)  # what the next level's probes extend
    return LevelFit(meets_deadlines(u, due), plan, lookups)


def _feasible_length(u: np.ndarray, spec: VideoSpec, dt: float) -> float:
    """``evaluate``'s session length for feasible arrivals u: no stall, and
    start-up at the first boundary holding the prefetch frames, which every
    feasible plan at every threshold of the window shares."""
    return session_length(spec, _playback_ramp(u, spec, dt)[0] * dt, ())


def enumerate_candidates(
    trace: CapacityTrace,
    spec: VideoSpec,
    quantum_bits: Optional[float] = None,
) -> tuple[list[Candidate], int]:
    """Walk the threshold ladder from the bottom, fitting a plan to each
    candidate and scoring it from one transmit, stopping at the first
    threshold where even the lowest quality stalls. The ladder is every
    distinct capacity, or with ``quantum_bits`` the variable-footstep
    ladder that abandons that many bits per step. Returns the feasible
    candidates (ascending threshold) and the number of thresholds examined.

    The window's due frames and session length come once, from the
    all-level-1 plan at the lowest threshold: every feasible plan at every
    threshold starts playback in the same slot, so each fit is checked
    against the one ``due`` and each candidate scored over the one length."""
    if spec.total_frames / spec.frame_rate > trace.window_length:
        raise NoFeasibleSessionError(
            "capacity window is shorter than the video playback time"
        )
    if quantum_bits is None:
        alphas = optimal_threshold_candidates(trace)
    else:
        alphas = invest_threshold_candidates(trace, quantum_bits)
    dt = trace.slot_duration
    u = transmit_video(trace, make_threshold_schedule(trace, alphas[0]), spec, QualityPlan.uniform(spec, 1)).frames_at_boundary
    if (session := deadline_check(u, spec, dt)) is None:
        return [], 1  # the lowest threshold's all-level-1 plan stalls
    due, length = session[1], _feasible_length(u, spec, dt)
    out: list[Candidate] = []
    examined = 0
    for alpha in alphas:
        examined += 1
        fit = fit_ascending_levels(trace, alpha, spec, due=due)
        if not fit.feasible:
            break
        # the fit keeps no arrays, so the schedule is built again: about 8-9 µs a
        # threshold, 4% of a stock-plan op; handing it over waits for perfbench
        # to stop holding every op's report (ROADMAP, Known defect 3)
        tx = transmit_video(trace, make_threshold_schedule(trace, alpha), spec, fit.plan)
        sigma = compute_utilization(trace, tx.bits_used_per_slot, length)
        out.append(Candidate(alpha, fit.plan, sigma, compute_quality(spec, fit.plan), (trace, spec, 0.0)))
    return out, examined


def select_candidate(candidates: Sequence[Candidate], a: float) -> Candidate:
    """Argmin of utilization - a * quality; ties go to the smaller
    threshold, then the lexicographically smaller plan."""
    if not candidates:
        raise NoFeasibleSessionError("no feasible threshold candidate")
    best = None
    best_cost = None
    # candidates arrive in ascending-threshold order, so keeping the first
    # strict minimum realizes the smaller-threshold tie-break
    for cand in candidates:
        cost = compute_cost(cand.sigma, cand.rho, a)
        if best is None or cost < best_cost:
            best = cand
            best_cost = cost
    return best


def plan_session(
    trace: CapacityTrace,
    spec: VideoSpec,
    a: float,
    quantum_bits: Optional[float] = None,
) -> PlanResult:
    """End-to-end planning: enumerate thresholds, fit plans, pick the
    cost-minimizing candidate. Raises NoFeasibleSessionError when even the
    lowest-quality session at the minimum capacity threshold stalls."""
    candidates, examined = enumerate_candidates(trace, spec, quantum_bits)
    best = select_candidate(candidates, a)
    return PlanResult(
        alpha_th=best.alpha,
        plan=best.plan,
        outcome=evaluate(trace, best.alpha, spec, best.plan, a=a),
        candidates_evaluated=examined,
        benchmark=candidates[0],
    )


@dataclass(frozen=True)
class OracleResult(Candidate):
    """The oracle's best plan, scored and simulated on read as a
    ``Candidate`` is, with the cost of its ``outcome`` at the oracle's a."""

    nodes_visited: int = 0


def exhaustive_best_plan(
    trace: CapacityTrace,
    alpha: float,
    spec: VideoSpec,
    a: float,
    max_nodes: int = 2_000_000,
) -> Optional[OracleResult]:
    """Exhaustive search over ascending plans at a fixed threshold.

    Depth-first over level choices per segment (cache segments pinned at
    level 1, children never below their parent), pruning any prefix whose
    cheapest completion already stalls. Returns the feasible plan with
    maximal quality (ties: lower utilization, then lexicographically
    smaller plan), or None when nothing is feasible. With ``free`` segments
    after the cache, the instance is refused outright when (L+1)^free exceeds
    ``max_nodes``; else the search keeps to the budget, as it visits at most
    the C(free+L, L) - 1 < (L+1)^free ascending prefixes.

    A node keeps or raises its parent's level from its segment on. Kept,
    it is the parent's plan, which is feasible; raised, it is feasible iff
    one lookup on the parent's arrivals says so, as in the level fit. Only
    a raising node with children, and a leaf that may win, is transmitted.
    Feasible plans all start playback in one slot: one session length.
    """
    n, L = spec.n_segments, spec.n_levels
    n_free = n - spec.cache_segments
    if (L + 1) ** n_free > max_nodes:
        raise OracleBudgetError(
            f"(L+1)^segments = {(L + 1) ** n_free} exceeds the {max_nodes} node budget"
        )
    fps, dt = spec.frames_per_segment, trace.slot_duration
    schedule = make_threshold_schedule(trace, alpha)
    lowest = QualityPlan.uniform(spec, 1)
    if (session := deadline_check(transmit_video(trace, schedule, spec, lowest).frames_at_boundary, spec, dt)) is None:
        return None  # every plan is as heavy as all level 1 or heavier, and switches more
    u0, due = session
    fits = {s: _suffix_lookup(due, schedule.cumulative, spec.frame_bits(s) / dt) for s in range(2, L + 1)}
    length = _feasible_length(u0, spec, dt)
    best = None  # (rho, sigma, plan) of the best plan so far
    nodes = 0

    def consider(plan: QualityPlan) -> None:
        nonlocal best
        rho = compute_quality(spec, plan)
        if best is not None and rho < best[0]:
            return  # cannot win: skip its transmit
        sigma = compute_utilization(trace, transmit_video(trace, schedule, spec, plan).bits_used_per_slot, length)
        if best is None or (-rho, sigma) < (-best[0], best[1]) or (
            (rho, sigma) == best[:2] and plan.segment_levels < best[2].segment_levels
        ):
            best = rho, sigma, plan

    def dfs(plan: QualityPlan, u, pos: int) -> None:
        # plan: the node's prefix below segment pos, its last run (at the
        # node's level) run on to the end; u: that plan's arrivals
        nonlocal nodes
        level = plan.runs[-1][1]
        for lvl in range(level, L + 1):
            nodes += 1
            if lvl > level and not fits[lvl](u, pos * fps):
                break  # heavier fills only cost more: prune this level and above
            child = plan if lvl == level else QualityPlan.from_runs(plan.runs + ((pos, lvl),), n)
            if pos == n - 1:
                consider(child)
            else:
                dfs(child, u if child is plan else transmit_video(trace, schedule, spec, child).frames_at_boundary, pos + 1)

    if n_free == 0:
        consider(lowest)
    else:
        dfs(lowest, u0, spec.cache_segments)
    if best is None:
        return None
    rho, sigma, plan = best
    return OracleResult(alpha, plan, sigma, rho, (trace, spec, a), nodes)


def detect_stall_segments(trace: CapacityTrace, spec: VideoSpec, k: int) -> tuple[int, ...]:
    """Segments where stalls occur under lowest quality at full
    utilization (threshold 0, i.e. greedy transmission)."""
    tx = transmit_video(trace, make_threshold_schedule(trace, 0.0), spec, QualityPlan.uniform(spec, 1))
    traj = _trajectory_from_counts(tx.frames_at_boundary.astype(float), spec, trace.slot_duration)
    cuts = []
    for cp, _ in traj.stall_events[:k]:
        seg = int(traj.watched[cp] // spec.frames_per_segment) + 1
        seg = max(2, min(seg, spec.n_segments))
        if not cuts or seg > cuts[-1]:
            cuts.append(seg)
    if len(cuts) < k:
        raise NoFeasibleSessionError(
            f"only {len(cuts)} natural stall positions found, {k} requested"
        )
    return tuple(cuts)


@dataclass(frozen=True)
class PartitionedPlan:
    """A session planned as independent parts around tolerated stalls."""

    parts: tuple[PlanResult, ...]
    cut_segments: tuple[int, ...]
    part_start_slots: tuple[int, ...]
    utilization: float
    quality: float
    cost: float
    session_length: float


def plan_with_stalls(
    trace: CapacityTrace,
    spec: VideoSpec,
    a: float,
    cuts: Sequence[int],
    quantum_bits: Optional[float] = None,
) -> PartitionedPlan:
    """Split the video before each of the 1-based ``cuts`` segments into
    independent sessions, plan each on its remaining capacity window, and
    rescore utilization, quality and cost over the whole (longer) session.
    ``detect_stall_segments`` gives the cuts where the stalls fall naturally.

    Each later part re-buffers from empty before resuming, mirroring the
    start-up rule, so its start-up delay is the stall duration.
    """
    cuts = tuple(int(s) for s in cuts)
    if any(y <= x for x, y in zip(cuts, cuts[1:])):
        raise ValueError("cut segments must be strictly increasing")
    if cuts and (cuts[0] < 2 or cuts[-1] > spec.n_segments):
        raise ValueError("cut segments must lie in [2, n_segments]")
    bounds = (1, *cuts, spec.n_segments + 1)
    parts: list[PlanResult] = []
    starts: list[int] = []
    all_bits = np.zeros(trace.n_slots)
    all_levels: list[int] = []
    offset = 0
    total_length = 0.0
    for idx, (seg_lo, seg_hi) in enumerate(zip(bounds, bounds[1:])):
        n_seg = seg_hi - seg_lo
        part_spec = dataclasses.replace(
            spec,
            n_segments=n_seg,
            prefetch_frames=min(spec.prefetch_frames, n_seg * spec.frames_per_segment),
        )
        if offset >= trace.n_slots:
            raise InfeasiblePartError(idx, f"no capacity window left for part {idx}")
        part_trace = trace.tail(offset)
        try:
            result = plan_session(part_trace, part_spec, a, quantum_bits)
        except NoFeasibleSessionError as exc:
            raise InfeasiblePartError(idx, f"part {idx} (segments {seg_lo}..{seg_hi - 1}): {exc}") from exc
        parts.append(result)
        starts.append(offset)
        bits = np.asarray(result.outcome.bits_used_per_slot)
        all_bits[offset : offset + bits.shape[0]] += bits
        all_levels.extend(result.plan.segment_levels)
        length = session_length(
            part_spec, result.outcome.startup_slot * trace.slot_duration, result.outcome.stall_events
        )
        total_length += length
        offset += int(np.ceil(length / trace.slot_duration - 1e-9))
    sigma = compute_utilization(trace, all_bits, total_length)
    # concatenated part plans restart at level 1, so they are not globally
    # ascending; quality only depends on level multiplicities
    rho = compute_quality(spec, QualityPlan(tuple(all_levels)))
    return PartitionedPlan(
        parts=tuple(parts),
        cut_segments=cuts,
        part_start_slots=tuple(starts),
        utilization=sigma,
        quality=rho,
        cost=compute_cost(sigma, rho, a),
        session_length=total_length,
    )


def relative_performance_error(perf_real: float, perf_mean: float) -> float:
    """|(real - mean) / mean|; NaN flags an undefined (zero-mean) case."""
    if perf_mean == 0:
        return float("nan")
    return abs((perf_real - perf_mean) / perf_mean)
