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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InfeasiblePartError, NoFeasibleSessionError, OracleBudgetError
from .model import (
    CapacityTrace,
    QualityPlan,
    SessionOutcome,
    ThresholdSchedule,
    VideoSpec,
    compute_cost,
    compute_quality,
    compute_utilization,
    make_threshold_schedule,
)
# exist_violation and evaluate stay importable from here: perfbench's tracer patches these names;
# the planner's transmits, extensions and cache runs go through these names too, so that they can be counted;
# it calls no deadline_check, as a window's deadlines come from its cache run (_window)
from .sim import (
    _EPS, _deadlines, _frame_cost, _lowest_arrivals, evaluate, exist_violation, extend_arrivals, session_length,
    transmit_video,
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


@dataclass(frozen=True)
class _Window:
    """What every threshold of one window shares (see ``_window``): the
    all-level-1 plan's greedy cache run, whose ``lowest_arrivals(schedule)``
    are that plan's arrivals on a threshold's schedule, the due frames
    ``due`` and session ``length`` of every feasible plan, and, at index
    s - 1 for level s, a frame's cost in bits / dt and the bits the due
    frames take at that cost, which the lookups of every threshold read."""

    lowest_arrivals: Callable[[ThresholdSchedule], np.ndarray]
    due: np.ndarray
    at: np.ndarray  # per segment, the first slot boundary i with due[i] above its first frame
    length: float
    costs: tuple[float, ...]
    due_bits: tuple[np.ndarray, ...]  # due * cost

    def met_by(self, u: np.ndarray) -> bool:
        """Whether arrivals u never fall below the due frames: the stall
        check for any plan at any threshold of the window, and, as due ends
        at the whole video (frame counts a float holds), of delivery."""
        return not (u < self.due).any()


def _window(trace: CapacityTrace, spec: VideoSpec) -> Optional[_Window]:
    """The window's ``_Window``, read off its one greedy cache run, or None
    when playback cannot start, or cannot finish, within the window. The
    start-up and due are the same for every plan at every threshold of one
    window: the start-up checkpoint is where the arrivals reach the prefetch
    frames, inside the cache segments, which stay at level 1 and are sent
    greedily on the trace, not on the schedule (``sim._deadlines``).
    Raises AbrPlanError when a level's frame cost is 0 or inf in floats
    (``sim._frame_cost``)."""
    dt = trace.slot_duration
    costs = tuple(_frame_cost(spec, s, dt) for s in range(1, spec.n_levels + 1))
    lowest, cache = _lowest_arrivals(trace, spec)
    if (session := _deadlines(cache, spec, dt)) is None:
        return None
    startup, due = session
    at = due.searchsorted(np.arange(spec.n_segments) * spec.frames_per_segment, side="right")
    return _Window(lowest, due, at, session_length(spec, startup * dt, ()), costs, tuple(due * c for c in costs))


def _suffix_lookup(window: _Window, curve, level: int, fps: int):
    """``fits(u, f)``: whether a run of frames f.. at ``level``, started in
    the slot after arrivals u reach f, has ``window.due[i]`` frames by each
    slot boundary i where more than f are due (see ``deadline_check``). f
    starts a segment, and its deadline is read from ``window.at``, not
    searched for on each lookup."""
    at, cost = window.at, window.costs[level - 1]
    # latest[i] + f * cost: the furthest start that keeps up from boundary i on
    latest = np.minimum.accumulate((curve - window.due_bits[level - 1])[::-1])[::-1]
    n_slots, slack = len(curve) - 1, _EPS * cost

    def fits(u, first: int) -> bool:
        k = int(u.searchsorted(first))  # slot the run starts in
        return k < n_slots and curve[k] <= latest[at[first // fps]] + first * cost + slack

    return fits


def _fit_levels(trace: CapacityTrace, schedule: ThresholdSchedule, spec: VideoSpec, window: _Window) -> LevelFit:
    """``fit_ascending_levels`` on the threshold's ``schedule``, given the
    window's ``_Window``."""
    n, fps = spec.n_segments, spec.frames_per_segment
    plan = QualityPlan.uniform(spec, 1)
    u = window.lowest_arrivals(schedule)
    if not window.met_by(u):
        return LevelFit(False, plan)
    lookups = 0
    for s in range(2, spec.n_levels + 1):
        fits = _suffix_lookup(window, schedule.cumulative, s, fps)
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
    return LevelFit(window.met_by(u), plan, lookups)


def fit_ascending_levels(trace: CapacityTrace, alpha: float, spec: VideoSpec) -> LevelFit:
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
    transmits no plan: the all-level-1 plan's arrivals are the window's
    greedy cache run plus one run step on the schedule, and after each
    placement it extends the arrivals by one run step
    (``extend_arrivals``). Its verdict is the window's deadline check on
    the last arrivals.
    """
    schedule = make_threshold_schedule(trace, alpha)
    window = _window(trace, spec)
    if window is None:
        return LevelFit(False, QualityPlan.uniform(spec, 1))
    return _fit_levels(trace, schedule, spec, window)


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

    The window's shared value comes once, from its greedy cache run
    (``_window``): each threshold's all-level-1 arrivals are that cache run
    plus one run step on the threshold's schedule, each fit is checked
    against its deadlines, and each candidate is scored from one transmit
    of its plan over its session length."""
    if spec.total_frames / spec.frame_rate > trace.window_length:
        raise NoFeasibleSessionError(
            "capacity window is shorter than the video playback time"
        )
    if quantum_bits is None:
        alphas = optimal_threshold_candidates(trace)
    else:
        alphas = invest_threshold_candidates(trace, quantum_bits)
    window = _window(trace, spec)
    if window is None:
        return [], 1  # no plan plays out the video at the lowest threshold, nor at any other
    out: list[Candidate] = []
    examined = 0
    on = (trace, spec, 0.0)  # what every candidate was evaluated on
    for alpha in alphas:
        examined += 1
        schedule = make_threshold_schedule(trace, alpha)
        fit = _fit_levels(trace, schedule, spec, window)
        if not fit.feasible:
            break
        tx = transmit_video(trace, schedule, spec, fit.plan)
        sigma = compute_utilization(trace, tx.bits_used_per_slot, window.length)
        out.append(Candidate(alpha, fit.plan, sigma, compute_quality(spec, fit.plan), on))
    return out, examined


def select_candidate(candidates: Sequence[Candidate], a: float) -> Candidate:
    """Argmin of utilization - a * quality; a tie goes to the candidate
    first in list order, which in an enumeration's ascending order is the
    smaller threshold."""
    if not candidates:
        raise NoFeasibleSessionError("no feasible threshold candidate")
    best = None
    best_cost = None
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
    one lookup on the parent's arrivals says so, as in the level fit. The
    root's all-level-1 arrivals are the window's greedy cache run and one
    run step, checked by the window's one verdict as every threshold's are,
    so only a raising node with children, and a leaf that may win, is
    transmitted. Feasible plans all start playback in one slot: one session
    length. Each node carries its plan's segment count per level, so a
    leaf's quality is ``compute_quality``'s sum on the same counts.
    """
    n, L = spec.n_segments, spec.n_levels
    n_free = n - spec.cache_segments
    if (L + 1) ** n_free > max_nodes:
        raise OracleBudgetError(
            f"(L+1)^segments = {(L + 1) ** n_free} exceeds the {max_nodes} node budget"
        )
    fps = spec.frames_per_segment
    schedule = make_threshold_schedule(trace, alpha)
    window = _window(trace, spec)
    if window is None or not window.met_by(u0 := window.lowest_arrivals(schedule)):
        return None  # every plan is as heavy as all level 1 or heavier, and switches more
    fits = {s: _suffix_lookup(window, schedule.cumulative, s, fps) for s in range(2, L + 1)}
    best = None  # (rho, sigma, plan) of the best plan so far
    nodes = 0

    def consider(plan: QualityPlan, counts: list) -> None:
        nonlocal best
        rho = float(np.dot(spec.weights, np.array(counts, dtype=float)) / n)  # compute_quality, on the same counts
        if best is not None and rho < best[0]:
            return  # cannot win: skip its transmit
        sigma = compute_utilization(trace, transmit_video(trace, schedule, spec, plan).bits_used_per_slot, window.length)
        if best is None or (-rho, sigma) < (-best[0], best[1]) or (
            (rho, sigma) == best[:2] and plan.segment_levels < best[2].segment_levels
        ):
            best = rho, sigma, plan

    def dfs(plan: QualityPlan, counts: list, u, pos: int) -> None:
        # plan: the node's prefix below segment pos, its last run (at the
        # node's level) run on to the end; counts: that plan's segments per
        # level; u: its arrivals
        nonlocal nodes
        level = plan.runs[-1][1]
        for lvl in range(level, L + 1):
            nodes += 1
            if lvl > level and not fits[lvl](u, pos * fps):
                break  # heavier fills only cost more: prune this level and above
            child, child_counts = plan, counts
            if lvl > level:
                child = QualityPlan.from_runs(plan.runs + ((pos, lvl),), n)
                child_counts = counts.copy()
                child_counts[level - 1] -= n - pos
                child_counts[lvl - 1] += n - pos
            if pos == n - 1:
                consider(child, child_counts)
            else:
                child_u = u if child is plan else transmit_video(trace, schedule, spec, child).frames_at_boundary
                dfs(child, child_counts, child_u, pos + 1)

    lowest, lowest_counts = QualityPlan.uniform(spec, 1), [n] + [0] * (L - 1)
    if n_free == 0:
        consider(lowest, lowest_counts)
    else:
        dfs(lowest, lowest_counts, u0, spec.cache_segments)
    if best is None:
        return None
    rho, sigma, plan = best
    return OracleResult(alpha, plan, sigma, rho, (trace, spec, a), nodes)


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
