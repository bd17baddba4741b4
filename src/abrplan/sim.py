"""Deterministic playback-session simulator.

Transmits frames in video order under a threshold schedule (with greedy
prefetch of the cache segments), tracks the cumulative arrival curve u and
the cumulative playback curve l on the slot grid, and reports stalls.

Transmission rules:
  * frame f of a segment at level j costs b_j / frame_rate bits;
  * within a slot only one quality level may be streamed: the slot stops
    early when the next frame's level differs from what the slot already
    carried, and the residual capacity of that slot is wasted;
  * a partially transmitted frame carries its progress across slots;
  * cache segments are transmitted greedily (at full capacity) when
    ``prefetch_greedy`` is set; all other traffic follows the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InfeasiblePlanError
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

_EPS = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs.

    prefetch_greedy: transmit the cache segments at full capacity instead
        of the threshold rule (reduces start-up delay).
    checkpoints_per_slot: granularity of the stall check; 1 checks at slot
        boundaries only, which matches the grid the capacity is given on.
    """

    prefetch_greedy: bool = True
    checkpoints_per_slot: int = 1

    def __post_init__(self):
        if self.checkpoints_per_slot < 1:
            raise ValueError("checkpoints_per_slot must be >= 1")


DEFAULT_SIM = SimConfig()


@dataclass(frozen=True)
class TransmitResult:
    bits_used_per_slot: np.ndarray
    frame_arrival_times: Optional[np.ndarray]  # only for delivered frames
    completed: bool
    # cumulative frames delivered at each slot boundary (length n_slots + 1)
    frames_at_boundary: np.ndarray = field(repr=False, default=None)


def _runs(spec: VideoSpec, plan: QualityPlan, prefetch_greedy: bool):
    """Split the frame sequence into (end_frame, level, frame_bits, greedy)
    runs: the plan's runs, with the one that spans the end of a greedy
    cache phase split there."""
    n_greedy = spec.cache_segments if prefetch_greedy else 0
    fps = spec.frames_per_segment
    runs = []
    for start, end, level in plan.spans():
        frame_bits = spec.frame_bits(level)
        if start < n_greedy < end:
            runs.append((n_greedy * fps, level, frame_bits, True))
            start = n_greedy
        runs.append((end * fps, level, frame_bits, start < n_greedy))
    return runs


def transmit_video(
    trace: CapacityTrace,
    schedule: ThresholdSchedule,
    spec: VideoSpec,
    plan: QualityPlan,
    config: SimConfig = DEFAULT_SIM,
    record_times: bool = True,
) -> TransmitResult:
    """Deliver frames in order under the schedule; see the module docstring
    for the transmission rules. ``completed`` is False (not an error) when
    the window ends before the last frame.

    Delivery goes one run (see ``_runs``) at a time. A run starts at a
    position on the cumulative-capacity curve of its phase: the trace for
    greedy cache traffic, the schedule otherwise. The frames it has
    delivered by a slot boundary are the whole frames that fit between that
    position and the curve there, and one search finds the slot where it
    completes. The rest of that slot is wasted, so the next run starts in
    the slot after, unless it keeps the level, which happens only where the
    cache phase ends.
    """
    plan.validate(spec)
    if schedule.as_array.shape != trace.as_array.shape:
        raise ValueError("schedule was built on a different trace")
    dt = trace.slot_duration
    n_slots = trace.n_slots
    runs = _runs(spec, plan, config.prefetch_greedy)
    moved = np.zeros(n_slots + 1)  # bits / dt delivered by each slot boundary
    boundary = np.zeros(n_slots + 1, dtype=np.int64)
    arrivals = np.empty(spec.total_frames) if record_times else None

    # positions and frame costs are in bits / dt, so the cached running sums
    # of the rates serve as the cumulative-capacity curves without scaling
    f, base = 0, 0.0  # frames and bits delivered before the current run
    k, used = 0, 0.0  # slot the current run starts in, fraction of it already used
    last = 0  # last slot boundary written
    for i, (run_end, level, frame_bits, greedy) in enumerate(runs):
        if k >= n_slots:
            break
        phase = trace if greedy else schedule
        rate, cum = phase.as_array, phase.cumulative
        cost = frame_bits / dt
        start = float(cum[k] + rate[k] * used)
        stop = start + (run_end - f) * cost
        j = int(cum.searchsorted(stop - _EPS * cost))  # boundary where the run completes
        last = min(j, n_slots)
        pos = np.minimum(np.maximum(cum[k + 1 : last + 1], start), stop)
        moved[k + 1 : last + 1] = pos + (base - start)
        # whole frames done: (pos - start) / cost + f, with _EPS of slack
        boundary[k + 1 : last + 1] = np.floor((pos - (start - (f + _EPS) * cost)) / cost)
        if j <= n_slots:
            boundary[j], moved[j] = run_end, base + (stop - start)
        if record_times:
            m = boundary[last] - f
            target = start + cost * np.arange(1, m + 1)
            slot = np.clip(cum.searchsorted(target - _EPS * cost) - 1, k, last - 1)
            arrivals[f : f + m] = (slot + (target - cum[slot]) / rate[slot]) * dt
        f, base = int(boundary[last]), float(moved[last])
        if j > n_slots:
            break
        used = (stop - cum[j - 1]) / rate[j - 1]
        if i + 1 < len(runs) and runs[i + 1][1] == level and used < 1 - _EPS:
            k = j - 1
        else:
            k, used = j, 0.0
    boundary[last + 1 :] = f
    moved[last + 1 :] = base
    return TransmitResult(
        bits_used_per_slot=(moved[1:] - moved[:-1]) * dt,
        frame_arrival_times=arrivals[:f] if record_times else None,
        completed=f >= spec.total_frames,
        frames_at_boundary=boundary,
    )


@dataclass(frozen=True)
class Trajectory:
    arrived: np.ndarray  # u at each checkpoint
    watched: np.ndarray  # l at each checkpoint
    startup_checkpoint: Optional[int]
    stall_events: tuple[tuple[int, float], ...]  # (slot index, seconds stalled)
    checkpoint_dt: float

    @property
    def stalled(self) -> bool:
        return len(self.stall_events) > 0


def playback_trajectory(
    frame_arrival_times,
    spec: VideoSpec,
    trace: CapacityTrace,
    config: SimConfig = DEFAULT_SIM,
) -> Trajectory:
    """Derive the buffer trajectory from frame arrival instants.

    Playback starts at the first checkpoint where the buffered frames reach
    the start-up threshold, then advances frame_rate * dt frames per
    checkpoint, freezing (a stall) whenever it would overtake the arrivals.
    """
    arr = np.asarray(frame_arrival_times, dtype=float)
    if arr.size > 1 and np.any(np.diff(arr) < -_EPS):
        raise ValueError("arrival times must be non-decreasing")
    m = config.checkpoints_per_slot
    cdt = trace.slot_duration / m
    n_cp = trace.n_slots * m
    times = np.arange(n_cp + 1) * cdt
    u = np.searchsorted(arr, times + _EPS * trace.slot_duration, side="right").astype(float)
    return _trajectory_from_counts(u, spec, cdt)


def _trajectory_from_counts(u: np.ndarray, spec: VideoSpec, cdt: float) -> Trajectory:
    total = spec.total_frames
    q0 = min(spec.prefetch_frames, total)
    startup = int(np.searchsorted(u, q0, side="left"))
    n_cp = u.shape[0] - 1
    watched = np.zeros_like(u)
    stalls: list[list] = []  # [checkpoint, seconds]
    if startup > n_cp:
        return Trajectory(u, watched, None, (), cdt)
    step = spec.frame_rate * cdt
    l_prev = 0.0
    in_stall = False
    for i in range(startup + 1, n_cp + 1):
        want = min(l_prev + step, float(total))
        have = min(want, u[i])
        if have < want - _EPS:
            dur = (want - have) / spec.frame_rate
            if in_stall:
                stalls[-1][1] += dur
            else:
                stalls.append([i, dur])
            in_stall = True
        else:
            in_stall = False
        watched[i] = have
        l_prev = have
        if l_prev >= total:
            watched[i:] = total
            break
    events = tuple((int(cp), float(sec)) for cp, sec in stalls)
    return Trajectory(u, watched, startup, events, cdt)


@dataclass(frozen=True)
class SessionRun:
    """One full simulated session: transmission plus playback."""

    transmit: TransmitResult
    trajectory: Trajectory
    violation: bool


def run_session(
    trace: CapacityTrace,
    alpha: float,
    spec: VideoSpec,
    plan: QualityPlan,
    config: SimConfig = DEFAULT_SIM,
) -> SessionRun:
    schedule = make_threshold_schedule(trace, alpha)
    record = config.checkpoints_per_slot > 1
    tx = transmit_video(trace, schedule, spec, plan, config, record_times=record)
    if record:
        traj = playback_trajectory(tx.frame_arrival_times, spec, trace, config)
    else:
        traj = _trajectory_from_counts(tx.frames_at_boundary.astype(float), spec, trace.slot_duration)
    violation = (
        not tx.completed
        or traj.startup_checkpoint is None
        or traj.stalled
        or traj.watched[-1] < spec.total_frames - _EPS
    )
    return SessionRun(transmit=tx, trajectory=traj, violation=violation)


def exist_violation(
    trace: CapacityTrace,
    alpha: float,
    spec: VideoSpec,
    plan: QualityPlan,
    config: SimConfig = DEFAULT_SIM,
) -> bool:
    """True iff the session stalls or does not deliver and play out the
    whole video within the window."""
    if config.checkpoints_per_slot > 1:
        return run_session(trace, alpha, spec, plan, config).violation
    # fast path: boundary counts and the untouched playback ramp suffice,
    # because l only deviates from the ramp after a first stall
    schedule = make_threshold_schedule(trace, alpha)
    tx = transmit_video(trace, schedule, spec, plan, config, record_times=False)
    if not tx.completed:
        return True
    u = tx.frames_at_boundary
    total = spec.total_frames
    q0 = min(spec.prefetch_frames, total)
    startup = int(u.searchsorted(q0))
    n_cp = u.shape[0] - 1
    if startup > n_cp:
        return True
    step = spec.frame_rate * trace.slot_duration
    ramp = np.minimum((np.arange(n_cp + 1) - startup) * step, float(total))  # < 0 before startup
    if ramp[-1] < total - _EPS:
        return True  # window ends before playback finishes
    return bool((ramp > u + _EPS).any())


def session_length(spec: VideoSpec, startup_delay: float, stall_events) -> float:
    """Seconds from request to the last watched frame: start-up delay plus
    playback time plus the seconds of each (position, seconds) stall."""
    return startup_delay + spec.total_frames / spec.frame_rate + sum(sec for _, sec in stall_events)


def evaluate(
    trace: CapacityTrace,
    alpha: float,
    spec: VideoSpec,
    plan: QualityPlan,
    a: float,
    config: SimConfig = DEFAULT_SIM,
    strict: bool = True,
) -> SessionOutcome:
    """Simulate and score a (threshold, plan) pair.

    In strict mode any stall or incomplete delivery raises
    InfeasiblePlanError. With ``strict=False`` the outcome is returned
    with the stall events recorded (used for robustness studies).
    """
    run = run_session(trace, alpha, spec, plan, config)
    if strict and run.violation:
        raise InfeasiblePlanError(
            f"session infeasible at alpha={alpha}: "
            + ("incomplete delivery" if not run.transmit.completed else "playback stalled")
        )
    traj = run.trajectory
    if traj.startup_checkpoint is None:
        raise InfeasiblePlanError("playback never started within the window")
    length = session_length(spec, traj.startup_checkpoint * traj.checkpoint_dt, traj.stall_events)
    sigma = compute_utilization(trace, run.transmit.bits_used_per_slot, length)
    rho = compute_quality(spec, plan)
    # report u/l on the slot grid regardless of checkpoint granularity
    stride = config.checkpoints_per_slot
    stall_slots = tuple((cp // stride, sec) for cp, sec in traj.stall_events)
    return SessionOutcome(
        arrived_frames=tuple(traj.arrived[::stride].tolist()),
        watched_frames=tuple(traj.watched[::stride].tolist()),
        startup_slot=traj.startup_checkpoint // stride,
        stall_events=stall_slots,
        bits_used_per_slot=tuple(run.transmit.bits_used_per_slot.tolist()),
        utilization=sigma,
        quality=rho,
        cost=compute_cost(sigma, rho, a),
    )
