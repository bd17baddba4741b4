"""Deterministic playback-session simulator.

Transmits frames in video order under a threshold schedule (with greedy
prefetch of the cache segments), counts the cumulative arrival curve u and
the cumulative playback curve l on a checkpoint grid (the slot boundaries
unless ``checkpoints_per_slot`` is above 1), and reports stalls.

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
from functools import lru_cache
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
    completed: bool
    # cumulative frames delivered at each checkpoint (length
    # n_slots * checkpoints_per_slot + 1; slot boundaries are every m-th)
    frames_at_boundary: np.ndarray = field(repr=False)


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


def checkpoint_curve(phase, m: int) -> np.ndarray:
    """The phase's cumulative-capacity curve at m checkpoints per slot: its
    cached running sum, linearly interpolated within each slot when m > 1."""
    cum = phase.cumulative
    if m == 1:
        return cum
    inside = cum[:-1, None] + phase.as_array[:, None] * (np.arange(m) / m)
    return np.append(inside.ravel(), cum[-1])


def transmit_video(
    trace: CapacityTrace,
    schedule: ThresholdSchedule,
    spec: VideoSpec,
    plan: QualityPlan,
    config: SimConfig = DEFAULT_SIM,
) -> TransmitResult:
    """Deliver frames in order under the schedule; see the module docstring
    for the transmission rules. ``completed`` is False (not an error) when
    the window ends before the last frame.

    Delivery goes one run (see ``_runs``) at a time. A run starts at a
    position on the cumulative-capacity curve of its phase: the trace for
    greedy cache traffic, the schedule otherwise. The frames it has
    delivered by a checkpoint are the whole frames that fit between that
    position and the curve there, and one search finds the checkpoint by
    which it completes. The rest of that slot is wasted, so the next run
    starts in the slot after, unless it keeps the level, which happens only
    where the cache phase ends.
    """
    plan.validate(spec)
    if schedule.as_array.shape != trace.as_array.shape:
        raise ValueError("schedule was built on a different trace")
    dt = trace.slot_duration
    m = config.checkpoints_per_slot
    n_slots = trace.n_slots
    n_cp = n_slots * m
    runs = _runs(spec, plan, config.prefetch_greedy)
    moved = np.zeros(n_cp + 1)  # bits / dt delivered by each checkpoint
    counts = np.zeros(n_cp + 1, dtype=np.int64)

    # positions and frame costs are in bits / dt, so the cached running sums
    # of the rates serve as the cumulative-capacity curves without scaling
    f, base = 0, 0.0  # frames and bits delivered before the current run
    k, used = 0, 0.0  # slot the current run starts in, fraction of it already used
    first = 1  # first checkpoint the current run writes
    last = 0  # last checkpoint written
    for i, (run_end, level, frame_bits, greedy) in enumerate(runs):
        if k >= n_slots:
            break
        phase = trace if greedy else schedule
        rate, cum = phase.as_array, phase.cumulative
        curve = cum if m == 1 else checkpoint_curve(phase, m)
        cost = frame_bits / dt
        start = float(cum[k] + rate[k] * used)
        stop = start + (run_end - f) * cost
        j = int(curve.searchsorted(stop - _EPS * cost))  # checkpoint by which the run completes
        last = min(j, n_cp)
        pos = np.minimum(np.maximum(curve[first : last + 1], start), stop)
        moved[first : last + 1] = base + (pos - start)
        # whole frames done: (pos - start) / cost + f, with _EPS of slack;
        # the quotient is >= 0, so the integer cast floors it
        counts[first : last + 1] = (pos - (start - (f + _EPS) * cost)) / cost
        if j <= n_cp:
            counts[j], moved[j] = run_end, base + (stop - start)
        f, base = int(counts[last]), float(moved[last])
        if j > n_cp:
            break
        k = (j - 1) // m  # slot the run completes in
        used = (stop - cum[k]) / rate[k]
        if i + 1 < len(runs) and runs[i + 1][1] == level and used < 1 - _EPS:
            first = j  # the continuation rewrites the slot from j on
        else:
            # the next run starts in the next slot; its writes before that
            # clamp to its start, so the rest of this slot reads f and base
            k, used, first = k + 1, 0.0, j + 1
    counts[last + 1 :] = f
    moved[last + 1 :] = base
    return TransmitResult(
        bits_used_per_slot=(moved[m::m] - moved[: -m : m]) * dt,
        completed=f >= spec.total_frames,
        frames_at_boundary=counts,
    )


@dataclass(frozen=True)
class Trajectory:
    arrived: np.ndarray  # u at each checkpoint
    watched: np.ndarray  # l at each checkpoint
    startup_checkpoint: Optional[int]
    stall_events: tuple[tuple[int, float], ...]  # (checkpoint, seconds stalled)
    checkpoint_dt: float

    @property
    def stalled(self) -> bool:
        return len(self.stall_events) > 0


def _playback_ramp(u: np.ndarray, spec: VideoSpec, cdt: float):
    """Start-up checkpoint and the playback curve l while nothing stalls.

    Playback starts at the first checkpoint where the buffered frames reach
    the start-up threshold, then advances frame_rate * cdt frames per
    checkpoint up to the whole video; the ramp is negative before start-up.
    It stalls where the ramp exceeds u by more than _EPS. Returns
    (None, None) when playback never starts.
    """
    total = spec.total_frames
    startup = int(u.searchsorted(min(spec.prefetch_frames, total)))
    if startup >= u.shape[0]:
        return None, None
    ramp = (np.arange(u.shape[0]) - startup) * (spec.frame_rate * cdt)
    return startup, np.minimum(ramp, float(total))


def _trajectory_from_counts(u: np.ndarray, spec: VideoSpec, cdt: float) -> Trajectory:
    """Playback follows the ramp and freezes (a stall) whenever it would
    overtake the arrivals u."""
    startup, ramp = _playback_ramp(u, spec, cdt)
    if startup is None:
        return Trajectory(u, np.zeros_like(u), None, (), cdt)
    watched = np.minimum(np.maximum(ramp, 0.0), u)
    stalls: list[list] = []  # [checkpoint, seconds]
    # l only deviates from the ramp from the first stall on
    behind = ramp > u + _EPS
    first = int(behind.argmax()) if behind.any() else u.shape[0]
    total = spec.total_frames
    step = spec.frame_rate * cdt
    l_prev = watched[first - 1]
    in_stall = False
    for i in range(first, u.shape[0]):
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
    tx = transmit_video(trace, schedule, spec, plan, config)
    cdt = trace.slot_duration / config.checkpoints_per_slot
    traj = _trajectory_from_counts(tx.frames_at_boundary.astype(float), spec, cdt)
    violation = (
        not tx.completed
        or traj.startup_checkpoint is None
        or traj.stalled
        or traj.watched[-1] < spec.total_frames - _EPS
    )
    return SessionRun(transmit=tx, trajectory=traj, violation=violation)


@lru_cache(maxsize=16)
def _frame_marks(total: int) -> np.ndarray:
    """g + _EPS for each frame g: frame g is due once the ramp is above it."""
    marks = np.arange(total) + _EPS
    marks.flags.writeable = False
    return marks


def feasible_arrivals(
    trace: CapacityTrace,
    alpha: float,
    spec: VideoSpec,
    plan: QualityPlan,
    config: SimConfig = DEFAULT_SIM,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Arrivals u and due frames of a session that delivers and plays out
    the whole video without a stall, else None. due[i] counts the frames g
    with g + _EPS below the playback ramp at checkpoint i, so frame g's
    deadline is the first checkpoint where due exceeds g, and the session
    stalls iff u falls below due. due is the same for every plan at one
    threshold: the start-up checkpoint depends only on the cache segments,
    which stay at level 1."""
    schedule = make_threshold_schedule(trace, alpha)
    tx = transmit_video(trace, schedule, spec, plan, config)
    if not tx.completed:
        return None
    cdt = trace.slot_duration / config.checkpoints_per_slot
    u = tx.frames_at_boundary
    startup, ramp = _playback_ramp(u, spec, cdt)
    if startup is None or ramp[-1] < spec.total_frames - _EPS:
        return None  # playback never starts, or the window ends before it finishes
    due = _frame_marks(spec.total_frames).searchsorted(ramp)
    return None if (u < due).any() else (u, due)


def exist_violation(
    trace: CapacityTrace,
    alpha: float,
    spec: VideoSpec,
    plan: QualityPlan,
    config: SimConfig = DEFAULT_SIM,
) -> bool:
    """True iff the session stalls or does not deliver and play out the
    whole video within the window."""
    return feasible_arrivals(trace, alpha, spec, plan, config) is None


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
