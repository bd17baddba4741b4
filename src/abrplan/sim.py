"""Deterministic playback-session simulator.

Transmits frames in video order under a threshold schedule (with greedy
prefetch of the cache segments), counts the cumulative arrival curve u and
the cumulative playback curve l at the slot boundaries, and reports stalls
there.

Transmission rules:
  * frame f of a segment at level j costs b_j / frame_rate bits;
  * within a slot only one quality level may be streamed: the slot stops
    early when the next frame's level differs from what the slot already
    carried, and the residual capacity of that slot is wasted;
  * a partially transmitted frame carries its progress across slots;
  * cache segments are transmitted greedily (at full capacity); all other
    traffic follows the schedule.
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
class TransmitResult:
    bits_used_per_slot: np.ndarray
    # cumulative frames delivered at each slot boundary (length n_slots + 1)
    frames_at_boundary: np.ndarray = field(repr=False)


def _runs(spec: VideoSpec, plan: QualityPlan):
    """Split the frame sequence into (end_frame, level, frame_bits, greedy)
    runs: the plan's runs, with the one that spans the end of the greedy
    cache phase split there."""
    n_greedy = spec.cache_segments
    fps = spec.frames_per_segment
    runs = []
    for start, end, level in plan.spans():
        frame_bits = spec.frame_bits(level)
        if start < n_greedy < end:
            runs.append((n_greedy * fps, level, frame_bits, True))
            start = n_greedy
        runs.append((end * fps, level, frame_bits, start < n_greedy))
    return runs


def _run_counts(counts: np.ndarray, cum: np.ndarray, start: float, f: int, run_end: int, cost: float, first: int):
    """The run step: write into ``counts``, from boundary ``first`` on, the
    frames delivered by a run of frames f..run_end - 1 at ``cost`` each,
    started at position ``start`` on the cumulative-capacity curve ``cum``
    (all in bits / dt). The frames done by a boundary are the whole frames
    that fit between ``start`` and the curve there, and one search finds
    the boundary ``j`` by which the run completes, where it writes
    ``run_end``. Returns (stop, j, the clamped positions it wrote): j is past
    the last boundary when the window ends first."""
    n_slots = cum.shape[0] - 1
    stop = start + (run_end - f) * cost
    j = int(cum.searchsorted(stop - _EPS * cost))
    last = min(j, n_slots)
    pos = np.minimum(np.maximum(cum[first : last + 1], start), stop)
    # whole frames done: (pos - start) / cost + f, with _EPS of slack;
    # the quotient is >= 0, so the integer cast floors it
    counts[first : last + 1] = (pos - (start - (f + _EPS) * cost)) / cost
    if j <= n_slots:
        counts[j] = run_end
    return stop, j, pos


def transmit_video(
    trace: CapacityTrace,
    schedule: ThresholdSchedule,
    spec: VideoSpec,
    plan: QualityPlan,
) -> TransmitResult:
    """Deliver frames in order under the schedule; see the module docstring
    for the transmission rules. A window that ends before the last frame
    is not an error: the arrivals then stop short of the whole video.

    Delivery goes one run (see ``_runs``) at a time, each one run step
    (``_run_counts``, which ``extend_arrivals`` shares). A run starts at a
    position on the cumulative-capacity curve of its phase: the trace for
    greedy cache traffic, the schedule otherwise. The rest of the slot it
    completes in is wasted, so the next run starts in the slot after,
    unless it keeps the level, which happens only where the cache phase
    ends.
    """
    plan.validate(spec)
    if schedule.as_array.shape != trace.as_array.shape:
        raise ValueError("schedule was built on a different trace")
    dt = trace.slot_duration
    n_slots = trace.n_slots
    runs = _runs(spec, plan)
    moved = np.zeros(n_slots + 1)  # bits / dt delivered by each boundary
    counts = np.zeros(n_slots + 1, dtype=np.int64)

    # positions and frame costs are in bits / dt, so the cached running sums
    # of the rates serve as the cumulative-capacity curves without scaling
    f, base = 0, 0.0  # frames and bits delivered before the current run
    k, used = 0, 0.0  # slot the current run starts in, fraction of it already used
    first = 1  # first boundary the current run writes
    last = 0  # last boundary written
    for i, (run_end, level, frame_bits, greedy) in enumerate(runs):
        if k >= n_slots:
            break
        phase = trace if greedy else schedule
        rate, cum = phase.as_array, phase.cumulative
        start = float(cum[k] + rate[k] * used)
        stop, j, pos = _run_counts(counts, cum, start, f, run_end, frame_bits / dt, first)
        last = min(j, n_slots)
        moved[first : last + 1] = base + (pos - start)
        if j <= n_slots:
            moved[j] = base + (stop - start)
        f, base = int(counts[last]), float(moved[last])
        if j > n_slots:
            break
        k = j - 1  # slot the run completes in
        used = (stop - cum[k]) / rate[k]
        if i + 1 < len(runs) and runs[i + 1][1] == level and used < 1 - _EPS:
            first = j  # the continuation rewrites the slot's end boundary
        else:
            # the next run starts in the next slot; its writes before that
            # clamp to its start, so the rest of this slot reads f and base
            k, used, first = k + 1, 0.0, j + 1
    counts[last + 1 :] = f
    moved[last + 1 :] = base
    return TransmitResult(
        # slices, not np.diff, whose call overhead doubles this on short windows
        bits_used_per_slot=(moved[1:] - moved[:-1]) * dt,
        frames_at_boundary=counts,
    )


def extend_arrivals(
    trace: CapacityTrace, schedule: ThresholdSchedule, spec: VideoSpec, u: np.ndarray, first_frame: int, level: int
) -> np.ndarray:
    """The arrivals ``frames_at_boundary`` of a plan switched to ``level``:
    given the arrivals u of a plan under the schedule, those of the plan
    that keeps it below frame ``first_frame`` and runs ``level`` from there
    to the end. ``first_frame`` starts a segment after the cache, and
    ``level`` differs from the plan's level just before it, so the run
    starts in the slot after frame ``first_frame - 1`` arrives: the arrivals
    up to there are u's, and the rest is one run step. Counts only, with no
    plan checks and no bits."""
    out = u.copy()
    k = int(u.searchsorted(first_frame))  # slot the run starts in
    if k > trace.n_slots:
        return out  # u never reaches first_frame: the switch is never sent
    out[k] = first_frame
    if k < trace.n_slots:
        cum = schedule.cumulative
        cost = spec.frame_bits(level) / trace.slot_duration
        _, j, _ = _run_counts(out, cum, float(cum[k]), first_frame, spec.total_frames, cost, k + 1)
        out[j + 1 :] = spec.total_frames
    return out


@dataclass(frozen=True)
class Trajectory:
    watched: np.ndarray  # l at each checkpoint (slot boundary)
    startup_checkpoint: Optional[int]
    stall_events: tuple[tuple[int, float], ...]  # (checkpoint, seconds stalled)


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
        return Trajectory(np.zeros_like(u), None, ())
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
    return Trajectory(watched, startup, events)


def meets_deadlines(u: np.ndarray, due: np.ndarray) -> bool:
    """Whether arrivals u never fall below the due frames: the comparison
    that ends ``deadline_check``. With the ``due`` that check returned for
    one plan, it is the whole check for any plan at any threshold of the
    same window: due is the same for all of them and ends at the whole
    video."""
    return not (u < due).any()


def deadline_check(u: np.ndarray, spec: VideoSpec, dt: float) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The stall check: arrivals u (a transmit's ``frames_at_boundary``)
    and their due frames if they deliver (reach the whole video) and play
    out the video without a stall, else None.
    due[i] counts the frames g with g + _EPS below the playback ramp at
    checkpoint i (in closed form, so no array of frames is built), so frame
    g's deadline is the first checkpoint where due exceeds g, and the
    session stalls iff u falls below due (``meets_deadlines``). due is the
    same for every plan at every threshold of one window: the start-up
    checkpoint is where the arrivals reach the prefetch frames, inside the
    cache segments, which stay at level 1 and are sent greedily on the
    trace, not on the schedule."""
    if u[-1] < spec.total_frames:
        return None
    startup, ramp = _playback_ramp(u, spec, dt)
    if startup is None or ramp[-1] < spec.total_frames - _EPS:
        return None  # playback never starts, or the window ends before it finishes
    due = np.ceil(ramp - _EPS).clip(0, spec.total_frames).astype(np.int64)
    return (u, due) if meets_deadlines(u, due) else None


def exist_violation(
    trace: CapacityTrace,
    alpha: float,
    spec: VideoSpec,
    plan: QualityPlan,
) -> bool:
    """True iff the session stalls or does not deliver and play out the
    whole video within the window."""
    tx = transmit_video(trace, make_threshold_schedule(trace, alpha), spec, plan)
    return deadline_check(tx.frames_at_boundary, spec, trace.slot_duration) is None


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
    strict: bool = True,
) -> SessionOutcome:
    """Simulate and score a (threshold, plan) pair.

    In strict mode any stall or incomplete delivery raises
    InfeasiblePlanError. With ``strict=False`` the outcome is returned
    with the stall events recorded (used for robustness studies).
    """
    tx = transmit_video(trace, make_threshold_schedule(trace, alpha), spec, plan)
    dt = trace.slot_duration
    u = tx.frames_at_boundary.astype(float)
    traj = _trajectory_from_counts(u, spec, dt)
    if strict and deadline_check(tx.frames_at_boundary, spec, dt) is None:
        # the verdict is the check's; the trajectory only names the reason
        if tx.frames_at_boundary[-1] < spec.total_frames:
            reason = "incomplete delivery"
        elif traj.stall_events:
            reason = "playback stalled"
        else:
            reason = "playback does not finish within the window"
        raise InfeasiblePlanError(f"session infeasible at alpha={alpha}: {reason}")
    if traj.startup_checkpoint is None:
        raise InfeasiblePlanError("playback never started within the window")
    length = session_length(spec, traj.startup_checkpoint * dt, traj.stall_events)
    sigma = compute_utilization(trace, tx.bits_used_per_slot, length)
    rho = compute_quality(spec, plan)
    return SessionOutcome(
        arrived_frames=tuple(u.tolist()),
        watched_frames=tuple(traj.watched.tolist()),
        startup_slot=traj.startup_checkpoint,
        stall_events=traj.stall_events,
        bits_used_per_slot=tuple(tx.bits_used_per_slot.tolist()),
        utilization=sigma,
        quality=rho,
        cost=compute_cost(sigma, rho, a),
    )
