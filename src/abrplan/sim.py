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

from .errors import AbrPlanError, InfeasiblePlanError
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


def _frame_cost(spec: VideoSpec, level: int, dt: float) -> float:
    """A frame's cost at ``level`` in bits / dt, the unit of the runs'
    positions. Raises AbrPlanError where it is 0 or inf in floats: a frame
    size that ``VideoSpec`` holds can underflow, or overflow, once divided
    by the window's slot duration."""
    bits = spec.frame_bits(level)
    cost = bits / dt
    if not 0 < cost < np.inf:
        raise AbrPlanError(f"level {level}'s frame size, {bits!r} bits, divided by the {dt!r} s slot is {cost!r} in floats")
    return cost


def _runs(spec: VideoSpec, plan: QualityPlan, dt: float):
    """Split the frame sequence into (end_frame, level, cost, greedy) runs
    (cost by ``_frame_cost``): the plan's runs, with the one that spans the
    end of the greedy cache phase split there."""
    n_greedy = spec.cache_segments
    fps = spec.frames_per_segment
    runs = []
    for start, end, level in plan.spans():
        cost = _frame_cost(spec, level, dt)
        if start < n_greedy < end:
            runs.append((n_greedy * fps, level, cost, True))
            start = n_greedy
        runs.append((end * fps, level, cost, start < n_greedy))
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


def _next_start(done, nxt, stop: float, j: int, keeps_level: bool) -> tuple[int, float]:
    """The continuation rule: after a run completes at position ``stop`` on
    the cumulative-capacity curve of its phase ``done``, by boundary j, the
    slot k the next run starts in and its start on the curve of its own
    phase ``nxt``. The rest of the completing slot is wasted, so the next
    run starts where the slot after begins, unless it keeps the level (only
    where the cache phase ends) and the slot has room left: then it starts
    as far into the slot as the run before it ended. It writes the
    boundaries from k + 1 on; those before its first frame clamp to its
    start, so a wasted slot's end reads what was delivered before it."""
    k = j - 1  # slot the run completes in
    used = (stop - done.cumulative[k]) / done.as_array[k]
    if keeps_level and used < 1 - _EPS:
        return k, float(nxt.cumulative[k] + nxt.as_array[k] * used)
    return j, float(nxt.cumulative[j])


def _lowest_arrivals(trace: CapacityTrace, spec: VideoSpec):
    """``(arrivals, cache)``: the all-level-1 plan's ``frames_at_boundary``
    under a schedule built on ``trace`` are ``arrivals(schedule)``, as
    ``transmit_video`` gives them. Its cache run is sent greedily on the
    trace, so it is the same under every schedule: it is one run step here,
    whose counts are ``cache``, and each call adds one run step on the
    schedule, started by the continuation rule (``_next_start``)."""
    n_slots, total = trace.n_slots, spec.total_frames
    n_cache = spec.cache_segments * spec.frames_per_segment
    cost = spec.frame_bits(1) / trace.slot_duration
    cache = np.zeros(n_slots + 1, dtype=np.int64)
    stop, j, _ = _run_counts(cache, trace.cumulative, 0.0, 0, n_cache, cost, 1)
    cache[j + 1 :] = n_cache
    if j > n_slots or n_cache == total:
        return (lambda schedule: cache.copy()), cache  # nothing is sent on the schedule

    def arrivals(schedule: ThresholdSchedule) -> np.ndarray:
        u = cache.copy()
        k, start = _next_start(trace, schedule, stop, j, True)
        if k < n_slots:
            _, end, _ = _run_counts(u, schedule.cumulative, start, n_cache, total, cost, k + 1)
            u[end + 1 :] = total
        return u

    return arrivals, cache


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
    greedy cache traffic, the schedule otherwise. Where the next run starts
    is the continuation rule, ``_next_start``, which ``_lowest_arrivals``
    shares. A plan level whose frame cost is 0 or inf in floats raises
    AbrPlanError (``_frame_cost``).
    """
    plan.validate(spec)
    if schedule.as_array.shape != trace.as_array.shape:
        raise ValueError("schedule was built on a different trace")
    dt = trace.slot_duration
    n_slots = trace.n_slots
    runs = _runs(spec, plan, dt)
    moved = np.zeros(n_slots + 1)  # bits / dt delivered by each boundary
    counts = np.zeros(n_slots + 1, dtype=np.int64)

    # positions and frame costs are in bits / dt, so the cached running sums
    # of the rates serve as the cumulative-capacity curves without scaling
    f, base = 0, 0.0  # frames and bits delivered before the current run
    k, start = 0, 0.0  # slot the current run starts in, its start on its phase's curve
    last = 0  # last boundary written
    for i, (run_end, level, cost, greedy) in enumerate(runs):
        if k >= n_slots:
            break
        phase = trace if greedy else schedule
        stop, j, pos = _run_counts(counts, phase.cumulative, start, f, run_end, cost, k + 1)
        last = min(j, n_slots)
        moved[k + 1 : last + 1] = base + (pos - start)
        if j <= n_slots:
            moved[j] = base + (stop - start)
        f, base = int(counts[last]), float(moved[last])
        if j > n_slots or i + 1 == len(runs):
            break
        _, next_level, _, next_greedy = runs[i + 1]
        k, start = _next_start(phase, trace if next_greedy else schedule, stop, j, next_level == level)
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


def _deadlines(u: np.ndarray, spec: VideoSpec, dt: float) -> Optional[tuple[int, np.ndarray]]:
    """Start-up checkpoint and due frames of arrivals u, or None when playback
    never starts or the window ends before it finishes. due[i] counts the
    frames g with g + _EPS below the playback ramp at checkpoint i (in closed
    form), so frame g is due by the first checkpoint where due exceeds g."""
    startup, ramp = _playback_ramp(u, spec, dt)
    if startup is None or ramp[-1] < spec.total_frames - _EPS:
        return None
    return startup, np.ceil(ramp - _EPS).clip(0, spec.total_frames).astype(np.int64)


def deadline_check(u: np.ndarray, spec: VideoSpec, dt: float) -> Optional[tuple[int, np.ndarray]]:
    """The stall check: for arrivals u (a transmit's ``frames_at_boundary``)
    that deliver (reach the whole video) and play out the video without a
    stall (u never below due), ``_deadlines`` of u, else None."""
    if u[-1] < spec.total_frames:
        return None
    session = _deadlines(u, spec, dt)
    return None if session is None or (u < session[1]).any() else session


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
