"""Core domain types and closed-form cost/quality computations.

All quantities are discrete-time: the capacity window is a sequence of
slots of fixed duration, capacity is piecewise-constant per slot, and the
continuous-time integrals of the cost model reduce to slot sums.

Units are plain SI throughout: capacities and bitrates in bits/second,
durations in seconds, frame counts in frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidScheduleError


@dataclass(frozen=True)
class CapacityTrace:
    """A predicted per-slot capacity window.

    Attributes:
        slot_duration: slot length in seconds (finite, > 0).
        capacities: per-slot average capacity in bits/second (finite, >= 0),
            whose bit volume over the window is finite.
    """

    slot_duration: float
    capacities: tuple[float, ...]

    def __post_init__(self):
        if not 0 < self.slot_duration < math.inf:  # also rejects nan
            raise ValueError(f"slot_duration must be positive and finite, got {self.slot_duration}")
        caps = tuple(float(c) for c in self.capacities)
        if len(caps) == 0:
            raise ValueError("capacity window must contain at least one slot")
        for c in caps:
            if not math.isfinite(c) or c < 0:
                raise ValueError(f"capacities must be finite and >= 0, got {c}")
        if not math.isfinite(sum(caps) * self.slot_duration):
            # the running sums of the capacities would overflow, and every volume with them
            raise ValueError("the window's total bit volume (capacities summed, times the slot duration) must be finite")
        object.__setattr__(self, "capacities", caps)

    @cached_property
    def as_array(self) -> np.ndarray:
        arr = np.asarray(self.capacities, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Capacities summed up to each slot boundary; see ``_running_sum``."""
        return _running_sum(self.as_array)

    @cached_property
    def _volumes(self) -> tuple[np.ndarray, ...]:
        """What ``compute_utilization`` reads of every schedule on this
        window: the slot volumes c·dt, the bits above which a slot is
        over-used, the mask of slots with a positive volume, and their
        volumes."""
        volume = self.as_array * self.slot_duration
        used = volume > 0
        out = volume, volume * (1 + _REL_EPS) + _REL_EPS, used, volume[used]
        for arr in out:
            arr.flags.writeable = False
        return out

    @property
    def n_slots(self) -> int:
        return len(self.capacities)

    @property
    def window_length(self) -> float:
        return self.slot_duration * self.n_slots

    def tail(self, first_slot: int) -> "CapacityTrace":
        """Sub-window starting at ``first_slot`` (same slotting)."""
        if not 0 <= first_slot < self.n_slots:
            raise ValueError(f"first_slot {first_slot} outside window")
        return CapacityTrace(slot_duration=self.slot_duration, capacities=self.capacities[first_slot:])


@dataclass(frozen=True)
class QualityLevel:
    """One encoding of the video: bitrate in bps and its perception weight."""

    bitrate_bps: float
    weight: float


@dataclass(frozen=True)
class VideoSpec:
    """A multi-level encoded video and its playback parameters.

    Levels are 1-based and strictly increasing in both bitrate and weight;
    weights lie in (0, 1]. ``prefetch_frames`` is the start-up threshold:
    playback begins once that many frames are buffered.
    """

    n_segments: int
    frames_per_segment: int
    frame_rate: float
    levels: tuple[QualityLevel, ...]
    prefetch_frames: int

    def __post_init__(self):
        for count in (self.n_segments, self.frames_per_segment, self.prefetch_frames):
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"segment and frame counts must be integers, got {count!r}")
        if self.n_segments < 1 or self.frames_per_segment < 1:
            raise ValueError("segment and frame counts must be >= 1")
        if isinstance(self.frame_rate, (bool, np.bool_)) or not 0 < self.frame_rate < math.inf:  # also rejects nan
            raise ValueError(f"frame_rate must be a positive, finite number, got {self.frame_rate!r}")
        if len(self.levels) < 1:
            raise ValueError("at least one quality level is required")
        prev = None
        for lvl in self.levels:
            if isinstance(lvl.bitrate_bps, (bool, np.bool_)) or not 0 < lvl.bitrate_bps < math.inf:
                raise ValueError(f"bitrates must be positive, finite numbers, got {lvl.bitrate_bps!r}")
            if not 0 < lvl.bitrate_bps / self.frame_rate < math.inf:  # an integer past floats raises OverflowError
                raise ValueError(f"bitrates must give a positive, finite frame size, got {lvl.bitrate_bps!r} bps at {self.frame_rate!r} fps")
            if isinstance(lvl.weight, (bool, np.bool_)) or not 0 < lvl.weight <= 1:
                raise ValueError(f"weights must be numbers in (0, 1], got {lvl.weight!r}")
            if prev is not None and not (prev.bitrate_bps < lvl.bitrate_bps and prev.weight < lvl.weight):
                raise ValueError("bitrates and weights must be strictly increasing")
            prev = lvl
        if not 1 <= self.prefetch_frames <= self.total_frames:
            raise ValueError("prefetch_frames must be in [1, total frames]")

    # the derived counts are cached per spec, as they are read in every
    # probe; a cached value is no field, so ==, hash and repr ignore it
    @cached_property
    def n_levels(self) -> int:
        return len(self.levels)

    @cached_property
    def total_frames(self) -> int:
        return self.n_segments * self.frames_per_segment

    @cached_property
    def cache_segments(self) -> int:
        """Number of leading segments covered by the start-up threshold."""
        return min(self.n_segments, math.ceil(self.prefetch_frames / self.frames_per_segment))

    def frame_bits(self, level: int) -> float:
        """Size in bits of one frame encoded at ``level`` (1-based)."""
        return self.levels[level - 1].bitrate_bps / self.frame_rate

    @cached_property
    def weights(self) -> np.ndarray:
        arr = np.array([lvl.weight for lvl in self.levels])
        arr.flags.writeable = False
        return arr


@dataclass(frozen=True, init=False)
class QualityPlan:
    """Per-segment quality assignment (1-based level indices), held as
    runs: ``runs[i] = (first_segment, level)``, and run i ends where run
    i + 1 starts (the last at ``n_segments``). Runs are canonical (none
    empty, no two adjacent at one level), so two plans are equal exactly
    when their per-segment levels are.

    ``QualityPlan(levels)`` compresses a per-segment sequence;
    ``from_runs`` builds a plan in O(runs).
    """

    runs: tuple[tuple[int, int], ...]
    n_segments: int

    def __init__(self, segment_levels: Sequence[int]):
        levels = tuple(int(v) for v in segment_levels)
        runs = tuple((i, v) for i, v in enumerate(levels) if i == 0 or v != levels[i - 1])
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "n_segments", len(levels))
        self.__dict__["segment_levels"] = levels

    @classmethod
    def from_runs(cls, runs: Sequence[tuple[int, int]], n_segments: int) -> "QualityPlan":
        """Plan from ``(first_segment, level)`` runs in segment order. The
        first run starts at segment 0 and each run ends where the next one
        starts; empty runs are dropped and adjacent runs at one level
        merged."""
        n = int(n_segments)
        out: list[tuple[int, int]] = []
        prev = None
        for start, level in runs:
            start, level = int(start), int(level)
            if (start != 0 if prev is None else start < prev) or start > n:
                raise ValueError("runs must start at segment 0 and follow in segment order")
            prev = start
            if out and out[-1][0] == start:
                out.pop()  # the previous run is empty
            if start < n and (not out or out[-1][1] != level):
                out.append((start, level))
        if n > 0 and not out:
            raise ValueError("runs must cover every segment")
        plan = object.__new__(cls)
        object.__setattr__(plan, "runs", tuple(out))
        object.__setattr__(plan, "n_segments", n)
        return plan

    def spans(self) -> list[tuple[int, int, int]]:
        """``(first_segment, end_segment, level)`` for each run."""
        ends = [start for start, _ in self.runs[1:]] + [self.n_segments]
        return [(start, end, level) for (start, level), end in zip(self.runs, ends)]

    @cached_property
    def segment_levels(self) -> tuple[int, ...]:
        return tuple(level for start, end, level in self.spans() for _ in range(end - start))

    @classmethod
    def uniform(cls, spec: VideoSpec, level: int) -> "QualityPlan":
        return cls.from_runs(((0, level),), spec.n_segments)

    def validate(self, spec: VideoSpec) -> None:
        """Raise ValueError unless the plan fits ``spec``: correct length,
        levels in range, cache segments at level 1, non-decreasing after
        the cache. O(runs)."""
        if self.n_segments != spec.n_segments:
            raise ValueError(f"plan has {self.n_segments} segments, video has {spec.n_segments}")
        levels = [level for _, level in self.runs]
        if min(levels) < 1 or max(levels) > spec.n_levels:
            raise ValueError("plan contains out-of-range level indices")
        cache = spec.cache_segments
        if any(level != 1 for start, level in self.runs if start < cache):
            raise ValueError("prefetch-cache segments must stay at level 1")
        # the runs inside the cache are at level 1, the lowest valid level,
        # so the levels after the cache ascend iff all run levels do
        if any(a > b for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be non-decreasing after the cache segments")


@dataclass(frozen=True, eq=False)
class ThresholdSchedule:
    """Pure threshold transmission rule: send at full capacity on slots at
    or above the threshold, stay idle elsewhere. Both arrays are read-only
    and named as ``CapacityTrace``'s, so either one can be a run's phase."""

    as_array: np.ndarray  # per-slot rates
    cumulative: np.ndarray  # rates summed up to each slot boundary; see ``_running_sum``


def _running_sum(rates: np.ndarray) -> np.ndarray:
    """Per-slot rates summed up to each slot boundary, starting at 0
    (length n_slots + 1). Times the slot duration, it is the bits sent at
    those rates by each boundary."""
    arr = np.concatenate(([0.0], np.cumsum(rates)))
    arr.flags.writeable = False
    return arr


def make_threshold_schedule(trace: CapacityTrace, alpha: float) -> ThresholdSchedule:
    """Build the threshold schedule for ``alpha``: r_k = c_k if c_k >= alpha
    else 0."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    c = trace.as_array
    rates = np.where(c >= alpha, c, 0.0)
    rates.flags.writeable = False
    return ThresholdSchedule(rates, _running_sum(rates))


@dataclass(frozen=True)
class SessionOutcome:
    """Everything observable about one simulated streaming session."""

    arrived_frames: tuple[float, ...]  # cumulative u at each slot boundary
    watched_frames: tuple[float, ...]  # cumulative l at each slot boundary
    startup_slot: int
    stall_events: tuple[tuple[int, float], ...]  # (slot index, seconds)
    bits_used_per_slot: tuple[float, ...]
    utilization: float
    quality: float
    cost: float


_REL_EPS = 1e-9


def compute_utilization(trace: CapacityTrace, bits_used_per_slot, session_length: float) -> float:
    """Time-averaged fraction of network capacity consumed.

    Each slot contributes (bits used / slot volume) * slot_duration to the
    integral, divided by the session length. Slots with zero capacity and
    zero bits contribute nothing; bits on a zero-capacity slot are an
    invalid schedule.
    """
    if session_length <= 0:
        raise ValueError("session length must be positive")
    c = trace.as_array
    bits = np.asarray(bits_used_per_slot, dtype=float)
    if bits.shape != c.shape:
        raise ValueError("bits_used_per_slot length must match the trace")
    if (bits < 0).any():  # the method, not np.any, whose dispatch costs about as much as the test
        raise InvalidScheduleError("negative bits on a slot")
    volume, limit, used, used_volume = trace._volumes
    over = bits > limit
    if over.any():
        k = int(np.flatnonzero(over)[0])
        if c[k] == 0:
            raise InvalidScheduleError(f"bits used on zero-capacity slot {k}")
        raise InvalidScheduleError(f"slot {k} used {bits[k]} bits, volume is {volume[k]}")
    ratio = np.zeros_like(bits)
    ratio[used] = bits[used] / used_volume
    return float(ratio.sum() * trace.slot_duration / session_length)


def compute_quality(spec: VideoSpec, plan: QualityPlan) -> float:
    """Weight-averaged fraction of frames delivered at each level.

    Delivering one frame at level j consumes b_j / frame_rate bits, so the
    normalized weighted bit integral reduces to the weighted frame
    fraction: sum_j w_j * frames_at_level_j / total_frames.
    """
    if plan.n_segments != spec.n_segments:
        raise ValueError("plan length does not match the video")
    counts = np.zeros(spec.n_levels)
    for start, end, level in plan.spans():
        if not 1 <= level <= spec.n_levels:
            raise ValueError("plan contains out-of-range level indices")
        counts[level - 1] += end - start
    return float(np.dot(spec.weights, counts) / spec.n_segments)


def compute_cost(sigma: float, rho: float, a: float) -> float:
    """Planner objective: utilization minus a times quality."""
    if a < 0:
        raise ValueError("trade-off parameter a must be >= 0")
    return sigma - a * rho
