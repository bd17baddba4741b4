"""Capacity-trace acquisition and manipulation.

Two sources feed the planner: synthetic traces drawn around a mean, and
trace files exported by this package.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TraceFormatError
from .model import CapacityTrace


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Uniform i.i.d. capacities on [mean*(1-spread), mean*(1+spread)]."""

    mean_bps: float
    window_slots: int
    slot_duration: float = 1.0
    seed: int = 0
    spread_fraction: float = 0.5

    def __post_init__(self):
        if not 0 < self.mean_bps < math.inf:  # also rejects nan
            raise ValueError("mean_bps must be positive and finite")
        for name, low in (("window_slots", 1), ("seed", 0)):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {count!r}")
        if not 0 < self.slot_duration < math.inf:
            raise ValueError("slot_duration must be positive and finite")
        if not 0 <= self.spread_fraction < 1:
            raise ValueError("spread_fraction must lie in [0, 1)")


def generate_synthetic(config: SyntheticTraceConfig) -> CapacityTrace:
    """Seeded synthetic capacity window; identical for identical config."""
    rng = np.random.default_rng(config.seed)
    lo = config.mean_bps * (1 - config.spread_fraction)
    hi = config.mean_bps * (1 + config.spread_fraction)
    caps = rng.uniform(lo, hi, config.window_slots)
    return CapacityTrace(slot_duration=config.slot_duration, capacities=tuple(caps.tolist()))


def mean_trace(traces: list[CapacityTrace]) -> CapacityTrace:
    """Per-slot arithmetic mean of equally slotted traces."""
    if not traces:
        raise ValueError("mean_trace needs at least one trace")
    first = traces[0]
    for t in traces[1:]:
        if t.slot_duration != first.slot_duration or t.n_slots != first.n_slots:
            raise ValueError("traces must share slot duration and length")
    stacked = np.stack([t.as_array for t in traces])
    return CapacityTrace(slot_duration=first.slot_duration, capacities=tuple(stacked.mean(axis=0).tolist()))


def coarsen(trace: CapacityTrace, factor: int) -> CapacityTrace:
    """Average groups of ``factor`` slots into one slot of ``factor`` times
    the duration (a coarser sampling period). A trailing partial group is
    averaged over the slots it actually has."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return trace
    c = trace.as_array
    out = [float(c[i : i + factor].mean()) for i in range(0, c.shape[0], factor)]
    return CapacityTrace(slot_duration=trace.slot_duration * factor, capacities=tuple(out))


_TRACE_HEADER = "slot_index,capacity_bps"


def save_trace(trace: CapacityTrace, path) -> None:
    """Export as CSV: one comment line carrying the slot duration, then
    (slot_index, capacity_bps) rows. Round-trips bit-exactly."""
    lines = [f"# slot_duration={trace.slot_duration!r}", _TRACE_HEADER]
    lines += [f"{i},{c!r}" for i, c in enumerate(trace.capacities)]
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` in one step: write a temp
    file in the same directory, then ``os.replace`` it over the target.
    Readers see the old content or the new, never a part; when any step
    fails the temp file is removed and the target is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_trace(path) -> CapacityTrace:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TraceFormatError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("# slot_duration="):
        raise TraceFormatError(f"{path} is not a trace export (missing slot_duration header)")
    try:
        slot_duration = float(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise TraceFormatError(f"bad slot_duration in {path}") from exc
    if lines[1] != _TRACE_HEADER:
        raise TraceFormatError(f"{path} has unexpected column header {lines[1]!r}")
    caps = []
    for ln in lines[2:]:
        try:
            idx, cap = ln.split(",")
            caps.append((int(idx), float(cap)))
        except ValueError as exc:
            raise TraceFormatError(f"bad row {ln!r} in {path}") from exc
    caps.sort()
    if [i for i, _ in caps] != list(range(len(caps))):
        raise TraceFormatError(f"{path} slot indices are not 0..n-1")
    try:
        return CapacityTrace(slot_duration=slot_duration, capacities=tuple(c for _, c in caps))
    except ValueError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc
