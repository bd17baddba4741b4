"""Capacity-trace acquisition and manipulation.

Three sources feed the planner: synthetic traces drawn around a mean,
drive-test bandwidth logs ingested from CSV and mapped from space to time
at a chosen travel speed, and trace files exported by this package.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    MissingColumnError,
    NonMonotonicTimestampError,
    StationaryLogError,
    TraceFormatError,
    TraceIngestError,
)
from .model import CapacityTrace

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Uniform i.i.d. capacities on [mean*(1-spread), mean*(1+spread)]."""

    mean_bps: float
    window_slots: int
    slot_duration: float = 1.0
    seed: int = 0
    spread_fraction: float = 0.5

    def __post_init__(self):
        if self.mean_bps <= 0:
            raise ValueError("mean_bps must be positive")
        if self.window_slots < 1:
            raise ValueError("window_slots must be >= 1")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if not 0 <= self.spread_fraction < 1:
            raise ValueError("spread_fraction must lie in [0, 1)")


def generate_synthetic(config: SyntheticTraceConfig) -> CapacityTrace:
    """Seeded synthetic capacity window; identical for identical config."""
    rng = np.random.default_rng(config.seed)
    lo = config.mean_bps * (1 - config.spread_fraction)
    hi = config.mean_bps * (1 + config.spread_fraction)
    caps = rng.uniform(lo, hi, config.window_slots)
    return CapacityTrace(slot_duration=config.slot_duration, capacities=tuple(caps.tolist()))


@dataclass(frozen=True)
class ColumnMap:
    """Header names of the fields a drive-test CSV must provide."""

    timestamp_ms: str = "timestamp_ms"
    latitude: str = "latitude"
    longitude: str = "longitude"
    bytes_received: str = "bytes"
    delimiter: str = ","


@dataclass(frozen=True)
class RawBandwidthLog:
    """Validated drive-test samples: time, position, bytes per interval."""

    timestamps_ms: tuple[float, ...]
    latitudes: tuple[float, ...]
    longitudes: tuple[float, ...]
    bytes_received: tuple[float, ...]

    @property
    def n_samples(self) -> int:
        return len(self.timestamps_ms)


def ingest_csv(path, column_map: ColumnMap = ColumnMap()) -> RawBandwidthLog:
    """Parse and validate a drive-test bandwidth CSV.

    Raises MissingColumnError when a declared column is absent,
    NonMonotonicTimestampError (naming the line) when timestamps repeat or
    go backwards, and TraceIngestError (naming the line) for rows that do
    not parse or carry out-of-range coordinates.
    """
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise TraceIngestError(f"cannot read {path}: {exc}") from exc
    ts, lat, lon, nbytes = [], [], [], []
    with handle:
        reader = csv.DictReader(handle, delimiter=column_map.delimiter)
        fields = reader.fieldnames or []
        for name in (
            column_map.timestamp_ms,
            column_map.latitude,
            column_map.longitude,
            column_map.bytes_received,
        ):
            if name not in fields:
                raise MissingColumnError(f"column {name!r} missing from {path} header")
        for row in reader:
            line = reader.line_num
            try:
                t = float(row[column_map.timestamp_ms])
                la = float(row[column_map.latitude])
                lo = float(row[column_map.longitude])
                b = float(row[column_map.bytes_received])
            except (TypeError, ValueError) as exc:
                raise TraceIngestError(f"unparseable row: {exc}", line=line) from exc
            if not -90 <= la <= 90 or not -180 <= lo <= 180:
                raise TraceIngestError(f"coordinates ({la}, {lo}) outside WGS-84 ranges", line=line)
            if b < 0:
                raise TraceIngestError(f"negative byte count {b}", line=line)
            if ts and t <= ts[-1]:
                raise NonMonotonicTimestampError(
                    f"timestamp {t} does not increase past {ts[-1]}", line=line
                )
            ts.append(t)
            lat.append(la)
            lon.append(lo)
            nbytes.append(b)
    if len(ts) < 2:
        raise TraceIngestError(f"{path} holds {len(ts)} samples; at least 2 required")
    return RawBandwidthLog(tuple(ts), tuple(lat), tuple(lon), tuple(nbytes))


def haversine_m(lat1, lon1, lat2, lon2) -> float:
    """Great-circle distance in meters."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def temporal_mapping(
    log: RawBandwidthLog, speed_kmph: float, slot_duration: float
) -> CapacityTrace:
    """Replay a spatial throughput profile at a constant travel speed.

    Cumulative great-circle distance is accumulated along the samples,
    bits are spread uniformly over each inter-sample hop, the route is
    re-traversed at ``speed_kmph``, and the bits falling inside each
    ``slot_duration`` stretch become that slot's average capacity. Total
    transferred bits are conserved exactly (the last, partial slot is kept).
    """
    if speed_kmph <= 0:
        raise ValueError("speed must be positive")
    if slot_duration <= 0:
        raise ValueError("slot_duration must be positive")
    hops = [
        haversine_m(log.latitudes[i], log.longitudes[i], log.latitudes[i + 1], log.longitudes[i + 1])
        for i in range(log.n_samples - 1)
    ]
    cum_d = np.concatenate([[0.0], np.cumsum(hops)])
    total_d = float(cum_d[-1])
    if total_d <= 0:
        raise StationaryLogError(
            "log covers zero distance; slot it on its own timestamps instead"
        )
    # bits per hop; the first sample's bytes belong to the first hop
    hop_bits = np.asarray(log.bytes_received[1:], dtype=float) * 8.0
    hop_bits[0] += log.bytes_received[0] * 8.0
    cum_bits = np.concatenate([[0.0], np.cumsum(hop_bits)])
    speed = speed_kmph / 3.6  # m/s
    duration = total_d / speed
    n_slots = max(1, math.ceil(duration / slot_duration - 1e-12))
    edges_d = np.minimum(np.arange(n_slots + 1) * slot_duration * speed, total_d)
    bits_at_edge = np.interp(edges_d, cum_d, cum_bits)
    slot_bits = np.diff(bits_at_edge)
    return CapacityTrace(
        slot_duration=slot_duration, capacities=tuple((slot_bits / slot_duration).tolist())
    )


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
