"""Seeded input files for the benchmark workloads.

Depends on numpy only, never on ``abrplan``: the program under test
receives nothing but the files written here, in its own trace-export CSV
format and video-spec JSON format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The stock five-level ladder (abrplan.defaults at the commit that
# introduced this benchmark).
STOCK_LEVELS = (
    (0.4e6, 0.09),
    (0.75e6, 0.17),
    (1.0e6, 0.22),
    (2.5e6, 0.55),
    (4.5e6, 1.0),
)


@dataclass(frozen=True)
class InputPlan:
    """What one workload feeds the program: one video spec and a pool of
    synthetic capacity windows, window ``i`` drawn with seed ``seed + i``
    as uniform i.i.d. capacities on ``mean * (1 -+ spread)``."""

    video: dict
    mean_bps: float
    window_slots: int
    pool: int
    spread_fraction: float = 0.5
    slot_duration: float = 1.0


def video_json(n_segments, frames_per_segment, frame_rate, prefetch_frames, levels) -> dict:
    return {
        "n_segments": n_segments,
        "frames_per_segment": frames_per_segment,
        "frame_rate": frame_rate,
        "prefetch_frames": prefetch_frames,
        "levels": [{"bitrate_bps": b, "weight": w} for b, w in levels],
    }


def synthetic_capacities(plan: InputPlan, seed: int) -> list[float]:
    """Same draw as ``abrplan.generate_synthetic`` for the same config, so
    the stock workload's window ``s`` is the stock seed-``s`` instance."""
    rng = np.random.default_rng(seed)
    lo = plan.mean_bps * (1 - plan.spread_fraction)
    hi = plan.mean_bps * (1 + plan.spread_fraction)
    return rng.uniform(lo, hi, plan.window_slots).tolist()


def trace_csv(capacities: list[float], slot_duration: float) -> str:
    """The package's trace-export format, floats written with repr so the
    round trip is bit-exact."""
    lines = [f"# slot_duration={slot_duration!r}", "slot_index,capacity_bps"]
    lines += [f"{i},{c!r}" for i, c in enumerate(capacities)]
    return "\n".join(lines) + "\n"


def write_inputs(plan: InputPlan, seed: int, out_dir: Path) -> list[Path]:
    """Write ``video.json`` and ``trace-NNNN.csv`` for every pool window;
    return the trace paths in pool order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "video.json").write_text(json.dumps(plan.video, indent=2) + "\n")
    paths = []
    for i in range(plan.pool):
        path = out_dir / f"trace-{i:04d}.csv"
        path.write_text(trace_csv(synthetic_capacities(plan, seed + i), plan.slot_duration))
        paths.append(path)
    return paths
