"""Batch experiment driver.

Subcommands reproduce the planner studies end to end and emit
machine-readable results (JSON for single runs, CSV for sweeps) for
external plotting. Every command is reproducible bit-for-bit from its
seed and flags; wall-clock data only ever lands in metadata fields.

Exit codes: 0 ok, 2 infeasible session, 3 I/O failure, 4 bad config.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import jsonschema

from . import __version__
from .defaults import default_trace_config, default_video_spec
from .errors import AbrPlanError, NoFeasibleSessionError, TraceFormatError, TraceIngestError
from .model import CapacityTrace, QualityLevel, VideoSpec, compute_cost
from .planner import (
    InvestConfig,
    StallPolicy,
    enumerate_candidates,
    plan_session,
    plan_with_stalls,
    relative_performance_error,
    select_candidate,
)
from .sim import evaluate
from .traces import coarsen, generate_synthetic, load_trace, mean_trace, write_text_atomic

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_CONFIG = 4

SCHEMA_VERSION = 1

PLAN_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "schema",
        "a",
        "mode",
        "alpha_th",
        "utilization",
        "quality",
        "cost",
        "plan",
        "candidates_evaluated",
        "benchmark",
        "startup_slot",
        "arrived_frames",
        "watched_frames",
        "bits_used_per_slot",
        "metadata",
    ],
    "properties": {
        "schema": {"const": f"abrplan.plan/{SCHEMA_VERSION}"},
        "a": {"type": "number", "minimum": 0},
        "mode": {"enum": ["optimal", "invest"]},
        "alpha_th": {"type": "number", "minimum": 0},
        "utilization": {"type": "number", "minimum": 0},
        "quality": {"type": "number", "minimum": 0},
        "cost": {"type": "number"},
        "plan": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "candidates_evaluated": {"type": "integer", "minimum": 1},
        "benchmark": {
            "type": "object",
            "required": ["alpha", "utilization", "quality", "cost"],
        },
        "startup_slot": {"type": "integer", "minimum": 0},
        "arrived_frames": {"type": "array", "items": {"type": "number"}},
        "watched_frames": {"type": "array", "items": {"type": "number"}},
        "bits_used_per_slot": {"type": "array", "items": {"type": "number"}},
        "metadata": {"type": "object"},
    },
}

_CSV_SCHEMAS = {
    "sweep_a": ("a", "alpha_th", "utilization", "quality", "cost"),
    "stall_scan": ("stall_segment", "stall_slot", "cost_before", "cost_after", "feasible"),
    "robustness": ("realization", "p_error_sigma", "p_error_rho", "stalled"),
    "bench": ("kind", "value", "mean_runtime_s", "accuracy_sigma", "accuracy_rho", "accuracy_cost"),
}


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def load_video_spec(path) -> VideoSpec:
    """Video description JSON: segment/frame counts, frame rate, prefetch
    threshold, and the (bitrate_bps, weight) level ladder."""
    raw = json.loads(Path(path).read_text())
    return VideoSpec(
        n_segments=raw["n_segments"],
        frames_per_segment=raw["frames_per_segment"],
        frame_rate=raw["frame_rate"],
        prefetch_frames=raw["prefetch_frames"],
        levels=tuple(QualityLevel(lvl["bitrate_bps"], lvl["weight"]) for lvl in raw["levels"]),
    )


def _resolve_video(video_path) -> VideoSpec:
    if video_path is None:
        return default_video_spec()
    try:
        return load_video_spec(video_path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read video spec: {exc}")
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        _fail(EXIT_CONFIG, f"bad video spec {video_path}: {exc}")


def _resolve_trace(trace_path, synthetic_seed, slot_period) -> CapacityTrace:
    if (trace_path is None) == (synthetic_seed is None):
        _fail(EXIT_CONFIG, "exactly one of --trace and --synthetic-seed is required")
    if trace_path is not None:
        try:
            trace = load_trace(trace_path)
        except (TraceFormatError, TraceIngestError, OSError) as exc:
            _fail(EXIT_IO, str(exc))
    else:
        trace = generate_synthetic(default_trace_config(synthetic_seed))
    if slot_period is not None:
        trace = coarsen(trace, _slot_factor(slot_period, trace.slot_duration))
    return trace


def _slot_factor(slot_period, slot_duration) -> int:
    """How many trace slots make one --slot period; exits 4 unless whole."""
    factor = slot_period / slot_duration
    if abs(factor - round(factor)) > 1e-9 or factor < 1:
        _fail(
            EXIT_CONFIG,
            f"--slot {slot_period} is not a multiple of the trace slot duration {slot_duration}",
        )
    return int(round(factor))


def _invest_config(mode, quantum_q):
    if mode != "invest":
        return None
    if quantum_q is None:
        _fail(EXIT_CONFIG, "--mode invest requires --quantum-q")
    try:
        return InvestConfig(quantum_bits=quantum_q)
    except ValueError as exc:
        _fail(EXIT_CONFIG, str(exc))


def _write_csv(path, name: str, rows: list[dict]) -> None:
    """Validate rows against the named schema, then write atomically:
    nothing lands on disk unless every row checks out."""
    columns = _CSV_SCHEMAS[name]
    lines = [f"# schema: abrplan.{name}/{SCHEMA_VERSION}", ",".join(columns)]
    for row in rows:
        if set(row) != set(columns):
            raise AbrPlanError(f"row {row} does not match schema {name}")
        lines.append(",".join(_csv_cell(row[c]) for c in columns))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _check_jobs(ctx, param, jobs):
    """--jobs callback: exits 4 unless it is >= 1, and unless it is 1 on a
    command that runs serially (all but bench)."""
    if jobs < 1:
        _fail(EXIT_CONFIG, "--jobs must be >= 1")
    if jobs > 1 and ctx.command.name != "bench":
        _fail(EXIT_CONFIG, f"{ctx.command.name} runs serially: --jobs must be 1")
    return jobs


def _common_options(f):
    f = click.option("--video", type=click.Path(), default=None, help="video spec JSON (defaults to the stock 3-minute video)")(f)
    f = click.option("--trace", "trace_path", type=click.Path(), default=None, help="capacity trace CSV export")(f)
    f = click.option("--synthetic-seed", type=int, default=None, help="generate the stock synthetic window with this seed")(f)
    f = click.option("--mode", type=click.Choice(["optimal", "invest"]), default="optimal", show_default=True)(f)
    f = click.option("--quantum-q", type=float, default=None, help="bits abandoned per threshold step (invest mode)")(f)
    f = click.option("--slot", "slot_period", type=float, default=None, help="resample the trace to this sampling period in seconds")(f)
    f = click.option("--out", type=click.Path(), required=True, help="output file")(f)
    f = click.option("--jobs", type=int, default=1, show_default=True, callback=_check_jobs, help="parallel workers for sweep cells (bench only)")(f)
    return f


class _Group(click.Group):
    """Ends a command that leaves an OSError uncaught (an output file or
    directory that cannot be written) with exit 3 and a one-line message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OSError as exc:
            _fail(EXIT_IO, f"I/O failure: {exc}")


@click.group(cls=_Group, context_settings={"auto_envvar_prefix": "ABRPLAN"})
@click.version_option(version=__version__, prog_name="abrplan")
def main():
    """Anticipative streaming planner experiment driver."""


@main.command("plan")
@_common_options
@click.option("--a", "a_value", type=float, required=True, help="utilization/quality trade-off weight")
def cmd_plan(video, trace_path, synthetic_seed, mode, quantum_q, slot_period, out, jobs, a_value):
    """Plan one session and write a JSON report (includes the greedy
    minimum-threshold benchmark for comparison)."""
    if a_value < 0:
        _fail(EXIT_CONFIG, "--a must be >= 0")
    spec = _resolve_video(video)
    trace = _resolve_trace(trace_path, synthetic_seed, slot_period)
    invest = _invest_config(mode, quantum_q)
    try:
        candidates, examined = enumerate_candidates(trace, spec, mode, invest)
        best = select_candidate(candidates, a_value)
    except NoFeasibleSessionError as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    bench = candidates[0]  # lowest threshold = greedy benchmark
    outcome = best.outcome
    report = {
        "schema": f"abrplan.plan/{SCHEMA_VERSION}",
        "a": a_value,
        "mode": mode,
        "alpha_th": best.alpha,
        "utilization": outcome.utilization,
        "quality": outcome.quality,
        "cost": compute_cost(outcome.utilization, outcome.quality, a_value),
        "plan": list(best.plan.segment_levels),
        "candidates_evaluated": examined,
        "benchmark": {
            "alpha": bench.alpha,
            "utilization": bench.sigma,
            "quality": bench.rho,
            "cost": compute_cost(bench.sigma, bench.rho, a_value),
        },
        "startup_slot": outcome.startup_slot,
        "arrived_frames": list(outcome.arrived_frames),
        "watched_frames": list(outcome.watched_frames),
        "bits_used_per_slot": list(outcome.bits_used_per_slot),
        "metadata": {"created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")},
    }
    jsonschema.validate(report, PLAN_REPORT_SCHEMA)
    write_text_atomic(out, json.dumps(report, indent=2) + "\n")
    click.echo(f"alpha_th={best.alpha} cost={report['cost']:.6g} -> {out}")


@main.command("sweep-a")
@_common_options
@click.option("--a", "a_values", type=float, multiple=True, help="trade-off weights (repeatable)")
@click.option("--dump-trajectories", type=click.Path(), default=None, help="directory for per-a trajectory JSON dumps")
def cmd_sweep_a(video, trace_path, synthetic_seed, mode, quantum_q, slot_period, out, jobs, a_values, dump_trajectories):
    """Plan the same instance across trade-off weights; one CSV row per a."""
    if not a_values:
        _fail(EXIT_CONFIG, "at least one --a value is required")
    if any(a < 0 for a in a_values):
        _fail(EXIT_CONFIG, "--a values must be >= 0")
    spec = _resolve_video(video)
    trace = _resolve_trace(trace_path, synthetic_seed, slot_period)
    invest = _invest_config(mode, quantum_q)
    try:
        candidates, _ = enumerate_candidates(trace, spec, mode, invest)
    except NoFeasibleSessionError as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    rows = []
    for a in a_values:
        best = select_candidate(candidates, a)
        rows.append(
            {
                "a": a,
                "alpha_th": best.alpha,
                "utilization": best.sigma,
                "quality": best.rho,
                "cost": compute_cost(best.sigma, best.rho, a),
            }
        )
        if dump_trajectories is not None:
            dump_dir = Path(dump_trajectories)
            dump_dir.mkdir(parents=True, exist_ok=True)
            dump = {
                "a": a,
                "alpha_th": best.alpha,
                "plan": list(best.plan.segment_levels),
                "arrived_frames": list(best.outcome.arrived_frames),
                "watched_frames": list(best.outcome.watched_frames),
            }
            write_text_atomic(dump_dir / f"trajectory_a={a:g}.json", json.dumps(dump, indent=2) + "\n")
    _write_csv(out, "sweep_a", rows)
    click.echo(f"{len(rows)} rows -> {out}")


@main.command("stall-scan")
@_common_options
@click.option("--a", "a_value", type=float, required=True)
@click.option("--stride", type=int, default=1, show_default=True, help="scan every n-th segment position")
def cmd_stall_scan(video, trace_path, synthetic_seed, mode, quantum_q, slot_period, out, jobs, a_value, stride):
    """Force one stall at each admissible video position and record the
    objective before and after."""
    if a_value < 0:
        _fail(EXIT_CONFIG, "--a must be >= 0")
    if stride < 1:
        _fail(EXIT_CONFIG, "--stride must be >= 1")
    spec = _resolve_video(video)
    trace = _resolve_trace(trace_path, synthetic_seed, slot_period)
    invest = _invest_config(mode, quantum_q)
    try:
        base = plan_session(trace, spec, a_value, mode, invest)
    except NoFeasibleSessionError as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    cost_before = base.outcome.cost
    rows = []
    for seg in range(2, spec.n_segments + 1, stride):
        row = {
            "stall_segment": seg,
            "stall_slot": -1,
            "cost_before": cost_before,
            "cost_after": float("nan"),
            "feasible": False,
        }
        try:
            split = plan_with_stalls(
                trace, spec, a_value, StallPolicy(1, (seg,)), mode, invest
            )
        except (NoFeasibleSessionError, AbrPlanError):
            rows.append(row)
            continue
        row.update(
            stall_slot=split.part_start_slots[1],
            cost_after=split.cost,
            feasible=True,
        )
        rows.append(row)
    _write_csv(out, "stall_scan", rows)
    click.echo(f"{len(rows)} positions -> {out}")


@main.command("robustness")
@_common_options
@click.option("--a", "a_value", type=float, required=True)
@click.option("--trace-dir", type=click.Path(), required=True, help="directory of realization trace CSVs")
def cmd_robustness(video, trace_path, synthetic_seed, mode, quantum_q, slot_period, out, jobs, a_value, trace_dir):
    """Plan on the mean of all realizations, evaluate that plan on each
    realization, and report the relative performance errors."""
    if trace_path is not None or synthetic_seed is not None:
        _fail(EXIT_CONFIG, "robustness takes its traces from --trace-dir only")
    if a_value < 0:
        _fail(EXIT_CONFIG, "--a must be >= 0")
    spec = _resolve_video(video)
    invest = _invest_config(mode, quantum_q)
    files = sorted(Path(trace_dir).glob("*.csv"))
    if not files:
        _fail(EXIT_IO, f"no realization CSVs found in {trace_dir}")
    try:
        realizations = [load_trace(f) for f in files]
    except (TraceFormatError, OSError) as exc:
        _fail(EXIT_IO, str(exc))
    try:
        base_trace = mean_trace(realizations)
    except ValueError as exc:
        _fail(EXIT_CONFIG, f"realizations in {trace_dir}: {exc}")
    if slot_period is not None:
        factor = _slot_factor(slot_period, base_trace.slot_duration)
        base_trace = coarsen(base_trace, factor)
        realizations = [coarsen(t, factor) for t in realizations]
    try:
        result = plan_session(base_trace, spec, a_value, mode, invest)
    except NoFeasibleSessionError as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    rows = []
    for f, real in zip(files, realizations):
        row = {
            "realization": f.stem,
            "p_error_sigma": float("nan"),
            "p_error_rho": float("nan"),
            "stalled": True,
        }
        try:
            real_out = evaluate(real, result.alpha_th, spec, result.plan, a_value, strict=False)
        except AbrPlanError:
            rows.append(row)
            continue
        row.update(
            p_error_sigma=relative_performance_error(
                real_out.utilization, result.outcome.utilization
            ),
            p_error_rho=relative_performance_error(real_out.quality, result.outcome.quality),
            stalled=bool(real_out.stall_events),
        )
        rows.append(row)
    _write_csv(out, "robustness", rows)
    click.echo(f"{len(rows)} realizations -> {out}")


def _bench_cell(args):
    """One (variant, seed) benchmark cell; module-level for process pools."""
    spec, kind, value, seed, a_value = args
    trace = generate_synthetic(default_trace_config(seed))
    if kind == "period":
        trace = coarsen(trace, int(round(value / trace.slot_duration)))
        mode, invest = "optimal", None
    else:
        mode, invest = "invest", InvestConfig(quantum_bits=value)
    t0 = time.perf_counter()
    try:
        result = plan_session(trace, spec, a_value, mode, invest)
    except NoFeasibleSessionError:
        return (time.perf_counter() - t0, None, None, None)
    runtime = time.perf_counter() - t0
    out = result.outcome
    return (runtime, out.utilization, out.quality, out.cost)


@main.command("bench")
@_common_options
@click.option("--a", "a_value", type=float, default=4.5, show_default=True)
@click.option("--periods", default="", help="comma-separated sampling periods in seconds (first is the baseline)")
@click.option("--quantums", default="", help="comma-separated invest quantums in bits")
@click.option("--n-traces", type=int, default=100, show_default=True, help="seeded traces to average over")
def cmd_bench(video, trace_path, synthetic_seed, mode, quantum_q, slot_period, out, jobs, a_value, periods, quantums, n_traces):
    """Average runtime and result accuracy across seeded traces for
    different sampling periods and threshold quantums, relative to the
    finest-grained optimal-threshold baseline."""
    if trace_path is not None or synthetic_seed is not None:
        _fail(EXIT_CONFIG, "bench generates its own seeded traces")
    if n_traces < 1:
        _fail(EXIT_CONFIG, "--n-traces must be >= 1")
    spec = _resolve_video(video)
    try:
        period_list = [float(p) for p in periods.split(",") if p.strip()]
        quantum_list = [float(q) for q in quantums.split(",") if q.strip()]
    except ValueError as exc:
        _fail(EXIT_CONFIG, f"bad sweep list: {exc}")
    if not period_list and not quantum_list:
        _fail(EXIT_CONFIG, "nothing to sweep: give --periods and/or --quantums")
    base_dt = default_trace_config(0).slot_duration
    variants = [("period", base_dt)]
    variants += [("period", p) for p in period_list if p != base_dt]
    variants += [("quantum", q) for q in quantum_list]
    cells = [
        (spec, kind, value, seed, a_value)
        for kind, value in variants
        for seed in range(n_traces)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(_bench_cell, cells))
    else:
        outputs = [_bench_cell(c) for c in cells]
    per_variant = {}
    for (kind, value), chunk_start in zip(variants, range(0, len(cells), n_traces)):
        chunk = outputs[chunk_start : chunk_start + n_traces]
        ok = [c for c in chunk if c[1] is not None]
        if not ok:
            _fail(EXIT_INFEASIBLE, f"every seeded trace was infeasible for {kind}={value}")
        per_variant[(kind, value)] = tuple(
            sum(c[i] for c in ok) / len(ok) for i in range(4)
        )
    baseline = per_variant[("period", base_dt)]
    rows = []
    requested = [("period", p) for p in period_list] + [("quantum", q) for q in quantum_list]
    for kind, value in requested:
        runtime, sigma, rho, cost = per_variant[(kind, value)]
        rows.append(
            {
                "kind": kind,
                "value": value,
                "mean_runtime_s": runtime,
                "accuracy_sigma": sigma / baseline[1],
                "accuracy_rho": rho / baseline[2],
                "accuracy_cost": cost / baseline[3] if baseline[3] != 0 else float("nan"),
            }
        )
    _write_csv(out, "bench", rows)
    click.echo(f"{len(rows)} variants -> {out}")


if __name__ == "__main__":
    main()
