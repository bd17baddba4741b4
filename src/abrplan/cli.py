"""Batch experiment driver.

Subcommands reproduce the planner studies end to end and emit
machine-readable results (JSON for single runs, CSV for sweeps) for
external plotting. Every command is reproducible bit-for-bit from its
seed and flags; wall-clock data only ever lands in metadata fields.

Exit codes: 0 ok, 2 infeasible session, 3 I/O failure, 4 bad config.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

import click

from . import __version__
from .defaults import default_trace_config, default_video_spec
from .errors import AbrPlanError, NoFeasibleSessionError
from .model import CapacityTrace, QualityLevel, VideoSpec, compute_cost
from .planner import (
    enumerate_candidates,
    plan_session,
    plan_with_stalls,
    relative_performance_error,
    select_candidate,
)
from .sim import evaluate
from .traces import coarsen, generate_synthetic, load_trace, mean_trace, write_text_atomic

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


@functools.cache
def _plan_report_validator():
    """Built once, on the first report: ``jsonschema.validate`` would check
    the schema itself on every report, and importing it costs megabytes."""
    import jsonschema

    return jsonschema.Draft202012Validator(PLAN_REPORT_SCHEMA)


_CSV_SCHEMAS = {
    "sweep_a": ("a", "alpha_th", "utilization", "quality", "cost"),
    "stall_scan": ("stall_segment", "stall_slot", "cost_before", "cost_after", "feasible"),
    "robustness": ("realization", "p_error_sigma", "p_error_rho", "stalled"),
    "bench": ("kind", "value", "mean_runtime_s", "accuracy_sigma", "accuracy_rho", "accuracy_cost"),
}


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Floats(click.ParamType):
    """Finite floats >= 0, or > 0 when ``strict``; with ``many`` a
    comma-separated list of them, as a tuple. (``click.FloatRange`` lets
    nan through, because every comparison with nan is False.)"""

    def __init__(self, strict: bool = False, many: bool = False):
        self.strict, self.many = strict, many
        self.name = "floats" if many else "float"

    def convert(self, value, param, ctx):
        items = [v for v in value.split(",") if v.strip()] if self.many else [value]
        try:
            xs = tuple(float(v) for v in items)
        except (TypeError, ValueError):
            self.fail(f"{value!r} is not a number{' list' if self.many else ''}", param, ctx)
        for x in xs:
            if not (0 < x < math.inf if self.strict else 0 <= x < math.inf):
                self.fail(f"{x!r} is not a finite number {'> 0' if self.strict else '>= 0'}", param, ctx)
        return xs if self.many else xs[0]


_NON_NEGATIVE = _Floats()
_POSITIVE = _Floats(strict=True)
_POSITIVE_LIST = _Floats(strict=True, many=True)
_COUNT = click.IntRange(min=1)


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
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise click.UsageError(f"bad video spec {video_path}: {exc}") from exc


def _resample(trace: CapacityTrace, slot_period) -> CapacityTrace:
    """The trace resampled to ``slot_period`` seconds a slot (as it is for
    None); a usage error unless that is a whole number >= 1 of its slots
    and the resampled window is a valid trace."""
    if slot_period is None:
        return trace
    factor = _slot_factor(slot_period, trace.slot_duration)
    try:
        return coarsen(trace, factor)
    except ValueError as exc:
        raise click.UsageError(f"cannot resample the trace to {slot_period} s slots: {exc}") from exc


def _slot_factor(slot_period, slot_duration) -> int:
    """How many trace slots make one sampling period; a usage error unless
    that is a whole number >= 1 and that many slots last a finite time."""
    factor = slot_period / slot_duration
    if not 1 <= factor < math.inf or abs(factor - round(factor)) > 1e-9 or slot_duration * round(factor) == math.inf:
        raise click.UsageError(
            f"sampling period {slot_period} is not a multiple of the trace slot duration {slot_duration}"
        )
    return int(round(factor))


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


def _stack(*options):
    """One decorator applying ``options`` in order (first = first in --help)."""
    return lambda f: functools.reduce(lambda g, option: option(g), reversed(options), f)


_video_option = click.option("--video", type=click.Path(), default=None, help="video spec JSON (defaults to the stock 3-minute video)")
_out_option = click.option("--out", type=click.Path(), required=True, help="output file")
_planning_options = _stack(
    click.option("--quantum-q", type=_POSITIVE, default=None, help="plan on the invest ladder, abandoning this many bits per threshold step"),
    click.option("--slot", "slot_period", type=_POSITIVE, default=None, help="resample the trace to this sampling period in seconds"),
)


def _instance_command(f):
    """Give a command the options of one planning instance and resolve
    them once: ``f`` is called with ``(spec, trace, quantum, out, ...)``,
    the trace resampled and the quantum None for every distinct capacity."""

    @functools.wraps(f)
    def command(video, trace_path, synthetic_seed, quantum_q, slot_period, **options):
        spec = _resolve_video(video)
        if (trace_path is None) == (synthetic_seed is None):
            raise click.UsageError("exactly one of --trace and --synthetic-seed is required")
        trace = load_trace(trace_path) if trace_path is not None else generate_synthetic(default_trace_config(synthetic_seed))
        return f(spec, _resample(trace, slot_period), quantum_q, **options)

    return _stack(
        _video_option,
        click.option("--trace", "trace_path", type=click.Path(), default=None, help="capacity trace CSV export"),
        click.option("--synthetic-seed", type=click.IntRange(min=0), default=None, help="generate the stock synthetic window with this seed"),
        _planning_options,
        _out_option,
    )(command)


class _Group(click.Group):
    """The one place a failure becomes an exit code and an ``error:`` line,
    around parsing and running a command alike: usage errors (the group's
    own options included) exit 4, abrplan errors exit with their
    ``exit_code``, OSErrors exit 3, an interrupt (Ctrl-C) exits 1.
    ``--help`` and ``--version`` exit 0."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.UsageError as exc:
            _fail(4, exc.format_message())
        except AbrPlanError as exc:
            _fail(exc.exit_code, str(exc))
        except OSError as exc:
            _fail(3, f"I/O failure: {exc}")
        except click.Abort:
            _fail(1, "aborted")


@click.group(cls=_Group, no_args_is_help=False, context_settings={"auto_envvar_prefix": "ABRPLAN"})
@click.version_option(version=__version__, prog_name="abrplan")
def main():
    """Anticipative streaming planner experiment driver."""


@main.command("plan")
@_instance_command
@click.option("--a", "a_value", type=_NON_NEGATIVE, required=True, help="utilization/quality trade-off weight")
def cmd_plan(spec, trace, quantum, out, a_value):
    """Plan one session and write a JSON report (includes the greedy
    minimum-threshold benchmark for comparison)."""
    result = plan_session(trace, spec, a_value, quantum)
    outcome, bench = result.outcome, result.benchmark
    report = {
        "schema": f"abrplan.plan/{SCHEMA_VERSION}",
        "a": a_value,
        "mode": "optimal" if quantum is None else "invest",
        "alpha_th": result.alpha_th,
        "utilization": outcome.utilization,
        "quality": outcome.quality,
        "cost": outcome.cost,
        "plan": list(result.plan.segment_levels),
        "candidates_evaluated": result.candidates_evaluated,
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
    _plan_report_validator().validate(report)
    write_text_atomic(out, json.dumps(report, indent=2) + "\n")
    click.echo(f"alpha_th={result.alpha_th} cost={outcome.cost:.6g} -> {out}")


@main.command("sweep-a")
@_instance_command
@click.option("--a", "a_values", type=_NON_NEGATIVE, multiple=True, required=True, help="trade-off weights (repeatable)")
@click.option("--dump-trajectories", type=click.Path(), default=None, help="directory for per-a trajectory JSON dumps")
def cmd_sweep_a(spec, trace, quantum, out, a_values, dump_trajectories):
    """Plan the same instance across trade-off weights; one CSV row per a."""
    candidates, _ = enumerate_candidates(trace, spec, quantum)
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
            write_text_atomic(dump_dir / f"trajectory_a={a!r}.json", json.dumps(dump, indent=2) + "\n")
    _write_csv(out, "sweep_a", rows)
    click.echo(f"{len(rows)} rows -> {out}")


@main.command("stall-scan")
@_instance_command
@click.option("--a", "a_value", type=_NON_NEGATIVE, required=True)
@click.option("--stride", type=_COUNT, default=1, show_default=True, help="scan every n-th segment position")
def cmd_stall_scan(spec, trace, quantum, out, a_value, stride):
    """Force one stall at each admissible video position and record the
    objective before and after."""
    cost_before = plan_session(trace, spec, a_value, quantum).outcome.cost
    rows = []
    for seg in range(2, spec.n_segments + 1, stride):
        try:
            split = plan_with_stalls(trace, spec, a_value, (seg,), quantum)
            after = {"stall_slot": split.part_start_slots[1], "cost_after": split.cost, "feasible": True}
        except AbrPlanError:
            after = {"stall_slot": -1, "cost_after": float("nan"), "feasible": False}
        rows.append({"stall_segment": seg, "cost_before": cost_before, **after})
    _write_csv(out, "stall_scan", rows)
    click.echo(f"{len(rows)} positions -> {out}")


@main.command("robustness")
@_stack(_video_option, _planning_options, _out_option)
@click.option("--a", "a_value", type=_NON_NEGATIVE, required=True)
@click.option("--trace-dir", type=click.Path(), required=True, help="directory of realization trace CSVs")
def cmd_robustness(video, quantum_q, slot_period, out, a_value, trace_dir):
    """Plan on the mean of all realizations, evaluate that plan on each
    realization, and report the relative performance errors. With --slot
    the mean is taken at the realizations' own period, then resampled."""
    spec = _resolve_video(video)
    files = sorted(Path(trace_dir).glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no realization CSVs found in {trace_dir}")
    realizations = [load_trace(f) for f in files]
    try:
        base_trace = mean_trace(realizations)
    except ValueError as exc:
        raise click.UsageError(f"realizations in {trace_dir}: {exc}") from exc
    result = plan_session(_resample(base_trace, slot_period), spec, a_value, quantum_q)
    rows = []
    for f, real in zip(files, realizations):
        try:
            real_out = evaluate(_resample(real, slot_period), result.alpha_th, spec, result.plan, a_value, strict=False)
            errors = {
                "p_error_sigma": relative_performance_error(real_out.utilization, result.outcome.utilization),
                "p_error_rho": relative_performance_error(real_out.quality, result.outcome.quality),
                "stalled": bool(real_out.stall_events),
            }
        except AbrPlanError:
            errors = {"p_error_sigma": float("nan"), "p_error_rho": float("nan"), "stalled": True}
        rows.append({"realization": f.stem, **errors})
    _write_csv(out, "robustness", rows)
    click.echo(f"{len(rows)} realizations -> {out}")


def _bench_cell(args):
    """One (variant, seed) benchmark cell; module-level for process pools.
    ``factor`` coarsens the seeded window; a ``quantum`` plans in invest
    mode. A window the planner cannot stream gives ``None`` scores."""
    spec, factor, quantum, seed, a_value = args
    trace = coarsen(generate_synthetic(default_trace_config(seed)), factor)
    t0 = time.perf_counter()
    try:
        result = plan_session(trace, spec, a_value, quantum)
    except AbrPlanError:
        return (time.perf_counter() - t0, None, None, None)
    runtime = time.perf_counter() - t0
    out = result.outcome
    return (runtime, out.utilization, out.quality, out.cost)


@main.command("bench")
@_stack(_video_option, _out_option)
@click.option("--jobs", type=_COUNT, default=1, show_default=True, help="parallel worker processes for the cells")
@click.option("--a", "a_value", type=_NON_NEGATIVE, default=4.5, show_default=True)
@click.option("--periods", type=_POSITIVE_LIST, default="", help="comma-separated sampling periods in whole seconds (1 s is the baseline)")
@click.option("--quantums", type=_POSITIVE_LIST, default="", help="comma-separated invest quantums in bits")
@click.option("--n-traces", type=_COUNT, default=100, show_default=True, help="seeded traces to average over")
def cmd_bench(video, out, jobs, a_value, periods, quantums, n_traces):
    """Average runtime and result accuracy across seeded traces for
    different sampling periods and threshold quantums, relative to the
    finest-grained optimal-threshold baseline."""
    if not periods and not quantums:
        raise click.UsageError("nothing to sweep: give --periods and/or --quantums")
    spec = _resolve_video(video)
    base_dt = default_trace_config(0).slot_duration
    # (kind, value) -> (coarsening factor, invest quantum); the baseline first
    variants = {("period", base_dt): (1, None)}
    variants.update({("period", p): (_slot_factor(p, base_dt), None) for p in periods})
    variants.update({("quantum", q): (1, q) for q in quantums})
    cells = [
        (spec, factor, quantum, seed, a_value)
        for factor, quantum in variants.values()
        for seed in range(n_traces)
    ]
    if jobs > 1:
        # imported here: the process-pool machinery is about 0.5 MB that no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:  # it forks every worker up front
            outputs = list(pool.map(_bench_cell, cells))
    else:
        outputs = [_bench_cell(c) for c in cells]
    per_variant = {}
    for (kind, value), chunk_start in zip(variants, range(0, len(cells), n_traces)):
        chunk = outputs[chunk_start : chunk_start + n_traces]
        ok = [c for c in chunk if c[1] is not None]
        if not ok:
            raise NoFeasibleSessionError(f"every seeded trace was infeasible for {kind}={value}")
        per_variant[(kind, value)] = tuple(
            sum(c[i] for c in ok) / len(ok) for i in range(4)
        )
    baseline = per_variant[("period", base_dt)]
    rows = []
    requested = [("period", p) for p in periods] + [("quantum", q) for q in quantums]
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
