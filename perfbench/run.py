"""abrplan benchmark runner.

    python3 perfbench/run.py --workload stock-plan --seed 0 --seconds 50 --trace 0

Generates the workload's inputs from ``--seed``, times the set-up in fresh
interpreters, then runs ops in a closed loop (one client; the next op
starts when the previous one returns) for ``--seconds`` and checks every
op's result. It prints each metric with its unit, a run record, and as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every op
twice, once with the program's layer entry points wrapped (see tracer.py)
and once without, and reports the per-layer metrics of the traced runs and
the tracing overhead. Run records and spans land in
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from inputs import write_inputs
from loader import REPO_ROOT, MissingProgramError, import_abrplan, load_inputs
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, load_expected

OUT_DIR = REPO_ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
# Candidate tail percentiles. Nothing above p90: on a shared 2-vCPU Xeon VM,
# bursts of ten or more slow ops came and went between runs and moved the
# 11th-largest op time of oracle-small by 35% across seeds.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)


class OpError:
    """An op that raised an error its workload does not treat as a result."""

    def __init__(self, exc: Exception):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.traceback = traceback.format_exc()


def run_op(workload, op, op_span=nullcontext):
    """Run one op; returns its result (or ``OpError``) and wall seconds."""
    with op_span():
        t0 = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # fails this op; the run goes on
            result = OpError(exc)
        return result, time.perf_counter() - t0


def run_loop(workload, ops, seconds):
    """Run ops in order, cycling through ``ops``, until ``seconds`` have
    passed (at least one op). Returns the (op, result) pairs and the per-op
    wall seconds."""
    results, durations = [], []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        op = ops[len(durations) % len(ops)]
        result, seconds_taken = run_op(workload, op)
        results.append((op, result))
        durations.append(seconds_taken)
    return results, durations


def count_failures(workload, results, expected) -> tuple[int, str | None]:
    failed, first = 0, None
    for op, result in results:
        try:
            if isinstance(result, OpError):
                raise RuntimeError(f"op {workload.key(op)} raised {result.text}\n{result.traceback}")
            workload.verify(op, result, expected)
        except Exception as exc:  # a failed check or a check that could not run
            failed += 1
            first = first or f"{type(exc).__name__}: {exc}"
    return failed, first


def measure_setup(input_dir: Path) -> list[float]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("loader.py")), str(input_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def tail(durations: list[float]) -> tuple[float, float, int]:
    """The highest of ``TAIL_PERCENTILES`` with ``TAIL_BEYOND`` ops beyond
    it, else the median; returns (value, percentile, ops beyond)."""
    n = len(durations)
    pct = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= TAIL_BEYOND), 50.0)
    value = float(np.percentile(durations, pct))
    return value, pct, sum(d > value for d in durations)


def machine_record() -> dict:
    commit = None
    if (REPO_ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(workload, ops, seconds, setup_samples):
    results, durations = run_loop(workload, ops, seconds)
    tail_s, tail_pct, beyond = tail(durations)
    metrics = {
        "op_s.p50": (statistics.median(durations), "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {"tail_percentile": tail_pct, "tail_ops_beyond": beyond, "setup_samples_s": setup_samples}
    return results, metrics, extra, []


def per_layer(workload, ops, seconds, spans_path: Path):
    """Run each op twice, traced and untraced, in alternating order so that
    drift in machine speed cancels out of the tracing overhead."""
    tracer = Tracer()
    results, traced_s, untraced_s = [], [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        op = ops[len(traced_s) % len(ops)]
        for traced in (True, False) if len(traced_s) % 2 == 0 else (False, True):
            if traced:
                tracer.install()
                try:
                    result, seconds_taken = run_op(workload, op, tracer.op)
                finally:
                    tracer.uninstall()
            else:
                result, seconds_taken = run_op(workload, op)
            results.append((op, result))
            (traced_s if traced else untraced_s).append(seconds_taken)
    metrics, absent = tracer.layer_metrics()
    n = len(traced_s)
    metrics["tracing.ops_per_s.traced"] = (n / sum(traced_s), "1/s")
    metrics["tracing.ops_per_s.untraced"] = (n / sum(untraced_s), "1/s")
    metrics["tracing.overhead"] = (sum(traced_s) / sum(untraced_s) - 1.0, "ratio")
    tracer.save(spans_path)
    extra = {
        "traced_ops": n,
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(REPO_ROOT)),
        "absent_targets": tracer.absent,
    }
    return results, metrics, extra, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ap = import_abrplan()
    except MissingProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    input_dir = OUT_DIR / f"inputs-{args.workload}-{os.getpid()}"
    try:
        write_inputs(workload.inputs, args.seed, input_dir)
        spec, traces = load_inputs(input_dir)
        workload.setup(ap, spec, traces, input_dir, args.seed)
        expected = load_expected(workload.name) if args.seed == DEFAULT_SEED else None
        ops = workload.ops()
        if args.trace:
            spans_path = OUT_DIR / f"{workload.name}-spans.npz"
            results, metrics, extra, absent = per_layer(workload, ops, args.seconds, spans_path)
        else:
            setup_samples = measure_setup(input_dir)
            results, metrics, extra, absent = end_to_end(workload, ops, args.seconds, setup_samples)
        failed, first_failure = count_failures(workload, results, expected)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    attempted = len(results)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "checked_against": "expected results" if expected is not None else "invariants",
        "ops": attempted,
        "failed_ops": failed / attempted,
        "setup_repeats": SETUP_REPEATS if not args.trace else 0,
        **extra,
        **machine_record(),
        "absent_metrics": absent,
        "first_failure": first_failure,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    if first_failure:
        print(f"first failure: {first_failure}", file=sys.stderr)

    print(f"{workload.name}  seed={args.seed}  ops={attempted}  checked against {record['checked_against']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'failed_ops':<36} {failed / attempted:>14.6g} share ({failed} of {attempted})")
    if "tail_percentile" in extra:
        print(f"  op_s.tail is p{extra['tail_percentile']:.4g} with {extra['tail_ops_beyond']} ops beyond it")
    for name in absent:
        print(f"  {name:<36} {'absent':>14}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
