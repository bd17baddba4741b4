"""Per-layer timings of the planner on the stock instance.

    python3 benchmarks/layers.py --out BENCH.json [--label NAME] [--src PATH] [--repeats 15]

The instance is stock seed 0: the 180-segment, 5-level default video over
the 190-slot window ``generate_synthetic(default_trace_config(0))``, in
optimal-threshold mode, with a = 4.5 for candidate selection. Timed items:

- ``probe``: one feasibility probe, ``exist_violation`` on the selected
  plan at the selected threshold (the plan is built once, outside the
  timing);
- ``fit``: the level fit for the selected threshold, probes included; its
  time divided by its probe count, simulated and looked up, is the mean
  cost of a probe as the fit makes it (``fit_per_probe``);
- ``evaluate``: the full evaluation of the selected candidate;
- ``select``: ``select_candidate`` over the seed's candidates;
- ``load_trace``: loading the stock window from a trace CSV export;
- ``enumerate``: one whole ``enumerate_candidates``, for reference;
- ``enumerate_30_seeds``: ``enumerate_candidates`` on each of the stock
  seeds 0-29 in turn (the enumeration that acceptance criteria 4 and 5
  run), timed as one call; it runs ``SEEDS_REPEATS`` times;
- ``oracle``: one ``exhaustive_best_plan`` at the minimum-capacity
  threshold, a = 0, on the ``oracle-small`` shape of perfbench: 10
  one-second segments of 4 frames, 4 frames of start-up, the stock
  ladder's lowest 4 levels, and the 14-slot 1.25 Mbps window of synthetic
  seed 0. Its node count, simulated sessions and lookups are recorded
  next to it (``oracle_*``).

Every other item runs ``--repeats`` times; one repeat calls it ``number`` times
and records the mean per call. The report gives the median and quartiles
over the repeats, and the Python and numpy versions. Next to the timings
it counts the probes of the fit and of the enumerations: ``*_probes`` are
simulated sessions (every call the planner makes to ``exist_violation``,
``feasible_arrivals``, ``transmit_video`` or ``evaluate``, so that a
version that scores a threshold with ``evaluate`` and one that scores it
with a transmit count the same sessions), ``*_lookups`` the probes
answered from the frame deadlines (calls of the test that
``planner._suffix_lookup`` builds; 0 for a version without it), and
``*_extensions`` the arrivals the planner extends by one run step instead
of simulating (calls of ``planner.extend_arrivals``; 0 for a version
without it), and ``*_deadline_checks`` the planner's calls of
``deadline_check``, each of which builds a start-up, a playback ramp and a
due-frame curve (0 for a version without it). A version whose fit checks
each threshold on its own makes two a threshold examined; one that
computes the window's due frames once makes about one an enumeration.
``seeds_digest`` hashes the 30 seeds' thresholds examined and candidates
(threshold, plan, and the float hex of σ and ρ), so that two versions
with the same results show the same digest.

End to end, the script also times whole ``abrplan`` processes
(``python -m abrplan.cli`` with ``PYTHONPATH`` set to ``--src``), each run
``CLI_RUNS`` times: ``plan`` and ``sweep-a`` (three values of a) on stock
seed 0, ``stall-scan --stride 20`` on it, and ``bench --periods 1,2
--n-traces 2``. It reports the median, minimum and maximum wall time.

The record also gives the line count of each module of the package under
``--src`` and their total (``source_lines``), the code-size figure the
ROADMAP tracks.

The run is appended to the JSON list in ``--out``. ``--src`` selects the
``src`` directory that ``abrplan`` is imported from (default: this
checkout's), so one copy of this script can time two versions of the
program.

Uses the standard library and numpy only; the timings in this process are
single-threaded, and the CLI runs start one process at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
STOCK_SEED = 0
STOCK_A = 4.5
# calls per repeat, chosen so that one repeat of each item takes 10-100 ms
NUMBER = {"probe": 200, "fit": 5, "evaluate": 50, "select": 1000, "load_trace": 50, "enumerate": 1, "enumerate_30_seeds": 1, "oracle": 4}
SEEDS = range(30)
SEEDS_REPEATS = 3
# the planner's names for a simulated session, where the version has them
SIMULATED_PROBES = ("exist_violation", "feasible_arrivals", "transmit_video", "evaluate")
ORACLE_SEED = 0
ORACLE_WINDOW = (1.25e6, 14)  # mean bits/s, one-second slots
# whole-process CLI runs (arguments before --out), each run CLI_RUNS times
CLI_COMMANDS = {
    "plan": ["plan", "--synthetic-seed", "0", "--a", "4.5"],
    "sweep-a": ["sweep-a", "--synthetic-seed", "0", "--a", "0.5", "--a", "4.5", "--a", "10"],
    "stall-scan": ["stall-scan", "--synthetic-seed", "0", "--a", "4.5", "--stride", "20"],
    "bench": ["bench", "--periods", "1,2", "--n-traces", "2"],
}
CLI_RUNS = 3


def import_abrplan(src: Path):
    sys.path.insert(0, str(src))
    import abrplan
    import abrplan.planner

    if Path(abrplan.__file__).resolve().parent != (src / "abrplan").resolve():
        raise SystemExit(f"abrplan was imported from {abrplan.__file__}, not from {src}")
    return abrplan


def git_state(src: Path):
    def git(*args):
        try:
            out = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return out.stdout.strip()

    commit = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--", ".")
    return commit, None if dirty is None else bool(dirty)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def source_lines(src: Path) -> dict:
    """Lines of each module of the ``abrplan`` package under ``src``, and their total."""
    lines = {path.name: len(path.read_text().splitlines()) for path in sorted((src / "abrplan").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def time_item(fn, repeats: int, number: int) -> dict:
    """Seconds per call: median and quartiles over ``repeats`` repeats of
    ``number`` calls, after one untimed call."""
    fn()
    per_call = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        per_call.append((perf_counter() - t0) / number)
    q1, _, q3 = statistics.quantiles(per_call, n=4)
    return {
        "median_s": statistics.median(per_call),
        "q1_s": q1,
        "q3_s": q3,
        "repeats": repeats,
        "number": number,
    }


def count_probes(ap, fn) -> dict:
    """Simulated and looked-up probes, extended arrivals and deadline
    checks of the planner while ``fn`` runs: its calls to the
    ``SIMULATED_PROBES``, to the tests that ``_suffix_lookup`` builds, to
    ``extend_arrivals`` and to ``deadline_check``."""
    counts = {"simulated": 0, "lookups": 0, "extensions": 0, "deadline_checks": 0}
    planner = ap.planner

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def counted_lookups(build):
        return lambda *args, **kwargs: counted("lookups", build(*args, **kwargs))

    patches = [(name, counted("simulated", getattr(planner, name))) for name in SIMULATED_PROBES if hasattr(planner, name)]
    if hasattr(planner, "_suffix_lookup"):
        patches.append(("_suffix_lookup", counted_lookups(planner._suffix_lookup)))
    for name, key in (("extend_arrivals", "extensions"), ("deadline_check", "deadline_checks")):
        if hasattr(planner, name):
            patches.append((name, counted(key, getattr(planner, name))))
    originals = [(name, getattr(planner, name)) for name, _ in patches]
    for name, wrapper in patches:
        setattr(planner, name, wrapper)
    try:
        fn()
    finally:
        for name, original in originals:
            setattr(planner, name, original)
    return counts


def enumerate_seeds(ap, spec, traces) -> list:
    """Thresholds examined and candidates of each seed's enumeration."""
    out = []
    for trace in traces:
        candidates, examined = ap.planner.enumerate_candidates(trace, spec)
        out.append((examined, [(c.alpha.hex(), c.plan.segment_levels, c.sigma.hex(), c.rho.hex()) for c in candidates]))
    return out


def measure(ap, repeats: int, workdir: Path) -> tuple[dict, dict]:
    spec = ap.default_video_spec()
    trace = ap.generate_synthetic(ap.default_trace_config(STOCK_SEED))
    trace_csv = workdir / "stock-0.csv"
    ap.save_trace(trace, trace_csv)
    planner = ap.planner

    candidates, examined = planner.enumerate_candidates(trace, spec)
    best = planner.select_candidate(candidates, STOCK_A)
    alpha, plan = best.alpha, best.plan

    seed_traces = [ap.generate_synthetic(ap.default_trace_config(seed)) for seed in SEEDS]
    seed_results = enumerate_seeds(ap, spec, seed_traces)
    enumerate_counts = count_probes(ap, lambda: planner.enumerate_candidates(trace, spec))
    fit_counts = count_probes(ap, lambda: planner.fit_ascending_levels(trace, alpha, spec))
    seeds_counts = count_probes(ap, lambda: enumerate_seeds(ap, spec, seed_traces))

    stock = ap.default_video_spec()
    oracle_spec = ap.VideoSpec(10, 4, 4.0, stock.levels[:4], 4)
    mean_bps, slots = ORACLE_WINDOW
    oracle_trace = ap.generate_synthetic(ap.SyntheticTraceConfig(mean_bps, slots, seed=ORACLE_SEED))
    oracle_alpha = min(oracle_trace.capacities)

    def oracle():
        return planner.exhaustive_best_plan(oracle_trace, oracle_alpha, oracle_spec, 0.0)

    oracle_counts = count_probes(ap, oracle)
    counts = {
        "thresholds_examined": examined,
        "candidates": len(candidates),
        "enumerate_probes": enumerate_counts["simulated"],
        "enumerate_lookups": enumerate_counts["lookups"],
        "enumerate_extensions": enumerate_counts["extensions"],
        "enumerate_deadline_checks": enumerate_counts["deadline_checks"],
        "fit_probes": fit_counts["simulated"],
        "fit_lookups": fit_counts["lookups"],
        "fit_extensions": fit_counts["extensions"],
        "selected_alpha": alpha,
        "seeds": len(SEEDS),
        "seeds_thresholds_examined": sum(examined for examined, _ in seed_results),
        "seeds_candidates": sum(len(cands) for _, cands in seed_results),
        "seeds_probes": seeds_counts["simulated"],
        "seeds_lookups": seeds_counts["lookups"],
        "seeds_extensions": seeds_counts["extensions"],
        "seeds_deadline_checks": seeds_counts["deadline_checks"],
        "seeds_digest": hashlib.sha256(repr(seed_results).encode()).hexdigest(),
        "oracle_nodes": oracle().nodes_visited,
        "oracle_simulated": oracle_counts["simulated"],
        "oracle_lookups": oracle_counts["lookups"],
    }
    items = {
        "probe": lambda: ap.exist_violation(trace, alpha, spec, plan),
        "fit": lambda: planner.fit_ascending_levels(trace, alpha, spec),
        "evaluate": lambda: ap.evaluate(trace, alpha, spec, plan, a=0.0),
        "select": lambda: planner.select_candidate(candidates, STOCK_A),
        "load_trace": lambda: ap.load_trace(trace_csv),
        "enumerate": lambda: planner.enumerate_candidates(trace, spec),
        "oracle": oracle,
    }
    timings = {name: time_item(fn, repeats, NUMBER[name]) for name, fn in items.items()}
    timings["fit_per_probe"] = {
        key: value / (counts["fit_probes"] + counts["fit_lookups"]) if key.endswith("_s") else value
        for key, value in timings["fit"].items()
    }
    timings["enumerate_30_seeds"] = time_item(
        lambda: enumerate_seeds(ap, spec, seed_traces), SEEDS_REPEATS, NUMBER["enumerate_30_seeds"]
    )
    return counts, timings


def time_cli(src: Path, workdir: Path) -> dict:
    """Wall seconds of each ``CLI_COMMANDS`` process, ``CLI_RUNS`` runs each."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    timings = {}
    for name, args in CLI_COMMANDS.items():
        argv = [sys.executable, "-m", "abrplan.cli", *args, "--out", str(workdir / f"{name}.out")]
        walls = []
        for _ in range(CLI_RUNS):
            t0 = perf_counter()
            subprocess.run(argv, env=env, cwd=workdir, check=True, capture_output=True)
            walls.append(perf_counter() - t0)
        timings[name] = {"median_s": statistics.median(walls), "min_s": min(walls), "max_s": max(walls), "runs": CLI_RUNS}
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file the run is appended to")
    parser.add_argument("--label", default="", help="name for the run, such as the version it times")
    parser.add_argument("--src", type=Path, default=REPO_ROOT / "src", help="the src directory to import abrplan from")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be >= 2")

    ap = import_abrplan(args.src)
    with tempfile.TemporaryDirectory() as tmp:
        counts, timings = measure(ap, args.repeats, Path(tmp))
        cli = time_cli(args.src, Path(tmp))
    commit, dirty = git_state(args.src)
    record = {
        "label": args.label,
        "commit": commit,
        "uncommitted_changes": dirty,
        "instance": f"stock seed {STOCK_SEED}, optimal mode, a = {STOCK_A}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "source_lines": source_lines(args.src),
        "counts": counts,
        "timings": timings,
        "cli": cli,
    }
    runs = json.loads(args.out.read_text()) if args.out.exists() else []
    runs.append(record)
    args.out.write_text(json.dumps(runs, indent=2) + "\n")

    print(f"  {'source_lines':<22} {record['source_lines']['total']}")
    for name, key in counts.items():
        print(f"  {name:<22} {key}")
    for name, t in timings.items():
        print(f"  {name:<22} {1e6 * t['median_s']:>12.1f} us  [{1e6 * t['q1_s']:.1f}, {1e6 * t['q3_s']:.1f}]")
    for name, t in cli.items():
        print(f"  abrplan {name:<14} {t['median_s']:>12.3f} s   [{t['min_s']:.3f}, {t['max_s']:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
