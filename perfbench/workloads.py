"""The two workloads: their inputs, one op each, and the checks on every
op's result.

An op's result is checked in one of two ways. At ``DEFAULT_SEED`` its
summary must match the expected results recorded in ``expected/`` (see
``record_expected.py``). At any other seed it must satisfy invariants that
hold for every correct planner: the plan is ascending with the start-up
cache at level 1, a strict re-simulation reproduces the reported scores,
the planned cost is no worse than the minimum-threshold benchmark's, and
the oracle's quality is at least the heuristic's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

from inputs import STOCK_LEVELS, InputPlan, video_json

DEFAULT_SEED = 0
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
REL_TOL = 1e-9
STOCK_A = 4.5


class CheckFailed(Exception):
    """An op's result is wrong."""


def same(got, want) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(same(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_ascending(levels, spec) -> None:
    """The plan shape every planner output must have, checked without the
    package's own validator."""
    levels = list(levels)
    cache = min(spec.n_segments, math.ceil(spec.prefetch_frames / spec.frames_per_segment))
    require(len(levels) == spec.n_segments, f"plan has {len(levels)} segments, video has {spec.n_segments}")
    require(all(1 <= v <= spec.n_levels for v in levels), "plan level out of range")
    require(all(v == 1 for v in levels[:cache]), "start-up cache is not at level 1")
    require(all(x <= y for x, y in zip(levels[cache:], levels[cache + 1 :])), "plan is not ascending")


def check_scores(ap, trace, alpha, spec, levels, a, utilization, quality) -> float:
    """Re-simulate strictly and compare; returns the re-simulated cost."""
    out = ap.sim.evaluate(trace, alpha, spec, ap.model.QualityPlan(tuple(levels)), a, strict=True)
    require(same(out.utilization, float(utilization)), f"utilization {utilization} != re-simulated {out.utilization}")
    require(same(out.quality, float(quality)), f"quality {quality} != re-simulated {out.quality}")
    return out.cost


def check_beats_min_threshold(ap, trace, spec, a, cost) -> None:
    """The planner's cost is at most the minimum-threshold benchmark's."""
    alpha = min(trace.capacities)
    fit = ap.planner.fit_ascending_levels(trace, alpha, spec)
    require(fit.feasible, "the minimum-threshold benchmark is infeasible but a plan was returned")
    bench = ap.sim.evaluate(trace, alpha, spec, fit.plan, a, strict=True).cost
    require(cost <= bench + 1e-12, f"cost {cost} exceeds the minimum-threshold benchmark's {bench}")


class Workload:
    """One workload. ``setup`` binds the loaded inputs; ``ops`` lists the op
    descriptors in run order (a run cycles through them); ``run`` performs
    one op; ``summary`` is what the expected results record; ``check``
    holds the invariants."""

    name: str
    inputs: InputPlan

    def setup(self, ap, spec, traces, input_dir: Path, seed: int) -> None:
        self.ap, self.spec, self.traces, self.input_dir, self.seed = ap, spec, traces, input_dir, seed

    def ops(self) -> list:
        return list(range(len(self.traces)))

    def key(self, op) -> str:
        return str(op)

    def run(self, op):
        raise NotImplementedError

    def summary(self, op, result) -> dict:
        raise NotImplementedError

    def check(self, op, result) -> None:
        raise NotImplementedError

    def verify(self, op, result, expected) -> None:
        """Raise CheckFailed unless ``result`` is correct."""
        if expected is not None:
            want = expected[self.key(op)]
            got = self.summary(op, result)
            require(same(got, want), f"op {self.key(op)}: got {got}, expected {want}")
        else:
            self.check(op, result)


class StockPlan(Workload):
    """``abrplan plan --trace FILE --video SPEC --a 4.5`` in-process through
    the CLI entry point, one stock 190-slot, 2 Mbps window per op."""

    name = "stock-plan"
    inputs = InputPlan(
        video=video_json(180, 30, 30.0, 120, STOCK_LEVELS),
        mean_bps=2.0e6,
        window_slots=190,
        pool=128,
    )

    def run(self, op):
        trace_path = self.input_dir / f"trace-{op:04d}.csv"
        out = self.input_dir / "report.json"
        args = ["plan", "--trace", str(trace_path), "--video", str(self.input_dir / "video.json")]
        args += ["--a", str(STOCK_A), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                self.ap.cli.main(args, prog_name="abrplan")
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
        if code != 0:
            return {"exit": code, "stderr": err.getvalue().strip()}
        return json.loads(out.read_text())

    def summary(self, op, report) -> dict:
        if "exit" in report:
            return {"exit": report["exit"]}
        return {k: report[k] for k in ("alpha_th", "plan", "utilization", "quality")}

    def check(self, op, report) -> None:
        require("exit" not in report, f"plan exited with {report.get('exit')}: {report.get('stderr')}")
        trace = self.traces[op]
        check_ascending(report["plan"], self.spec)
        cost = check_scores(self.ap, trace, report["alpha_th"], self.spec, report["plan"], STOCK_A, report["utilization"], report["quality"])
        require(same(cost, float(report["cost"])), f"cost {report['cost']} != re-simulated {cost}")
        check_beats_min_threshold(self.ap, trace, self.spec, STOCK_A, cost)


class OracleSmall(Workload):
    """``fit_ascending_levels`` then ``exhaustive_best_plan`` at the
    minimum-capacity threshold: 10 one-second segments, the stock ladder's
    lowest 4 levels, 14-slot 1.25 Mbps windows. (L+1)^9 = 1,953,125 nodes
    stays under the oracle's 2,000,000 budget."""

    name = "oracle-small"
    inputs = InputPlan(
        video=video_json(10, 4, 4.0, 4, STOCK_LEVELS[:4]),
        mean_bps=1.25e6,
        window_slots=14,
        pool=1024,
    )
    a = 0.0

    def run(self, op):
        trace = self.traces[op]
        alpha = min(trace.capacities)
        fit = self.ap.planner.fit_ascending_levels(trace, alpha, self.spec)
        oracle = self.ap.planner.exhaustive_best_plan(trace, alpha, self.spec, self.a)
        return fit, oracle

    def summary(self, op, result) -> dict:
        fit, oracle = result
        return {
            "fit_feasible": fit.feasible,
            "fit_plan": list(fit.plan.segment_levels),
            "plan": None if oracle is None else list(oracle.plan.segment_levels),
            "quality": None if oracle is None else oracle.outcome.quality,
        }

    def check(self, op, result) -> None:
        fit, oracle = result
        if not fit.feasible:
            return
        require(oracle is not None, "heuristic feasible but the oracle found no plan")
        trace = self.traces[op]
        alpha = min(trace.capacities)
        check_ascending(fit.plan.segment_levels, self.spec)
        check_ascending(oracle.plan.segment_levels, self.spec)
        heuristic = self.ap.model.compute_quality(self.spec, fit.plan)
        require(oracle.outcome.quality >= heuristic - 1e-12, f"oracle quality {oracle.outcome.quality} < heuristic {heuristic}")
        check_scores(self.ap, trace, alpha, self.spec, oracle.plan.segment_levels, self.a, oracle.outcome.utilization, oracle.outcome.quality)


WORKLOADS = {w.name: w for w in (StockPlan, OracleSmall)}


def load_expected(name: str):
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())
