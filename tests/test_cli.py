"""End-to-end CLI tests on a small, fast instance."""

import json
import math
import os
import string
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings, strategies as st

from abrplan import (
    CapacityTrace,
    SyntheticTraceConfig,
    coarsen,
    default_trace_config,
    evaluate,
    generate_synthetic,
    load_trace,
    mean_trace,
    plan_session,
    relative_performance_error,
    save_trace,
)
from abrplan.cli import load_video_spec, main

from plan_report import read_plan_report

SMALL_VIDEO = {
    "n_segments": 12,
    "frames_per_segment": 4,
    "frame_rate": 4.0,
    "prefetch_frames": 4,
    "levels": [
        {"bitrate_bps": 0.4e6, "weight": 0.2},
        {"bitrate_bps": 1.0e6, "weight": 0.5},
        {"bitrate_bps": 2.0e6, "weight": 1.0},
    ],
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def video_file(tmp_path):
    path = tmp_path / "video.json"
    path.write_text(json.dumps(SMALL_VIDEO))
    return str(path)


@pytest.fixture
def trace_file(tmp_path):
    trace = generate_synthetic(SyntheticTraceConfig(1.5e6, 16, seed=3))
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    return str(path)


def _read_csv(path):
    lines = open(path).read().splitlines()
    header = lines[1].split(",")
    return lines[0], [dict(zip(header, ln.split(","))) for ln in lines[2:]]


class TestPlan:
    def test_report_schema_and_benchmark(self, runner, video_file, trace_file, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["plan", "--video", video_file, "--trace", trace_file,
             "--a", "2.0", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = read_plan_report(out)
        assert report["cost"] <= report["benchmark"]["cost"] + 1e-12
        assert len(report["plan"]) == SMALL_VIDEO["n_segments"]

    def test_a_zero_raises_threshold(self, runner, video_file, trace_file, tmp_path):
        alphas = {}
        for a in ("0", "2.0"):
            out = tmp_path / f"report{a}.json"
            result = runner.invoke(
                main,
                ["plan", "--video", video_file, "--trace", trace_file,
                 "--a", a, "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            alphas[a] = read_plan_report(out)["alpha_th"]
        assert alphas["0"] >= alphas["2.0"]

    def test_missing_trace_is_io_error(self, runner, video_file, tmp_path):
        result = runner.invoke(
            main,
            ["plan", "--video", video_file, "--trace", str(tmp_path / "nope.csv"),
             "--a", "1", "--out", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 3
        assert not (tmp_path / "r.json").exists()

    def test_trace_source_must_be_unique(self, runner, video_file, trace_file, tmp_path):
        result = runner.invoke(
            main,
            ["plan", "--video", video_file, "--trace", trace_file,
             "--synthetic-seed", "1", "--a", "1", "--out", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 4
        result = runner.invoke(
            main, ["plan", "--video", video_file, "--a", "1", "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 4

    def test_negative_a_is_config_error(self, runner, video_file, trace_file, tmp_path):
        result = runner.invoke(
            main,
            ["plan", "--video", video_file, "--trace", trace_file,
             "--a", "-1", "--out", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 4

    def test_quantum_selects_the_invest_ladder(self, runner, video_file, trace_file, tmp_path):
        """``--quantum-q`` alone plans on the invest ladder; without it the
        report says every distinct capacity was a threshold."""
        out = tmp_path / "r.json"
        args = ["plan", "--video", video_file, "--trace", trace_file, "--a", "1", "--out", str(out)]
        assert runner.invoke(main, args + ["--quantum-q", "2e6"]).exit_code == 0
        report = read_plan_report(out)
        expected = plan_session(load_trace(trace_file), load_video_spec(video_file), 1.0, 2e6)
        assert report["mode"] == "invest"
        assert report["alpha_th"] == expected.alpha_th
        assert report["plan"] == list(expected.plan.segment_levels)
        assert report["candidates_evaluated"] == expected.candidates_evaluated
        assert runner.invoke(main, args).exit_code == 0
        assert read_plan_report(out)["mode"] == "optimal"

    def test_infeasible_exit_code(self, runner, video_file, tmp_path):
        # 4-slot window cannot play a 12 s video
        trace = generate_synthetic(SyntheticTraceConfig(1.5e6, 4, seed=0))
        tr = tmp_path / "short.csv"
        save_trace(trace, tr)
        result = runner.invoke(
            main,
            ["plan", "--video", video_file, "--trace", str(tr),
             "--a", "1", "--out", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 2

    def test_bad_video_spec(self, runner, trace_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_segments": 3}))
        result = runner.invoke(
            main,
            ["plan", "--video", str(bad), "--trace", trace_file,
             "--a", "1", "--out", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 4

    @pytest.mark.parametrize("bitrate, frame_rate", [(5e-324, 2.0), (1e308, 0.1), (0.4e6, 10**400)])
    def test_zero_or_infinite_frame_size_is_a_config_error(self, runner, tmp_path, bitrate, frame_rate):
        """A level whose frame size ``bitrate / frame_rate`` is 0 or inf in
        floats, or an integer rate past the float range, is refused before
        planning, with no numpy warning."""
        video = tmp_path / "video.json"
        level = {"bitrate_bps": bitrate, "weight": 1.0}
        video.write_text(json.dumps(dict(SMALL_VIDEO, n_segments=3, frames_per_segment=1, frame_rate=frame_rate,
                                         prefetch_frames=1, levels=[level])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                main, ["plan", "--video", str(video), "--synthetic-seed", "0", "--a", "4.5", "--out", str(tmp_path / "r.json")]
            )
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert ("frame size" in result.output or "too large" in result.output) and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("window", ["underflow", "overflow"])
    def test_frame_cost_outside_the_float_range_is_a_config_error(self, runner, tmp_path, window):
        """A frame size the video spec holds whose cost is 0 or inf once
        divided by the window's slot duration: 5e-324 bits over the 2 s
        slots of ``--slot 2``, or 1e308 bits over 0.5 s slots."""
        video, trace = tmp_path / "video.json", tmp_path / "trace.csv"
        if window == "underflow":
            levels, frame_rate, source = [1e-323, 0.4e6], 2.0, ["--synthetic-seed", "0", "--slot", "2"]
        else:
            levels, frame_rate, source = [0.4e6, 1e308], 1.0, ["--trace", str(trace)]
            save_trace(CapacityTrace(0.5, (1e6,) * 20), trace)
        video.write_text(json.dumps(dict(SMALL_VIDEO, n_segments=3, frames_per_segment=1, frame_rate=frame_rate,
                                         prefetch_frames=1, levels=[{"bitrate_bps": b, "weight": w} for b, w in zip(levels, (0.5, 1.0))])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["plan", "--video", str(video), *source, "--a", "4.5", "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert "frame size" in result.output and not (tmp_path / "r.json").exists()

    def test_zero_rate_slot_after_level_change(self, runner, zero_rate_instance, tmp_path):
        trace, spec = zero_rate_instance
        video = tmp_path / "video.json"
        video.write_text(json.dumps({
            "n_segments": spec.n_segments,
            "frames_per_segment": spec.frames_per_segment,
            "frame_rate": spec.frame_rate,
            "prefetch_frames": spec.prefetch_frames,
            "levels": [{"bitrate_bps": q.bitrate_bps, "weight": q.weight} for q in spec.levels],
        }))
        save_trace(trace, tmp_path / "trace.csv")
        result = runner.invoke(
            main,
            ["plan", "--video", str(video), "--trace", str(tmp_path / "trace.csv"),
             "--a", "1", "--out", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 0, result.output
        read_plan_report(tmp_path / "r.json")

    def test_huge_frame_count_plans(self, runner, tmp_path):
        """The stall check counts due frames without an array of the
        video's frames, so one segment of 2**62 frames plans."""
        video = tmp_path / "huge.json"
        video.write_text(json.dumps(dict(SMALL_VIDEO, n_segments=1, frames_per_segment=2**62, frame_rate=2.0**62, prefetch_frames=1)))
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["plan", "--video", str(video), "--synthetic-seed", "0", "--a", "4.5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert read_plan_report(out)["plan"] == [1]

    def test_slot_resampling(self, runner, video_file, trace_file, tmp_path):
        out = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["plan", "--video", video_file, "--trace", trace_file,
             "--a", "1", "--slot", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = read_plan_report(out)
        assert len(report["bits_used_per_slot"]) == 8
        bad = runner.invoke(
            main,
            ["plan", "--video", video_file, "--trace", trace_file,
             "--a", "1", "--slot", "1.5", "--out", str(out)],
        )
        assert bad.exit_code == 4

    @pytest.mark.parametrize("command", ["plan", "robustness"])
    @pytest.mark.parametrize(
        "slot_duration, slot_period",
        [(0.5, "1.7e308"), (1.1218605132753097, "1.7976931348623157e308")],
        ids=["infinite-factor", "infinite-resampled-slot"],
    )
    def test_slot_past_the_float_range_is_a_config_error(
        self, runner, video_file, tmp_path, command, slot_duration, slot_period
    ):
        """A period that is more trace slots than a float holds, or whose
        whole number of slots lasts longer than one, is a usage error, not
        a traceback."""
        (tmp_path / "traces").mkdir()
        trace = tmp_path / "traces" / "t.csv"
        save_trace(generate_synthetic(SyntheticTraceConfig(1.5e6, 16, slot_duration=slot_duration, seed=3)), trace)
        source = ["--trace", str(trace)] if command == "plan" else ["--trace-dir", str(trace.parent)]
        result = runner.invoke(
            main,
            [command, "--video", video_file, *source, "--a", "1", "--slot", slot_period, "--out", str(tmp_path / "r.out")],
        )
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ") and result.output.count("\n") == 1

    @pytest.mark.parametrize(
        "capacities, slot",
        [((1.7e308, 1.0) * 10, []), ((1e308,) * 20, ["--slot", "4"])],
        ids=["alternating", "resampled"],
    )
    def test_window_volume_past_the_float_range_is_a_trace_error(self, runner, video_file, tmp_path, capacities, slot):
        """A trace whose slots are each finite but whose total bit volume
        overflows a float is refused on load, before the planner's running
        sums overflow into a wrong plan or resampling averages to inf."""
        trace = tmp_path / "huge.csv"
        trace.write_text("# slot_duration=1.0\nslot_index,capacity_bps\n" + "".join(f"{i},{c!r}\n" for i, c in enumerate(capacities)))
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["plan", "--video", video_file, "--trace", str(trace), "--a", "1", *slot, "--out", str(out)])
        _assert_one_line_error(result, 3)
        assert "total bit volume" in result.output
        assert not out.exists()

    def test_resampled_volume_past_the_float_range_is_a_config_error(self, runner, video_file, tmp_path):
        """A trailing partial group keeps its mean over the whole resampled
        slot, so resampling can take a finite window volume past the float
        range; that is a usage error on --slot, not a plan with σ = 0."""
        trace = tmp_path / "tail.csv"
        save_trace(CapacityTrace(1.0, (1.5e6,) * 16 + (1e308,)), trace)
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["plan", "--video", video_file, "--trace", str(trace), "--a", "1", "--slot", "4", "--out", str(out)])
        _assert_one_line_error(result, 4)
        assert "total bit volume" in result.output
        assert not out.exists()


class TestSweepA:
    def test_rows_and_monotone_threshold(self, runner, video_file, trace_file, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["sweep-a", "--video", video_file, "--trace", trace_file,
             "--a", "0.5", "--a", "2", "--a", "8", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        schema_line, rows = _read_csv(out)
        assert schema_line == "# schema: abrplan.sweep_a/1"
        assert [float(r["a"]) for r in rows] == [0.5, 2.0, 8.0]
        alphas = [float(r["alpha_th"]) for r in rows]
        assert all(x >= y for x, y in zip(alphas, alphas[1:]))

    def test_single_a_matches_plan(self, runner, video_file, trace_file, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        plan_out = tmp_path / "plan.json"
        runner.invoke(
            main,
            ["sweep-a", "--video", video_file, "--trace", trace_file,
             "--a", "2", "--out", str(sweep_out)],
        )
        runner.invoke(
            main,
            ["plan", "--video", video_file, "--trace", trace_file,
             "--a", "2", "--out", str(plan_out)],
        )
        _, rows = _read_csv(sweep_out)
        report = read_plan_report(plan_out)
        assert float(rows[0]["alpha_th"]) == report["alpha_th"]
        assert float(rows[0]["cost"]) == pytest.approx(report["cost"])

    def test_empty_a_list_is_config_error(self, runner, video_file, trace_file, tmp_path):
        result = runner.invoke(
            main,
            ["sweep-a", "--video", video_file, "--trace", trace_file,
             "--out", str(tmp_path / "s.csv")],
        )
        assert result.exit_code == 4

    def test_trajectory_dumps(self, runner, video_file, trace_file, tmp_path):
        out = tmp_path / "sweep.csv"
        dump_dir = tmp_path / "traj"
        result = runner.invoke(
            main,
            ["sweep-a", "--video", video_file, "--trace", trace_file,
             "--a", "2", "--dump-trajectories", str(dump_dir), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        dumps = list(dump_dir.glob("*.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())
        assert len(payload["arrived_frames"]) == len(payload["watched_frames"])

    def test_trajectory_dump_per_a_value(self, runner, video_file, trace_file, tmp_path):
        # two values of a that agree to six significant digits
        out = tmp_path / "sweep.csv"
        dump_dir = tmp_path / "traj"
        result = runner.invoke(
            main,
            ["sweep-a", "--video", video_file, "--trace", trace_file,
             "--a", "0.1234561", "--a", "0.1234562",
             "--dump-trajectories", str(dump_dir), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        _, rows = _read_csv(out)
        assert [r["a"] for r in rows] == ["0.1234561", "0.1234562"]
        for row in rows:
            dump = dump_dir / f"trajectory_a={row['a']}.json"
            assert json.loads(dump.read_text())["a"] == float(row["a"])
        assert len(list(dump_dir.glob("*.json"))) == 2


class TestStallScan:
    def test_scan_rows(self, runner, video_file, trace_file, tmp_path):
        out = tmp_path / "scan.csv"
        result = runner.invoke(
            main,
            ["stall-scan", "--video", video_file, "--trace", trace_file,
             "--a", "0.5", "--stride", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        schema_line, rows = _read_csv(out)
        assert schema_line == "# schema: abrplan.stall_scan/1"
        assert [int(r["stall_segment"]) for r in rows] == list(range(2, 13, 2))
        before = {r["cost_before"] for r in rows}
        assert len(before) == 1
        for r in rows:
            if r["feasible"] == "true":
                assert math.isfinite(float(r["cost_after"]))


class TestRobustness:
    def test_pipeline(self, runner, video_file, tmp_path):
        trace_dir = tmp_path / "realizations"
        trace_dir.mkdir()
        for seed in range(4):
            save_trace(
                generate_synthetic(SyntheticTraceConfig(1.5e6, 16, seed=seed)),
                trace_dir / f"r{seed}.csv",
            )
        out = tmp_path / "rob.csv"
        result = runner.invoke(
            main,
            ["robustness", "--video", video_file, "--trace-dir", str(trace_dir),
             "--a", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        schema_line, rows = _read_csv(out)
        assert schema_line == "# schema: abrplan.robustness/1"
        assert len(rows) == 4

    def test_identical_realizations_give_zero_error(self, runner, video_file, tmp_path):
        trace_dir = tmp_path / "realizations"
        trace_dir.mkdir()
        t = generate_synthetic(SyntheticTraceConfig(1.5e6, 16, seed=3))
        for name in ("a", "b"):
            save_trace(t, trace_dir / f"{name}.csv")
        out = tmp_path / "rob.csv"
        result = runner.invoke(
            main,
            ["robustness", "--video", video_file, "--trace-dir", str(trace_dir),
             "--a", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        _, rows = _read_csv(out)
        for r in rows:
            assert float(r["p_error_sigma"]) == 0.0
            assert float(r["p_error_rho"]) == 0.0
            assert r["stalled"] == "false"

    def test_slot_plans_on_the_resampled_mean(self, runner, video_file, tmp_path):
        """With --slot the plan is made on the mean of the fine
        realizations, resampled, and scored on each resampled realization."""
        trace_dir = tmp_path / "realizations"
        trace_dir.mkdir()
        realizations = [generate_synthetic(SyntheticTraceConfig(1.5e6, 24, seed=seed)) for seed in range(3)]
        for seed, t in enumerate(realizations):
            save_trace(t, trace_dir / f"r{seed}.csv")
        out = tmp_path / "rob.csv"
        result = runner.invoke(
            main,
            ["robustness", "--video", video_file, "--trace-dir", str(trace_dir),
             "--a", "2", "--slot", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        spec = load_video_spec(video_file)
        planned = plan_session(coarsen(mean_trace(realizations), 2), spec, 2.0)
        _, rows = _read_csv(out)
        assert [r["realization"] for r in rows] == ["r0", "r1", "r2"]
        for row, t in zip(rows, realizations):
            got = evaluate(coarsen(t, 2), planned.alpha_th, spec, planned.plan, 2.0, strict=False)
            assert float(row["p_error_sigma"]) == relative_performance_error(got.utilization, planned.outcome.utilization)
            assert float(row["p_error_rho"]) == relative_performance_error(got.quality, planned.outcome.quality)
            assert row["stalled"] == ("true" if got.stall_events else "false")

    @pytest.mark.parametrize(
        "slots, slot_period",
        [((16, 16), "0.5"), ((16, 12), None)],
        ids=["slot-below-trace-slot", "realization-lengths-differ"],
    )
    def test_bad_realizations_or_slot_are_config_errors(
        self, runner, video_file, tmp_path, slots, slot_period
    ):
        trace_dir = tmp_path / "realizations"
        trace_dir.mkdir()
        for seed, n in enumerate(slots):
            save_trace(
                generate_synthetic(SyntheticTraceConfig(1.5e6, n, seed=seed)),
                trace_dir / f"r{seed}.csv",
            )
        args = ["robustness", "--video", video_file, "--trace-dir", str(trace_dir),
                "--a", "2", "--out", str(tmp_path / "rob.csv")]
        if slot_period is not None:
            args += ["--slot", slot_period]
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1

    def test_empty_dir_is_io_error(self, runner, video_file, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(
            main,
            ["robustness", "--video", video_file, "--trace-dir", str(empty),
             "--a", "2", "--out", str(tmp_path / "rob.csv")],
        )
        assert result.exit_code == 3


class TestBench:
    def test_period_and_quantum_sweep(self, runner, video_file, tmp_path):
        out = tmp_path / "bench.csv"
        result = runner.invoke(
            main,
            ["bench", "--video", video_file, "--periods", "1,2",
             "--quantums", "2e6", "--n-traces", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        schema_line, rows = _read_csv(out)
        assert schema_line == "# schema: abrplan.bench/1"
        assert [r["kind"] for r in rows] == ["period", "period", "quantum"]
        baseline = rows[0]
        assert float(baseline["accuracy_sigma"]) == 1.0
        assert float(baseline["accuracy_rho"]) == 1.0
        for r in rows:
            assert float(r["mean_runtime_s"]) > 0

    def test_nothing_to_sweep(self, runner, video_file, tmp_path):
        result = runner.invoke(
            main, ["bench", "--video", video_file, "--out", str(tmp_path / "b.csv")]
        )
        assert result.exit_code == 4

    def test_period_rows_match_the_library(self, runner, video_file, tmp_path):
        """Each period row holds the seeded windows resampled by exactly
        that period, scored relative to the 1 s baseline."""
        out = tmp_path / "bench.csv"
        result = runner.invoke(
            main,
            ["bench", "--video", video_file, "--periods", "1,2", "--n-traces", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        spec = load_video_spec(video_file)

        def mean_scores(factor):
            outcomes = [
                plan_session(coarsen(generate_synthetic(default_trace_config(seed)), factor), spec, 4.5).outcome
                for seed in range(2)
            ]
            return [sum(getattr(o, f) for o in outcomes) / 2 for f in ("utilization", "quality", "cost")]

        base = mean_scores(1)
        _, rows = _read_csv(out)
        assert [(r["kind"], float(r["value"])) for r in rows] == [("period", 1.0), ("period", 2.0)]
        for row, factor in zip(rows, (1, 2)):
            expected = [x / b for x, b in zip(mean_scores(factor), base)]
            got = [float(row[c]) for c in ("accuracy_sigma", "accuracy_rho", "accuracy_cost")]
            assert got == pytest.approx(expected, rel=1e-12)

    def test_environment_sets_no_flag(self, video_file, tmp_path):
        """Only the command line sets a flag: no variable named after a
        parameter supplies --periods to bench or --slot to plan."""
        runner = CliRunner(env={"ABRPLAN_BENCH_PERIODS": "2", "ABRPLAN_PLAN_SLOT_PERIOD": "2"})
        result = runner.invoke(main, ["bench", "--video", video_file, "--out", str(tmp_path / "b.csv")])
        assert result.exit_code == 4
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["plan", "--synthetic-seed", "0", "--a", "4.5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(json.loads(out.read_text())["bits_used_per_slot"]) == 190

    @pytest.mark.parametrize("periods", ["1.5", "0.5", "1,2.5"])
    def test_fractional_period_is_a_usage_error(self, runner, video_file, tmp_path, periods):
        out = tmp_path / "bench.csv"
        result = runner.invoke(
            main,
            ["bench", "--video", video_file, "--periods", periods, "--n-traces", "1", "--out", str(out)],
        )
        _assert_one_line_error(result, 4)
        assert not out.exists()



def _command_args(command, video_file, trace_file, tmp_path, out):
    """A complete, valid argument list for ``command`` writing to ``out``."""
    if command == "bench":
        return ["bench", "--video", video_file, "--periods", "1", "--n-traces", "1", "--out", str(out)]
    if command == "robustness":
        return ["robustness", "--video", video_file, "--trace-dir", str(tmp_path), "--a", "1", "--out", str(out)]
    return [command, "--video", video_file, "--trace", trace_file, "--a", "1", "--out", str(out)]


def _assert_one_line_error(result, code):
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.startswith("error: ")
    assert result.output.count("\n") == 1


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["plan", "sweep-a"])
    @pytest.mark.parametrize("target", ["missing-dir", "out-is-a-dir"])
    def test_io_error(self, runner, video_file, trace_file, tmp_path, command, target):
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        if target == "missing-dir":
            out, left = outputs / "missing" / "result", []
        else:
            out, left = outputs / "result", ["result"]
            out.mkdir()  # the temp file is written beside it, then the replace fails
        result = runner.invoke(main, _command_args(command, video_file, trace_file, tmp_path, out))
        _assert_one_line_error(result, 3)
        assert [p.name for p in outputs.rglob("*")] == left  # no temp file left

    def test_dump_dir_under_a_file(self, runner, video_file, trace_file, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = tmp_path / "sweep.csv"
        args = _command_args("sweep-a", video_file, trace_file, tmp_path, out)
        result = runner.invoke(main, args + ["--dump-trajectories", str(blocker / "traj")])
        _assert_one_line_error(result, 3)
        assert not out.exists()


class TestJobs:
    @pytest.mark.parametrize(
        "command, jobs",
        [("plan", "-3"), ("sweep-a", "0"), ("bench", "0"),
         ("plan", "2"), ("sweep-a", "2"), ("stall-scan", "2"), ("robustness", "2")],
    )
    def test_rejected(self, runner, video_file, trace_file, tmp_path, command, jobs):
        out = tmp_path / "out"
        args = _command_args(command, video_file, trace_file, tmp_path, out)
        result = runner.invoke(main, args + ["--jobs", jobs])
        _assert_one_line_error(result, 4)
        assert not out.exists()

    def test_one_job_accepted(self, runner, video_file, tmp_path):
        """bench takes --jobs; two workers give the rows one does, apart
        from the wall-clock column."""
        rows = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"bench-{jobs}.csv"
            args = ["bench", "--video", video_file, "--periods", "1,2", "--quantums", "2e6",
                    "--n-traces", "2", "--jobs", jobs, "--out", str(out)]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            rows[jobs] = [{k: v for k, v in r.items() if k != "mean_runtime_s"} for r in _read_csv(out)[1]]
        assert rows["1"] == rows["2"]

    def test_workers_capped_at_the_cells(self, runner, video_file, tmp_path, monkeypatch):
        """A pool forks all its workers up front, so ``--jobs`` above the
        number of cells starts one worker a cell; the rows stay those of one
        job. The pool is a fake that maps in-process: no process starts."""
        import concurrent.futures

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        rows = {}
        for jobs in ("1", "5000"):
            out = tmp_path / f"bench-{jobs}.csv"
            args = ["bench", "--video", video_file, "--periods", "2", "--n-traces", "2", "--jobs", jobs, "--out", str(out)]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            rows[jobs] = [{k: v for k, v in r.items() if k != "mean_runtime_s"} for r in _read_csv(out)[1]]
        assert started == [4]  # the 1 s baseline and the 2 s period, two traces each
        assert rows["1"] == rows["5000"]


class TestOutOfRangeTrace:
    @pytest.mark.parametrize("command", ["plan", "robustness"])
    @pytest.mark.parametrize(
        "slot_duration, last_capacity",
        [("0.0", "1.5e6"), ("nan", "1.5e6"), ("inf", "1.5e6"), ("1.0", "-1.5e6"), ("1.0", "nan")],
        ids=["zero-slot-duration", "nan-slot-duration", "inf-slot-duration", "negative-capacity", "nan-capacity"],
    )
    def test_io_error(self, runner, video_file, tmp_path, command, slot_duration, last_capacity):
        trace_dir = tmp_path / "realizations"
        trace_dir.mkdir()
        bad = trace_dir / "bad.csv"
        rows = "".join(f"{i},1.5e6\n" for i in range(15)) + f"15,{last_capacity}\n"
        bad.write_text(f"# slot_duration={slot_duration}\nslot_index,capacity_bps\n" + rows)
        out = tmp_path / "out"
        result = runner.invoke(main, _command_args(command, video_file, str(bad), trace_dir, out))
        _assert_one_line_error(result, 3)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "robustness"])
    def test_bytes_that_are_not_utf8(self, runner, video_file, tmp_path, command):
        """A trace file that does not decode as UTF-8 is not a valid export."""
        trace_dir = tmp_path / "realizations"
        trace_dir.mkdir()
        bad = trace_dir / "bad.csv"
        bad.write_bytes(b"\xff\xfe\x00bad")
        out = tmp_path / "out"
        result = runner.invoke(main, _command_args(command, video_file, str(bad), trace_dir, out))
        _assert_one_line_error(result, 3)
        assert "cannot read" in result.output
        assert not out.exists()


_NUMERIC_FLAGS = [
    ("plan", "--a"), ("sweep-a", "--a"), ("stall-scan", "--a"), ("robustness", "--a"), ("bench", "--a"),
    ("plan", "--quantum-q"), ("robustness", "--quantum-q"), ("plan", "--slot"), ("robustness", "--slot"),
    ("plan", "--synthetic-seed"), ("stall-scan", "--stride"),
    ("bench", "--n-traces"), ("bench", "--jobs"), ("bench", "--periods"), ("bench", "--quantums"),
]


class TestUsageErrors:
    """Every bad flag, value or spec ends in exit 4 and one error line."""

    @pytest.mark.parametrize("command, flag", _NUMERIC_FLAGS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_out_of_range_number(self, runner, video_file, trace_file, tmp_path, command, flag, value):
        out = tmp_path / "out"
        args = _command_args(command, video_file, trace_file, tmp_path, out)
        _assert_one_line_error(runner.invoke(main, args + [flag, value]), 4)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("plan", ["--a", "abc"]),
            ("plan", ["--bogus"]),
            ("plan", ["--synthetic-seed", "1.5"]),
            ("plan", ["--mode", "invest"]),
            ("stall-scan", ["--stride", "0"]),
            ("bench", ["--periods", "0"]),
            ("bench", ["--periods", "1,x"]),
            ("bench", ["--mode", "invest"]),
            ("bench", ["--slot", "2"]),
            ("bench", ["--synthetic-seed", "0"]),
            ("robustness", ["--synthetic-seed", "0"]),
            ("robustness", ["--trace", "trace.csv"]),
            ("robustness", ["--mode", "invest"]),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_bad_flag(self, runner, video_file, trace_file, tmp_path, command, extra):
        out = tmp_path / "out"
        args = _command_args(command, video_file, trace_file, tmp_path, out)
        _assert_one_line_error(runner.invoke(main, args + extra), 4)
        assert not out.exists()

    @pytest.mark.parametrize(
        "args", [[], ["--bogus"], ["--bogus", "plan"], ["--version", "--bogus"], ["--a", "1", "plan"]],
        ids=lambda v: " ".join(v) or "no-args",
    )
    def test_bad_top_level_invocation(self, runner, args):
        _assert_one_line_error(runner.invoke(main, args), 4)

    def test_top_level_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        assert result.output.startswith("Usage: ")

    def test_missing_a_and_unknown_command(self, runner, trace_file, tmp_path):
        out = tmp_path / "out"
        _assert_one_line_error(runner.invoke(main, ["plan", "--trace", trace_file, "--out", str(out)]), 4)
        _assert_one_line_error(runner.invoke(main, ["replan", "--a", "1"]), 4)
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("n_segments", 12.5), ("n_segments", True), ("frame_rate", math.inf),
         ("frame_rate", math.nan), ("bitrate_bps", math.nan), ("levels", 3),
         ("frame_rate", True), ("bitrate_bps", True), ("weight", True)],
    )
    def test_bad_video_spec(self, runner, tmp_path, field, value):
        video = dict(SMALL_VIDEO, levels=[dict(lvl) for lvl in SMALL_VIDEO["levels"]])
        if field in ("bitrate_bps", "weight"):
            video["levels"][-1 if field == "weight" else 0][field] = value
        else:
            video[field] = value
        path = tmp_path / "video.json"
        path.write_text(json.dumps(video))
        out = tmp_path / "r.json"
        args = ["plan", "--video", str(path), "--synthetic-seed", "0", "--a", "1", "--out", str(out)]
        _assert_one_line_error(runner.invoke(main, args), 4)
        assert not out.exists()

    def test_deeply_nested_video_spec(self, runner, tmp_path):
        """JSON nested deeper than the interpreter's recursion limit is a bad
        spec, not a ``RecursionError`` traceback."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        out = tmp_path / "r.json"
        args = ["plan", "--synthetic-seed", "0", "--video", str(path), "--a", "1", "--out", str(out)]
        _assert_one_line_error(runner.invoke(main, args), 4)
        assert not out.exists()


# Values each flag is drawn from: ones a command accepts first, then bad
# ones. ``$name`` fields name the files of ``invocation_files``, ``$out`` and
# ``$dump`` the outputs of one example.
_GOOD = {
    "--video": ["$video"],
    "--trace": ["$trace"],
    "--synthetic-seed": ["0", "1"],
    "--quantum-q": ["2e6", "5e5", "1"],
    "--slot": ["1", "2"],
    "--out": ["$out"],
    "--a": ["0", "2", "4.5", "1e308", "-0"],
    "--dump-trajectories": ["$dump"],
    "--stride": ["4", "100"],
    "--trace-dir": ["$realizations"],
    "--jobs": ["1", "2"],
    "--periods": ["1,2", "2", "1,,2"],
    "--quantums": ["2e6", "1e6,5e6", "1"],
    "--n-traces": ["1", "2"],
}
_BAD = {
    "--video": ["$missing", "$dir", "$junk", "$bad_video", ""],
    "--trace": ["$missing", "$dir", "$junk", "$short_trace", "$not_utf8"],
    "--synthetic-seed": ["-1", "nan", "1.5", "x"],
    "--quantum-q": ["0", "-1", "nan", "inf", "x"],
    "--slot": ["0.5", "1.5", "0", "-2", "nan", "inf", "1e300", "x"],
    "--out": ["$dir", "$missing/r", "$junk/r"],
    "--a": ["-1", "nan", "inf", "-inf", "abc", ""],
    "--dump-trajectories": ["$junk/traj"],
    "--stride": ["0", "-2", "nan", "x"],
    "--trace-dir": ["$dir", "$missing", "$mismatched", "$junk_dir"],
    "--jobs": ["0", "-1", "x"],
    "--periods": ["0", "0.5", "1.5", "nan", "inf", "-1", "x", ""],
    "--quantums": ["0", "-1", "nan", "inf", "x", ","],
    "--n-traces": ["0", "-1", "nan", "x"],
}
# Flags each command needs to run, and the ones it may take.
_REQUIRED = {
    "plan": ["--video", "--trace", "--a", "--out"],
    "sweep-a": ["--video", "--trace", "--a", "--out"],
    "stall-scan": ["--video", "--trace", "--a", "--stride", "--out"],
    "robustness": ["--video", "--trace-dir", "--a", "--out"],
    "bench": ["--video", "--periods", "--n-traces", "--out"],
}
_OPTIONAL = {
    "plan": ["--quantum-q", "--slot"],
    "sweep-a": ["--quantum-q", "--slot", "--dump-trajectories"],
    "stall-scan": ["--quantum-q", "--slot"],
    "robustness": ["--quantum-q", "--slot"],
    "bench": ["--a", "--quantums", "--jobs"],
}

# Never dropped: without them a run falls back to the stock 180-segment
# video, a stall at every position or 100 bench traces, which is only slow.
_KEEP = {"--video", "--stride", "--n-traces"}


@st.composite
def _invocations(draw):
    """A command with valid flags (a seeded window may stand in for the
    trace file), then up to two faults: a flag dropped, or a flag (the
    command's own or not) given a bad, odd or valid value. Path flags take
    no odd values, so nothing is written outside the example's directory."""
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    flags = {f: draw(st.sampled_from(_GOOD[f])) for f in _REQUIRED[command]}
    if "--trace" in flags and draw(st.booleans()):
        del flags["--trace"]
        flags["--synthetic-seed"] = draw(st.sampled_from(_GOOD["--synthetic-seed"]))
    for f in _OPTIONAL[command]:
        if draw(st.booleans()):
            flags[f] = draw(st.sampled_from(_GOOD[f]))
    own = _REQUIRED[command] + _OPTIONAL[command]
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from(own * 3 + sorted(_GOOD)))  # mostly the command's own
        fault = draw(st.sampled_from(["drop", "bad", "odd", "good"]))
        if fault == "drop" and flag not in _KEEP:
            flags.pop(flag, None)
        elif fault == "odd" and flag in ("--a", "--quantum-q", "--slot"):
            flags[flag] = repr(draw(st.floats()))
        elif fault == "odd" and not _GOOD[flag][0].startswith("$"):
            flags[flag] = draw(st.text(max_size=6))
        else:
            flags[flag] = draw(st.sampled_from((_BAD if fault == "bad" else _GOOD)[flag]))
    return [command] + [token for flag, value in flags.items() for token in (flag, value)]


@pytest.fixture(scope="session")
def invocation_files(tmp_path_factory):
    """Inputs the drawn flags point at: valid ones and broken ones."""
    root = tmp_path_factory.mktemp("inputs")
    for name in ("dir", "realizations", "mismatched", "junk_dir"):
        (root / name).mkdir()
    (root / "video.json").write_text(json.dumps(SMALL_VIDEO))
    (root / "bad_video.json").write_text(json.dumps(dict(SMALL_VIDEO, frame_rate=0)))
    (root / "junk.json").write_text("not, json or a trace\n")
    (root / "junk_dir" / "r0.csv").write_text("slot,capacity\n0,1\n")
    (root / "not_utf8.csv").write_bytes(b"\xff\xfe\x00bad")
    save_trace(generate_synthetic(SyntheticTraceConfig(1.5e6, 16, seed=3)), root / "trace.csv")
    save_trace(generate_synthetic(SyntheticTraceConfig(1.5e6, 4, seed=0)), root / "short.csv")
    for seed in range(2):
        save_trace(generate_synthetic(SyntheticTraceConfig(1.5e6, 16, seed=seed)), root / "realizations" / f"r{seed}.csv")
        save_trace(generate_synthetic(SyntheticTraceConfig(1.5e6, 12 + 4 * seed, seed=seed)), root / "mismatched" / f"r{seed}.csv")
    names = {"video": "video.json", "bad_video": "bad_video.json", "junk": "junk.json", "trace": "trace.csv", "short_trace": "short.csv", "not_utf8": "not_utf8.csv"}
    paths = {key: str(root / name) for key, name in names.items()}
    paths.update({name: str(root / name) for name in ("dir", "realizations", "mismatched", "junk_dir", "missing")})
    return paths


def _assert_exits_cleanly(invocation_files, tmp_path_factory, args):
    """Run ``args`` (a command and its flags, with ``$name`` fields) in a
    fresh directory: it exits 0, 2, 3 or 4 without a traceback, a failure
    prints one ``error:`` line, every JSON file it writes is strict JSON
    (no NaN or Infinity), and a plan report matches its schema."""
    work = tmp_path_factory.mktemp("run")
    out = work / ("result.json" if args[0] == "plan" else "result.csv")
    paths = dict(invocation_files, out=str(out), dump=str(work / "traj"))
    args = [string.Template(a).safe_substitute(paths) for a in args]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3, 4), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    assert "Traceback" not in result.output
    if result.exit_code != 0:
        assert result.output.startswith("error: "), (args, result.output)
        assert result.output.count("\n") == 1, (args, result.output)
    elif args[0] == "plan":
        read_plan_report(out)

    def reject(constant):
        raise AssertionError(f"{args} wrote {constant} into JSON")

    for path in work.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=reject)
    return result


@settings(max_examples=60, deadline=None)
@given(args=_invocations())
def test_any_invocation_exits_cleanly(invocation_files, tmp_path_factory, args):
    """Whatever the flags, a command exits 0, 2, 3 or 4 without a
    traceback, a failure prints one ``error:`` line, every JSON file it
    writes is strict JSON (no NaN or Infinity), and a plan report matches
    its schema."""
    result = _assert_exits_cleanly(invocation_files, tmp_path_factory, args)
    event(f"{args[0]} exit {result.exit_code}")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command in sorted(_REQUIRED)
        for flag in _REQUIRED[command] + _OPTIONAL[command]
        for value in _BAD[flag]
    ],
)
def test_each_bad_value_exits_cleanly(invocation_files, tmp_path_factory, command, flag, value):
    """Each bad value of each flag a command owns, once, with the command's
    other required flags at their first valid value: the generated test
    draws a given bad value too rarely to stand in for this."""
    flags = {f: _GOOD[f][0] for f in _REQUIRED[command]}
    flags[flag] = value
    args = [command] + [token for f, v in flags.items() for token in (f, v)]
    _assert_exits_cleanly(invocation_files, tmp_path_factory, args)


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output == "abrplan, version 0.1.0\n"


def test_plan_runs_without_jsonschema(tmp_path):
    """A stock ``plan`` from the checkout's ``src`` leaves ``jsonschema``
    unloaded: the report's shape is checked by the tests, not at run time."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = tmp_path / "r.json"
    code = (
        "import sys, abrplan.cli; assert abrplan.cli.__file__.startswith(sys.argv[1]); "
        "abrplan.cli.main(['plan', '--synthetic-seed', '0', '--a', '4.5', '--out', sys.argv[2]]); "
        "print('jsonschema' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code, src, str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\nFalse\n"), proc.stdout
    assert read_plan_report(out)["mode"] == "optimal"
