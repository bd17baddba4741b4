"""End-to-end CLI tests on a small, fast instance."""

import json
import math

import jsonschema
import pytest
from click.testing import CliRunner

from abrplan import SyntheticTraceConfig, generate_synthetic, save_trace
from abrplan.cli import PLAN_REPORT_SCHEMA, main

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
        report = json.loads(out.read_text())
        jsonschema.validate(report, PLAN_REPORT_SCHEMA)
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
            alphas[a] = json.loads(out.read_text())["alpha_th"]
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

    def test_invest_requires_quantum(self, runner, video_file, trace_file, tmp_path):
        args = ["plan", "--video", video_file, "--trace", trace_file,
                "--a", "1", "--mode", "invest", "--out", str(tmp_path / "r.json")]
        assert runner.invoke(main, args).exit_code == 4
        assert runner.invoke(main, args + ["--quantum-q", "2e6"]).exit_code == 0

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

    def test_slot_resampling(self, runner, video_file, trace_file, tmp_path):
        out = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["plan", "--video", video_file, "--trace", trace_file,
             "--a", "1", "--slot", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert len(report["bits_used_per_slot"]) == 8
        bad = runner.invoke(
            main,
            ["plan", "--video", video_file, "--trace", trace_file,
             "--a", "1", "--slot", "1.5", "--out", str(out)],
        )
        assert bad.exit_code == 4


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
        report = json.loads(plan_out.read_text())
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

    def test_one_job_accepted(self, runner, video_file, trace_file, tmp_path):
        out = tmp_path / "r.json"
        args = _command_args("plan", video_file, trace_file, tmp_path, out)
        assert runner.invoke(main, args + ["--jobs", "1"]).exit_code == 0
        assert out.exists()


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


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output == "abrplan, version 0.1.0\n"
