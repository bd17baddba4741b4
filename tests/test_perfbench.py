"""Smoke test of the benchmark runner's output contract: a short traced run
of each workload exits 0 and ends in one strict-JSON result line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def reject(constant):
    raise AssertionError(f"non-finite constant {constant} in the result line")


@pytest.mark.parametrize("workload", ["stock-plan", "oracle-small"])
def test_traced_run_ends_in_a_strict_json_result(tmp_path, workload):
    # a copy of the runner and the package, so that the run writes its
    # records under tmp_path and not into the checkout's perfbench/out
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(REPO_ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src", ignore=ignore)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=reject)
    assert result["correct"] is True
    assert result["failed"] == 0
    (record,) = [line for line in lines if line.startswith("record ")]
    assert json.loads(record[len("record ") :], parse_constant=reject)["absent_metrics"] == []
