"""Record the expected results that runs at the default seed are checked
against.

    python3 perfbench/record_expected.py [WORKLOAD ...]

Runs every op in each workload's pool once at ``DEFAULT_SEED`` and writes
``perfbench/expected/<workload>.json``. Each result must also pass the
workload's invariant checks, and the stock windows must equal
``abrplan.generate_synthetic(abrplan.default_trace_config(s))`` bit for
bit, or nothing is written. Re-record only when a change to the program is
meant to change its results, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

from inputs import write_inputs
from loader import REPO_ROOT, import_abrplan, load_inputs
from workloads import DEFAULT_SEED, EXPECTED_DIR, WORKLOADS, StockPlan


def record(name: str) -> None:
    workload = WORKLOADS[name]()
    input_dir = REPO_ROOT / "perfbench" / "out" / f"record-{name}"
    write_inputs(workload.inputs, DEFAULT_SEED, input_dir)
    try:
        spec, traces = load_inputs(input_dir)
        ap = import_abrplan()

        if name == StockPlan.name:
            for i, trace in enumerate(traces):
                stock = ap.generate_synthetic(ap.default_trace_config(DEFAULT_SEED + i))
                if trace != stock:
                    raise SystemExit(f"stock window {i} differs from generate_synthetic")
        workload.setup(ap, spec, traces, input_dir, DEFAULT_SEED)
        expected = {}
        for op in workload.ops():
            result = workload.run(op)
            workload.check(op, result)
            expected[workload.key(op)] = workload.summary(op, result)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{name}.json"
    path.write_text(json.dumps(expected, sort_keys=True) + "\n")
    print(f"{name}: {len(expected)} ops -> {path.relative_to(REPO_ROOT)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        record(name)
