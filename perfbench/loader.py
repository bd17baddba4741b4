"""Set-up of one workload: import ``abrplan`` from the checkout's ``src``
and load the generated inputs through the package's own loaders.

``python3 perfbench/loader.py INPUT_DIR`` performs the set-up in a fresh
interpreter and prints its duration in seconds; ``run.py`` starts it a few
times per run and reports the median as ``setup_s``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


class MissingProgramError(RuntimeError):
    """The checkout holds no ``src/abrplan`` package to benchmark."""


def import_abrplan():
    """Import the checkout's ``abrplan`` (never an installed copy)."""
    if not (SRC / "abrplan" / "__init__.py").is_file():
        raise MissingProgramError(f"no abrplan package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import abrplan
    import abrplan.cli

    if Path(abrplan.__file__).resolve().parent != SRC / "abrplan":
        raise MissingProgramError(f"imported abrplan from {abrplan.__file__}, not from {SRC}")
    return abrplan


def load_inputs(input_dir: Path):
    """Return ``(spec, traces)`` for a directory written by
    ``inputs.write_inputs``; the import happens here so that a fresh
    interpreter pays for it inside the timed set-up."""
    abrplan = import_abrplan()
    spec = abrplan.cli.load_video_spec(input_dir / "video.json")
    traces = [abrplan.traces.load_trace(p) for p in sorted(input_dir.glob("trace-*.csv"))]
    return spec, traces


if __name__ == "__main__":
    t0 = time.perf_counter()
    load_inputs(Path(sys.argv[1]))
    print(repr(time.perf_counter() - t0))
