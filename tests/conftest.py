"""Shared fixtures and the acceptance-criteria summary hook."""

import pytest

from abrplan import CapacityTrace, QualityLevel, VideoSpec


@pytest.fixture
def toy_spec() -> VideoSpec:
    """4 segments x 2 frames at 2 fps, two levels, 2-frame prefetch.

    Small enough that every session can be checked by hand.
    """
    return VideoSpec(
        n_segments=4,
        frames_per_segment=2,
        frame_rate=2.0,
        levels=(QualityLevel(8.0, 0.5), QualityLevel(16.0, 1.0)),
        prefetch_frames=2,
    )


@pytest.fixture
def toy_trace() -> CapacityTrace:
    """6 one-second slots matched to toy_spec's bit scale."""
    return CapacityTrace(slot_duration=1.0, capacities=(16.0, 8.0, 16.0, 16.0, 16.0, 16.0))


@pytest.fixture
def zero_rate_instance() -> tuple[CapacityTrace, VideoSpec]:
    """A window and video where plan (1, 1, 1, 1, 2) at threshold
    3.1377652831369094 is feasible: its level-1 run completes inside slot 0,
    slot 1 is below the threshold, and the level-2 run follows in slot 2.
    Every slot's bits must be >= 0."""
    trace = CapacityTrace(
        slot_duration=1.0,
        capacities=(
            10.35026809892301, 2.124573200739967, 3.1377652831369094, 7.2896325015025,
            2.6749937992374107, 9.711361547712361, 3.9734308877037052, 4.569658583266028,
            9.911642956930457, 7.850340388660006, 2.032674249726777,
        ),
    )
    spec = VideoSpec(
        n_segments=5,
        frames_per_segment=1,
        frame_rate=3.0,
        levels=(QualityLevel(2.749226127675146, 0.4910721276843603), QualityLevel(5.598416144363682, 1.0)),
        prefetch_frames=2,
    )
    return trace, spec


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(n): acceptance criterion number for the summary line"
    )


_CRITERION_RESULTS: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    marker_n = getattr(report, "_criterion", None)
    if marker_n is not None:
        _CRITERION_RESULTS[marker_n] = "PASS" if report.passed else "FAIL"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        report._criterion = marker.args[0]


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for n in sorted(_CRITERION_RESULTS):
        terminalreporter.write_line(f"CRITERION {n}: {_CRITERION_RESULTS[n]}")
