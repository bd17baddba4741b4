"""Trace tests: synthetic generation, per-slot means, coarsening, and the
trace export format."""

import math
import os

import numpy as np
import pytest

from abrplan import (
    CapacityTrace,
    SyntheticTraceConfig,
    TraceFormatError,
    coarsen,
    generate_synthetic,
    load_trace,
    mean_trace,
    save_trace,
)


class TestSynthetic:
    def test_zero_spread_is_constant(self):
        t = generate_synthetic(SyntheticTraceConfig(2e6, 10, spread_fraction=0.0))
        assert all(c == 2e6 for c in t.capacities)

    def test_seed_determinism(self):
        cfg = SyntheticTraceConfig(2e6, 50, seed=123)
        assert generate_synthetic(cfg) == generate_synthetic(cfg)
        other = SyntheticTraceConfig(2e6, 50, seed=124)
        assert generate_synthetic(cfg) != generate_synthetic(other)

    def test_bounds_and_mean(self):
        cfg = SyntheticTraceConfig(2e6, 190, seed=0, spread_fraction=0.5)
        t = generate_synthetic(cfg)
        arr = t.as_array
        assert arr.min() >= 1e6 and arr.max() <= 3e6
        assert abs(arr.mean() - 2e6) / 2e6 < 0.10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(0.0, 10)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="mean_bps"):
                SyntheticTraceConfig(bad, 10)
            with pytest.raises(ValueError, match="slot_duration"):
                SyntheticTraceConfig(1.0, 10, slot_duration=bad)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(1.0, 0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(1.0, 10, spread_fraction=1.0)
        # counts that are not integers, which numpy would reject only when drawing
        for bad in (2.5, 10.0, True):
            with pytest.raises(ValueError, match="window_slots"):
                SyntheticTraceConfig(1.0, bad)
        for bad in (-1, 1.5, True):
            with pytest.raises(ValueError, match="seed"):
                SyntheticTraceConfig(1.0, 10, seed=bad)
        assert generate_synthetic(SyntheticTraceConfig(1.0, np.int64(3), seed=np.int64(0))).n_slots == 3


class TestMeanTrace:
    def test_identical_traces(self):
        t = CapacityTrace(1.0, (1.0, 2.0))
        assert mean_trace([t, t]) == t

    def test_two_traces(self):
        a = CapacityTrace(1.0, (1.0, 3.0))
        b = CapacityTrace(1.0, (3.0, 1.0))
        assert mean_trace([a, b]).capacities == (2.0, 2.0)

    def test_twenty_realizations(self):
        traces = [
            generate_synthetic(SyntheticTraceConfig(2e6, 30, seed=s)) for s in range(20)
        ]
        m = mean_trace(traces)
        direct = sum(t.as_array for t in traces) / 20
        assert np.allclose(m.as_array, direct, rtol=0, atol=1e-6)

    def test_mismatched_slotting(self):
        with pytest.raises(ValueError):
            mean_trace([CapacityTrace(1.0, (1.0,)), CapacityTrace(2.0, (1.0,))])
        with pytest.raises(ValueError):
            mean_trace([CapacityTrace(1.0, (1.0,)), CapacityTrace(1.0, (1.0, 2.0))])
        with pytest.raises(ValueError):
            mean_trace([])


class TestCoarsen:
    def test_identity(self):
        t = CapacityTrace(1.0, (1.0, 2.0, 3.0))
        assert coarsen(t, 1) is t

    def test_grouping(self):
        t = CapacityTrace(1.0, (1.0, 3.0, 2.0, 4.0))
        c = coarsen(t, 2)
        assert c.slot_duration == 2.0
        assert c.capacities == (2.0, 3.0)

    def test_trailing_partial_group(self):
        t = CapacityTrace(1.0, (1.0, 3.0, 5.0))
        c = coarsen(t, 2)
        assert c.capacities == (2.0, 5.0)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            coarsen(CapacityTrace(1.0, (1.0,)), 0)


class TestExportFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        t = generate_synthetic(SyntheticTraceConfig(2e6, 37, seed=5, slot_duration=0.25))
        path = tmp_path / "trace.csv"
        save_trace(t, path)
        loaded = load_trace(path)
        assert loaded.slot_duration == t.slot_duration
        assert loaded.capacities == t.capacities

    def test_failed_replace_leaves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        path.write_text("old")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            save_trace(CapacityTrace(1.0, (1.0, 2.0)), path)
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slot_index,capacity_bps\n0,1.0\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# slot_duration=1.0\nslot_index,capacity_bps\n0,abc\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_gapped_indices(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# slot_duration=1.0\nslot_index,capacity_bps\n0,1.0\n2,2.0\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_trace(tmp_path / "nope.csv")
