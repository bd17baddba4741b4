"""Trace acquisition tests: synthetic generation, CSV ingest, the
spatial-to-temporal mapping, and the trace export format."""

import math
import os

import numpy as np
import pytest

from abrplan import (
    CapacityTrace,
    ColumnMap,
    MissingColumnError,
    NonMonotonicTimestampError,
    StationaryLogError,
    SyntheticTraceConfig,
    TraceFormatError,
    TraceIngestError,
    coarsen,
    generate_synthetic,
    ingest_csv,
    load_trace,
    mean_trace,
    save_trace,
    temporal_mapping,
)
from abrplan.traces import RawBandwidthLog, haversine_m


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
        with pytest.raises(ValueError):
            SyntheticTraceConfig(1.0, 0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(1.0, 10, spread_fraction=1.0)


def _write_log(tmp_path, rows, header="timestamp_ms,latitude,longitude,bytes"):
    path = tmp_path / "log.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestIngestCsv:
    def test_well_formed(self, tmp_path):
        path = _write_log(
            tmp_path,
            ["0,59.0,10.0,1000", "1000,59.001,10.0,2000", "2000,59.002,10.0,1500"],
        )
        log = ingest_csv(path)
        assert log.n_samples == 3
        assert sum(log.bytes_received) == 4500.0

    def test_duplicate_timestamp_names_line(self, tmp_path):
        path = _write_log(tmp_path, ["0,59.0,10.0,1000", "0,59.001,10.0,2000"])
        with pytest.raises(NonMonotonicTimestampError) as err:
            ingest_csv(path)
        assert err.value.line == 3

    def test_missing_column(self, tmp_path):
        path = _write_log(tmp_path, ["0,59.0,1000"], header="timestamp_ms,latitude,bytes")
        with pytest.raises(MissingColumnError):
            ingest_csv(path)

    def test_unparseable_row_names_line(self, tmp_path):
        path = _write_log(tmp_path, ["0,59.0,10.0,1000", "abc,59.0,10.0,2000"])
        with pytest.raises(TraceIngestError) as err:
            ingest_csv(path)
        assert err.value.line == 3

    def test_out_of_range_coordinates(self, tmp_path):
        path = _write_log(tmp_path, ["0,99.0,10.0,1000", "1,59.0,10.0,1"])
        with pytest.raises(TraceIngestError):
            ingest_csv(path)

    def test_negative_bytes(self, tmp_path):
        path = _write_log(tmp_path, ["0,59.0,10.0,-5", "1,59.0,10.1,1"])
        with pytest.raises(TraceIngestError):
            ingest_csv(path)

    def test_too_few_samples(self, tmp_path):
        path = _write_log(tmp_path, ["0,59.0,10.0,1000"])
        with pytest.raises(TraceIngestError):
            ingest_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceIngestError):
            ingest_csv(tmp_path / "nope.csv")

    def test_custom_column_map(self, tmp_path):
        path = _write_log(tmp_path, ["0;59.0;10.0;7", "1;59.1;10.0;8"], header="t;lat;lon;b")
        cmap = ColumnMap(timestamp_ms="t", latitude="lat", longitude="lon",
                         bytes_received="b", delimiter=";")
        assert ingest_csv(path, cmap).n_samples == 2


def test_haversine_known_distance():
    # one degree of latitude is ~111.2 km on the reference sphere
    d = haversine_m(0.0, 0.0, 1.0, 0.0)
    assert d == pytest.approx(111_195, rel=1e-3)


class TestTemporalMapping:
    def _log(self, lats, lons, byte_counts):
        n = len(lats)
        return RawBandwidthLog(
            timestamps_ms=tuple(float(i * 1000) for i in range(n)),
            latitudes=tuple(lats),
            longitudes=tuple(lons),
            bytes_received=tuple(byte_counts),
        )

    def test_short_hop_at_50_kmph(self):
        # 13.888... m is exactly one second of travel at 50 km/h
        dlat = (50 / 3.6) / 111_194.92664455874
        log = self._log([0.0, dlat], [0.0, 0.0], [0.0, 1000.0])
        trace = temporal_mapping(log, 50.0, slot_duration=1.0)
        assert trace.n_slots == 1
        assert trace.capacities[0] == pytest.approx(8000.0, rel=1e-6)

    def test_doubling_speed_preserves_bits(self):
        lats = [0.0, 0.001, 0.002, 0.0035]
        log = self._log(lats, [0.0] * 4, [100.0, 300.0, 250.0, 400.0])
        slow = temporal_mapping(log, 25.0, 1.0)
        fast = temporal_mapping(log, 50.0, 1.0)
        bits = lambda t: float(np.sum(t.as_array) * t.slot_duration)
        assert bits(slow) == pytest.approx(bits(fast), rel=1e-9)
        assert bits(slow) == pytest.approx(sum(log.bytes_received) * 8.0, rel=1e-9)
        assert fast.n_slots <= slow.n_slots

    def test_matches_hand_resampling(self):
        # two equal hops of ~55.6 m: 4 s each at 50 km/h; bits spread
        # uniformly per hop, so slots within one hop share one capacity
        dlat = 4 * (50 / 3.6) / 111_194.92664455874
        log = self._log([0.0, dlat, 2 * dlat], [0.0] * 3, [0.0, 800.0, 1600.0])
        trace = temporal_mapping(log, 50.0, 1.0)
        assert trace.n_slots == 8
        assert np.allclose(trace.as_array[:4], 800.0 * 8 / 4, rtol=1e-2)
        assert np.allclose(trace.as_array[4:], 1600.0 * 8 / 4, rtol=1e-2)

    def test_stationary_log_rejected(self):
        log = self._log([1.0, 1.0], [2.0, 2.0], [10.0, 10.0])
        with pytest.raises(StationaryLogError):
            temporal_mapping(log, 50.0, 1.0)

    def test_bad_arguments(self):
        log = self._log([0.0, 0.1], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            temporal_mapping(log, 0.0, 1.0)
        with pytest.raises(ValueError):
            temporal_mapping(log, 50.0, 0.0)


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
