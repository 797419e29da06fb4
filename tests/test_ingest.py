import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vphm import ingest
from vphm.ingest import FlightLog, RawRecord


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestParse:
    def test_three_rows(self, tmp_path):
        p = write_csv(tmp_path / "f.csv",
                      "time_s,current_a,voltage_v\n0,1.5,4.0\n1,1.6,3.9\n2,1.7,3.8\n")
        recs = ingest.parse_flight_csv(p)
        assert len(recs) == 3
        assert recs[1] == RawRecord(1.0, 1.6, 3.9)

    def test_nan_cell_becomes_missing(self, tmp_path):
        p = write_csv(tmp_path / "f.csv",
                      "time_s,current_a,voltage_v\n0,1.0,NaN\n1,,3.9\n")
        recs = ingest.parse_flight_csv(p)
        assert math.isnan(recs[0].voltage)
        assert math.isnan(recs[1].current)

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "time_s,voltage_v\n0,4.0\n")
        with pytest.raises(ingest.MissingColumn):
            ingest.parse_flight_csv(p)

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "time_s,current_a,voltage_v\n")
        with pytest.raises(ingest.EmptyFile):
            ingest.parse_flight_csv(p)

    def test_bad_timestamp_rejected(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "time_s,current_a,voltage_v\nxx,1,4\n")
        with pytest.raises(ValueError):
            ingest.parse_flight_csv(p)


class TestClean:
    def test_duplicate_timestamp_dropped(self):
        recs = [RawRecord(0, 1, 4), RawRecord(1, 1, 4), RawRecord(1, 2, 5),
                RawRecord(2, 1, 4), RawRecord(3, 1, 4)]
        log = ingest.clean(recs)
        assert len(log) == 4
        assert log.current[1] == 1  # first of the duplicate pair kept

    def test_mean_imputation(self):
        recs = [RawRecord(0, 1.0, 4.0), RawRecord(1, math.nan, 4.0),
                RawRecord(2, 3.0, 4.0)]
        log = ingest.clean(recs)
        assert log.current[1] == pytest.approx(2.0)

    def test_implausible_voltage_dropped(self):
        with pytest.raises(ingest.AllRecordsInvalid):
            ingest.clean([RawRecord(0, 1.0, 999.0)])

    def test_all_missing_column_rejected(self):
        with pytest.raises(ingest.AllRecordsInvalid):
            ingest.clean([RawRecord(0, math.nan, 4.0)])

    def test_times_normalized_and_sorted(self):
        recs = [RawRecord(10, 1, 4), RawRecord(12, 2, 4), RawRecord(11, 3, 4)]
        log = ingest.clean(recs)
        assert log.times[0] == 0.0
        assert np.all(np.diff(log.times) > 0)
        assert list(log.current) == [1.0, 3.0, 2.0]

    def test_does_not_mutate_input(self):
        recs = [RawRecord(1, 1, 4), RawRecord(0, 2, 5)]
        snapshot = list(recs)
        ingest.clean(recs)
        assert recs == snapshot

    @given(st.lists(
        st.tuples(st.integers(0, 30),
                  st.one_of(st.none(), st.floats(-4, 150)),
                  st.one_of(st.none(), st.floats(0.5, 29))),
        min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_cleaning_idempotent(self, rows):
        recs = [RawRecord(float(t),
                          math.nan if i is None else i,
                          math.nan if v is None else v)
                for t, i, v in rows]
        try:
            once = ingest.clean(recs)
        except (ingest.AllRecordsInvalid, ingest.IrregularSampling):
            return  # nothing usable or evenly sampled survived
        twice = ingest.clean([RawRecord(t, i, v) for t, i, v in zip(
            once.times.tolist(), once.current.tolist(),
            once.voltage.tolist())])
        assert np.array_equal(once.times, twice.times)
        assert np.array_equal(once.current, twice.current)
        assert np.array_equal(once.voltage, twice.voltage)


def make_log(n, flight_id="f1"):
    t = np.arange(n, dtype=float)
    return FlightLog(flight_id=flight_id, times=t, current=np.ones(n),
                     voltage=4.0 - 0.01 * t, sample_period=1.0)


class TestWindows:
    def test_count_formula(self):
        log = make_log(12)
        windows = ingest.make_windows(log, log.voltage, window_size=10, stride=1)
        assert len(windows) == 3

    @given(n=st.integers(1, 60), w=st.integers(1, 20), s=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_count_formula_property(self, n, w, s):
        log = make_log(n)
        if n < w:
            with pytest.raises(ingest.TooShort):
                ingest.make_windows(log, log.voltage, w, s)
            return
        windows = ingest.make_windows(log, log.voltage, w, s)
        assert len(windows) == (n - w) // s + 1

    def test_zero_residual_targets(self):
        log = make_log(15)
        windows = ingest.make_windows(log, log.voltage)
        assert all(w.target == 0.0 for w in windows)

    def test_too_short(self):
        log = make_log(9)
        with pytest.raises(ingest.TooShort):
            ingest.make_windows(log, log.voltage, window_size=10)

    def test_targets_reconstruct_residual_series(self):
        log = make_log(25)
        physics_v = log.voltage - 0.1 - 0.001 * log.times
        windows = ingest.make_windows(log, physics_v, window_size=10, stride=1)
        residual = log.voltage - physics_v
        assert np.allclose([w.target for w in windows], residual[9:])

    def test_window_inputs_are_current_and_physics(self):
        log = make_log(12)
        physics_v = log.voltage + 0.5
        windows = ingest.make_windows(log, physics_v, window_size=10)
        assert windows[0].inputs.shape == (10, 2)
        assert np.array_equal(windows[0].inputs[:, 0], log.current[:10])
        assert np.array_equal(windows[0].inputs[:, 1], physics_v[:10])

    def test_uncleaned_log_rejected(self):
        log = make_log(12)
        log.voltage[3] = math.nan
        with pytest.raises(ValueError):
            ingest.make_windows(log, log.voltage)

    def test_misaligned_physics_rejected(self):
        log = make_log(12)
        with pytest.raises(ValueError):
            ingest.make_windows(log, log.voltage[:-1])


class TestSplit:
    def test_paper_fleet_sizes(self):
        logs = [make_log(12, f"f{i:02d}") for i in range(33)]
        train_ids = {f"f{i:02d}" for i in range(25)}
        train, test = ingest.split_by_flight(logs, train_ids)
        assert (len(train), len(test)) == (25, 8)
        assert {l.flight_id for l in train} | {l.flight_id for l in test} \
            == {l.flight_id for l in logs}

    def test_empty_train_ids(self):
        logs = [make_log(12, "a"), make_log(12, "b")]
        train, test = ingest.split_by_flight(logs, set())
        assert train == [] and len(test) == 2

    def test_unknown_flight(self):
        logs = [make_log(12, "a")]
        with pytest.raises(ingest.UnknownFlight):
            ingest.split_by_flight(logs, {"zz"})
