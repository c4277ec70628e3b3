import contextlib
import dataclasses
import random
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzgate.energy import REFERENCE_JOULES_PER_PACKET, packet_energy
from fuzzgate.sim import (ColumnMapping, MissingColumnError, RowError,
                          TelemetryError, load_telemetry, run_fuzzy)
from telemetry import record, telemetry_of

CALIBRATED = REFERENCE_JOULES_PER_PACKET

#: A reading that is sent (hot apparent temperature, low usage) and one that
#: is not (cool apparent temperature, v.high usage).
SENT = record(datetime(2016, 1, 11, 3), 61.5, 0.725, 25.0)
SUPPRESSED = record(datetime(2016, 1, 11, 9, 30), 9.25, 0.15, 600.0)


def make_records(n, temperature=20.0, humidity=0.35, energy=60.0, hour=3):
    start = datetime(2016, 1, 11, hour, 0, 0)
    return telemetry_of(record(start + timedelta(minutes=10 * i),
                               temperature, humidity, energy)
                        for i in range(n))


class TestLoadTelemetry:
    def test_fixture_loads_in_order(self, fixture_csv):
        records, report = load_telemetry(fixture_csv)
        assert len(records) == 50
        assert report.skipped == 0
        first = next(iter(records))
        assert first.timestamp == datetime(2016, 1, 11, 17, 0, 0)
        assert first.temperature == 20.05
        assert first.humidity == pytest.approx(0.3385)  # percent scale
        assert first.appliance_energy == 230.0
        timestamps = [r.timestamp for r in records]
        assert timestamps == sorted(timestamps)

    def test_fraction_scale_keeps_value(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,T1,RH_1,Appliances\n"
                     "2016-01-11 17:00:00,20,0.40,60\n")
        (record,), _ = load_telemetry(p, ColumnMapping(humidity_scale="fraction"))
        assert record.humidity == 0.40

    def test_percent_scale_normalizes(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,T1,RH_1,Appliances\n"
                     "2016-01-11 17:00:00,20,40.0,60\n")
        (record,), _ = load_telemetry(p)
        assert record.humidity == pytest.approx(0.40)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,T1,Appliances\n2016-01-11 17:00:00,20,60\n")
        with pytest.raises(MissingColumnError) as exc:
            load_telemetry(p)
        assert "RH_1" in str(exc.value)

    def test_bad_timestamp_strict(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,T1,RH_1,Appliances\nnot-a-date,20,40,60\n")
        with pytest.raises(RowError) as exc:
            load_telemetry(p, policy="strict")
        assert exc.value.line == 2

    def test_bad_rows_skipped_and_counted(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,T1,RH_1,Appliances\n"
                     "2016-01-11 17:00:00,20,40,60\n"
                     "not-a-date,20,40,60\n"
                     "2016-01-11 17:20:00,oops,40,60\n"
                     "2016-01-11 17:30:00,21,41,70\n")
        records, report = load_telemetry(p, policy="skip-bad")
        assert len(records) == 2
        assert report.skipped == 2
        assert report.skipped_rows == (3, 4)

    # Line 1 is the header, line 2 a good row, lines 3-4 blank, line 5 bad.
    BLANK_LINES = ("date,T1,RH_1,Appliances\n"
                   "2016-01-11 17:00:00,20,40,60\n"
                   "\n\n")

    def test_strict_error_names_file_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.BLANK_LINES + "not-a-date,20,40,60\n")
        with pytest.raises(RowError) as exc:
            load_telemetry(p, policy="strict")
        assert exc.value.line == 5
        assert str(exc.value).startswith(f"{p}: line 5, field 'date': ")

    def test_skipped_row_is_file_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.BLANK_LINES + "not-a-date,20,40,60\n"
                     "2016-01-11 17:10:00,20,40,60\n")
        records, report = load_telemetry(p, policy="skip-bad")
        assert len(records) == 2
        assert report.skipped_rows == (5,)

    def test_unparseable_record_names_its_first_line(self, tmp_path):
        p = tmp_path / "t.csv"
        # A stray quote opens a field that runs past the csv module's
        # 128 KiB field limit.
        p.write_text(self.BLANK_LINES + '2016-01-11 17:10:00,"20,40,60\n'
                     + "2016-01-11 17:20:00,20,40,60\n" * 5000)
        with pytest.raises(TelemetryError) as exc:
            load_telemetry(p, policy="skip-bad")
        assert str(exc.value).startswith(f"{p}: record starting at line 5: ")

    @pytest.mark.parametrize("header, row, temperature", [
        ("date,T1,RH_1,Appliances,T1", "2016-01-11 17:00:00,20,40,60,25", 25.0),
        ("date,T1,RH_1,Appliances", "2016-01-11 17:00:00,20,40,60,x,7", 20.0),
        ("date,T1,RH_1,Appliances,T1", "2016-01-11 17:00:00,20,40,60", 20.0),
    ], ids=["repeated-name-last-wins", "long-row", "short-row-repeated-name"])
    def test_row_read_as_a_dict_of_header_and_fields(self, tmp_path, header,
                                                     row, temperature):
        # As `dict(zip(header, fields))`: the last field of a repeated name
        # that the row has wins, and extra trailing fields are ignored.
        p = tmp_path / "t.csv"
        p.write_text(f"{header}\n{row}\n")
        records, _ = load_telemetry(p, policy="strict")
        assert [(r.temperature, r.appliance_energy) for r in records] == \
            [(temperature, 60.0)]

    @pytest.mark.parametrize("row, field", [
        ("2016-01-11 17:00:00,20,40", "Appliances"),
        ("2016-01-11 17:00:00", "RH_1"),  # humidity is checked first
    ])
    def test_short_row_reads_missing_fields_as_empty(self, tmp_path, row, field):
        p = tmp_path / "t.csv"
        p.write_text(f"date,T1,RH_1,Appliances\n{row}\n")
        with pytest.raises(RowError) as exc:
            load_telemetry(p, policy="strict")
        assert str(exc.value) == f"{p}: line 2, field '{field}': not a number: ''"

    TIMESTAMP_SHAPES = (
        "2016-01-11 17:00:00", "2016-12-31 23:59:59", "2016-01-11T17:00:00",
        "2016-01-11", "2016-01-11 17:00", "2016-01-11 17:00:00.5",
        "2016-01-11 17:00:00.000000", "2016-01-11 17:00:00+01:00",
        "2016-01-11 17:00:00Z", "2016-1-11 17:0:0", "2016-01-11  7:00:00",
        "2016-01-11 23:59:60", "2016-01-11 24:00:00", "2016-01-11 17:60:00",
        "2016-02-30 00:00:00", "2016-13-01 00:00:00", "0000-01-01 00:00:00",
        "20160111 170000", "2016/01/11 17:00:00",
        "\u0662\u0660\u0661\u0666-01-11 17:00:00", "2016-01-11 1\uff17:00:00")

    def test_timestamp_shapes_accepted_as_strptime_does(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,T1,RH_1,Appliances\n" + "".join(
            f"{ts},20,40,60\n" for ts in self.TIMESTAMP_SHAPES), encoding="utf-8")
        records, report = load_telemetry(p, policy="skip-bad")
        expected = {}
        for line, ts in enumerate(self.TIMESTAMP_SHAPES, start=2):
            with contextlib.suppress(ValueError):
                expected[line] = datetime.strptime(ts, "%Y-%m-%d %H:%M:%S")
        assert 0 < len(expected) < len(self.TIMESTAMP_SHAPES)
        assert [r.timestamp for r in records] == list(expected.values())
        assert set(report.skipped_rows) == \
            set(range(2, 2 + len(self.TIMESTAMP_SHAPES))) - set(expected)

    def test_time_of_day_fractional_hours(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,T1,RH_1,Appliances\n2016-01-11 13:30:36,20,40,60\n")
        telemetry, _ = load_telemetry(p)
        assert telemetry.readings[0, 3] == pytest.approx(13.51)
        assert next(iter(telemetry)).time_of_day == telemetry.readings[0, 3]


class TestRunTraditional:
    """The always-send baseline, which run_fuzzy prices in the same pass."""

    def test_every_record_transmits(self, cascade):
        records = make_records(10)
        result = run_fuzzy(records, cascade, CALIBRATED)
        assert result.traditional_joules == 10 * CALIBRATED
        assert len(result.cumulative) == 10
        assert result.cumulative[-1].tolist() == [result.traditional_joules,
                                                  result.total_joules]
        assert result.transmissions + result.suppressed == 10

    def test_empty_run(self, cascade):
        result = run_fuzzy(telemetry_of([]), cascade, CALIBRATED)
        assert result.transmissions == 0
        assert result.total_joules == 0.0
        assert result.traditional_joules == 0.0
        assert result.reduction_pct == 0.0
        assert result.count_reduction_pct == 0.0
        assert len(result.cumulative) == 0

    def test_physical_linearity(self, cascade):
        per_packet = packet_energy(header_bits=6_000_000, data_bits=0)
        result = run_fuzzy(make_records(2), cascade, per_packet)
        assert result.traditional_joules == pytest.approx(2.8, rel=1e-12)


class TestRunFuzzy:
    def test_all_send_at_hot_stiki_cores(self, cascade):
        # hot apparent temperature with low usage: every record transmits
        records = make_records(20, temperature=61.5, humidity=0.725,
                               energy=25.0, hour=3)
        result = run_fuzzy(records, cascade, CALIBRATED)
        assert result.transmissions == 20
        assert result.suppressed == 0

    def test_none_send_at_cool_vhigh_cores(self, cascade):
        # cool apparent temperature with v.high usage: nothing transmits
        records = make_records(20, temperature=9.25, humidity=0.15,
                               energy=600.0, hour=9)
        records = [record(r.timestamp.replace(hour=9, minute=30),
                          r.temperature, r.humidity, r.appliance_energy)
                   for r in records]
        result = run_fuzzy(telemetry_of(records), cascade, CALIBRATED)
        assert result.transmissions == 0
        assert result.suppressed == 20

    def test_gate_only_suppresses(self, cascade, fixture_csv):
        records, _ = load_telemetry(fixture_csv)
        fuzzy = run_fuzzy(records, cascade, CALIBRATED)
        assert fuzzy.transmissions <= len(records)
        assert fuzzy.total_joules <= fuzzy.traditional_joules
        assert fuzzy.transmissions + fuzzy.suppressed == len(records)

    def test_cumulative_series_non_decreasing(self, cascade, fixture_csv):
        records, _ = load_telemetry(fixture_csv)
        cumulative = run_fuzzy(records, cascade, CALIBRATED).cumulative
        for series in zip(*cumulative):  # always-send, then gated
            assert all(a <= b for a, b in zip(series, series[1:]))

    @given(st.lists(st.booleans(), max_size=50),
           st.sampled_from([CALIBRATED, packet_energy(), 0.123])
           | st.floats(min_value=0.0, max_value=1e300, exclude_min=True))
    def test_cumulative_is_packets_so_far_times_joules(self, cascade, mask,
                                                       joules):
        result = run_fuzzy(telemetry_of(SENT if send else SUPPRESSED
                                        for send in mask), cascade, joules)
        assert result.decisions.tolist() == mask
        expected, sent = [], 0
        for i, send in enumerate(mask):
            sent += send
            expected.append([(i + 1) * joules, sent * joules])
        assert result.cumulative.shape == (len(mask), 2)
        assert result.cumulative.tolist() == expected

    def test_out_of_universe_clamped_and_counted(self, cascade):
        records = [record(datetime(2016, 1, 11, 3, 0, 0), 20.0, 1.4, 60.0)]
        result = run_fuzzy(telemetry_of(records), cascade, CALIBRATED)
        assert result.clamped_records == 1
        assert result.clamped[0]

    def test_replay_determinism(self, cascade, fixture_csv):
        records, _ = load_telemetry(fixture_csv)
        a = run_fuzzy(records, cascade, CALIBRATED)
        b = run_fuzzy(records, cascade, CALIBRATED)
        for field in dataclasses.fields(a):
            x, y = (getattr(r, field.name) for r in (a, b))
            if isinstance(x, np.ndarray):
                x, y = ((v.dtype, v.shape, v.tobytes()) for v in (x, y))
            assert x == y, field.name

    def test_shuffle_invariance_of_totals(self, cascade, fixture_csv):
        records, _ = load_telemetry(fixture_csv)
        shuffled = list(records)
        random.Random(7).shuffle(shuffled)
        a = run_fuzzy(records, cascade, CALIBRATED)
        b = run_fuzzy(telemetry_of(shuffled), cascade, CALIBRATED)
        assert a.transmissions == b.transmissions
        assert a.total_joules == b.total_joules

    def test_no_rule_fired_sends(self, cascade, fs2, fs3):
        from fuzzgate.cascade import Cascade
        from fuzzgate.core import FuzzySubsystem
        # FS1 with no rules: NoRuleFired on every record
        empty_fs1 = FuzzySubsystem(cascade.fs1.name, cascade.fs1.inputs,
                                   cascade.fs1.output, ())
        broken = Cascade(empty_fs1, fs2, fs3)
        records = make_records(5)
        sent = run_fuzzy(records, broken, CALIBRATED)
        assert sent.transmissions == 5
        assert sent.failsafe_sends == 5
        assert sent.failsafe.all()


class TestFullScaleReplay:
    def test_synthetic_dataset_scale(self, cascade):
        # same record count as the full benchmark dataset; checks throughput
        # and gate invariants, not the real-data reduction figure
        import time
        rng = random.Random(1)
        start_ts = datetime(2016, 1, 11, 17, 0, 0)
        records = [
            record(start_ts + timedelta(minutes=10 * i),
                   rng.uniform(16.0, 27.0), rng.uniform(0.30, 0.55),
                   rng.choice([30, 50, 70, 100, 150, 200, 300, 500]))
            for i in range(19735)]
        t0 = time.perf_counter()
        fuzzy = run_fuzzy(telemetry_of(records), cascade, CALIBRATED)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert fuzzy.transmissions < len(records)
        assert 0.0 < fuzzy.reduction_pct < 100.0


class TestCompare:
    """Reductions of the gated run against always-send."""

    def test_reference_counts_reduction(self):
        # pin counts to the reference run: 17410 of 19735 transmitted
        report_like = (1 - 17410 / 19735) * 100
        assert round(report_like, 1) == 11.8

    def test_comparison_report_fields(self, cascade, fixture_csv):
        records, _ = load_telemetry(fixture_csv)
        result = run_fuzzy(records, cascade, CALIBRATED)
        assert len(result.decisions) == 50
        assert result.traditional_joules == 50 * CALIBRATED
        assert result.reduction_pct == pytest.approx(
            (1 - result.total_joules / result.traditional_joules) * 100)
        assert result.reduction_pct == pytest.approx(
            result.count_reduction_pct, abs=1e-9)
        assert len(result.cumulative) == 50
        assert result.cumulative[-1].tolist() == [result.traditional_joules,
                                                  result.total_joules]

    def test_identical_results_zero_reduction(self, cascade):
        # hot apparent temperature with low usage: every record transmits
        records = make_records(20, temperature=61.5, humidity=0.725,
                               energy=25.0, hour=3)
        result = run_fuzzy(records, cascade, CALIBRATED)
        assert result.transmissions == 20
        assert result.reduction_pct == 0.0
        assert result.count_reduction_pct == 0.0
