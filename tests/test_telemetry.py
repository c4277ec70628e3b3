"""The blocked loader against the row-wise reference loader in
`telemetry.py`: the same file must give the same timestamps, the same
readings bit for bit, the same load report, or the same error."""
import importlib.util
import tempfile
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fuzzgate import cli, sim
from fuzzgate.sim import (LOAD_BLOCK, ColumnMapping, RowError, TelemetryError,
                          load_telemetry)
from telemetry import load_telemetry_rowwise, telemetry_of
from test_cli import CSV_HEADERS, CSV_ROWS

_spec = importlib.util.spec_from_file_location(
    "perfbench_gen", Path(__file__).parents[1] / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def reference(path, **kwargs):
    records, report = load_telemetry_rowwise(path, **kwargs)
    return telemetry_of(records), report


def outcome(load, path, **kwargs):
    """What `load` gives for `path`, its result or its error, and a
    comparable form of that."""
    try:
        telemetry, report = result = load(path, **kwargs)
    except TelemetryError as exc:
        return exc, (type(exc), str(exc))
    readings = telemetry.readings
    return result, (telemetry.timestamps, readings.shape, readings.dtype,
                    readings.tobytes(), report)


def loaders_agree(path, **kwargs):
    """Assert that both loaders give the same for `path`; return what the
    blocked loader gave: `(telemetry, report)` or the error."""
    got, key = outcome(load_telemetry, path, **kwargs)
    _, expected = outcome(reference, path, **kwargs)
    assert key == expected
    return got


POLICIES = ["strict", "skip-bad"]


@settings(max_examples=150, deadline=None)
@given(header=CSV_HEADERS, rows=st.lists(CSV_ROWS, max_size=12),
       last=st.just(b"") | st.text(max_size=24).map(str.encode)
       | st.binary(max_size=24),
       newline=st.sampled_from([b"\n", b"\r\n"]),
       policy=st.sampled_from(POLICIES),
       scale=st.sampled_from(["percent", "fraction"]),
       block=st.sampled_from([1, 2, 3, LOAD_BLOCK]))
def test_csv_bytes(header, rows, last, newline, policy, scale, block):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(sim, "LOAD_BLOCK", block):
        dataset = Path(tmp) / "data.csv"
        dataset.write_bytes(newline.join([header, *rows, last]))
        loaders_agree(dataset, mapping=ColumnMapping(humidity_scale=scale),
                      policy=policy)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("writer", sorted(gen.WRITERS))
def test_generated_files(tmp_path, writer, seed):
    dataset = tmp_path / "data.csv"
    expected = gen.WRITERS[writer](dataset, seed)
    telemetry, report = loaders_agree(dataset, policy="skip-bad")
    assert telemetry.readings.tolist() == \
        [list(e) for e in expected if e is not None]
    assert report.skipped == expected.count(None)
    if report.skipped:
        assert isinstance(loaders_agree(dataset, policy="strict"), RowError)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scale", ["percent", "fraction"])
def test_fixture(fixture_csv, policy, scale):
    telemetry, report = loaders_agree(
        fixture_csv, mapping=ColumnMapping(humidity_scale=scale), policy=policy)
    assert len(telemetry) == report.loaded == 50


START = datetime(2016, 1, 11, 17, 0, 0)
ROWS = LOAD_BLOCK + 100


def good_row(i):
    return (f"{START + timedelta(minutes=10 * i):%Y-%m-%d %H:%M:%S},"
            f"{20 + i % 50 / 10},{40 + i % 7},{60 + 10 * i % 50}")


def replay(tmp_path, traps, policy, mapping=None):
    """Load ROWS good rows, data row k (1-based) replaced by the lines of
    `traps[k]`, with both loaders; return what the blocked one gave."""
    lines = ["date,T1,RH_1,Appliances"]
    for i in range(1, ROWS + 1):
        lines.extend(traps.get(i, [good_row(i)]))
    dataset = tmp_path / "data.csv"
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return loaders_agree(dataset, mapping=mapping, policy=policy)


BAD_ROW = "2016-01-11 17:00:00,20,oops,60"


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("row", [1, LOAD_BLOCK, LOAD_BLOCK + 1],
                         ids=["first-of-block", "last-of-block", "row-4097"])
def test_bad_row_at_block_edge(tmp_path, policy, row):
    got = replay(tmp_path, {row: [BAD_ROW]}, policy)
    if policy == "strict":
        assert str(got).endswith(f"line {row + 1}, field 'RH_1': "
                                 f"not a number: 'oops'")
    else:
        assert got[1].skipped_rows == (row + 1,)
        assert len(got[0]) == ROWS - 1


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("text, value", [
    (" 1.5", 1.5), ("-0.0", -0.0), ("1.5\x1c", 1.5), ('"1.5"', 1.5),
    ("nan", None), ("inf", None), ("1e309", None)])
def test_number_fields(tmp_path, policy, text, value):
    """`text` in each number column, on rows of the first and second
    blocks."""
    rows = {2: [f"2016-01-11 17:00:00,{text},40,60"],
            3: [f"2016-01-11 17:00:00,20,{text},60"],
            LOAD_BLOCK + 2: [f"2016-01-11 17:00:00,20,40,{text}"]}
    got = replay(tmp_path, rows, policy)
    if value is None:
        assert isinstance(got, RowError) if policy == "strict" else \
            got[1].skipped_rows == (3, 4, LOAD_BLOCK + 3)
        return
    readings = got[0].readings
    for row, column, expected in ((2, 0, value), (3, 1, value / 100),
                                  (LOAD_BLOCK + 2, 2, value)):
        assert readings[row - 1, column].hex() == expected.hex()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("lines, stamp, skipped", [
    (["2016-02-30 10:00:00,20,40,60"], None, (3,)),
    (["2016-1-11 7:0:0,20,40,60"], datetime(2016, 1, 11, 7), ()),
    (['"2016-01-11', '17:10:00",20,40,60', BAD_ROW],
     datetime(2016, 1, 11, 17, 10), (5,)),
    (['"2016-01-11 17:10:00', '2016-01-11 17:20:00",20,40,60'], None, (3,)),
    (["2016-01-11 17:00:00,20,40"], None, (3,)),
    (["", "", BAD_ROW], None, (5,)),
], ids=["invalid-date", "unpadded", "quoted-newline", "two-stamps-one-field",
        "short-row", "blank-lines"])
def test_row_shapes(tmp_path, policy, lines, stamp, skipped):
    """Rows replacing data row 2; a bad row after them names its file
    line."""
    got = replay(tmp_path, {2: lines}, policy)
    if policy == "strict" and skipped:
        assert isinstance(got, RowError) and got.line == skipped[0]
        return
    telemetry, report = got
    assert report.skipped_rows == skipped
    if stamp is not None:
        assert telemetry.timestamps[1] == stamp


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("tail, error", [
    (b'2016-01-11 17:10:00,"20,40,60\n' + b"2016-01-11 17:20:00,20,40,60\n" * 5000,
     "record starting at line 5: field larger than field limit"),
    # Past the first chunk of text the file object decodes.
    (b"2016-01-11 17:20:00,20,40,60\n" * 1000 + b"2016-01-11 17:10:00,20,40,\xff\n",
     "can't decode byte 0xff"),
], ids=["field-limit", "invalid-utf8"])
def test_bad_row_before_unreadable_record(tmp_path, policy, tail, error):
    """Under "strict", a bad row in the block read before a record that
    cannot be read is the error; under "skip-bad", the unreadable record."""
    dataset = tmp_path / "data.csv"
    dataset.write_bytes(f"date,T1,RH_1,Appliances\n{good_row(1)}\n"
                        f"{BAD_ROW}\n{good_row(3)}\n".encode() + tail)
    got = loaders_agree(dataset, policy=policy)
    if policy == "strict":
        assert isinstance(got, RowError) and got.line == 3
    else:
        assert not isinstance(got, RowError) and error in str(got)


@pytest.mark.parametrize("policy", POLICIES)
def test_fraction_scale(tmp_path, policy):
    mapping = ColumnMapping(humidity_scale="fraction")
    telemetry, _ = replay(tmp_path, {LOAD_BLOCK + 1: [BAD_ROW.replace(
        "oops", "0.35")]}, policy, mapping)
    assert telemetry.readings[LOAD_BLOCK, 1] == 0.35
    assert telemetry.readings[0, 1] == 41.0


def test_simulate_converts_columns_only(tmp_path, capsys):
    """A replay builds no TelemetryRecord, and parses on its own only the
    rows that the column pass marks: none of a paper-shaped file, and the
    malformed rows of a full-size unique one."""
    def refuse(*args, **kwargs):
        raise AssertionError("row-wise work in a column replay")

    for writer, rows, flags in [("replay_paper", 2 * LOAD_BLOCK + 7, ()),
                                ("replay_unique", gen.PAPER_ROWS, ("--skip-bad",))]:
        dataset = tmp_path / f"{writer}.csv"
        skipped = gen.WRITERS[writer](dataset, seed=3, rows=rows).count(None)
        with mock.patch.object(sim, "TelemetryRecord", refuse), \
                mock.patch.object(sim, "_parse_row", wraps=sim._parse_row) as parse:
            assert cli.main(["simulate", "--dataset", str(dataset), *flags,
                             "--out", str(tmp_path / writer)]) == 0
        assert parse.call_count == skipped
        assert f"{rows - skipped:>14}" in capsys.readouterr().out
    assert skipped > 0  # of the unique file


@pytest.mark.parametrize("bad", [(), (0,), (3,), (6,), (0, 3, 6), (2, 3),
                                 tuple(range(7))],
                         ids=["none", "first", "middle", "last", "each-place",
                              "neighbours", "all"])
def test_convert_resumes_after_each_failure(bad):
    """`_convert` keeps every value converted before a failure, in place,
    and resumes after the text that failed: it relies on CPython's
    `list.extend` keeping what it appended before its iterator raised."""
    texts = ["x" if i in bad else f"{i}.5" for i in range(7)]
    values, failures = sim._convert(float, texts, -1.0)
    assert values == [-1.0 if i in bad else i + 0.5 for i in range(7)]
    assert failures == list(bad)


STAMP = datetime(2016, 1, 11, 17)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("traps, error, skipped, parsed, kept", [
    ({1: [BAD_ROW], LOAD_BLOCK: [BAD_ROW]}, (2, "RH_1"), (2, LOAD_BLOCK + 1), 2,
     {}),
    ({5: ["2016-01-11 17:00:00,x,oops,60"]}, (6, "RH_1"), (6,), 1, {}),
    ({5: ["2016-01-11 17:00:00,20,40,oops"], 9: ["2016-01-11 17:00:00,x,40,60"]},
     (6, "Appliances"), (6, 10), 2, {}),
    # `float` takes " 1.5"; only `_parse_row` takes ' "1.5"'.
    ({2: ["2016-01-11 17:00:00, 1.5,40,60"],
      3: ['2016-01-11 17:00:00,20, "1.5",60'], 4: [BAD_ROW]}, (5, "RH_1"), (5,),
     2, {2: (STAMP, 1.5, 0.4, 60.0), 3: (STAMP, 20.0, 0.015, 60.0)}),
    ({2: ["2016-1-11 7:0:0,20,40,60"], 3: [BAD_ROW]}, (4, "RH_1"), (4,), 2,
     {2: (datetime(2016, 1, 11, 7), 20.0, 0.4, 60.0)}),
], ids=["first-and-last-of-block", "two-bad-fields", "later-column-first",
        "spaced-and-quoted-numbers", "unpadded-stamp"])
def test_traps_in_one_block(tmp_path, policy, traps, error, skipped, parsed,
                            kept):
    """Rows replacing data rows of the first block. Under "strict", the
    first bad row in file order is the error, named by the field that
    `_parse_row` checks first. Under "skip-bad", `_parse_row` runs only for
    the `parsed` rows that the column pass marks, and the rows in `kept`
    load as given."""
    with mock.patch.object(sim, "_parse_row", wraps=sim._parse_row) as parse:
        got = replay(tmp_path, traps, policy)
    if policy == "strict":
        assert isinstance(got, RowError)
        assert (got.line, got.field_name) == error
        return
    telemetry, report = got
    assert report.skipped_rows == skipped
    assert parse.call_count == parsed
    for row, record in kept.items():
        assert (telemetry.timestamps[row - 1],
                *telemetry.readings[row - 1, :3].tolist()) == record
