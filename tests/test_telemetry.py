"""The blocked loader against the row-wise reference loader in
`telemetry.py`: the same file must give the same timestamps, the same
readings bit for bit, the same load report, or the same error."""
import csv
import importlib.util
import re
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fuzzgate import cli, sim
from fuzzgate.sim import (LOAD_BLOCK, ColumnMapping, RowError, TelemetryError,
                          load_telemetry)
from telemetry import load_telemetry_rowwise, record, telemetry_of
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

_csv_reader = csv.reader


def reader_refusing_nul(lines, *args, **kwargs):
    """`csv.reader` as Python 3.10 has it: a line that holds NUL raises
    `csv.Error`. Patched in for `csv.reader`, it shows on any Python what
    both loaders do there."""
    def checked():
        for text in lines:
            if "\0" in text:
                raise csv.Error("line contains NUL")
            yield text
    return _csv_reader(checked(), *args, **kwargs)


#: Lines on which numpy's tokenizer and `csv.reader` could part: blank or
#: spaces alone, and quotes that open, close, double or sit inside a field,
#: also around a line end.
ODD_LINES = st.lists(st.sampled_from(
    [b",", b'"', b'""', b"\n", b"\r", b"\r\n", b" ", b"\t", b"x", b"20",
     b"2016-01-11 17:00:00"]), max_size=8).map(b"".join)


#: Mostly headers that name every mapped column, so that most examples
#: reach the blocks; one draw in five is one of `CSV_HEADERS`, which may lack
#: a column or be a data row.
HEADERS = st.sampled_from([
    b"date,T1,RH_1,Appliances", b"\xef\xbb\xbfdate,T1,RH_1,Appliances",
    b"date,T1,RH_1,Appliances,T1", b"date,T1,Appliances,RH_1,RH_1", None,
]).flatmap(lambda header: CSV_HEADERS if header is None else st.just(header))


#: Mostly text; one draw in ten is any bytes, which are mostly not UTF-8.
#: The files are shorter than the first chunk that csv decodes for the
#: header, so such bytes end an example before any block is read;
#: `test_bad_row_before_unreadable_record` covers an error past that chunk.
LAST_LINES = st.integers(0, 9).flatmap(
    lambda k: st.binary(max_size=24) if k == 0
    else st.just(b"") | st.text(max_size=24).map(str.encode))


@settings(max_examples=150, deadline=None)
@given(header=HEADERS, rows=st.lists(CSV_ROWS | ODD_LINES, max_size=12),
       last=LAST_LINES,
       newline=st.sampled_from([b"\n", b"\r\n", b"\r"]),
       policy=st.sampled_from(POLICIES),
       scale=st.sampled_from(["percent", "fraction"]),
       block=st.sampled_from([1, 2, 3, LOAD_BLOCK]),
       reader=st.sampled_from([csv.reader, reader_refusing_nul]))
def test_csv_bytes(header, rows, last, newline, policy, scale, block, reader):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(sim, "LOAD_BLOCK", block), \
            mock.patch.object(csv, "reader", reader):
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


@pytest.mark.parametrize("source", ["fixture", *sorted(gen.WRITERS)])
def test_iteration_is_the_loaded_rows(tmp_path, fixture_csv, source):
    """Iterating a `Telemetry` gives the rows of its loaded columns, time of
    day included, and each time of day has the bits of the reference one on
    the record's timestamp."""
    dataset = fixture_csv
    if source != "fixture":
        dataset = tmp_path / "data.csv"
        gen.WRITERS[source](dataset, seed=3)
    telemetry, _ = load_telemetry(dataset, policy="skip-bad")
    records = list(telemetry)
    assert [[r.temperature, r.humidity, r.appliance_energy, r.time_of_day]
            for r in records] == telemetry.readings.tolist()
    assert [r.time_of_day.hex() for r in records] == [
        record(r.timestamp, r.temperature, r.humidity,
               r.appliance_energy).time_of_day.hex() for r in records]


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


def replay(tmp_path, traps, policy, mapping=None, newline="\n",
           header="date,T1,RH_1,Appliances"):
    """Load ROWS good rows, data row k (1-based) replaced by the lines of
    `traps[k]`, with both loaders; return what the blocked one gave."""
    lines = [header]
    for i in range(1, ROWS + 1):
        lines.extend(traps.get(i, [good_row(i)]))
    dataset = tmp_path / "data.csv"
    dataset.write_bytes((newline.join(lines) + newline).encode())
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
    (["2016-1-11 7:0:0,20,40,60"], "2016-01-11 07:00:00", ()),
    (['"2016-01-11', '17:10:00",20,40,60', BAD_ROW], "2016-01-11 17:10:00",
     (5,)),
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


def fixed_shape(text):
    """Whether the column pass finds `text` of FIXED_TIMESTAMP's shape."""
    return bool(sim._fixed_timestamps([text])[0][0])


#: Texts of FIXED_TIMESTAMP's shape: any, and with each field near its range.
FIXED_TEXTS = (st.from_regex(re.compile(sim.FIXED_TIMESTAMP, re.ASCII),
                             fullmatch=True)
               | st.tuples(*(st.integers(0, top) for top in
                             (9999, 13, 32, 23, 60, 60))).map(
                   lambda f: "%04d-%02d-%02d %02d:%02d:%02d" % f))


@settings(max_examples=300, deadline=None)
@given(moment=st.datetimes(min_value=datetime(1, 1, 1)).map(
           lambda t: t.replace(microsecond=0)),
       text=FIXED_TEXTS)
def test_fixed_timestamps_are_iso_texts(moment, text):
    """The loader keeps timestamps as ISO text in one form. It keeps the
    text of a timestamp that the column pass takes, which must be the
    `isoformat(" ")` of its value; and it keeps the `isoformat(" ")` of one
    that `_parse_row` takes, which must have FIXED_TIMESTAMP's shape. On
    texts of that shape, `_parse_row`'s `strptime` takes and refuses what
    the column pass's `fromisoformat` does, with the same value."""
    iso = moment.isoformat(" ")
    assert fixed_shape(iso)
    assert datetime.fromisoformat(iso) == moment
    assert fixed_shape(text)
    parsed = []
    for parse in (datetime.fromisoformat,
                  lambda t: datetime.strptime(t, sim.TIMESTAMP_FORMAT)):
        try:
            parsed.append(parse(text))
        except ValueError:
            parsed.append(None)
    assert parsed[0] == parsed[1], text
    if parsed[0] is not None:
        assert parsed[0].isoformat(" ") == text


STAMP = "2016-01-11 17:00:00"


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
     {2: ("2016-01-11 07:00:00", 20.0, 0.4, 60.0)}),
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


@pytest.mark.parametrize("block", [1, 2, LOAD_BLOCK])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("lines, newline, reader", [
    (['2016-01-11 17:00:00,20,"40', '",60'], "\n", csv.reader),
    (['2016-01-11 17:00:00,20,40,60,"a', "", 'b"'], "\n", csv.reader),
    ([f"2016-01-11 17:00:00,20,40,60,{'x' * (csv.field_size_limit() + 1)}"],
     "\n", csv.reader),
    (["   "], "\n", csv.reader),
    (["", "2016-01-11 17:00:00,20,40,60", "", ""], "\r\n", csv.reader),
    ([""] * (LOAD_BLOCK + 1), "\n", csv.reader),
    (["2016-01-11 17:00:00,20,40,60,1,2,3"], "\n", csv.reader),
    *((lines, "\n", reader)
      for reader in (csv.reader, reader_refusing_nul)
      for lines in (["2016-01-11 17:00:00,20,40,60,a\0b"],
                    [good_row(0), "2016-01-11 17:00:00,20,40,60,a\0b",
                     good_row(0)])),
], ids=["open-quote-ends-block", "quoted-newline-across-blocks",
        "field-limit-in-lights", "spaces-alone", "crlf-blank-lines",
        "blank-block", "more-fields-than-header", "nul-ends-block",
        "nul-in-lights", "nul-ends-block-refused", "nul-in-lights-refused"])
def test_tokenizers_part(tmp_path, block, policy, lines, newline, reader):
    """Lines on which numpy's tokenizer and `csv.reader` part, from the last
    line of a block on (of every block size here), and then a bad row: each
    loader reads them as csv does, and names the bad row's file line. A line
    with NUL is also read by a csv that refuses it, as Python 3.10's does:
    each loader names that record's file line."""
    with mock.patch.object(sim, "LOAD_BLOCK", block), \
            mock.patch.object(csv, "reader", reader):
        got = replay(tmp_path, {LOAD_BLOCK: lines, LOAD_BLOCK + 2: [BAD_ROW]},
                     policy, newline=newline,
                     header="date,T1,RH_1,Appliances,lights")
    if len(lines[0]) > csv.field_size_limit():
        assert "field larger than field limit" in str(got)
    elif reader is reader_refusing_nul or (
            sys.version_info < (3, 11) and "\0" in "".join(lines)):
        nul = next(i for i, text in enumerate(lines) if "\0" in text)
        assert (f"record starting at line {LOAD_BLOCK + 1 + nul}: "
                "line contains NUL") in str(got)
    elif policy == "skip-bad":
        assert got[1].skipped_rows[-1] == LOAD_BLOCK + len(lines) + 2


#: Characters of near misses of FIXED_TIMESTAMP's shape: digits that are not
#: ASCII, other separators, and NUL, which a '<U19' array drops at the end.
NEAR_CHARS = st.sampled_from("0123456789-: T/\u0663\uff10\xb2x\x00")


@settings(max_examples=500, deadline=None)
@given(texts=st.lists(
    FIXED_TEXTS
    | st.tuples(*(st.integers(0, 99) for _ in range(6))).map(
        lambda f: "%04d-%02d-%02d %02d:%02d:%02d" % f)
    | st.tuples(FIXED_TEXTS, st.integers(0, 19),
                st.text(NEAR_CHARS, max_size=2)).map(
        lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:])
    | st.text(NEAR_CHARS, min_size=18, max_size=20),
    min_size=1, max_size=6))
def test_shape_check_is_the_regex(texts):
    """The column pass's shape check, from code points, takes exactly the
    texts that FIXED_TIMESTAMP's regex takes, and its time of day is the
    reference `h + m / 60 + s / 3600` on their fields."""
    fixed, hours = sim._fixed_timestamps(texts)
    for text, takes, time_of_day in zip(texts, fixed.tolist(), hours.tolist()):
        assert takes == bool(re.fullmatch(sim.FIXED_TIMESTAMP, text, re.ASCII))
        if takes:
            h, m, s = int(text[11:13]), int(text[14:16]), int(text[17:])
            assert time_of_day.hex() == (h + m / 60 + s / 3600).hex()
