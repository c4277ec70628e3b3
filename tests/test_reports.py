"""`simulate`'s blocked report writer against the row-wise reference
formatter in `reports.py`: the same replay, written both ways, must give the
same bytes in decisions.csv and cumulative.csv."""
import pytest

from conftest import FIS_FILES, write_manifest
from fuzzgate import cli
from fuzzgate.cascade import NOT_SEND, SEND, bundled_fis_dir
from reports import write_reports_rowwise
from test_batch import generated_records


def reports_both_ways(monkeypatch, capsys, tmp_path, argv):
    """The report bytes of `simulate argv`, blocked and row-wise."""
    written = []
    for name, writer in (("blocked", cli._write_reports),
                         ("rowwise", write_reports_rowwise)):
        monkeypatch.setattr(cli, "_write_reports", writer)
        out_dir = tmp_path / name
        assert cli.main(["simulate", *argv, "--out", str(out_dir)]) == 0
        written.append({report: (out_dir / report).read_bytes()
                        for report in ("decisions.csv", "cumulative.csv")})
    capsys.readouterr()
    return written


def test_fixture_in_blocks_of_seven(monkeypatch, capsys, tmp_path, fixture_csv):
    monkeypatch.setattr(cli, "REPORT_BLOCK", 7)
    blocked, rowwise = reports_both_ways(monkeypatch, capsys, tmp_path,
                                         ["--dataset", str(fixture_csv)])
    assert blocked == rowwise
    assert blocked["decisions.csv"].count(b"\n") == 51


def test_fixture_with_crlf_blank_line_and_two_line_field(capsys, tmp_path,
                                                         fixture_csv):
    """The fixture with CRLF line ends, a blank line and a quoted two-line
    text in the unmapped lights field of one row, which the loader reads
    with its csv branch: its reports are the plain fixture's, byte for byte."""
    lines = fixture_csv.read_text().splitlines()
    date, appliances, lights, *rest = lines[5].split(",")
    lines[5] = ",".join([date, appliances, '"on\r\noff"', *rest])
    lines.insert(20, "")
    odd = tmp_path / "odd.csv"
    odd.write_bytes("".join(line + "\r\n" for line in lines).encode())
    written = []
    for dataset in (fixture_csv, odd):
        out_dir = tmp_path / dataset.stem
        assert cli.main(["simulate", "--dataset", str(dataset), "--strict",
                         "--out", str(out_dir)]) == 0
        written.append([(out_dir / report).read_bytes()
                        for report in ("decisions.csv", "cumulative.csv")])
    capsys.readouterr()
    assert written[0] == written[1]


def generated_dataset(tmp_path, cascade):
    """A dataset of generated readings over three report blocks, with
    humidity as a fraction, and a manifest whose FS1 keeps only its rules on
    a low temperature, so that warmer readings fire no FS1 rule and are sent
    as fail-safes. Also the number of rows."""
    bundled = (bundled_fis_dir() / FIS_FILES["fs1"]).read_text()
    fs1 = tmp_path / "fs1.fis.txt"
    fs1.write_text("".join(
        line for line in bundled.splitlines(keepends=True)
        if not line.startswith("rule") or "indoor_temperature is low " in line))
    manifest = write_manifest(tmp_path / "m.manifest", f"fis1 = {fs1}\n")
    n = 2 * cli.REPORT_BLOCK + 123
    lines = ["date,T1,RH_1,Appliances"]
    for i, r in enumerate(generated_records(cascade, n, seed=7)):
        temperature = -0.0 if i % 97 == 0 else r.temperature
        energy = -0.0 if i % 89 == 0 else r.appliance_energy
        # Years below 1000 in the middle block only.
        middle = cli.REPORT_BLOCK <= i < 2 * cli.REPORT_BLOCK
        stamp = (r.timestamp.replace(year=999) if middle and i % 101 == 0
                 else r.timestamp)
        lines.append(f"{stamp.isoformat(' ')},{temperature!r},{r.humidity!r},"
                     f"{energy!r}")
    dataset = tmp_path / "generated.csv"
    dataset.write_text("\n".join(lines) + "\n")
    return dataset, manifest, n


def test_generated_rows_over_three_blocks(monkeypatch, capsys, tmp_path, cascade):
    dataset, manifest, n = generated_dataset(tmp_path, cascade)
    blocked, rowwise = reports_both_ways(
        monkeypatch, capsys, tmp_path,
        ["--dataset", str(dataset), "--manifest", str(manifest),
         "--humidity-scale", "fraction"])
    assert blocked == rowwise
    rows = [line.split(",") for line in
            blocked["decisions.csv"].decode().splitlines()[1:]]
    assert len(rows) == n
    assert {"-0.0"} <= {row[2] for row in rows} & {row[4] for row in rows}
    assert any(row[1].startswith("0999-") for row in rows)
    clamped, failsafe = ([row[k] == "1" for row in rows] for k in (10, 11))
    assert any(clamped) and any(failsafe) and not all(failsafe)
    assert len({row[3] for row in rows}) < 0.9 * n  # humidity repeats
    assert len({row[5] for row in rows}) < 0.9 * n  # time of day repeats
    cumulative = blocked["cumulative.csv"].decode().splitlines()[1:]
    assert len(cumulative) == n


@pytest.mark.parametrize("records", [0, 1])
def test_short_replays(monkeypatch, capsys, tmp_path, records):
    dataset = tmp_path / "short.csv"
    dataset.write_text("date,T1,RH_1,Appliances\n"
                       + "2016-01-11 17:00:00,20,40,60\n" * records)
    blocked, rowwise = reports_both_ways(monkeypatch, capsys, tmp_path,
                                         ["--dataset", str(dataset)])
    assert blocked == rowwise


def test_timestamps_of_every_origin_in_small_blocks(monkeypatch, capsys,
                                                     tmp_path):
    """Blocks of four that mix timestamps the column pass keeps as read,
    timestamps that `_parse_row` takes (unpadded, spaced and quoted) and
    years below 1000 by both routes. The first ten records are not sent, so
    the gated total lags always-send by more than a block."""
    monkeypatch.setattr(cli, "REPORT_BLOCK", 4)
    stamps = ["2016-01-{day:02} {hour:02}:30:00",
              "2016-1-{day} {hour}:30:0",
              ' "2016-01-{day:02} {hour:02}:30:00"',
              "0999-01-{day:02} {hour:02}:30:00",
              ' "0999-01-{day:02} {hour:02}:30:00"']
    # Cool, dry readings at 09:30 with v.high usage are not sent; hot, humid
    # ones at 03:30 with low usage are.
    suppressed, sent = "9.25,15,600", "61.5,72.5,25"
    rows = [stamps[i % len(stamps)].format(day=1 + i, hour=9 if i < 10 else 3)
            + "," + (suppressed if i < 10 else sent) for i in range(27)]
    dataset = tmp_path / "origins.csv"
    dataset.write_text("date,T1,RH_1,Appliances\n" + "\n".join(rows) + "\n")
    blocked, rowwise = reports_both_ways(monkeypatch, capsys, tmp_path,
                                         ["--dataset", str(dataset)])
    assert blocked == rowwise
    written = [line.split(",") for line in
               blocked["decisions.csv"].decode().splitlines()[1:]]
    assert [row[1] for row in written[:5]] == [
        "2016-01-01 09:30:00", "2016-01-02 09:30:00", "2016-01-03 09:30:00",
        "0999-01-04 09:30:00", "0999-01-05 09:30:00"]
    assert [row[9] for row in written] == [NOT_SEND] * 10 + [SEND] * 17
    cumulative = [line.split(",") for line in
                  blocked["cumulative.csv"].decode().splitlines()[1:]]
    assert [gated for _, _, gated in cumulative[:10]] == ["0.0"] * 10
    assert [gated for _, _, gated in cumulative[10:]] == \
        [always for _, always, _ in cumulative[:17]]


#: `simulate`'s mapping flags that read its own decisions.csv as a dataset.
DECISIONS_AS_DATASET = [
    "--map-timestamp", "timestamp", "--map-temp", "temperature",
    "--map-humidity", "humidity", "--map-energy", "appliance_energy",
    "--humidity-scale", "fraction"]


def assert_round_trip(capsys, tmp_path, dataset, first_flags=(), flags=()):
    """`simulate` on the decisions.csv that it wrote for `dataset` rewrites
    that file, and cumulative.csv, byte for byte. `flags` go to both runs,
    `first_flags` to the first only. Returns the decisions.csv rows."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["simulate", "--dataset", str(dataset), *first_flags,
                     *flags, "--out", str(first)]) == 0
    assert cli.main(["simulate", "--dataset", str(first / "decisions.csv"),
                     *DECISIONS_AS_DATASET, *flags, "--out", str(second)]) == 0
    capsys.readouterr()
    for report in ("decisions.csv", "cumulative.csv"):
        assert (second / report).read_bytes() == (first / report).read_bytes()
    return [line.split(",") for line in
            (first / "decisions.csv").read_text().splitlines()[1:]]


def test_fixture_decisions_round_trip(capsys, tmp_path, fixture_csv):
    assert len(assert_round_trip(capsys, tmp_path, fixture_csv)) == 50


def test_generated_decisions_round_trip(capsys, tmp_path, cascade):
    dataset, manifest, n = generated_dataset(tmp_path, cascade)
    rows = assert_round_trip(capsys, tmp_path, dataset,
                             ["--humidity-scale", "fraction"],
                             ["--manifest", str(manifest)])
    assert len(rows) == n
    assert any(row[11] == "1" for row in rows)  # fail-safe: empty outputs


def test_year_999_decisions_round_trip(capsys, tmp_path):
    # The column pass takes the first two timestamps (the CSV reader drops
    # the quotes); `_parse_row` takes the one with a single-digit hour and
    # the one quoted after a space.
    dataset = tmp_path / "years.csv"
    dataset.write_text("date,T1,RH_1,Appliances\n"
                       "0999-01-02 03:04:05,20,40,60\n"
                       '"0999-01-02 03:14:05",20,40,60\n'
                       "0999-01-02 3:24:05,61.5,72.5,25\n"
                       "2016-01-11 17:00:00,20,40,60\n"
                       ' "0999-12-31 23:59:59",9.25,15,600\n')
    rows = assert_round_trip(capsys, tmp_path, dataset)
    assert [row[1] for row in rows] == [
        "0999-01-02 03:04:05", "0999-01-02 03:14:05", "0999-01-02 03:24:05",
        "2016-01-11 17:00:00", "0999-12-31 23:59:59"]
