"""`simulate`'s blocked report writer against the row-wise reference
formatter in `reports.py`: the same replay, written both ways, must give the
same bytes in decisions.csv and cumulative.csv."""
import pytest

from conftest import FIS_FILES, write_manifest
from fuzzgate import cli
from fuzzgate.cascade import bundled_fis_dir
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


def test_generated_rows_over_three_blocks(monkeypatch, capsys, tmp_path, cascade):
    # FS1 keeps only its rules on a low temperature, so warmer readings fire
    # no FS1 rule and are sent as fail-safes.
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
    blocked, rowwise = reports_both_ways(
        monkeypatch, capsys, tmp_path,
        ["--dataset", str(dataset), "--manifest", str(manifest),
         "--humidity-scale", "fraction"])
    assert blocked == rowwise
    rows = [line.split(",") for line in
            blocked["decisions.csv"].decode().splitlines()[1:]]
    assert len(rows) == n
    assert {"-0.0"} <= {row[2] for row in rows} & {row[4] for row in rows}
    assert any(row[1].startswith("999-") for row in rows)
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
