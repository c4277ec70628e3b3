"""Golden reports: `simulate` with default flags on the 50-row fixture must
write byte-identical reports. Any change to a score bit, a label or the
report format fails here; update the digests only for an intended change
to the outputs."""
import hashlib

from fuzzgate.cli import main

GOLDEN_SHA256 = {
    "decisions.csv": "4032448d867a5b4a491e679c16f6a3f78df884e310b3472195dc3dd4b4c5bbf2",
    "summary.json": "af5681c96561ff24b9c8776d4ddacf5b531e1609f536c9725cb5ae0704f86981",
    "cumulative.csv": "26831f98ea73eff2280cc0472af9e40269dbe2cb7b05132b3580e6b2556721dc",
}


def test_fixture_reports_match_goldens(tmp_path, fixture_csv, capsys):
    out_dir = tmp_path / "out"
    assert main(["simulate", "--dataset", str(fixture_csv),
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
