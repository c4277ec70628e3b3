"""Golden reports: `simulate` with default flags on the 50-row fixture, and
on a full-size file of each benchmark generator, must write byte-identical
reports. Any change to a score bit, a label or the report format fails
here; update the digests only for an intended change to the outputs."""
import hashlib

import pytest

from fuzzgate.cli import main
from test_telemetry import gen

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


#: Full-size replays, 19,735 rows each, so every report spans several of the
#: loader's and the writer's blocks: (generator, seed, simulate flags) and
#: the digests of the reports that `simulate` writes for it.
FULL_SIZE_SHA256 = {
    ("replay_paper", 3, ()): {
        "decisions.csv": "02279c7a5c741540f5e2d0286c92ad6793439f84cdb3e1ba21d4eae01bbdb945",
        "summary.json": "f49fef1b41e1e2c538dbccbc1ecbe20b4c843d3b8f5d497d55023f814f6ff95b",
        "cumulative.csv": "9fad27808e9ecedb69c92edf08e862c59289d89d3256f016df7e875f6ec19c91",
    },
    ("replay_unique", 3, ("--skip-bad",)): {
        "decisions.csv": "a06bb8d136a96970e6c62f7e1a906ac2cee9d2a2631867483e05d90afeb3b835",
        "summary.json": "ef95d5ccda027bc7d17223e562364a877f6ceb2ad99ebe080d64de6517ad496c",
        "cumulative.csv": "b9f0921989437bd564a32d282ae135f7956ce74bc321a81d5c376863dc337b4f",
    },
}


@pytest.mark.parametrize("writer, seed, flags", sorted(FULL_SIZE_SHA256),
                         ids=[f"{w}-{seed}" for w, seed, _ in sorted(FULL_SIZE_SHA256)])
def test_full_size_reports_match_goldens(tmp_path, capsys, writer, seed, flags):
    dataset, out_dir = tmp_path / "data.csv", tmp_path / "out"
    gen.WRITERS[writer](dataset, seed)
    assert main(["simulate", "--dataset", str(dataset), *flags,
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    expected = FULL_SIZE_SHA256[writer, seed, flags]
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == expected
