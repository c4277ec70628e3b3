from pathlib import Path

import pytest

from fuzzgate.cascade import (BUNDLED_MANIFEST, build_cascade, bundled_fis_dir,
                              parse_manifest)
from fuzzgate.dsl import load_subsystem

FIXTURES = Path(__file__).parent / "fixtures"

FIS_FILES = {
    "fs1": "fs1_apparent_temperature.fis.txt",
    "fs2": "fs2_appliance_usage.fis.txt",
    "fs3": "fs3_sending_decision.fis.txt",
}


def load_bundled(key):
    subsystem, diags = load_subsystem(bundled_fis_dir() / FIS_FILES[key])
    assert subsystem is not None, [d.format() for d in diags]
    return subsystem


def write_manifest(path, extra=""):
    """Write a manifest naming the bundled definition files by absolute
    path, followed by `extra` lines; return its path."""
    fis_paths, _ = parse_manifest(BUNDLED_MANIFEST)
    path.write_text("".join(f"{key} = {fis}\n" for key, fis in fis_paths.items())
                    + extra)
    return path


@pytest.fixture(scope="session")
def fs1():
    return load_bundled("fs1")


@pytest.fixture(scope="session")
def fs2():
    return load_bundled("fs2")


@pytest.fixture(scope="session")
def fs3():
    return load_bundled("fs3")


@pytest.fixture(scope="session")
def cascade(fs1, fs2, fs3):
    return build_cascade(fs1, fs2, fs3)


@pytest.fixture(scope="session")
def fixture_csv():
    return FIXTURES / "telemetry_50.csv"
