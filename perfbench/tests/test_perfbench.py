"""Tests of the benchmark itself, in its small-size smoke mode.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
from fuzzgate.cascade import bundled_fis_dir, load_manifest  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def cascade():
    return load_manifest(bundled_fis_dir() / "cascade.manifest")


@pytest.mark.parametrize("generator", sorted(gen.WRITERS))
def test_generators_are_seeded(generator, tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert gen.WRITERS[generator](a, 3, 500) == gen.WRITERS[generator](b, 3, 500)
    assert a.read_bytes() == b.read_bytes()
    gen.WRITERS[generator](c, 4, 500)
    assert a.read_bytes() != c.read_bytes()


def test_workload_properties(tmp_path, cascade):
    paper = gen.input_properties(
        gen.write_paper_csv(tmp_path / "p.csv", 1), cascade)
    unique_rows = gen.write_unique_csv(tmp_path / "u.csv", 1)
    unique = gen.input_properties(unique_rows, cascade)
    assert paper["input.fs2_repeat_frac"] > 0.7
    assert 0 < paper["input.clamped_frac"] < 0.01
    assert unique["input.fs1_repeat_frac"] == unique["input.fs2_repeat_frac"] == 0
    assert 0.07 < unique["input.clamped_frac"] < 0.11
    assert 0 < sum(r is None for r in unique_rows) < 0.01 * len(unique_rows)


def test_metric_registry_matches_benchmark_json():
    registry = json.loads((HERE / "metrics.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        assert [m["name"] for m in BENCH[kind]] == list(registry[kind])
    for spec in registry["per_layer"].values():
        assert set(spec["moves"]["metrics"]) <= {m["name"] for m in BENCH["end_to_end"]}
        assert set(spec["moves"]["workloads"]) <= set(WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    done = run_bench("--workload", workload, "--seed", "2", "--seconds", "0.5",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert metrics["core.activations.calls_per_record"] == 6.0
        assert metrics["core.fuzzify.calls_per_record"] == 12.0
        assert metrics["cascade.load_manifest.ms"] > 0
    else:
        assert all(value > 0 for value in metrics.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def simulated(tmp_path, cascade, seed=5):
    from fuzzgate.cli import main
    expected = gen.write_unique_csv(tmp_path / "t.csv", seed, 300)
    assert main(["simulate", "--dataset", str(tmp_path / "t.csv"),
                 "--out", str(tmp_path / "out"), "--skip-bad"]) == 0
    rows, summary = check.read_decisions(tmp_path / "out")
    return expected, rows, summary


def test_checks_pass_on_real_output(tmp_path, cascade):
    expected, rows, summary = simulated(tmp_path, cascade)
    oracle = check.load_oracle(ROOT)
    assert check.check_simulate(rows, summary, expected, cascade, oracle, 5, 20) == []


def test_checks_catch_a_changed_score(tmp_path, cascade):
    expected, rows, summary = simulated(tmp_path, cascade)
    oracle = check.load_oracle(ROOT)
    kept = {c: [float(r[c]) for r in rows]
            for c in ("score", "apparent_temperature", "appliance_usage_time")}
    kept["send"] = [int(r["label"] == "send") for r in rows]
    kept["clamped"] = [int(r["clamped"]) for r in rows]
    assert check.check_stream(kept, rows) == []
    kept["score"][7] = kept["score"][7] + 1e-12
    assert check.check_stream(kept, rows)
    # Every row is in the oracle's sample; scores off by 1 point (tolerance 0.1) fail.
    for row in rows:
        row["score"] = repr(float(row["score"]) + 1.0)
    assert check.check_oracle(rows, cascade, oracle, 5, len(rows))
    assert check.check_digests([{"a": "1"}, {"a": "2"}], None)
    assert check.check_digests([{"a": "1"}], {"a": "2"})
