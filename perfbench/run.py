"""fuzzgate benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload replay_paper --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Workloads, metrics and bounds are listed in `BENCHMARK.json` and explained in
`perfbench/README.md`. With `--trace 0` the last stdout line carries the
end-to-end metrics of an untraced run; with `--trace 1`, the per-layer
metrics of a traced run. Outputs are checked in the same command: a failed
check sets "correct" to false and counts every record as failed. A human
readable table goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402

WORKLOADS = {
    # workload: (input generator, extra `simulate` flags)
    "replay_paper": ("replay_paper", []),
    "replay_unique": ("replay_unique", ["--skip-bad"]),
    "stream_single": ("replay_paper", []),
}

# probe_calls: single-call latency samples a replay takes after each
# repetition, cycling over its first probe_inputs records. speed_s: length of
# each reference timing; segment_s: stream loop time between two of them.
FULL = {"rows": gen.PAPER_ROWS, "setup_runs": 7, "warmup_calls": 1000,
        "probe_inputs": 4000, "probe_calls": 8000, "trace_calls": 5000,
        "oracle_sample": 200, "speed_s": 0.4, "segment_s": 2.5}
SMOKE = {"rows": 400, "setup_runs": 2, "warmup_calls": 50, "probe_inputs": 100,
         "probe_calls": 100, "trace_calls": 200, "oracle_sample": 20,
         "speed_s": 0.02, "segment_s": 0.2}

SETUP_PROBE = """\
import time
start = time.perf_counter()
import fuzzgate
from fuzzgate.cascade import bundled_fis_dir, load_manifest
load_manifest(bundled_fis_dir() / "cascade.manifest")
print(time.perf_counter() - start)
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "FUZZGATE_FIS_DIR")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(runs: int) -> list[float]:
    """Seconds to import fuzzgate and build the bundled cascade, each in a
    fresh interpreter. One unmeasured run first fills the bytecode cache."""
    times = []
    for _ in range(runs + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=child_env(),
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def run_worker(config: dict, work: Path, deadline: float) -> dict:
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(config_path)],
                   env=child_env(), cwd=HERE, stdout=subprocess.DEVNULL,
                   timeout=max(deadline - time.monotonic(), 1.0), check=True)
    return json.loads(Path(config["result"]).read_text(encoding="utf-8"))


def checks(args, sizes: dict, result: dict, expected: list, cascade,
           out_dir: Path) -> tuple[list[str], int]:
    """Problems found in the run's outputs, and its fail-safe decisions."""
    generator = WORKLOADS[args.workload][0]
    digests = result.get("digests") or [result["reference_digests"]]
    problems = check.check_digests(
        digests, check.golden(generator, args.seed, sizes["rows"]))
    rows, summary = check.read_decisions(out_dir)
    problems += check.check_simulate(rows, summary, expected, cascade,
                                     check.load_oracle(ROOT), args.seed,
                                     sizes["oracle_sample"])
    if "stream" in result:
        problems += check.check_stream(result["stream"]["kept"], rows)
    return problems, sum(r["failsafe"] == "1" for r in rows)


def end_to_end(args, sizes: dict, result: dict, setup: list[float],
               failsafe: int) -> tuple[dict, int, int, dict]:
    """Metrics of an untraced run. Each block's times are scaled by the
    machine-speed factor measured around it (`speed.py`)."""
    factors = speed.factors(result["speed_ms"])
    loop = result["stream"] if "stream" in result else result["probe"]
    raw_ns = np.asarray(loop["latency_ns"], dtype=np.float64)
    latency_us, simulate_s, loop_s = [], [], []  # times as (raw, scaled)
    for block, factor in zip(result["blocks"], factors):
        if "calls" in block:
            first, last = block["calls"]
            latency_us.append(raw_ns[first:last] * factor / 1e3)
            loop_s.append((block["seconds"], block["seconds"] * factor))
        else:
            simulate_s.append((block["simulate"], block["simulate"] * factor))
    latency_us = np.concatenate(latency_us)
    if "stream" in result:
        rate = len(latency_us) / sum(scaled for _, scaled in loop_s)
        raw_rate = len(latency_us) / sum(raw for raw, _ in loop_s)
        attempted, failed = loop["calls"], loop["failed"]
        notes = {"closed_loop_calls": loop["calls"]}
    else:
        rate = sizes["rows"] / statistics.median(scaled for _, scaled in simulate_s)
        raw_rate = sizes["rows"] / statistics.median(raw for raw, _ in simulate_s)
        runs = len(simulate_s)
        attempted = (sizes["rows"] - result["skipped"]) * runs + loop["calls"]
        failed = failsafe * runs + loop["failed"]
        notes = {"simulate_runs": runs, "simulate_s": [raw for raw, _ in simulate_s],
                 "probe_calls": loop["calls"]}
    raw_us = raw_ns / 1e3
    notes.update({
        "latency_samples": len(latency_us),
        "speed_factors": [round(f, 4) for f in factors],
        "raw_records_per_s": raw_rate,
        "raw_decision_mean_us": float(raw_us.mean()),
        "raw_decision_p90_us": float(np.percentile(raw_us, 90)),
        "decision_p50_us": float(np.percentile(latency_us, 50)),
        "decision_p99_us": float(np.percentile(latency_us, 99)),
        "setup_runs": len(setup)})
    metrics = {
        "records_per_s": rate,
        "decision_mean_us": float(latency_us.mean()),
        "decision_p90_us": float(np.percentile(latency_us, 90)),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    return metrics, attempted, failed, notes


def traced(sizes: dict, result: dict, failsafe: int,
           props: dict) -> tuple[dict, int, int, dict]:
    metrics = dict(result["per_layer"])
    metrics.update(props)
    if "stream" in result:
        attempted, failed = result["stream"]["calls"], result["stream"]["failed"]
    else:
        runs = len(result["digests"])
        attempted = (sizes["rows"] - result["skipped"]) * runs
        failed = failsafe * runs
    return metrics, attempted, failed, {"records_per_s": result["records_per_s"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE['rows']} rows and short loops, for tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "fuzzgate" / "__init__.py").is_file():
        print(f"error: no fuzzgate package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fuzzgate
    from fuzzgate.cascade import bundled_fis_dir, load_manifest
    if Path(fuzzgate.__file__).resolve().parent != SRC / "fuzzgate":
        print(f"error: imported fuzzgate from {fuzzgate.__file__}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}

    sizes = SMOKE if args.smoke else FULL
    generator, flags = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        csv_path = work / "telemetry.csv"
        expected = gen.WRITERS[generator](csv_path, args.seed, sizes["rows"])
        cascade = load_manifest(bundled_fis_dir() / "cascade.manifest")
        setup = [] if args.trace else setup_times(sizes["setup_runs"])
        config = {"workload": args.workload, "csv": str(csv_path),
                  "out": str(work / "reports"), "simulate_flags": flags,
                  "seconds": args.seconds, "trace": args.trace,
                  "result": str(work / "result.json"),
                  "spans": str(OUT / f"spans-{stem}.npz"), **sizes}
        result = run_worker(config, work, deadline)
        result["skipped"] = sum(e is None for e in expected)
        problems, failsafe = checks(args, sizes, result, expected, cascade,
                                    work / "reports")
        if args.trace:
            props = gen.input_properties(expected, cascade)
            metrics, attempted, failed, notes = traced(sizes, result, failsafe, props)
        else:
            metrics, attempted, failed, notes = end_to_end(
                args, sizes, result, setup, failsafe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not problems
    if not correct:
        failed = attempted
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<40}{value:>16.6g}  {units[name]}", file=sys.stderr)
    print(f"{'failed_frac':<40}{failed / attempted:>16.6g}  ratio "
          f"({failed}/{attempted})", file=sys.stderr)
    for name, value in notes.items():
        print(f"{name:<40}{value}", file=sys.stderr)

    report = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    details = dict(report, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, smoke=args.smoke, problems=problems,
                   notes=notes, python=platform.python_version(),
                   numpy=np.__version__, machine=platform.machine())
    (OUT / f"report-{stem}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
