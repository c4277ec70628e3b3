"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--out FILE]

For every workload and end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the quartile spread as a
share of the median, next to the metric's bound from `BENCHMARK.json`.
With `--out` it also writes those figures, with machine, Python and numpy
details, as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model, "cpus": os.cpu_count(), "machine": platform.machine(),
            "system": platform.system(), "python": platform.python_version(),
            "numpy": np.__version__}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    seeds = seed_list(args.seeds)
    summary = {"machine": machine(), "seeds": seeds, "seconds": args.seconds,
               "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        rows = {}
        print(f"{workload}: correct={[r['correct'] for r in runs]}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread, "values": values}
            bound = metric.get("bound")
            flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
            print(f"  {metric['name']:<40} median {median:>12.6g} {metric['unit']:<10}"
                  f" spread {spread:6.3f}" + (f" bound {bound}" if bound else "") + flag)
        summary["workloads"][workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
