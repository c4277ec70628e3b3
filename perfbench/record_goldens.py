"""Record the SHA-256 of `decisions.csv` and `summary.json` per seed.

    python3 perfbench/record_goldens.py 0-15

Writes `perfbench/goldens.json`. `run.py` compares every full-size run whose
seed is listed there against these digests, so a change that moves any
score bit fails the check. Re-record only when a change to the reports is
intended, and say so in the change.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from run import OUT, WORKLOADS  # noqa: E402
from sweep import seed_list  # noqa: E402
from worker import simulate  # noqa: E402


def main() -> int:
    seeds = seed_list(sys.argv[1] if len(sys.argv) > 1 else "1")
    goldens = {"rows": gen.PAPER_ROWS}
    work = OUT / "goldens"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for generator, flags in sorted(set((g, tuple(f)) for g, f in WORKLOADS.values())):
            goldens[generator] = {}
            for seed in seeds:
                csv_path = work / "telemetry.csv"
                gen.WRITERS[generator](csv_path, seed)
                config = {"csv": str(csv_path), "out": str(work / "reports"),
                          "simulate_flags": list(flags)}
                goldens[generator][str(seed)] = simulate(config)[1]
                print(generator, seed, goldens[generator][str(seed)], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
