"""How fast this machine runs right now, from a fixed piece of reference work.

On a shared machine, CPU speed can change by up to 2x for seconds to
minutes when other tenants are busy. The benchmark times its reference work
right before and after every measured block, and scales the block's times
by ``REFERENCE_MS / measured``. The result reads as the time the block would
have taken if one reference unit had taken ``REFERENCE_MS``.

The reference work uses the same kinds of operation as `simulate`: CSV
parsing, float and dict work, small NumPy reductions over a 1,001-point grid,
and JSON text. It never touches fuzzgate, so a change to the program leaves
it alone.
"""
from __future__ import annotations

import csv
import io
import json
import random
import time

import numpy as np

#: Milliseconds per reference unit that normalized times are scaled to: the
#: typical figure on the machine where the baseline was recorded.
REFERENCE_MS = 3.0

_GRID = np.linspace(0.0, 100.0, 1001)


def _text() -> str:
    rng = random.Random(0)
    lines = ["date,Appliances,T1,RH_1"]
    for i in range(150):
        lines.append(f"2016-01-11 {i % 24:02d}:{i % 60:02d}:00,{10 * rng.randrange(1, 60)},"
                     f"{rng.uniform(16, 27):.2f},{rng.uniform(25, 65):.2f}")
    return "\n".join(lines) + "\n"


_TEXT = _text()


def unit() -> float:
    rows = list(csv.DictReader(io.StringIO(_TEXT)))
    total = 0.0
    for row in rows:
        degrees = {"t": min(float(row["T1"]) / 30.0, 1.0),
                   "h": max(float(row["RH_1"]) / 100.0, 0.0)}
        clipped = np.minimum(min(degrees.values()), _GRID / 100.0)
        total += float(np.sum(clipped * _GRID)) / (float(np.sum(clipped)) + 1.0)
    return total + len(json.dumps(rows))


def measure_ms(seconds: float) -> float:
    """Mean milliseconds per reference unit over about `seconds`."""
    count = 0
    start = time.perf_counter()
    while True:
        unit()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed * 1e3 / count


def factors(speed_ms: list[float]) -> list[float]:
    """Scale factor of each block between consecutive reference timings."""
    return [REFERENCE_MS / ((a + b) / 2) for a, b in zip(speed_ms, speed_ms[1:])]
