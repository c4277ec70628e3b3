"""Seeded telemetry generators for the benchmark workloads.

Each generator writes a CSV that `fuzzgate simulate` reads and returns, for
every data row, the values the loader should produce from it:
``(temperature, humidity_fraction, appliance_energy, time_of_day)``, or
``None`` for a row the loader must skip. The same seed gives the same bytes.
"""
from __future__ import annotations

import math
import random
from datetime import datetime, timedelta

#: Row count of the Appliances Energy Prediction dataset the paper replays.
PAPER_ROWS = 19_735

START = datetime(2016, 1, 11, 17, 0, 0)
TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

PAPER_HEADER = (
    "date", "Appliances", "lights",
    "T1", "RH_1", "T2", "RH_2", "T3", "RH_3", "T4", "RH_4", "T5", "RH_5",
    "T6", "RH_6", "T7", "RH_7", "T8", "RH_8", "T9", "RH_9",
    "T_out", "Press_mm_hg", "RH_out", "Windspeed", "Visibility", "Tdewpoint",
    "rv1", "rv2",
)
NARROW_HEADER = ("date", "Appliances", "lights", "T1", "RH_1")

#: (low, high) of the dataset's columns that the cascade does not read; they
#: only give the loader the width of the real file.
_SIDE_RANGES = {
    "T2": (16.1, 29.86), "RH_2": (20.46, 56.03), "T3": (17.2, 29.24),
    "RH_3": (28.77, 50.16), "T4": (15.1, 26.2), "RH_4": (27.66, 51.09),
    "T5": (15.33, 25.8), "RH_5": (29.82, 96.32), "T6": (-6.07, 28.29),
    "RH_6": (1.0, 99.9), "T7": (15.39, 26.0), "RH_7": (23.2, 51.4),
    "T8": (16.31, 27.23), "RH_8": (29.6, 58.78), "T9": (14.89, 24.5),
    "RH_9": (29.17, 53.33), "T_out": (-5.0, 26.1),
    "Press_mm_hg": (729.3, 772.3), "RH_out": (24.0, 100.0),
    "Windspeed": (0.0, 14.0), "Visibility": (1.0, 66.0),
    "Tdewpoint": (-6.6, 15.5),
}
T1_RANGE = (16.79, 26.26)
RH1_RANGE = (27.02, 63.36)
APPLIANCES_MAX = 1080


def _time_of_day(ts: datetime) -> float:
    # Same arithmetic as fuzzgate.sim.TelemetryRecord.time_of_day.
    return ts.hour + ts.minute / 60 + ts.second / 3600


def _walk(rng: random.Random, value: float, step: float,
          lo: float, hi: float) -> float:
    value += step * (rng.random() - 0.5)
    if value < lo:
        value = 2 * lo - value
    elif value > hi:
        value = 2 * hi - value
    return round(value, 2)


def _appliances(rng: random.Random) -> int:
    """Heavy-tailed Wh draw on the dataset's 10-Wh grid, 10..1080."""
    if rng.random() < 0.85:
        wh = rng.lognormvariate(math.log(60.0), 0.45)
    else:
        wh = 100.0 * rng.paretovariate(1.6)
    return int(min(max(10, round(wh / 10.0) * 10), APPLIANCES_MAX))


def write_paper_csv(path, seed: int, rows: int = PAPER_ROWS) -> list:
    """Stand-in for the paper's dataset: 29 columns, one row per 10 minutes.

    Appliances sits on the 10-Wh grid and T1/RH_1 are 2-decimal random walks,
    so a large share of FS2 input pairs repeat, as in the real data.
    """
    rng = random.Random(f"replay_paper:{seed}")
    t1 = round(rng.uniform(19.0, 21.0), 2)
    rh1 = round(rng.uniform(40.0, 48.0), 2)
    side = {name: round(rng.uniform(lo, hi), 2)
            for name, (lo, hi) in _SIDE_RANGES.items()}
    expected = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f'"{h}"' for h in PAPER_HEADER) + "\n")
        for i in range(rows):
            ts = START + timedelta(minutes=10 * i)
            t1 = _walk(rng, t1, 0.28, *T1_RANGE)
            rh1 = _walk(rng, rh1, 1.2, *RH1_RANGE)
            for name, (lo, hi) in _SIDE_RANGES.items():
                side[name] = _walk(rng, side[name], 0.014 * (hi - lo), lo, hi)
            wh = _appliances(rng)
            lights = 10 * rng.choice((0, 0, 0, 0, 1, 2, 3))
            rv = rng.uniform(0.0, 50.0)
            cells = [f'"{ts:{TIMESTAMP_FORMAT}}"', str(wh), str(lights),
                     f"{t1:.2f}", f"{rh1:.2f}"]
            cells += [f"{side[name]:.2f}" for name in PAPER_HEADER[5:27]]
            cells += [repr(rv), repr(rv)]
            fh.write(",".join(cells) + "\n")
            expected.append((float(f"{t1:.2f}"), float(f"{rh1:.2f}") / 100.0,
                             float(wh), _time_of_day(ts)))
    return expected


#: (column, text) pairs that the loader must reject under --skip-bad.
_MALFORMED = (("T1", "n/a"), ("RH_1", ""), ("Appliances", "nan"),
              ("date", "2016-02-30 25:61:00"), ("T1", "inf"))


def write_unique_csv(path, seed: int, rows: int = PAPER_ROWS) -> list:
    """Unique-valued readings in the fixture's 5-column layout.

    Full-precision floats and a random second inside each 10-minute slot, so
    no input pair repeats; about 9% of rows carry one out-of-universe value
    and about 0.5% are malformed.
    """
    rng = random.Random(f"replay_unique:{seed}")
    expected = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(NARROW_HEADER) + "\n")
        for i in range(rows):
            ts = START + timedelta(minutes=10 * i, seconds=rng.randrange(600))
            wh = rng.lognormvariate(math.log(60.0), 0.7)
            t1 = rng.uniform(16.0, 27.0)
            rh1 = rng.uniform(25.0, 65.0)
            lights = rng.uniform(0.0, 70.0)
            if rng.random() < 0.09:
                kind = rng.randrange(4)
                if kind == 0:
                    t1 = rng.uniform(-8.0, -1e-3)
                elif kind == 1:
                    t1 = rng.uniform(100.001, 105.0)
                elif kind == 2:
                    rh1 = rng.uniform(100.001, 110.0)
                else:
                    wh = rng.uniform(1000.001, 1500.0)
            cells = {"date": f"{ts:{TIMESTAMP_FORMAT}}", "Appliances": repr(wh),
                     "lights": repr(lights), "T1": repr(t1), "RH_1": repr(rh1)}
            if rng.random() < 0.005:
                column, text = rng.choice(_MALFORMED)
                cells[column] = text
                expected.append(None)
            else:
                expected.append((t1, rh1 / 100.0, wh, _time_of_day(ts)))
            fh.write(",".join(cells[h] for h in NARROW_HEADER) + "\n")
    return expected


WRITERS = {"replay_paper": write_paper_csv, "replay_unique": write_unique_csv}


def input_properties(expected: list, cascade) -> dict:
    """Share of records repeating an earlier FS1 / FS2 input pair, and share
    with a reading outside its universe (which the cascade clamps)."""
    records = [r for r in expected if r is not None]
    universes = [cascade.external_variable(name) for name in
                 ("temperature", "humidity", "appliance_energy", "time_of_day")]
    seen1, seen2 = set(), set()
    rep1 = rep2 = clamped = 0
    for rec in records:
        fs1, fs2 = rec[:2], rec[2:]
        rep1 += fs1 in seen1
        rep2 += fs2 in seen2
        seen1.add(fs1)
        seen2.add(fs2)
        clamped += any(not var.contains(x) for var, x in zip(universes, rec))
    n = max(len(records), 1)
    return {"input.fs1_repeat_frac": rep1 / n,
            "input.fs2_repeat_frac": rep2 / n,
            "input.clamped_frac": clamped / n}
