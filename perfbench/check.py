"""Output checks for the benchmark's runs.

A `simulate` run is checked three ways: its report digests must agree across
repetitions and, where `goldens.json` has the seed, match the recorded
bytes; every decision must agree with the generated input and with the
report totals; and a seeded sample of records is re-evaluated per node with
the repository's independent dense oracle (`tests/oracle.py`) within
1e-3 x the output span. Stream decisions must equal the ones `simulate`
writes for the same readings, bit for bit.
"""
from __future__ import annotations

import csv
import importlib.util
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
ORACLE_TOLERANCE = 1e-3  # x output span, as in acceptance criterion 2
EXTERNALS = ("temperature", "humidity", "appliance_energy", "time_of_day")


def load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DenseOracle


def golden(workload_csv: str, seed: int, rows: int) -> dict | None:
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    if rows != goldens["rows"]:
        return None
    return goldens[workload_csv].get(str(seed))


def read_decisions(out_dir: Path) -> tuple[list[dict], dict]:
    with open(out_dir / "decisions.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return rows, summary


def check_digests(digests: list[dict], expected: dict | None) -> list[str]:
    problems = []
    if any(d != digests[0] for d in digests[1:]):
        problems.append("simulate reports differ between repetitions")
    if expected is not None and digests and digests[0] != expected:
        problems.append(f"simulate reports differ from goldens.json: "
                        f"{digests[0]} != {expected}")
    return problems


def check_simulate(rows: list[dict], summary: dict, expected: list,
                   cascade, DenseOracle, seed: int, sample: int) -> list[str]:
    """Decisions against the generated inputs, the report totals and the
    oracle. `expected` holds the loader's values per data row, None for a
    row that must be skipped."""
    problems = []
    records = [e for e in expected if e is not None]
    if len(rows) != len(records):
        return [f"decisions.csv has {len(rows)} rows, expected {len(records)}"]
    universes = [cascade.external_variable(name) for name in EXTERNALS]
    sends = clamped = failsafe = 0
    for row, record in zip(rows, records):
        got = tuple(float(row[name]) for name in EXTERNALS)
        if got != record:
            problems.append(f"record {row['index']}: inputs {got} != {record}")
        is_clamped = any(not v.contains(x) for v, x in zip(universes, record))
        if row["clamped"] != str(int(is_clamped)):
            problems.append(f"record {row['index']}: clamped flag {row['clamped']}")
        failsafe += row["failsafe"] == "1"
        if row["failsafe"] == "0":
            score = float(row["score"])
            label = "send" if score <= cascade.threshold else "not_send"
            if row["label"] != label:
                problems.append(f"record {row['index']}: label {row['label']} "
                                f"for score {score!r}")
        sends += row["label"] == "send"
        clamped += is_clamped
        if len(problems) > 10:
            return problems
    want = {"records": len(records), "skipped_rows": len(expected) - len(records),
            "traditional.transmissions": len(records),
            "fuzzy.transmissions": sends, "fuzzy.clamped_records": clamped,
            "fuzzy.failsafe_sends": failsafe}
    for key, value in want.items():
        got = summary
        for part in key.split("."):
            got = got[part]
        if got != value:
            problems.append(f"summary.json {key} = {got}, expected {value}")
    problems += check_oracle(rows, cascade, DenseOracle, seed, sample)
    return problems


def check_oracle(rows: list[dict], cascade, DenseOracle, seed: int,
                 sample: int) -> list[str]:
    """Re-evaluate a seeded sample of records per node with the dense oracle."""
    rng = random.Random(f"oracle:{seed}")
    candidates = [r for r in rows if r["failsafe"] == "0"]
    picked = rng.sample(candidates, min(sample, len(candidates)))
    picked += [r for r in candidates if r["clamped"] == "1"][:sample // 4]
    nodes = {node: (DenseOracle(fs), ORACLE_TOLERANCE * (fs.output.hi - fs.output.lo))
             for node, fs in cascade.nodes.items()}
    slots = {name: cascade.externals[name] for name in EXTERNALS}
    problems = []
    for row in picked:
        crisp = {"fs1": {}, "fs2": {}}
        for name, (node, var_name) in slots.items():
            var = cascade.nodes[node].input_variable(var_name)
            crisp[node][var_name] = var.clamp(float(row[name]))
        outputs = {cascade.fs1.output.name: float(row["apparent_temperature"]),
                   cascade.fs2.output.name: float(row["appliance_usage_time"])}
        checks = (("fs1", crisp["fs1"], outputs[cascade.fs1.output.name]),
                  ("fs2", crisp["fs2"], outputs[cascade.fs2.output.name]),
                  ("fs3", outputs, float(row["score"])))
        for node, node_inputs, engine in checks:
            oracle, tolerance = nodes[node]
            reference = oracle.crisp_output(node_inputs)
            if not abs(engine - reference) <= tolerance:
                problems.append(f"record {row['index']} {node}: engine {engine!r} "
                                f"vs oracle {reference!r}")
    return problems


def check_stream(kept: dict, rows: list[dict]) -> list[str]:
    """Stream decisions must equal `simulate`'s for the same readings, bit
    for bit. A record with no decision on either side is a mismatch."""
    columns = ("score", "apparent_temperature", "appliance_usage_time")
    problems = []
    for i, row in enumerate(rows[:len(kept["score"])]):
        want = tuple(float(row[c] or "nan") for c in columns) + (
            int(row["label"] == "send"), int(row["clamped"]))
        got = tuple(kept[c][i] for c in columns) + (
            kept["send"][i], kept["clamped"][i])
        if got != want:
            problems.append(f"stream record {i}: {got} != simulate {want}")
            if len(problems) > 10:
                break
    return problems
