"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line. Criterion 3 needs the full Appliances Energy Prediction
dataset; point FUZZGATE_DATASET at the CSV (or drop it in data/) to enable it.
"""
import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from fuzzgate.cli import main as cli_main
from fuzzgate.dsl import parse, validate
from fuzzgate.energy import REFERENCE_JOULES_PER_PACKET, packet_energy, \
    packet_time
from fuzzgate.sim import load_telemetry, run_fuzzy

from conftest import FIS_FILES, load_bundled
from fis_format import serialize, structurally_equal
from inference import infer
from fuzzgate.cascade import NOT_SEND, SEND, bundled_fis_dir, sends
from oracle import DenseOracle
from tables import FS1_TABLE, FS2_TABLE, FS3_TABLE, core_point

DATASET_CANDIDATES = [
    os.environ.get("FUZZGATE_DATASET", ""),
    str(Path(__file__).resolve().parents[1] / "data" / "energydata_complete.csv"),
]


def find_dataset():
    for candidate in DATASET_CANDIDATES:
        if candidate and Path(candidate).is_file():
            return Path(candidate)
    return None


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: criterion {criterion}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


class TestAcceptance:
    def test_criterion_1_rule_table_fidelity(self, cascade):
        start = time.perf_counter()
        failures = []
        for fs, table in ((cascade.fs1, FS1_TABLE), (cascade.fs2, FS2_TABLE)):
            first, second = fs.inputs
            for (t1, t2), expected in table.items():
                crisp = {first.name: core_point(first, t1),
                         second.name: core_point(second, t2)}
                value = infer(fs, crisp).centroid
                degrees = {term: mf(value) for term, mf in fs.output.terms}
                argmax = max(degrees, key=degrees.get)
                if argmax != expected:
                    failures.append((fs.name, t1, t2, argmax, expected))
        first, second = cascade.fs3.inputs
        for (t1, t2), expected in FS3_TABLE.items():
            crisp = {first.name: core_point(first, t1),
                     second.name: core_point(second, t2)}
            score = infer(cascade.fs3, crisp).centroid
            label = SEND if sends(score, cascade.threshold) else NOT_SEND
            if label != expected:
                failures.append(("fs3", t1, t2, label, expected))
        elapsed = time.perf_counter() - start
        report(1, not failures and elapsed < 1.0,
               f"52 cells, {len(failures)} mismatches, {elapsed:.2f}s")

    def test_criterion_2_oracle_equivalence(self, fs1, fs2, fs3):
        start = time.perf_counter()
        rng = random.Random(20220917)
        worst = 0.0
        for fs in (fs1, fs2, fs3):
            oracle = DenseOracle(fs)
            span = fs.output.hi - fs.output.lo
            tolerance = 1e-3 * span
            for _ in range(1000):
                crisp = {v.name: rng.uniform(v.lo, v.hi) for v in fs.inputs}
                engine = infer(fs, crisp).centroid
                reference = oracle.crisp_output(crisp)
                delta = abs(engine - reference)
                worst = max(worst, delta / span)
                assert delta <= tolerance, (fs.name, crisp, engine, reference)
        elapsed = time.perf_counter() - start
        report(2, elapsed < 30.0,
               f"3000 pairs, worst {worst:.2e} x span, {elapsed:.1f}s")

    def test_criterion_3_headline_experiment(self, cascade):
        dataset = find_dataset()
        if dataset is None:
            print("ACCEPTANCE SKIP: criterion 3 (dataset not present; "
                  "set FUZZGATE_DATASET to the Appliances Energy CSV)")
            pytest.skip("full dataset not available")
        start = time.perf_counter()
        records, _ = load_telemetry(dataset, policy="skip-bad")
        fuzzy = run_fuzzy(records, cascade, REFERENCE_JOULES_PER_PACKET)
        elapsed = time.perf_counter() - start
        ok = (fuzzy.transmissions < 19735
              and 6.0 <= fuzzy.reduction_pct <= 18.0
              and elapsed < 60.0)
        report(3, ok, f"{len(records)} records, fuzzy {fuzzy.transmissions} tx, "
                      f"reduction {fuzzy.reduction_pct:.1f}%, {elapsed:.0f}s")

    def test_criterion_4_absolute_energy_reproduction(self):
        start = time.perf_counter()
        traditional = 19735 * REFERENCE_JOULES_PER_PACKET
        fuzzy_pinned = 17410 * REFERENCE_JOULES_PER_PACKET
        elapsed = time.perf_counter() - start
        ok = (abs(traditional - 957.8) <= 0.05
              and abs(fuzzy_pinned - 844.9) <= 0.05
              and elapsed < 1.0)
        report(4, ok, f"traditional {traditional:.2f} J, "
                      f"pinned fuzzy {fuzzy_pinned:.2f} J")

    def test_criterion_5_ratio_identity(self, cascade, fixture_csv):
        records, _ = load_telemetry(fixture_csv)
        per_packet = [REFERENCE_JOULES_PER_PACKET, 0.123, packet_energy(),
                      packet_energy(header_bits=400, data_bits=8000)]
        ok = True
        for joules in per_packet:
            fuzzy = run_fuzzy(records, cascade, joules)
            if fuzzy.transmissions == 0:
                continue
            energy_ratio = fuzzy.total_joules / fuzzy.traditional_joules
            count_ratio = fuzzy.transmissions / len(records)
            ok = ok and abs(energy_ratio - count_ratio) <= 1e-9
        report(5, ok, f"{len(per_packet)} per-packet figures")

    def test_criterion_6_packet_equations_exact(self):
        from fractions import Fraction
        rng = random.Random(4242)
        worst = 0.0
        for _ in range(100):
            ph = rng.randrange(0, 10**6)
            pd = rng.randrange(0, 10**7)
            t = packet_time(ph, pd)
            e = packet_energy(header_bits=ph, data_bits=pd)
            t_exact = Fraction(ph, 6 * 10**6) + Fraction(pd, 54 * 10**6)
            e_exact = Fraction(280, 1000) * 5 * t_exact
            for got, exact in ((t, t_exact), (e, e_exact)):
                if exact == 0:
                    assert got == 0.0
                    continue
                rel = abs(Fraction(got) - exact) / exact
                worst = max(worst, float(rel))
        report(6, worst < 1e-12, f"100 pairs, worst rel err {worst:.1e}")

    def test_criterion_7_parser_robustness(self):
        sources = [(bundled_fis_dir() / FIS_FILES[k]).read_text(encoding="utf-8")
                   for k in ("fs1", "fs2", "fs3")]
        for text in sources:
            doc, diags = parse(text)
            assert doc is not None
            assert not any(d.severity == "error" for d in diags)
            doc2, diags2 = parse(serialize(doc))
            assert doc2 is not None and structurally_equal(doc, doc2)

        rng = random.Random(99)
        alphabet = "systeminputoutputtermruleifandthen#0123456789.- \n\t"
        # The bound is on this process's CPU time, which the parser's work
        # sets; wall time also counts the time other processes hold the CPU.
        start, wall_start = time.process_time(), time.perf_counter()
        for i in range(10_000):
            chars = list(sources[i % 3])
            for _ in range(rng.randrange(1, 8)):
                op = rng.randrange(3)
                pos = rng.randrange(len(chars)) if chars else 0
                if op == 0 and chars:
                    chars[pos] = rng.choice(alphabet)
                elif op == 1:
                    chars.insert(pos, rng.choice(alphabet))
                elif chars:
                    del chars[pos]
            doc, diags = parse("".join(chars))
            if doc is not None and not any(d.severity == "error" for d in diags):
                validate(doc)
        elapsed = time.process_time() - start
        wall = time.perf_counter() - wall_start
        report(7, elapsed < 10.0,
               f"10000 mutations, {elapsed:.1f}s CPU, {wall:.1f}s wall")

    def test_criterion_8_invariant_suites(self, cascade, fixture_csv, tmp_path):
        fs1, fs2 = cascade.fs1, cascade.fs2
        variables = [*fs1.inputs, fs1.output, *fs2.inputs,
                     cascade.fs2.output, cascade.fs3.output]
        assert len(variables) == 7
        problems = []
        for var in variables:
            xs = np.linspace(var.lo, var.hi, 1000)
            for term, mf in var.terms:
                degrees = mf.sample(xs)
                if degrees.min() < 0.0 or degrees.max() > 1.0:
                    problems.append(f"bounds {var.name}.{term}")
            if var.coverage_gaps():
                problems.append(f"coverage {var.name}")

        rng = random.Random(7)
        for fs in (fs1, fs2, cascade.fs3):
            for _ in range(200):
                crisp = {v.name: rng.uniform(v.lo, v.hi) for v in fs.inputs}
                value = infer(fs, crisp).centroid
                if not fs.output.lo <= value <= fs.output.hi:
                    problems.append(f"centroid {fs.name}")

        summaries = []
        for name in ("run_a", "run_b"):
            out_dir = tmp_path / name
            code = cli_main(["simulate", "--dataset", str(fixture_csv),
                             "--out", str(out_dir)])
            assert code == 0
            summaries.append((out_dir / "summary.json").read_bytes())
        if summaries[0] != summaries[1]:
            problems.append("replay determinism")

        report(8, not problems, "; ".join(problems) or "all invariants green")
