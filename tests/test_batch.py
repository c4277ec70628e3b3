"""The batch engine against the single-reading path.

`run_fuzzy` evaluates whole columns through `Cascade.evaluate_columns`;
`eval` and single readings go through `Cascade.evaluate`. Both must give the
same bits for every record: intermediates, score, label, clamped flag and
fail-safe sends.
"""
import math
import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from fuzzgate.cascade import DEFAULT_EXTERNALS, SEND, build_cascade
from fuzzgate.core import FuzzySubsystem, NoRuleFiredError
from fuzzgate.energy import REFERENCE_JOULES_PER_PACKET
from fuzzgate.sim import TelemetryRecord, load_telemetry, run_fuzzy

MIDNIGHT = datetime(2016, 1, 11)


def bits(value):
    """A float by its bits (so -0.0 != 0.0); anything else as it is."""
    return value.hex() if isinstance(value, float) else value


def readings(record):
    return dict(zip(DEFAULT_EXTERNALS, (record.temperature, record.humidity,
                                        record.appliance_energy,
                                        record.time_of_day)))


def scalar_decision(cascade, inputs, failed_nodes=None):
    """What `run_fuzzy` must record for one reading, from `evaluate`: the
    intermediates, score, Send, clamped and fail-safe flags."""
    try:
        trace = cascade.evaluate(inputs, clamp=True)
    except NoRuleFiredError as exc:
        if failed_nodes is not None:
            failed_nodes.add(exc.variable.split(".")[0])
        return math.nan, math.nan, math.nan, True, False, True
    return (trace.intermediates[cascade.fs1.output.name],
            trace.intermediates[cascade.fs2.output.name],
            trace.score, trace.label == SEND, bool(trace.clamped), False)


def assert_paths_agree(cascade, records, failed_nodes=None):
    result = run_fuzzy(records, cascade, REFERENCE_JOULES_PER_PACKET)
    assert len(result.decisions) == len(records)
    columns = (result.apparent_temperature, result.appliance_usage_time,
               result.score, result.decisions, result.clamped, result.failsafe)
    for record, batch in zip(records, zip(*(c.tolist() for c in columns))):
        expected = scalar_decision(cascade, readings(record), failed_nodes)
        assert tuple(map(bits, batch)) == tuple(map(bits, expected)), record
    return result


def probes(var):
    """Universe bounds, values outside them, and every breakpoint of the
    variable's terms with its float neighbours."""
    points = {var.lo, var.hi, var.lo - 1.0, var.hi + 1.0,
              var.lo - abs(var.hi) * 2, var.hi * 3 + 1}
    for _, mf in var.terms:
        for p in mf.breakpoints:
            points |= {np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)}
    return sorted(float(p) for p in points)


def generated_records(cascade, n, seed=11):
    """Readings that mix uniform draws with probe values; about half of the
    (appliance_energy, time_of_day) pairs come from a pool of 40."""
    rng = random.Random(seed)
    temperature, humidity, energy, time_of_day = \
        cascade.fs1.inputs + cascade.fs2.inputs
    hours = [p for _, mf in time_of_day.terms for p in mf.breakpoints]

    def draw(var):
        if rng.random() < 0.4:
            return rng.choice(probes(var))
        span = var.hi - var.lo
        return rng.uniform(var.lo - 0.05 * span, var.hi + 0.05 * span)

    def clock():
        if rng.random() < 0.3:
            seconds = round(rng.choice(hours) * 3600) + rng.choice((-1, 0, 1))
        else:
            seconds = rng.randrange(24 * 3600)
        return MIDNIGHT + timedelta(seconds=min(max(seconds, 0), 24 * 3600 - 1))

    pool = [(draw(energy), clock()) for _ in range(40)]
    records = []
    for _ in range(n):
        e, stamp = rng.choice(pool) if rng.random() < 0.5 else (draw(energy),
                                                                 clock())
        records.append(TelemetryRecord(stamp, draw(temperature),
                                       draw(humidity), e))
    return records


def only_first_term_rules(fs: FuzzySubsystem) -> FuzzySubsystem:
    """The subsystem with only the rules on its first input's first term, so
    readings outside that term fire no rule."""
    first = (fs.inputs[0].name, fs.inputs[0].terms[0][0])
    rules = tuple(r for r in fs.rules if first in r.antecedents)
    return FuzzySubsystem(fs.name, fs.inputs, fs.output, rules)


def with_node(cascade, index, fs):
    nodes = [cascade.fs1, cascade.fs2, cascade.fs3]
    nodes[index] = fs
    return build_cascade(*nodes, threshold=cascade.threshold)


class TestPathsAgree:
    def test_fixture(self, cascade, fixture_csv):
        records, _ = load_telemetry(fixture_csv)
        assert_paths_agree(cascade, records)

    def test_generated_records(self, cascade):
        records = generated_records(cascade, 3000)
        pairs = {(r.appliance_energy, r.time_of_day) for r in records}
        assert len(pairs) < 0.7 * len(records)
        result = assert_paths_agree(cascade, records)
        assert 0.1 < result.clamped_records / len(records) < 0.9
        assert 0 < result.transmissions < len(records)

    def test_columns_at_every_probe(self, cascade):
        """Every probe value of each external, cycled against the others;
        time of day takes values a timestamp cannot give."""
        variables = cascade.fs1.inputs + cascade.fs2.inputs
        values = [probes(var) for var in variables]
        n = max(map(len, values)) * 7
        columns = [np.resize(v, n) for v in values]
        clamped, apparent, usage, score, failsafe = \
            cascade.evaluate_columns(columns)
        assert not failsafe.any()
        for row in range(n):
            inputs = dict(zip(DEFAULT_EXTERNALS,
                              (float(c[row]) for c in columns)))
            expected = scalar_decision(cascade, inputs)
            got = (apparent[row], usage[row], score[row])
            assert tuple(map(bits, map(float, got))) == \
                tuple(map(bits, expected[:3])), inputs
            assert bool(clamped[row]) == expected[4]

    @pytest.mark.parametrize("node", [0, 1, 2], ids=["fs1", "fs2", "fs3"])
    def test_no_rule_fired_at_one_node(self, cascade, node):
        nodes = (cascade.fs1, cascade.fs2, cascade.fs3)
        partial = with_node(cascade, node, only_first_term_rules(nodes[node]))
        failed = set()
        result = assert_paths_agree(partial, generated_records(cascade, 1000),
                                    failed)
        assert failed == {f"fs{node + 1}"}
        assert 0 < result.failsafe_sends < len(result.decisions)
        assert result.decisions[result.failsafe].all()

    @pytest.mark.parametrize("node", [0, 1, 2], ids=["fs1", "fs2", "fs3"])
    def test_empty_rule_bank(self, cascade, node):
        fs = (cascade.fs1, cascade.fs2, cascade.fs3)[node]
        empty = FuzzySubsystem(fs.name, fs.inputs, fs.output, ())
        records = generated_records(cascade, 100)
        result = assert_paths_agree(with_node(cascade, node, empty), records)
        assert result.failsafe_sends == result.transmissions == 100
        assert result.clamped_records == 0

    def test_no_records(self, cascade):
        result = run_fuzzy([], cascade, REFERENCE_JOULES_PER_PACKET)
        assert len(result.decisions) == 0 and len(result.cumulative) == 0
        assert result.transmissions == result.failsafe_sends == 0
        empty = cascade.evaluate_columns([np.array([])] * 4)
        assert [len(column) for column in empty] == [0] * 5
