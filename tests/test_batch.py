"""The batch engine against the single-reading path and exact arithmetic.

`run_fuzzy` evaluates whole columns through `Cascade.evaluate_columns`;
`eval` and single readings go through `Cascade.evaluate`. Both must give the
same bits for every record: intermediates, score, label, clamped flag and
fail-safe sends. Each node of `evaluate_columns` must also be within
`centroid_bound` of the exact reference in `exact.py`.
"""
import dataclasses
import math
import random
from datetime import datetime, timedelta
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzgate.cascade import (DEFAULT_EXTERNALS, NOT_SEND, SEND, Cascade,
                              WiringMismatchError)
from fuzzgate.core import FiredRule, FuzzyRule, FuzzySubsystem, NoRuleFiredError
from fuzzgate.energy import REFERENCE_JOULES_PER_PACKET
from fuzzgate.sim import Telemetry, load_telemetry, run_fuzzy
from exact import ExactSubsystem, centroid_bound, tiny
from inference import fire_per_rule, infer_per_rule
from telemetry import record, telemetry_of
from test_inference import cascades, readings

MIDNIGHT = datetime(2016, 1, 11)


def bits(value):
    """A float by its bits (so -0.0 != 0.0); anything else as it is."""
    return value.hex() if isinstance(value, float) else value


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


def assert_paths_agree(cascade, telemetry, failed_nodes=None):
    """`run_fuzzy` against `scalar_decision` record by record."""
    result = run_fuzzy(telemetry, cascade, REFERENCE_JOULES_PER_PACKET)
    assert len(result.decisions) == len(telemetry)
    columns = (result.apparent_temperature, result.appliance_usage_time,
               result.score, result.decisions, result.clamped, result.failsafe)
    for values, batch in zip(telemetry.readings.tolist(),
                             zip(*(c.tolist() for c in columns))):
        inputs = dict(zip(DEFAULT_EXTERNALS, values))
        expected = scalar_decision(cascade, inputs, failed_nodes)
        assert tuple(map(bits, batch)) == tuple(map(bits, expected)), inputs
    return result


def assert_columns_agree(cascade, columns):
    """`evaluate_columns` against `evaluate(clamp=True)` row by row: the same
    bits of both intermediates and the score, NaN in all three where some
    node fired no rule, and a clamped mark exactly where a reading is
    outside its universe. Returns the four columns."""
    outputs = cascade.evaluate_columns(columns)
    clamped, *crisp = outputs
    variables = cascade.fs1.inputs + cascade.fs2.inputs
    for row, values in enumerate(zip(*(c.tolist() for c in columns))):
        inputs = dict(zip(DEFAULT_EXTERNALS, values))
        expected = scalar_decision(cascade, inputs)
        got = tuple(float(c[row]) for c in crisp)
        assert tuple(map(bits, got)) == tuple(map(bits, expected[:3])), inputs
        assert bool(clamped[row]) == any(
            not var.contains(x) for var, x in zip(variables, values)), inputs
    return outputs


def probes(var):
    """Universe bounds, values outside them, and every corner of the
    variable's terms with its float neighbours."""
    points = {var.lo, var.hi, var.lo - 1.0, var.hi + 1.0,
              var.lo - abs(var.hi) * 2, var.hi * 3 + 1}
    for _, mf in var.terms:
        for p in mf.corners:
            points |= {np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)}
    return sorted(float(p) for p in points)


def generated_records(cascade, n, seed=11):
    """Readings that mix uniform draws with probe values; about half of the
    (appliance_energy, time_of_day) pairs come from a pool of 40."""
    rng = random.Random(seed)
    temperature, humidity, energy, time_of_day = \
        cascade.fs1.inputs + cascade.fs2.inputs
    hours = [p for _, mf in time_of_day.terms for p in mf.corners]

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
        records.append(record(stamp, draw(temperature), draw(humidity), e))
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
    return Cascade(*nodes, threshold=cascade.threshold)


class TestPathsAgree:
    def test_fixture(self, cascade, fixture_csv):
        telemetry, _ = load_telemetry(fixture_csv)
        assert_paths_agree(cascade, telemetry)

    @pytest.mark.parametrize("below, label", [(False, SEND), (True, NOT_SEND)],
                             ids=["at-the-score", "one-float-below"])
    def test_threshold_tie(self, cascade, fixture_csv, below, label):
        """A threshold exactly at a record's score sends it, on both paths;
        one float below that score does not."""
        telemetry, _ = load_telemetry(fixture_csv)
        first = dict(zip(DEFAULT_EXTERNALS, telemetry.readings[0].tolist()))
        score = cascade.evaluate(first, clamp=True).score
        threshold = math.nextafter(score, -math.inf) if below else score
        tied = dataclasses.replace(cascade, threshold=threshold)
        assert tied.evaluate(first, clamp=True).label == label
        result = assert_paths_agree(tied, telemetry)
        assert bool(result.decisions[0]) == (label == SEND)

    def test_generated_records(self, cascade):
        records = generated_records(cascade, 3000)
        pairs = {(r.appliance_energy, r.time_of_day) for r in records}
        assert len(pairs) < 0.7 * len(records)
        result = assert_paths_agree(cascade, telemetry_of(records))
        assert 0.1 < result.clamped_records / len(records) < 0.9
        assert 0 < result.transmissions < len(records)

    def test_columns_at_every_probe(self, cascade):
        """Every probe value of each external, cycled against the others;
        time of day takes values a timestamp cannot give."""
        variables = cascade.fs1.inputs + cascade.fs2.inputs
        values = [probes(var) for var in variables]
        n = max(map(len, values)) * 7
        columns = [np.resize(v, n) for v in values]
        *_, score = assert_columns_agree(cascade, columns)
        assert not np.isnan(score).any()

    @pytest.mark.parametrize("node", [0, 1, 2], ids=["fs1", "fs2", "fs3"])
    def test_no_rule_fired_at_one_node(self, cascade, node):
        nodes = (cascade.fs1, cascade.fs2, cascade.fs3)
        partial = with_node(cascade, node, only_first_term_rules(nodes[node]))
        failed = set()
        result = assert_paths_agree(
            partial, telemetry_of(generated_records(cascade, 1000)), failed)
        assert failed == {f"fs{node + 1}"}
        assert 0 < result.failsafe_sends < len(result.decisions)
        assert result.decisions[result.failsafe].all()

    @pytest.mark.parametrize("node", [0, 1], ids=["fs1", "fs2"])
    def test_fs3_runs_where_both_producers_fired(self, cascade, node):
        """`evaluate_columns` gives FS3 only the rows where FS1 and FS2 both
        fired, and still agrees with `evaluate` row by row."""
        nodes = (cascade.fs1, cascade.fs2, cascade.fs3)
        partial = with_node(cascade, node, only_first_term_rules(nodes[node]))
        calls = {}  # rows and centroids of each node's call
        centroids = FuzzySubsystem.centroids

        def spy(fs, columns):
            calls[id(fs)] = len(columns[0]), centroids(fs, columns)
            return calls[id(fs)][1]

        records = generated_records(cascade, 1000)
        with mock.patch.object(FuzzySubsystem, "centroids", spy):
            assert_columns_agree(partial, telemetry_of(records).readings.T)
        (_, apparent), (_, usage), (rows, _) = (
            calls[id(fs)] for fs in (partial.fs1, partial.fs2, partial.fs3))
        both = int((~np.isnan(apparent) & ~np.isnan(usage)).sum())
        assert rows == both
        assert 0 < both < len(records)

    @pytest.mark.parametrize("node", [0, 1, 2], ids=["fs1", "fs2", "fs3"])
    def test_empty_rule_bank(self, cascade, node):
        fs = (cascade.fs1, cascade.fs2, cascade.fs3)[node]
        empty = FuzzySubsystem(fs.name, fs.inputs, fs.output, ())
        records = telemetry_of(generated_records(cascade, 100))
        result = assert_paths_agree(with_node(cascade, node, empty), records)
        assert result.failsafe_sends == result.transmissions == 100
        assert result.clamped_records == 0

    def test_no_records(self, cascade):
        result = run_fuzzy(telemetry_of([]), cascade,
                           REFERENCE_JOULES_PER_PACKET)
        assert len(result.decisions) == 0 and len(result.cumulative) == 0
        assert result.transmissions == result.failsafe_sends == 0
        empty = cascade.evaluate_columns([np.array([])] * 4)
        assert [len(column) for column in empty] == [0] * 4


def assert_near(got, want, fs):
    """`got` is within `centroid_bound` of the exact `want`."""
    assert abs(Fraction(got) - want) <= centroid_bound(fs), (got, want)


def compare_with_exact(cascade, exact, values, got):
    """One row of `evaluate_columns`, `got` (FS1's and FS2's centroids and
    the score), node by node against exact arithmetic: FS1 and FS2 on the
    clamped readings `values`, FS3 on the engine's own intermediates, which
    the row holds unless some node fired no rule. Returns whether it
    compared every node: it stops at a node with an exact activation below
    the smallest normal float, where the engine may fire less (see
    `exact.py`)."""
    fs1, fs2, fs3 = cascade.fs1, cascade.fs2, cascade.fs3
    crisp = {var.name: var.clamp(x)
             for var, x in zip(fs1.inputs + fs2.inputs, values)}
    for node, fs in (("fs1", fs1), ("fs2", fs2), ("fs3", fs3)):
        fired = exact[node].fire(crisp)
        if tiny(fired):
            return False
        centroid = exact[node].centroid(fired)
        if centroid is None:
            assert all(map(math.isnan, got)), values
            return True
        engine = float(fs.centroids([np.array([crisp[var.name]])
                                     for var in fs.inputs])[0])
        assert_near(engine, centroid, fs)
        crisp[fs.output.name] = engine
    intermediates = (crisp[fs1.output.name], crisp[fs2.output.name])
    assert list(map(bits, got)) == list(map(bits, intermediates + (engine,)))
    return True


def test_columns_against_exact_reference(cascade):
    """`evaluate_columns` node by node against exact arithmetic
    (`compare_with_exact`). The rows are each external's term corners, in
    turn and reversed, then seeded readings drawn across its universe and a
    tenth of its span past each end."""
    variables = cascade.fs1.inputs + cascade.fs2.inputs
    corners = [sorted({p for _, mf in var.terms for p in mf.corners})
               for var in variables]
    n = max(map(len, corners))
    rng = np.random.default_rng(17)
    columns = []
    for var, points in zip(variables, corners):
        span = var.hi - var.lo
        columns.append(np.concatenate([
            np.resize(points, n), np.resize(points[::-1], n),
            rng.uniform(var.lo - 0.1 * span, var.hi + 0.1 * span, 74)]))
    _, *crisp = cascade.evaluate_columns(columns)
    exact = {node: ExactSubsystem(fs) for node, fs in cascade.nodes.items()}
    for values, got in zip(zip(*(c.tolist() for c in columns)),
                           zip(*(c.tolist() for c in crisp))):
        assert compare_with_exact(cascade, exact, values, got), values


def drawn_columns(data, cascade, n):
    """One column per external of a drawn cascade: two rows of `readings()`
    of FS1 and FS2, then n seeded rows. In those, each external takes one of
    its probe values or a uniform draw up to a tenth of its span past each
    end of its universe. Then, in half of them, one rule of FS1 and one of
    FS2 are picked, and each input that such a rule reads takes a point
    inside the support of the term it reads there, as `readings()` aims."""
    fs1, fs2 = cascade.fs1, cascade.fs2
    rows = [{**data.draw(readings(fs1)), **data.draw(readings(fs2))}
            for _ in range(2)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    variables = fs1.inputs + fs2.inputs
    choices = [(var, probes(var), 0.1 * (var.hi - var.lo)) for var in variables]
    for _ in range(n):
        row = {var.name: float(rng.choice(points)) if rng.random() < 0.5
               else rng.uniform(var.lo - past, var.hi + past)
               for var, points, past in choices}
        if rng.random() < 0.5:
            for fs in (fs1, fs2):
                rule = fs.rules[rng.integers(len(fs.rules))]
                for name, term in rule.antecedents:
                    mf = fs.input_variable(name).term(term)
                    x = rng.uniform(mf.corners[0], mf.corners[3])
                    row[name] = x if mf(x) > 0.0 else mf.corners[1]
        rows.append(row)
    return [np.array([row[var.name] for row in rows]) for var in variables]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_drawn_cascades(data):
    """Drawn cascades (`cascades()`), 150 rows each (`drawn_columns`),
    through both paths: `evaluate_columns` and `run_fuzzy` agree with
    `evaluate(clamp=True)` bit for bit, row by row."""
    cascade = data.draw(cascades())
    columns = drawn_columns(data, cascade, 148)
    assert_columns_agree(cascade, columns)
    assert_paths_agree(cascade, Telemetry(
        [MIDNIGHT.isoformat(" ")] * len(columns[0]), np.column_stack(columns)))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([None, "fs1", "fs2", "fs3"]))
def test_drawn_cascades_fired_records(data, emptied):
    """Drawn cascades (`cascades()`), 20 rows each (`drawn_columns`), with
    one node's rule bank emptied in three draws of four: each node's part of
    `evaluate(clamp=True).fired` is `fire_per_rule` on that node's inputs, as
    `FiredRule`s with the node's label, activations compared as bits. FS3 is
    fed the trace's intermediates. Where the reference fires no rule at a
    node, `evaluate` raises NoRuleFiredError naming it and its output, and
    an emptied node that runs always does."""
    cascade = data.draw(cascades())
    columns = drawn_columns(data, cascade, 18)
    if emptied is not None:
        cascade = Cascade(**{**cascade.nodes, emptied: dataclasses.replace(
            cascade.nodes[emptied], rules=())}, threshold=cascade.threshold)
    variables = cascade.fs1.inputs + cascade.fs2.inputs
    for values in zip(*(c.tolist() for c in columns)):
        clamped = [var.clamp(x) for var, x in zip(variables, values)]
        crisp = {"fs1": dict(zip([v.name for v in variables[:2]], clamped[:2])),
                 "fs2": dict(zip([v.name for v in variables[2:]], clamped[2:]))}
        try:
            trace = cascade.evaluate(dict(zip(DEFAULT_EXTERNALS, values)),
                                     clamp=True)
        except NoRuleFiredError as exc:
            trace, failed = None, exc.variable
        expected = []
        for node, fs in cascade.nodes.items():
            if node == "fs3":  # from `infer_per_rule` where `evaluate` raised
                crisp[node] = trace.intermediates if trace else {
                    producer.output.name: infer_per_rule(producer,
                                                         crisp[name]).centroid
                    for name, producer in (("fs1", cascade.fs1),
                                           ("fs2", cascade.fs2))}
            pairs = fire_per_rule(fs, crisp[node])
            if not pairs:
                assert trace is None and failed == f"{node}.{fs.output.name}"
                break
            assert node != emptied
            expected += [(node, fs.rules[r].antecedents, fs.rules[r].consequent,
                          act.hex()) for r, act in pairs]
        else:
            assert all(type(f) is FiredRule for f in trace.fired)
            assert [(*f[:3], f.activation.hex()) for f in trace.fired] == \
                expected, values


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_drawn_cascades_against_exact_reference(data):
    """Drawn cascades, three rows each (`drawn_columns`): each node of
    `evaluate_columns` against exact arithmetic (`compare_with_exact`)."""
    cascade = data.draw(cascades())
    columns = drawn_columns(data, cascade, 1)
    _, *crisp = cascade.evaluate_columns(columns)
    exact = {node: ExactSubsystem(fs) for node, fs in cascade.nodes.items()}
    for values, got in zip(zip(*(c.tolist() for c in columns)),
                           zip(*(c.tolist() for c in crisp))):
        compare_with_exact(cascade, exact, values, got)


@settings(max_examples=100, deadline=None)
@given(cascades(), st.sampled_from([None, 0, 1]), st.sampled_from([None, 0, 1]))
def test_drawn_wiring(cascade, rename, widen):
    """FS3 of a drawn cascade with one input renamed, one input's universe
    widened, both or neither: `Cascade` raises WiringMismatchError exactly
    when a name or a universe disagrees with its producer's output."""
    fs3 = cascade.fs3
    inputs, rules = list(fs3.inputs), fs3.rules
    if widen is not None:
        var = inputs[widen]
        inputs[widen] = dataclasses.replace(var, hi=var.hi + (var.hi - var.lo))
    if rename is not None:
        old = inputs[rename].name
        inputs[rename] = dataclasses.replace(inputs[rename], name="z")
        rules = tuple(FuzzyRule(tuple(("z" if v == old else v, t)
                                      for v, t in rule.antecedents),
                                rule.consequent) for rule in rules)
    rewired = FuzzySubsystem(fs3.name, tuple(inputs), fs3.output, rules)
    if rename is None and widen is None:
        Cascade(cascade.fs1, cascade.fs2, rewired, cascade.threshold)
    else:
        with pytest.raises(WiringMismatchError):
            Cascade(cascade.fs1, cascade.fs2, rewired, cascade.threshold)
