"""Single-reading inference against the per-rule reference in
`inference.py`: the same readings must give the same activations, the same
centroid bits and the same full cascade traces, or NoRuleFiredError on both.
A centroid memo hit must give the bits of a miss. The batch engine's
`centroids` must give the same centroid bits row by row.
"""
import dataclasses
import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_bundled
from fuzzgate import core
from fuzzgate.cascade import DEFAULT_EXTERNALS
from fuzzgate.core import (CENTROID_MEMO, CHUNK_ROWS, FuzzyRule, FuzzySubsystem,
                           LinguisticVariable, NoRuleFiredError)
from inference import activations_per_rule, infer_per_rule
from oracle import DenseOracle
from tables import TRAP, TRI
from test_telemetry import gen


def bits(values):
    return [float(v).hex() for v in values]


def outcome(infer, fs, crisp):
    """The activations and centroid of `infer`, as bits, or the error."""
    try:
        agg = infer(fs, crisp)
    except NoRuleFiredError as exc:
        return type(exc), str(exc)
    return bits(agg.activations), float(agg.centroid).hex()


def assert_same(fs, crisp):
    assert bits(fs.activations(crisp)) == bits(activations_per_rule(fs, crisp))
    assert outcome(FuzzySubsystem.infer, fs, crisp) == \
        outcome(infer_per_rule, fs, crisp), crisp


def probe_points(var):
    """Both universe bounds and each breakpoint (so every core point) of the
    variable's terms with its float neighbours, inside the universe."""
    points = {var.lo, var.hi}
    for _, mf in var.terms:
        for p in mf.corners:
            points |= {np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)}
    return sorted(float(p) for p in points if var.lo <= p <= var.hi)


@st.composite
def variables(draw, name):
    lo = draw(st.sampled_from([-5.0, 0.0, 0.1, 18.5]))
    hi = lo + draw(st.sampled_from([0.3, 1.0, 24.0, 1000.0]))
    point = st.one_of(st.sampled_from([lo, hi]),
                      st.floats(lo, hi, allow_subnormal=False))
    terms = []
    for k in range(draw(st.integers(1, 4))):
        shape, n = draw(st.sampled_from([(TRI, 3), (TRAP, 4)]))
        points = sorted(draw(st.lists(point, min_size=n, max_size=n)))
        terms.append((f"t{k}", shape(*points)))
    return LinguisticVariable(name, lo, hi, tuple(terms))


@st.composite
def subsystems(draw):
    """1-3 inputs; 0-8 rules of 1-3 antecedents drawn with replacement, so a
    rule may name a variable twice and several rules share a consequent;
    and, in about half the examples, an output term that no rule names."""
    inputs = tuple(draw(variables(f"x{i}")) for i in range(draw(st.integers(1, 3))))
    output = draw(variables("y"))
    names = [term for term, _ in output.terms]
    if len(names) > 1 and draw(st.booleans()):
        names.pop()
    antecedent = st.sampled_from([(var.name, term) for var in inputs
                                  for term, _ in var.terms])
    rules = draw(st.lists(st.builds(
        lambda antecedents, term: FuzzyRule(tuple(antecedents), ("y", term)),
        st.lists(antecedent, min_size=1, max_size=3), st.sampled_from(names)),
        max_size=8))
    return FuzzySubsystem("drawn", inputs, output, tuple(rules))


def readings(fs):
    """A crisp value per input: a probe point or any value in the universe."""
    return st.fixed_dictionaries({var.name: st.one_of(
        st.sampled_from(probe_points(var)), st.floats(var.lo, var.hi))
        for var in fs.inputs})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_drawn_subsystems(data):
    fs = data.draw(subsystems())
    for _ in range(5):
        assert_same(fs, data.draw(readings(fs)))


def poisoned(empty):
    """`empty` whose arrays start at 7, as reused memory may: an engine that
    leaves a point of its buffers unwritten reads 7 there."""
    def allocate(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(7)
        return out
    return allocate


def assert_batch_same(fs, columns):
    """`centroids` against `infer_per_rule` row by row: the same centroid
    bits where a rule fired, NoRuleFiredError where none did."""
    with mock.patch.object(np, "empty", poisoned(np.empty)), \
            mock.patch.object(np, "empty_like", poisoned(np.empty_like)):
        centroid = fs.centroids(columns)
    for row, c in enumerate(centroid.tolist()):
        crisp = {var.name: float(xs[row]) for var, xs in zip(fs.inputs, columns)}
        try:
            expected = float(infer_per_rule(fs, crisp).centroid).hex()
        except NoRuleFiredError:
            expected = None
        assert (None if math.isnan(c) else c.hex()) == expected, crisp


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_drawn_subsystems_batch(data):
    """Two to three blocks of rows per drawn subsystem: each input's probe
    points and drawn readings, and uniform draws, in a seeded order."""
    fs = data.draw(subsystems())
    drawn = [data.draw(readings(fs)) for _ in range(3)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = 2 * CHUNK_ROWS + 1 + data.draw(st.integers(0, CHUNK_ROWS))
    columns = []
    for var in fs.inputs:
        points = np.array(probe_points(var) + [r[var.name] for r in drawn])
        xs = np.where(rng.random(n) < 0.5, rng.choice(points, n),
                      rng.uniform(var.lo, var.hi, n))
        columns.append(np.clip(xs, var.lo, var.hi))
    assert_batch_same(fs, columns)


RAMPS = LinguisticVariable("x", 0, 1, (("down", TRI(0, 0, 1)),
                                       ("mid", TRI(0, 0.5, 1)),
                                       ("up", TRI(0, 1, 1))))
OUTPUT_SHAPES = {
    "three_overlapping": (TRI(0, 5, 10), TRAP(2, 4, 6, 8), TRI(3, 6, 9)),
    "two_at_full_height": (TRAP(2, 2, 6, 6), TRAP(2, 2, 6, 6)),
    "gap": (TRI(0, 1, 3), TRI(6, 8, 10)),
    "narrower_than_a_step": (TRI(4.001, 4.002, 4.003), TRI(0, 5, 10)),
}


@pytest.mark.parametrize("shape", sorted(OUTPUT_SHAPES))
def test_batch_output_shapes(shape):
    """Output terms on [0, 10] (grid step 0.01), term k concluded from a
    ramp of x, so the terms' strengths differ row by row, over more than
    three blocks of rows."""
    terms = OUTPUT_SHAPES[shape]
    ramps = ("down", "up") if len(terms) == 2 else ("down", "mid", "up")
    output = LinguisticVariable("y", 0, 10, tuple(
        (f"t{k}", mf) for k, mf in enumerate(terms)))
    fs = FuzzySubsystem(shape, (RAMPS,), output, tuple(
        FuzzyRule((("x", ramp),), ("y", f"t{k}")) for k, ramp in enumerate(ramps)))
    xs = np.concatenate([np.linspace(0, 1, 3 * CHUNK_ROWS + 5),
                         probe_points(RAMPS)])
    assert_batch_same(fs, [xs])


def probe_grid(fs):
    """Every combination of the inputs' probe points."""
    for values in itertools.product(*map(probe_points, fs.inputs)):
        yield {var.name: x for var, x in zip(fs.inputs, values)}


@pytest.mark.parametrize("node", ["fs1", "fs2", "fs3"])
def test_bundled_subsystems(request, node):
    fs = request.getfixturevalue(node)
    for crisp in probe_grid(fs):
        assert_same(fs, crisp)


@pytest.mark.parametrize("node", ["fs1", "fs2", "fs3"])
def test_one_clip_per_fired_output_term(request, node):
    """`infer` on an empty memo clips each output term with strength > 0
    once, in term order, and no other term: several bundled rules share each
    consequent. A second `infer` of the same strength row clips nothing."""
    fs = request.getfixturevalue(node)
    terms = [term for term, _ in fs.output.terms]
    for crisp in probe_grid(fs):
        strength = dict.fromkeys(terms, 0.0)
        for rule, act in zip(fs.rules, activations_per_rule(fs, crisp)):
            strength[rule.consequent[1]] = max(strength[rule.consequent[1]], act)
        fs._centroid.cache_clear()
        with mock.patch.object(np, "minimum", wraps=np.minimum) as clip:
            fs.infer(crisp)
        clipped = [args[1] for args, _ in clip.call_args_list]
        expected = [samples for term, samples
                    in zip(terms, fs._consequent_samples) if strength[term] > 0.0]
        assert len(clipped) == len(expected), crisp
        assert all(a is b for a, b in zip(clipped, expected)), crisp
        with mock.patch.object(np, "minimum", wraps=np.minimum) as clip:
            fs.infer(crisp)
        assert not clip.called, crisp


@pytest.mark.parametrize("node", ["fs1", "fs2", "fs3"])
def test_wide_stage_clips_only_fired_terms(request, node):
    """`centroids` clips an output term only in a block of rows that all gave
    it a strength > 0: every combination of the inputs' probe points, then
    seeded uniform readings."""
    fs = request.getfixturevalue(node)
    rng = np.random.default_rng(7)
    grid = list(probe_grid(fs))
    columns = [np.concatenate([[crisp[var.name] for crisp in grid],
                               rng.uniform(var.lo, var.hi, 500)])
               for var in fs.inputs]
    with mock.patch.object(np, "minimum", wraps=np.minimum) as clip:
        fs.centroids(columns)
    # The narrow stage's minimums take 1-D degree columns; the wide stage
    # clips with a (rows, 1) strength column.
    strengths = [args[0] for args, _ in clip.call_args_list if np.ndim(args[0]) == 2]
    assert strengths
    assert all((s > 0.0).all() for s in strengths)


#: Input x on [0, 10] whose terms fire {t0}, {t0, t1}, {t1}, {t1, t2}, {t2}
#: and, from 8 up, nothing.
GAPPED = FuzzySubsystem(
    "gapped", (LinguisticVariable("x", 0, 10, (("lo", TRI(0, 0, 4)),
                                               ("mid", TRI(2, 4, 6)),
                                               ("hi", TRI(5, 7, 8)))),),
    LinguisticVariable("y", 0, 10, (("t0", TRI(0, 2, 5)),
                                    ("t1", TRAP(2, 4, 6, 8)),
                                    ("t2", TRI(6, 9, 10)))),
    tuple(FuzzyRule((("x", term),), ("y", f"t{k}"))
          for k, term in enumerate(("lo", "mid", "hi"))))


@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
def test_fired_term_groups_across_chunks(chunk_rows):
    """Rows whose fired terms alternate, with seven rows of one set (a group
    over several blocks) and rows that fire nothing between the others, give
    the same bits whatever the block size."""
    xs = np.array([1.0, 9.0, 3.0, 0.5, 8.5, 4.5, 1.5, 5.5, 0.25, 10.0, 7.0,
                   1.75, 3.5, 0.75, 2.0, 9.5, 6.5])
    expected = GAPPED.centroids([xs]).tobytes()
    with mock.patch.object(core, "CHUNK_ROWS", chunk_rows):
        assert GAPPED.centroids([xs]).tobytes() == expected
        assert_batch_same(GAPPED, [xs])


def cold_and_warm(fs, rows):
    """The `outcome` of each reading on an empty memo, then of all the
    readings on the memo they filled, twice."""
    cold = []
    for crisp in rows:
        fs._centroid.cache_clear()
        cold.append(outcome(FuzzySubsystem.infer, fs, crisp))
    warm = [[outcome(FuzzySubsystem.infer, fs, crisp) for crisp in rows]
            for _ in range(2)]
    return cold, warm


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_memo_hit_gives_the_bits_of_a_miss(data):
    """On drawn subsystems, a warm memo gives what a cold one gives and what
    the per-rule reference gives: the same bits, or NoRuleFiredError on
    every repeat of a reading that fires nothing."""
    fs = data.draw(subsystems())
    rows = [data.draw(readings(fs)) for _ in range(6)]
    cold, warm = cold_and_warm(fs, rows)
    assert cold == [outcome(infer_per_rule, fs, crisp) for crisp in rows]
    assert warm == [cold, cold]
    fired = sum(not isinstance(o[0], type) for o in cold)
    assert fs._centroid.cache_info().hits >= fired  # the second warm pass


@functools.cache
def bundled_with_oracle(node):
    fs = load_bundled(node)
    return fs, DenseOracle(fs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["fs1", "fs2", "fs3"]), st.data())
def test_memo_against_dense_oracle(node, data):
    """On the bundled subsystems, cold and warm centroids are within the
    acceptance tolerance (1e-3 of the output span) of the dense oracle.
    Drawn subsystems are not held to it: at readings on or next to a term
    corner, the oracle and the engine may disagree on whether a rule
    fired."""
    fs, oracle = bundled_with_oracle(node)
    rows = [data.draw(readings(fs)) for _ in range(4)]
    cold, warm = cold_and_warm(fs, rows)
    assert warm == [cold, cold]
    tolerance = 1e-3 * (fs.output.hi - fs.output.lo)
    for crisp, (_, centroid) in zip(rows, cold):
        assert abs(float.fromhex(centroid) - oracle.crisp_output(crisp)) <= \
            tolerance, crisp


def test_no_rule_fired_on_every_repeat():
    """The memo keeps no exception: a reading that fires nothing raises on
    each call, before and after a fired reading fills the memo."""
    for _ in range(3):
        with pytest.raises(NoRuleFiredError, match="'y'"):
            GAPPED.infer({"x": 9.0})
        GAPPED.infer({"x": 1.0})


def test_memo_is_bounded():
    """More distinct strength rows than the bound fill the memo to the bound
    and no further; a row evicted and computed again gives the same bits."""
    fs = dataclasses.replace(GAPPED)  # an empty memo
    xs = np.linspace(0.0, 7.5, 2 * CENTROID_MEMO + 1).tolist()
    first = [fs.infer({"x": x}).centroid for x in xs[:CENTROID_MEMO]]
    sizes = []
    for x in xs[CENTROID_MEMO:]:
        fs.infer({"x": x})
        sizes.append(fs._centroid.cache_info().currsize)
    assert max(sizes) == CENTROID_MEMO
    assert fs._centroid.cache_info().misses == len(xs)  # all distinct rows
    assert bits(fs.infer({"x": x}).centroid for x in xs[:CENTROID_MEMO]) == \
        bits(first)


def test_memo_belongs_to_its_subsystem():
    """Two subsystems whose readings give equal strength rows but whose
    output terms differ share no memo entry. The memo takes no part in
    equality, hashing or repr, and a replaced subsystem starts empty."""
    shifted = dataclasses.replace(GAPPED, output=LinguisticVariable(
        "y", 0, 10, tuple((term, TRAP(*(min(p + 1, 10) for p in mf.corners)))
                          for term, mf in GAPPED.output.terms)))
    copy = dataclasses.replace(GAPPED)
    assert copy == GAPPED and hash(copy) == hash(GAPPED)
    assert "_centroid" not in repr(GAPPED)
    assert copy._centroid.cache_info().currsize == 0
    for x in (1.0, 3.0, 5.5, 1.0, 3.0):
        assert bits(fs.infer({"x": x}).centroid for fs in (GAPPED, shifted)) == \
            bits(infer_per_rule(fs, {"x": x}).centroid for fs in (GAPPED, shifted))
    assert GAPPED.infer({"x": 1.0}).centroid != shifted.infer({"x": 1.0}).centroid


def trace_bits(trace):
    """A `DecisionTrace` with every float as its bits."""
    return (bits(trace.inputs.values()), trace.clamped,
            sorted((name, float(v).hex()) for name, v in trace.intermediates.items()),
            float(trace.score).hex(), trace.label,
            [(f.node, f.antecedents, f.consequent, float(f.activation).hex())
             for f in trace.fired])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("writer", sorted(gen.WRITERS))
def test_cascade_traces(cascade, writer, seed, tmp_path, monkeypatch):
    expected = gen.WRITERS[writer](tmp_path / "data.csv", seed)
    inputs = [dict(zip(DEFAULT_EXTERNALS, values))
              for values in expected if values is not None]
    traces = [trace_bits(cascade.evaluate(x, clamp=True)) for x in inputs]
    monkeypatch.setattr(FuzzySubsystem, "infer", infer_per_rule)
    assert traces == [trace_bits(cascade.evaluate(x, clamp=True))
                      for x in inputs]
