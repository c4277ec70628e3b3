"""Single-reading inference against the per-rule reference in
`inference.py`: the same readings must give the same fired rules, the same
centroid bits and the same full cascade traces, or NoRuleFiredError on both.
A centroid memo hit must give the bits of a miss. The batch engine's
`centroids` must give the same centroid bits row by row.
"""
import dataclasses
import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import load_bundled
from exact import ExactSubsystem, centroid_bound, tiny
from fuzzgate import core
from fuzzgate.cascade import DEFAULT_EXTERNALS, Cascade
from fuzzgate.core import (CENTROID_MEMO, CHUNK_ROWS, GRID_POINTS, FiredRule,
                           FuzzyRule, FuzzySubsystem, LinguisticVariable,
                           NoRuleFiredError)
from inference import (activate_per_rule, activations_per_rule, fire_per_rule,
                       infer_per_rule)
from oracle import DenseOracle
from tables import TRAP, TRI
from test_telemetry import gen


def bits(values):
    return [float(v).hex() for v in values]


def pair_bits(fired):
    """(rule index, activation) pairs with each activation as its bits."""
    return [(r, float(act).hex()) for r, act in fired]


def outcome(infer, fs, crisp):
    """The fired rules and centroid of `infer`, as bits, or the error."""
    try:
        agg = infer(fs, crisp)
    except NoRuleFiredError as exc:
        return type(exc), str(exc)
    return pair_bits(agg.fired), float(agg.centroid).hex()


def assert_same(fs, crisp):
    assert pair_bits(fs.fire(crisp)) == pair_bits(fire_per_rule(fs, crisp))
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
def variables(draw, name, universe=None):
    """1-4 triangles and trapezoids on `universe`, (lo, hi), or on a drawn
    one; each corner is an end of the universe or any point of it."""
    if universe is None:
        lo = draw(st.sampled_from([-5.0, 0.0, 0.1, 18.5]))
        hi = lo + draw(st.sampled_from([0.3, 1.0, 24.0, 1000.0]))
    else:
        lo, hi = universe
    point = st.one_of(st.sampled_from([lo, hi]),
                      st.floats(lo, hi, allow_subnormal=False))
    terms = []
    for k in range(draw(st.integers(1, 4))):
        shape, n = draw(st.sampled_from([(TRI, 3), (TRAP, 4)]))
        points = sorted(draw(st.lists(point, min_size=n, max_size=n)))
        terms.append((f"t{k}", shape(*points)))
    return LinguisticVariable(name, lo, hi, tuple(terms))


def rule_banks(inputs, output, names, max_antecedents):
    """1-8 rules that conclude the output terms `names`, each of 1 to
    `max_antecedents` antecedents drawn with replacement, so a rule may name
    a variable twice and several rules share a consequent."""
    antecedent = st.sampled_from([(var.name, term) for var in inputs
                                  for term, _ in var.terms])
    rule = st.builds(
        lambda ifs, term: FuzzyRule(tuple(ifs), (output.name, term)),
        st.lists(antecedent, min_size=1, max_size=max_antecedents),
        st.sampled_from(names))
    return st.lists(rule, min_size=1, max_size=8).map(tuple)


@st.composite
def subsystems(draw):
    """1-3 inputs; 1-8 rules (or, in a few examples, none) of 1-3
    antecedents; and, in about half the examples, an output term that no
    rule names."""
    inputs = tuple(draw(variables(f"x{i}")) for i in range(draw(st.integers(1, 3))))
    output = draw(variables("y"))
    names = [term for term, _ in output.terms]
    if len(names) > 1 and draw(st.booleans()):
        names.pop()
    # An empty rule bank, which no reading fires, in a few draws: the top of
    # the range, since Hypothesis draws its low end far more often.
    empty = draw(st.integers(0, 9)) == 9
    rules = () if empty else draw(rule_banks(inputs, output, names, 3))
    return FuzzySubsystem("drawn", inputs, output, rules)


@st.composite
def cascades(draw):
    """FS1 and FS2 of two drawn inputs each, and FS3 whose two inputs, in
    either order, are drawn on their producers' output universes; each node
    with 1-8 rules of 1-2 antecedents, and a threshold inside FS3's
    universe. A draw in which some node has an output term that no grid
    point sees, which `Cascade` refuses, is rejected."""
    def node(name, inputs, output):
        names = [term for term, _ in output.terms]
        return FuzzySubsystem(name, inputs, output,
                              draw(rule_banks(inputs, output, names, 2)))

    fs1 = node("fs1", (draw(variables("t")), draw(variables("h"))),
               draw(variables("a")))
    fs2 = node("fs2", (draw(variables("e")), draw(variables("d"))),
               draw(variables("u")))
    consumed = [draw(variables(fs.output.name, (fs.output.lo, fs.output.hi)))
                for fs in (fs1, fs2)]
    if draw(st.booleans()):
        consumed.reverse()
    fs3 = node("fs3", tuple(consumed), draw(variables("s")))
    assume(not any(fs.unseen_output_terms() for fs in (fs1, fs2, fs3)))
    return Cascade(fs1, fs2, fs3, draw(st.floats(fs3.output.lo, fs3.output.hi)))


def in_support(mf):
    """A point where the term's degree is > 0: a point of its support, or
    the start of its core where the drawn point is an end of the support."""
    a, core, _, d = mf.corners
    return st.floats(a, d).map(lambda x: x if mf(x) > 0.0 else core)


def readings(fs):
    """A crisp value per input: a probe point or any value in the universe.
    In about half the draws, when the subsystem has rules, one rule is
    picked and each input that it reads takes a point inside the support of
    the term it reads there, so that the rule fires unless it reads one
    input twice."""
    anywhere = {var.name: st.one_of(st.sampled_from(probe_points(var)),
                                    st.floats(var.lo, var.hi))
                for var in fs.inputs}

    def aimed(rule):
        inside = dict(anywhere)
        for name, term in rule.antecedents:
            inside[name] = in_support(fs.input_variable(name).term(term))
        return st.fixed_dictionaries(inside)

    drawn = st.fixed_dictionaries(anywhere)
    if not fs.rules:
        return drawn
    return st.one_of(drawn, st.sampled_from(fs.rules).flatmap(aimed))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_drawn_subsystems(data):
    fs = data.draw(subsystems())
    for _ in range(5):
        assert_same(fs, data.draw(readings(fs)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_centroids_stay_in_the_output_universe(data):
    """On drawn subsystems, every centroid of `infer` and of `centroids` lies
    in the output universe, as the exact one does. Where only an end grid
    point x carries mass s, the quotient of the grid sums is (x * s) / s,
    which may round one float past x. So in about half the examples the
    output's first term, which some rule concludes, is made narrower than a
    grid step at an end of the universe."""
    fs = data.draw(subsystems())
    if data.draw(st.booleans()):
        lo, hi = fs.output.lo, fs.output.hi
        width = data.draw(st.floats(0, (hi - lo) / (GRID_POINTS - 1),
                                    exclude_max=True))
        sliver = data.draw(st.sampled_from([TRAP(hi - width, hi, hi, hi),
                                            TRAP(lo, lo, lo, lo + width)]))
        (name, _), *rest = fs.output.terms
        fs = dataclasses.replace(fs, output=dataclasses.replace(
            fs.output, terms=((name, sliver), *rest)))
    rows = [data.draw(readings(fs)) for _ in range(5)]
    lo, hi = fs.output.lo, fs.output.hi
    for crisp in rows:
        try:
            centroid = fs.infer(crisp).centroid
        except NoRuleFiredError:
            continue
        assert lo <= centroid <= hi, crisp
    # Many activations on the batch path: the drawn readings, each input's
    # probe points, cycled to the longest list of them, and seeded uniform
    # readings.
    probes = [probe_points(var) for var in fs.inputs]
    n = max(map(len, probes))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    batch = fs.centroids([np.concatenate([
        [crisp[var.name] for crisp in rows], np.resize(points, n),
        rng.uniform(var.lo, var.hi, 4 * CHUNK_ROWS)])
        for var, points in zip(fs.inputs, probes)])
    assert all(lo <= c <= hi for c in batch[~np.isnan(batch)].tolist())


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


def assert_pieces(var, x):
    """`var.piece(x)` holds x, its alive terms are in term order, and every
    term not alive on it is +0.0 at x."""
    piece = var.piece(x)
    k, point = divmod(piece, 2)
    corners = var._cuts
    if point:
        assert x == corners[k]
    else:
        assert (k == 0 or corners[k - 1] < x) and x < corners[k]
    alive = {term for term, *_ in var._alive[piece]}
    assert [term for term, *_ in var._alive[piece]] == \
        [term for term, _ in var.terms if term in alive]
    for term, mf in var.terms:
        if term not in alive:
            assert float(mf(x)).hex() == "0x0.0p+0", (term, x)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_piece_tables(data):
    """On drawn variables, at each probe point (every corner and its float
    neighbours) and at drawn readings."""
    var = data.draw(variables("x"))
    for x in probe_points(var):
        assert_pieces(var, x)
    for _ in range(5):
        assert_pieces(var, data.draw(st.floats(var.lo, var.hi)))


def row_degree(row, x):
    """A degree row's value at x, as `LinguisticVariable` defines it."""
    _, kind, p, w = row
    if kind == 0:
        return p
    return (x - p) / w if kind == 1 else (p - x) / w


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_degree_rows_give_the_bits_of_mf(data):
    """On drawn variables, at each corner, the floats on both sides of it,
    one drawn point inside each interval between neighbouring cuts or a
    universe end, and -0.0 where 0.0 is a corner: each row of the point's
    piece gives the bits of its term's mf(x)."""
    var = data.draw(variables("x"))
    corners = var._cuts[:-1]
    points = [p for c in corners for p in
              (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))]
    if 0.0 in corners:
        points.append(-0.0)
    for u, v in zip([var.lo, *corners], [*corners, var.hi]):
        if math.nextafter(u, math.inf) < v:
            points.append(data.draw(st.floats(u, v, exclude_min=True,
                                              exclude_max=True)))
    mfs = dict(var.terms)
    for x in filter(var.contains, points):
        for row in var._alive[var.piece(x)]:
            assert float(row_degree(row, x)).hex() == \
                float(mfs[row[0]](x)).hex(), (row, x)


@settings(max_examples=300, deadline=None)
@given(variables("x"))
def test_coverage_gaps_are_exact(var):
    """On drawn variables: the gaps are sorted, disjoint, inside the universe
    and maximal; a corner is in a gap exactly when every term is 0 there;
    every probe point in a gap has every term at 0; and every point that a
    1,000-point scan finds in no term lies in a gap."""
    gaps = var.coverage_gaps()
    assert all(var.lo <= first <= last <= var.hi for first, last in gaps)
    assert all(last < first for (_, last), (first, _) in zip(gaps, gaps[1:]))

    def in_gap(x):
        return any(first <= x <= last for first, last in gaps)

    for first, last in gaps:  # the floats just outside a gap are covered
        for x in (math.nextafter(first, -math.inf), math.nextafter(last, math.inf)):
            assert not var.contains(x) or var._alive[var.piece(x)], x
    for corner in var._cuts[:-1]:
        assert in_gap(corner) == all(mf(corner) == 0.0 for _, mf in var.terms)
    for x in probe_points(var):
        if in_gap(x):
            assert all(mf(x) == 0.0 for _, mf in var.terms), x
    xs = np.linspace(var.lo, var.hi, 1000)  # the reference: a sampled scan
    dead = ~np.any([mf.sample(xs) > 0.0 for _, mf in var.terms], axis=0)
    for x in xs[dead].tolist():
        assert in_gap(x), x


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fire_gives_the_rules_with_activation_above_zero(data):
    """On drawn subsystems, `fire` gives the (rule, activation) pairs of the
    per-rule reference whose activation is > 0, in rule-bank order."""
    fs = data.draw(subsystems())
    for _ in range(5):
        crisp = data.draw(readings(fs))
        assert pair_bits(fs.fire(crisp)) == pair_bits(fire_per_rule(fs, crisp)), \
            crisp


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_activate_gives_the_records_and_strength_row_of_the_reference(data):
    """On drawn subsystems, `activate` appends one record per rule of the
    per-rule reference, made from the rule's head, and returns each output
    term's largest activation, as `activate_per_rule` does, bit for bit."""
    fs = data.draw(subsystems())
    heads = [("n", rule.antecedents, rule.consequent) for rule in fs.rules]
    for _ in range(5):
        crisp = data.draw(readings(fs))
        xs = [crisp[var.name] for var in fs.inputs]
        got, want = [], []
        assert bits(fs.activate(xs, heads, got)) == \
            bits(activate_per_rule(fs, xs, heads, want)), crisp
        assert all(type(f) is FiredRule for f in got)
        assert [(*f[:3], f.activation.hex()) for f in got] == \
            [(*f[:3], f.activation.hex()) for f in want], crisp


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_reference(data):
    """`infer` and `centroids` against exact arithmetic at the engine's grid
    (`exact.py`): the same rules fire, each activation within the three
    roundings of a degree and each centroid within `centroid_bound`. A
    reading with an exact activation below the smallest normal float may
    fire less on the engine, and is not compared."""
    fs = data.draw(subsystems())
    crisp = data.draw(readings(fs))
    exact = ExactSubsystem(fs)
    fired = exact.fire(crisp)
    if tiny(fired):
        return
    got = fs.fire(crisp)
    assert [r for r, _ in got] == [r for r, _ in fired], crisp
    for (_, act), (_, want) in zip(got, fired):
        assert abs(Fraction(act) - want) <= 3.01 * 2**-53 * want, crisp
    centroid = exact.centroid(fired)
    batch = fs.centroids([np.array([crisp[var.name]]) for var in fs.inputs])
    if centroid is None:
        with pytest.raises(NoRuleFiredError):
            fs.infer(crisp)
        assert math.isnan(batch[0])
        return
    bound = centroid_bound(fs)
    assert abs(Fraction(fs.infer(crisp).centroid) - centroid) <= bound, crisp
    assert abs(Fraction(float(batch[0])) - centroid) <= bound, crisp


def one_term(lo, hi, mf):
    """A subsystem whose one rule reads the one term of input x."""
    x = LinguisticVariable("x", lo, hi, (("t", mf),))
    return FuzzySubsystem("one", (x,), LinguisticVariable(
        "y", 0, 1, (("c", TRI(0, 0.5, 1)),)), (FuzzyRule((("x", "t"),), ("y", "c")),))


def fired_where(fs, xs):
    """Each reading whose `fire` fired the rule, after checking its piece,
    and `fire` and `infer` against the per-rule reference, there."""
    fired = []
    for x in xs:
        assert_pieces(fs.inputs[0], x)
        assert_same(fs, {"x": x})
        if fs.fire({"x": x}):
            fired.append(x)
    return fired


def neighbours(*points):
    """Each point with its float neighbours, in order."""
    return [float(q) for p in points
            for q in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


def test_spike_term_fires_only_at_its_point():
    fs = one_term(0, 10, TRAP(5, 5, 5, 5))
    assert fs.inputs[0]._cuts == (5.0, math.inf)
    assert fired_where(fs, neighbours(0.0, 5.0, 10.0)[1:-1]) == [5.0]


def test_vertical_edges():
    """A term whose rising and falling edges are vertical is 1 on its whole
    support, ends included, and 0 just outside it."""
    fs = one_term(0, 10, TRAP(2, 2, 5, 5))
    assert fired_where(fs, neighbours(0.0, 2.0, 3.5, 5.0, 10.0)[1:-1]) == \
        neighbours(2.0, 3.5, 5.0)[1:-1]


def test_term_at_the_top_of_the_float_range():
    """A universe whose corners' midpoints overflow a float: the pieces are
    decided from the corners, never from a midpoint."""
    assert not math.isfinite((1e308 + 1.7e308) / 2)
    fs = one_term(0, 1.7e308, TRI(1e308, 1.5e308, 1.7e308))
    xs = neighbours(0.0, 1e308, 1.2e308, 1.5e308, 1.7e308)[1:-1]
    assert fired_where(fs, xs) == xs[4:-1]


def test_edge_that_underflows_fires_nothing():
    """5e-324 lies on the rising edge of (0, 1e10, 1e10, 2e10), so the term
    is alive on its piece, but its degree there underflows to +0.0: the rule
    does not fire, and `infer` raises NoRuleFiredError as the per-rule
    reference does."""
    fs = one_term(0, 2e10, TRI(0, 1e10, 2e10))
    x = 5e-324
    assert [term for term, *_ in fs.inputs[0]._alive[fs.inputs[0].piece(x)]] == \
        [term for term, _ in fs.inputs[0].terms]
    assert fs.fire({"x": x}) == []
    assert bits(activations_per_rule(fs, {"x": x})) == ["0x0.0p+0"]
    for infer in (FuzzySubsystem.infer, infer_per_rule):
        with pytest.raises(NoRuleFiredError):
            infer(fs, {"x": x})
    assert fired_where(fs, [0.0, x, 1e-300, 1e10, 2e10]) == [1e-300, 1e10]


def test_tables_take_no_part_in_equality_hash_or_repr(cascade):
    """The piece tables, rule masks, the cascade's per-rule record heads and
    its FS3 input order are built from the other fields: equal fields give
    equal objects with equal hashes and the same repr as without them, and
    `dataclasses.replace` builds them again."""
    var = GAPPED.inputs[0]
    copy = dataclasses.replace(var)
    assert copy == var and hash(copy) == hash(var) == \
        hash((var.name, var.lo, var.hi, var.terms, var.unit))
    assert repr(var) == (f"LinguisticVariable(name={var.name!r}, lo={var.lo!r}, "
                         f"hi={var.hi!r}, terms={var.terms!r}, unit={var.unit!r})")
    fs = dataclasses.replace(GAPPED)
    assert fs == GAPPED and hash(fs) == \
        hash((GAPPED.name, GAPPED.inputs, GAPPED.output, GAPPED.rules))
    assert repr(fs) == (f"FuzzySubsystem(name={fs.name!r}, inputs={fs.inputs!r}, "
                        f"output={fs.output!r}, rules={fs.rules!r})")
    narrowed = dataclasses.replace(var, terms=var.terms[1:])
    assert narrowed != var
    assert narrowed._cuts == (2.0, 4.0, 5.0, 6.0, 7.0, 8.0, math.inf)
    assert [term for term, *_ in narrowed._alive[3]] == ["mid"]  # at 4.0
    reversed_rules = dataclasses.replace(GAPPED, rules=GAPPED.rules[::-1])
    at_one = GAPPED.inputs[0].piece(1.0)
    assert GAPPED._rule_masks[0][at_one] == 0b001
    assert reversed_rules._rule_masks[0][at_one] == 0b100
    assert reversed_rules.fire({"x": 1.0}) == [(2, GAPPED.fire({"x": 1.0})[0][1])]
    copy = dataclasses.replace(cascade)
    fields = (cascade.fs1, cascade.fs2, cascade.fs3, cascade.threshold)
    assert copy == cascade and hash(copy) == hash(cascade) == hash(fields)
    assert repr(cascade) == (f"Cascade(fs1={cascade.fs1!r}, fs2={cascade.fs2!r}, "
                             f"fs3={cascade.fs3!r}, threshold={cascade.threshold!r})")
    assert (copy._heads, copy._fs3_order) == (cascade._heads, cascade._fs3_order)
    assert cascade._fs3_order == (0, 1)
    assert cascade._heads[2][0] == ("fs3", cascade.fs3.rules[0].antecedents,
                                    cascade.fs3.rules[0].consequent)
    fs3 = cascade.fs3
    swapped = dataclasses.replace(cascade, fs3=dataclasses.replace(
        fs3, inputs=fs3.inputs[::-1], rules=fs3.rules[::-1]))
    assert swapped._fs3_order == (1, 0)
    assert swapped._heads[2] == cascade._heads[2][::-1]
    assert swapped._heads[:2] == cascade._heads[:2]
    reading = {"temperature": 20.5, "humidity": 0.37,
               "appliance_energy": 90.0, "time_of_day": 7.5}
    trace, other = cascade.evaluate(reading), swapped.evaluate(reading)
    assert other.score == trace.score
    assert sorted(other.fired) == sorted(trace.fired)


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
    calls = []

    def counted(fs, *args):
        calls.append(fs.name)
        return activate_per_rule(fs, *args)

    monkeypatch.setattr(FuzzySubsystem, "activate", counted)
    assert traces == [trace_bits(cascade.evaluate(x, clamp=True))
                      for x in inputs]
    # The reference ran at every node of every reading.
    assert calls == [fs.name for fs in cascade.nodes.values()] * len(inputs)
