import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzgate.core import (CHUNK_ROWS, FuzzyRule,
                           FuzzySubsystem, GRID_POINTS, LinguisticVariable,
                           MembershipFunction, NoRuleFiredError,
                           OutOfUniverseError, UnknownTermError, _grid_runs)
from fuzzgate.dsl import parse, validate
from tables import TRAP, TRI


class TestMembershipDegree:
    def test_triangle_peak(self):
        assert TRI(18.5, 20, 21.5)(20.0) == 1.0

    def test_triangle_support_edge_is_zero(self):
        assert TRI(18.5, 20, 21.5)(18.5) == 0.0
        assert TRI(18.5, 20, 21.5)(21.5) == 0.0

    def test_triangle_linear_midpoint(self):
        assert TRI(18.5, 20, 21.5)(19.25) == 0.5

    def test_trapezoid_core_and_slopes(self):
        mf = TRAP(0, 10, 20, 40)
        assert mf(10) == 1.0 and mf(20) == 1.0 and mf(15) == 1.0
        assert mf(5) == 0.5
        assert mf(30) == 0.5
        assert mf(-1) == 0.0 and mf(41) == 0.0

    def test_degenerate_shoulder_saturates_at_edge(self):
        # vertical left edge: degree jumps to 1 at the universe boundary
        mf = TRAP(0, 0, 25, 75)
        assert mf(0) == 1.0
        assert mf(25) == 1.0
        assert mf(50) == 0.5
        assert mf(75) == 0.0

    def test_non_monotone_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            TRI(5, 3, 7)
        with pytest.raises(ValueError):
            TRAP(0, 5, 4, 10)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            MembershipFunction((0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            MembershipFunction((0.0, 1.0, 2.0, 3.0, 4.0))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
           st.floats(-2e6, 2e6))
    def test_triangle_degree_bounded(self, pts, x):
        a, b, c = sorted(pts)
        mf = TRI(a, b, c)
        assert 0.0 <= mf(x) <= 1.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
           st.floats(-2e6, 2e6))
    def test_trapezoid_degree_bounded(self, pts, x):
        mf = TRAP(*sorted(pts))
        assert 0.0 <= mf(x) <= 1.0
        assert mf(mf.corners[1]) == 1.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
    def test_support_edges_zero_when_nondegenerate(self, pts):
        a, b, c = sorted(pts)
        mf = TRI(a, b, c)
        if a < b:
            assert mf(a) == 0.0
        if b < c:
            assert mf(c) == 0.0
        assert mf(b) == 1.0

    def test_sample_matches_scalar(self):
        for mf in (TRI(18.5, 20, 21.5), TRAP(0, 0, 25, 75),
                   TRAP(21.5, 23, 100, 100)):
            xs = np.linspace(-5, 105, 777)
            expected = np.array([mf(float(x)) for x in xs])
            assert np.array_equal(mf.sample(xs), expected)


def probe_points(mf, lo, hi):
    """Each corner, its float neighbours and both universe bounds."""
    points = [lo, hi]
    for p in mf.corners:
        points += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
    return np.array(points)


def defined(shape, *points):
    """The function that the line `term t <shape> <points>` of a definition
    file builds, on a universe of [-1, 22]."""
    subsystem, diags = validate(parse(
        f"system s\ninput x universe -1 22\n"
        f"  term t {shape} {' '.join(map(repr, map(float, points)))}\n"
        f"output y universe 0 1\n  term u triangle 0 0.5 1\n"
        f"rule if x is t then y is u\n")[0])
    assert subsystem is not None, [d.format() for d in diags]
    return subsystem.inputs[0].term("t")


def bundled_terms(fs1, fs2, fs3):
    return [(var, mf) for fs in (fs1, fs2, fs3)
            for var in fs.inputs + (fs.output,) for _, mf in var.terms]


class TestSampleEqualsCall:
    """`sample` is the array form of `__call__`: equal bit for bit."""

    @staticmethod
    def assert_bitwise(mf, xs):
        expected = np.array([mf(x) for x in xs.tolist()])
        assert mf.sample(xs).tobytes() == expected.tobytes(), mf

    def test_bundled_terms(self, fs1, fs2, fs3):
        terms = bundled_terms(fs1, fs2, fs3)
        assert len(terms) == 35
        for var, mf in terms:
            grid = np.linspace(var.lo, var.hi, GRID_POINTS)
            self.assert_bitwise(mf, np.concatenate(
                [grid, probe_points(mf, var.lo, var.hi)]))

    @pytest.mark.parametrize("mf", [
        TRAP(0, 0, 3, 5), TRAP(3, 5, 10, 10), TRAP(2, 2, 2, 2), TRAP(2, 4, 4, 6),
        TRAP(1, 1, 4, 4), TRI(5, 5, 5), TRI(0, 0, 5), TRI(0, 5, 5),
        TRI(0.1, 0.2, 0.30000000000000004),
    ], ids=repr)
    def test_degenerate_shapes(self, mf):
        xs = np.concatenate([np.linspace(-1, 11, 1001),
                             probe_points(mf, -1.0, 11.0)])
        self.assert_bitwise(mf, xs)


    @pytest.mark.parametrize("a, b, c", [
        (18.5, 20, 21.5), (0, 0, 5), (0, 5, 5), (5, 5, 5),
        (0.1, 0.2, 0.30000000000000004)])
    def test_triangle_is_trapezoid_with_one_point_core(self, a, b, c):
        """A definition file's `triangle a b c` builds the same function as
        its `trapezoid a b b c`."""
        tri, trap = defined("triangle", a, b, c), defined("trapezoid", a, b, b, c)
        assert tri == trap == TRAP(a, b, b, c)
        xs = np.concatenate([np.linspace(-1, 22, 1001),
                             probe_points(tri, -1.0, 22.0)])
        assert tri.sample(xs).tobytes() == trap.sample(xs).tobytes()
        assert np.array([tri(x) for x in xs.tolist()]).tobytes() == \
            np.array([trap(x) for x in xs.tolist()]).tobytes()
        assert (tri.corners, tri.support) == ((a, b, b, c), (a, c))


class TestCentroids:
    """`FuzzySubsystem.centroids` is the batch form of `infer`'s centroid."""

    def test_rows_equal_evaluate(self, fs1):
        temperature, humidity = fs1.inputs
        t = np.concatenate([np.linspace(temperature.lo, temperature.hi, 97),
                            [p for _, mf in temperature.terms
                             for p in probe_points(mf, temperature.lo,
                                                   temperature.hi)]])
        t = t[(temperature.lo <= t) & (t <= temperature.hi)]
        h = np.resize(np.linspace(humidity.lo, humidity.hi, 31), len(t))
        centroid = fs1.centroids((t, h))
        assert not np.isnan(centroid).any()
        expected = [fs1.infer({temperature.name: a, humidity.name: b}).centroid
                    for a, b in zip(t.tolist(), h.tolist())]
        assert centroid.tolist() == expected

    def test_no_rule_fired_is_nan(self):
        fs = tiny_subsystem()
        centroid = fs.centroids((np.array([0.25, 1.0, 0.0]),))
        assert np.isnan(centroid).tolist() == [False, True, False]
        assert math.isnan(centroid[1])
        assert centroid[0] == fs.infer({"x": 0.25}).centroid

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan, math.inf])
    def test_out_of_universe_raises(self, bad):
        with pytest.raises(OutOfUniverseError) as exc:
            tiny_subsystem().centroids((np.array([0.5, bad, 0.2]),))
        assert exc.value.variable == "x"
        assert exc.value.value == bad or math.isnan(bad)

    def test_more_rows_than_a_chunk(self):
        fs = tiny_subsystem()
        xs = np.linspace(0, 1, 3 * CHUNK_ROWS + 5)
        centroid = fs.centroids((xs,))
        for x, c in zip(xs.tolist(), centroid.tolist()):
            if not math.isnan(c):
                assert c == fs.infer({"x": x}).centroid
            else:
                with pytest.raises(NoRuleFiredError):
                    fs.infer({"x": x}).centroid

    @staticmethod
    def bits(xs):
        return np.asarray(xs, dtype=float).view(np.uint64).tolist()

    def test_rows_do_not_depend_on_their_neighbours(self, fs1):
        _, humidity = fs1.inputs
        rng = np.random.default_rng(7)
        n = 32 * CHUNK_ROWS + 5
        t = rng.uniform(15.0, 25.0, n)
        h = rng.uniform(humidity.lo, humidity.hi, n)
        t[::7] = 10.0  # plateau rows share their strength rows
        centroid = fs1.centroids((t, h))
        fired = ~np.isnan(centroid)
        reversed_centroid = fs1.centroids((t[::-1], h[::-1]))
        reversed_fired = ~np.isnan(reversed_centroid)
        assert self.bits(reversed_centroid[::-1]) == self.bits(centroid)
        assert reversed_fired[::-1].tolist() == fired.tolist()
        repeated = fs1.centroids((np.repeat(t, 3), np.repeat(h, 3)))
        repeated_fired = ~np.isnan(repeated)
        assert self.bits(repeated) == self.bits(np.repeat(centroid, 3))
        assert repeated_fired.tolist() == np.repeat(fired, 3).tolist()

    def test_different_inputs_with_equal_strengths_equal_evaluate(self, fs1):
        # On a term's plateau, or outside every support but one, readings
        # give equal degrees, so the rows share one strength row.
        temperature, humidity = fs1.inputs
        t = np.array([0.0, 5.0, 18.5, 23.0, 60.0, 100.0, 19.0, 21.0])
        h = np.array([0.0, 0.1, 0.3, 0.8, 1.0, 0.2, 0.33, 0.37])
        t, h = (np.ravel(grid) for grid in np.meshgrid(t, h))
        centroid = fs1.centroids((t, h))
        assert not np.isnan(centroid).any()
        expected = [fs1.infer({temperature.name: a, humidity.name: b}).centroid
                    for a, b in zip(t.tolist(), h.tolist())]
        assert self.bits(centroid) == self.bits(expected)
        assert len(set(expected)) < len(expected)

    def test_rows_differing_in_one_term_strength_stay_apart(self):
        # Rows 0 and 1 differ only in the strength of `left`, rows 0 and 2
        # only in that of `right`; both terms are asymmetric, so each
        # strength moves the centroid. Merging either pair gives a wrong row.
        falling = (("low", TRI(0, 0, 1)), ("high", TRI(0, 1, 1)))
        x = LinguisticVariable("x", 0, 1, falling)
        y = LinguisticVariable("y", 0, 1, falling)
        out = LinguisticVariable("z", 0, 1, (("left", TRI(0, 0.1, 0.7)),
                                             ("right", TRI(0.3, 0.9, 1))))
        fs = FuzzySubsystem("pair", (x, y), out, (
            FuzzyRule((("x", "low"),), ("z", "left")),
            FuzzyRule((("y", "low"),), ("z", "right"))))
        xs, ys = np.array([0.2, 0.4, 0.2]), np.array([0.5, 0.5, 0.7])
        centroid = fs.centroids((xs, ys))
        expected = [fs.infer({"x": a, "y": b}).centroid
                    for a, b in zip(xs.tolist(), ys.tolist())]
        assert len(set(expected)) == 3
        assert self.bits(centroid) == self.bits(expected)

    @pytest.mark.parametrize("node, plans", [
        ("fs1", ["cool", "cool+medium", "medium", "medium+warm", "warm",
                 "warm+hot", "hot"]),
        ("fs2", ["low", "low+medium", "medium", "medium+high", "high",
                 "high+v.high", "v.high"]),
        ("fs3", ["send", "send+not_send", "not_send"])])
    def test_segments_of_bundled_nodes(self, request, node, plans):
        """The runs that `centroids` takes when every term fired tile the
        grid in order, each with the terms > 0 on it."""
        fs = request.getfixturevalue(node)
        terms = [term for term, _ in fs.output.terms]
        segments = _grid_runs(list(fs._consequent_samples))
        runs = [run for run, _ in segments]
        assert [run.start for run in runs] == \
            [0] + [run.stop for run in runs[:-1]]
        assert runs[-1].stop == GRID_POINTS
        assert all(run.start < run.stop for run in runs)
        assert ["+".join(terms[t] for t in alive)
                for _, alive in segments] == plans

    def test_output_without_terms_fires_no_row(self):
        x = LinguisticVariable("x", 0, 1, (("on", TRAP(0, 0, 0.5, 1)),))
        fs = FuzzySubsystem("bare", (x,), LinguisticVariable("y", 0, 1, ()), ())
        assert fs.unseen_output_terms() == []
        centroid = fs.centroids((np.array([0.2, 0.8]),))
        assert np.isnan(centroid).all()
        with pytest.raises(NoRuleFiredError):
            fs.infer({"x": 0.2}).centroid


class TestUnseenOutputTerms:
    """An output term is seen when it is > 0 at some point of `_grid`."""

    @staticmethod
    def fired_at_one(*terms):
        """A subsystem whose one input fires a rule at 1.0 for each term."""
        x = LinguisticVariable("x", 0, 1, (("on", TRAP(0, 0, 1, 1)),))
        return FuzzySubsystem("edge", (x,), LinguisticVariable("y", 0, 1, terms),
                              tuple(FuzzyRule((("x", "on"),), ("y", term))
                                    for term, _ in terms))

    def test_term_at_exactly_one_grid_point_is_seen(self):
        grid = self.fired_at_one()._grid
        fs = self.fired_at_one(("spike", TRI(grid[499], grid[500], grid[501])))
        (samples,) = fs._consequent_samples
        assert np.flatnonzero(samples).tolist() == [500]
        assert fs.unseen_output_terms() == []
        # The aggregate is 1 at grid[500] and 0 elsewhere.
        assert fs.centroids((np.array([0.5]),)).tolist() == [grid[500]]
        assert fs.infer({"x": 0.5}).centroid == grid[500]

    def test_term_strictly_between_two_grid_points_is_unseen(self):
        grid = self.fired_at_one()._grid
        lo, hi = grid[500], grid[501]
        mid = (lo + hi) / 2
        gap = TRI((lo + mid) / 2, mid, (mid + hi) / 2)
        assert lo < gap.support[0] and gap.support[1] < hi
        spike = TRI(grid[499], grid[500], grid[501])
        assert self.fired_at_one(("spike", spike), ("gap", gap)
                                 ).unseen_output_terms() == ["gap"]
        fs = self.fired_at_one(("gap", gap))
        assert not fs._consequent_samples[0].any()
        assert fs.unseen_output_terms() == ["gap"]
        assert np.isnan(fs.centroids((np.array([0.5]),))).all()
        with pytest.raises(NoRuleFiredError):
            fs.infer({"x": 0.5})


def degrees(var, x):
    """Each term's degree at x, in term order."""
    return {term: mf(x) for term, mf in var.terms}


class TestFuzzify:
    def test_temperature_at_medium_core(self, fs1):
        var = fs1.input_variable("indoor_temperature")
        assert degrees(var, 20.0) == {
            "low": 0.0, "medium": 1.0, "high": 0.0, "v.high": 0.0}

    def test_humidity_at_comfortable_core(self, fs1):
        var = fs1.input_variable("indoor_humidity")
        assert degrees(var, 0.35) == {
            "dry": 0.0, "comfortable": 1.0, "humid": 0.0, "stiki": 0.0}

    def test_out_of_universe(self, fs1):
        var = fs1.input_variable("indoor_temperature")
        with pytest.raises(OutOfUniverseError):
            var.piece(150.0)
        with pytest.raises(OutOfUniverseError):
            var.piece(-0.001)
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(OutOfUniverseError):
                var.piece(float(bad))

    def test_coverage_of_bundled_variables(self, fs1, fs2, fs3):
        variables = [*fs1.inputs, fs1.output, *fs2.inputs, fs2.output,
                     fs3.output]
        assert len(variables) == 7
        for var in variables:
            assert var.coverage_gaps() == [], var.name

    @pytest.mark.parametrize("terms, hi, gaps", [
        # At the start, inside and at the end: the edge corners are 0.
        ((TRI(2, 3, 4), TRAP(5, 6, 7, 8)), 10,
         [(0.0, 2.0), (4.0, 5.0), (8.0, 10.0)]),
        # Two terms meeting at one corner where both are 0.
        ((TRAP(0, 0, 4, 5), TRAP(5, 6, 10, 10)), 10, [(5.0, 5.0)]),
        ((), 10, [(0.0, 10.0)]),
        # A spike keeps the gaps on either side of it apart.
        ((TRAP(10, 10, 10, 10),), 12, [(0.0, math.nextafter(10, -math.inf)),
                                       (math.nextafter(10, math.inf), 12.0)]),
        # A vertical edge: 1 at 10 itself, 0 just above.
        ((TRAP(0, 0, 10, 10),), 12, [(math.nextafter(10, math.inf), 12.0)]),
    ], ids=["start-inside-end", "meeting-at-zero", "no-terms", "spike",
            "vertical-edge"])
    def test_coverage_gaps(self, terms, hi, gaps):
        var = LinguisticVariable(
            "v", 0, hi, tuple((f"t{i}", mf) for i, mf in enumerate(terms)))
        assert var.coverage_gaps() == gaps

    def test_duplicate_term_names_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable("v", 0, 10, (("a", TRI(0, 5, 10)),
                                            ("a", TRI(0, 2, 4))))

    def test_support_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable("v", 0, 10, (("a", TRI(0, 5, 11)),))

    def test_universe_wider_than_a_float_rejected(self):
        with pytest.raises(ValueError, match="wider than a float"):
            LinguisticVariable("v", -1e308, 1e308, (("a", TRI(0, 5, 10)),))


def ramp_variable(name):
    """A variable on [0, 1] whose term `ramp` has degree exactly x: at each
    x in (0, 1) the rising edge gives (x - 0) / (1 - 0)."""
    return LinguisticVariable(name, 0, 1, (("ramp", TRI(0, 1, 1)),))


def one_rule_subsystem(out_mf):
    """One input read through `ramp_variable`, so the single rule's
    activation equals the input, and an output on [0, 100] with one term."""
    out = LinguisticVariable("v", 0, 100, (("t", out_mf),))
    return FuzzySubsystem("one", (ramp_variable("x"),), out,
                          (FuzzyRule((("x", "ramp"),), ("v", "t")),))


def grid_centroid(lo, hi, mu):
    """The centroid of degrees `mu` on the output grid of [lo, hi], with the
    two sums of the scalar engine."""
    xs = np.linspace(lo, hi, GRID_POINTS)
    return float(np.sum(xs * mu)) / float(np.sum(mu))


class TestRuleActivation:
    def make(self, d1, d2):
        out = LinguisticVariable("z", 0, 1, (("c", TRI(0, 0.5, 1)),))
        fs = FuzzySubsystem("pair", (ramp_variable("x"), ramp_variable("y")),
                            out, (FuzzyRule((("x", "ramp"), ("y", "ramp")),
                                            ("z", "c")),))
        return dict(fs.fire({"x": d1, "y": d2})).get(0, 0.0)

    def test_min_of_degrees(self):
        assert self.make(0.6, 0.4) == 0.4

    def test_identity(self):
        assert self.make(1.0, 1.0) == 1.0

    def test_absorbing_zero(self):
        assert self.make(0.0, 0.9) == 0.0

    def test_unknown_term(self):
        out = LinguisticVariable("z", 0, 1, (("c", TRI(0, 0.5, 1)),))
        with pytest.raises(UnknownTermError) as exc:
            FuzzySubsystem("bad", (ramp_variable("x"),), out,
                           (FuzzyRule((("x", "missing"),), ("z", "c")),))
        assert (exc.value.variable, exc.value.term) == ("x", "missing")

    def test_antecedent_on_the_output_variable_rejected(self):
        # Only inputs are fuzzified, so such a rule could never be evaluated.
        out = LinguisticVariable("z", 0, 1, (("c", TRI(0, 0.5, 1)),))
        with pytest.raises(UnknownTermError):
            FuzzySubsystem("bad", (ramp_variable("x"),), out,
                           (FuzzyRule((("z", "c"),), ("z", "c")),))

    def test_rule_without_antecedent_rejected(self):
        # The DSL cannot write one; built in Python, it would fire at 1.0
        # on every reading.
        out = LinguisticVariable("z", 0, 1, (("c", TRI(0, 0.5, 1)),))
        with pytest.raises(ValueError) as exc:
            FuzzySubsystem("bad", (ramp_variable("x"),), out,
                           (FuzzyRule((("x", "ramp"),), ("z", "c")),
                            FuzzyRule((), ("z", "c"))))
        assert str(exc.value) == "rule 2 of 'bad' has no antecedent"

    def test_two_inputs_with_one_name_rejected(self):
        # The DSL cannot write them; built in Python, the rules and each
        # reading's dict would see the second input alone.
        out = LinguisticVariable("z", 0, 1, (("c", TRI(0, 0.5, 1)),))
        with pytest.raises(ValueError) as exc:
            FuzzySubsystem("twice", (ramp_variable("x"), ramp_variable("x")),
                           out, (FuzzyRule((("x", "ramp"),), ("z", "c")),))
        assert str(exc.value) == "'twice' has two inputs named 'x'"


def tiny_subsystem():
    """One input, one output, one rule; used for controlled activations."""
    x = LinguisticVariable("x", 0, 1, (
        ("on", TRAP(0, 0, 0.5, 1)),
        ("off", TRAP(0, 0.5, 1, 1)),
    ))
    out = LinguisticVariable("level", 0, 100, (
        ("mid", TRI(40, 55, 70)),
        ("top", TRAP(70, 85, 100, 100)),
    ))
    rules = (FuzzyRule((("x", "on"),), ("level", "mid")),)
    return FuzzySubsystem("tiny", (x,), out, rules)


class TestInfer:
    def test_single_full_rule_equals_consequent(self):
        fs = tiny_subsystem()
        agg = fs.infer({"x": 0.25})
        assert agg.fired == [(0, 1.0)]
        grid = np.linspace(0, 100, GRID_POINTS)
        assert agg.centroid == grid_centroid(0, 100, TRI(40, 55, 70).sample(grid))

    def test_all_zero_activations_give_zero_aggregate(self):
        fs = tiny_subsystem()
        with pytest.raises(NoRuleFiredError) as exc:
            fs.infer({"x": 1.0})  # "on" degree is 0 at x=1
        assert exc.value.variable == "level"

    def test_fs1_cool_cell_fires_fully(self, fs1):
        agg = fs1.infer({"indoor_temperature": 20.0, "indoor_humidity": 0.35})
        out = fs1.output
        grid = np.linspace(out.lo, out.hi, GRID_POINTS)
        assert agg.centroid == grid_centroid(out.lo, out.hi,
                                             out.term("cool").sample(grid))
        assert [act for _, act in agg.fired] == [1.0]

    def test_aggregate_carries_activations_in_rule_order(self, fs1):
        crisp = {"indoor_temperature": 20.5, "indoor_humidity": 0.37}
        agg = fs1.infer(crisp)
        assert agg.fired == fs1.fire(crisp)
        rules = [r for r, _ in agg.fired]
        assert rules == sorted(set(rules)) and rules[-1] < len(fs1.rules) == 16
        assert all(act > 0.0 for _, act in agg.fired)

    def test_rule_referencing_unknown_variable_rejected(self):
        x = LinguisticVariable("x", 0, 1, (("on", TRAP(0, 0, 0.5, 1)),))
        out = LinguisticVariable("y", 0, 1, (("t", TRI(0, 0.5, 1)),))
        with pytest.raises(UnknownTermError):
            FuzzySubsystem("bad", (x,), out,
                           (FuzzyRule((("nope", "on"),), ("y", "t")),))

    def test_output_universe_whose_centroid_sum_overflows_rejected(self):
        # 1e308 is a finite width, but the grid sum of x * degree is not.
        x = LinguisticVariable("x", 0, 1, (("on", TRAP(0, 0, 0.5, 1)),))
        out = LinguisticVariable("y", 0, 1e308, (("t", TRI(0, 5e307, 1e308)),))
        with pytest.raises(ValueError, match="centroid sum would overflow"):
            FuzzySubsystem("huge", (x,), out, (FuzzyRule((("x", "on"),), ("y", "t")),))


class TestDefuzzify:
    grid = np.linspace(0, 100, GRID_POINTS)

    def test_full_symmetric_triangle(self):
        centroid = one_rule_subsystem(TRI(40, 55, 70)).infer({"x": 1.0}).centroid
        assert centroid == grid_centroid(0, 100, TRI(40, 55, 70).sample(self.grid))
        assert centroid == pytest.approx(55.0, abs=0.1)

    def test_clipped_symmetric_triangle_keeps_centroid(self):
        centroid = one_rule_subsystem(TRI(40, 55, 70)).infer({"x": 0.5}).centroid
        clipped = np.minimum(0.5, TRI(40, 55, 70).sample(self.grid))
        assert centroid == grid_centroid(0, 100, clipped)
        assert centroid == pytest.approx(55.0, abs=0.1)

    def test_all_zero_raises(self):
        with pytest.raises(NoRuleFiredError):
            one_rule_subsystem(TRI(40, 55, 70)).infer({"x": 0.0})

    @given(st.floats(0.01, 1.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    def test_centroid_stays_in_universe(self, height, p1, p2):
        a, c = sorted((p1, p2))
        if c - a < 1e-6:  # widen towards the middle of the universe
            a, c = (a, a + 1e-6) if a < 50 else (c - 1e-6, c)
        mf = TRI(a, (a + c) / 2, c)
        fs = one_rule_subsystem(mf)
        assert fs.fire({"x": height}) == [(0, height)]
        mu = np.minimum(height, mf.sample(self.grid))
        if not np.any(mu):
            with pytest.raises(NoRuleFiredError):
                fs.infer({"x": height})
            return
        value = fs.infer({"x": height}).centroid
        assert value == grid_centroid(0, 100, mu)
        assert 0.0 <= value <= 100.0

    def test_centroid_within_hull_of_active_supports(self, fs1):
        crisp = {"indoor_temperature": 20.5, "indoor_humidity": 0.37}
        supports = [fs1.output.term(fs1.rules[r].consequent[1]).support
                    for r, _ in fs1.fire(crisp)]
        lo = min(s[0] for s in supports)
        hi = max(s[1] for s in supports)
        value = fs1.infer(crisp).centroid
        assert lo <= value <= hi


class TestDeterminism:
    def test_repeat_evaluations_bit_identical(self, fs1):
        crisp = {"indoor_temperature": 21.3, "indoor_humidity": 0.41}
        values = {fs1.infer(crisp).centroid for _ in range(5)}
        assert len(values) == 1
