"""Exact Mamdani inference at the engine's own grid, in fractions.Fraction.

Each float the engine starts from (a reading, a corner and each point of
`np.linspace(lo, hi, POINTS)` over the output universe) is read as the exact
rational it is. Every degree, min, max and grid sum after that is exact. So
in a comparison with the subsystem's `activate` and centroid memo (through
`inference.fire` and `inference.infer`) or with `centroids`, the only
rounding left is the engine's.

How far the engine may be from it. Let u = 2**-53, the unit roundoff, and
N = POINTS. Where no degree or activation is below the smallest normal
float:
- a degree (x - a) / (b - a) takes three roundings, so the engine's is the
  exact one times (1 + e) with |e| <= 3u (a core degree of 1 and a degree
  of 0 are exact);
- min and max only select, and both are monotone, so each activation,
  each term's strength and each aggregate point a_i keeps that bound;
- the total T = sum(a_i) adds N - 1 times, so, whatever the order of the
  adds, the engine's total is T (1 + t) with |t| <= 3u + g, where
  g = (N - 1) u / (1 - (N - 1) u);
- the weighted sum W = sum(x_i a_i) takes one more rounding per product,
  and its terms may differ in sign, so the engine is within
  (4u + g) * M * T of it, where M = max(|lo|, |hi|) bounds |x_i|;
- the last division rounds once more.
Then the engine's centroid is within
    ((4u + g) M + (3u + g) |c| + u |c|) / (1 - 3u - g)
of the exact centroid c, and |c| <= M. So `centroid_bound` is 2.01 * g * M:
g = 1000u outweighs the 8u terms. For a universe of span S, that is about
2.3e-13 * M / S of the span, 1e-12 of it or better wherever M <= 4 S.
Over 400 readings of the drawn subsystems of `tests/test_inference.py`,
the worst was 5.9e-15 of the span.

An activation below the smallest normal float may round to 0 (the
underflow that `LinguisticVariable` documents), so there the engine may fire
nothing where the exact reference fires a rule: `tiny` marks such readings.
An output degree below it at a grid point is off by at most 2**-1074, which
moves the centroid by at most N 2**-1074 M / T: nothing beside the bound
once an activation is a normal float.
"""
from fractions import Fraction
from sys import float_info

import numpy as np

#: The engine's grid size, restated rather than imported, so that a change
#: to the engine's grid shows here.
POINTS = 1001

SMALLEST_NORMAL = Fraction(float_info.min)


def degree(corners: tuple[Fraction, ...], x: Fraction) -> Fraction:
    """The exact degree of the fuzzy set with these four corners at x."""
    a, b, c, d = corners
    if b <= x <= c:
        return Fraction(1)
    if x <= a or x >= d:
        return Fraction(0)
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


def exact_terms(var) -> dict[str, tuple[Fraction, ...]]:
    """Each term of a variable by its corners, read exactly."""
    return {term: tuple(map(Fraction, mf.corners)) for term, mf in var.terms}


def centroid_bound(fs) -> float:
    """The largest distance between the engine's centroid and the exact one
    on this subsystem (see the module docstring)."""
    g = (POINTS - 1) * 2.0**-53 / (1 - (POINTS - 1) * 2.0**-53)
    return 2.01 * g * max(abs(fs.output.lo), abs(fs.output.hi))


class ExactSubsystem:
    """One subsystem's rules and terms, read exactly."""

    def __init__(self, fs):
        self.rules = [(rule.antecedents, rule.consequent[1]) for rule in fs.rules]
        self.inputs = {var.name: exact_terms(var) for var in fs.inputs}
        grid = np.linspace(fs.output.lo, fs.output.hi, POINTS).tolist()
        self.grid = [Fraction(x) for x in grid]
        self.samples = {term: [degree(corners, x) for x in self.grid]
                        for term, corners in exact_terms(fs.output).items()}

    def fire(self, crisp_inputs: dict[str, float]) -> list[tuple[int, Fraction]]:
        """The (rule index, exact activation) pairs of the rules whose
        activation is > 0, in rule-bank order."""
        degrees = {name: {term: degree(corners, Fraction(crisp_inputs[name]))
                          for term, corners in terms.items()}
                   for name, terms in self.inputs.items()}
        fired = []
        for r, (antecedents, _) in enumerate(self.rules):
            act = min(degrees[var][term] for var, term in antecedents)
            if act > 0:
                fired.append((r, act))
        return fired

    def centroid(self, fired: list[tuple[int, Fraction]]) -> Fraction | None:
        """The exact centroid of the fired rules' aggregate on the grid: each
        consequent clipped at its rule's activation, combined by max. None
        where the aggregate is 0 everywhere."""
        strength: dict[str, Fraction] = {}
        for r, act in fired:
            term = self.rules[r][1]
            strength[term] = max(strength.get(term, Fraction(0)), act)
        aggregate = [Fraction(0)] * POINTS
        for term, s in strength.items():
            aggregate = [max(agg, min(s, m))
                         for agg, m in zip(aggregate, self.samples[term])]
        total = sum(aggregate)
        if total == 0:
            return None
        return sum(x * a for x, a in zip(self.grid, aggregate)) / total


def tiny(fired: list[tuple[int, Fraction]]) -> bool:
    """Whether an exact activation is below the smallest normal float."""
    return any(act < SMALLEST_NORMAL for _, act in fired)
