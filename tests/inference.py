"""Reference single-reading inference, independent of the subsystem's piece
tables and rule masks: every term of every input evaluated as mf(x), one
dict walk per antecedent of every rule and one clip per fired rule. The
subsystem's `activate`, and its centroid memo on `activate`'s strength row,
must give the same fired rules, strength rows and centroid bits, and raise
NoRuleFiredError on the same readings.

`fire` and `infer` put the subsystem's own path in the reference's terms: a
reading keyed by input name, the fired rules as (rule index, activation)
pairs.
"""
from typing import NamedTuple

import numpy as np

from fuzzgate.core import GRID_POINTS, FiredRule, NoRuleFiredError, OutOfUniverseError


class Inference(NamedTuple):
    """One reading's fired rules, as (rule index, activation) pairs in
    rule-bank order, and the centroid of their aggregate."""

    fired: list[tuple[int, float]]
    centroid: float


def activate_by_name(fs, crisp_inputs):
    """`fs.activate` on a reading keyed by input name, with heads that carry
    each rule's index as the FiredRule's `node`: the (rule index,
    activation) pairs of its records and its strength row."""
    fired = []
    strength = fs.activate([crisp_inputs[var.name] for var in fs.inputs],
                           [(r, rule.antecedents, rule.consequent)
                            for r, rule in enumerate(fs.rules)], fired)
    return [(f.node, f.activation) for f in fired], strength


def fire(fs, crisp_inputs):
    """The subsystem's fired rules on a reading keyed by input name, as
    (rule index, activation) pairs in rule-bank order."""
    return activate_by_name(fs, crisp_inputs)[0]


def infer(fs, crisp_inputs):
    """`fire`'s pairs and the centroid of the strength row through the
    subsystem's memo. Raises NoRuleFiredError when no rule fired."""
    fired, strength = activate_by_name(fs, crisp_inputs)
    return Inference(fired, fs._centroid(strength))


def activations_per_rule(fs, crisp_inputs):
    """Each rule's min over its antecedent term degrees (Mamdani AND), in
    rule-bank order. Raises OutOfUniverseError for a value outside its
    input's [lo, hi]. The names were checked when the subsystem was built."""
    degrees = {}
    for var in fs.inputs:
        x = crisp_inputs[var.name]
        if not var.lo <= x <= var.hi:  # NaN too
            raise OutOfUniverseError(var.name, x, var.lo, var.hi)
        degrees[var.name] = {term: mf(x) for term, mf in var.terms}
    acts = []
    for rule in fs.rules:
        degree = 1.0
        for var, term in rule.antecedents:
            degree = min(degree, degrees[var][term])
        acts.append(degree)
    return acts


def fire_per_rule(fs, crisp_inputs):
    """The (rule index, activation) pairs of the rules whose activation is
    > 0, in rule-bank order: what `fire` must give."""
    return [(r, act) for r, act in enumerate(activations_per_rule(fs, crisp_inputs))
            if act > 0.0]


def activate_per_rule(fs, xs, heads, fired):
    """What `activate` must do on a reading given in input order: append the
    FiredRule `(*heads[r], activation)` to `fired` for each rule r that
    `fire_per_rule` gives, and return each output term's largest activation
    among its rules, 0.0 where none fired."""
    terms = [term for term, _ in fs.output.terms]
    strength = [0.0] * len(terms)
    for r, act in fire_per_rule(fs, {v.name: x for v, x in zip(fs.inputs, xs)}):
        fired.append(FiredRule(*heads[r], act))
        t = terms.index(fs.rules[r].consequent[1])
        strength[t] = max(strength[t], act)
    return tuple(strength)


def infer_per_rule(fs, crisp_inputs):
    """Clip each consequent at its rule's activation, combine by max and
    take the centroid over the grid, summed in ascending-x order and clamped
    to the grid's ends, where the exact centroid lies. Returns the fired
    rules with the centroid, as `infer` does. Raises NoRuleFiredError when
    no rule fired; fail-safe is the caller's policy."""
    fired = fire_per_rule(fs, crisp_inputs)
    samples = dict(zip([term for term, _ in fs.output.terms],
                       fs._consequent_samples))
    aggregate = np.zeros(GRID_POINTS)
    for r, act in fired:
        clipped = np.minimum(act, samples[fs.rules[r].consequent[1]])
        np.maximum(aggregate, clipped, out=aggregate)
    total = float(np.sum(aggregate))
    if total <= 0.0:
        raise NoRuleFiredError(fs.output.name)
    centroid = float(np.sum(fs._grid * aggregate)) / total
    lo, hi = float(fs._grid[0]), float(fs._grid[-1])
    return Inference(fired, min(max(centroid, lo), hi))
