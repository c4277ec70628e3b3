"""Reference single-reading inference, independent of the subsystem's piece
tables and rule masks: every term of every input evaluated as mf(x), one
dict walk per antecedent of every rule and one clip per fired rule. The
subsystem's `activate`, `fire` and `infer` must give the same fired rules,
strength rows and centroid bits, and raise NoRuleFiredError on the same
readings.
"""
import numpy as np

from fuzzgate.core import (GRID_POINTS, AggregatedOutput, FiredRule,
                           NoRuleFiredError, OutOfUniverseError)


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


def activate_per_rule(fs, xs, heads, fired, record=FiredRule):
    """What `activate` must do on a reading given in input order: append a
    `record` of `(*heads[r], activation)` to `fired` for each rule r that
    `fire_per_rule` gives, and return each output term's largest activation
    among its rules, 0.0 where none fired."""
    terms = [term for term, _ in fs.output.terms]
    strength = [0.0] * len(terms)
    for r, act in fire_per_rule(fs, {v.name: x for v, x in zip(fs.inputs, xs)}):
        fired.append(tuple.__new__(record, (*heads[r], act)))
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
    return AggregatedOutput(fired, min(max(centroid, lo), hi))
