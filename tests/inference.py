"""Reference single-reading inference: `FuzzySubsystem.activations` and
`infer` before they read rule tables and clipped once per output term, one
dict walk per antecedent and one clip per fired rule. The subsystem's
methods must give the same activations and centroid bits, and raise
NoRuleFiredError on the same readings.
"""
import numpy as np

from fuzzgate.core import GRID_POINTS, AggregatedOutput, NoRuleFiredError


def activations_per_rule(fs, crisp_inputs):
    """Each rule's min over its antecedent term degrees (Mamdani AND).
    The names were checked when the subsystem was built."""
    fuzzified = {v.name: v.fuzzify(crisp_inputs[v.name]) for v in fs.inputs}
    acts = []
    for rule in fs.rules:
        degree = 1.0
        for var, term in rule.antecedents:
            degree = min(degree, fuzzified[var][term])
        acts.append(degree)
    return acts


def infer_per_rule(fs, crisp_inputs):
    """Clip each consequent at its rule's activation, combine by max and
    take the centroid over the grid, summed in ascending-x order. Raises
    NoRuleFiredError when no rule fired; fail-safe is the caller's policy."""
    acts = tuple(activations_per_rule(fs, crisp_inputs))
    samples = dict(zip([term for term, _ in fs.output.terms],
                       fs._consequent_samples))
    aggregate = np.zeros(GRID_POINTS)
    for rule, act in zip(fs.rules, acts):
        if act <= 0.0:
            continue
        clipped = np.minimum(act, samples[rule.consequent[1]])
        np.maximum(aggregate, clipped, out=aggregate)
    total = float(np.sum(aggregate))
    if total <= 0.0:
        raise NoRuleFiredError(fs.output.name)
    return AggregatedOutput(acts, float(np.sum(fs._grid * aggregate)) / total)
