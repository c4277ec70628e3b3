"""Independent brute-force Mamdani oracle used to cross-check the engine.

Deliberately avoids the engine's code paths: membership degrees come from a
segment-walking formulation over shape vertices (not the engine's core/edge
case analysis), every rule is evaluated directly without caching inside the
engine, and aggregation runs over a dense 100,001-point grid instead of the
engine's 1,001-point one. Only the subsystem's raw data (term corners, rule
tuples) is reused.
"""
from __future__ import annotations

import numpy as np

DENSE_POINTS = 100_001


def _vertices(corners):
    a, b, c, d = corners
    return [(a, 0.0), (b, 1.0), (c, 1.0), (d, 0.0)]


def degree(corners, x: float) -> float:
    """Membership degree by walking the shape's vertex segments."""
    vertices = _vertices(corners)
    if x < vertices[0][0] or x > vertices[-1][0]:
        return 0.0
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        if x0 == x1:  # vertical edge
            if x == x0:
                return max(y0, y1)
            continue
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return 0.0


def sample(corners, xs: np.ndarray) -> np.ndarray:
    """Vectorized counterpart of degree(), same segment walk."""
    vertices = _vertices(corners)
    out = np.zeros_like(xs)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        if x0 == x1:
            out[xs == x0] = max(y0, y1)
            continue
        mask = (xs >= x0) & (xs <= x1)
        out[mask] = y0 + (y1 - y0) * (xs[mask] - x0) / (x1 - x0)
    return out


class DenseOracle:
    """Brute-force Mamdani evaluation of one subsystem on a dense grid."""

    def __init__(self, subsystem, points: int = DENSE_POINTS):
        self.inputs = {v.name: {t: mf.corners for t, mf in v.terms}
                       for v in subsystem.inputs}
        self.rules = [(rule.antecedents, rule.consequent[1])
                      for rule in subsystem.rules]
        self.xs = np.linspace(subsystem.output.lo, subsystem.output.hi, points)
        self.out_samples = {t: sample(mf.corners, self.xs)
                            for t, mf in subsystem.output.terms}

    def crisp_output(self, crisp_inputs: dict[str, float]) -> float:
        degrees = {
            name: {t: degree(pts, crisp_inputs[name])
                   for t, pts in table.items()}
            for name, table in self.inputs.items()
        }
        aggregate = np.zeros_like(self.xs)
        for antecedents, out_term in self.rules:
            act = min(degrees[v][t] for v, t in antecedents)
            if act <= 0.0:
                continue
            np.maximum(aggregate, np.minimum(act, self.out_samples[out_term]),
                       out=aggregate)
        den = float(np.sum(aggregate))
        if den == 0.0:
            raise ZeroDivisionError("no rule fired")
        num = float(np.dot(self.xs, aggregate))
        return num / den


def crisp_output(subsystem, crisp_inputs: dict[str, float]) -> float:
    return DenseOracle(subsystem).crisp_output(crisp_inputs)
