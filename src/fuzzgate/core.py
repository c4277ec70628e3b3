"""Deterministic Mamdani inference core.

Fuzzification, min-AND rule activation, min-implication, max-aggregation
and centroid defuzzification over a fixed uniform sample grid. Every
model object is immutable after construction. The one mutable state is each
subsystem's centroid memo, and no result depends on what it holds: a hit
returns the bits that a miss computes. So any number of evaluations may run
concurrently.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

#: Number of uniform samples (endpoints inclusive) used for aggregation
#: and centroid defuzzification.
GRID_POINTS = 1001

#: Rows per block of the batch evaluator's wide stage. A block's aggregate
#: holds CHUNK_ROWS x GRID_POINTS floats (512 KiB) whatever the number of
#: rows; only the narrow stage's per-term strengths grow with it.
CHUNK_ROWS = 64

#: Strength rows whose centroid each subsystem keeps for the scalar `infer`,
#: least recently used first out. Over the paper-like replay (seed 1), 256
#: rows hit 40%, 88% and 57% of FS1, FS2 and FS3 calls; over unique
#: full-precision readings, 39%, 17% and 49%.
CENTROID_MEMO = 256


class FuzzyError(Exception):
    """Base class for inference-time errors."""


class OutOfUniverseError(FuzzyError):
    def __init__(self, variable: str, value: float, lo: float, hi: float):
        self.variable = variable
        self.value = value
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"value {value!r} for variable '{variable}' is outside its "
            f"universe [{lo}, {hi}]"
        )


class UnknownTermError(FuzzyError):
    def __init__(self, variable: str, term: str):
        self.variable = variable
        self.term = term
        super().__init__(f"variable '{variable}' has no term '{term}'")


class NoRuleFiredError(FuzzyError):
    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(
            f"no rule fired: aggregated output for '{variable}' is zero everywhere"
        )


@dataclass(frozen=True)
class MembershipFunction:
    """Piecewise-linear fuzzy set given by its four corners: the support's
    start, the core's start and end, and the support's end. The degree is 1
    on the core, 0 outside the support and linear on each edge between; a
    triangle (a, b, c) is the trapezoid (a, b, b, c).

    Corners must be finite and non-decreasing. Degenerate segments (equal
    adjacent corners) are legal and evaluate as vertical edges, which is how
    boundary shoulders saturate at a universe endpoint.
    """

    corners: tuple[float, float, float, float]

    def __post_init__(self):
        pts = self.corners
        if len(pts) != 4 or not all(map(math.isfinite, pts)) or \
                any(a > b for a, b in zip(pts, pts[1:])):
            raise ValueError(f"corners must be four finite, non-decreasing "
                             f"numbers, got {pts}")

    @property
    def support(self) -> tuple[float, float]:
        return self.corners[0], self.corners[3]

    def __call__(self, x: float) -> float:
        a, lo_core, hi_core, d = self.corners
        if lo_core <= x <= hi_core:
            return 1.0
        if x <= a or x >= d:
            return 0.0
        if x < lo_core:  # rising edge; a < x < lo_core implies a < lo_core
            return (x - a) / (lo_core - a)
        return (d - x) / (d - hi_core)

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate at each value of an array of crisp values.

        Bit for bit what `__call__` gives at each non-NaN value: the core is
        1, outside the support is 0, and the rising and falling edges are
        computed with the same expressions on the open intervals that the
        branches of `__call__` leave to them.
        """
        xs = np.asarray(xs, dtype=float)
        a, lo_core, hi_core, d = self.corners
        degree = np.zeros(xs.shape)
        if a < lo_core:
            rising = (a < xs) & (xs < lo_core)
            degree[rising] = (xs[rising] - a) / (lo_core - a)
        if hi_core < d:
            falling = (hi_core < xs) & (xs < d)
            degree[falling] = (d - xs[falling]) / (d - hi_core)
        degree[(lo_core <= xs) & (xs <= hi_core)] = 1.0
        return degree


@dataclass(frozen=True)
class LinguisticVariable:
    """Named universe of discourse with an ordered set of named terms."""

    name: str
    lo: float
    hi: float
    terms: tuple[tuple[str, MembershipFunction], ...]
    unit: str = ""

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"universe of '{self.name}' is empty: [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            # The output grid's step would overflow to inf and the grid to NaN.
            raise ValueError(f"universe of '{self.name}' is wider than a float "
                             f"can hold: [{self.lo}, {self.hi}]")
        names = [t for t, _ in self.terms]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate term names on variable '{self.name}'")
        for term, mf in self.terms:
            a, z = mf.support
            if a < self.lo or z > self.hi:
                raise ValueError(
                    f"support of term '{term}' [{a}, {z}] is outside the "
                    f"universe of '{self.name}' [{self.lo}, {self.hi}]"
                )

    def term(self, name: str) -> MembershipFunction:
        for term, mf in self.terms:
            if term == name:
                return mf
        raise UnknownTermError(self.name, name)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def fuzzify(self, x: float) -> dict[str, float]:
        """Map a crisp value to a degree per term.

        Raises OutOfUniverseError when x falls outside [lo, hi].
        """
        if not self.contains(x):  # NaN and ±inf too: the bounds are finite
            raise OutOfUniverseError(self.name, x, self.lo, self.hi)
        return {term: mf(x) for term, mf in self.terms}

    def coverage_gaps(self, samples: int = 1000) -> list[tuple[float, float]]:
        """Runs of sample points of the universe where no term has degree
        > 0, each as its first and last point."""
        xs = np.linspace(self.lo, self.hi, samples)
        runs = _grid_runs([mf.sample(xs) for _, mf in self.terms]) or (
            (slice(0, samples), ()),)  # no terms: one run, none alive on it
        return [(float(xs[run.start]), float(xs[run.stop - 1]))
                for run, alive in runs if not alive]


@dataclass(frozen=True)
class FuzzyRule:
    """IF <var> IS <term> [AND ...] THEN <var> IS <term>."""

    antecedents: tuple[tuple[str, str], ...]
    consequent: tuple[str, str]


@dataclass(frozen=True)
class AggregatedOutput:
    """One reading's rule activations, in rule-bank order, and the centroid
    of their aggregate."""

    activations: tuple[float, ...]
    centroid: float


@dataclass(frozen=True)
class FuzzySubsystem:
    """Two-input / one-output Mamdani subsystem with a complete rule bank."""

    name: str
    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable
    rules: tuple[FuzzyRule, ...]
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    # Each output term's samples on the grid, in output-term order.
    _consequent_samples: tuple[np.ndarray, ...] = field(
        init=False, repr=False, compare=False)
    # Per rule: its antecedents as (input position, term), and the index of
    # its consequent's term among the output terms.
    _rule_slots: tuple[tuple[tuple[int, str], ...], ...] = field(
        init=False, repr=False, compare=False)
    _rule_term: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # `infer`'s centroid of a strength row: a `_centroid_memo`.
    _centroid: Callable[[tuple[float, ...]], float] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.output.lo, self.output.hi
        if not math.isfinite(GRID_POINTS * max(abs(lo), abs(hi))):
            # The centroid's weighted grid sum, at most this product, would be inf.
            raise ValueError(f"output universe of '{self.name}' [{lo}, {hi}] is too "
                             f"large: its centroid sum would overflow a float")
        inputs = {v.name: v for v in self.inputs}
        output = {self.output.name: self.output}
        for number, rule in enumerate(self.rules, 1):
            if not rule.antecedents:
                # `infer` would fire it at 1.0 and `centroids` has no min to take.
                raise ValueError(f"rule {number} of '{self.name}' has no antecedent")
            for (var, term), known in [*((a, inputs) for a in rule.antecedents),
                                       (rule.consequent, output)]:
                if var not in known:
                    raise UnknownTermError(var, term)
                known[var].term(term)  # raises UnknownTermError
        position = {v.name: i for i, v in enumerate(self.inputs)}
        terms = [term for term, _ in self.output.terms]
        grid = np.linspace(self.output.lo, self.output.hi, GRID_POINTS)
        samples = tuple(mf.sample(grid) for _, mf in self.output.terms)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_consequent_samples", samples)
        object.__setattr__(self, "_rule_slots", tuple(
            tuple((position[var], term) for var, term in rule.antecedents)
            for rule in self.rules))
        object.__setattr__(self, "_rule_term", tuple(
            terms.index(rule.consequent[1]) for rule in self.rules))
        object.__setattr__(self, "_centroid", _centroid_memo(
            grid, samples, self.output.name))

    def unseen_output_terms(self) -> list[str]:
        """The output terms that are 0 at every grid point (samples are
        >= 0): a rule that concludes one never moves the centroid."""
        return [term for (term, _), samples in zip(self.output.terms,
                                                   self._consequent_samples)
                if not samples.any()]

    def input_variable(self, name: str) -> LinguisticVariable:
        for var in self.inputs:
            if var.name == name:
                return var
        raise KeyError(name)

    def activations(self, crisp_inputs: dict[str, float]) -> list[float]:
        """Each rule's min over its antecedent term degrees (Mamdani AND),
        through the rule slots built with the subsystem."""
        fuzzified = [v.fuzzify(crisp_inputs[v.name]) for v in self.inputs]
        acts = []
        for slots in self._rule_slots:
            degree = 1.0
            for i, term in slots:
                d = fuzzified[i][term]
                if d < degree:
                    degree = d
            acts.append(degree)
        return acts

    def infer(self, crisp_inputs: dict[str, float]) -> AggregatedOutput:
        """Fold the activations into one strength per output term (the
        largest among the rules with that consequent) and take the centroid
        of that strength row (see `_centroid_memo`). Raises NoRuleFiredError
        when no rule fired; fail-safe is the caller's policy."""
        acts = tuple(self.activations(crisp_inputs))
        strength = [0.0] * len(self._consequent_samples)
        for t, act in zip(self._rule_term, acts):
            if act > strength[t]:
                strength[t] = act
        return AggregatedOutput(acts, self._centroid(tuple(strength)))

    def centroids(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Batch form of `infer`'s centroid: one column of crisp values per
        input, in input order.

        Returns the centroid of each row, NaN where no rule fired (where
        `infer` raises NoRuleFiredError). A fired row is never NaN: build
        refuses an output universe whose weighted sum overflows. The narrow
        stage gives each row its strength per output term: the largest
        activation among the rules with that consequent. The wide stage
        aggregates the grid once per distinct strength row, taking those rows a
        group at a time: the rows that fired the same terms (see
        `_group_rows`), found as runs of their fired-term keys by `_grid_runs`.
        A group that fired none stays NaN. For the others it takes the grid's
        runs as `_grid_runs` finds them from the samples of the group's terms
        alone: a run with none is 0, and any other run clips only those terms
        and combines them by max. Then it sums the whole grid of each row. Each
        fired row is bit-identical to `infer`: min and max only select values,
        a term clips to 0 outside its runs, a term of strength 0 clips to 0
        everywhere, the aggregate depends on the strength row alone, and a
        block's row-wise sums add each row as `infer` does. Raises
        OutOfUniverseError on the first value outside its input's universe.
        """
        columns = [np.asarray(xs, dtype=float) for xs in columns]
        for var, xs in zip(self.inputs, columns):
            outside = ~((var.lo <= xs) & (xs <= var.hi))  # NaN is outside
            if outside.any():
                raise OutOfUniverseError(var.name, float(xs[outside.argmax()]),
                                         var.lo, var.hi)
        n = len(columns[0])
        if not (n and self.output.terms):  # no row, or no rule can fire
            return np.full(n, np.nan)
        strength = self._strengths(columns, n)
        distinct, inverse = _group_rows([*strength, *(s > 0.0 for s in strength)])
        strength, alive = distinct[:len(strength)], distinct[len(strength):]
        samples = self._consequent_samples
        m = len(strength[0])
        centroid = np.full(m, np.nan)
        agg = np.empty((min(m, CHUNK_ROWS), GRID_POINTS))
        work = np.empty_like(agg)
        zero = np.zeros(GRID_POINTS)
        for group, terms in _grid_runs(alive):
            if not terms:  # no rule fired on these rows
                continue
            runs = _grid_runs([s if t in terms else zero
                               for t, s in enumerate(samples)])
            stop = group.stop
            for start in range(group.start, stop, CHUNK_ROWS):
                rows = slice(start, min(start + CHUNK_ROWS, stop))
                block, clipped = agg[:rows.stop - start], work[:rows.stop - start]
                act = [s[rows, None] for s in strength]
                # Every point of the block is written: the buffer holds the
                # previous block's rows.
                for run, on in runs:
                    out = block[:, run]
                    if not on:
                        out.fill(0.0)
                    else:
                        t, *rest = on
                        np.minimum(act[t], samples[t][run], out=out)
                        for t in rest:
                            np.minimum(act[t], samples[t][run], out=clipped[:, run])
                            np.maximum(out, clipped[:, run], out=out)
                total = np.sum(block, axis=1)
                weighted = np.sum(np.multiply(self._grid, block, out=clipped),
                                  axis=1)
                np.divide(weighted, total, out=centroid[rows], where=total > 0.0)
        return centroid[inverse]

    def _strengths(self, columns: list[np.ndarray], n: int
                   ) -> list[np.ndarray]:
        """The narrow stage of `centroids`: each output term's strength in
        each of the n rows. A term no rule names stays 0. One array per term,
        not one 2-D table: on 19,735 rows that one allocation, larger than a
        wide-stage block, raised the peak RSS of repeated replays by about
        1.5 MB."""
        strength = [np.zeros(n) for _ in self._consequent_samples]
        degrees = [{term: mf.sample(xs) for term, mf in var.terms}
                   for var, xs in zip(self.inputs, columns)]
        for slots, t in zip(self._rule_slots, self._rule_term):
            act = functools.reduce(np.minimum,
                                   (degrees[i][term] for i, term in slots))
            np.maximum(strength[t], act, out=strength[t])
        return strength


def _centroid_memo(grid: np.ndarray, samples: tuple[np.ndarray, ...],
                   variable: str) -> Callable[[tuple[float, ...]], float]:
    """`infer`'s centroid of a strength row, one per output term, through an
    LRU memo of CENTROID_MEMO rows. It clips each fired term's consequent at
    its strength, combines by max and takes the centroid over the grid,
    summed in ascending-x order. The same bits as clipping once per rule:
    min and max only select values, so min(max(a, b), s) is max(min(a, s),
    min(b, s)) at every point. A hit gives the bits of a miss: equal rows
    are equal floats, all >= +0.0, so they clip the same terms at the same
    heights. Raises NoRuleFiredError, on every call, when the aggregate is
    0 everywhere: the memo keeps no exception.

    A closure over the subsystem's arrays, not its bound method, so the
    memo does not keep alive the subsystem that holds it."""
    @functools.lru_cache(maxsize=CENTROID_MEMO)
    def centroid(strength: tuple[float, ...]) -> float:
        aggregate = np.zeros(GRID_POINTS)
        clipped = np.empty(GRID_POINTS)
        for act, term in zip(strength, samples):
            if act > 0.0:
                np.minimum(act, term, out=clipped)
                np.maximum(aggregate, clipped, out=aggregate)
        total = float(np.add.reduce(aggregate))
        if total <= 0.0:
            raise NoRuleFiredError(variable)
        weighted = np.add.reduce(np.multiply(grid, aggregate, out=clipped))
        return float(weighted) / total
    return centroid


def _grid_runs(samples: list[np.ndarray]
               ) -> tuple[tuple[slice, tuple[int, ...]], ...]:
    """A grid as maximal runs of points where the same terms are > 0,
    given each term's samples on it. Each run is its points and the indices
    of those terms. No terms, no runs. `centroids` also passes its sorted
    rows' boolean fired-term keys, as the samples of a grid of rows."""
    if not samples:
        return ()
    alive = np.array(samples) > 0.0  # (terms, points)
    edges = np.flatnonzero((alive[:, 1:] != alive[:, :-1]).any(axis=0)) + 1
    bounds = [0, *edges.tolist(), alive.shape[1]]
    return tuple((slice(a, b), tuple(np.flatnonzero(alive[:, a]).tolist()))
                 for a, b in zip(bounds, bounds[1:]))


def _group_rows(columns: list[np.ndarray]
                ) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct rows of a table given as equal-length columns, again as
    columns, sorted by the last column first, and for each row the index of
    its distinct row. So the distinct rows that agree on the last columns,
    such as the boolean keys that `centroids` puts there, are contiguous."""
    order = np.lexsort(columns)
    first = np.arange(len(order)) == 0  # first of its equals, once sorted
    for key in columns:
        key = key[order]
        first[1:] |= key[1:] != key[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    distinct = order[first]
    return [key[distinct] for key in columns], inverse
