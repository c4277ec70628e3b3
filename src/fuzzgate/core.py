"""Deterministic Mamdani inference core.

Fuzzification, min-AND rule activation, min-implication, max-aggregation
and centroid defuzzification over a fixed uniform sample grid. Every
model object is immutable after construction. The one mutable state is each
subsystem's centroid memo, and no result depends on what it holds: a hit
returns the bits that a miss computes. So any number of evaluations may run
concurrently.

A single reading fires only the rules it can reach. The distinct corners of
a variable's terms cut its universe into pieces, each corner point and each
open interval between neighbouring corners, and a term is either > 0 on the
whole of a piece (alive there, up to an edge that underflows to 0) or 0 on
all of it. A subsystem keeps, per input and piece, a bitmask of the rules
whose antecedent terms on that input are all alive there. Its one firing
routine, `FuzzySubsystem.activate`, finds each input's piece, evaluates only
the terms alive on it and ANDs the masks: only the rules left can have an
activation > 0, and the others are 0, as a min over a 0 degree is. One loop
over those rules gives their records and the strength row.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: Number of uniform samples (endpoints inclusive) used for aggregation
#: and centroid defuzzification.
GRID_POINTS = 1001

#: Rows per block of the batch evaluator's wide stage. A block's aggregate
#: holds CHUNK_ROWS x GRID_POINTS floats (512 KiB) whatever the number of
#: rows; only the narrow stage's per-term strengths grow with it.
CHUNK_ROWS = 64

#: Strength rows whose centroid each subsystem keeps for the scalar path,
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
        if len(pts) != 4 or not all(map(math.isfinite, pts)):
            raise ValueError(f"corners must be four finite numbers, got {pts}")
        if any(a > b for a, b in zip(pts, pts[1:])):
            raise ValueError(f"non-monotone corners {pts}: each must be <= the next")

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
    """Named universe of discourse with an ordered set of named terms.

    The terms' sorted distinct corners c_0 < ... < c_m-1 cut the universe
    into pieces: piece 2k is the open interval (c_k-1, c_k), with c_-1 and
    c_m taken as -inf and +inf, and piece 2k + 1 is the point c_k. Each
    piece keeps the terms alive on it: at a corner c, those with mf(c) > 0;
    on an interval (u, v), those whose support's ends a and d have
    a <= u and v <= d. Any other term is 0 all over the piece, since its
    open support (a, d) holds no point of it. No point between two corners
    is probed: a midpoint may round onto a corner or overflow.

    Each alive term is kept as a degree row (term, kind, p, w) that gives
    the bits of mf(x) all over the piece, by the branch of `__call__` that
    holds there: the constant p (kind 0: mf(c) at a corner c, 1.0 on the
    core), (x - p) / w on a rising edge (kind 1: p = a, w = b - a), or
    (p - x) / w on a falling edge (kind -1: p = d, w = d - c).
    """

    name: str
    lo: float
    hi: float
    terms: tuple[tuple[str, MembershipFunction], ...]
    unit: str = ""
    # The distinct corners, ascending, then +inf: the bounds that `piece`
    # bisects.
    _cuts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # Per piece, in piece order: its alive terms' degree rows, in term order.
    _alive: tuple[tuple[tuple[str, int, float, float], ...], ...] = field(
        init=False, repr=False, compare=False)

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
        corners = sorted({p for _, mf in self.terms for p in mf.corners})
        alive = []
        for u, v in zip([-math.inf, *corners], [*corners, math.inf]):
            alive.append(tuple(_edge_row(t, mf, u, v) for t, mf in self.terms
                               if mf.corners[0] <= u and v <= mf.corners[3]))
            alive.append(tuple((t, 0, mf(v), 1.0) for t, mf in self.terms
                               if mf(v) > 0.0))
        object.__setattr__(self, "_cuts", (*corners, math.inf))
        object.__setattr__(self, "_alive", tuple(alive))

    def term(self, name: str) -> MembershipFunction:
        for term, mf in self.terms:
            if term == name:
                return mf
        raise UnknownTermError(self.name, name)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def piece(self, x: float) -> int:
        """Index of the piece of the universe that holds x (see the class).

        Raises OutOfUniverseError when x falls outside [lo, hi].
        """
        if not self.contains(x):  # NaN and ±inf too: the bounds are finite
            raise OutOfUniverseError(self.name, x, self.lo, self.hi)
        cuts = self._cuts
        k = bisect_left(cuts, x)  # cuts[k - 1] < x <= cuts[k]
        return 2 * k + (cuts[k] == x)

    def coverage_gaps(self) -> list[tuple[float, float]]:
        """The stretches of [lo, hi] where no term is alive, each as its first
        and last float: the maximal runs of pieces (see the class) with no term
        alive that hold a float, so a covered corner keeps two runs apart. As
        exact as `FuzzySubsystem.fire`: up to an alive edge that underflows."""
        bounds = [self.lo]
        for c in self._cuts[:-1]:
            bounds += [math.nextafter(c, -math.inf), c, c, math.nextafter(c, math.inf)]
        bounds.append(self.hi)  # piece p holds bounds[2p] to bounds[2p + 1]
        gaps, joined = [], False  # joined: the piece before is in a gap too
        for first, last, alive in zip(bounds[::2], bounds[1::2], self._alive):
            if not alive:
                gaps.append((gaps.pop()[0] if joined else first, last))
            joined = not alive
        return [(float(first), float(last)) for first, last in gaps if first <= last]


def _edge_row(term: str, mf: MembershipFunction, u: float, v: float
              ) -> tuple[str, int, float, float]:
    """The degree row (see `LinguisticVariable`) of a term alive on the open
    interval (u, v) between neighbouring cuts: its rising edge, core or
    falling edge holds all of it, since the term's corners are cuts."""
    a, b, c, d = mf.corners
    if v <= b:
        return term, 1, a, b - a
    if c <= u:
        return term, -1, d, d - c
    return term, 0, 1.0, 1.0


@dataclass(frozen=True)
class FuzzyRule:
    """IF <var> IS <term> [AND ...] THEN <var> IS <term>."""

    antecedents: tuple[tuple[str, str], ...]
    consequent: tuple[str, str]


class FiredRule(NamedTuple):
    node: str
    antecedents: tuple[tuple[str, str], ...]
    consequent: tuple[str, str]
    activation: float


class AggregatedOutput(NamedTuple):
    """One reading's fired rules, the (rule index, activation) pairs that
    `FuzzySubsystem.fire` gives, and the centroid of their aggregate."""

    fired: list[tuple[int, float]]
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
    # Per input, in input order, and per piece of its universe: the bitmask
    # of the rules whose antecedent terms on that input are all alive there
    # (bit r for rule r), i.e. whose set of terms on the input is a subset of
    # the piece's alive terms. A rule that reads no term of the input has the
    # empty set there, so its bit is set in every piece.
    _rule_masks: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)
    # The centroid of a strength row that `activate` gives: a `_centroid_memo`.
    _centroid: Callable[[tuple[float, ...]], float] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.output.lo, self.output.hi
        if not math.isfinite(GRID_POINTS * max(abs(lo), abs(hi))):
            # The centroid's weighted grid sum, at most this product, would be inf.
            raise ValueError(f"output universe of '{self.output.name}' [{lo}, {hi}] "
                             f"is too large: its centroid sum would overflow a float")
        inputs = {}
        for var in self.inputs:
            if var.name in inputs:  # rules and readings would see the last
                raise ValueError(f"'{self.name}' has two inputs named '{var.name}'")
            inputs[var.name] = var
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
        rule_slots = tuple(
            tuple((position[var], term) for var, term in rule.antecedents)
            for rule in self.rules)
        masks = []
        for i, var in enumerate(self.inputs):
            reads = [{term for j, term in slots if j == i} for slots in rule_slots]
            masks.append(tuple(
                sum(1 << r for r, terms in enumerate(reads) if terms <= alive)
                for alive in ({term for term, *_ in row} for row in var._alive)))
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_consequent_samples", samples)
        object.__setattr__(self, "_rule_slots", rule_slots)
        object.__setattr__(self, "_rule_masks", tuple(masks))
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

    def fire(self, crisp_inputs: dict[str, float]) -> list[tuple[int, float]]:
        """`activate` on a reading keyed by input name, as (rule index,
        activation) pairs."""
        fired: list[tuple[int, float]] = []
        self.activate([crisp_inputs[var.name] for var in self.inputs],
                      [(r,) for r in range(len(self.rules))], fired, tuple)
        return fired

    def infer(self, crisp_inputs: dict[str, float]) -> AggregatedOutput:
        """`fire`'s pairs and the centroid of their strength row (see
        `_centroid_memo`). Raises NoRuleFiredError when no rule fired."""
        fired: list[tuple[int, float]] = []
        strength = self.activate([crisp_inputs[var.name] for var in self.inputs],
                                 [(r,) for r in range(len(self.rules))], fired, tuple)
        return AggregatedOutput(fired, self._centroid(strength))

    def activate(self, xs: Sequence[float], heads: Sequence[tuple],
                 fired: list, record: type = FiredRule) -> tuple[float, ...]:
        """Fire the rules on one reading, its crisp values in input order.
        Appends the `record` tuple `(*heads[r], activation)` to `fired` for
        each rule r with activation > 0, in rule-bank order, and returns the
        strength row: per output term, the largest activation among the
        rules with that consequent, or 0.0.

        For each input it finds the reading's piece (raising
        OutOfUniverseError as `LinguisticVariable.piece` does), evaluates the
        degree rows of that piece's alive terms and nothing else, and ANDs
        its rule mask into the candidates: only a candidate reads no term
        that is 0 there. Each candidate's min is taken in antecedent order,
        and one that comes to 0 (an alive edge may underflow to +0.0) is
        dropped, as is every rule left out, whose min is over a 0 degree."""
        candidates = (1 << len(self._rule_slots)) - 1
        degrees = []
        for var, masks, x in zip(self.inputs, self._rule_masks, xs):
            piece = var.piece(x)
            row = {}
            for term, kind, p, w in var._alive[piece]:
                row[term] = (x - p) / w if kind > 0 else (p - x) / w if kind else p
            degrees.append(row)
            candidates &= masks[piece]
        strength = [0.0] * len(self._consequent_samples)
        slots, rule_term, new = self._rule_slots, self._rule_term, tuple.__new__
        while candidates:
            low = candidates & -candidates  # the lowest set bit
            candidates ^= low
            r = low.bit_length() - 1
            degree = 1.0
            for i, term in slots[r]:
                d = degrees[i][term]
                if d < degree:
                    degree = d
            if degree > 0.0:
                t = rule_term[r]
                if degree > strength[t]:
                    strength[t] = degree
                fired.append(new(record, (*heads[r], degree)))
        return tuple(strength)

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
        block's row-wise sums add each row as `infer` does, and each centroid
        is clamped as `infer`'s is. Raises
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
        np.clip(centroid, self._grid[0], self._grid[-1], out=centroid)
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
    summed in ascending-x order, clamped to the grid's ends: the exact one
    lies between them, and the quotient may round past. The same bits as
    clipping once per rule: min and max only select values, so min(max(a,
    b), s) is max(min(a, s), min(b, s)) at every point. A hit gives the bits
    of a miss: equal rows are equal floats, all >= +0.0, so they clip the
    same terms at the same heights. The first fired term's clip starts the
    aggregate: a max with zeros would give it back, as clips are >= +0.0.
    Raises NoRuleFiredError, on every call, when no term fired or the
    aggregate is 0 everywhere: the memo keeps no exception.

    A closure over the subsystem's arrays, not its bound method, so the
    memo does not keep alive the subsystem that holds it."""
    lo, hi = float(grid[0]), float(grid[-1])
    @functools.lru_cache(maxsize=CENTROID_MEMO)
    def centroid(strength: tuple[float, ...]) -> float:
        aggregate = clipped = None
        for act, term in zip(strength, samples):
            if act > 0.0 and aggregate is None:
                aggregate = np.minimum(act, term)
            elif act > 0.0:
                clipped = np.minimum(act, term, out=clipped)
                np.maximum(aggregate, clipped, out=aggregate)
        total = 0.0 if aggregate is None else float(np.add.reduce(aggregate))
        if total <= 0.0:
            raise NoRuleFiredError(variable)
        weighted = np.add.reduce(np.multiply(grid, aggregate, out=aggregate))
        return min(max(float(weighted) / total, lo), hi)
    return centroid


def _grid_runs(samples: list[np.ndarray]
               ) -> tuple[tuple[slice, tuple[int, ...]], ...]:
    """A grid as maximal runs of points where the same terms are > 0,
    given each term's samples on it, at least one. Each run is its points
    and the indices of those terms. `centroids` also passes its sorted rows'
    boolean fired-term keys, as the samples of a grid of rows."""
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
