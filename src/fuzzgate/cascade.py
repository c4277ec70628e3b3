"""Two-stage cascade: FS1 and FS2 in parallel feeding FS3.

Crisp intermediates flow between stages exactly as defuzzified, never
re-quantized. The cascade is immutable after build, and an evaluation's
result depends on its inputs alone: the subsystems' centroid memos change
only what is computed again.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import FiredRule, FuzzySubsystem, NoRuleFiredError, OutOfUniverseError
from .dsl import _COMMENT_RE, MAX_FILE_BYTES, load_subsystem

SEND = "send"
NOT_SEND = "not_send"

DEFAULT_THRESHOLD = 50.0

#: External input names in the order (fs1 inputs..., fs2 inputs...).
DEFAULT_EXTERNALS = ("temperature", "humidity", "appliance_energy", "time_of_day")


class CascadeBuildError(Exception):
    """Invalid wiring, manifest or threshold."""


class WiringMismatchError(CascadeBuildError):
    """A produced variable's name or universe differs from the consuming input."""


@dataclass(frozen=True)
class DecisionTrace:
    inputs: dict[str, float]
    clamped: tuple[str, ...]
    intermediates: dict[str, float]
    score: float
    label: str
    fired: tuple[FiredRule, ...]


def sends(score, threshold: float):
    """Whether a crisp decision score, or each score of an array, is sent:
    at or below the threshold. A score exactly at the threshold is sent, the
    fail-safe tie policy (monitoring continuity wins); a NaN score is not."""
    return score <= threshold


@dataclass(frozen=True)
class Cascade:
    """FS1 and FS2 outputs wired into FS3. The externals bind by position:
    DEFAULT_EXTERNALS[:2] to the FS1 inputs, DEFAULT_EXTERNALS[2:] to the FS2
    inputs. Every cascade, however made (`dataclasses.replace` too), is
    checked: WiringMismatchError when an FS3 input does not match the name and
    universe of its producer's output, CascadeBuildError when FS1 or FS2 does
    not have two inputs, a node has an output term that no grid point sees,
    or the threshold is not finite."""

    fs1: FuzzySubsystem
    fs2: FuzzySubsystem
    fs3: FuzzySubsystem
    threshold: float = DEFAULT_THRESHOLD
    # Per node, per rule: the (node, antecedents, consequent) of its records.
    _heads: tuple[tuple[tuple, ...], ...] = field(
        init=False, repr=False, compare=False)
    # FS3's inputs, in its input order, as producers: 0 is FS1, 1 is FS2.
    _fs3_order: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fs1, fs2, fs3 = self.fs1, self.fs2, self.fs3
        if not math.isfinite(self.threshold):
            # A NaN threshold would label every record NotSend.
            raise CascadeBuildError(
                f"decision threshold must be a finite number, got {self.threshold!r}")
        fs3_inputs = {v.name: v for v in fs3.inputs}
        for producer in (fs1, fs2):
            out = producer.output
            consumer = fs3_inputs.get(out.name)
            if consumer is None:
                raise WiringMismatchError(
                    f"'{producer.name}' produces '{out.name}' but '{fs3.name}' "
                    f"has no input of that name")
            if (consumer.lo, consumer.hi) != (out.lo, out.hi):
                raise WiringMismatchError(
                    f"universe mismatch on '{out.name}': {producer.name} produces "
                    f"[{out.lo}, {out.hi}] but {fs3.name} consumes "
                    f"[{consumer.lo}, {consumer.hi}]")
        if len(fs3.inputs) != 2 or fs1.output.name == fs2.output.name:
            raise WiringMismatchError(
                "decision stage must consume exactly the two distinct "
                "intermediate variables")
        if (len(fs1.inputs), len(fs2.inputs)) != (2, 2):
            raise CascadeBuildError(
                f"expected {len(DEFAULT_EXTERNALS)} stage-one inputs, two per node, "
                f"found {len(fs1.inputs)} on '{fs1.name}' and {len(fs2.inputs)} "
                f"on '{fs2.name}'")
        for node, fs in self.nodes.items():
            unseen = fs.unseen_output_terms()
            if unseen:
                raise CascadeBuildError(
                    f"node '{node}' (system '{fs.name}'): output term(s) "
                    f"{', '.join(repr(t) for t in unseen)} of '{fs.output.name}' "
                    f"are 0 at every grid point: rules that conclude them "
                    f"would fire and never move the centroid")
        object.__setattr__(self, "_heads", tuple(
            tuple((node, rule.antecedents, rule.consequent) for rule in fs.rules)
            for node, fs in self.nodes.items()))
        object.__setattr__(self, "_fs3_order", (0, 1) if fs3.inputs[0].name
                           == fs1.output.name else (1, 0))

    @property
    def nodes(self) -> dict[str, FuzzySubsystem]:
        return {"fs1": self.fs1, "fs2": self.fs2, "fs3": self.fs3}

    @property
    def externals(self) -> dict[str, tuple[str, str]]:
        """External name -> (node, input variable), bound by position."""
        slots = [("fs1", v.name) for v in self.fs1.inputs] + \
                [("fs2", v.name) for v in self.fs2.inputs]
        return dict(zip(DEFAULT_EXTERNALS, slots))

    def external_variable(self, name: str):
        node, var = self.externals[name]
        return self.nodes[node].input_variable(var)

    def evaluate(self, inputs: dict[str, float], clamp: bool = False) -> DecisionTrace:
        """Topological evaluation: FS1 and FS2, then FS3, then threshold.

        With clamp=True, out-of-universe externals are pulled to the nearest
        universe bound and reported in the trace; otherwise they raise
        OutOfUniverseError. NoRuleFiredError propagates with the node name.
        The trace's inputs are the four readings as floats, before clamping,
        in DEFAULT_EXTERNALS order; other keys of `inputs` are not read. Its
        fired rules are those of FS1, FS2 and FS3 in turn, each node's in
        rule-bank order, as each node's `FuzzySubsystem.activate` gives them.
        """
        missing = set(DEFAULT_EXTERNALS) - set(inputs)
        if missing:
            raise KeyError(f"missing external inputs: {sorted(missing)}")

        readings: dict[str, float] = {}
        values: list[float] = []  # FS1's inputs, then FS2's, in input order
        clamped: list[str] = []
        for name, var in zip(DEFAULT_EXTERNALS, self.fs1.inputs + self.fs2.inputs):
            value = readings[name] = float(inputs[name])
            if not var.contains(value):
                if not clamp:
                    raise OutOfUniverseError(var.name, value, var.lo, var.hi)
                value = var.clamp(value)
                clamped.append(name)
            values.append(value)

        fs1, fs2, fs3 = self.fs1, self.fs2, self.fs3
        heads1, heads2, heads3 = self._heads
        fired: list[FiredRule] = []
        node = "fs1"  # the node that runs: NoRuleFiredError names it
        try:
            apparent = fs1._centroid(fs1.activate(values[:2], heads1, fired))
            node = "fs2"
            usage = fs2._centroid(fs2.activate(values[2:], heads2, fired))
            node = "fs3"
            i, j = self._fs3_order  # the intermediates in FS3's input order
            crisp = (apparent, usage)
            score = fs3._centroid(fs3.activate((crisp[i], crisp[j]), heads3, fired))
        except NoRuleFiredError:
            raise NoRuleFiredError(f"{node}.{self.nodes[node].output.name}") from None
        label = SEND if sends(score, self.threshold) else NOT_SEND
        return DecisionTrace(readings, tuple(clamped),
                             {fs1.output.name: apparent, fs2.output.name: usage},
                             score, label, tuple(fired))

    def evaluate_columns(self, columns: Sequence[np.ndarray]
                         ) -> tuple[np.ndarray, ...]:
        """Batch form of `evaluate(..., clamp=True)` over one column per
        external, in DEFAULT_EXTERNALS order.

        Returns four arrays, one entry per row: the mask of rows with a
        clamped reading, the two intermediates (FS1's, then FS2's) and the
        score. Where no rule fired at some node (a NaN centroid of
        `FuzzySubsystem.centroids`), the intermediates and the score are NaN,
        so a NaN score is the row's one fail-safe mark. Every other row is
        bit-identical to `evaluate`. Each node runs its grid stage once per
        distinct row of rule strengths. A NaN reading raises
        OutOfUniverseError.
        """
        clamped = np.zeros(len(columns[0]), dtype=bool)
        node_columns = []
        for xs, var in zip(columns, self.fs1.inputs + self.fs2.inputs):
            xs = np.asarray(xs, dtype=float)
            outside = (xs < var.lo) | (xs > var.hi)
            clamped |= outside
            node_columns.append(np.clip(xs, var.lo, var.hi) if outside.any()
                                else xs)
        usage = self.fs2.centroids(node_columns[2:])
        apparent = self.fs1.centroids(node_columns[:2])
        del node_columns  # so that FS3 reuses their memory
        # FS3 runs on the rows where both producers fired; a row's bits do
        # not depend on the other rows.
        both = ~(np.isnan(apparent) | np.isnan(usage))
        crisp = {self.fs1.output.name: apparent, self.fs2.output.name: usage}
        score = np.full(len(both), np.nan)
        score[both] = self.fs3.centroids(
            [crisp[v.name][both] for v in self.fs3.inputs])
        no_rule_fired = np.isnan(score)
        apparent[no_rule_fired] = usage[no_rule_fired] = np.nan
        return clamped, apparent, usage, score


#: The manifest that wires the bundled definition files.
BUNDLED_MANIFEST = Path(__file__).parent / "data" / "cascade.manifest"

FIS_KEYS = ("fis1", "fis2", "fis3")


def bundled_fis_dir() -> Path:
    """Directory holding the bundled definition files and manifest."""
    return BUNDLED_MANIFEST.parent


def _load_or_raise(path: Path) -> FuzzySubsystem:
    subsystem, diags = load_subsystem(path)
    if subsystem is None:
        errors = "; ".join(d.format(str(path)) for d in diags if d.severity == "error")
        raise CascadeBuildError(f"invalid definition file: {errors}")
    return subsystem


def parse_manifest(path: str | Path) -> tuple[dict[str, Path], float]:
    """Read a key/value manifest file: its definition file paths (relative
    to its directory) and threshold. Comments follow the definition
    language's rule: a word that starts with `#` begins one, and a `#`
    inside a word, as in a path, is part of it. Refuses a file over
    MAX_FILE_BYTES."""
    path = Path(path)
    fis_paths: dict[str, Path] = {}
    threshold = DEFAULT_THRESHOLD
    key_lines: dict[str, int] = {}
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise CascadeBuildError(f"{path}: file is over {MAX_FILE_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CascadeBuildError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.sub("", raw, 1).strip()
        if not line:
            continue
        if "=" not in line:
            raise CascadeBuildError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in key_lines:
            raise CascadeBuildError(f"{path}:{lineno}: {key} given twice, "
                                    f"first on line {key_lines[key]}")
        key_lines[key] = lineno
        if key in FIS_KEYS:
            if not value:  # the manifest's directory would be read
                raise CascadeBuildError(f"{path}:{lineno}: {key} has no path")
            if "\0" in value:  # open() would raise ValueError
                raise CascadeBuildError(
                    f"{path}:{lineno}: {key} path contains a NUL byte")
            fis_paths[key] = path.parent / value
        elif key == "threshold":
            try:
                threshold = float(value)
            except ValueError:
                raise CascadeBuildError(
                    f"{path}:{lineno}: threshold must be a number, got {value!r}"
                ) from None
        else:
            raise CascadeBuildError(f"{path}:{lineno}: unknown key {key!r}")
    return fis_paths, threshold


def load_manifest(path: str | Path, *, fis1: str | Path | None = None,
                  fis2: str | Path | None = None, fis3: str | Path | None = None,
                  threshold: float | None = None) -> Cascade:
    """Build a cascade from a manifest file.

    A given fis1/fis2/fis3 path or threshold overrides the manifest's entry.
    """
    fis_paths, manifest_threshold = parse_manifest(path)
    for key, override in zip(FIS_KEYS, (fis1, fis2, fis3)):
        if override is not None:
            fis_paths[key] = Path(override)
        elif key not in fis_paths:
            raise CascadeBuildError(f"manifest {path} is missing '{key}'")
    fs1, fs2, fs3 = (_load_or_raise(fis_paths[key]) for key in FIS_KEYS)
    return Cascade(fs1, fs2, fs3, manifest_threshold if threshold is None
                   else threshold)

