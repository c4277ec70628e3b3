"""Two-stage cascade: FS1 and FS2 in parallel feeding FS3.

Crisp intermediates flow between stages exactly as defuzzified, never
re-quantized. The cascade is immutable after build, and an evaluation's
result depends on its inputs alone: the subsystems' centroid memos change
only what is computed again.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FuzzySubsystem, NoRuleFiredError, OutOfUniverseError
from .dsl import _COMMENT_RE, load_subsystem

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
class FiredRule:
    node: str
    antecedents: tuple[tuple[str, str], ...]
    consequent: tuple[str, str]
    activation: float


@dataclass(frozen=True)
class DecisionTrace:
    inputs: dict[str, float]
    clamped: tuple[str, ...]
    intermediates: dict[str, float]
    score: float
    label: str
    fired: tuple[FiredRule, ...]


def decide(score: float, threshold: float = DEFAULT_THRESHOLD) -> str:
    """Map the crisp decision score to a send / not-send label.

    Send below the threshold; a score exactly at the threshold is Send, the
    fail-safe tie policy (monitoring continuity wins). NotSend above it.
    """
    return SEND if score <= threshold else NOT_SEND


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
        in DEFAULT_EXTERNALS order; other keys of `inputs` are not read.
        """
        missing = set(DEFAULT_EXTERNALS) - set(inputs)
        if missing:
            raise KeyError(f"missing external inputs: {sorted(missing)}")

        readings: dict[str, float] = {}
        node_inputs: tuple[dict[str, float], dict[str, float]] = ({}, {})
        clamped: list[str] = []
        slots = zip(DEFAULT_EXTERNALS, self.fs1.inputs + self.fs2.inputs)
        for i, (name, var) in enumerate(slots):
            value = readings[name] = float(inputs[name])
            if not var.contains(value):
                if not clamp:
                    raise OutOfUniverseError(var.name, value, var.lo, var.hi)
                value = var.clamp(value)
                clamped.append(name)
            node_inputs[i // 2][var.name] = value  # two readings per node

        fired: list[FiredRule] = []

        def run(node: str, fs: FuzzySubsystem, crisp: dict[str, float]) -> float:
            try:
                agg = fs.infer(crisp)
            except NoRuleFiredError:
                raise NoRuleFiredError(f"{node}.{fs.output.name}") from None
            fired.extend(FiredRule(node, rule.antecedents, rule.consequent, act)
                         for rule, act in zip(fs.rules, agg.activations) if act > 0.0)
            return agg.centroid

        intermediates = {self.fs1.output.name: run("fs1", self.fs1, node_inputs[0]),
                         self.fs2.output.name: run("fs2", self.fs2, node_inputs[1])}
        score = run("fs3", self.fs3, intermediates)
        return DecisionTrace(readings, tuple(clamped), intermediates, score,
                             decide(score, self.threshold), tuple(fired))

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
        distinct row of rule strengths. A NaN reading, or an intermediate
        outside FS3's universe, raises OutOfUniverseError.
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
        # FS3 reads NaN (no rule fired) as its lower bound; the row is masked.
        crisp = {self.fs1.output.name: apparent, self.fs2.output.name: usage}
        score = self.fs3.centroids(
            [np.nan_to_num(crisp[v.name], nan=v.lo) for v in self.fs3.inputs])
        no_rule_fired = np.isnan(apparent) | np.isnan(usage) | np.isnan(score)
        apparent[no_rule_fired] = usage[no_rule_fired] = np.nan
        score[no_rule_fired] = np.nan
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
    inside a word, as in a path, is part of it."""
    path = Path(path)
    fis_paths: dict[str, Path] = {}
    threshold = DEFAULT_THRESHOLD
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CascadeBuildError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.sub("", raw, 1).strip()
        if not line:
            continue
        if "=" not in line:
            raise CascadeBuildError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in FIS_KEYS:
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

