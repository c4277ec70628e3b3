"""Two-stage cascade: FS1 and FS2 in parallel feeding FS3.

Crisp intermediates flow between stages exactly as defuzzified, never
re-quantized. The cascade is immutable after build and evaluation is pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .core import FuzzySubsystem, NoRuleFiredError, OutOfUniverseError
from .dsl import load_subsystem

SEND = "send"
NOT_SEND = "not_send"

DEFAULT_THRESHOLD = 50.0

#: External input names in the order (fs1 inputs..., fs2 inputs...).
DEFAULT_EXTERNALS = ("temperature", "humidity", "appliance_energy", "time_of_day")


class CascadeBuildError(Exception):
    """Invalid wiring or external bindings."""


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
    fs1: FuzzySubsystem
    fs2: FuzzySubsystem
    fs3: FuzzySubsystem
    externals: dict[str, tuple[str, str]]  # external name -> (node, variable)
    threshold: float = DEFAULT_THRESHOLD

    @property
    def nodes(self) -> dict[str, FuzzySubsystem]:
        return {"fs1": self.fs1, "fs2": self.fs2, "fs3": self.fs3}

    def external_variable(self, name: str):
        node, var = self.externals[name]
        return self.nodes[node].input_variable(var)

    def evaluate(self, inputs: dict[str, float], clamp: bool = False) -> DecisionTrace:
        """Topological evaluation: FS1 and FS2, then FS3, then threshold.

        With clamp=True, out-of-universe externals are pulled to the nearest
        universe bound and reported in the trace; otherwise they raise
        OutOfUniverseError. NoRuleFiredError propagates with the node name.
        """
        missing = set(self.externals) - set(inputs)
        if missing:
            raise KeyError(f"missing external inputs: {sorted(missing)}")

        crisp: dict[str, dict[str, float]] = {"fs1": {}, "fs2": {}}
        clamped: list[str] = []
        for name, (node, var_name) in self.externals.items():
            value = float(inputs[name])
            var = self.nodes[node].input_variable(var_name)
            if not var.contains(value):
                if not clamp:
                    raise OutOfUniverseError(var_name, value, var.lo, var.hi)
                value = var.clamp(value)
                clamped.append(name)
            crisp[node][var_name] = value

        fired: list[FiredRule] = []
        intermediates: dict[str, float] = {}

        def run(node: str, fs: FuzzySubsystem, node_inputs: dict[str, float]) -> float:
            agg = fs.infer(node_inputs)
            for rule, act in zip(fs.rules, agg.activations):
                if act > 0.0:
                    fired.append(FiredRule(node, rule.antecedents, rule.consequent, act))
            try:
                return agg.defuzzify_centroid()
            except NoRuleFiredError:
                raise NoRuleFiredError(f"{node}.{fs.output.name}") from None

        apparent = run("fs1", self.fs1, crisp["fs1"])
        usage = run("fs2", self.fs2, crisp["fs2"])
        intermediates[self.fs1.output.name] = apparent
        intermediates[self.fs2.output.name] = usage

        score = run("fs3", self.fs3, {
            self.fs1.output.name: apparent,
            self.fs2.output.name: usage,
        })
        label = decide(score, self.threshold)
        return DecisionTrace(
            inputs={k: float(v) for k, v in inputs.items()},
            clamped=tuple(clamped),
            intermediates=intermediates,
            score=score,
            label=label,
            fired=tuple(fired),
        )


def build_cascade(fs1: FuzzySubsystem, fs2: FuzzySubsystem, fs3: FuzzySubsystem,
                  externals: dict[str, tuple[str, str]] | None = None,
                  threshold: float = DEFAULT_THRESHOLD) -> Cascade:
    """Wire FS1 and FS2 outputs into FS3 and bind the four externals.

    The external names are DEFAULT_EXTERNALS; without `externals`, they bind
    by position to the FS1 then FS2 inputs. Raises WiringMismatchError when
    an FS3 input does not match the name and universe of the corresponding
    producer output, and CascadeBuildError for bad external bindings or a
    non-finite threshold.
    """
    if not math.isfinite(threshold):
        # A NaN threshold would label every record NotSend.
        raise CascadeBuildError(
            f"decision threshold must be a finite number, got {threshold!r}")
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

    if externals is None:
        names = DEFAULT_EXTERNALS
        slots = [("fs1", v.name) for v in fs1.inputs] + \
                [("fs2", v.name) for v in fs2.inputs]
        if len(names) != len(slots):
            raise CascadeBuildError(
                f"expected {len(names)} stage-one inputs, found {len(slots)}")
        externals = dict(zip(names, slots))

    nodes = {"fs1": fs1, "fs2": fs2}
    seen_slots = set()
    for name, (node, var_name) in externals.items():
        if node not in nodes:
            raise CascadeBuildError(f"external '{name}' binds unknown node '{node}'")
        try:
            nodes[node].input_variable(var_name)
        except KeyError:
            raise CascadeBuildError(
                f"external '{name}' binds unknown variable '{node}.{var_name}'")
        if (node, var_name) in seen_slots:
            raise CascadeBuildError(
                f"input '{node}.{var_name}' is fed by more than one external")
        seen_slots.add((node, var_name))
    expected = {("fs1", v.name) for v in fs1.inputs} | {("fs2", v.name) for v in fs2.inputs}
    if seen_slots != expected:
        unfed = sorted(".".join(s) for s in expected - seen_slots)
        raise CascadeBuildError(f"stage-one inputs not fed by any external: {unfed}")
    if set(externals) != set(DEFAULT_EXTERNALS):
        # Callers supply readings under these four names only.
        raise CascadeBuildError(
            f"external names must be {list(DEFAULT_EXTERNALS)}, "
            f"got {sorted(externals)}")

    return Cascade(fs1, fs2, fs3, dict(externals), threshold)


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


def parse_manifest(path: str | Path
                   ) -> tuple[dict[str, Path], dict[str, tuple[str, str]], float]:
    """Read a key/value manifest file: its definition file paths (relative
    to its directory), external bindings and threshold."""
    path = Path(path)
    fis_paths: dict[str, Path] = {}
    externals: dict[str, tuple[str, str]] = {}
    threshold = DEFAULT_THRESHOLD
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CascadeBuildError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CascadeBuildError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in FIS_KEYS:
            fis_paths[key] = path.parent / value
        elif key == "threshold":
            try:
                threshold = float(value)
            except ValueError:
                raise CascadeBuildError(
                    f"{path}:{lineno}: threshold must be a number, got {value!r}"
                ) from None
        elif key.startswith("external "):
            name = key.split(None, 1)[1]
            if "." not in value:
                raise CascadeBuildError(
                    f"{path}:{lineno}: external binding must be <node>.<variable>")
            node, var = value.split(".", 1)
            externals[name] = (node, var)
        else:
            raise CascadeBuildError(f"{path}:{lineno}: unknown key {key!r}")
    return fis_paths, externals, threshold


def load_manifest(path: str | Path, *, fis1: str | Path | None = None,
                  fis2: str | Path | None = None, fis3: str | Path | None = None,
                  threshold: float | None = None) -> Cascade:
    """Build a cascade from a manifest file.

    A given fis1/fis2/fis3 path or threshold overrides the manifest's entry.
    """
    fis_paths, externals, manifest_threshold = parse_manifest(path)
    for key, override in zip(FIS_KEYS, (fis1, fis2, fis3)):
        if override is not None:
            fis_paths[key] = Path(override)
        elif key not in fis_paths:
            raise CascadeBuildError(f"manifest {path} is missing '{key}'")
    fs1, fs2, fs3 = (_load_or_raise(fis_paths[key]) for key in FIS_KEYS)
    return build_cascade(fs1, fs2, fs3, externals=externals or None,
                         threshold=manifest_threshold if threshold is None
                         else threshold)


def bundled_cascade(threshold: float | None = None) -> Cascade:
    """The cascade the bundled manifest describes."""
    return load_manifest(BUNDLED_MANIFEST, threshold=threshold)
