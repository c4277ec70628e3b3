"""Span tracing of fuzzgate from outside the package.

`Tracer.install()` replaces the public functions and methods named in
`SPANS` with wrappers that record one span per call: name, start, end,
parent span, root span and record id. A record id is the number of the
`Cascade.evaluate` call the span belongs to, so every span of one decision
shares it. Spans live in flat arrays until `save()` writes them out.
Names that `fuzzgate.cli` and the package re-export with `from ... import`
are replaced too, so calls through either name are seen.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

#: span name -> (module, attribute path) of the wrapped callable.
SPANS = {
    "dsl.load_subsystem": ("fuzzgate.dsl", "load_subsystem"),
    "cascade.load_manifest": ("fuzzgate.cascade", "load_manifest"),
    "cascade.build_cascade": ("fuzzgate.cascade", "build_cascade"),
    "cascade.evaluate": ("fuzzgate.cascade", "Cascade.evaluate"),
    "core.activations": ("fuzzgate.core", "FuzzySubsystem.activations"),
    "core.fuzzify": ("fuzzgate.core", "LinguisticVariable.fuzzify"),
    "core.infer": ("fuzzgate.core", "FuzzySubsystem.infer"),
    "core.centroid": ("fuzzgate.core", "AggregatedOutput.defuzzify_centroid"),
    "sim.load_telemetry": ("fuzzgate.sim", "load_telemetry"),
    "sim.run_traditional": ("fuzzgate.sim", "run_traditional"),
    "sim.run_fuzzy": ("fuzzgate.sim", "run_fuzzy"),
    "sim.compare": ("fuzzgate.sim", "compare"),
    "cli.cmd_simulate": ("fuzzgate.cli", "cmd_simulate"),
}

#: Modules whose namespaces may hold re-exported copies of wrapped functions.
NAMESPACES = ("fuzzgate", "fuzzgate.core", "fuzzgate.dsl", "fuzzgate.cascade",
              "fuzzgate.sim", "fuzzgate.cli")

#: The span that starts a new record id.
RECORD_SPAN = "cascade.evaluate"


def _observe_activations(counts: Counter, acts) -> None:
    counts["rules_evaluated"] += len(acts)
    counts["rules_fired"] += sum(1 for a in acts if a > 0.0)


def _observe_evaluate(counts: Counter, trace) -> None:
    counts["clamped"] += bool(trace.clamped)


def _observe_load(counts: Counter, result) -> None:
    report = result[1]
    counts["load_rows"] += report.loaded + report.skipped
    counts["load_skipped"] += report.skipped


def _observe_run_fuzzy(counts: Counter, result) -> None:
    counts["fuzzy_records"] += len(result.decisions)


def _observe_run_traditional(counts: Counter, result) -> None:
    counts["traditional_records"] += len(result.decisions)


#: Counters read from return values, at the boundary where the work is done.
OBSERVERS = {
    "core.activations": _observe_activations,
    "cascade.evaluate": _observe_evaluate,
    "sim.load_telemetry": _observe_load,
    "sim.run_fuzzy": _observe_run_fuzzy,
    "sim.run_traditional": _observe_run_traditional,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.root = array("i")
        self.record = array("i")
        #: root span name -> counters observed under spans of that root.
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._records = 0
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, new_record: bool) -> int:
        idx = len(self.start)
        stack = self._stack
        if stack:
            parent = stack[-1]
            root = self.root[parent]
            record = self.record[parent]
        else:
            parent, root, record = -1, idx, -1
        if new_record:
            record = self._records
            self._records += 1
        self.name.append(name_id)
        self.parent.append(parent)
        self.root.append(root)
        self.record.append(record)
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span the benchmark opens around one of its own steps."""
        idx = self._open(self._name_id(name), False)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        new_record = name == RECORD_SPAN
        observe = OBSERVERS.get(name)
        counts, names, name_of, root_of = (self.counts, self.names, self.name,
                                           self.root)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id, new_record)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(counts[names[name_of[root_of[idx]]]], result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every callable in SPANS, including re-exported copies."""
        modules = [importlib.import_module(m) for m in NAMESPACES]
        for name, (module_name, path) in SPANS.items():
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            if owner_path:
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "root": np.frombuffer(self.root, dtype=np.int32),
                "record": np.frombuffer(self.record, dtype=np.int32)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Durations and self times of the recorded spans, by name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.root = a["root"]
        self.duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        parent = a["parent"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=self.duration[has_parent],
                               minlength=len(self.duration))
        self.self_time = self.duration - children

    def select(self, name: str, root_name: str | None = None) -> np.ndarray:
        """Mask of spans called `name`, optionally only under root spans
        called `root_name`."""
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        mask = self.name == self.names.index(name)
        if root_name is not None:
            mask &= self.select(root_name)[self.root]
        return mask

    def count(self, name: str, root_name: str | None = None) -> int:
        return int(self.select(name, root_name).sum())

    def total_us(self, name: str, root_name: str | None = None,
                 self_time: bool = False) -> float:
        values = self.self_time if self_time else self.duration
        return float(values[self.select(name, root_name)].sum()) / 1e3

    def mean_us(self, name: str, root_name: str | None = None,
                self_time: bool = False) -> float:
        n = self.count(name, root_name)
        return self.total_us(name, root_name, self_time) / n if n else 0.0
