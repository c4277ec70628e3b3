"""One workload in a fresh process: ``python3 worker.py <config.json>``.

The parent (`run.py`) writes the inputs, starts this process with
``PYTHONPATH`` pointing at the checkout's ``src``, and reads the JSON result
this process writes to ``config["result"]``. Running each workload in its own
process keeps ``ru_maxrss`` a measure of that workload alone.

Untraced, a replay repeats `fuzzgate simulate` while another repetition fits
in `seconds`, probing single-call latency on its own records after each one;
the stream workload runs its closed loop for `seconds`. Traced, each runs once untraced and once under
`tracer.Tracer`, and reports per-layer figures from the spans.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from array import array
from pathlib import Path

from fuzzgate import cascade as cascade_module
from fuzzgate import cli
from fuzzgate.cascade import SEND, bundled_fis_dir
from fuzzgate.core import FuzzyError
from fuzzgate.sim import load_telemetry

from speed import measure_ms
from tracer import SpanTable, Tracer


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate(config: dict) -> tuple[float, dict]:
    """One `fuzzgate simulate` run, timed, and the digests of its reports."""
    out = Path(config["out"])
    argv = ["simulate", "--dataset", config["csv"], "--out", str(out),
            *config["simulate_flags"]]
    start = time.perf_counter()
    status = cli.main(argv)
    elapsed = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"fuzzgate simulate exited with {status}")
    return elapsed, {name: sha256(out / name)
                     for name in ("decisions.csv", "summary.json")}


def readings(config: dict) -> list[dict]:
    records, _ = load_telemetry(config["csv"], policy="skip-bad")
    return [{"temperature": r.temperature, "humidity": r.humidity,
             "appliance_energy": r.appliance_energy,
             "time_of_day": r.time_of_day} for r in records]


class Loop:
    """Closed loop with one caller: evaluate the next reading, read its full
    trace as `eval --json` does, then send the next one."""

    def __init__(self, cascade, inputs: list[dict], keep: int = 0):
        self.cascade = cascade
        self.inputs = inputs
        self.keep = keep
        self.latency_ns = array("q")
        self.failed = 0
        self.elapsed_s = 0.0
        # First `keep` decisions, for the output check.
        self.scores = array("d")
        self.intermediates = array("d")
        self.labels = bytearray()
        self.clamped = bytearray()

    def run(self, calls: int | None = None, seconds: float | None = None) -> float:
        clock = time.perf_counter_ns
        evaluate = self.cascade.evaluate
        inputs, n = self.inputs, len(self.inputs)
        latency = self.latency_ns
        deadline = clock() + int(seconds * 1e9) if seconds is not None else None
        done = len(latency)
        last = done + calls if calls is not None else None
        begin = clock()
        while True:
            i = done % n
            t0 = clock()
            try:
                trace = evaluate(inputs[i], clamp=True)
                fired = [(f.node, f.antecedents, f.consequent, f.activation)
                         for f in trace.fired]
            except FuzzyError:
                trace = fired = None
            t1 = clock()
            latency.append(t1 - t0)
            if not fired:
                self.failed += 1
            if done < self.keep:
                self._keep(trace)
            done += 1
            if done == last:
                break
            if deadline is not None and t1 >= deadline:
                break
        elapsed = (clock() - begin) / 1e9
        self.elapsed_s += elapsed
        return elapsed

    def _keep(self, trace) -> None:
        if trace is None:
            self.scores.append(float("nan"))
            self.intermediates.extend((float("nan"), float("nan")))
            self.labels.append(0)
            self.clamped.append(0)
            return
        self.scores.append(trace.score)
        self.intermediates.extend(trace.intermediates.values())
        self.labels.append(trace.label == SEND)
        self.clamped.append(bool(trace.clamped))

    @property
    def calls(self) -> int:
        return len(self.latency_ns)

    def kept(self) -> dict:
        return {"score": list(self.scores),
                "apparent_temperature": list(self.intermediates[0::2]),
                "appliance_usage_time": list(self.intermediates[1::2]),
                "send": list(self.labels), "clamped": list(self.clamped)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(config: dict, cascade) -> dict:
    """Measured blocks (simulate runs or spans of loop calls), each between
    two timings of the reference work in `speed.py`."""
    blocks, speed_ms = [], []

    def block(**fields):
        blocks.append(fields)
        speed_ms.append(measure_ms(config["speed_s"]))

    if config["workload"] == "stream_single":
        inputs = readings(config)
        Loop(cascade, inputs).run(calls=config["warmup_calls"])
        loop = Loop(cascade, inputs, keep=len(inputs))
        speed_ms.append(measure_ms(config["speed_s"]))
        start = time.perf_counter()
        while time.perf_counter() - start < config["seconds"]:
            first = loop.calls
            elapsed = loop.run(seconds=config["segment_s"])
            block(calls=[first, loop.calls], seconds=elapsed)
        result = {"peak_rss_mb": peak_rss_mb(), "stream": _loop_result(loop)}
        _, result["reference_digests"] = simulate(config)
    else:
        # Latency probes run between repetitions, so they sample the same
        # stretch of time as the repetitions do.
        loop = Loop(cascade, readings(config)[:config["probe_inputs"]])
        Loop(cascade, loop.inputs).run(calls=config["warmup_calls"])
        digests = []
        speed_ms.append(measure_ms(config["speed_s"]))
        start = time.perf_counter()
        while True:
            cycle = time.perf_counter()
            elapsed, digest = simulate(config)
            digests.append(digest)
            block(simulate=elapsed)
            first = loop.calls
            probed = loop.run(calls=config["probe_calls"])
            block(calls=[first, loop.calls], seconds=probed)
            now = time.perf_counter()
            if now - start + (now - cycle) > config["seconds"]:
                break
        result = {"peak_rss_mb": peak_rss_mb(), "digests": digests,
                  "probe": _loop_result(loop)}
    result.update(blocks=blocks, speed_ms=speed_ms)
    return result


def _loop_result(loop: Loop) -> dict:
    return {"latency_ns": list(loop.latency_ns), "calls": loop.calls,
            "failed": loop.failed, "elapsed_s": loop.elapsed_s,
            "kept": loop.kept()}


def run_traced(config: dict, cascade) -> dict:
    """One untraced and one traced pass over the same inputs."""
    tracer = Tracer()
    manifest = bundled_fis_dir() / "cascade.manifest"
    result = {}
    if config["workload"] == "stream_single":
        inputs = readings(config)
        calls = min(config["trace_calls"], len(inputs))
        Loop(cascade, inputs).run(calls=config["warmup_calls"])
        untraced = Loop(cascade, inputs)
        untraced.run(calls=calls)
        tracer.install()
        try:
            with tracer.phase("bench.setup"):
                cascade_module.load_manifest(manifest)
            traced = Loop(cascade, inputs, keep=calls)
            with tracer.phase("bench.stream"):
                traced.run(calls=calls)
            with tracer.phase("bench.simulate"):
                _, result["reference_digests"] = simulate(config)
        finally:
            tracer.uninstall()
        result["stream"] = _loop_result(traced)
        main_root = "bench.stream"
        rate_untraced = untraced.calls / untraced.elapsed_s
        rate_traced = traced.calls / traced.elapsed_s
    else:
        untraced_s, digest = simulate(config)
        tracer.install()
        try:
            with tracer.phase("bench.setup"):
                cascade_module.load_manifest(manifest)
            with tracer.phase("bench.simulate"):
                traced_s, traced_digest = simulate(config)
        finally:
            tracer.uninstall()
        result["digests"] = [digest, traced_digest]
        main_root = "bench.simulate"
        rate_untraced = config["rows"] / untraced_s
        rate_traced = config["rows"] / traced_s
    tracer.save(config["spans"])
    layers = per_layer(tracer, main_root)
    layers["trace.overhead_records_per_s"] = rate_traced - rate_untraced
    result["per_layer"] = layers
    result["records_per_s"] = {"untraced": rate_untraced, "traced": rate_traced}
    return result


def per_layer(tracer: Tracer, main_root: str) -> dict:
    """Per-layer figures. `main_root` is the phase whose decisions feed the
    core and cascade figures; sim and cli figures come from the traced
    `simulate` run."""
    spans = SpanTable(tracer)
    main = tracer.counts[main_root]
    sim = tracer.counts["bench.simulate"]
    records = spans.count("cascade.evaluate", main_root)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "core.activations.calls_per_record":
            ratio(spans.count("core.activations", main_root), records),
        "core.fuzzify.calls_per_record":
            ratio(spans.count("core.fuzzify", main_root), records),
        "core.activations.us_per_call": spans.mean_us("core.activations", main_root),
        "core.infer.self_us_per_call":
            spans.mean_us("core.infer", main_root, self_time=True),
        "core.centroid.us_per_call": spans.mean_us("core.centroid", main_root),
        "core.rules_fired_frac": ratio(main["rules_fired"], main["rules_evaluated"]),
        "cascade.evaluate.self_us_per_call":
            spans.mean_us("cascade.evaluate", main_root, self_time=True),
        "cascade.load_manifest.ms":
            spans.mean_us("cascade.load_manifest", "bench.setup") / 1e3,
        "cascade.clamped_frac": ratio(main["clamped"], records),
        "dsl.load_subsystem.ms": spans.mean_us("dsl.load_subsystem") / 1e3,
        "sim.load_telemetry.us_per_record": ratio(
            spans.total_us("sim.load_telemetry", "bench.simulate"), sim["load_rows"]),
        "sim.load_telemetry.rows_skipped": sim["load_skipped"],
        "sim.run_traditional.us_per_record": ratio(
            spans.total_us("sim.run_traditional", "bench.simulate"),
            sim["traditional_records"]),
        "sim.run_fuzzy.self_us_per_record": ratio(
            spans.total_us("sim.run_fuzzy", "bench.simulate", self_time=True),
            sim["fuzzy_records"]),
        "sim.compare.ms": spans.mean_us("sim.compare", "bench.simulate") / 1e3,
        "cli.cmd_simulate.self_us_per_record": ratio(
            spans.total_us("cli.cmd_simulate", "bench.simulate", self_time=True),
            sim["fuzzy_records"]),
    }


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    cascade = cascade_module.load_manifest(bundled_fis_dir() / "cascade.manifest")
    run = run_traced if config["trace"] else run_untraced
    result = run(config, cascade)
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
