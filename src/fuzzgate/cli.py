"""Command-line front door: `fuzzgate check|eval|simulate`.

Exit codes are stable across subcommands: 0 success, 1 domain/validation
error, 2 I/O failure. `main` maps the package's exceptions to them.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime
from pathlib import Path

import numpy as np

from .cascade import (BUNDLED_MANIFEST, DEFAULT_EXTERNALS, FIS_KEYS, NOT_SEND,
                      SEND, CascadeBuildError, load_manifest, parse_manifest)
from .core import FuzzyError
from .dsl import load_subsystem
from .energy import REFERENCE_JOULES_PER_PACKET, packet_energy
from .sim import (TIMESTAMP_FORMAT, ColumnMapping, SimulationResult, Telemetry,
                  TelemetryError, load_telemetry, run_fuzzy)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

#: Skipped file lines that `simulate` names on stderr before eliding the rest.
SHOWN_SKIPPED = 10

#: Rows of a report built and written at a time. Within a block each float
#: is formatted once per distinct value; the block bounds the text held in
#: memory, which grows with the run when whole columns are formatted at once.
REPORT_BLOCK = 4096

#: The last three fields of a decisions.csv line, label, clamped and
#: failsafe, at index 4 * send + 2 * clamped + failsafe.
_TAILS = np.array([f"{label},{clamped},{failsafe}\n" for label in (NOT_SEND, SEND)
                   for clamped in (0, 1) for failsafe in (0, 1)], dtype=object)


def _add_fis_options(parser: argparse.ArgumentParser):
    parser.add_argument("--fis1", help="FS1 definition file (apparent temperature)")
    parser.add_argument("--fis2", help="FS2 definition file (appliance usage time)")
    parser.add_argument("--fis3", help="FS3 definition file (sending decision)")
    parser.add_argument("--manifest", help="cascade manifest file (default: "
                        "the bundled one); --fisN and --threshold override it")
    parser.add_argument("--threshold", type=float, default=None,
                        help="send/not-send decision threshold (default 50)")


def _add_energy_options(parser: argparse.ArgumentParser):
    parser.add_argument("--energy-mode", choices=["physical", "calibrated"],
                        default="calibrated")
    parser.add_argument("--per-packet-joules", type=float, default=None,
                        help="calibrated mode: joules per packet")
    parser.add_argument("--current", type=float,
                        help="physical mode: transmit current in amperes")
    parser.add_argument("--voltage", type=float,
                        help="physical mode: supply voltage in volts")
    parser.add_argument("--header-bits", type=int,
                        help="physical mode: packet header size in bits")
    parser.add_argument("--data-bits", type=int,
                        help="physical mode: packet payload size in bits")


def _add_mapping_options(parser: argparse.ArgumentParser):
    parser.add_argument("--map-timestamp", default="date")
    parser.add_argument("--map-temp", default="T1")
    parser.add_argument("--map-humidity", default="RH_1")
    parser.add_argument("--map-energy", default="Appliances")
    parser.add_argument("--humidity-scale", choices=["percent", "fraction"],
                        default="percent")


def _joules_per_packet(args) -> float:
    """Joules per packet from the flags the energy mode reads; a flag that
    the mode does not read is an error, so that it is never ignored."""
    physical = {"--current": ("current_a", args.current),
                "--voltage": ("voltage_v", args.voltage),
                "--header-bits": ("header_bits", args.header_bits),
                "--data-bits": ("data_bits", args.data_bits)}
    if args.energy_mode == "physical":
        if args.per_packet_joules is not None:
            raise ValueError("physical energy mode does not read --per-packet-joules")
        return packet_energy(**{name: value for name, value in physical.values()
                                if value is not None})
    unread = [flag for flag, (_, value) in physical.items() if value is not None]
    if unread:
        raise ValueError(f"calibrated energy mode does not read {', '.join(unread)}")
    if args.per_packet_joules is not None:
        return args.per_packet_joules
    return REFERENCE_JOULES_PER_PACKET


def _load_cascade(args):
    return load_manifest(args.manifest or BUNDLED_MANIFEST, fis1=args.fis1,
                         fis2=args.fis2, fis3=args.fis3, threshold=args.threshold)


def _build_mapping(args) -> ColumnMapping:
    return ColumnMapping(timestamp=args.map_timestamp, temperature=args.map_temp,
                         humidity=args.map_humidity,
                         appliance_energy=args.map_energy,
                         humidity_scale=args.humidity_scale)


def cmd_check(args) -> int:
    paths = args.paths
    if not paths:
        fis_paths, _ = parse_manifest(BUNDLED_MANIFEST)
        paths = [str(fis_paths[key]) for key in FIS_KEYS]
    had_error = False
    rule_counts = []
    for path in paths:
        subsystem, diags = load_subsystem(path)
        for d in diags:
            print(d.format(str(path)))
        if subsystem is None:
            had_error = True
        else:
            rule_counts.append(len(subsystem.rules))
            print(f"{path}: ok, system '{subsystem.name}', "
                  f"{len(subsystem.inputs)} inputs, {len(subsystem.rules)} rules")
            for var in subsystem.inputs:
                for lo, hi in var.coverage_gaps():
                    print(f"{path}: warning: input '{var.name}' has no term "
                          f"over [{lo:g}, {hi:g}]: readings there fire no rule "
                          f"that reads it, and a record that fires no rule is "
                          f"sent as a fail-safe")
            for term in subsystem.unseen_output_terms():
                print(f"{path}: warning: output term '{term}' is 0 at every "
                      f"grid point: rules that conclude it never move the "
                      f"centroid")
    if not had_error and len(rule_counts) > 1:
        print("/".join(str(n) for n in rule_counts) + " rules")
    return EXIT_DOMAIN if had_error else EXIT_OK


def cmd_eval(args) -> int:
    readings = (args.temp, args.humidity, args.energy, args.time)
    for flag, value in zip(("--temp", "--humidity", "--energy", "--time"), readings):
        if not math.isfinite(value):
            print(f"error: {flag} must be a finite number, got {value!r}",
                  file=sys.stderr)
            return EXIT_DOMAIN
    trace = _load_cascade(args).evaluate(dict(zip(DEFAULT_EXTERNALS, readings)),
                                         clamp=args.clamp)
    if args.json:
        payload = {
            "inputs": trace.inputs,
            "clamped": list(trace.clamped),
            "intermediates": trace.intermediates,
            "score": trace.score,
            "label": trace.label,
            "fired_rules": [
                {"node": f.node,
                 "if": [{"variable": v, "term": t} for v, t in f.antecedents],
                 "then": {"variable": f.consequent[0], "term": f.consequent[1]},
                 "activation": f.activation}
                for f in trace.fired],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print("inputs:")
    for name, value in trace.inputs.items():
        flag = "  (clamped)" if name in trace.clamped else ""
        print(f"  {name} = {value}{flag}")
    print("intermediates:")
    for name, value in trace.intermediates.items():
        print(f"  {name} = {value:.4f}")
    print("fired rules:")
    for f in trace.fired:
        clause = " and ".join(f"{v} is {t}" for v, t in f.antecedents)
        print(f"  [{f.node}] if {clause} then {f.consequent[0]} is "
              f"{f.consequent[1]}  (activation {f.activation:.4f})")
    print(f"score: {trace.score:.4f}")
    print(f"label: {'Send' if trace.label == SEND else 'NotSend'}")
    return EXIT_OK


def _reprs(column: np.ndarray) -> np.ndarray:
    """`repr` of each float of `column`, as an object array, computed once
    per distinct value. Values are keyed on their bits: keyed on the floats,
    -0.0 would merge with 0.0 and be written as 0.0."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = [repr(x) for x in bits.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[inverse]


def _timestamps(texts: list[str]) -> list[str]:
    # The loader's ISO texts are TIMESTAMP_FORMAT's text, except that they
    # pad a year below 1000 to four digits, where %Y does not. Fixed-width
    # ISO texts sort as their times do, so `min` finds such a year.
    if min(texts) >= "1000":
        return texts
    return [f"{datetime.fromisoformat(t):{TIMESTAMP_FORMAT}}" for t in texts]


def _decision_lines(telemetry: Telemetry, result: SimulationResult,
                    rows: slice) -> str:
    readings = [_reprs(column) for column in telemetry.readings[rows].T]
    outputs = [_reprs(column[rows]) for column in (
        result.apparent_temperature, result.appliance_usage_time, result.score)]
    for texts in outputs:
        texts[result.failsafe[rows]] = ""  # NaN, written as nothing
    tails = _TAILS[4 * result.decisions[rows] + 2 * result.clamped[rows]
                   + result.failsafe[rows]]
    columns = (range(rows.start, rows.stop),
               _timestamps(telemetry.timestamps[rows]),
               *(texts.tolist() for texts in readings + outputs), tails.tolist())
    return "".join([f"{i},{ts},{t},{h},{e},{d},{a},{u},{s},{tail}"
                    for i, ts, t, h, e, d, a, u, s, tail in zip(*columns)])


def _cumulative_lines(result: SimulationResult, rows: slice) -> str:
    # One `repr` pass over both columns: a gated total that adds 0.0 on a
    # suppressed row repeats an always-send total of an earlier row.
    texts = _reprs(result.cumulative[rows].ravel()).tolist()
    return "".join([f"{i},{t},{g}\n" for i, t, g in
                    zip(range(rows.start, rows.stop), texts[::2], texts[1::2])])


def _write_reports(out_dir: Path, telemetry: Telemetry,
                   result: SimulationResult) -> None:
    """Write decisions.csv and cumulative.csv, REPORT_BLOCK rows at a time:
    a block's lines are built with one `repr` per distinct float of each
    column and written with one join. Timestamps are written as the loader
    keeps them, and the two columns of cumulative.csv share one `repr` pass.
    Each block of each report is built in a call of its own, so that its
    strings are freed before the next are made: the writer then holds the
    text of one block at a time."""
    n = len(telemetry)
    with (open(out_dir / "decisions.csv", "w", encoding="utf-8",
               newline="") as decisions,
          open(out_dir / "cumulative.csv", "w", encoding="utf-8",
               newline="") as cumulative):
        decisions.write("index,timestamp,temperature,humidity,appliance_energy,"
                        "time_of_day,apparent_temperature,appliance_usage_time,"
                        "score,label,clamped,failsafe\n")
        cumulative.write("index,traditional_joules,fuzzy_joules\n")
        for start in range(0, n, REPORT_BLOCK):
            rows = slice(start, min(start + REPORT_BLOCK, n))
            decisions.write(_decision_lines(telemetry, result, rows))
            cumulative.write(_cumulative_lines(result, rows))


def cmd_simulate(args) -> int:
    c = _load_cascade(args)
    policy = "strict" if args.strict else "skip-bad"
    try:
        joules_per_packet = _joules_per_packet(args)
        telemetry, report = load_telemetry(args.dataset, _build_mapping(args),
                                           policy)
        result = run_fuzzy(telemetry, c, joules_per_packet)
    except (ValueError, OverflowError) as exc:
        # OverflowError: a packet size too large for a float.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if report.skipped_rows:
        lines = [str(line) for line in report.skipped_rows[:SHOWN_SKIPPED]]
        if report.skipped > SHOWN_SKIPPED:
            lines.append("…")
        print(f"skipped {args.dataset}: lines {', '.join(lines)}",
              file=sys.stderr)
    records = len(telemetry)
    if records and not result.transmissions:
        print(f"warning: none of the {records} records was sent: every "
              f"score is above the threshold {c.threshold!r}", file=sys.stderr)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "records": records,
        "skipped_rows": report.skipped,
        "traditional": {
            "transmissions": records,
            "total_joules": result.traditional_joules,
        },
        "fuzzy": {
            "transmissions": result.transmissions,
            "suppressed": result.suppressed,
            "failsafe_sends": result.failsafe_sends,
            "clamped_records": result.clamped_records,
            "total_joules": result.total_joules,
        },
        "joules_per_packet": joules_per_packet,
        "energy_reduction_pct": result.reduction_pct,
        "transmission_reduction_pct": result.count_reduction_pct,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    _write_reports(out_dir, telemetry, result)

    print(f"{'':<28}{'Traditional':>14}{'Fuzzy':>14}")
    print(f"{'Total transmissions':<28}{records:>14}"
          f"{result.transmissions:>14}")
    print(f"{'Total energy (J)':<28}{result.traditional_joules:>14.1f}"
          f"{result.total_joules:>14.1f}")
    print(f"Energy reduction: {result.reduction_pct:.1f}%")
    if report.skipped:
        print(f"Skipped rows: {report.skipped}")
    if result.clamped_records:
        print(f"Clamped records: {result.clamped_records}")
    if result.failsafe_sends:
        print(f"Fail-safe sends: {result.failsafe_sends}")
    print(f"Reports written to {out_dir}/")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzgate",
        description="Fuzzy transmission gate for IoT temperature/humidity "
                    "telemetry: validate rule files, trace single decisions, "
                    "and replay datasets to compare energy use.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate definition files")
    p_check.add_argument("paths", nargs="*", help="definition files "
                         "(defaults to the bundled three)")
    p_check.set_defaults(func=cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate one reading through the cascade")
    _add_fis_options(p_eval)
    p_eval.add_argument("--temp", type=float, required=True, help="degrees C")
    p_eval.add_argument("--humidity", type=float, required=True,
                        help="relative humidity fraction in [0, 1]")
    p_eval.add_argument("--energy", type=float, required=True,
                        help="appliance energy in Wh")
    p_eval.add_argument("--time", type=float, required=True,
                        help="time of day in fractional hours [0, 24]")
    p_eval.add_argument("--clamp", action="store_true",
                        help="clamp out-of-universe inputs instead of failing")
    p_eval.add_argument("--json", action="store_true",
                        help="emit the decision trace as JSON")
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate",
                           help="replay a telemetry CSV and compare approaches")
    _add_fis_options(p_sim)
    _add_energy_options(p_sim)
    _add_mapping_options(p_sim)
    p_sim.add_argument("--dataset", required=True, help="telemetry CSV path")
    strictness = p_sim.add_mutually_exclusive_group()
    strictness.add_argument("--strict", action="store_true", default=False,
                            help="stop at the first bad row, exit 1")
    strictness.add_argument("--skip-bad", dest="strict", action="store_false",
                            help="skip bad rows and name their lines on "
                                 "stderr (the default)")
    p_sim.add_argument("--out", default="out", help="report output directory")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CascadeBuildError, FuzzyError, TelemetryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
