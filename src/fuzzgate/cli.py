"""Command-line front door: `fuzzgate check|eval|simulate`.

Exit codes are stable across subcommands: 0 success, 1 domain/validation
error, 2 I/O failure. `main` maps the package's exceptions to them.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cascade import (BUNDLED_MANIFEST, FIS_KEYS, NOT_SEND, SEND,
                      CascadeBuildError, load_manifest, parse_manifest)
from .core import FuzzyError
from .dsl import load_subsystem
from .energy import REFERENCE_JOULES_PER_PACKET, packet_energy
from .sim import ColumnMapping, TelemetryError, load_telemetry, run_fuzzy

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

#: Skipped file lines that `simulate` names on stderr before eliding the rest.
SHOWN_SKIPPED = 10


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
    parser.add_argument("--current", type=float, default=0.280,
                        help="physical mode: transmit current in amperes")
    parser.add_argument("--voltage", type=float, default=5.0,
                        help="physical mode: supply voltage in volts")
    parser.add_argument("--header-bits", type=int, default=288)
    parser.add_argument("--data-bits", type=int, default=960)


def _add_mapping_options(parser: argparse.ArgumentParser):
    parser.add_argument("--map-timestamp", default="date")
    parser.add_argument("--map-temp", default="T1")
    parser.add_argument("--map-humidity", default="RH_1")
    parser.add_argument("--map-energy", default="Appliances")
    parser.add_argument("--humidity-scale", choices=["percent", "fraction"],
                        default="percent")


def _joules_per_packet(args) -> float:
    if args.energy_mode == "physical":
        return packet_energy(args.current, args.voltage, args.header_bits,
                             args.data_bits)
    if args.per_packet_joules is not None:
        return args.per_packet_joules
    return REFERENCE_JOULES_PER_PACKET


def _build_cascade(args):
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
    if not had_error and len(rule_counts) > 1:
        print("/".join(str(n) for n in rule_counts) + " rules")
    return EXIT_DOMAIN if had_error else EXIT_OK


def cmd_eval(args) -> int:
    c = _build_cascade(args)
    inputs = {"temperature": args.temp, "humidity": args.humidity,
              "appliance_energy": args.energy, "time_of_day": args.time}
    trace = c.evaluate(inputs, clamp=args.clamp)
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
    print(f"label: {'Send' if trace.label == 'send' else 'NotSend'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    c = _build_cascade(args)
    policy = "strict" if args.strict else "skip-bad"
    try:
        joules_per_packet = _joules_per_packet(args)
        records, report = load_telemetry(args.dataset, _build_mapping(args),
                                         policy)
        result = run_fuzzy(records, c, joules_per_packet)
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
    if records and not result.transmissions:
        print(f"warning: none of the {len(records)} records was sent: every "
              f"score is above the threshold {c.threshold!r}", file=sys.stderr)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "records": len(records),
        "skipped_rows": report.skipped,
        "traditional": {
            "transmissions": len(records),
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

    with open(out_dir / "decisions.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("index,timestamp,temperature,humidity,appliance_energy,"
                 "time_of_day,apparent_temperature,appliance_usage_time,"
                 "score,label,clamped,failsafe\n")
        rows = zip(records, *(column.tolist() for column in (
            result.apparent_temperature, result.appliance_usage_time,
            result.score, result.decisions, result.clamped, result.failsafe)))
        for i, (r, apparent, usage, score, send, clamped, failsafe) in enumerate(rows):
            outputs = ",," if failsafe else f"{apparent!r},{usage!r},{score!r}"
            fh.write(f"{i},{r.timestamp:%Y-%m-%d %H:%M:%S},{r.temperature!r},"
                     f"{r.humidity!r},{r.appliance_energy!r},{r.time_of_day!r},"
                     f"{outputs},{SEND if send else NOT_SEND},{int(clamped)},"
                     f"{int(failsafe)}\n")

    with open(out_dir / "cumulative.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("index,traditional_joules,fuzzy_joules\n")
        for i, (t, f) in enumerate(result.cumulative.tolist()):
            fh.write(f"{i},{t!r},{f!r}\n")

    print(f"{'':<28}{'Traditional':>14}{'Fuzzy':>14}")
    print(f"{'Total transmissions':<28}{len(records):>14}"
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
    strictness.add_argument("--strict", action="store_true", default=False)
    strictness.add_argument("--skip-bad", dest="strict", action="store_false")
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
