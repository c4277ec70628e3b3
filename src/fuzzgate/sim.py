"""Telemetry replay: load a CSV of sensor readings, gate each record through
the cascade, and price the gated run against the always-send baseline in the
same pass.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .cascade import Cascade, SEND
from .core import NoRuleFiredError

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"


class TelemetryError(Exception):
    pass


class MissingColumnError(TelemetryError):
    def __init__(self, columns: list[str], path):
        self.columns = columns
        super().__init__(f"{path}: header is missing mapped columns {columns}")


class RowError(TelemetryError):
    def __init__(self, path, line: int, field_name: str, message: str):
        self.line = line
        self.field_name = field_name
        super().__init__(f"{path}: line {line}, field '{field_name}': {message}")


@dataclass(frozen=True)
class ColumnMapping:
    timestamp: str = "date"
    temperature: str = "T1"
    humidity: str = "RH_1"
    appliance_energy: str = "Appliances"
    humidity_scale: str = "percent"  # "percent" | "fraction"

    def __post_init__(self):
        names = (self.timestamp, self.temperature, self.humidity,
                 self.appliance_energy)
        if len(set(names)) != 4:
            raise ValueError(f"mapped column names must be distinct: {names}")
        if self.humidity_scale not in ("percent", "fraction"):
            raise ValueError(f"unknown humidity scale {self.humidity_scale!r}")


@dataclass(frozen=True)
class TelemetryRecord:
    timestamp: datetime
    temperature: float
    humidity: float  # relative humidity as a fraction in [0, 1]
    appliance_energy: float  # Wh for the interval

    @property
    def time_of_day(self) -> float:
        """Fractional hours since midnight, on [0, 24)."""
        t = self.timestamp
        return t.hour + t.minute / 60 + t.second / 3600


@dataclass(frozen=True)
class LoadReport:
    loaded: int
    skipped: int
    skipped_rows: tuple[int, ...]  # file line of each skipped row


def load_telemetry(path: str | Path, mapping: ColumnMapping | None = None,
                   policy: str = "strict"
                   ) -> tuple[list[TelemetryRecord], LoadReport]:
    """Read records in file order from an RFC-4180-style CSV with a header.

    policy="strict" raises RowError on the first bad row; "skip-bad" counts
    and skips bad rows instead. Blank lines are skipped. Errors name the
    file line a row starts on. Humidity is divided by 100 under the percent
    scale.
    """
    if policy not in ("strict", "skip-bad"):
        raise ValueError(f"unknown policy {policy!r}")
    mapping = mapping or ColumnMapping()
    records: list[TelemetryRecord] = []
    skipped_rows: list[int] = []
    line = 1  # first file line of the record being read
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            wanted = [mapping.timestamp, mapping.temperature, mapping.humidity,
                      mapping.appliance_energy]
            missing = [c for c in wanted if c not in header]
            if missing:
                raise MissingColumnError(missing, path)
            line = reader.line_num + 1
            for fields in reader:
                if fields:
                    try:
                        records.append(_parse_row(dict(zip(header, fields)),
                                                  mapping, path, line))
                    except RowError:
                        if policy == "strict":
                            raise
                        skipped_rows.append(line)
                line = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise TelemetryError(f"{path}: {exc}") from None
    except csv.Error as exc:
        raise TelemetryError(f"{path}: record starting at line {line}: {exc}"
                             ) from None
    return records, LoadReport(len(records), len(skipped_rows), tuple(skipped_rows))


def _parse_row(row: dict, mapping: ColumnMapping, path, line: int
               ) -> TelemetryRecord:
    def number(column: str) -> float:
        raw = (row.get(column) or "").strip().strip('"')
        try:
            value = float(raw)
        except ValueError:
            raise RowError(path, line, column, f"not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise RowError(path, line, column, f"not finite: {raw!r}")
        return value

    raw_ts = (row.get(mapping.timestamp) or "").strip().strip('"')
    try:
        timestamp = datetime.strptime(raw_ts, TIMESTAMP_FORMAT)
    except ValueError:
        raise RowError(path, line, mapping.timestamp,
                       f"not a timestamp: {raw_ts!r}") from None
    humidity = number(mapping.humidity)
    if mapping.humidity_scale == "percent":
        humidity /= 100.0
    return TelemetryRecord(
        timestamp=timestamp,
        temperature=number(mapping.temperature),
        humidity=humidity,
        appliance_energy=number(mapping.appliance_energy),
    )


@dataclass(frozen=True)
class Decision:
    index: int
    timestamp: datetime
    temperature: float
    humidity: float
    appliance_energy: float
    time_of_day: float
    apparent_temperature: float | None
    appliance_usage_time: float | None
    score: float | None
    label: str
    clamped: bool = False
    failsafe: bool = False


@dataclass(frozen=True)
class SimulationResult:
    """The gated run over a record set, priced against always-send on the
    same records."""

    transmissions: int
    suppressed: int
    failsafe_sends: int
    clamped_records: int
    total_joules: float
    traditional_joules: float
    reduction_pct: float
    count_reduction_pct: float
    decisions: tuple[Decision, ...]
    cumulative: tuple[tuple[float, float], ...]  # (always-send, gated) per record


def run_fuzzy(records: list[TelemetryRecord], cascade: Cascade,
              joules_per_packet: float) -> SimulationResult:
    """Gate each record through the cascade; transmit only on a Send label.

    Every transmission costs joules_per_packet, which must be finite and
    > 0. Always-send, which transmits every record, is priced in the same
    pass. Out-of-universe readings are clamped to the nearest universe bound
    and counted. When no rule fires at some node the record is sent anyway
    and counted as a fail-safe send: monitoring must not silently drop data.
    """
    if not (math.isfinite(joules_per_packet) and joules_per_packet > 0):
        raise ValueError(f"joules per packet must be finite and > 0, "
                         f"got {joules_per_packet!r}")
    decisions = []
    cumulative = []
    transmissions = 0
    failsafe_sends = 0
    clamped_records = 0
    always = 0.0
    gated = 0.0
    for i, record in enumerate(records):
        time_of_day = record.time_of_day
        inputs = {
            "temperature": record.temperature,
            "humidity": record.humidity,
            "appliance_energy": record.appliance_energy,
            "time_of_day": time_of_day,
        }
        try:
            trace = cascade.evaluate(inputs, clamp=True)
        except NoRuleFiredError:
            apparent = usage = score = None
            label, clamped, fell_back = SEND, False, True
            failsafe_sends += 1
        else:
            apparent = trace.intermediates[cascade.fs1.output.name]
            usage = trace.intermediates[cascade.fs2.output.name]
            score, label = trace.score, trace.label
            clamped, fell_back = bool(trace.clamped), False
        decision = Decision(
            index=i, timestamp=record.timestamp,
            temperature=record.temperature, humidity=record.humidity,
            appliance_energy=record.appliance_energy,
            time_of_day=time_of_day, apparent_temperature=apparent,
            appliance_usage_time=usage, score=score, label=label,
            clamped=clamped, failsafe=fell_back)
        clamped_records += int(clamped)
        always += joules_per_packet
        if label == SEND:
            transmissions += 1
            gated += joules_per_packet
        cumulative.append((always, gated))
        decisions.append(decision)
    traditional_joules = len(records) * joules_per_packet
    if math.isinf(max(always, traditional_joules)):
        raise ValueError(f"{len(records)} packets of {joules_per_packet!r} J "
                         f"overflow a float")
    total_joules = transmissions * joules_per_packet
    reduction = count_reduction = 0.0
    if records:
        reduction = (1.0 - total_joules / traditional_joules) * 100.0
        count_reduction = (1.0 - transmissions / len(records)) * 100.0
    return SimulationResult(
        transmissions=transmissions,
        suppressed=len(records) - transmissions,
        failsafe_sends=failsafe_sends,
        clamped_records=clamped_records,
        total_joules=total_joules,
        traditional_joules=traditional_joules,
        reduction_pct=reduction,
        count_reduction_pct=count_reduction,
        decisions=tuple(decisions),
        cumulative=tuple(cumulative),
    )
