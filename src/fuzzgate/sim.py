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

from .cascade import Cascade, NOT_SEND, SEND
from .core import NoRuleFiredError
from .energy import EnergyMode, packet_energy

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"


class TelemetryError(Exception):
    pass


class MissingColumnError(TelemetryError):
    def __init__(self, columns: list[str], path):
        self.columns = columns
        super().__init__(f"{path}: header is missing mapped columns {columns}")


class RowError(TelemetryError):
    def __init__(self, row: int, field_name: str, message: str):
        self.row = row
        self.field_name = field_name
        super().__init__(f"row {row}, field '{field_name}': {message}")


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
    skipped_rows: tuple[int, ...]


def load_telemetry(path: str | Path, mapping: ColumnMapping | None = None,
                   policy: str = "strict"
                   ) -> tuple[list[TelemetryRecord], LoadReport]:
    """Read records in file order from an RFC-4180-style CSV with a header.

    policy="strict" raises RowError on the first bad row; "skip-bad" counts
    and skips bad rows instead. Humidity is divided by 100 under the percent
    scale.
    """
    if policy not in ("strict", "skip-bad"):
        raise ValueError(f"unknown policy {policy!r}")
    mapping = mapping or ColumnMapping()
    records: list[TelemetryRecord] = []
    skipped_rows: list[int] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            wanted = [mapping.timestamp, mapping.temperature, mapping.humidity,
                      mapping.appliance_energy]
            missing = [c for c in wanted if c not in header]
            if missing:
                raise MissingColumnError(missing, path)
            for rownum, row in enumerate(reader, start=2):  # row 1 is the header
                try:
                    records.append(_parse_row(row, mapping, rownum))
                except RowError:
                    if policy == "strict":
                        raise
                    skipped_rows.append(rownum)
    except UnicodeDecodeError as exc:
        raise TelemetryError(f"{path}: {exc}") from None
    return records, LoadReport(len(records), len(skipped_rows), tuple(skipped_rows))


def _parse_row(row: dict, mapping: ColumnMapping, rownum: int) -> TelemetryRecord:
    def number(column: str) -> float:
        raw = (row.get(column) or "").strip().strip('"')
        try:
            value = float(raw)
        except ValueError:
            raise RowError(rownum, column, f"not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise RowError(rownum, column, f"not finite: {raw!r}")
        return value

    raw_ts = (row.get(mapping.timestamp) or "").strip().strip('"')
    try:
        timestamp = datetime.strptime(raw_ts, TIMESTAMP_FORMAT)
    except ValueError:
        raise RowError(rownum, mapping.timestamp,
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

    total_records: int
    transmissions: int
    suppressed: int
    skipped: int
    failsafe_sends: int
    clamped_records: int
    joules_per_packet: float
    total_joules: float
    traditional_joules: float
    reduction_pct: float
    count_reduction_pct: float
    decisions: tuple[Decision, ...]
    cumulative: tuple[tuple[float, float], ...]  # (always-send, gated) per record


def run_fuzzy(records: list[TelemetryRecord], cascade: Cascade, mode: EnergyMode,
              failsafe: str = "send", skipped: int = 0) -> SimulationResult:
    """Gate each record through the cascade; transmit only on a Send label.

    Always-send, which transmits every record, is priced in the same pass.
    Out-of-universe readings are clamped to the nearest universe bound and
    counted. When no rule fires at some node, failsafe="send" transmits the
    record anyway (monitoring must not silently drop data); "drop" suppresses.
    """
    if failsafe not in ("send", "drop"):
        raise ValueError(f"unknown failsafe policy {failsafe!r}")
    per_packet = packet_energy(mode)
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
            label = SEND if failsafe == "send" else NOT_SEND
            clamped, fell_back = False, True
            failsafe_sends += int(label == SEND)
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
        always += per_packet
        if label == SEND:
            transmissions += 1
            gated += per_packet
        cumulative.append((always, gated))
        decisions.append(decision)
    traditional_joules = len(records) * per_packet
    total_joules = transmissions * per_packet
    reduction = count_reduction = 0.0
    if traditional_joules > 0:
        reduction = (1.0 - total_joules / traditional_joules) * 100.0
    if records:
        count_reduction = (1.0 - transmissions / len(records)) * 100.0
    return SimulationResult(
        total_records=len(records) + skipped,
        transmissions=transmissions,
        suppressed=len(records) - transmissions,
        skipped=skipped,
        failsafe_sends=failsafe_sends,
        clamped_records=clamped_records,
        joules_per_packet=per_packet,
        total_joules=total_joules,
        traditional_joules=traditional_joules,
        reduction_pct=reduction,
        count_reduction_pct=count_reduction,
        decisions=tuple(decisions),
        cumulative=tuple(cumulative),
    )
