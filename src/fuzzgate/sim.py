"""Telemetry replay: load a CSV of sensor readings, gate each record through
the cascade, and price the gated run against the always-send baseline in the
same pass.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .cascade import Cascade

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

#: ASCII timestamps of exactly TIMESTAMP_FORMAT's shape. `datetime.fromisoformat`
#: accepts and rejects these as `strptime` does, and is much faster; every
#: other string goes to `strptime`, which also accepts shapes such as
#: unpadded fields and non-ASCII digits.
FIXED_TIMESTAMP = r"\d{4}-\d\d-\d\d ([01]\d|2[0-3]):\d\d:\d\d"


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


@dataclass(frozen=True, slots=True)
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
    wanted = (mapping.timestamp, mapping.temperature, mapping.humidity,
              mapping.appliance_energy)
    fixed_timestamp = re.compile(FIXED_TIMESTAMP, re.ASCII).fullmatch
    humidity_unit = 100.0 if mapping.humidity_scale == "percent" else 1.0
    records: list[TelemetryRecord] = []
    skipped_rows: list[int] = []
    line = 1  # first file line of the record being read
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in wanted if c not in header]
            if missing:
                raise MissingColumnError(missing, path)
            # Read as `dict(zip(header, fields))` would: the last field of a
            # repeated name wins, and a field a short row lacks reads "".
            index = {name: i for i, name in enumerate(header)}
            columns = [index[c] for c in wanted]
            width = max(columns) + 1
            line = reader.line_num + 1
            for fields in reader:
                if fields:
                    if len(fields) < width:
                        row = dict(zip(header, fields))
                        fields = [row.get(name, "") for name in header]
                    try:
                        records.append(_parse_row(
                            [fields[i] for i in columns], wanted,
                            fixed_timestamp, humidity_unit, path, line))
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


def _parse_row(fields: list[str], names: tuple[str, ...], fixed_timestamp,
               humidity_unit: float, path, line: int) -> TelemetryRecord:
    """Parse a row's fields of the columns `names` (ColumnMapping order)."""
    raw = [field.strip().strip('"') for field in fields]
    try:
        timestamp = (datetime.fromisoformat(raw[0]) if fixed_timestamp(raw[0])
                     else datetime.strptime(raw[0], TIMESTAMP_FORMAT))
    except ValueError:
        raise RowError(path, line, names[0],
                       f"not a timestamp: {raw[0]!r}") from None
    values = {}
    for k in (2, 1, 3):  # humidity first: a row's error names what it did
        try:
            values[k] = float(raw[k])
        except ValueError:
            raise RowError(path, line, names[k],
                           f"not a number: {raw[k]!r}") from None
        if not math.isfinite(values[k]):
            raise RowError(path, line, names[k], f"not finite: {raw[k]!r}")
    return TelemetryRecord(timestamp, values[1], values[2] / humidity_unit,
                           values[3])


@dataclass(frozen=True, eq=False)  # a generated == fails on array fields
class SimulationResult:
    """The gated run over a record set, priced against always-send on the
    same records.

    The arrays hold one entry per record, in record order. The intermediates
    and the score are NaN on fail-safe rows.
    """

    transmissions: int
    suppressed: int
    failsafe_sends: int
    clamped_records: int
    total_joules: float
    traditional_joules: float
    reduction_pct: float
    count_reduction_pct: float
    decisions: np.ndarray  # bool, True = Send
    clamped: np.ndarray  # bool
    failsafe: np.ndarray  # bool
    apparent_temperature: np.ndarray
    appliance_usage_time: np.ndarray
    score: np.ndarray
    readings: np.ndarray  # (n, 4): the unclamped readings, DEFAULT_EXTERNALS order
    cumulative: np.ndarray  # (n, 2): joules so far, always-send then gated


def run_fuzzy(records: list[TelemetryRecord], cascade: Cascade,
              joules_per_packet: float) -> SimulationResult:
    """Gate each record through the cascade; transmit only on a Send label.

    Every transmission costs joules_per_packet, which must be finite and
    > 0. Always-send, which transmits every record, is priced in the same
    pass. Out-of-universe readings are clamped to the nearest universe bound
    and counted. When no rule fires at some node the record is sent anyway
    and counted as a fail-safe send: monitoring must not silently drop data.
    The records are evaluated as columns by `Cascade.evaluate_columns`, which
    gives the same bits as `Cascade.evaluate(..., clamp=True)` per record.
    """
    if not (math.isfinite(joules_per_packet) and joules_per_packet > 0):
        raise ValueError(f"joules per packet must be finite and > 0, "
                         f"got {joules_per_packet!r}")
    n = len(records)
    # (4, n), so that each external's column is contiguous for the engine.
    columns = np.array([
        np.fromiter((r.temperature for r in records), float, n),
        np.fromiter((r.humidity for r in records), float, n),
        np.fromiter((r.appliance_energy for r in records), float, n),
        np.fromiter((r.time_of_day for r in records), float, n)])
    clamped, apparent, usage, score, failsafe = cascade.evaluate_columns(columns)
    send = failsafe | (score <= cascade.threshold)
    clamped &= ~failsafe
    # cumsum adds in sequence, as a running total would.
    with np.errstate(over="ignore"):
        always = np.cumsum(np.full(n, joules_per_packet))
        gated = np.cumsum(np.where(send, joules_per_packet, 0.0))
    traditional_joules = n * joules_per_packet
    if math.isinf(max(always[-1] if n else 0.0, traditional_joules)):
        raise ValueError(f"{n} packets of {joules_per_packet!r} J "
                         f"overflow a float")
    transmissions = int(send.sum())
    total_joules = transmissions * joules_per_packet
    reduction = count_reduction = 0.0
    if records:
        reduction = (1.0 - total_joules / traditional_joules) * 100.0
        count_reduction = (1.0 - transmissions / n) * 100.0
    return SimulationResult(
        transmissions=transmissions,
        suppressed=n - transmissions,
        failsafe_sends=int(failsafe.sum()),
        clamped_records=int(clamped.sum()),
        total_joules=total_joules,
        traditional_joules=traditional_joules,
        reduction_pct=reduction,
        count_reduction_pct=count_reduction,
        decisions=send,
        clamped=clamped,
        failsafe=failsafe,
        apparent_temperature=apparent,
        appliance_usage_time=usage,
        score=score,
        readings=columns.T,
        cumulative=np.column_stack((always, gated)),
    )
