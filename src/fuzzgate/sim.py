"""Telemetry replay: load a CSV of sensor readings, gate each record through
the cascade, and price the gated run against the always-send baseline in the
same pass.
"""
from __future__ import annotations

import csv
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime
from operator import itemgetter
from pathlib import Path

import numpy as np

from .cascade import Cascade

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

#: ASCII timestamps of exactly TIMESTAMP_FORMAT's shape. `datetime.fromisoformat`
#: accepts and rejects these as `strptime` does, and is much faster; every
#: other string goes to `strptime`, which also accepts shapes such as
#: unpadded fields and non-ASCII digits.
FIXED_TIMESTAMP = r"\d{4}-\d\d-\d\d ([01]\d|2[0-3]):\d\d:\d\d"
_fixed_timestamp = re.compile(FIXED_TIMESTAMP, re.ASCII).fullmatch

#: Data rows read before their mapped fields are converted. The block bounds
#: the field text held at once.
LOAD_BLOCK = 4096


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
    """One row of a `Telemetry`, as indexing and iteration give it."""

    timestamp: datetime
    temperature: float
    humidity: float  # relative humidity as a fraction in [0, 1]
    appliance_energy: float  # Wh for the interval

    @property
    def time_of_day(self) -> float:
        """Fractional hours since midnight, on [0, 24)."""
        t = self.timestamp
        return t.hour + t.minute / 60 + t.second / 3600


@dataclass(frozen=True, eq=False)  # a generated == fails on array fields
class Telemetry:
    """Loaded records as columns, in file order.

    `readings` is `(n, 4)`, in DEFAULT_EXTERNALS order: temperature,
    humidity as a fraction, appliance energy in Wh, and time of day as
    `TelemetryRecord.time_of_day` computes it from the timestamp.
    """

    timestamps: list[datetime]
    readings: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i: int) -> TelemetryRecord:
        return TelemetryRecord(self.timestamps[i], *self.readings[i, :3].tolist())

    def __iter__(self) -> Iterator[TelemetryRecord]:
        return map(TelemetryRecord, self.timestamps,
                   *self.readings[:, :3].T.tolist())


@dataclass(frozen=True)
class LoadReport:
    loaded: int
    skipped: int
    skipped_rows: tuple[int, ...]  # file line of each skipped row


def load_telemetry(path: str | Path, mapping: ColumnMapping | None = None,
                   policy: str = "strict") -> tuple[Telemetry, LoadReport]:
    """Read records in file order from an RFC-4180-style CSV with a header.

    policy="strict" raises RowError on the first bad row; "skip-bad" counts
    and skips bad rows instead. Blank lines are skipped. Errors name the
    file line a row starts on. Humidity is divided by 100 under the percent
    scale.

    The mapped fields of LOAD_BLOCK rows at a time are converted a column at
    a time. Only the rows with a field that this does not take, such as a
    bad number or a timestamp of another shape, are then parsed one by one,
    in file order, by `_parse_row`, which takes every field the column pass
    takes with the same value.
    """
    if policy not in ("strict", "skip-bad"):
        raise ValueError(f"unknown policy {policy!r}")
    mapping = mapping or ColumnMapping()
    wanted = (mapping.timestamp, mapping.temperature, mapping.humidity,
              mapping.appliance_energy)
    humidity_unit = 100.0 if mapping.humidity_scale == "percent" else 1.0
    timestamps: list[datetime] = []
    blocks: list[np.ndarray] = []  # (4, m) readings of each block
    skipped_rows: list[int] = []
    rows: list[tuple[str, ...]] = []  # the mapped fields of the block's rows
    lines: list[int] = []  # file line each of those rows starts on

    def convert_block():
        if not rows:
            return
        stamps, values, marked = _convert_columns(rows)
        dropped = []
        for i in marked:
            try:
                stamps[i], *numbers = _parse_row(rows[i], wanted, path, lines[i])
            except RowError:
                if policy == "strict":
                    raise
                skipped_rows.append(lines[i])
                dropped.append(i)
            else:
                values[:, i] = numbers
        for i in reversed(dropped):
            del stamps[i]
        values = np.delete(values, dropped, axis=1)
        values[1] /= humidity_unit
        # The expression of TelemetryRecord.time_of_day.
        hours = [t.hour + t.minute / 60 + t.second / 3600 for t in stamps]
        timestamps.extend(stamps)
        blocks.append(np.vstack((values, hours)))
        rows.clear()
        lines.clear()

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
            pick = itemgetter(*columns)
            width = max(columns) + 1
            line = reader.line_num + 1
            try:
                for fields in reader:
                    if fields:
                        if len(fields) < width:
                            row = dict(zip(header, fields))
                            fields = [row.get(name, "") for name in header]
                        rows.append(pick(fields))
                        lines.append(line)
                        if len(rows) == LOAD_BLOCK:
                            convert_block()
                    line = reader.line_num + 1
            except (csv.Error, UnicodeDecodeError):
                # Rows read before the error are converted first: under
                # "strict", a bad row among them is the error reported.
                convert_block()
                raise
            convert_block()
    except UnicodeDecodeError as exc:
        raise TelemetryError(f"{path}: {exc}") from None
    except csv.Error as exc:
        raise TelemetryError(f"{path}: record starting at line {line}: {exc}"
                             ) from None
    # (4, n), so that each external's column is contiguous for the engine.
    readings = np.concatenate(blocks, axis=1) if blocks else np.empty((4, 0))
    return (Telemetry(timestamps, readings.T),
            LoadReport(len(timestamps), len(skipped_rows), tuple(skipped_rows)))


def _convert_columns(rows: list[tuple[str, ...]]
                     ) -> tuple[list[datetime], np.ndarray, list[int]]:
    """The timestamps and the (3, m) numbers of rows of mapped fields, each
    column converted in one pass, and the indexes of the rows, in order, that
    some field marks: a timestamp not of FIXED_TIMESTAMP's shape or that
    `datetime.fromisoformat` rejects, a number that `float` rejects, or a
    value that is not finite. A marked row's entries are not its values:
    `_parse_row` gives those, or rejects the row.

    What this takes, `_parse_row` takes with the same value: a timestamp of
    exactly FIXED_TIMESTAMP's shape has no space or quote to strip, and when
    `float(raw)` takes a field, it equals `float(raw.strip().strip('"'))`.
    """
    texts, *numbers = zip(*rows)
    stamps, rejected = _convert(datetime.fromisoformat, texts, None)
    values = np.array([_convert(float, column, math.nan)[0]
                       for column in numbers])
    nonfinite = np.flatnonzero(~np.isfinite(values).all(axis=0)).tolist()
    misshapen = [i for i, fixed in enumerate(map(_fixed_timestamp, texts))
                 if not fixed]
    return stamps, values, sorted({*misshapen, *rejected, *nonfinite})


def _convert(convert, texts, failed) -> tuple[list, list[int]]:
    """`convert` of each text, or `failed` where it raises ValueError, and
    the indexes of those texts. A text that converts costs no more than in
    `list(map(convert, texts))`: the next `extend` resumes after the text
    that raised. This relies on CPython's `list.extend`, which keeps the
    items it appended before the iterator raised; the language does not
    promise that, so `tests/test_telemetry.py` tests it here."""
    out, failures = [], []
    remaining = iter(texts)
    while True:
        try:
            out.extend(map(convert, remaining))
            return out, failures
        except ValueError:
            failures.append(len(out))
            out.append(failed)


def _parse_row(fields: tuple[str, ...], names: tuple[str, ...], path,
               line: int) -> tuple[datetime, float, float, float]:
    """Parse a row's fields of the columns `names` (ColumnMapping order)."""
    raw = [field.strip().strip('"') for field in fields]
    try:
        timestamp = (datetime.fromisoformat(raw[0]) if _fixed_timestamp(raw[0])
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
    return timestamp, values[1], values[2], values[3]


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
    cumulative: np.ndarray  # (n, 2): joules so far, always-send then gated


def run_fuzzy(telemetry: Telemetry, cascade: Cascade,
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
    n = len(telemetry)
    clamped, apparent, usage, score, failsafe = \
        cascade.evaluate_columns(telemetry.readings.T)
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
    if n:
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
        cumulative=np.column_stack((always, gated)),
    )
