"""Telemetry replay: load a CSV of sensor readings, gate each record through
the cascade, and price the gated run against the always-send baseline in the
same pass.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from itertools import chain, islice, repeat
from operator import contains, itemgetter
from pathlib import Path

import numpy as np

from .cascade import Cascade, sends

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

#: ASCII timestamps of exactly TIMESTAMP_FORMAT's shape. The column pass finds
#: these from their characters, in `_fixed_timestamps`, and checks their dates
#: with `datetime.fromisoformat`, which takes and refuses them as `strptime`
#: does; `_parse_row` uses `strptime`, which also takes shapes such as
#: unpadded fields and non-ASCII digits.
FIXED_TIMESTAMP = r"\d{4}-\d\d-\d\d ([01]\d|2[0-3]):\d\d:\d\d"
#: The code points each character of such a text lies between.
_FIXED_RANGE = np.array([[*map(ord, "0000-00-00 00:00:00")],
                         [*map(ord, "9999-99-99 99:99:99")]], dtype=np.uint32)

#: Physical lines, or csv rows, read at once. The block bounds the field
#: text held at once.
LOAD_BLOCK = 4096

#: Characters a physical line may hold, its line end included (1 MiB, as
#: `dsl.MAX_FILE_BYTES`): a file with no line end, such as /dev/zero, is refused.
MAX_LINE = 1 << 20

_BLANK_LINES = ("\n", "\r", "\r\n")


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
    """One row of a `Telemetry`, as iteration gives it, with its
    timestamp text parsed by `datetime.fromisoformat`."""

    timestamp: datetime
    temperature: float
    humidity: float  # relative humidity as a fraction in [0, 1]
    appliance_energy: float  # Wh for the interval
    time_of_day: float  # fractional hours since midnight, on [0, 24)


@dataclass(frozen=True, eq=False)  # a generated == fails on array fields
class Telemetry:
    """Loaded records as columns, in file order.

    `timestamps` holds ISO texts, `YYYY-MM-DD HH:MM:SS`: each is
    `datetime.isoformat(" ")` of the parsed timestamp, which is the field
    itself when the field has FIXED_TIMESTAMP's shape. Iteration parses
    them back into `TelemetryRecord`s.

    `readings` is `(n, 4)`, in DEFAULT_EXTERNALS order: temperature,
    humidity as a fraction, appliance energy in Wh, and time of day as
    `_fixed_timestamps` computes it from the timestamp text.
    """

    timestamps: list[str]
    readings: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self) -> Iterator[TelemetryRecord]:
        return map(TelemetryRecord, map(datetime.fromisoformat, self.timestamps),
                   *self.readings.T.tolist())


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

    Each physical line is read with at most MAX_LINE + 1 characters, and a
    line over MAX_LINE is a TelemetryError naming the file and the line.
    The file is read LOAD_BLOCK lines at a time. numpy's C tokenizer reads
    a block's mapped fields alone, as long as `_tokenized` finds that it
    reads them as `csv.reader` would. From the first block where it might
    not, `csv.reader` reads the rest of the file, LOAD_BLOCK rows at a time.
    The mapped fields of a block are then converted a column at a time.
    Only the rows with a field that this does not take, such as a bad
    number or a timestamp of another shape, are then parsed one by one, in
    file order, by `_parse_row`, which takes every field the column pass
    takes with the same value.

    Timestamps are kept as text, not as datetimes: a field that the column
    pass takes is kept as read, since it already equals the `isoformat(" ")`
    of its value, and a row that `_parse_row` takes gets that text made
    once. Every time of day comes from the digits of the kept text.
    """
    if policy not in ("strict", "skip-bad"):
        raise ValueError(f"unknown policy {policy!r}")
    mapping = mapping or ColumnMapping()
    wanted = (mapping.timestamp, mapping.temperature, mapping.humidity,
              mapping.appliance_energy)
    humidity_unit = 100.0 if mapping.humidity_scale == "percent" else 1.0
    timestamps: list[str] = []
    blocks: list[np.ndarray] = []  # (4, m) readings of each block
    skipped_rows: list[int] = []

    def convert_block(columns: list[list[str]], lines) -> None:
        """Convert `columns`, the mapped fields (ColumnMapping order) of the
        rows that start on file lines `lines[i]`. A row is marked by a
        timestamp not of FIXED_TIMESTAMP's shape or that
        `datetime.fromisoformat` rejects, a number that `float` rejects, or
        a value that is not finite; `_parse_row` gives a marked row's
        values, or rejects it. What the column pass takes, `_parse_row`
        takes with the same value: a timestamp of exactly FIXED_TIMESTAMP's
        shape has no space or quote to strip, and when `float(raw)` takes a
        field, it equals `float(raw.strip().strip('"'))`. Such a timestamp
        text is also the `isoformat(" ")` of its value, which writes the
        same fixed-width fields back, so a marked row that `_parse_row`
        takes gets that text and its time of day from `_fixed_timestamps`."""
        if not lines:
            return
        texts, *numbers = columns
        # Shapes and times of day from the characters; dates by fromisoformat.
        fixed, hours = _fixed_timestamps(texts)
        fixed[_convert(datetime.fromisoformat, texts, None)[1]] = False
        values = np.array([_convert(float, column, math.nan)[0]
                           for column in numbers])
        taken, dropped = [], []
        for i in np.flatnonzero(~fixed | ~np.isfinite(values).all(axis=0)):
            try:
                t, *row = _parse_row([column[i] for column in columns],
                                     wanted, path, lines[i])
            except RowError:
                if policy == "strict":
                    raise
                skipped_rows.append(lines[i])
                dropped.append(i)
            else:
                texts[i] = t.isoformat(" ")
                values[:, i] = row
                taken.append(i)
        hours[taken] = _fixed_timestamps([texts[i] for i in taken])[1]
        for i in reversed(dropped):
            del texts[i]
        values[1] /= humidity_unit
        timestamps.extend(texts)
        blocks.append(np.delete(np.vstack((values, hours)), dropped, axis=1))

    line = 1  # first file line of the record being read
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            physical = iter(partial(fh.readline, MAX_LINE + 1), "")
            reader = csv.reader(_bounded(physical, path, 1))
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
            while True:
                # The last block's fields go before the next block is read.
                block, error, table = [], None, None
                try:  # keeps the lines read before an undecodable one
                    block.extend(islice(physical, LOAD_BLOCK))
                except UnicodeDecodeError as exc:
                    error = exc
                table = _tokenized(block, columns)
                if table is None:
                    break
                convert_block(table.T.tolist(), range(line, line + len(block)))
                line += len(block)
                if len(block) < LOAD_BLOCK:  # at the end, or at `error`
                    block = []  # csv reads no more lines, or raises `error`
                    break
            # csv reads the rest of the file, from the block numpy left.
            reader = csv.reader(_bounded(
                chain(block, physical if error is None else _raising(error)),
                path, line))
            first, rows, lines = line, [], []
            try:
                for fields in reader:
                    if fields:
                        if len(fields) < width:
                            row = dict(zip(header, fields))
                            fields = [row.get(name, "") for name in header]
                        rows.append(pick(fields))
                        lines.append(line)
                        if len(rows) == LOAD_BLOCK:
                            convert_block([*map(list, zip(*rows))], lines)
                            rows, lines = [], []
                    line = first + reader.line_num
            finally:
                # Rows read before an error are converted first: under
                # "strict", a bad row among them is the error reported.
                convert_block([*map(list, zip(*rows))], lines)
    except UnicodeDecodeError as exc:
        raise TelemetryError(f"{path}: {exc}") from None
    except csv.Error as exc:
        raise TelemetryError(f"{path}: record starting at line {line}: {exc}"
                             ) from None
    # (4, n), so that each external's column is contiguous for the engine.
    readings = np.concatenate(blocks, axis=1) if blocks else np.empty((4, 0))
    return (Telemetry(timestamps, readings.T),
            LoadReport(len(timestamps), len(skipped_rows), tuple(skipped_rows)))


def _tokenized(block: list[str], columns: list[int]) -> np.ndarray | None:
    """The (m, 4) fields of `columns` in the rows of `block`, physical lines
    of a CSV, as numpy's C tokenizer reads them, one row on each line; or
    None where a line might not be one row that `csv.reader` reads the same.
    An empty block gives None, as does one with a blank line, which csv
    skips. numpy raises on a short row and on a line of spaces, which csv
    reads as rows of "" fields. numpy has no field size limit, and reads NUL
    as any other character, which csv refuses before Python 3.11; a line over
    MAX_LINE is left to csv's path, which refuses it. A record that spans
    lines gives fewer rows than lines; one left open by the block's last
    line numpy closes there, where csv reads on."""
    if (not block or any(map(block.count, _BLANK_LINES))
            or max(map(len, block)) > min(csv.field_size_limit(), MAX_LINE)
            or any(map(contains, block, repeat("\0")))):
        return None
    try:
        table = np.loadtxt(block, dtype=object, delimiter=",", quotechar='"',
                           comments=None, usecols=columns, ndmin=2)
    except ValueError:
        return None
    if len(table) != len(block) or any("\r" in field or "\n" in field
                                       for field in next(csv.reader(block[-1:]))):
        return None
    return table


def _bounded(lines: Iterator[str], path, line: int) -> Iterator[str]:
    """`lines`, the physical lines of `path` from file line `line` on, each
    checked against MAX_LINE: raises TelemetryError on the first longer one."""
    for line, text in enumerate(lines, line):
        if len(text) > MAX_LINE:
            raise TelemetryError(f"{path}: line {line} is over {MAX_LINE} characters")
        yield text


def _raising(exc: Exception) -> Iterator:
    """An iterator whose first item raises `exc`."""
    raise exc
    yield


def _fixed_timestamps(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The mask of `texts` of FIXED_TIMESTAMP's shape, from their code
    points, and the time of day each would give, in fractional hours since
    midnight from its digits: the one definition of a reading's time of
    day."""
    codes = np.array(texts, dtype="<U19").view(np.uint32).reshape(len(texts), 19)
    hours, minutes, seconds = (  # garbage where a character is no digit
        10 * codes[:, k].astype(np.int64) + codes[:, k + 1] - 11 * ord("0")
        for k in (11, 14, 17))
    fixed = ((_FIXED_RANGE[0] <= codes) & (codes <= _FIXED_RANGE[1])).all(axis=1)
    fixed &= (np.fromiter(map(len, texts), int, len(texts)) == 19) & (hours <= 23)
    return fixed, hours + minutes / 60 + seconds / 3600


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
        timestamp = datetime.strptime(raw[0], TIMESTAMP_FORMAT)
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
    cumulative: np.ndarray  # (n, 2): packets so far * J, always-send then gated


def run_fuzzy(telemetry: Telemetry, cascade: Cascade,
              joules_per_packet: float) -> SimulationResult:
    """Gate each record through the cascade; transmit only on a Send label.

    Every transmission costs joules_per_packet, which must be finite and
    > 0. Always-send, which transmits every record, is priced in the same
    pass; k packets cost k * joules_per_packet, in a total or so far.
    Out-of-universe readings are clamped to the nearest universe bound and
    counted. When no rule fires at some node the record is sent anyway and
    counted as a fail-safe send: monitoring must not silently drop data.
    The records are evaluated as columns by `Cascade.evaluate_columns`, which
    gives the same bits as `Cascade.evaluate(..., clamp=True)` per record and
    a NaN score where no rule fired, the one mark of a fail-safe send.
    """
    if not (math.isfinite(joules_per_packet) and joules_per_packet > 0):
        raise ValueError(f"joules per packet must be finite and > 0, "
                         f"got {joules_per_packet!r}")
    n = len(telemetry)
    clamped, apparent, usage, score = cascade.evaluate_columns(
        telemetry.readings.T)
    failsafe = np.isnan(score)
    send = failsafe | sends(score, cascade.threshold)
    clamped &= ~failsafe
    # The largest product: rounding is monotone, so no other overflows.
    traditional_joules = n * joules_per_packet
    if math.isinf(traditional_joules):
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
        cumulative=np.column_stack((np.arange(1, n + 1), np.cumsum(send)))
        * joules_per_packet,
    )
