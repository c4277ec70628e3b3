"""Reference telemetry loader: `load_telemetry` before rows were converted in
blocks, one `_parse_row` and one `TelemetryRecord` per row. The blocked
loader in `fuzzgate.sim` must give the same timestamps, readings, report
and errors. Also `record`, which builds a `TelemetryRecord` with the
reference time of day, and `telemetry_of`, which puts hand-built records in
the `Telemetry` that `run_fuzzy` reads.
"""
import csv
import math
import re
from datetime import datetime

import numpy as np

from fuzzgate.sim import (FIXED_TIMESTAMP, TIMESTAMP_FORMAT, ColumnMapping,
                          LoadReport, MissingColumnError, RowError, Telemetry,
                          TelemetryError, TelemetryRecord)


def record(timestamp: datetime, temperature, humidity,
           appliance_energy) -> TelemetryRecord:
    """A record whose time of day is the timestamp's fractional hours since
    midnight, computed here apart from the loader."""
    t = timestamp
    return TelemetryRecord(t, temperature, humidity, appliance_energy,
                           t.hour + t.minute / 60 + t.second / 3600)


def telemetry_of(records) -> Telemetry:
    """The `Telemetry` of `records`, in their order, with each timestamp as
    the ISO text that `load_telemetry` keeps."""
    records = list(records)
    columns = np.array([[r.temperature for r in records],
                        [r.humidity for r in records],
                        [r.appliance_energy for r in records],
                        [r.time_of_day for r in records]], dtype=float)
    return Telemetry([r.timestamp.isoformat(" ") for r in records],
                     columns.reshape(4, -1).T)


def load_telemetry_rowwise(path, mapping=None, policy="strict"):
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


def _parse_row(fields, names, fixed_timestamp, humidity_unit, path, line):
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
    return record(timestamp, values[1], values[2] / humidity_unit, values[3])
