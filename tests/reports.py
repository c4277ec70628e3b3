"""Reference report formatter: `simulate`'s row-wise writer before reports
were written in blocks, one f-string and one `repr` per value and one write
per row. The blocked writer in `fuzzgate.cli` must give the same bytes."""
from fuzzgate.cascade import NOT_SEND, SEND


def write_reports_rowwise(out_dir, records, result):
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
