import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fuzzgate
from conftest import FIS_FILES, write_manifest
from fuzzgate.cascade import (BUNDLED_MANIFEST, FIS_KEYS, bundled_fis_dir,
                              parse_manifest)
from fuzzgate.cli import _build_mapping, build_parser, main
from fuzzgate.dsl import MAX_FILE_BYTES
from fuzzgate.energy import packet_energy
from fuzzgate.sim import MAX_LINE, ColumnMapping

READING = ["--temp", "20", "--humidity", "0.35", "--energy", "60", "--time", "3"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_bundled_files_pass(self, capsys):
        code, out, _ = run(capsys, ["check"])
        assert code == 0
        assert "16/20/16 rules" in out
        assert "warning" not in out

    def test_unicode_indents_and_trailing_notes(self, capsys, tmp_path):
        """The bundled files, each indent made of ideographic spaces (U+3000)
        and each declaration line ending in a `# note` comment, check as
        the originals do, apart from their paths."""
        for source in sorted(bundled_fis_dir().glob("*.fis.txt")):
            lines = []
            for line in source.read_text(encoding="utf-8").splitlines():
                body = line.lstrip(" ")
                indent = "\u3000" * (len(line) - len(body))
                if body and not body.startswith("#"):
                    body += " # note"
                lines.append(indent + body)
            (tmp_path / source.name).write_text("\n".join(lines) + "\n",
                                                encoding="utf-8")
        code, bundled, _ = run(capsys, ["check"])
        assert code == 0
        spaced = run(capsys, ["check", *map(str, sorted(
            tmp_path.glob("*.fis.txt")))])
        assert spaced == (0, bundled.replace(str(bundled_fis_dir()),
                                             str(tmp_path)), "")

    def test_reversed_triangle_fails_at_its_term(self, capsys, tmp_path):
        bundled = (bundled_fis_dir() / FIS_FILES["fs1"]).read_text()
        bad = tmp_path / "reversed.fis.txt"
        bad.write_text(bundled.replace("term medium triangle 18.5 20 21.5",
                                       "term medium triangle 21.5 20 18.5"))
        code, out, _ = run(capsys, ["check", str(bad)])
        assert code == 1
        assert out.startswith(
            f"{bad}:8:3: error: non-monotone corners (21.5, 20.0, 20.0, "
            f"18.5): each must be <= the next\n")

    def test_coverage_gap_warns(self, capsys, tmp_path):
        gap = tmp_path / "gap.fis.txt"
        gap.write_text("system s\ninput x universe 0 10\n"
                       "  term a trapezoid 0 0 2 4\n  term b trapezoid 6 8 10 10\n"
                       "input z universe -1 1\n  term c trapezoid -1 -1 0.5 0.9\n"
                       "output y universe 0 1\n  term t triangle 0 0.5 1\n"
                       "rule if x is a and z is c then y is t\n"
                       "rule if x is b and z is c then y is t\n")
        code, out, _ = run(capsys, ["check", str(gap)])
        assert code == 0
        reason = ("readings there fire no rule that reads it, and a record "
                  "that fires no rule is sent as a fail-safe")
        assert out.splitlines() == [
            f"{gap}: ok, system 's', 2 inputs, 2 rules",
            f"{gap}: warning: input 'x' has no term over [4.0, 6.0]: {reason}",
            f"{gap}: warning: input 'z' has no term over [0.9, 1.0]: {reason}"]

    def test_gap_at_one_point_warns_as_eval_fails(self, capsys, tmp_path):
        # FS1 with `medium` moved right: at 20 both `low` and `high` end, so
        # only the one reading 20 is in no term, and `eval` fires no rule.
        bundled = (bundled_fis_dir() / FIS_FILES["fs1"]).read_text()
        moved = tmp_path / "fs1.fis.txt"
        moved.write_text(bundled.replace("term medium triangle 18.5 20 21.5",
                                         "term medium triangle 20 20.75 21.5"))
        code, out, _ = run(capsys, ["check", str(moved)])
        assert code == 0
        assert f"{moved}: warning: input 'indoor_temperature' has no term " \
            f"over [20.0, 20.0]: " in out
        assert out.count("warning") == 1
        code, _, err = run(capsys, ["eval", "--fis1", str(moved), *READING])
        assert code == 1
        assert "no rule fired" in err

    def test_output_term_between_grid_points_warns(self, capsys, tmp_path):
        # FS3 with `send` narrower than the grid step: its rules fire, but
        # no grid point sees it, so those records are sent as fail-safe.
        bundled = (bundled_fis_dir() / FIS_FILES["fs3"]).read_text()
        narrow = tmp_path / "fs3.fis.txt"
        narrow.write_text(bundled.replace("term send trapezoid 0 0 25 75",
                                          "term send triangle 10.01 10.02 10.03"))
        code, out, _ = run(capsys, ["check", str(narrow)])
        assert code == 0
        assert out.splitlines() == [
            f"{narrow}: ok, system 'fs3_sending_decision', 2 inputs, 16 rules",
            f"{narrow}: warning: output term 'send' is 0 at every grid point: "
            f"rules that conclude it never move the centroid"]

    def test_unknown_term_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.fis.txt"
        bad.write_text("system s\ninput x universe 0 10\n"
                       "  term a triangle 0 5 10\n"
                       "output y universe 0 1\n  term t triangle 0 0.5 1\n"
                       "rule if x is blazing then y is t\n")
        code, out, _ = run(capsys, ["check", str(bad)])
        assert code == 1
        assert "blazing" in out
        assert f"{bad}:6:" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["check", str(tmp_path / "nope.fis.txt")])
        assert code == 2


class TestEval:
    def test_cool_low_sends(self, capsys):
        code, out, _ = run(capsys, ["eval", "--temp", "20", "--humidity",
                                    "0.35", "--energy", "60", "--time", "3"])
        assert code == 0
        assert "label: Send" in out
        assert "apparent_temperature" in out

    def test_json_trace(self, capsys):
        code, out, _ = run(capsys, ["eval", "--temp", "20", "--humidity",
                                    "0.35", "--energy", "400", "--time", "9.5",
                                    "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "not_send"
        usage = payload["intermediates"]["appliance_usage_time"]
        assert usage >= 80.0  # v.high core
        assert payload["fired_rules"]

    def test_out_of_universe_time(self, capsys):
        code, _, err = run(capsys, ["eval", "--temp", "20", "--humidity",
                                    "0.35", "--energy", "60", "--time", "25"])
        assert code == 1
        assert "universe" in err

    def test_clamp_flag_recovers(self, capsys):
        code, out, _ = run(capsys, ["eval", "--temp", "20", "--humidity",
                                    "0.35", "--energy", "60", "--time", "25",
                                    "--clamp"])
        assert code == 0
        assert "clamped" in out

    def test_centroid_at_a_universe_end(self, capsys, tmp_path):
        """FS1 whose `hot` is narrower than a grid step at the top of its
        universe, where only the top grid point carries mass: the centroid
        stays at the top rather than round one float past it, so FS3 takes
        it and `eval` scores the reading of a file that `check` accepts."""
        bundled = (bundled_fis_dir() / FIS_FILES["fs1"]).read_text()
        narrow = tmp_path / "fs1.fis.txt"
        narrow.write_text(bundled.replace("term hot trapezoid 70 80 100 100",
                                          "term hot trapezoid 99.95 100 100 100"))
        code, out, _ = run(capsys, ["check", str(narrow)])
        assert code == 0 and out.startswith(f"{narrow}: ok")
        code, out, err = run(capsys, ["eval", "--fis1", str(narrow), "--temp",
                                      "30", "--humidity", "0.404", "--energy",
                                      "60", "--time", "3", "--json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["intermediates"]["apparent_temperature"] == 100.0
        assert payload["label"] == "send"

    # SHA-256 of the exact stdout of `eval` (text, then --json) for the two
    # README readings, a clamped humidity, and a reading that fires 12 rules
    # across the three nodes. Update only for an intended change to a score
    # bit, an activation or the output format.
    PINNED_STDOUT = {
        "20 0.35 60 3": (
            "bc4d751650039fc5bf3dbcefa1de5d2ae973f4b2f5fd0a7eebe67ee458cbf84f",
            "9a725f087d3b3cb40a1d2517362d7f1a7a38b2c03bfe1bb8b6440b572e94d0b8"),
        "20 0.35 400 9.5": (
            "98a0d91c76a2aca416a0e35973682eca17067f9c6afcdf624f6fb98609daa833",
            "3a4eddf2f5b3761351a89e7c3b354b372d0b2f24cb8e0b2837d45c787b7347a1"),
        "20 1.5 60 3 --clamp": (
            "6d79e6f807d1b4d2893e55797ac4a97dc83594997ade2bb851ed10f9e4d20fac",
            "8726e9741d0472d4266d55fc3869757905a2e7d7778b6fd819a4ada69c9db22b"),
        "20.8 0.37 120 12.5": (
            "8093cebb6fc8a8abbf8d36377602cc578c34deb11f570a0debdb61640537938b",
            "b14b5c856883e9a77b89e1badcfb40e2c2d8213c2fe3bd94b36cd49c08a71f8a"),
    }

    @pytest.mark.parametrize("reading", PINNED_STDOUT)
    def test_stdout_pinned(self, capsys, reading):
        temp, humidity, energy, time_of_day, *flags = reading.split()
        argv = ["eval", "--temp", temp, "--humidity", humidity, "--energy",
                energy, "--time", time_of_day, *flags]
        digests = []
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, argv + extra)
            assert (code, err) == (0, "")
            digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        assert tuple(digests) == self.PINNED_STDOUT[reading]


class TestSimulate:
    def simulate(self, capsys, tmp_path, fixture_csv, *extra):
        out_dir = tmp_path / "out"
        return run(capsys, ["simulate", "--dataset", str(fixture_csv),
                            "--out", str(out_dir), *extra]) + (out_dir,)

    def test_reports_written(self, capsys, tmp_path, fixture_csv):
        code, out, _, out_dir = self.simulate(capsys, tmp_path, fixture_csv)
        assert code == 0
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "decisions.csv").exists()
        assert (out_dir / "cumulative.csv").exists()
        assert "Traditional" in out and "Energy reduction" in out

    def test_summary_self_consistent(self, capsys, tmp_path, fixture_csv):
        *_, out_dir = self.simulate(capsys, tmp_path, fixture_csv)
        summary = json.loads((out_dir / "summary.json").read_text())
        per_packet = summary["joules_per_packet"]
        assert summary["traditional"]["total_joules"] == pytest.approx(
            summary["traditional"]["transmissions"] * per_packet)
        assert summary["fuzzy"]["total_joules"] == pytest.approx(
            summary["fuzzy"]["transmissions"] * per_packet)
        recomputed = (1 - summary["fuzzy"]["transmissions"]
                      / summary["traditional"]["transmissions"]) * 100
        assert summary["transmission_reduction_pct"] == pytest.approx(
            recomputed, abs=1e-9)
        # The last cumulative.csv row is the totals, bit for bit.
        last = (out_dir / "cumulative.csv").read_text().splitlines()[-1]
        assert [float(x) for x in last.split(",")[1:]] == [
            summary["traditional"]["total_joules"],
            summary["fuzzy"]["total_joules"]]

    def test_decisions_rows_and_labels(self, capsys, tmp_path, fixture_csv):
        *_, out_dir = self.simulate(capsys, tmp_path, fixture_csv)
        with open(out_dir / "decisions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert set(r["label"] for r in rows) <= {"send", "not_send"}

    def test_cumulative_monotone(self, capsys, tmp_path, fixture_csv):
        *_, out_dir = self.simulate(capsys, tmp_path, fixture_csv)
        with open(out_dir / "cumulative.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        for column in ("traditional_joules", "fuzzy_joules"):
            values = [float(r[column]) for r in rows]
            assert values == sorted(values)

    def test_physical_mode_flags(self, capsys, tmp_path, fixture_csv):
        """The paper's packet, passed as --per-packet-joules, prices each
        packet at `packet_energy()`."""
        code, *_, out_dir = self.simulate(
            capsys, tmp_path, fixture_csv, "--per-packet-joules",
            repr(packet_energy()))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["joules_per_packet"] == packet_energy()

    def test_missing_dataset(self, capsys, tmp_path):
        code, _, err = run(capsys, ["simulate", "--dataset",
                                    str(tmp_path / "nope.csv")])
        assert code == 2

    def test_strict_mode_bad_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,T1,RH_1,Appliances\nnot-a-date,20,40,60\n")
        code, _, err = run(capsys, ["simulate", "--dataset", str(bad),
                                    "--strict", "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{bad}: line 2, field 'date'" in err

    def test_skipping_bad_rows_is_the_default(self, capsys, tmp_path):
        """`simulate --help` says so, and a bad row is skipped without
        either flag."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        usage = " ".join(capsys.readouterr().out.split())  # unwrapped
        assert "--strict stop at the first bad row, exit 1" in usage
        assert "--skip-bad skip bad rows and name their lines on stderr " \
               "(the default)" in usage
        bad = tmp_path / "bad.csv"
        bad.write_text("date,T1,RH_1,Appliances\n2016-01-11 17:00:00,20,40,60\n"
                       "not-a-date,20,40,60\n")
        code, _, err = run(capsys, ["simulate", "--dataset", str(bad),
                                    "--out", str(tmp_path / "o")])
        assert code == 0
        assert err == f"skipped {bad}: lines 3\n"

    def test_nothing_sent_warns(self, capsys, tmp_path, fixture_csv):
        code, out, err, _ = self.simulate(capsys, tmp_path, fixture_csv,
                                          "--threshold", "-5")
        assert code == 0
        assert err == ("warning: none of the 50 records was sent: every score "
                       "is above the threshold -5.0\n")
        assert out.splitlines()[1:4] == [
            f"{'Total transmissions':<28}{50:>14}{0:>14}",
            f"{'Total energy (J)':<28}{2.4:>14.1f}{0.0:>14.1f}",
            "Energy reduction: 100.0%"]
        assert "warning" not in out
        code, _, err, _ = self.simulate(capsys, tmp_path, fixture_csv)
        assert code == 0 and err == ""

    def test_failsafe_and_clamped_rows(self, capsys, tmp_path):
        # FS1 keeps only its rules on a low temperature, so a warmer reading
        # fires no FS1 rule and is sent as a fail-safe; a fail-safe row is
        # not counted as clamped.
        bundled = (bundled_fis_dir() / FIS_FILES["fs1"]).read_text()
        fs1 = tmp_path / "fs1.fis.txt"
        fs1.write_text("".join(
            line for line in bundled.splitlines(keepends=True)
            if not line.startswith("rule")
            or "indoor_temperature is low " in line))
        manifest = write_manifest(tmp_path / "m.manifest", f"fis1 = {fs1}\n")
        dataset = tmp_path / "t.csv"
        dataset.write_text("date,T1,RH_1,Appliances\n"
                           "2016-01-11 09:30:00,15,40,400\n"
                           "2016-01-11 03:10:00,25,40,60\n"
                           "2016-01-11 03:20:00,15,140,60\n"
                           "2016-01-11 03:30:00,25,140,60\n")
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, ["simulate", "--dataset", str(dataset),
                                    "--manifest", str(manifest),
                                    "--out", str(out_dir)])
        assert code == 0
        assert "Clamped records: 1\nFail-safe sends: 2\n" in out
        decisions = (out_dir / "decisions.csv").read_text().splitlines()
        assert decisions[1:] == [
            "0,2016-01-11 09:30:00,15.0,0.4,400.0,9.5,23.922152120574832,"
            "84.47038269550751,72.94375624375627,not_send,0,0",
            "1,2016-01-11 03:10:00,25.0,0.4,60.0,3.1666666666666665,,,,send,0,1",
            "2,2016-01-11 03:20:00,15.0,1.4,60.0,3.3333333333333335,55.0,"
            "16.30780031201248,27.056243756243752,send,1,0",
            "3,2016-01-11 03:30:00,25.0,1.4,60.0,3.5,,,,send,0,1"]
        cumulative = (out_dir / "cumulative.csv").read_text().splitlines()
        assert cumulative[1:] == [
            "0,0.04853132189331735,0.0",
            "1,0.0970626437866347,0.04853132189331735",
            "2,0.14559396567995206,0.0970626437866347",
            "3,0.1941252875732694,0.14559396567995206"]

    def test_negative_zero_and_three_digit_year(self, capsys, tmp_path):
        # -0.0 keeps its sign, and a year below 1000 is written as loaded,
        # padded to four digits.
        dataset = tmp_path / "t.csv"
        dataset.write_text("date,T1,RH_1,Appliances\n"
                           "0999-01-02 03:04:05,20,40,-0.0\n"
                           "2016-01-11 17:00:00,-0.0,40,0\n")
        out_dir = tmp_path / "out"
        code, *_ = run(capsys, ["simulate", "--dataset", str(dataset),
                                "--out", str(out_dir)])
        assert code == 0
        decisions = (out_dir / "decisions.csv").read_text().splitlines()
        assert decisions[1:] == [
            "0,0999-01-02 03:04:05,20.0,0.4,-0.0,3.068055555555556,55.0,"
            "15.529617304492511,27.056243756243752,send,0,0",
            "1,2016-01-11 17:00:00,-0.0,0.4,0.0,17.0,23.922152120574832,"
            "18.358690234635656,27.056243756243752,send,0,0"]

    @pytest.mark.parametrize("body", ["", "\n\n\n"], ids=["header", "blank-lines"])
    def test_header_only(self, capsys, tmp_path, body):
        """A file with no data rows replays 0 records, silently."""
        dataset = tmp_path / "t.csv"
        dataset.write_text("date,T1,RH_1,Appliances\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["simulate", "--dataset", str(dataset),
                                          "--out", str(tmp_path / "out")])
        assert (code, err) == (0, "")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["records"] == 0

    @pytest.mark.parametrize("bad_rows, shown", [
        (3, "lines 3, 5, 7\n"),
        (10, "lines 3, 5, 7, 9, 11, 13, 15, 17, 19, 21\n"),
        (12, "lines 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, …\n"),
    ])
    def test_skipped_lines_on_stderr(self, capsys, tmp_path, bad_rows, shown):
        rows = ["date,T1,RH_1,Appliances"]
        for i in range(bad_rows):
            rows += [f"2016-01-11 17:{i:02d}:00,20,40,60", "not-a-date,20,40,60"]
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, ["simulate", "--dataset", str(data),
                                      "--skip-bad", "--out", str(out_dir)])
        assert code == 0
        assert err == f"skipped {data}: {shown}"
        assert f"Skipped rows: {bad_rows}\n" in out and "lines 3" not in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert (summary["records"], summary["skipped_rows"]) == (bad_rows, bad_rows)

    def test_mapping_defaults_are_the_loaders(self):
        args = build_parser().parse_args(["simulate", "--dataset", "x"])
        assert _build_mapping(args) == ColumnMapping()


def eval_json(capsys, *extra):
    code, out, err = run(capsys, ["eval", *READING, "--json", *extra])
    assert code == 0, err
    return json.loads(out)


def edited_fs1(tmp_path, name, *replacements):
    text = (bundled_fis_dir() / FIS_FILES["fs1"]).read_text(encoding="utf-8")
    for old, new in replacements:
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestOverrides:
    def test_fis_option_overrides_manifest(self, capsys, tmp_path):
        all_hot = edited_fs1(tmp_path, "hot.fis.txt",
                             *((f"apparent_temperature is {term}",
                                "apparent_temperature is hot")
                               for term in ("cool", "medium", "warm")))
        manifest = write_manifest(tmp_path / "m.manifest")
        bundled = eval_json(capsys)
        overridden = eval_json(capsys, "--manifest", str(manifest),
                               "--fis1", str(all_hot))
        assert overridden["intermediates"] == \
            eval_json(capsys, "--fis1", str(all_hot))["intermediates"]
        assert overridden["intermediates"]["apparent_temperature"] > \
            bundled["intermediates"]["apparent_temperature"]

    def test_threshold_option_overrides_manifest(self, capsys, tmp_path):
        manifest = write_manifest(tmp_path / "m.manifest", "threshold = 0\n")
        assert eval_json(capsys, "--manifest", str(manifest))["label"] == "not_send"
        assert eval_json(capsys, "--manifest", str(manifest),
                         "--threshold", "100")["label"] == "send"

    def test_renamed_fs1_inputs_bind_by_position(self, capsys, tmp_path):
        renamed = edited_fs1(tmp_path, "renamed.fis.txt",
                             ("indoor_temperature", "t_in"),
                             ("indoor_humidity", "rh_in"))
        bundled = eval_json(capsys)
        for extra in ([], ["--manifest", str(write_manifest(tmp_path / "m"))]):
            trace = eval_json(capsys, *extra, "--fis1", str(renamed))
            assert trace["score"] == bundled["score"]
            assert trace["intermediates"] == bundled["intermediates"]


class TestBadInput:
    """Bad numbers and unreadable files exit 1 (domain) or 2 (I/O) with a
    message, never with an exception."""

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_nan_threshold(self, capsys, tmp_path, fixture_csv, command):
        args = READING if command == "eval" else [
            "--dataset", str(fixture_csv), "--out", str(tmp_path / "out")]
        code, _, err = run(capsys, [command, *args, "--threshold", "nan"])
        assert code == 1
        assert "finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("clamp", [[], ["--clamp"]], ids=["strict", "clamp"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--temp", "--humidity", "--energy", "--time"])
    def test_non_finite_reading(self, capsys, flag, value, clamp):
        # A clamped inf would print as "Infinity" in --json, which is not JSON.
        argv = READING.copy()
        i = argv.index(flag)
        argv[i:i + 2] = [f"{flag}={value}"]
        code, out, err = run(capsys, ["eval", *argv, "--json", *clamp])
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} must be a finite number, got {value}\n"

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "1e400"])
    def test_bad_manifest_threshold(self, capsys, tmp_path, value):
        """Refused at its line, the value shown as written: `1e400` is not
        shown as the `inf` that float() makes of it."""
        manifest = write_manifest(tmp_path / "m.manifest", f"threshold = {value}\n")
        code, _, err = run(capsys, ["eval", *READING, "--manifest", str(manifest)])
        assert code == 1
        assert err.startswith(f"error: {manifest}:4: threshold must be a ")
        assert err.endswith(f" number, got '{value}'\n")

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_output_term_between_grid_points_refused(self, capsys, tmp_path,
                                                     fixture_csv, command):
        # Rules concluding `send` fire, but no grid point sees it: the reading
        # would read as "no rule fired" and be sent as a fail-safe.
        bundled = (bundled_fis_dir() / FIS_FILES["fs3"]).read_text()
        narrow = tmp_path / "fs3.fis.txt"
        narrow.write_text(bundled.replace("term send trapezoid 0 0 25 75",
                                          "term send triangle 10.01 10.02 10.03"))
        args = READING if command == "eval" else [
            "--dataset", str(fixture_csv), "--out", str(tmp_path / "out")]
        code, out, err = run(capsys, [command, *args, "--fis3", str(narrow)])
        assert (code, out) == (1, "")
        assert err == ("error: node 'fs3' (system 'fs3_sending_decision'): "
                       "output term(s) 'send' of 'sending_decision' are 0 at "
                       "every grid point: rules that conclude them would fire "
                       "and never move the centroid\n")
        assert not (tmp_path / "out").exists()

    def test_non_finite_breakpoint(self, capsys, tmp_path):
        bad = tmp_path / "nan.fis.txt"
        bad.write_text("system s\ninput x universe 0 10\n"
                       "  term a triangle 0 nan 10\n"
                       "output y universe 0 1\n  term t triangle 0 0.5 1\n"
                       "rule if x is a then y is t\n")
        code, out, _ = run(capsys, ["check", str(bad)])
        assert code == 1
        assert f"{bad}:3:21: error:" in out

    def test_output_universe_too_large_in_check(self, capsys, tmp_path):
        # Every score would be inf, so no record would ever be sent.
        bad = tmp_path / "huge.fis.txt"
        bad.write_text("system s\ninput x universe 0 10\n"
                       "  term a triangle 0 5 10\n"
                       "output y universe 0 1e308\n"
                       "  term t triangle 0 5e307 1e308\n"
                       "rule if x is a then y is t\n")
        code, out, _ = run(capsys, ["check", str(bad)])
        assert code == 1
        assert f"{bad}:4:1: error:" in out and "overflow" in out

    def test_non_utf8_definition_in_check(self, capsys, tmp_path):
        bad = tmp_path / "latin1.fis.txt"
        bad.write_bytes(b"system caf\xe9\n")
        code, out, _ = run(capsys, ["check", str(bad)])
        assert code == 1
        assert f"{bad}:1:11: error: invalid UTF-8" in out

    def test_non_utf8_definition_through_manifest(self, capsys, tmp_path):
        bad = tmp_path / "latin1.fis.txt"
        bad.write_bytes(b"system caf\xe9\n")
        manifest = write_manifest(tmp_path / "m.manifest", f"fis1 = {bad}\n")
        code, _, err = run(capsys, ["eval", *READING, "--manifest", str(manifest)])
        assert code == 1
        assert "invalid UTF-8" in err

    @staticmethod
    def padded(path, source, extra):
        """Write `source`'s bytes and then a comment that brings the file to
        `extra` bytes over MAX_FILE_BYTES; return its path."""
        text = Path(source).read_bytes()
        path.write_bytes(text + b"#" * (MAX_FILE_BYTES + extra - len(text)))
        return path

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-bound", "over-bound"])
    def test_definition_size_bound(self, capsys, tmp_path, extra):
        fis = self.padded(tmp_path / "big.fis.txt",
                          bundled_fis_dir() / FIS_FILES["fs1"], extra)
        code, out, _ = run(capsys, ["check", str(fis)])
        assert code == extra
        over = f"{fis}:1:1: error: file is over {MAX_FILE_BYTES} bytes"
        assert (over in out) == bool(extra)
        manifest = write_manifest(tmp_path / "m.manifest", f"fis1 = {fis}\n")
        for options in (["--fis1", str(fis)], ["--manifest", str(manifest)]):
            code, out, err = run(capsys, ["eval", *READING, *options])
            assert code == extra
            assert err == (f"error: invalid definition file: {over}\n"
                           if extra else "")

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-bound", "over-bound"])
    def test_manifest_size_bound(self, capsys, tmp_path, extra):
        manifest = self.padded(tmp_path / "big.manifest",
                               write_manifest(tmp_path / "m.manifest"), extra)
        code, _, err = run(capsys, ["eval", *READING, "--manifest", str(manifest)])
        assert code == extra
        assert err == (f"error: {manifest}: file is over {MAX_FILE_BYTES} bytes\n"
                       if extra else "")

    @pytest.mark.parametrize("line, message", [
        # Readings bind by position only; `external` is not a manifest key.
        ("external temperature = fs1.indoor_temperature",
         "unknown key 'external temperature'"),
        ("fis1 = a\0b.fis.txt", "fis1 path contains a NUL byte"),
        # An empty path would name the manifest's directory.
        ("fis1 =", "fis1 has no path"),
        ("fis3 = # comment", "fis3 has no path"),
    ], ids=["external-key", "nul-byte", "empty-path", "comment-path"])
    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_bad_manifest_line(self, capsys, tmp_path, fixture_csv, command,
                               line, message):
        manifest = write_manifest(tmp_path / "m.manifest", line + "\n")
        args = READING if command == "eval" else [
            "--dataset", str(fixture_csv), "--out", str(tmp_path / "out")]
        code, _, err = run(capsys, [command, *args, "--manifest", str(manifest)])
        assert code == 1
        assert err.startswith(f"error: {manifest}:4: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("options, csv_bytes, where", [
        (["--per-packet-joules", "0"], None, None),
        (["--per-packet-joules", "nan"], None, "finite and > 0"),
        (["--per-packet-joules", "inf"], None, "finite and > 0"),
        (["--per-packet-joules", "1e307"], None, "overflow a float"),
        (["--map-temp", "date"], None, None),
        ([], b"date,T1,RH_1,Appliances\n2016-01-11 17:00:00,20,40,caf\xe9\n",
         "bad.csv: "),
        # One stray quote opens a field that runs past the csv module's
        # 128 KiB field limit.
        (["--skip-bad"], b"date,T1,RH_1,Appliances\n2016-01-11 17:00:00,\"20,40,60\n"
         + b"2016-01-11 17:10:00,20,40,60\n" * 5000,
         "bad.csv: record starting at line 2: "),
    ], ids=["zero-joules", "nan-joules", "inf-joules", "total-overflow",
            "duplicate-column", "non-utf8-csv", "stray-quote"])
    def test_bad_simulate_input(self, tmp_path, fixture_csv, options, csv_bytes,
                                where):
        # A separate process, so the assertion sees what a shell user sees.
        dataset = fixture_csv
        if csv_bytes is not None:
            dataset = tmp_path / "bad.csv"
            dataset.write_bytes(csv_bytes)
        env = dict(os.environ, PYTHONPATH=str(Path(fuzzgate.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzgate.cli", "simulate", "--dataset",
             str(dataset), "--out", str(tmp_path / "out"), *options],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        if where is not None:
            assert where in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["eval", "--temp=--", *READING[2:]],
        ["eval", *READING, "--threshold=--"],
        ["eval", *READING, "--fis1=--"],
        ["simulate", "--dataset=--"],
        ["simulate", "--dataset", "x.csv", "--per-packet-joules=--"],
        ["simulate", "--dataset", "x.csv", "--map-temp=--"],
    ], ids=["reading", "threshold", "path", "dataset", "joules", "mapping"])
    def test_double_dash_as_a_value(self, capsys, argv):
        # argparse reads `--flag=--` as an empty list and skips the type.
        flag = next(arg for arg in argv if arg.endswith("=--")).split("=")[0]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: expected one argument\n")

    def test_packet_flag_is_unknown(self, capsys):
        """simulate reads no packet layout and no energy mode, only joules per
        packet: a flag such as --current or --energy-mode is refused as any
        unknown flag is."""
        for flag in (["--current", "2"], ["--energy-mode", "physical"]):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--dataset", "x.csv", *flag])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                f"error: unrecognized arguments: {' '.join(flag)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_dataset_with_no_line_end(self, tmp_path):
        # A separate process, so a read that grows without bound would show
        # as a MemoryError traceback or a timeout here.
        env = dict(os.environ, PYTHONPATH=str(Path(fuzzgate.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzgate.cli", "simulate", "--dataset",
             "/dev/zero", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == \
            f"error: /dev/zero: line 1 is over {MAX_LINE} characters\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("past", [0, 1], ids=["at-the-bound", "one-over"])
    def test_line_length_bound(self, capsys, tmp_path, past):
        """Line 3 holds MAX_LINE characters, its line end included, or one
        more, in fields that each stay under csv's field size limit."""
        pads = 9
        row = "2016-01-11 17:10:00,20,40,60"
        fill = MAX_LINE + past - len(row) - pads - 1
        sizes = [fill // pads + (i < fill % pads) for i in range(pads)]
        long = row + "".join("," + "x" * n for n in sizes) + "\n"
        assert len(long) == MAX_LINE + past and max(sizes) < csv.field_size_limit()
        dataset = tmp_path / "long.csv"
        dataset.write_text("date,T1,RH_1,Appliances," +
                           ",".join(f"p{i}" for i in range(pads)) + "\n" +
                           f"{row}\n{long}{row}\n", newline="")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, ["simulate", "--dataset", str(dataset),
                                    "--out", str(out_dir)])
        if past:
            assert (code, err) == (
                1, f"error: {dataset}: line 3 is over {MAX_LINE} characters\n")
        else:
            assert (code, err) == (0, "")
            summary = json.loads((out_dir / "summary.json").read_text())
            assert summary["records"] == 3

    def test_out_dir_under_a_file(self, capsys, tmp_path, fixture_csv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run(capsys, ["simulate", "--dataset", str(fixture_csv),
                                    "--out", str(blocker / "out")])
        assert code == 2
        assert err.startswith("error: ")


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}, which JSON does not allow")


ENERGY_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, -1.0, float("nan"), float("inf"), float("-inf")]))


@settings(max_examples=60, deadline=None)
@given(joules=st.none() | ENERGY_FLOATS)
def test_simulate_energy_flags_never_crash(fixture_csv, joules):
    """Any value of --per-packet-joules, or none, either prices the replay
    with valid JSON (exit 0) or is refused with an error line (exit 1)."""
    with tempfile.TemporaryDirectory() as tmp:
        # --flag=value, so that argparse reads "-inf" as a value.
        argv = ["simulate", "--dataset", str(fixture_csv), "--out", tmp]
        if joules is not None:
            argv.append(f"--per-packet-joules={joules!r}")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            json.loads((Path(tmp) / "summary.json").read_text(),
                       parse_constant=_reject_constant)
        else:
            assert err.getvalue().startswith("error: ")


CSV_NUMBERS = st.sampled_from([b"20", b"35.5", b"0.35", b"90", b"900"]) | \
    st.sampled_from([b"-40", b"1e308", b"nan", b"inf", b"-inf", b"", b'"',
                     b'"20"', "café".encode(), b"\x00", b"T1"])
CSV_TIMESTAMPS = st.sampled_from([
    b"2016-01-11 17:00:00", b"2016-01-11 23:50:00", b"2016-1-11 7:0:0",
    b"2016-01-11T17:00:00", b"not-a-date", b""])
CSV_ROWS = st.sampled_from([b"2016-01-11 17:00:00,20,40,60",
                            b"2016-01-11 23:50:00,35,90,900"]) | \
    st.builds(lambda ts, fields: b",".join([ts, *fields]), CSV_TIMESTAMPS,
              st.lists(CSV_NUMBERS, max_size=6))
CSV_HEADERS = st.sampled_from([
    b"date,T1,RH_1,Appliances", b"\xef\xbb\xbfdate,T1,RH_1,Appliances",
    b"date,T1,RH_1,Appliances,T1", b"date,T1,Appliances,RH_1,RH_1",
    b"date,T1,Appliances"]) | CSV_ROWS


@settings(max_examples=100, deadline=None)
@given(header=CSV_HEADERS, rows=st.lists(CSV_ROWS, max_size=10),
       last=st.just(b"") | st.text(max_size=24).map(str.encode)
       | st.binary(max_size=24),
       newline=st.sampled_from([b"\n", b"\r\n"]),
       policy=st.sampled_from(["--strict", "--skip-bad"]))
def test_simulate_csv_bytes_never_crash(header, rows, last, newline, policy):
    """CSV bytes, up to a last line of raw bytes, either replay
    (exit 0) or are refused with an error line (exit 1 or 2), under either
    row policy."""
    with tempfile.TemporaryDirectory() as tmp:
        dataset = Path(tmp) / "data.csv"
        dataset.write_bytes(newline.join([header, *rows, last]))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["simulate", "--dataset", str(dataset), "--out",
                         str(Path(tmp) / "out"), policy])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith("error: ")


def exit_status(argv):
    """`main`'s exit status as a shell sees it, with its stdout and stderr:
    argparse refuses a bad argv by raising SystemExit(2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_no_crash(argv):
    """Exit 0, or 1 or 2 with an error line (`check` prints its
    diagnostics on stdout), and never a traceback; `eval --json` prints
    strict JSON."""
    code, out, err = exit_status(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in out + err
    if code:
        assert "error: " in out + err, (argv, out, err)
    elif "--json" in argv:
        json.loads(out, parse_constant=_reject_constant)
    return code


ARGV_NUMBERS = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "-0.0", "0", "5e-324",
    "1e308", "-1e308", "20", "0.35", "60", "3", "24", "100", " 20 ", "1_0",
    "0x10", "abc", "", "--", "caf\xe9"]) | st.text(max_size=6)
EVAL_FLAGS = ("--temp", "--humidity", "--energy", "--time")


@settings(max_examples=150, deadline=None)
@given(values=st.tuples(*[ARGV_NUMBERS] * 4),
       threshold=st.none() | ARGV_NUMBERS,
       options=st.lists(st.sampled_from(["--clamp", "--json"]), unique=True))
def test_eval_argv_never_crashes(values, threshold, options):
    """Readings and thresholds that are non-finite, out of every universe,
    negative zero or not numbers at all."""
    argv = ["eval", *(f"{flag}={value}" for flag, value in zip(EVAL_FLAGS, values)),
            *options]
    if threshold is not None:
        argv.append(f"--threshold={threshold}")
    assert_no_crash(argv)


FS1_LINES = (bundled_fis_dir() / FIS_FILES["fs1"]).read_bytes().splitlines()
FIS_WORDS = st.sampled_from([
    b"nan", b"inf", b"-inf", b"1e400", b"-0.0", b"0", b"5e-324", b"1e308",
    b"-1e308", b"100", b"caf\xe9", b"\x00", b"\xff", b"#", b"", b"is", b"and",
    b"if", b"then", b"rule", b"term", b"input", b"output", b"universe",
    b"unit", b"system", b"triangle", b"trapezoid", b"low", b"cool"])


@st.composite
def fis_bytes(draw):
    """The bundled FS1 file with a few words replaced and lines dropped or
    repeated, and a tail of raw bytes; or raw bytes alone."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    lines = [line.split(b" ") for line in FS1_LINES]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["word", "drop", "repeat"]))
        if edit == "word":
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = draw(FIS_WORDS)
        elif edit == "drop" and len(lines) > 1:
            del lines[i]
        else:
            lines.insert(i, list(lines[i]))
    return b"\n".join(map(b" ".join, lines)) + draw(st.binary(max_size=8))


@settings(max_examples=150, deadline=None)
@given(fis=fis_bytes())
def test_definition_bytes_never_crash(fis):
    """Raw definition file bytes, read by `check` and as `eval --fis1`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fs1.fis.txt"
        path.write_bytes(fis)
        assert_no_crash(["check", str(path)])
        assert_no_crash(["eval", *READING, "--clamp", "--fis1", str(path)])


@st.composite
def manifest_bytes(draw):
    """Manifest lines: the bundled definition files by absolute path, a
    definition file beside the manifest, paths that name nothing or a
    directory, thresholds that are not finite numbers, unknown keys and
    raw bytes."""
    keys = st.sampled_from([*FIS_KEYS, "threshold", "fis4", ""])
    values = st.sampled_from([
        *(str(path) for path in parse_manifest(BUNDLED_MANIFEST)[0].values()),
        "fs1.fis.txt",
        "missing.fis.txt", ".", "", "nan", "inf", "1e400", "-0.0", "50",
        "abc", "50 # comment", "a#b"])
    line = st.builds(lambda k, v: f"{k} = {v}".encode(), keys, values) | \
        st.sampled_from([b"", b"# comment", b"fis1", b"= 50", b"\xff", b"\x00"]) | \
        st.binary(max_size=16)
    return b"\n".join(draw(st.lists(line, max_size=8)))


@settings(max_examples=150, deadline=None)
@given(manifest=manifest_bytes(), fis=fis_bytes())
def test_manifest_bytes_never_crash(manifest, fis):
    """Raw manifest bytes through `eval --manifest`, beside a drawn
    definition file that the manifest may name."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.manifest"
        path.write_bytes(manifest)
        (Path(tmp) / "fs1.fis.txt").write_bytes(fis)
        assert_no_crash(["eval", *READING, "--manifest", str(path)])
