import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import FIS_FILES, write_manifest
from fuzzgate import FiredRule
from fuzzgate.cascade import (BUNDLED_MANIFEST, Cascade, CascadeBuildError,
                              DEFAULT_EXTERNALS, FIS_KEYS, WiringMismatchError,
                              SEND, bundled_fis_dir, load_manifest,
                              parse_manifest, sends)
from fuzzgate.cli import main
from fuzzgate.core import (FuzzySubsystem, LinguisticVariable,
                           MembershipFunction, NoRuleFiredError,
                           OutOfUniverseError)
from fuzzgate.sim import load_telemetry
from inference import fire, infer
from tables import FS3_TABLE, core_point


def rescale_output(fs: FuzzySubsystem, lo, hi) -> FuzzySubsystem:
    """Copy of fs3 with one input universe altered (for mismatch tests)."""
    scale = (hi - lo) / (fs.inputs[0].hi - fs.inputs[0].lo)
    var = fs.inputs[0]
    terms = tuple(
        (name, MembershipFunction(tuple(lo + (p - var.lo) * scale
                                        for p in mf.corners)))
        for name, mf in var.terms)
    edited = LinguisticVariable(var.name, lo, hi, terms, var.unit)
    return FuzzySubsystem(fs.name, (edited, fs.inputs[1]), fs.output, fs.rules)


class TestBuild:
    def test_bundled_wiring(self, cascade):
        assert cascade.externals == {
            "temperature": ("fs1", "indoor_temperature"),
            "humidity": ("fs1", "indoor_humidity"),
            "appliance_energy": ("fs2", "appliance_energy"),
            "time_of_day": ("fs2", "time_of_read"),
        }
        assert cascade.fs3.inputs[0].name == cascade.fs1.output.name
        assert cascade.fs3.inputs[1].name == cascade.fs2.output.name
        assert cascade.threshold == 50.0

    def test_universe_mismatch(self, fs1, fs2, fs3):
        edited = rescale_output(fs3, 0, 50)
        with pytest.raises(WiringMismatchError):
            Cascade(fs1, fs2, edited)

    def test_unfed_input_rejected(self, fs1, fs2, fs3):
        # Stage-one nodes take two readings each, bound by position.
        extra = replace(fs1.inputs[0], name="extra")
        for fs1_inputs, fs2_inputs in ((fs1.inputs[:1], fs2.inputs),
                                       (fs1.inputs + (extra,), fs2.inputs),
                                       (fs1.inputs + (extra,), fs2.inputs[:1])):
            with pytest.raises(CascadeBuildError, match="stage-one inputs"):
                Cascade(
                    FuzzySubsystem(fs1.name, fs1_inputs, fs1.output, ()),
                    FuzzySubsystem(fs2.name, fs2_inputs, fs2.output, ()), fs3)

    def test_swapped_nodes_rejected(self, fs1, fs2, fs3):
        # FS3 in FS2's place: FS1's output has no consumer.
        with pytest.raises(WiringMismatchError, match="apparent_temperature"):
            Cascade(fs1, fs3, fs2)

    def test_replace_is_checked(self, cascade):
        with pytest.raises(CascadeBuildError, match="finite"):
            replace(cascade, threshold=float("nan"))
        with pytest.raises(WiringMismatchError):
            replace(cascade, fs3=cascade.fs1)
        assert replace(cascade, threshold=40.0).threshold == 40.0


class TestDecide:
    def test_low_score_sends(self):
        assert sends(27.1, 50.0) is True

    def test_high_score_suppresses(self):
        assert sends(72.9, 50.0) is False

    def test_tie_policy_defaults_to_send(self):
        assert sends(50.0, 50.0) is True

    def test_array_of_scores(self):
        """One rule for a column of scores: a NaN score is not sent by it
        (the replay sends such a record as a fail-safe)."""
        scores = np.array([27.1, 50.0, np.nextafter(50.0, np.inf), 72.9, np.nan])
        assert sends(scores, 50.0).tolist() == [True, True, False, False, False]


class TestEvaluate:
    def test_cool_low_sends(self, cascade):
        trace = cascade.evaluate({"temperature": 20.0, "humidity": 0.35,
                                  "appliance_energy": 60.0, "time_of_day": 3.0})
        apparent = trace.intermediates["apparent_temperature"]
        cool = cascade.fs1.output.term("cool")
        assert cool(apparent) == 1.0  # inside the cool core
        fs2_rules = [f for f in trace.fired if f.node == "fs2"]
        assert all(f.consequent == ("appliance_usage_time", "low")
                   for f in fs2_rules)
        assert trace.label == "send"
        assert trace.score < 50.0

    def test_extreme_energy_peak_am_vhigh_usage(self, cascade):
        trace = cascade.evaluate({"temperature": 20.0, "humidity": 0.35,
                                  "appliance_energy": 400.0,
                                  "time_of_day": 9.5})
        usage = trace.intermediates["appliance_usage_time"]
        vhigh = cascade.fs2.output.term("v.high")
        assert vhigh(usage) == 1.0
        assert trace.label == "not_send"

    def test_hot_row_always_sends(self, cascade):
        hot = core_point(cascade.fs3.inputs[0], "hot")
        for usage_term in ("low", "medium", "high", "v.high"):
            usage = core_point(cascade.fs3.inputs[1], usage_term)
            score = infer(cascade.fs3, {"apparent_temperature": hot,
                                        "appliance_usage_time": usage}).centroid
            assert sends(score, cascade.threshold)

    def test_fs3_table_at_cores(self, cascade):
        for (app_term, usage_term), expected in FS3_TABLE.items():
            score = infer(cascade.fs3, {
                "apparent_temperature": core_point(cascade.fs3.inputs[0], app_term),
                "appliance_usage_time": core_point(cascade.fs3.inputs[1], usage_term),
            }).centroid
            assert sends(score, cascade.threshold) == (expected == SEND), \
                (app_term, usage_term)

    def test_out_of_universe_raises_without_clamp(self, cascade):
        inputs = {"temperature": 20.0, "humidity": 1.5,
                  "appliance_energy": 60.0, "time_of_day": 3.0}
        with pytest.raises(OutOfUniverseError) as info:
            cascade.evaluate(inputs)
        # The node's input name, not the external one.
        assert (info.value.variable, info.value.value) == ("indoor_humidity", 1.5)
        trace = cascade.evaluate(inputs, clamp=True)
        assert trace.clamped == ("humidity",)

    def test_missing_external_raises(self, cascade):
        with pytest.raises(KeyError):
            cascade.evaluate({"temperature": 20.0})

    def test_missing_externals_are_listed_sorted(self, cascade):
        with pytest.raises(KeyError) as info:
            cascade.evaluate({"humidity": 0.4, "station": 3.0})
        assert info.value.args == (
            "missing external inputs: "
            "['appliance_energy', 'temperature', 'time_of_day']",)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("external", DEFAULT_EXTERNALS)
    def test_nan_reading_is_out_of_universe(self, cascade, external, clamp):
        inputs = {"temperature": 20.0, "humidity": 0.35,
                  "appliance_energy": 60.0, "time_of_day": 3.0}
        inputs[external] = float("nan")
        with pytest.raises(OutOfUniverseError) as info:
            cascade.evaluate(inputs, clamp=clamp)
        var = cascade.external_variable(external)
        assert info.value.variable == var.name
        assert (info.value.lo, info.value.hi) == (var.lo, var.hi)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("external", DEFAULT_EXTERNALS)
    def test_infinite_reading_is_clamped_or_raises(self, cascade, external,
                                                   sign):
        inputs = {"temperature": 20.0, "humidity": 0.35,
                  "appliance_energy": 60.0, "time_of_day": 3.0}
        inputs[external] = sign * math.inf
        with pytest.raises(OutOfUniverseError):
            cascade.evaluate(inputs)
        var = cascade.external_variable(external)
        trace = cascade.evaluate(inputs, clamp=True)
        assert trace.clamped == (external,)
        assert trace.inputs[external] == sign * math.inf
        at_bound = cascade.evaluate({**inputs, external: var.hi if sign > 0
                                     else var.lo})
        assert (trace.intermediates, trace.score, trace.label, trace.fired) == \
            (at_bound.intermediates, at_bound.score, at_bound.label,
             at_bound.fired)

    def test_trace_inputs_are_the_four_readings(self, cascade):
        # Other keys are not read; the readings come out as floats, unclamped,
        # in DEFAULT_EXTERNALS order whatever the order given.
        inputs = {"time_of_day": 3, "station": "A", "appliance_energy": 60,
                  "humidity": 1.5, "gateway": 7.0, "temperature": 20}
        trace = cascade.evaluate(inputs, clamp=True)
        assert list(trace.inputs.items()) == [
            ("temperature", 20.0), ("humidity", 1.5),
            ("appliance_energy", 60.0), ("time_of_day", 3.0)]
        assert all(type(v) is float for v in trace.inputs.values())
        assert trace.clamped == ("humidity",)

    def test_trace_completeness(self, cascade):
        inputs = {"temperature": 20.8, "humidity": 0.37,
                  "appliance_energy": 120.0, "time_of_day": 12.5}
        trace = cascade.evaluate(inputs)
        for node_name, fs in cascade.nodes.items():
            node_inputs = ({v.name: inputs[k] for k, (n, vn) in
                            cascade.externals.items()
                            for v in fs.inputs if n == node_name and vn == v.name}
                           if node_name != "fs3" else {
                               cascade.fs1.output.name:
                                   trace.intermediates[cascade.fs1.output.name],
                               cascade.fs2.output.name:
                                   trace.intermediates[cascade.fs2.output.name]})
            expected = [(fs.rules[r], act) for r, act in fire(fs, node_inputs)]
            fired = [f for f in trace.fired if f.node == node_name]
            assert len(fired) == len(expected)
            for f, (rule, act) in zip(fired, expected):
                assert f.antecedents == rule.antecedents
                assert f.consequent == rule.consequent
                assert f.activation == act

    def test_fired_records_are_immutable_hashable_tuples(self, cascade):
        trace = cascade.evaluate({"temperature": 20.8, "humidity": 0.37,
                                  "appliance_energy": 120.0, "time_of_day": 12.5})
        assert trace.fired and all(type(f) is FiredRule for f in trace.fired)
        record = trace.fired[0]
        with pytest.raises(AttributeError):
            record.activation = 0.0
        assert len(frozenset(trace.fired)) == len(trace.fired)
        node, antecedents, consequent, activation = record
        assert (node, antecedents, consequent, activation) == \
            (record.node, record.antecedents, record.consequent,
             record.activation)

    def test_determinism_across_runs(self, cascade):
        inputs = {"temperature": 21.1, "humidity": 0.42,
                  "appliance_energy": 175.0, "time_of_day": 18.2}
        traces = [cascade.evaluate(inputs) for _ in range(3)]
        assert traces[0] == traces[1] == traces[2]

    def test_concurrent_evaluations_match_a_serial_pass(self, cascade,
                                                        fixture_csv):
        """Two threads evaluating the fixture's rows, four times over, on a
        cascade whose memos start empty, give the traces of a serial pass:
        misses and hits of the centroid memos interleave."""
        telemetry, _ = load_telemetry(fixture_csv)
        rows = [dict(zip(DEFAULT_EXTERNALS, values))
                for values in telemetry.readings.tolist()] * 4
        expected = [cascade.evaluate(x, clamp=True) for x in rows]
        fresh = Cascade(*(replace(fs) for fs in cascade.nodes.values()))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                traces = list(pool.map(lambda x: fresh.evaluate(x, clamp=True),
                                       rows, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert traces == expected

    def test_activations_computed_once_per_node(self, cascade, monkeypatch):
        # `activate` is the one routine that computes activations.
        calls = []
        original = FuzzySubsystem.activate

        def counted(self, *args):
            calls.append(self.name)
            return original(self, *args)

        monkeypatch.setattr(FuzzySubsystem, "activate", counted)
        cascade.evaluate({"temperature": 20.5, "humidity": 0.37,
                          "appliance_energy": 90.0, "time_of_day": 7.5})
        assert calls == [cascade.fs1.name, cascade.fs2.name, cascade.fs3.name]

    def test_no_rule_fired_names_the_node(self, fs1, fs2, fs3):
        # strip FS1's rule bank so nothing can fire
        empty_fs1 = FuzzySubsystem(fs1.name, fs1.inputs, fs1.output, ())
        cascade = Cascade(empty_fs1, fs2, fs3)
        with pytest.raises(NoRuleFiredError, match="fs1"):
            cascade.evaluate({"temperature": 20.0, "humidity": 0.35,
                              "appliance_energy": 60.0, "time_of_day": 3.0})


class TestManifest:
    def test_bundled_manifest_loads(self):
        cascade = load_manifest(bundled_fis_dir() / "cascade.manifest")
        assert cascade.threshold == 50.0
        assert set(cascade.externals) == set(DEFAULT_EXTERNALS)
        trace = cascade.evaluate({"temperature": 20.0, "humidity": 0.35,
                                  "appliance_energy": 60.0, "time_of_day": 3.0})
        assert trace.label == "send"

    def test_manifest_matches_bundled_cascade(self, cascade):
        a = load_manifest(BUNDLED_MANIFEST)
        b = cascade  # built from the bundled files without the manifest
        inputs = {"temperature": 22.0, "humidity": 0.40,
                  "appliance_energy": 90.0, "time_of_day": 7.5}
        assert a.evaluate(inputs) == b.evaluate(inputs)

    def test_bad_manifest_key(self, tmp_path):
        bad = tmp_path / "bad.manifest"
        bad.write_text("fis1 = x\nwat = 1\n")
        with pytest.raises(CascadeBuildError):
            load_manifest(bad)

    def test_missing_fis_entry(self, tmp_path):
        bad = tmp_path / "bad.manifest"
        bad.write_text("fis1 = a\nfis2 = b\n")
        with pytest.raises(CascadeBuildError, match="fis3"):
            load_manifest(bad)

    def test_non_numeric_threshold_names_path_and_line(self, tmp_path):
        bad = tmp_path / "bad.manifest"
        bad.write_text("fis1 = a\nthreshold = abc\n")
        with pytest.raises(CascadeBuildError, match=f"{bad}:2: .*'abc'"):
            load_manifest(bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_rejected(self, tmp_path, value):
        manifest = write_manifest(tmp_path / "m.manifest", f"threshold = {value}\n")
        with pytest.raises(CascadeBuildError, match="finite"):
            load_manifest(manifest)
        with pytest.raises(CascadeBuildError, match="finite"):
            load_manifest(BUNDLED_MANIFEST, threshold=float(value))

    def test_overrides_replace_manifest_entries(self, tmp_path):
        broken = tmp_path / "broken.fis.txt"
        broken.write_text("system broken\n")
        assert load_manifest(BUNDLED_MANIFEST, threshold=7.5).threshold == 7.5
        for key in FIS_KEYS:
            with pytest.raises(CascadeBuildError, match="broken.fis.txt"):
                load_manifest(BUNDLED_MANIFEST, **{key: broken})

    def test_hash_inside_a_path_is_part_of_it(self, tmp_path, cascade):
        """A '#' that does not start a word is no comment, as in the
        definition language: `fs1#a.fis.txt` is the file loaded."""
        (tmp_path / "fs1#a.fis.txt").write_text(
            (bundled_fis_dir() / FIS_FILES["fs1"]).read_text(encoding="utf-8"),
            encoding="utf-8")
        manifest = write_manifest(tmp_path / "m.manifest", "fis1 = fs1#a.fis.txt\n")
        assert parse_manifest(manifest)[0]["fis1"] == tmp_path / "fs1#a.fis.txt"
        assert load_manifest(manifest).fs1 == cascade.fs1

    def test_comments_are_ignored(self, tmp_path, cascade):
        manifest = write_manifest(
            tmp_path / "m.manifest",
            "# a full-line comment\n  # an indented one\n"
            "threshold = 40 # a trailing note\n")
        fis_paths, threshold = parse_manifest(manifest)
        assert threshold == 40.0
        assert fis_paths == parse_manifest(write_manifest(tmp_path / "n"))[0]
        assert load_manifest(manifest) == replace(cascade, threshold=40.0)

    def test_hash_inside_a_threshold_is_a_number_error(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "m.manifest", "threshold = 50#x\n")
        with pytest.raises(CascadeBuildError,
                           match=f"{manifest}:4: threshold must be a number, "
                                 f"got '50#x'"):
            load_manifest(manifest)
        assert main(["eval", "--temp", "20", "--humidity", "0.35", "--energy",
                     "60", "--time", "3", "--manifest", str(manifest)]) == 1
        assert "'50#x'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["fis2", "threshold"])
    def test_key_given_twice_names_both_lines(self, tmp_path, capsys, key):
        manifest = write_manifest(tmp_path / "m.manifest",
                                  f"{key} = 40\n# again:\n{key} = 60\n")
        message = f"{manifest}:6: {key} given twice, first on line 4"
        with pytest.raises(CascadeBuildError) as exc:
            parse_manifest(manifest)
        assert str(exc.value) == message
        assert main(["eval", "--temp", "20", "--humidity", "0.35", "--energy",
                     "60", "--time", "3", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_utf8_definition_file(self, tmp_path):
        latin1 = tmp_path / "latin1.fis.txt"
        latin1.write_bytes(b"system caf\xe9\n")
        with pytest.raises(CascadeBuildError, match="UTF-8"):
            load_manifest(BUNDLED_MANIFEST, fis1=latin1)
