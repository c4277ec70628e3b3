import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIS_FILES
from fuzzgate.cascade import DEFAULT_EXTERNALS, build_cascade, bundled_fis_dir
from fuzzgate.dsl import (FisDocument, load_subsystem, parse, serialize,
                          validate)

MINIMAL = """\
system demo
input x universe 0 10
  term small triangle 0 5 10
"""


def read_bundled(key):
    return (bundled_fis_dir() / FIS_FILES[key]).read_text(encoding="utf-8")


def parse_ok(text):
    doc, diags = parse(text)
    errors = [d for d in diags if d.severity == "error"]
    assert doc is not None and not errors, [d.format() for d in diags]
    return doc


class TestParse:
    def test_minimal_document(self):
        doc = parse_ok(MINIMAL)
        assert doc.name == "demo"
        assert len(doc.variables) == 1
        assert doc.variables[0].terms[0].breakpoints == (0.0, 5.0, 10.0)
        assert doc.rules == ()

    def test_misspelled_keyword_reports_line_and_column(self):
        doc, diags = parse(MINIMAL + "ruel if x is small then x is small\n")
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1
        assert errors[0].span.line == 4
        assert errors[0].span.column == 1
        assert "ruel" in errors[0].message

    def test_bundled_fs1_shape(self):
        doc = parse_ok(read_bundled("fs1"))
        inputs = [v for v in doc.variables if v.direction == "input"]
        outputs = [v for v in doc.variables if v.direction == "output"]
        assert len(inputs) == 2 and len(outputs) == 1
        assert len(doc.rules) == 16

    def test_crlf_accepted(self):
        doc = parse_ok(MINIMAL.replace("\n", "\r\n"))
        assert len(doc.variables) == 1

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_ok("# leading comment\n\n" + MINIMAL + "  # trailing\n")
        assert len(doc.variables) == 1

    def test_multiple_errors_reported(self):
        text = "system s\nbogus line here\ninput x universe 0\n"
        doc, diags = parse(text)
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) >= 2

    @pytest.mark.parametrize("line, column", [
        ("input x universe nan 10", 18),
        ("input x universe 0 inf", 20),
        ("  term a triangle 0 nan 10", 21),
        ("  term a trapezoid 0 1 2 -Infinity", 26),
    ])
    def test_non_finite_number_is_spanned_error(self, line, column):
        if line.startswith("input"):
            text = f"system s\n{line}\n"
        else:
            text = f"system s\ninput x universe 0 10\n{line}\n"
        _, diags = parse(text)
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1
        assert errors[0].span.line == text.count("\n")
        assert errors[0].span.column == column
        assert "finite" in errors[0].message

    def test_missing_system_is_error(self):
        doc, diags = parse("input x universe 0 1\n  term t triangle 0 0.5 1\n")
        assert doc is None
        assert any("system" in d.message for d in diags)

    def test_term_outside_variable(self):
        doc, diags = parse("system s\nterm t triangle 0 1 2\n")
        assert any("outside" in d.message for d in diags)


class TestLoadSubsystem:
    def test_non_utf8_file_is_spanned_error(self, tmp_path):
        path = tmp_path / "latin1.fis.txt"
        path.write_bytes(MINIMAL.encode() + "# caf\u00e9 \u00e9\n".encode("latin-1"))
        subsystem, diags = load_subsystem(path)
        assert subsystem is None
        assert len(diags) == 1 and diags[0].severity == "error"
        assert (diags[0].span.line, diags[0].span.column) == (4, 6)
        assert "UTF-8" in diags[0].message


class TestValidate:
    def build(self, text):
        return validate(parse_ok(text))

    def test_unknown_term_in_rule(self):
        text = MINIMAL + (
            "output y universe 0 1\n  term t triangle 0 0.5 1\n"
            "rule if x is blazing then y is t\n")
        subsystem, diags = self.build(text)
        assert subsystem is None
        err = next(d for d in diags if d.severity == "error")
        assert "blazing" in err.message
        assert err.span.line == 6

    def test_non_monotone_breakpoints(self):
        text = ("system s\ninput x universe 0 10\n  term bad triangle 5 3 7\n"
                "output y universe 0 1\n  term t triangle 0 0.5 1\n")
        subsystem, diags = self.build(text)
        assert subsystem is None
        assert any("non-monotone" in d.message for d in diags)

    def test_support_outside_universe(self):
        text = ("system s\ninput x universe 0 10\n  term wide triangle 0 5 12\n"
                "output y universe 0 1\n  term t triangle 0 0.5 1\n")
        subsystem, diags = self.build(text)
        assert subsystem is None
        assert any("outside the universe" in d.message for d in diags)

    def test_universe_wider_than_a_float(self):
        text = ("system s\ninput x universe 0 10\n  term a triangle 0 5 10\n"
                "output y universe -1e308 1e308\n  term t triangle 0 0.5 1\n"
                "rule if x is a then y is t\n")
        subsystem, diags = self.build(text)
        assert subsystem is None
        err = next(d for d in diags if d.severity == "error")
        assert "wider than a float" in err.message
        assert err.span.line == 4

    def test_incomplete_rule_grid_is_warning(self):
        text = ("system s\n"
                "input x universe 0 10\n  term a triangle 0 2 10\n"
                "  term b triangle 0 8 10\n"
                "output y universe 0 1\n  term t triangle 0 0.5 1\n"
                "rule if x is a then y is t\n")
        subsystem, diags = self.build(text)
        assert subsystem is not None
        assert any(d.severity == "warning" and "grid" in d.message for d in diags)

    @pytest.mark.parametrize("antecedents", [
        "indoor_temperature is low and indoor_humidity is dry",
        "indoor_humidity is dry and indoor_temperature is low",
    ], ids=["same-order", "swapped"])
    def test_duplicate_antecedents_is_spanned_error(self, antecedents):
        # The rule count still fills the 16-cell grid, but medium/dry has no rule.
        text = read_bundled("fs1")
        first = "rule if indoor_temperature is low and indoor_humidity is dry"
        second = "rule if indoor_temperature is medium and indoor_humidity is dry"
        first_line, second_line = (
            next(n for n, ln in enumerate(text.splitlines(), 1) if ln.startswith(r))
            for r in (first, second))
        subsystem, diags = self.build(
            text.replace(second, f"rule if {antecedents}"))
        assert subsystem is None
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1
        assert errors[0].span.line == second_line
        assert f"line {first_line}" in errors[0].message

    @pytest.mark.parametrize("key,rules", [("fs1", 16), ("fs2", 20), ("fs3", 16)])
    def test_bundled_files_validate_cleanly(self, key, rules):
        subsystem, diags = self.build(read_bundled(key))
        assert subsystem is not None
        assert [d for d in diags if d.severity == "error"] == []
        assert len(subsystem.rules) == rules


class TestSerialize:
    @pytest.mark.parametrize("key", ["fs1", "fs2", "fs3"])
    def test_round_trip_bundled(self, key):
        doc = parse_ok(read_bundled(key))
        text = serialize(doc)
        doc2 = parse_ok(text)
        assert doc.structurally_equal(doc2)

    def test_serialize_is_idempotent_bytes(self):
        doc = parse_ok(read_bundled("fs1"))
        once = serialize(doc)
        twice = serialize(parse_ok(once))
        assert once == twice

    def test_number_normalization(self):
        doc = parse_ok("system s\ninput x universe 0.0 10.00\n"
                       "  term t triangle 0 5.50 10\n")
        text = serialize(doc)
        assert "5.5" in text and "5.50" not in text
        assert "universe 0 10" in text

    def test_emits_lf_only(self):
        doc = parse_ok(MINIMAL.replace("\n", "\r\n"))
        assert "\r" not in serialize(doc)

    def test_input_order_is_structural(self):
        doc = parse_ok(read_bundled("fs1"))
        inputs, output = doc.variables[:2], doc.variables[2:]
        swapped = replace(doc, variables=inputs[::-1] + output)
        assert not doc.structurally_equal(swapped)
        assert doc.structurally_equal(replace(doc, rules=doc.rules[::-1]))

    def test_serialized_files_build_the_bundled_cascade(self, cascade):
        # The readings bind to inputs by position, so a round trip must keep
        # the declaration order of the inputs. Rules come back sorted, which
        # reorders the fired rules in a trace and nothing else.
        nodes = []
        for key in ("fs1", "fs2", "fs3"):
            subsystem, _ = validate(parse_ok(serialize(parse_ok(read_bundled(key)))))
            nodes.append(subsystem)
        rebuilt = build_cascade(*nodes)
        grid = itertools.product((-5, 12, 19, 21, 27, 110),  # degrees C
                                 (0.1, 0.3, 0.45, 0.7, 1.2),  # humidity fraction
                                 (20, 150, 700),  # Wh
                                 (3.0, 9.5))  # hours
        def trace(c, inputs):
            t = c.evaluate(inputs, clamp=True)
            return replace(t, fired=frozenset(t.fired))

        for reading in grid:
            inputs = dict(zip(DEFAULT_EXTERNALS, reading))
            assert trace(rebuilt, inputs) == trace(cascade, inputs)


class TestErrorLocality:
    def assert_spans_in_bounds(self, text):
        doc, diags = parse(text)
        lines = text.splitlines() or [""]
        for d in diags:
            assert 1 <= d.span.line <= len(lines)
            assert d.span.column >= 1
            assert d.span.column <= max(len(lines[d.span.line - 1]), 1) + 1

    def test_spans_within_input(self):
        self.assert_spans_in_bounds("system\nterm\nrule if\nwat 3 4\n")

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text_never_crashes(self, text):
        doc, diags = parse(text)
        self.assert_spans_in_bounds(text)
        if doc is not None:
            validate(doc)


class TestMutationFuzz:
    def test_random_mutations_of_bundled_files(self):
        rng = random.Random(1234)
        sources = [read_bundled(k) for k in ("fs1", "fs2", "fs3")]
        alphabet = "abcrule#trm0123456789. \n\t-"
        for i in range(1500):
            text = sources[i % 3]
            edits = rng.randrange(1, 6)
            chars = list(text)
            for _ in range(edits):
                op = rng.randrange(3)
                pos = rng.randrange(len(chars)) if chars else 0
                if op == 0 and chars:
                    chars[pos] = rng.choice(alphabet)
                elif op == 1:
                    chars.insert(pos, rng.choice(alphabet))
                elif chars:
                    del chars[pos]
            doc, diags = parse("".join(chars))
            if doc is not None and not any(d.severity == "error" for d in diags):
                validate(doc)
