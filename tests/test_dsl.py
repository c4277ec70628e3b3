import hashlib
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIS_FILES
from fuzzgate.cascade import DEFAULT_EXTERNALS, Cascade, bundled_fis_dir
from fuzzgate.core import (FuzzyRule, FuzzySubsystem, LinguisticVariable,
                           MembershipFunction)
from fis_format import serialize, structurally_equal
from fuzzgate.dsl import SourceSpan, load_subsystem, parse, validate

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


SYS = "system s\n"
VAR = "system s\ninput x universe 0 10\n"

#: (preceding lines, line under test, every diagnostic of the whole text as
#: (severity, message, line, column, length)), one case per way a line can
#: fail. Three lines report two problems: a bad system name still has its
#: trailing tokens checked, both universe bounds are read before the line
#: stops, and a bad term name still has its missing shape reported.
DIAGNOSTIC_TABLE = [
    ('', 'system', [
        ('error', 'expected system name, found end of line', 1, 6, 1),
        ('error', "missing 'system' declaration", 1, 1, 1),
    ]),
    ('', 'system if', [
        ('error', "expected system name, found 'if'", 1, 8, 2),
        ('error', "missing 'system' declaration", 1, 1, 1),
    ]),
    ('', 'system 9x extra', [
        ('error', "expected system name, found '9x'", 1, 8, 2),
        ('error', "unexpected trailing token 'extra'", 1, 11, 5),
        ('error', "missing 'system' declaration", 1, 1, 1),
    ]),
    ('', 'system s extra', [
        ('error', "unexpected trailing token 'extra'", 1, 10, 5),
    ]),
    (SYS, 'system t', [
        ('error', "duplicate 'system' declaration", 2, 1, 6),
    ]),
    (SYS, 'input', [
        ('error', 'expected variable name, found end of line', 2, 5, 1),
    ]),
    (SYS, 'input if', [
        ('error', "expected variable name, found 'if'", 2, 7, 2),
    ]),
    (SYS, 'input x', [
        ('error', "expected 'universe', found end of line", 2, 7, 1),
    ]),
    (SYS, 'input x range 0 1', [
        ('error', "expected 'universe', found 'range'", 2, 9, 5),
    ]),
    (SYS, 'input x universe', [
        ('error', 'expected universe lower bound, found end of line', 2, 16, 1),
        ('error', 'expected universe upper bound, found end of line', 2, 16, 1),
    ]),
    (SYS, 'input x universe a b', [
        ('error', "expected universe lower bound (a finite number), found 'a'",
         2, 18, 1),
        ('error', "expected universe upper bound (a finite number), found 'b'",
         2, 20, 1),
    ]),
    (SYS, 'input x universe 0', [
        ('error', 'expected universe upper bound, found end of line', 2, 18, 1),
    ]),
    (SYS, 'input x universe 0 nan', [
        ('error', "expected universe upper bound (a finite number), found 'nan'",
         2, 20, 3),
    ]),
    (SYS, 'input x universe 0 1 unit', [
        ('error', 'expected unit label, found end of line', 2, 25, 1),
    ]),
    (SYS, 'input x universe 0 1 extra', [
        ('error', "unexpected trailing token 'extra'", 2, 22, 5),
    ]),
    (SYS, 'output y universe 0 1 unit C extra', [
        ('error', "unexpected trailing token 'extra'", 2, 30, 5),
    ]),
    (SYS, 'term t triangle 0 1 2', [
        ('error', "'term' outside a variable declaration", 2, 1, 4),
    ]),
    (VAR, 'term', [
        ('error', 'expected term name, found end of line', 3, 4, 1),
        ('error', "expected 'triangle' or 'trapezoid', found end of line", 3, 4, 1),
    ]),
    (VAR, 'term if', [
        ('error', "expected term name, found 'if'", 3, 6, 2),
        ('error', "expected 'triangle' or 'trapezoid', found end of line", 3, 7, 1),
    ]),
    (VAR, 'term if triangle 0 1 2', [
        ('error', "expected term name, found 'if'", 3, 6, 2),
    ]),
    (VAR, 'term t', [
        ('error', "expected 'triangle' or 'trapezoid', found end of line", 3, 6, 1),
    ]),
    (VAR, 'term t circle 0 1 2', [
        ('error', "expected 'triangle' or 'trapezoid', found 'circle'", 3, 8, 6),
    ]),
    (VAR, 'term t triangle', [
        ('error', 'expected breakpoint 1 of 3, found end of line', 3, 15, 1),
    ]),
    (VAR, 'term t triangle 0 1', [
        ('error', 'expected breakpoint 3 of 3, found end of line', 3, 19, 1),
    ]),
    (VAR, 'term t trapezoid 0 1 2 x', [
        ('error', "expected breakpoint 4 of 4 (a finite number), found 'x'", 3, 24, 1),
    ]),
    (VAR, 'term t triangle 0 1 2 3', [
        ('error', "unexpected trailing token '3'", 3, 23, 1),
    ]),
    (SYS, 'rule', [
        ('error', "expected 'if', found end of line", 2, 4, 1),
    ]),
    (SYS, 'rule when', [
        ('error', "expected 'if', found 'when'", 2, 6, 4),
    ]),
    (SYS, 'rule if', [
        ('error', 'expected variable name, found end of line', 2, 7, 1),
    ]),
    (SYS, 'rule if then', [
        ('error', "expected variable name, found 'then'", 2, 9, 4),
    ]),
    (SYS, 'rule if x', [
        ('error', "expected 'is', found end of line", 2, 9, 1),
    ]),
    (SYS, 'rule if x was', [
        ('error', "expected 'is', found 'was'", 2, 11, 3),
    ]),
    (SYS, 'rule if x is', [
        ('error', 'expected term name, found end of line', 2, 12, 1),
    ]),
    (SYS, 'rule if x is if', [
        ('error', "expected term name, found 'if'", 2, 14, 2),
    ]),
    (SYS, 'rule if x is a', [
        ('error', "expected 'and' or 'then', found end of line", 2, 14, 1),
    ]),
    (SYS, 'rule if x is a or', [
        ('error', "expected 'and' or 'then', found 'or'", 2, 16, 2),
    ]),
    (SYS, 'rule if x is a and', [
        ('error', 'expected variable name, found end of line', 2, 18, 1),
    ]),
    (SYS, 'rule if x is a then', [
        ('error', 'expected consequent variable name, found end of line', 2, 19, 1),
    ]),
    (SYS, 'rule if x is a then is', [
        ('error', "expected consequent variable name, found 'is'", 2, 21, 2),
    ]),
    (SYS, 'rule if x is a then y', [
        ('error', "expected 'is', found end of line", 2, 21, 1),
    ]),
    (SYS, 'rule if x is a then y be', [
        ('error', "expected 'is', found 'be'", 2, 23, 2),
    ]),
    (SYS, 'rule if x is a then y is', [
        ('error', 'expected consequent term name, found end of line', 2, 24, 1),
    ]),
    (SYS, 'rule if x is a then y is then', [
        ('error', "expected consequent term name, found 'then'", 2, 26, 4),
    ]),
    (SYS, 'rule if x is a then y is b extra', [
        ('error', "unexpected trailing token 'extra'", 2, 28, 5),
    ]),
    (SYS, 'ruel if x is a then y is b', [
        ('error', "unknown keyword 'ruel'", 2, 1, 4),
    ]),
    # Unicode whitespace, such as U+001F, U+00A0 and U+3000, separates words
    # and indents lines.
    (SYS, 'input\x1fx universe 0 1 extra', [
        ('error', "unexpected trailing token 'extra'", 2, 22, 5),
    ]),
    (SYS, 'input x\xa0universe 0 1 extra', [
        ('error', "unexpected trailing token 'extra'", 2, 22, 5),
    ]),
    (SYS, 'input x universe\u30000 1 extra', [
        ('error', "unexpected trailing token 'extra'", 2, 22, 5),
    ]),
    (SYS, 'input x universe 0\xa0\u3000\x1fnan', [
        ('error', "expected universe upper bound (a finite number), found 'nan'",
         2, 22, 3),
    ]),
    (SYS, '\u3000ruel if x is a then y is b', [
        ('error', "unknown keyword 'ruel'", 2, 2, 4),
    ]),
    (SYS, '\u3000term t triangle 0 1 2', [
        ('error', "'term' outside a variable declaration", 2, 2, 4),
    ]),
    (VAR, '\u3000\u3000term t circle 0 1 2', [
        ('error', "expected 'triangle' or 'trapezoid', found 'circle'", 3, 10, 6),
    ]),
    # A '#' inside a word is part of it; a word that starts with '#' begins
    # a comment, whose length still counts for the end-of-line span.
    ('', 'system a#b', [
        ('error', "expected system name, found 'a#b'", 1, 8, 3),
        ('error', "missing 'system' declaration", 1, 1, 1),
    ]),
    ('', '\u3000system a#b', [
        ('error', "expected system name, found 'a#b'", 1, 9, 3),
        ('error', "missing 'system' declaration", 1, 1, 1),
    ]),
    (SYS, 'input x universe 0 1 # note extra', []),
    (SYS, 'input x universe 0 1 #note', []),
    (SYS, 'rule if x is a then y is b #c d', []),
    (SYS, 'input x universe 0 1 unit #C', [
        ('error', 'expected unit label, found end of line', 2, 28, 1),
    ]),
    (SYS, 'system t #dup', [
        ('error', "duplicate 'system' declaration", 2, 1, 6),
    ]),
]


class TestDiagnosticTable:
    @pytest.mark.parametrize("before, line, expected", DIAGNOSTIC_TABLE,
                             ids=[case[1] for case in DIAGNOSTIC_TABLE])
    def test_every_line_error(self, before, line, expected):
        _, diags = parse(before + line + "\n")
        assert [(d.severity, d.message, d.span.line, d.span.column, d.span.length)
                for d in diags] == expected


class TestLoadSubsystem:
    def test_non_utf8_file_is_spanned_error(self, tmp_path):
        path = tmp_path / "latin1.fis.txt"
        path.write_bytes(MINIMAL.encode() + "# caf\u00e9 \u00e9\n".encode("latin-1"))
        subsystem, diags = load_subsystem(path)
        assert subsystem is None
        assert len(diags) == 1 and diags[0].severity == "error"
        assert (diags[0].span.line, diags[0].span.column) == (4, 6)
        assert "UTF-8" in diags[0].message


X_A = "input x universe 0 10\n  term a triangle 0 5 10\n"
Y_T = "output y universe 0 1\n  term t triangle 0 0.5 1\n"
RULE = "rule if x is a then y is t\n"

#: (definition text, every diagnostic `validate` gives for it as
#: (severity, message, line, column, length)), one case per kind of
#: diagnostic, then two files with several errors each. Every text parses
#: cleanly.
VALIDATE_TABLE = [
    ("system s\n" + X_A + X_A + Y_T + RULE, [
        ("error", "duplicate variable 'x'", 4, 1, 5),
    ]),
    ("system s\ninput x universe 3 3\n  term a triangle 3 3 3\n" + Y_T + RULE, [
        ("error", "universe of 'x' is empty: [3.0, 3.0]", 2, 1, 5),
    ]),
    ("system s\n" + X_A + "output y universe -1e308 1e308\n"
     "  term t triangle 0 0.5 1\n" + RULE, [
        ("error", "universe of 'y' is wider than a float can hold: "
                  "[-1e+308, 1e+308]", 4, 1, 6),
    ]),
    ("system s\n" + X_A + "output y universe 0 1e308\n"
     "  term t triangle 0 5e307 1e308\n" + RULE, [
        ("error", "output universe of 'y' [0.0, 1e+308] is too large: its "
                  "centroid sum would overflow a float", 4, 1, 6),
    ]),
    ("system s\n" + X_A + "  term a triangle 0 2 4\n" + Y_T + RULE, [
        ("error", "duplicate term names on variable 'x'", 4, 3, 4),
    ]),
    ("system s\ninput x universe 0 10\n  term a triangle 5 3 7\n" + Y_T + RULE, [
        ("error", "non-monotone corners (5.0, 3.0, 3.0, 7.0): each must be <= "
                  "the next", 3, 3, 4),
    ]),
    ("system s\ninput x universe 0 10\n  term a trapezoid 0 5 4 10\n" + Y_T
     + RULE, [
        ("error", "non-monotone corners (0.0, 5.0, 4.0, 10.0): each must be <= "
                  "the next", 3, 3, 4),
    ]),
    ("system s\ninput x universe 0 10\n  term a triangle -1 5 10\n" + Y_T + RULE, [
        ("error", "support of term 'a' [-1.0, 10.0] is outside the universe of "
                  "'x' [0.0, 10.0]", 3, 3, 4),
    ]),
    ("system s\ninput x universe 0 10\n" + Y_T + RULE, [
        ("error", "variable 'x' declares no terms", 2, 1, 5),
        ("error", "unknown term 'a' on variable 'x'", 5, 1, 4),
    ]),
    ("system s\n" + X_A, [
        ("error", "expected exactly one output variable, found 0", 1, 1, 6),
    ]),
    ("system s\n" + X_A + Y_T + "output z universe 0 1\n"
     "  term t triangle 0 0.5 1\n" + RULE, [
        ("error", "expected exactly one output variable, found 2", 1, 1, 6),
    ]),
    ("system s\n" + X_A + Y_T + RULE + RULE, [
        ("error", "rule repeats the antecedents of the rule on line 6", 7, 1, 4),
    ]),
    ("system s\n" + X_A + Y_T + "rule if w is a then y is t\n", [
        ("error", "unknown variable 'w'", 6, 1, 4),
    ]),
    ("system s\n" + X_A + Y_T + "rule if x is b then y is t\n", [
        ("error", "unknown term 'b' on variable 'x'", 6, 1, 4),
    ]),
    ("system s\n" + X_A + Y_T + "rule if x is a then x is a\n", [
        ("error", "rule consequent targets input variable 'x'", 6, 1, 4),
    ]),
    ("system s\n" + X_A + Y_T + RULE + "rule if y is t then y is t\n", [
        ("error", "rule antecedent reads output variable 'y'", 7, 1, 4),
    ]),
    ("system s\n" + X_A + "  term b triangle 0 8 10\n" + Y_T + RULE, [
        ("warning", "rule bank has 1 rules but the input term grid has 2 "
                    "combinations", 1, 1, 6),
    ]),
    ("system s\ninput x universe 10 0\n  term bad triangle 5 3 7\n"
     "  term w triangle 0 5 12\noutput y universe 0 1e308\n"
     "  term t triangle 0 0.5 1\nrule if x is bad then y is t\n", [
        ("error", "universe of 'x' is empty: [10.0, 0.0]", 2, 1, 5),
        ("error", "non-monotone corners (5.0, 3.0, 3.0, 7.0): each must be <= "
                  "the next", 3, 3, 4),
        ("error", "output universe of 'y' [0.0, 1e+308] is too large: its "
                  "centroid sum would overflow a float", 5, 1, 6),
    ]),
    ("system s\ninput x universe 0 10\n  term a triangle 0 5 10\n"
     "  term a triangle 0 2 4\n  term wide trapezoid 5 8 10 11\n"
     "  term bad triangle 9 4 6\n  term ok triangle 5 10 10\n" + Y_T
     + "rule if x is a then y is t\nrule if x is wide then y is t\n"
       "rule if x is bad then y is t\nrule if x is ok then y is t\n", [
        ("error", "duplicate term names on variable 'x'", 4, 3, 4),
        ("error", "support of term 'wide' [5.0, 11.0] is outside the universe of "
                  "'x' [0.0, 10.0]", 5, 3, 4),
        ("error", "non-monotone corners (9.0, 4.0, 4.0, 6.0): each must be <= "
                  "the next", 6, 3, 4),
    ]),
]

VALIDATE_IDS = ["duplicate-variable", "empty-universe", "too-wide-universe",
                "output-overflow", "duplicate-term", "non-monotone-triangle",
                "non-monotone-trapezoid", "support-outside", "no-terms",
                "no-output", "two-outputs", "repeated-antecedents",
                "unknown-variable", "unknown-term", "consequent-on-input",
                "antecedent-on-output", "incomplete-grid", "multi-error-1",
                "multi-error-2"]


class TestValidateTable:
    @pytest.mark.parametrize("text, expected", VALIDATE_TABLE,
                             ids=VALIDATE_IDS)
    def test_every_diagnostic(self, text, expected):
        subsystem, diags = validate(parse_ok(text))
        assert [(d.severity, d.message, d.span.line, d.span.column, d.span.length)
                for d in diags] == expected
        assert (subsystem is None) == any(d.severity == "error" for d in diags)


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

    def test_antecedent_on_output_variable(self):
        # Only inputs are fuzzified, so the rule could never be evaluated.
        text = MINIMAL + (
            "output y universe 0 1\n  term t triangle 0 0.5 1\n"
            "rule if x is small then y is t\n"
            "rule if y is t then y is t\n")
        subsystem, diags = self.build(text)
        assert subsystem is None
        err = next(d for d in diags if d.severity == "error")
        assert err.message == "rule antecedent reads output variable 'y'"
        assert err.span.line == 7

    def test_non_monotone_breakpoints(self):
        text = ("system s\ninput x universe 0 10\n  term bad triangle 5 3 7\n"
                "output y universe 0 1\n  term t triangle 0 0.5 1\n")
        subsystem, diags = self.build(text)
        assert subsystem is None
        assert any("non-monotone" in d.message for d in diags)

    def test_shapes_build_four_corners(self):
        """A triangle's peak is both ends of its core; a trapezoid's corners
        are its four points."""
        text = ("system s\ninput x universe 0 10\n  term tri triangle 1 2 3\n"
                "  term trap trapezoid 0 1 2 3\n"
                "output y universe 0 1\n  term t triangle 0 0.5 1\n"
                "rule if x is tri then y is t\nrule if x is trap then y is t\n")
        subsystem, diags = self.build(text)
        assert diags == []
        x = subsystem.inputs[0]
        assert x.term("tri").corners == (1.0, 2.0, 2.0, 3.0)
        assert x.term("trap").corners == (0.0, 1.0, 2.0, 3.0)
        assert subsystem.output.term("t").corners == (0.0, 0.5, 0.5, 1.0)

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

    def test_output_universe_too_large_for_the_centroid(self):
        text = ("system s\ninput x universe 0 10\n  term a triangle 0 5 10\n"
                "output y universe 0 1e308\n  term t triangle 0 5e307 1e308\n"
                "rule if x is a then y is t\n")
        subsystem, diags = self.build(text)
        assert subsystem is None
        assert [(d.severity, d.span) for d in diags] == [
            ("error", SourceSpan(4, 1, 6))]
        assert "centroid sum would overflow" in diags[0].message

    def test_incomplete_rule_grid_is_warning(self):
        text = ("system s\n"
                "input x universe 0 10\n  term a triangle 0 2 10\n"
                "  term b triangle 0 8 10\n"
                "output y universe 0 1\n  term t triangle 0 0.5 1\n"
                "rule if x is a then y is t\n")
        subsystem, diags = self.build(text)
        assert subsystem is not None
        assert any(d.severity == "warning" and "grid" in d.message for d in diags)

    def test_duplicate_variable_indented_with_unicode_whitespace(self):
        text = ("system s\ninput x universe 0 10\n  term a triangle 0 5 10\n"
                "\u3000\xa0input x universe 0 10\n  term a triangle 0 5 10\n"
                "output y universe 0 1\n  term t triangle 0 0.5 1\n"
                "rule if x is a then y is t\n")
        subsystem, diags = self.build(text)
        assert subsystem is None
        assert [(d.severity, d.message, d.span) for d in diags] == [
            ("error", "duplicate variable 'x'", SourceSpan(4, 3, 5))]

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


#: Universes as (lo, hi). The good ones, drawn three times as often: for the
#: output, one just below the bound where 1,001 times the larger magnitude
#: overflows a float (about 1.796e305). The bad ones: empty, reversed, wider
#: than a float and, for the output, just above that bound.
INPUT_UNIVERSES = [(0.0, 10.0), (-5.0, 5.0)] * 3 + [
    (10.0, 0.0), (3.0, 3.0), (-1e308, 1e308)]
OUTPUT_UNIVERSES = [(0.0, 10.0), (-5.0, 5.0), (0.0, 1.79e305),
                    (-1.79e305, 0.0)] * 3 + [
    (10.0, 0.0), (3.0, 3.0), (-1e308, 1e308), (0.0, 1.8e305), (-1.8e305, 1.0)]


@st.composite
def declared_variable(draw, name, universes):
    """(name, lo, hi, terms): one to three terms, each (name, breakpoints).
    About one term in four has a flaw: its breakpoints reversed, its first
    one below the universe, or the name of an earlier term."""
    lo, hi = draw(st.sampled_from(universes))
    point = st.floats(min(lo, hi), max(lo, hi))
    terms = []
    for k in range(draw(st.integers(1, 3))):
        points = sorted(draw(st.lists(point, min_size=3, max_size=4)))
        term = f"t{k}"
        flaw = draw(st.sampled_from([None] * 9 + ["reversed", "below", "repeat"]))
        if flaw == "reversed":
            points.reverse()
        elif flaw == "below":
            points[0] = min(lo, hi) - 1.0
        elif flaw == "repeat" and terms:
            term = terms[-1][0]
        terms.append((term, tuple(points)))
    return name, lo, hi, terms


@st.composite
def definitions(draw):
    """(text, variables, rules): one or two inputs and one output, last,
    with a rule for each combination of the inputs' distinct term names."""
    variables = [draw(declared_variable(f"x{i}", INPUT_UNIVERSES))
                 for i in range(draw(st.integers(1, 2)))]
    variables.append(draw(declared_variable("y", OUTPUT_UNIVERSES)))
    names = [list(dict.fromkeys(term for term, _ in terms))
             for _, _, _, terms in variables]
    rules = tuple(
        FuzzyRule(tuple((var[0], term) for var, term in zip(variables, combo)),
                  ("y", draw(st.sampled_from(names[-1]))))
        for combo in itertools.product(*names[:-1]))
    lines = ["system s"]
    for i, (name, lo, hi, terms) in enumerate(variables):
        kind = "output" if i == len(variables) - 1 else "input"
        lines.append(f"{kind} {name} universe {lo!r} {hi!r}")
        lines += [f"  term {term} {'triangle' if len(pts) == 3 else 'trapezoid'} "
                  + " ".join(map(repr, pts)) for term, pts in terms]
    lines += ["rule if " + " and ".join(f"{v} is {t}" for v, t in rule.antecedents)
              + f" then y is {rule.consequent[1]}" for rule in rules]
    return "\n".join(lines) + "\n", variables, rules


def build_directly(variables, rules):
    """The subsystem built from the core types alone; a triangle (a, b, c) is
    the trapezoid (a, b, b, c)."""
    built = [LinguisticVariable(name, lo, hi, tuple(
        (term, MembershipFunction(pts if len(pts) == 4 else
                                  (pts[0], pts[1], pts[1], pts[2])))
        for term, pts in terms)) for name, lo, hi, terms in variables]
    return FuzzySubsystem("s", tuple(built[:-1]), built[-1], rules)


class TestValidateAgreesWithCore:
    @settings(max_examples=300, deadline=None)
    @given(definitions())
    def test_same_subsystem_or_none(self, definition):
        """`validate` gives a subsystem exactly when the core types built
        from the same numbers raise nothing, and it is the same subsystem."""
        text, variables, rules = definition
        subsystem, diags = validate(parse_ok(text))
        try:
            expected = build_directly(variables, rules)
        except ValueError:
            expected = None
        assert subsystem == expected, [d.format() for d in diags]


class TestSerialize:
    @pytest.mark.parametrize("key", ["fs1", "fs2", "fs3"])
    def test_round_trip_bundled(self, key):
        doc = parse_ok(read_bundled(key))
        text = serialize(doc)
        doc2 = parse_ok(text)
        assert structurally_equal(doc, doc2)

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
        assert not structurally_equal(doc, swapped)
        assert structurally_equal(doc, replace(doc, rules=doc.rules[::-1]))

    def test_serialized_files_build_the_bundled_cascade(self, cascade):
        # The readings bind to inputs by position, so a round trip must keep
        # the declaration order of the inputs. Rules come back sorted, which
        # reorders the fired rules in a trace and nothing else.
        nodes = []
        for key in ("fs1", "fs2", "fs3"):
            subsystem, _ = validate(parse_ok(serialize(parse_ok(read_bundled(key)))))
            nodes.append(subsystem)
        rebuilt = Cascade(*nodes)
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


#: SHA-256 over `repr((doc, diags))` of every mutated text below, as the
#: parser gave it when this value was recorded.
MUTATION_DIGEST = "fbcadbeacd893172bed1599a68f84cae55c39bdf138d4ebd5340d7653a1e61ae"


class TestMutationFuzz:
    def test_random_mutations_of_bundled_files(self):
        digest = hashlib.sha256()
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
            digest.update(repr((doc, diags)).encode())
            if doc is not None and not any(d.severity == "error" for d in diags):
                validate(doc)
        assert digest.hexdigest() == MUTATION_DIGEST
