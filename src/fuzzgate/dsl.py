"""Textual definition language for fuzzy subsystems.

Line-oriented grammar, case-insensitive keywords, `#` comments:

    system <name>
    input|output <var> universe <lo> <hi> [unit <label>]
      term <name> triangle <a> <b> <c>
      term <name> trapezoid <a> <b> <c> <d>
    rule if <var> is <term> [and <var> is <term>]... then <var> is <term>

Words are separated by any run of Unicode whitespace. A word that starts
with `#` begins a comment that runs to the end of the line; a `#` inside a
word is part of that word.

Parsing and validation are pure functions over immutable input; errors are
reported as diagnostics with 1-based line/column spans, never exceptions.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from itertools import islice

from .core import (FuzzyRule, FuzzySubsystem, LinguisticVariable,
                   MembershipFunction)

KEYWORDS = {"system", "input", "output", "universe", "unit", "term",
            "triangle", "trapezoid", "rule", "if", "is", "and", "then"}

MAX_FILE_BYTES = 1 << 20  # of a definition file or manifest; larger is refused

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")


@dataclass(frozen=True)
class SourceSpan:
    line: int    # 1-based
    column: int  # 1-based
    length: int

    def __post_init__(self):
        if self.line < 1 or self.column < 1:
            raise ValueError("spans are 1-based")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan

    def format(self, filename: str = "<input>") -> str:
        return (f"{filename}:{self.span.line}:{self.span.column}: "
                f"{self.severity}: {self.message}")


@dataclass(frozen=True)
class TermDecl:
    name: str
    kind: str  # "triangle" | "trapezoid"
    breakpoints: tuple[float, ...]
    span: SourceSpan


@dataclass(frozen=True)
class VariableDecl:
    name: str
    direction: str  # "input" | "output"
    lo: float
    hi: float
    unit: str
    terms: tuple[TermDecl, ...]
    span: SourceSpan


@dataclass(frozen=True)
class RuleDecl:
    antecedents: tuple[tuple[str, str], ...]
    consequent: tuple[str, str]
    span: SourceSpan


@dataclass(frozen=True)
class FisDocument:
    name: str
    variables: tuple[VariableDecl, ...]
    rules: tuple[RuleDecl, ...]
    span: SourceSpan = field(default=SourceSpan(1, 1, 0))


_WORD_RE = re.compile(r"\S+")
# A word that starts with '#' and the rest of the line after it. The same
# match as r"(?<!\S)#.*", but with '#' first the engine can search for it.
_COMMENT_RE = re.compile(r"#(?<!\S#).*")


class _LineError(Exception):
    """Ends the parse of the current line; its diagnostic is already recorded."""


def parse(text: str) -> tuple[FisDocument | None, list[Diagnostic]]:
    """Parse definition text into a document.

    Returns (document, diagnostics). The document is None when errors make
    the text unusable; recoverable errors still yield a partial document so
    multiple problems can be reported in one pass. A malformed line is
    reported and skipped; parsing goes on with the next line.
    """
    diagnostics: list[Diagnostic] = []
    system_name: str | None = None
    system_span = SourceSpan(1, 1, 0)
    variables: list[VariableDecl] = []
    rules: list[RuleDecl] = []
    # the variable currently open, declared without terms, and its terms so far
    open_var: tuple[VariableDecl, list[TermDecl]] | None = None

    def error(message: str, span: SourceSpan):
        diagnostics.append(Diagnostic("error", message, span))

    def fail(message: str, span: SourceSpan):
        error(message, span)
        raise _LineError

    def close_var():
        nonlocal open_var
        if open_var is not None:
            decl, terms = open_var
            variables.append(replace(decl, terms=tuple(terms)))
            open_var = None

    def word_span(i: int) -> SourceSpan:
        """The span of word `i` of the line, or of the line's end."""
        m = next(islice(_WORD_RE.finditer(line), i, len(words)), None)
        if m is None:
            return SourceSpan(lineno, len(line), 1)
        return SourceSpan(lineno, m.start() + 1, m.end() - m.start())

    def next_word(what: str) -> str:
        nonlocal pos
        if pos == len(words):
            fail(f"expected {what}, found end of line", word_span(pos))
        pos += 1
        return words[pos - 1]

    def expect_name(what: str) -> str:
        word = next_word(what)
        if not _NAME_RE.match(word) or word.lower() in KEYWORDS:
            fail(f"expected {what}, found {word!r}", word_span(pos - 1))
        return word

    def expect_number(what: str) -> float:
        word = next_word(what)
        try:
            value = float(word)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            fail(f"expected {what} (a finite number), found {word!r}",
                 word_span(pos - 1))
        return value

    def expect_keyword(*keywords: str) -> str:
        """The next word, lower-cased, if it is one of `keywords`."""
        nonlocal pos
        if pos < len(words) and words[pos].lower() in keywords:
            pos += 1
            return words[pos - 1].lower()
        what = " or ".join(f"'{k}'" for k in keywords)
        word = next_word(what)
        fail(f"expected {what}, found {word!r}", word_span(pos - 1))

    def check_trailing():
        if pos < len(words):
            error(f"unexpected trailing token {words[pos]!r}", word_span(pos))

    # The closures above read this line's `lineno`, `line`, `words` and `pos`.
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = _COMMENT_RE.sub("", line, 1).split()
        if not words:
            continue
        pos = 1  # the index of the next word to read, past the keyword
        keyword = words[0].lower()
        keyword_span = SourceSpan(lineno, len(line) - len(line.lstrip()) + 1,
                                  len(words[0]))
        try:
            if keyword == "system":
                close_var()
                try:
                    name = expect_name("system name")
                    if system_name is not None:
                        error("duplicate 'system' declaration", keyword_span)
                    else:
                        system_name, system_span = name, keyword_span
                finally:  # a bad name still has its trailing words checked
                    check_trailing()

            elif keyword in ("input", "output"):
                close_var()
                name = expect_name("variable name")
                expect_keyword("universe")
                try:
                    lo = expect_number("universe lower bound")
                finally:  # both bounds are read before the line stops
                    hi = expect_number("universe upper bound")
                unit = ""
                if pos < len(words) and words[pos].lower() == "unit":
                    pos += 1
                    unit = next_word("unit label")
                check_trailing()
                decl = VariableDecl(name, keyword, lo, hi, unit, (), keyword_span)
                open_var = (decl, [])

            elif keyword == "term":
                if open_var is None:
                    fail("'term' outside a variable declaration", keyword_span)
                try:
                    name = expect_name("term name")
                except _LineError:  # a missing shape is still reported
                    if pos == len(words):
                        expect_keyword("triangle", "trapezoid")
                    raise
                shape = expect_keyword("triangle", "trapezoid")
                count = 3 if shape == "triangle" else 4
                points = tuple(expect_number(f"breakpoint {i + 1} of {count}")
                               for i in range(count))
                check_trailing()
                open_var[1].append(TermDecl(name, shape, points, keyword_span))

            elif keyword == "rule":
                close_var()
                expect_keyword("if")
                antecedents = []
                while True:
                    var = expect_name("variable name")
                    expect_keyword("is")
                    antecedents.append((var, expect_name("term name")))
                    if expect_keyword("and", "then") == "then":
                        break
                var = expect_name("consequent variable name")
                expect_keyword("is")
                term = expect_name("consequent term name")
                check_trailing()
                rules.append(RuleDecl(tuple(antecedents), (var, term), keyword_span))

            else:
                error(f"unknown keyword {words[0]!r}", keyword_span)
        except _LineError:
            pass

    close_var()

    if system_name is None:
        error("missing 'system' declaration", SourceSpan(1, 1, 1))
        return None, diagnostics

    return FisDocument(system_name, tuple(variables), tuple(rules),
                       system_span), diagnostics


def validate(doc: FisDocument) -> tuple[FuzzySubsystem | None, list[Diagnostic]]:
    """Resolve references and build a ready FuzzySubsystem.

    Each declaration is built as the model type it declares, and a
    ValueError of that type is an error at the declaration's span: a
    MembershipFunction per term; a LinguisticVariable per variable, grown
    one term at a time, so that a refused term is left out and the next is
    still checked; and FuzzySubsystem's bound on the output universe. The
    language's own errors are duplicate variables, variables with no terms,
    other than one output, two rules with the same antecedents, and rules
    that name an unknown variable or term, conclude on an input or read the
    output. Errors block the subsystem; an incomplete rule grid is a warning
    only.
    """
    diagnostics: list[Diagnostic] = []

    def error(message: str, span: SourceSpan):
        diagnostics.append(Diagnostic("error", message, span))

    def build(span: SourceSpan, make, *args, **kwargs):
        """make(*args, **kwargs), or None and an error at span if it raises
        ValueError."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            error(str(exc), span)

    seen: dict[str, VariableDecl] = {}
    built: dict[str, LinguisticVariable | None] = {}
    for var in doc.variables:
        if var.name in seen:
            error(f"duplicate variable '{var.name}'", var.span)
            continue
        seen[var.name] = var
        lv = build(var.span, LinguisticVariable, var.name, var.lo, var.hi, (),
                   var.unit)
        if lv is not None and var.direction == "output":
            build(var.span, FuzzySubsystem, doc.name, (), lv, ())
        for term in var.terms:
            pts = term.breakpoints  # a triangle (a, b, c) is (a, b, b, c)
            mf = build(term.span, MembershipFunction, (*pts[:2], *pts[-2:]))
            if mf is not None and lv is not None:
                lv = build(term.span, replace, lv,
                           terms=(*lv.terms, (term.name, mf))) or lv
        built[var.name] = lv
        if not var.terms:
            error(f"variable '{var.name}' declares no terms", var.span)

    inputs = [v for v in doc.variables if v.direction == "input"]
    outputs = [v for v in doc.variables if v.direction == "output"]
    if len(outputs) != 1:
        error(f"expected exactly one output variable, found {len(outputs)}", doc.span)

    first_with: dict[frozenset, RuleDecl] = {}  # antecedent set -> first rule
    for rule in doc.rules:
        earlier = first_with.setdefault(frozenset(rule.antecedents), rule)
        if earlier is not rule:
            error(f"rule repeats the antecedents of the rule on line "
                  f"{earlier.span.line}", rule.span)
        for var_name, term_name in list(rule.antecedents) + [rule.consequent]:
            var = seen.get(var_name)
            if var is None:
                error(f"unknown variable '{var_name}'", rule.span)
            elif term_name not in {t.name for t in var.terms}:
                error(f"unknown term '{term_name}' on variable '{var_name}'",
                      rule.span)
        if rule.antecedents and rule.consequent[0] in {v.name for v in inputs}:
            error(f"rule consequent targets input variable '{rule.consequent[0]}'",
                  rule.span)
        for var_name in {v for v, _ in rule.antecedents} & {v.name for v in outputs}:
            error(f"rule antecedent reads output variable '{var_name}'", rule.span)

    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics

    grid_size = 1
    for var in inputs:
        grid_size *= len(var.terms)
    if doc.rules and len(doc.rules) != grid_size:
        diagnostics.append(Diagnostic(
            "warning",
            f"rule bank has {len(doc.rules)} rules but the input term grid "
            f"has {grid_size} combinations", doc.span))

    rules = tuple(FuzzyRule(r.antecedents, r.consequent) for r in doc.rules)
    return FuzzySubsystem(doc.name, tuple(built[v.name] for v in inputs),
                          built[outputs[0].name], rules), diagnostics


def load_subsystem(path) -> tuple[FuzzySubsystem | None, list[Diagnostic]]:
    """Parse + validate a .fis.txt file; a file over MAX_FILE_BYTES gives an
    error diagnostic at 1:1, and bytes that are not UTF-8 one at the first."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        span = SourceSpan(1, 1, 1)
        return None, [Diagnostic("error", f"file is over {MAX_FILE_BYTES} bytes", span)]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = data[:exc.start].decode("utf-8").split("\n")
        span = SourceSpan(len(lines), len(lines[-1]) + 1, 1)
        return None, [Diagnostic(
            "error", f"invalid UTF-8 byte 0x{data[exc.start]:02x}", span)]
    doc, diags = parse(text)
    if doc is None or any(d.severity == "error" for d in diags):
        return None, diags
    subsystem, vdiags = validate(doc)
    return subsystem, diags + vdiags
