"""Textual definition language for fuzzy subsystems.

Line-oriented grammar, case-insensitive keywords, `#` comments:

    system <name>
    input|output <var> universe <lo> <hi> [unit <label>]
      term <name> triangle <a> <b> <c>
      term <name> trapezoid <a> <b> <c> <d>
    rule if <var> is <term> [and <var> is <term>]... then <var> is <term>

Parsing and validation are pure functions over immutable input; errors are
reported as diagnostics with 1-based line/column spans, never exceptions.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .core import FuzzyRule, FuzzySubsystem, LinguisticVariable, MembershipFunction

KEYWORDS = {"system", "input", "output", "universe", "unit", "term",
            "triangle", "trapezoid", "rule", "if", "is", "and", "then"}

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

    def structurally_equal(self, other: "FisDocument") -> bool:
        """Equality up to spans and the order of outputs and rules. Input
        order counts: the cascade binds its readings to inputs by position."""
        def var_key(v: VariableDecl):
            return (v.name, v.direction, v.lo, v.hi, v.unit,
                    tuple((t.name, t.kind, t.breakpoints) for t in v.terms))

        def rule_key(r: RuleDecl):
            return (r.antecedents, r.consequent)

        def input_keys(doc: FisDocument):
            return [var_key(v) for v in doc.variables if v.direction == "input"]

        return (self.name == other.name
                and input_keys(self) == input_keys(other)
                and sorted(map(var_key, self.variables)) == sorted(map(var_key, other.variables))
                and sorted(map(rule_key, self.rules)) == sorted(map(rule_key, other.rules)))


_WORD_RE = re.compile(r"\S+")


def _tokenize_line(line: str) -> list[str]:
    words = line.split()
    for i, word in enumerate(words):
        if word.startswith("#"):
            return words[:i]
    return words


class _LineParser:
    """Cursor over the whitespace-separated tokens of one physical line.

    Tokens are plain strings; source spans are recomputed from the raw
    line only when a diagnostic actually needs one.
    """

    __slots__ = ("tokens", "pos", "lineno", "line")

    def __init__(self, tokens: list[str], lineno: int, line: str):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.line = line

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def eol_span(self) -> SourceSpan:
        return SourceSpan(self.lineno, max(len(self.line), 1), 1)

    def span_of(self, index: int) -> SourceSpan:
        for i, m in enumerate(_WORD_RE.finditer(self.line)):
            if i == index:
                return SourceSpan(self.lineno, m.start() + 1, len(m.group(0)))
        return self.eol_span()

    def last_span(self) -> SourceSpan:
        return self.span_of(self.pos - 1)

    def here_span(self) -> SourceSpan:
        return self.span_of(self.pos)


def parse(text: str) -> tuple[FisDocument | None, list[Diagnostic]]:
    """Parse definition text into a document.

    Returns (document, diagnostics). The document is None when errors make
    the text unusable; recoverable errors still yield a partial document so
    multiple problems can be reported in one pass.
    """
    diagnostics: list[Diagnostic] = []
    system_name: str | None = None
    system_span = SourceSpan(1, 1, 0)
    variables: list[VariableDecl] = []
    rules: list[RuleDecl] = []
    # terms parsed so far for the variable currently open
    open_var: dict | None = None

    def error(message: str, span: SourceSpan):
        diagnostics.append(Diagnostic("error", message, span))

    def close_var():
        nonlocal open_var
        if open_var is not None:
            variables.append(VariableDecl(
                name=open_var["name"], direction=open_var["direction"],
                lo=open_var["lo"], hi=open_var["hi"], unit=open_var["unit"],
                terms=tuple(open_var["terms"]), span=open_var["span"]))
            open_var = None

    def expect_name(lp: _LineParser, what: str) -> str | None:
        tok = lp.next()
        if tok is None:
            error(f"expected {what}, found end of line", lp.eol_span())
            return None
        if not _NAME_RE.match(tok) or tok.lower() in KEYWORDS:
            error(f"expected {what}, found {tok!r}", lp.last_span())
            return None
        return tok

    def expect_number(lp: _LineParser, what: str) -> float | None:
        tok = lp.next()
        if tok is None:
            error(f"expected {what}, found end of line", lp.eol_span())
            return None
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            error(f"expected {what} (a finite number), found {tok!r}", lp.last_span())
            return None
        return value

    def expect_keyword(lp: _LineParser, keyword: str) -> bool:
        tok = lp.next()
        if tok is None:
            error(f"expected '{keyword}', found end of line", lp.eol_span())
            return False
        if tok.lower() != keyword:
            error(f"expected '{keyword}', found {tok!r}", lp.last_span())
            return False
        return True

    def check_trailing(lp: _LineParser):
        tok = lp.peek()
        if tok is not None:
            error(f"unexpected trailing token {tok!r}", lp.here_span())

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        tokens = _tokenize_line(line)
        if not tokens:
            continue
        keyword = tokens[0].lower()
        lp = _LineParser(tokens, lineno, line)
        lp.next()  # consume keyword

        if keyword == "system":
            close_var()
            name = expect_name(lp, "system name")
            if name is not None:
                if system_name is not None:
                    error("duplicate 'system' declaration", lp.span_of(0))
                else:
                    system_name = name
                    system_span = lp.span_of(0)
            check_trailing(lp)

        elif keyword in ("input", "output"):
            close_var()
            name = expect_name(lp, "variable name")
            if name is None or not expect_keyword(lp, "universe"):
                continue
            lo = expect_number(lp, "universe lower bound")
            hi = expect_number(lp, "universe upper bound")
            if lo is None or hi is None:
                continue
            unit = ""
            tok = lp.peek()
            if tok is not None and tok.lower() == "unit":
                lp.next()
                unit = lp.next()
                if unit is None:
                    error("expected unit label, found end of line", lp.eol_span())
                    continue
            check_trailing(lp)
            open_var = {"name": name, "direction": keyword, "lo": lo, "hi": hi,
                        "unit": unit, "terms": [], "span": lp.span_of(0)}

        elif keyword == "term":
            if open_var is None:
                error("'term' outside a variable declaration", lp.span_of(0))
                continue
            name = expect_name(lp, "term name")
            shape_tok = lp.next()
            if name is None or shape_tok is None:
                if shape_tok is None:
                    error("expected 'triangle' or 'trapezoid', found end of line",
                          lp.eol_span())
                continue
            shape = shape_tok.lower()
            if shape not in ("triangle", "trapezoid"):
                error(f"expected 'triangle' or 'trapezoid', found {shape_tok!r}",
                      lp.last_span())
                continue
            count = 3 if shape == "triangle" else 4
            points = []
            ok = True
            for i in range(count):
                p = expect_number(lp, f"breakpoint {i + 1} of {count}")
                if p is None:
                    ok = False
                    break
                points.append(p)
            if not ok:
                continue
            check_trailing(lp)
            open_var["terms"].append(
                TermDecl(name, shape, tuple(points), lp.span_of(0)))

        elif keyword == "rule":
            close_var()
            if not expect_keyword(lp, "if"):
                continue
            antecedents = []
            ok = True
            while True:
                var = expect_name(lp, "variable name")
                if var is None or not expect_keyword(lp, "is"):
                    ok = False
                    break
                term = expect_name(lp, "term name")
                if term is None:
                    ok = False
                    break
                antecedents.append((var, term))
                tok = lp.next()
                if tok is None:
                    error("expected 'and' or 'then', found end of line", lp.eol_span())
                    ok = False
                    break
                word = tok.lower()
                if word == "then":
                    break
                if word != "and":
                    error(f"expected 'and' or 'then', found {tok!r}", lp.last_span())
                    ok = False
                    break
            if not ok:
                continue
            var = expect_name(lp, "consequent variable name")
            if var is None or not expect_keyword(lp, "is"):
                continue
            term = expect_name(lp, "consequent term name")
            if term is None:
                continue
            check_trailing(lp)
            rules.append(RuleDecl(tuple(antecedents), (var, term), lp.span_of(0)))

        else:
            error(f"unknown keyword {tokens[0]!r}", lp.span_of(0))

    close_var()

    if system_name is None:
        error("missing 'system' declaration", SourceSpan(1, 1, 1))
        return None, diagnostics

    return FisDocument(system_name, tuple(variables), tuple(rules),
                       system_span), diagnostics


def validate(doc: FisDocument) -> tuple[FuzzySubsystem | None, list[Diagnostic]]:
    """Resolve references and build a ready FuzzySubsystem.

    Errors (unknown names, non-monotone breakpoints, supports outside the
    universe, duplicates, two rules with the same antecedents, missing
    output) block the subsystem; an incomplete rule grid is a warning only.
    """
    diagnostics: list[Diagnostic] = []

    def error(message: str, span: SourceSpan):
        diagnostics.append(Diagnostic("error", message, span))

    seen: dict[str, VariableDecl] = {}
    for var in doc.variables:
        if var.name in seen:
            error(f"duplicate variable '{var.name}'", var.span)
            continue
        seen[var.name] = var
        if not var.lo < var.hi:
            error(f"empty universe [{var.lo}, {var.hi}] for variable '{var.name}'",
                  var.span)
        elif not math.isfinite(var.hi - var.lo):
            error(f"universe [{var.lo}, {var.hi}] of variable '{var.name}' is "
                  f"wider than a float can hold", var.span)
        term_names = set()
        for term in var.terms:
            if term.name in term_names:
                error(f"duplicate term '{term.name}' on variable '{var.name}'",
                      term.span)
            term_names.add(term.name)
            pts = term.breakpoints
            if any(a > b for a, b in zip(pts, pts[1:])):
                error(f"non-monotone breakpoints {pts} for term '{term.name}'",
                      term.span)
            elif pts[0] < var.lo or pts[-1] > var.hi:
                error(f"support of term '{term.name}' [{pts[0]}, {pts[-1]}] lies "
                      f"outside the universe [{var.lo}, {var.hi}]", term.span)
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

    def build_variable(decl: VariableDecl) -> LinguisticVariable:
        terms = tuple(
            (t.name, MembershipFunction(t.kind, t.breakpoints)) for t in decl.terms)
        return LinguisticVariable(decl.name, decl.lo, decl.hi, terms, decl.unit)

    subsystem = FuzzySubsystem(
        name=doc.name,
        inputs=tuple(build_variable(v) for v in inputs),
        output=build_variable(outputs[0]),
        rules=tuple(FuzzyRule(r.antecedents, r.consequent) for r in doc.rules),
    )
    return subsystem, diagnostics


def load_subsystem(path) -> tuple[FuzzySubsystem | None, list[Diagnostic]]:
    """Parse + validate a .fis.txt file; bytes that are not UTF-8 give an
    error diagnostic at the first bad one."""
    with open(path, "rb") as fh:
        data = fh.read()
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


def _fmt(value: float) -> str:
    """Shortest round-trippable decimal, without a trailing '.0'."""
    text = repr(float(value))
    if text.endswith(".0"):
        text = text[:-2]
    return text


def serialize(doc: FisDocument) -> str:
    """Canonical text: inputs in declaration order, output last, rules
    sorted, normalized whitespace and number formatting. parse(serialize(d))
    is structurally equal to d, and serializing twice is byte-identical."""
    lines = [f"system {doc.name}"]
    inputs = [v for v in doc.variables if v.direction == "input"]
    outputs = [v for v in doc.variables if v.direction == "output"]
    for var in inputs + outputs:
        decl = f"{var.direction} {var.name} universe {_fmt(var.lo)} {_fmt(var.hi)}"
        if var.unit:
            decl += f" unit {var.unit}"
        lines.append(decl)
        for term in var.terms:
            pts = " ".join(_fmt(p) for p in term.breakpoints)
            lines.append(f"  term {term.name} {term.kind} {pts}")
    for rule in sorted(doc.rules, key=lambda r: (r.antecedents, r.consequent)):
        clause = " and ".join(f"{v} is {t}" for v, t in rule.antecedents)
        lines.append(f"rule if {clause} then "
                     f"{rule.consequent[0]} is {rule.consequent[1]}")
    return "\n".join(lines) + "\n"
