"""Canonical text of a parsed definition file, and equality of two parsed
files up to layout, for the tests that check that `parse` round-trips."""
from fuzzgate.dsl import FisDocument, RuleDecl, VariableDecl


def structurally_equal(doc: FisDocument, other: FisDocument) -> bool:
    """Equality up to spans and the order of outputs and rules. Input
    order counts: the cascade binds its readings to inputs by position."""
    def var_key(v: VariableDecl):
        return (v.name, v.direction, v.lo, v.hi, v.unit,
                tuple((t.name, t.kind, t.breakpoints) for t in v.terms))

    def rule_key(r: RuleDecl):
        return (r.antecedents, r.consequent)

    def input_keys(d: FisDocument):
        return [var_key(v) for v in d.variables if v.direction == "input"]

    return (doc.name == other.name
            and input_keys(doc) == input_keys(other)
            and sorted(map(var_key, doc.variables)) == sorted(map(var_key, other.variables))
            and sorted(map(rule_key, doc.rules)) == sorted(map(rule_key, other.rules)))


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
