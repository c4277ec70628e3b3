"""Expected rule-bank grids for the three bundled subsystems, transcribed
independently of the definition files, plus core-point and membership
function helpers."""
from fuzzgate.core import MembershipFunction

# (temperature term, humidity term) -> apparent temperature term
FS1_TABLE = {
    ("low", "dry"): "cool", ("medium", "dry"): "cool",
    ("high", "dry"): "medium", ("v.high", "dry"): "warm",
    ("low", "comfortable"): "cool", ("medium", "comfortable"): "cool",
    ("high", "comfortable"): "warm", ("v.high", "comfortable"): "hot",
    ("low", "humid"): "cool", ("medium", "humid"): "medium",
    ("high", "humid"): "hot", ("v.high", "humid"): "hot",
    ("low", "stiki"): "medium", ("medium", "stiki"): "warm",
    ("high", "stiki"): "hot", ("v.high", "stiki"): "hot",
}

# (appliance energy term, time-of-read term) -> appliance usage time term
FS2_TABLE = {
    ("low", "offpeak-am"): "low", ("normal", "offpeak-am"): "low",
    ("high", "offpeak-am"): "medium", ("extreme", "offpeak-am"): "high",
    ("low", "peak-am"): "medium", ("normal", "peak-am"): "high",
    ("high", "peak-am"): "v.high", ("extreme", "peak-am"): "v.high",
    ("low", "offpeak-mo"): "low", ("normal", "offpeak-mo"): "low",
    ("high", "offpeak-mo"): "medium", ("extreme", "offpeak-mo"): "high",
    ("low", "peak-pm"): "medium", ("normal", "peak-pm"): "high",
    ("high", "peak-pm"): "v.high", ("extreme", "peak-pm"): "v.high",
    ("low", "offpeak-pm"): "low", ("normal", "offpeak-pm"): "low",
    ("high", "offpeak-pm"): "medium", ("extreme", "offpeak-pm"): "high",
}

# (apparent temperature term, appliance usage time term) -> label
FS3_TABLE = {
    ("cool", "low"): "send", ("cool", "medium"): "not_send",
    ("cool", "high"): "not_send", ("cool", "v.high"): "not_send",
    ("medium", "low"): "send", ("medium", "medium"): "send",
    ("medium", "high"): "not_send", ("medium", "v.high"): "not_send",
    ("warm", "low"): "send", ("warm", "medium"): "send",
    ("warm", "high"): "send", ("warm", "v.high"): "not_send",
    ("hot", "low"): "send", ("hot", "medium"): "send",
    ("hot", "high"): "send", ("hot", "v.high"): "send",
}


def core_point(variable, term_name):
    """A crisp value at the center of the term's core (degree exactly 1)."""
    mf = variable.term(term_name)
    _, lo, hi, _ = mf.corners
    return (lo + hi) / 2.0


def TRI(a, b, c):
    """The triangle (a, b, c), as the trapezoid (a, b, b, c) of floats."""
    return TRAP(a, b, b, c)


def TRAP(*corners):
    """A trapezoid over the four corners, as floats."""
    return MembershipFunction(tuple(map(float, corners)))
