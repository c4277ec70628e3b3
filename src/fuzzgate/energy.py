"""Per-packet transmission time and energy.

Every transmission costs the same energy, so a replay is priced by one
figure, joules per packet. It comes either from the physical model
E = i * v * t_p (packet_energy) or from a calibrated constant that
reproduces the reference run's totals without knowing its packet layout.
"""
from __future__ import annotations

#: Reference run: 957.8 J over 19,735 always-send transmissions, 844.9 J
#: over 17,410 gated transmissions.
REFERENCE_TOTAL_JOULES = 957.8
REFERENCE_TRANSMISSIONS = 19735
REFERENCE_GATED_JOULES = 844.9
REFERENCE_GATED_TRANSMISSIONS = 17410

#: The two reference totals imply per-packet constants differing in the 5th
#: decimal (957.8/19735 vs 844.9/17410); their midpoint reproduces both
#: totals within 0.05 J, which neither endpoint does alone.
REFERENCE_JOULES_PER_PACKET = (
    REFERENCE_TOTAL_JOULES / REFERENCE_TRANSMISSIONS
    + REFERENCE_GATED_JOULES / REFERENCE_GATED_TRANSMISSIONS) / 2.0

#: IEEE 802.11g-style rates: the header goes out at the base rate, the
#: payload at the top rate.
HEADER_RATE_BPS = 6e6
DATA_RATE_BPS = 54e6


def packet_time(header_bits: int, data_bits: int) -> float:
    """Seconds to put one packet on the air: header and payload at their rates."""
    return header_bits / HEADER_RATE_BPS + data_bits / DATA_RATE_BPS


def packet_energy(current_a: float = 0.280, voltage_v: float = 5.0,
                  header_bits: int = 288, data_bits: int = 960) -> float:
    """Joules to transmit one packet, E = i * v * t_p. The default packet
    holds one sensor reading. Raises ValueError naming an argument that is
    not finite or is out of range, or for a figure that overflows a float."""
    for name, value in (("current_a", current_a), ("voltage_v", voltage_v),
                        ("header_bits", header_bits), ("data_bits", data_bits)):
        least = ">= 0" if name.endswith("_bits") else "> 0"
        try:  # an int too large for a float overflows; NaN fails both tests
            fits = 0 <= float(value) < float("inf") and (value > 0 or least == ">= 0")
        except OverflowError:
            fits = False
        if not fits:
            raise ValueError(f"{name} must be finite and {least}")
    joules = current_a * voltage_v * packet_time(header_bits, data_bits)
    if not joules < float("inf"):
        raise ValueError(f"{current_a!r} A at {voltage_v!r} V over {header_bits!r}"
                         f" + {data_bits!r} bits overflows a float")
    return joules
