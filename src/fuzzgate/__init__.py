"""Fuzzy transmission gate for IoT temperature/humidity telemetry."""

from .core import (AggregatedOutput, FiredRule, FuzzyError, FuzzyRule,
                   FuzzySubsystem, LinguisticVariable, MembershipFunction,
                   NoRuleFiredError, OutOfUniverseError, UnknownTermError)
from .cascade import (Cascade, CascadeBuildError, DecisionTrace,
                      WiringMismatchError, load_manifest, sends)
from .energy import REFERENCE_JOULES_PER_PACKET, packet_energy, packet_time
from .sim import (ColumnMapping, SimulationResult, Telemetry, TelemetryRecord,
                  load_telemetry, run_fuzzy)

__version__ = "0.1.0"
