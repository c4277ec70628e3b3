import pytest
from hypothesis import given, strategies as st

from fuzzgate.energy import (REFERENCE_JOULES_PER_PACKET, packet_energy,
                             packet_time)
from fuzzgate.sim import run_fuzzy
from telemetry import telemetry_of


class TestPacketTime:
    def test_empty_packet(self):
        assert packet_time(0, 0) == 0.0

    def test_header_only_rate_division(self):
        assert packet_time(6_000_000, 0) == 1.0

    def test_mixed_packet(self):
        t = packet_time(400, 8000)
        assert t == pytest.approx(400 / 6e6 + 8000 / 54e6, rel=1e-12)
        assert t == pytest.approx(2.148148e-4, rel=1e-6)

    @given(st.integers(0, 10**7), st.integers(0, 10**7), st.integers(1, 10**6))
    def test_monotone_in_sizes(self, ph, pd, delta):
        base = packet_time(ph, pd)
        assert packet_time(ph + delta, pd) >= base
        assert packet_time(ph, pd + delta) >= base


class TestPacketEnergy:
    def test_physical_one_second(self):
        assert packet_energy(header_bits=6_000_000, data_bits=0) == \
            pytest.approx(1.4, rel=1e-12)

    def test_calibrated_reference_constant(self):
        assert REFERENCE_JOULES_PER_PACKET == pytest.approx(0.04853, abs=1e-5)
        assert 17410 * REFERENCE_JOULES_PER_PACKET == pytest.approx(844.9, abs=0.05)

    def test_physical_zero_packet(self):
        assert packet_energy(header_bits=0, data_bits=0) == 0.0

    def test_invalid_specs_rejected(self, cascade):
        with pytest.raises(ValueError):
            packet_energy(current_a=0)
        for value in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="current_a"):
                packet_energy(current_a=value)
            with pytest.raises(ValueError, match="voltage_v"):
                packet_energy(voltage_v=value)
        with pytest.raises(ValueError):
            packet_energy(header_bits=-1, data_bits=0)
        for name, value in (("current_a", float("inf")),
                            ("voltage_v", float("inf")),
                            ("header_bits", float("nan")),
                            ("header_bits", float("inf")),
                            ("data_bits", 10**400)):
            with pytest.raises(ValueError, match=name):
                packet_energy(**{name: value})
        with pytest.raises(ValueError, match="overflows a float"):
            packet_energy(current_a=1e200, voltage_v=1e200)
        for joules in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite and > 0"):
                run_fuzzy(telemetry_of([]), cascade, joules)


class TestTotalEnergy:
    def test_zero_packets(self, cascade):
        result = run_fuzzy(telemetry_of([]), cascade,
                           REFERENCE_JOULES_PER_PACKET)
        assert result.traditional_joules == 0.0
        assert result.total_joules == 0.0

    def test_reference_traditional_total(self):
        assert 19735 * REFERENCE_JOULES_PER_PACKET == pytest.approx(957.8, abs=0.05)

    def test_reference_gated_total(self):
        assert 17410 * REFERENCE_JOULES_PER_PACKET == pytest.approx(844.9, abs=0.05)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_ratio_identity(self, n1, n2):
        per_packet = packet_energy()
        ratio = (n1 * per_packet) / (n2 * per_packet)
        assert ratio == pytest.approx(n1 / n2, rel=1e-12)

    def test_reference_constant_definition(self):
        assert REFERENCE_JOULES_PER_PACKET == \
            (957.8 / 19735 + 844.9 / 17410) / 2
