"""Tests for instruction mixes, including hypothesis invariants."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import InstructionMix
from repro.errors import ConfigurationError

counts = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


def mixes():
    return st.builds(InstructionMix, cpu=counts, l1=counts, l2=counts, mem=counts)


class TestBasics:
    def test_totals(self):
        m = InstructionMix(cpu=100, l1=50, l2=5, mem=2)
        assert m.total == 157
        assert m.on_chip == 155
        assert m.off_chip == 2

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            InstructionMix(cpu=-1)

    @pytest.mark.parametrize("level", InstructionMix.LEVELS)
    def test_nan_rejected(self, level):
        with pytest.raises(ConfigurationError, match="non-negative"):
            InstructionMix(**{level: math.nan})

    def test_zero(self):
        z = InstructionMix.zero()
        assert z.total == 0
        assert z.on_chip_fraction == 0.0

    def test_on_chip_weights(self):
        m = InstructionMix(cpu=50, l1=40, l2=10, mem=99)
        w = m.on_chip_weights()
        assert w == {"cpu": 0.5, "l1": 0.4, "l2": 0.1}

    def test_on_chip_weights_empty(self):
        w = InstructionMix(mem=10).on_chip_weights()
        assert w == {"cpu": 0.0, "l1": 0.0, "l2": 0.0}

    def test_as_dict(self):
        m = InstructionMix(cpu=1, l1=2, l2=3, mem=4)
        assert m.as_dict() == {"cpu": 1, "l1": 2, "l2": 3, "mem": 4}

    def test_from_fractions(self):
        m = InstructionMix.from_fractions(
            1000, cpu=0.5, l1=0.3, l2=0.1, mem=0.1
        )
        assert m.cpu == 500 and m.l1 == 300 and m.l2 == 100 and m.mem == 100

    def test_from_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            InstructionMix.from_fractions(10, cpu=0.5, l1=0.5, l2=0.5, mem=0.0)

    def test_scaled_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            InstructionMix(cpu=1).scaled(-2)


class TestArithmetic:
    def test_add(self):
        a = InstructionMix(cpu=1, l1=2)
        b = InstructionMix(l2=3, mem=4)
        c = a + b
        assert c == InstructionMix(cpu=1, l1=2, l2=3, mem=4)

    def test_sum_builtin(self):
        parts = [InstructionMix(cpu=1), InstructionMix(l1=2), InstructionMix(mem=3)]
        assert sum(parts) == InstructionMix(cpu=1, l1=2, mem=3)

    def test_scaled(self):
        m = InstructionMix(cpu=2, l1=4, l2=6, mem=8).scaled(0.5)
        assert m == InstructionMix(cpu=1, l1=2, l2=3, mem=4)


class TestProperties:
    @given(mixes())
    def test_total_is_onchip_plus_offchip(self, m):
        assert m.total == pytest.approx(m.on_chip + m.off_chip)

    @given(mixes())
    def test_on_chip_fraction_in_unit_interval(self, m):
        assert 0.0 <= m.on_chip_fraction <= 1.0 + 1e-12

    @given(mixes(), st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_scaling_scales_total(self, m, k):
        assert m.scaled(k).total == pytest.approx(m.total * k, rel=1e-9)

    @given(mixes(), mixes())
    def test_addition_adds_totals(self, a, b):
        assert (a + b).total == pytest.approx(a.total + b.total, rel=1e-9)

    @given(mixes())
    def test_weights_sum_to_one_when_onchip_work_exists(self, m):
        w = m.on_chip_weights()
        if m.on_chip > 0:
            assert sum(w.values()) == pytest.approx(1.0)
        else:
            assert sum(w.values()) == 0.0
