"""Parameter schedules and regime validation."""

from fractions import Fraction

import pytest

from cantormax import custom, fixed_dimension, one_dimensional
from cantormax.errors import FormatError, ParameterError
from cantormax.params import ConstructionParams, exact_pow

F = Fraction


class TestRegimes:
    def test_one_dimensional_schedule(self):
        p = one_dimensional(3, 4)
        assert [p.level_N(k) for k in (1, 2, 3, 4, 5)] == [9, 27, 81, 243, 729]
        assert [p.level_eps(k) for k in (1, 2, 3)] == [F(1, 2), F(1, 3), F(1, 4)]

    def test_fixed_dimension_schedule(self):
        p = fixed_dimension(16, F(1, 4), 3)
        assert [p.level_N(k) for k in (1, 2, 3)] == [16, 256, 4096]
        assert all(p.level_eps(k) == F(1, 4) for k in (1, 2, 3))
        assert p.q_epsilon == F(5, 2)

    def test_fixed_dimension_epsilon_window(self):
        with pytest.raises(ParameterError):
            fixed_dimension(16, F(1, 3), 3)
        with pytest.raises(ParameterError):
            fixed_dimension(16, 0, 3)

    def test_custom_requires_full_schedules(self):
        with pytest.raises(ParameterError):
            custom([4, 4], [F(1, 4)], depth=2)

    def test_custom_epsilon_window(self):
        with pytest.raises(ParameterError):
            custom([4], [F(2, 3)])
        # 1/2 is allowed: the one-dimensional regime starts there
        custom([4], [F(1, 2)])

    def test_delta_and_M(self):
        p = custom([4, 6], [F(1, 4), F(1, 4)])
        assert p.M(2) == 24
        assert p.delta(2) == F(1, 24)

    def test_p_float_edges(self):
        p = custom([4], [F(1, 2)])
        assert p.p_float(1) == 0.5

    def test_derived_p_in_unit_interval(self):
        p = fixed_dimension(16, F(1, 4), 3)
        for k in (1, 2, 3):
            assert 0 < p.p_float(k) < 1


class TestExactPow:
    def test_exact_cases(self):
        assert exact_pow(16, F(3, 4)) == 8
        assert exact_pow(16, F(-1, 2)) == F(1, 4)
        assert exact_pow(7, F(2)) == 49

    def test_irrational_cases(self):
        assert exact_pow(8, F(3, 4)) is None
        assert exact_pow(2, F(1, 2)) is None

    def test_large_values(self):
        assert exact_pow(2**40, F(3, 4)) == 2**30


class TestSerialization:
    def test_json_roundtrip(self):
        p = fixed_dimension(16, F(1, 4), 3, seed=9, B=F(10), L=2)
        assert ConstructionParams.from_json_dict(p.to_json_dict()) == p

    def test_custom_roundtrip(self):
        p = custom([4, 6], [F(1, 4), F(1, 3)], seed=2)
        assert ConstructionParams.from_json_dict(p.to_json_dict()) == p

    @pytest.mark.parametrize("value", [0.25, True, 1, "0.25", "2/8", "1/4 ", "+1/4"])
    def test_rational_fields_only_as_written(self, value):
        # only the "p/q" string the writer emits is read back
        d = custom([4, 6], [F(1, 4), F(1, 3)], seed=2).to_json_dict()
        for key in ("epsilon_schedule", "B", "gamma"):
            bad = dict(d, **{key: [value, "1/3"] if key == "epsilon_schedule" else value})
            with pytest.raises(FormatError, match=f"params {key} = "):
                ConstructionParams.from_json_dict(bad)


class TestIntegerRoot:
    def test_huge_powers_no_float_overflow(self):
        # beyond float range: (2^62)^9 has ~560 bits
        assert exact_pow(2**62, F(9, 10)) is None
        assert exact_pow(2**60, F(9, 10)) == 2**54
        assert exact_pow(10**40, F(3, 4)) == 10**30

    def test_boundary_roots(self):
        from cantormax.params import _integer_root

        for x in (0, 1, 2, 7, 8, 9, 63, 64, 65, 2**90 - 1, 2**90, 2**90 + 1):
            r = _integer_root(x, 3)
            assert r**3 <= x < (r + 1) ** 3
