"""Scott-correction bookkeeping: exact hydrogen sums and the TF sweep."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottlab.scott import (
    hydrogen_exact_sum,
    hydrogen_expansion_check,
    scott_experiment_tf,
    scott_term,
)


class TestHydrogenSum:
    def test_reference_values(self):
        # z = 1, h = 0.1: five Bohr levels below zero, sum exactly -70
        assert hydrogen_exact_sum(1, 0.1) == -70.0
        assert hydrogen_exact_sum(1, 0.2) == -7.5
        # boundary level sits exactly at zero and contributes nothing
        assert hydrogen_exact_sum(1, 0.25) == -3.0

    def test_empty_sum(self):
        assert hydrogen_exact_sum(1, 0.6) == 0.0

    def test_fixed_ratio_gives_same_sum(self):
        # only z/h enters: z = 8, h = 0.8 has the same five levels as
        # z = 1, h = 0.1
        assert hydrogen_exact_sum(8, 0.8) == -70.0

    def test_doubling_z(self):
        # z = 2, h = 0.1: ten levels, -10 * 4/0.04 + 385
        assert hydrogen_exact_sum(2, 0.1) == -615.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hydrogen_exact_sum(0, 0.1)
        with pytest.raises(ValueError):
            hydrogen_exact_sum(1, 0)

    def test_decimal_h_is_read_exactly(self):
        # 0.1 must behave as 1/10, putting K at exactly 5
        assert hydrogen_exact_sum(1, 0.1) == float(
            -5 * Fraction(1, 4 * Fraction(1, 10) ** 2) + Fraction(5 * 6 * 11, 6)
        )


class TestHydrogenExpansion:
    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(min_value=1, max_value=50),
        z=st.sampled_from([1, 2, 8, Fraction(3, 7), Fraction(21, 10)]),
    )
    def test_remainder_is_sixth_of_K(self, K, z):
        exp = hydrogen_expansion_check(z, K)
        assert exp.remainder == Fraction(K, 6)
        # so remainder * h collapses to z/12 whatever K was
        assert exp.remainder * exp.h == Fraction(z) / 12

    def test_parts_are_the_stated_closed_forms(self):
        exp = hydrogen_expansion_check(1, 5)
        assert exp.h == Fraction(1, 10)
        assert exp.sum == -70
        assert exp.leading == -Fraction(1, 12) * 10**3
        assert exp.scott == Fraction(1, 8) * 10**2
        assert exp.sum == exp.leading + exp.scott + exp.remainder
        assert float(exp.sum) == hydrogen_exact_sum(1, 0.1)

    def test_scott_part_matches_scott_term(self):
        exp = hydrogen_expansion_check(2, 7)
        assert float(exp.scott) == pytest.approx(scott_term([2.0], float(exp.h)))

    def test_rejects_bad_K(self):
        with pytest.raises(ValueError):
            hydrogen_expansion_check(1, 0)
        with pytest.raises(ValueError):
            hydrogen_expansion_check(-1, 3)


class TestScottTerm:
    def test_value_and_additivity(self):
        assert scott_term([1.0, 2.0], 0.5) == pytest.approx(2.5)
        assert scott_term([1.0, 2.0], 0.3) == pytest.approx(
            scott_term([1.0], 0.3) + scott_term([2.0], 0.3)
        )

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            scott_term([1.0], 0.0)


class TestScottExperiment:
    def test_coefficient_lands_near_eighth(self, scott_z1):
        assert scott_z1.scott_coefficient == pytest.approx(0.125, rel=0.08)
        assert not scott_z1.warnings

    def test_rows_record_the_ingredients(self, scott_z1):
        assert scott_z1.h_values == (0.12, 0.09, 0.07, 0.05)
        for row in scott_z1.results:
            assert row.scott_term == pytest.approx(1.0 / (8.0 * row.h**2))
            assert row.weyl_sum < row.quantum_sum < 0.0
            # the h^-2 defect dominates: residual against the recorded
            # Scott term is a small fraction of that term
            assert abs(row.residual) < 0.15 * row.scott_term

    def test_fit_reproduces_rows(self, scott_z1):
        fit = scott_z1.fit
        for row in scott_z1.results:
            model = sum(
                c * row.h**e for e, c in zip(fit.exponents, fit.coefficients)
            )
            assert model == pytest.approx(
                row.quantum_sum - row.weyl_sum, rel=5e-3
            )

    def test_rejects_bad_arguments(self, atom_z1):
        with pytest.raises(ValueError, match="strictly decreasing"):
            scott_experiment_tf(1.0, (0.05, 0.12), solution=atom_z1)
        with pytest.raises(ValueError, match="spacing_scale"):
            scott_experiment_tf(
                1.0, (0.12, 0.09), solution=atom_z1, spacing_scale=1.5
            )
        with pytest.raises(ValueError, match="extra_channels"):
            scott_experiment_tf(
                1.0, (0.12, 0.09), solution=atom_z1, extra_channels=-1
            )
        with pytest.raises(ValueError, match="different charge"):
            scott_experiment_tf(2.0, (0.12, 0.09), solution=atom_z1)

