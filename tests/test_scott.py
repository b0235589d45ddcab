"""Scott-correction bookkeeping: exact hydrogen sums and the TF sweep."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottlab import scott, semiclassics
from scottlab.scott import (
    HYDROGEN_LEVEL_LIMIT,
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

    def test_finite_up_to_the_level_limit(self):
        # z/(2h) at the limit keeps the sum a finite float; past it the sum
        # is refused instead of overflowing
        assert math.isfinite(hydrogen_exact_sum(2.0 * HYDROGEN_LEVEL_LIMIT, 1.0))
        assert math.isfinite(hydrogen_exact_sum(0.2 * HYDROGEN_LEVEL_LIMIT, 0.1))
        with pytest.raises(ValueError, match="lies outside 0 < z <= 2h x 5.6438e"):
            hydrogen_exact_sum(1e300, 0.1)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_charge(self, bad):
        with pytest.raises(ValueError, match="charges must be finite"):
            scott_term([1.0, bad], 0.5)


class TestScottExperiment:
    def test_coefficient_lands_near_eighth(self, scott_z1):
        assert scott_z1.fit.coefficient(-2.0) == pytest.approx(0.125, rel=0.08)
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

    def test_fit_spread_of_the_acceptance_sweep(self, scott_z1):
        (scott_range, h_inverse_range), shift = scott_z1.spread()
        coefficient = scott_z1.fit.coefficient(-2.0)
        lo, hi = scott_range
        assert lo < coefficient < hi
        assert [lo, hi] == pytest.approx([0.1249782, 0.1251460], abs=1e-6)
        assert coefficient + shift == pytest.approx(0.124785, abs=1e-6)
        lo, hi = h_inverse_range
        assert lo <= scott_z1.fit.coefficient(-1.0) <= hi

    def test_weyl_term_is_one_integral_over_h_cubed(self, scott_z1):
        scaled = [row.weyl_sum * row.h**3 for row in scott_z1.results]
        assert scaled == pytest.approx([scaled[0]] * len(scaled), rel=1e-15)

    def test_weyl_term_needs_no_quadrature(self, monkeypatch, atom_z1):
        calls = {"weyl_energy": 0, "quadrature": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        weyl = counted("weyl_energy", semiclassics.weyl_energy)
        monkeypatch.setattr(scott, "weyl_energy", weyl)
        monkeypatch.setattr(semiclassics, "weyl_energy", weyl)
        rule = counted("quadrature", semiclassics._gauss_kronrod)
        monkeypatch.setattr(semiclassics, "_gauss_kronrod", rule)
        scott_experiment_tf(1.0, (0.3, 0.2))
        assert calls == {"weyl_energy": 0, "quadrature": 0}
        # the counters see the quadrature path the sweep no longer takes
        spec = semiclassics.WeylSpec(n=3, potential=lambda r: -atom_z1.v_tf(r))
        semiclassics.weyl_energy(spec)
        assert calls["weyl_energy"] == 1 and calls["quadrature"] > 0

    def test_per_h_diagnostics_of_the_acceptance_sweep(self, scott_z1):
        rows = scott_z1.per_h
        assert [row["h"] for row in rows] == list(scott_z1.h_values)
        # the mapped grid: n grows like 1/h, not like 1/h^2
        assert [row["grid_points"] for row in rows] == [294, 396, 511, 719]
        assert [row["negative_eigenvalues"] for row in rows] == [26, 44, 75, 145]
        assert [row["sentinel"] for row in rows] == [5, 7, 9, 13]
        for row in rows:
            assert 0.0 < row["boundary_mass"] <= 2e-7
            assert 0.0 < row["refinement_change"] < 1e-3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            scott_experiment_tf(1.0, (0.05, 0.12))
        with pytest.raises(ValueError, match="spacing_scale"):
            scott_experiment_tf(1.0, (0.12, 0.09), spacing_scale=1.5)

