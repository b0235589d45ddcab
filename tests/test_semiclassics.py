"""Weyl integrals against closed forms and a Monte Carlo cross-check."""

import math

import numpy as np
import pytest

from scottlab.numerics import Bump
from scottlab.semiclassics import (
    OMEGA_1,
    OMEGA_2,
    OMEGA_3,
    WeylSpec,
    local_trace_experiment,
    unit_ball_volume,
    weyl_energy,
)


class TestBallVolume:
    def test_table(self):
        assert unit_ball_volume(1) == pytest.approx(OMEGA_1)
        assert unit_ball_volume(2) == pytest.approx(OMEGA_2)
        assert unit_ball_volume(3) == pytest.approx(OMEGA_3)
        assert OMEGA_3 == pytest.approx(4.0 * math.pi / 3.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestWeylEnergy:
    def test_ball_indicator(self):
        # |V_-|^(5/2) integrates to the ball volume
        spec = WeylSpec(n=3, potential=lambda r: -1.0 * (r < 1.0), h=1.0)
        assert weyl_energy(spec) == pytest.approx(-4.0 / (45.0 * math.pi), rel=1e-6)

    def test_shifted_coulomb(self):
        # -1/|u| + 1 at h = 1 gives exactly -1/12
        spec = WeylSpec(n=3, potential=lambda r: -1.0 / r + 1.0, h=1.0)
        assert weyl_energy(spec) == pytest.approx(-1.0 / 12.0, abs=1e-6)

    def test_1d_harmonic(self):
        # int (1 - x^2)^(3/2) = 3 pi / 8, so the energy is -1/(4h)
        spec = WeylSpec(n=1, potential=lambda x: x * x - 1.0, h=0.5)
        assert weyl_energy(spec) == pytest.approx(-0.5, rel=1e-9)

    def test_h_prefactor_scaling(self):
        def v(r):
            return -1.0 / r + 1.0

        w1 = weyl_energy(WeylSpec(n=3, potential=v, h=1.0))
        w2 = weyl_energy(WeylSpec(n=3, potential=v, h=0.5))
        assert w2 == pytest.approx(8.0 * w1, rel=1e-12)

    def test_positive_potential_gives_zero(self):
        spec = WeylSpec(n=1, potential=lambda x: x * x + 0.5, h=1.0)
        assert weyl_energy(spec) == 0.0

    def test_bump_weight_matches_quadrature(self):
        # constant well: the integral reduces to the bump's squared mass
        bump = Bump(center=0.0, radius=2.0, order=4)
        spec = WeylSpec(n=1, potential=lambda x: -np.ones_like(x), bump=bump, h=1.0)
        x = np.linspace(-2.0, 2.0, 200001)
        mass = float(np.trapezoid(bump(x) ** 2, x))
        expect = -(2.0 * OMEGA_1 / 3.0) / (2.0 * math.pi) * mass
        assert weyl_energy(spec) == pytest.approx(expect, rel=1e-8)

    def test_monte_carlo_cross_check(self):
        # independent estimate of int (1 - x^2)^(3/2) over [-1, 1]
        rng = np.random.default_rng(123)
        x = rng.uniform(-1.0, 1.0, 40000)
        samples = (1.0 - x * x) ** 1.5
        mc = 2.0 * float(np.mean(samples))
        sigma = 2.0 * float(np.std(samples)) / math.sqrt(x.size)
        spec = WeylSpec(n=1, potential=lambda t: t * t - 1.0, h=1.0)
        integral = -weyl_energy(spec) * 2.0 * math.pi / (2.0 * OMEGA_1 / 3.0)
        assert abs(integral - mc) < 3.0 * sigma

    def test_non_integrable_tail_raises(self):
        spec = WeylSpec(n=1, potential=lambda x: -(x * x), h=1.0)
        with pytest.raises(ValueError, match="position integral"):
            weyl_energy(spec)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError, match="n = 1 and n = 3"):
            WeylSpec(n=2, potential=lambda x: -x)
        with pytest.raises(ValueError, match="h must be positive"):
            WeylSpec(n=1, potential=lambda x: -x, h=0.0)


class TestLocalTrace:
    def test_1d_harmonic_sweep(self):
        # plateau covers the well, so the Weyl term is exactly -1/(4h);
        # the level sum oscillates around it as h moves (and matches it
        # exactly whenever 1/(2h) is an integer), so only convergence and
        # bookkeeping are asserted, not a residual rate
        bump = Bump(center=0.0, radius=3.0, order=4)
        rows, fit = local_trace_experiment(
            lambda x: x * x - 1.0, bump, (0.4, 0.2, 0.1), n=1
        )
        assert [row.h for row in rows] == [0.4, 0.2, 0.1]
        for row in rows:
            assert row.scott_term == 0.0
            assert row.weyl_sum == pytest.approx(-1.0 / (4.0 * row.h), rel=1e-9)
            assert row.quantum_sum == pytest.approx(row.weyl_sum, rel=0.08)
            assert row.residual == row.quantum_sum - row.weyl_sum
        assert math.isfinite(fit.coefficient(6.0 / 5.0 - 1.0))

    def test_rejects_bad_arguments(self):
        bump = Bump(center=0.0, radius=3.0, order=4)
        v = lambda x: x * x - 1.0
        with pytest.raises(ValueError, match="strictly decreasing"):
            local_trace_experiment(v, bump, (0.1, 0.2), n=1)
        with pytest.raises(ValueError, match="h/8"):
            local_trace_experiment(v, bump, (0.2, 0.1), n=1, spacing_divisor=4.0)
        with pytest.raises(ValueError, match="n = 1 and n = 3"):
            local_trace_experiment(v, bump, (0.2, 0.1), n=2)
