"""Weyl integrals against closed forms and a Monte Carlo cross-check."""

import math

import numpy as np
import pytest
from scipy import optimize

from scottlab.numerics import Bump
from scottlab.semiclassics import (
    WeylSpec,
    _eval_scalar,
    _negative_segments,
    local_trace_experiment,
    unit_ball_volume,
    weyl_energy,
)


class TestBallVolume:
    def test_table(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


def looped_negative_segments(potential, probes):
    """_negative_segments with its sign changes found by walking the probe
    pairs one by one, the way it first did."""
    vals = np.asarray(potential(probes), dtype=float)
    neg = vals < 0.0
    if not neg.any():
        return [], False
    edges = []
    for i in range(len(probes) - 1):
        if neg[i] != neg[i + 1]:
            edges.append(
                float(
                    optimize.brentq(
                        lambda s: _eval_scalar(potential, s),
                        probes[i],
                        probes[i + 1],
                        xtol=1e-14,
                        rtol=1e-14,
                    )
                )
            )
    bounds = [float(probes[0])] + edges + [float(probes[-1])]
    segments = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if _eval_scalar(potential, 0.5 * (lo + hi)) < 0.0:
            segments.append((lo, hi))
    return segments, bool(neg[-1])


class TestNegativeSegments:
    @pytest.mark.parametrize(
        "potential, count, open_end",
        [
            (lambda x: (x * x - 1.0) * (x * x - 4.0), 2, False),
            (lambda x: (x * x - 1.0) * (x * x - 4.0) * (2.5 - x), 3, True),
            (lambda x: x * x + 1.0, 0, False),
        ],
        ids=["two-wells", "open-tail", "nowhere-negative"],
    )
    def test_same_segments_as_the_probe_loop(self, potential, count, open_end):
        probes = np.linspace(-3.0, 3.0, 64)
        segments, open_tail = _negative_segments(potential, probes)
        assert (len(segments), open_tail) == (count, open_end)
        # bitwise: the same brentq calls on the same brackets in the same order
        assert (segments, open_tail) == looped_negative_segments(potential, probes)


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
        bump = Bump(center=0.0, radius=2.0)
        spec = WeylSpec(n=1, potential=lambda x: -np.ones_like(x), bump=bump, h=1.0)
        x = np.linspace(-2.0, 2.0, 200001)
        mass = float(np.trapezoid(bump(x) ** 2, x))
        expect = -(2.0 * 2.0 / 3.0) / (2.0 * math.pi) * mass
        assert weyl_energy(spec) == pytest.approx(expect, rel=1e-8)

    def test_monte_carlo_cross_check(self):
        # independent estimate of int (1 - x^2)^(3/2) over [-1, 1]
        rng = np.random.default_rng(123)
        x = rng.uniform(-1.0, 1.0, 40000)
        samples = (1.0 - x * x) ** 1.5
        mc = 2.0 * float(np.mean(samples))
        sigma = 2.0 * float(np.std(samples)) / math.sqrt(x.size)
        spec = WeylSpec(n=1, potential=lambda t: t * t - 1.0, h=1.0)
        integral = -weyl_energy(spec) * 2.0 * math.pi / (2.0 * 2.0 / 3.0)
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
        bump = Bump(center=0.0, radius=3.0)
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
        bump = Bump(center=0.0, radius=3.0)
        v = lambda x: x * x - 1.0
        with pytest.raises(ValueError, match="strictly decreasing"):
            local_trace_experiment(v, bump, (0.1, 0.2), n=1)
        with pytest.raises(ValueError, match="h/8"):
            local_trace_experiment(v, bump, (0.2, 0.1), n=1, spacing_divisor=4.0)
        with pytest.raises(ValueError, match="n = 1 and n = 3"):
            local_trace_experiment(v, bump, (0.2, 0.1), n=2)

    @pytest.mark.parametrize("center", [-5.0, -2.4, -2.0])
    def test_radial_bump_must_reach_a_positive_radius(self, center):
        # with center + radius <= 0 the bump vanishes at every r > 0, so the
        # n = 3 trace would be a sum of zeros
        bump = Bump(center=center, radius=2.0)
        with pytest.raises(ValueError, match="must reach some radius r > 0"):
            local_trace_experiment(lambda r: -1.0 / r, bump, (0.4, 0.3), n=3)
