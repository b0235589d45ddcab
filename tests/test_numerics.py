"""Grids, bumps, partitions, fits, and the shared positivity check."""

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottlab.coherent import CoherentParams, harmonic_symbol, trial_density_matrix
from scottlab.numerics import (
    Bump,
    Grid1D,
    GridOperator,
    PartitionPair,
    _pinned,
    _pinned_map,
    fit_power_series,
    richardson,
)
from scottlab.scott import scott_term
from scottlab.semiclassics import WeylSpec
from scottlab.spectra import RadialProblem, neg_sum_1d
from scottlab.thomas_fermi import atomic_tf, tf_length_scale, tf_scaling_transform


class TestGrid:
    def test_uniform_endpoints_and_spacing(self):
        g = Grid1D.uniform(-2.0, 3.0, 11)
        assert g.points[0] == -2.0 and g.points[-1] == 3.0
        assert g.spacing == pytest.approx(0.5)
        assert g.size == 11

    def test_halved_keeps_endpoints(self):
        g = Grid1D.uniform(0.0, 1.0, 9)
        f = g.halved()
        assert f.size == 17
        assert f.points[0] == 0.0 and f.points[-1] == 1.0
        assert f.spacing == pytest.approx(g.spacing / 2)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            Grid1D.uniform(0.0, 1.0, 4)


class TestBump:
    def test_plateau_and_support(self):
        b = Bump(center=0.0, radius=2.0)
        assert b(0.0) == 1.0
        assert b(0.9) == 1.0  # inside the half-radius plateau
        assert b(2.0) == 0.0
        assert b(2.5) == 0.0
        mid = b(1.5)
        assert 0.0 < mid < 1.0

    def test_derivative_matches_finite_difference(self):
        # closed-form slope of step(s) = f(s)/(f(s)+f(1-s)), f(s) = e^{-1/s},
        # composed with s = (1 - |x-c|/R)/(1 - plateau)
        b = Bump(center=0.3, radius=1.7)
        xs = np.linspace(-1.2, 1.9, 401)
        s = (1.0 - np.abs(xs - b.center) / b.radius) / (1.0 - b.plateau)
        inside = (s > 0.0) & (s < 1.0)
        si = s[inside]
        f, g = np.exp(-1.0 / si), np.exp(-1.0 / (1.0 - si))
        step_prime = (f / si**2 * g + f * g / (1.0 - si) ** 2) / (f + g) ** 2
        slope = np.zeros_like(xs)
        slope[inside] = (
            -np.sign(xs[inside] - b.center) * step_prime
            / ((1.0 - b.plateau) * b.radius)
        )
        eps = 1e-6
        fd = (b(xs + eps) - b(xs - eps)) / (2 * eps)
        assert np.max(np.abs(slope - fd)) < 5e-5

    def test_smooth_at_plateau_edge(self):
        # exponential profile: flat to all orders at both seams, so the
        # one-sided slopes agree across the plateau edge
        b = Bump(center=0.0, radius=2.0)
        seam, eps = 1.0, 1e-3
        left = (b(seam) - b(seam - eps)) / eps
        right = (b(seam + eps) - b(seam)) / eps
        assert abs(left - right) < 1e-6

    @given(st.floats(-10, 10))
    def test_range_bounded(self, x):
        b = Bump(center=0.0, radius=3.0)
        assert 0.0 <= b(x) <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_center(self, bad):
        with pytest.raises(ValueError, match="bump center must be finite"):
            Bump(center=bad, radius=2.0)


class TestPartition:
    @given(st.floats(0.0, 50.0))
    @settings(max_examples=80)
    def test_quadratic_identity(self, d):
        pair = PartitionPair(R=5.0)
        total = pair.inner(d) ** 2 + pair.outer(d) ** 2
        assert abs(total - 1.0) < 1e-10

    def test_inner_dominates_core(self):
        pair = PartitionPair(R=2.0)
        assert pair.inner(0.0) == 1.0
        assert pair.outer(0.0) == 0.0
        assert pair.inner(1e3) == pytest.approx(0.0, abs=1e-12)


class TestFit:
    def test_recovers_planted_coefficients(self):
        hs = np.array([0.4, 0.2, 0.1, 0.05])
        ys = 3.5 / hs**2 - 1.25 / hs
        fit = fit_power_series(hs, ys, (-2.0, -1.0))
        assert fit.coefficient(-2.0) == pytest.approx(3.5, abs=1e-10)
        assert fit.coefficient(-1.0) == pytest.approx(-1.25, abs=1e-9)
        assert fit.residual_norm < 1e-9

    @given(
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    @settings(max_examples=40)
    def test_exact_model_has_zero_residual(self, c2, c1, c0):
        hs = np.array([0.8, 0.5, 0.3, 0.2, 0.12])
        ys = c2 / hs**2 + c1 / hs + c0
        fit = fit_power_series(hs, ys, (-2.0, -1.0, 0.0))
        scale = 1.0 + abs(c2) + abs(c1) + abs(c0)
        assert fit.residual_norm < 1e-7 * scale
        assert fit.coefficient(-2.0) == pytest.approx(c2, abs=1e-6 * scale)

    def test_narrow_range_warns_in_result(self):
        hs = np.array([0.2, 0.15])
        fit = fit_power_series(hs, 1.0 / hs, (-1.0,))
        assert any("factor 2" in w for w in fit.warnings)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_y(self, bad):
        with pytest.raises(ValueError, match="y values must be finite"):
            fit_power_series([0.4, 0.2, 0.1], [1.0, bad, 4.0], (-1.0,))

    def test_unknown_exponent_raises(self):
        fit = fit_power_series(
            np.array([0.4, 0.2, 0.1]), np.array([1.0, 2.0, 4.0]), (-1.0,)
        )
        with pytest.raises(KeyError):
            fit.coefficient(-2.0)


class TestRichardson:
    def test_cancels_second_order_error(self):
        exact = 2.0
        coarse = exact + 0.04
        fine = exact + 0.01  # error ratio 4 at order 2
        assert richardson(coarse, fine) == pytest.approx(exact)


class TestPinnedMap:
    def test_results_in_item_order(self, blas_pins):
        def late_first(i):
            time.sleep(0.002 * (8 - i))  # later items finish first
            return i * i

        assert list(_pinned_map(late_first, list(range(8)))) == [
            i * i for i in range(8)
        ]
        assert [get() for get in blas_pins] == [2] * len(blas_pins)

    def test_worker_exception_reaches_the_caller(self, blas_pins):
        raised_in = []

        def fail_at_three(i):
            if i == 3:
                raised_in.append(threading.current_thread())
                raise RuntimeError("item 3 failed")
            return i

        results = _pinned_map(fail_at_three, list(range(6)))
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(RuntimeError, match="item 3 failed"):
            next(results)
        assert raised_in and threading.main_thread() not in raised_in
        assert [get() for get in blas_pins] == [2] * len(blas_pins)

    def test_early_close_restores_the_pins(self, blas_pins):
        if not blas_pins:
            pytest.skip("no bundled OpenBLAS to pin")
        def counts(_):
            return [get() for get in blas_pins]

        results = _pinned_map(counts, list(range(6)))
        assert next(results) == [1] * len(blas_pins)
        assert [get() for get in blas_pins] == [1] * len(blas_pins)
        results.close()
        assert [get() for get in blas_pins] == [2] * len(blas_pins)


class TestPinned:
    def test_one_thread_inside_and_restored_after_return_and_raise(self, blas_pins):
        if not blas_pins:
            pytest.skip("no bundled OpenBLAS to pin")

        @_pinned
        def counts(fail):
            if fail:
                raise RuntimeError("pinned call failed")
            return [get() for get in blas_pins]

        assert counts(False) == [1] * len(blas_pins)
        assert [get() for get in blas_pins] == [2] * len(blas_pins)
        with pytest.raises(RuntimeError, match="pinned call failed"):
            counts(True)
        assert [get() for get in blas_pins] == [2] * len(blas_pins)


class TestPositivity:
    """Every h, z, radius and scale the library takes goes through one
    positivity check."""

    CONSTRUCTORS = {
        "CoherentParams": lambda v: CoherentParams(h=v, a=1.0),
        "GridOperator": lambda v: GridOperator(
            matrix=np.eye(8), grid=Grid1D.uniform(0.0, 1.0, 8), h=v
        ),
        "RadialProblem": lambda v: RadialProblem.build(
            lambda r: 1.0 / r, h=v, r_max=1.0, spacing=0.01
        ),
        "neg_sum_1d": lambda v: neg_sum_1d(
            lambda x: -np.ones_like(x), v, Grid1D.uniform(0.0, 1.0, 64)
        ),
        "WeylSpec": lambda v: WeylSpec(n=1, potential=lambda x: x * x - 1.0, h=v),
        "scott_term": lambda v: scott_term([1.0], v),
        "tf_length_scale": tf_length_scale,
        "atomic_tf": atomic_tf,
        "make_bump": lambda v: Bump(center=0.0, radius=v),
        "PartitionPair": lambda v: PartitionPair(R=v),
        "tf_scaling_transform": lambda v: tf_scaling_transform(atomic_tf(1.0), v),
        "trial_density_matrix": lambda v: trial_density_matrix(
            harmonic_symbol(-1.0),
            CoherentParams(h=0.4, a=0.4**-0.8),
            Grid1D.uniform(-4, 4, 33),
            v,
        ),
        "fit_power_series": lambda v: fit_power_series(
            [v, 0.2, 0.1], [1.0, 2.0, 4.0], (-1.0,)
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_zero_negative_and_non_finite(self, name, bad):
        with pytest.raises(ValueError, match="must be positive and finite"):
            self.CONSTRUCTORS[name](bad)
