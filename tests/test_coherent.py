"""Smeared coherent states: weights, kernels, representation, trial density."""

import dataclasses
import functools
import math
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant, toeplitz
from scipy.special import roots_legendre, wofz

from scottlab.coherent import (
    ClassicalSymbol,
    CoherentParams,
    PhasePoint,
    fourier_multiplier_matrix,
    gaussian_moment_cancellation,
    harmonic_symbol,
    momentum_lattice,
    representation_error_norm,
    resolution_of_identity_check,
    schrodinger_operator,
    trial_density_matrix,
    weight_w,
)
from scottlab import numerics
from scottlab import coherent
from scottlab.coherent import (
    _T_POINTS,
    _column_rules,
    _core_window,
    _dirichlet_kernel,
    _factor_rank,
    _hermite_factor,
    _linear_phase,
    _node_columns,
    _phase_rule,
    _resolution_nodes,
    _symbol_half,
    _toeplitz,
    _trial_nodes,
    _u_integrated_square,
    _u_step,
    _weight_one_diagonal,
)
from scottlab.numerics import Grid1D, GridOperator

from reference import constant_symbol, new_kernel_G


def sin_symbol():
    return ClassicalSymbol(
        F=lambda q: np.asarray(q) ** 2,
        dF=lambda q: 2.0 * np.asarray(q),
        d2F=lambda q: 2.0 * np.ones_like(np.asarray(q, dtype=float)),
        V=lambda u: np.sin(np.asarray(u)),
        dV=lambda u: np.cos(np.asarray(u)),
        d2V=lambda u: -np.sin(np.asarray(u)),
    )


def shifted_symbol():
    """sigma = (q + 8)^2 + u^2 - 1, negative only near q = -8."""
    return ClassicalSymbol(
        F=lambda q: (np.asarray(q) + 8.0) ** 2,
        dF=lambda q: 2.0 * (np.asarray(q) + 8.0),
        d2F=lambda q: 2.0 * np.ones_like(np.asarray(q, dtype=float)),
        V=lambda u: np.asarray(u) ** 2 - 1.0,
        dV=lambda u: 2.0 * np.asarray(u),
        d2V=lambda u: 2.0 * np.ones_like(np.asarray(u, dtype=float)),
    )


def u_shifted_symbol():
    """sigma = q^2 + (u - 0.3)^2 - 1: even in q, not in u."""
    return dataclasses.replace(
        harmonic_symbol(-1.0),
        V=lambda u: (np.asarray(u) - 0.3) ** 2 - 1.0,
        dV=lambda u: 2.0 * (np.asarray(u) - 0.3),
    )


def recording_symbol(sym):
    """sym with each of its six callables wrapped to record (name, thread)
    per call, and the list the records go to."""
    calls = []

    def recorder(name, fn):
        def recorded(t):
            calls.append((name, threading.current_thread()))
            return fn(t)

        return recorded

    wrapped = {
        field.name: recorder(field.name, getattr(sym, field.name))
        for field in dataclasses.fields(sym)
    }
    return ClassicalSymbol(**wrapped), calls


def assert_fixed_calls_in_calling_thread(calls_small, calls_large):
    # every callable ran, only in this thread, as often for the larger node
    # set as for the smaller
    assert {name for name, _ in calls_small} == {"F", "dF", "d2F", "V", "dV", "d2V"}
    threads = {thread for _, thread in calls_small + calls_large}
    assert threads == {threading.current_thread()}
    assert sorted(name for name, _ in calls_small) == sorted(
        name for name, _ in calls_large
    )


def working_grid(p, half_width):
    dx = min(p.h, 1.0 / math.sqrt(p.b)) / 6.0
    n = int(round(2.0 * half_width / dx)) + 1
    return Grid1D.uniform(-half_width, half_width, n)


def acceptance_grid(p, widen=1, refine=1):
    """Criterion 8's grid rule for support radius 1.5: half-width 1.5 plus
    seven momentum spreads 1/sqrt(2a) plus 0.5, Nyquist momentum five spreads
    above the q range 1 + 10/sqrt(a).  widen multiplies the half-width and
    refine divides the spacing, both exactly."""
    spread = 1.0 / math.sqrt(2.0 * p.a)
    q_half = 1.0 + 10.0 / math.sqrt(p.a)
    half = 1.5 + 7.0 * spread + 0.5
    dx = math.pi * p.h / (q_half + 5.0 * spread)
    n = 2 * int(math.ceil(half / dx)) + 1
    return Grid1D.uniform(-widen * half, widen * half, widen * refine * (n - 1) + 1)


class TestParams:
    def test_b_reference_value(self):
        # b = 2a/(1 + (ha)^2) is exactly 8 at h = 0.1, a = 5
        assert CoherentParams(h=0.1, a=5.0).b == 8.0

    def test_b_approaches_one_over_h(self):
        h = 0.3
        p = CoherentParams(h=h, a=(1.0 - 1e-12) / h)
        assert p.b == pytest.approx(1.0 / h, rel=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        h=st.floats(min_value=0.05, max_value=2.0),
        t=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_b_never_exceeds_caps(self, h, t):
        p = CoherentParams(h=h, a=t / h)
        assert p.b == pytest.approx(2.0 * p.a / (1.0 + (h * p.a) ** 2))
        assert p.b <= 1.0 / h * (1.0 + 1e-12)
        assert p.b < 2.0 * p.a

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CoherentParams(h=0.0, a=1.0)
        with pytest.raises(ValueError, match="a < 1/h"):
            CoherentParams(h=0.5, a=2.0)
        with pytest.raises(ValueError, match="a < 1/h"):
            CoherentParams(h=0.5, a=-1.0)

    def test_phase_point_must_be_finite(self):
        with pytest.raises(ValueError):
            PhasePoint(u=math.nan, q=0.0)
        with pytest.raises(ValueError):
            PhasePoint(u=0.0, q=math.inf)


class TestSymbols:
    def test_harmonic(self):
        sym = harmonic_symbol(offset=-1.0)
        assert sym.F(2.0) + sym.V(0.5) == pytest.approx(0.25 + 4.0 - 1.0)
        assert sym.laplacian(0.3, 0.7) == pytest.approx(4.0)

    def test_constant(self):
        sym = constant_symbol(0.7)
        assert sym.F(-2.0) + sym.V(1.0) == pytest.approx(0.7)
        assert sym.laplacian(1.0, -2.0) == 0.0

    def test_operator_symbol_counterterm(self):
        # c0 = F + F''/(4b) at q plus V + V''/(4b) at u, on node arrays
        p = CoherentParams(h=0.1, a=5.0)  # b = 8
        sym = harmonic_symbol()
        q, u = np.array([-1.0, 3.0]), np.array([0.5, 0.0])
        c0 = _symbol_half(sym.F, sym.d2F, q, p.b) + _symbol_half(sym.V, sym.d2V, u, p.b)
        np.testing.assert_allclose(c0, [0.25 + 1.0 + 4.0 / 32.0, 9.0 + 4.0 / 32.0])


class TestStatesAndWeights:
    def test_old_state_is_normalized(self):
        # at the a = 1/h cap the kernel's diagonal is |psi|^2 of the classic
        # packet, so it carries unit mass and peaks at (pi h)^{-1/2} over u
        p = CoherentParams(h=0.1, a=(1.0 - 1e-12) / 0.1)
        pt = PhasePoint(u=0.4, q=1.3)
        x = np.linspace(-3.0, 4.0, 20001)
        diag = new_kernel_G(p, pt, x, x)
        np.testing.assert_allclose(diag.imag, 0.0, atol=1e-14)
        mass = float(np.trapezoid(diag.real, x))
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert abs(new_kernel_G(p, pt, 0.4, 0.4)) == pytest.approx(
            (math.pi * p.h) ** -0.5
        )

    def test_weight_normalization(self):
        p = CoherentParams(h=0.1, a=0.1**-0.8)
        alpha = p.a / (1.0 - p.h * p.a)
        half = 9.0 / math.sqrt(alpha)
        t = np.linspace(-half, half, 4001)
        # the weight factorizes, so the 2D integral is a product of
        # identical 1D integrals up to the known prefactor split
        vals = weight_w(p, t, 0.0)
        one_d = float(np.trapezoid(vals, t))
        peak = weight_w(p, 0.0, 0.0)
        assert one_d**2 / peak == pytest.approx(1.0, abs=1e-8)

    def test_weight_peaks_at_origin(self):
        p = CoherentParams(h=0.2, a=1.0)
        assert weight_w(p, 0.0, 0.0) > weight_w(p, 0.5, 0.0)
        assert weight_w(p, 0.3, 0.4) == pytest.approx(
            weight_w(p, 0.4, 0.3)
        )  # radial in (u, q)

    def test_kernel_hermitian_and_peak(self):
        p = CoherentParams(h=0.1, a=5.0)
        pt = PhasePoint(u=0.2, q=0.9)
        x = np.linspace(-1.0, 1.5, 41)
        g = new_kernel_G(p, pt, x[:, None], x[None, :])
        np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
        assert new_kernel_G(p, pt, 0.2, 0.2) == pytest.approx(
            (math.pi * p.h) ** -0.5
        )

    def test_kernel_collapses_to_old_state_at_a_cap(self):
        # at a = 1/h the smeared kernel is exactly the rank-one projector
        # onto the classic packet (pi h)^{-1/4} e^{-(x-u)^2/2h} e^{iqx/h}
        h = 0.1
        p = CoherentParams(h=h, a=(1.0 - 1e-12) / h)
        pt = PhasePoint(u=-0.3, q=0.7)
        x = np.linspace(-1.2, 0.8, 37)
        g = new_kernel_G(p, pt, x[:, None], x[None, :])
        psi = (
            (math.pi * h) ** -0.25
            * np.exp(-((x - pt.u) ** 2) / (2.0 * h))
            * np.exp(1j * pt.q * x / h)
        )
        np.testing.assert_allclose(g, np.outer(psi, psi.conj()), rtol=1e-9)


class TestMomentCancellation:
    def test_harmonic_vanishes(self):
        p = CoherentParams(h=0.1, a=0.1**-0.8)
        val = gaussian_moment_cancellation(harmonic_symbol(), p, PhasePoint(0.3, 0.5))
        assert abs(val) < 1e-8

    def test_sin_symbol_vanishes_pointwise(self):
        # the identity is a second-moment statement at the expansion point,
        # so it holds for non-constant Hessians too
        p = CoherentParams(h=0.2, a=2.0)
        val = gaussian_moment_cancellation(sin_symbol(), p, PhasePoint(1.1, -0.4))
        assert abs(val) < 1e-8


class TestGridOperators:
    def test_momentum_lattice_diagonalizes_multiplier(self):
        h = 0.25
        for n in (64, 65):
            grid = Grid1D.uniform(-3.0, 3.0, n)
            q = momentum_lattice(grid, h)
            for values in (q.astype(complex), q**2):
                mat = fourier_multiplier_matrix(values)
                wave = np.exp(1j * (q[5] / h) * grid.points)
                np.testing.assert_allclose(mat @ wave, values[5] * wave, atol=1e-10)
                # the same multiplier as the FFT of the identity
                by_fft = np.fft.ifft(
                    values[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0
                )
                assert np.max(np.abs(mat - by_fft)) <= 1e-14 * np.max(np.abs(by_fft))

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 193, 194])
    def test_strided_views_give_the_index_gathers_bits(self, n):
        # both builders once gathered through n x n index arrays; the copied
        # views hold the same bits, C-ordered as the gathers were
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kernel = np.fft.ifft(values)
        lags = np.arange(n)[:, None] - np.arange(n)
        diffs = rng.standard_normal(2 * n - 1)
        for built, gathered in (
            (fourier_multiplier_matrix(values), kernel[lags % n]),
            (_toeplitz(diffs), diffs[n - 1 + lags]),
        ):
            assert built.flags.c_contiguous and built.shape == (n, n)
            assert built.tobytes() == gathered.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_circulant_and_toeplitz_are_scipys_matrices(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.array_equal(
            fourier_multiplier_matrix(values), circulant(np.fft.ifft(values))
        )
        column = rng.standard_normal(n)
        symmetric = np.concatenate((column[:0:-1], column))
        assert np.array_equal(_toeplitz(symmetric), toeplitz(column))
        diffs = rng.standard_normal(2 * n - 1)
        assert np.array_equal(_toeplitz(diffs), toeplitz(diffs[n - 1 :], diffs[n - 1 :: -1]))

    def test_schrodinger_harmonic_levels(self):
        grid = Grid1D.uniform(-6.0, 6.0, 256)
        H = schrodinger_operator(harmonic_symbol(), grid, h=0.1)
        levels = H.eigenvalues()[:8]
        expect = 2.0 * 0.1 * (np.arange(8) + 0.5)
        np.testing.assert_allclose(levels, expect, atol=1e-8)

    def test_negative_sum(self):
        grid = Grid1D.uniform(0.0, 1.0, 8)
        op = GridOperator(
            matrix=np.diag([-1.0, 2.0, -0.25, 0.0, 1.0, 1.0, 1.0, 1.0]),
            grid=grid,
            h=1.0,
        )
        assert op.negative_sum() == pytest.approx(-1.25)

    def test_rejects_non_hermitian(self):
        grid = Grid1D.uniform(0.0, 1.0, 8)
        m = np.zeros((8, 8))
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            GridOperator(matrix=m, grid=grid, h=1.0)

    def test_rejects_size_mismatch(self):
        grid = Grid1D.uniform(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="match the grid"):
            GridOperator(matrix=np.eye(9), grid=grid, h=1.0)


class TestResolutionOfIdentity:
    def test_gaussian_vector_floor(self):
        p = CoherentParams(h=0.4, a=0.4**-0.8)
        grid = working_grid(p, 7.0)
        psi = np.exp(-grid.points**2)
        psi /= np.linalg.norm(psi)
        dev = resolution_of_identity_check(p, psi, grid)
        assert dev < 1e-6

    def test_zero_vector_short_circuits(self):
        p = CoherentParams(h=0.4, a=0.4**-0.8)
        grid = working_grid(p, 7.0)
        assert resolution_of_identity_check(p, np.zeros(grid.size), grid) == 0.0

    @pytest.mark.parametrize("q_count", [2, 3, 9, 64, None])
    @pytest.mark.parametrize("half_width", [7.0, 30.0])
    @pytest.mark.parametrize("h", [0.6, 0.4, 0.25, 0.1])
    def test_dirichlet_kernel_matches_the_cosine_sum(self, h, half_width, q_count):
        # small counts and wide grids reach the aliasing peaks phi = k pi;
        # None is the check's own count
        p = CoherentParams(h=h, a=h**-0.8)
        grid = working_grid(p, half_width)
        qs = _resolution_nodes(p, grid)
        if q_count is not None:
            qs = np.linspace(qs[0], qs[-1], q_count)
        diffs = grid.spacing * np.arange(-(grid.size - 1), grid.size)
        explicit = np.zeros(diffs.size)
        for q in qs:
            explicit += np.cos(q * diffs / h)
        step = (qs[-1] - qs[0]) / (qs.size - 1)
        closed = _dirichlet_kernel(qs.size, step, diffs, h)
        assert np.max(np.abs(closed - explicit)) <= 1e-11 * np.max(np.abs(explicit))

    def test_rejects_wrong_shapes(self):
        p = CoherentParams(h=0.4, a=0.4**-0.8)
        grid = working_grid(p, 7.0)
        with pytest.raises(ValueError, match="on the grid"):
            resolution_of_identity_check(p, np.zeros(grid.size + 3), grid)


class TestRepresentationError:
    def test_constant_symbol_floor(self):
        p = CoherentParams(h=0.2, a=0.2**-0.8)
        err = representation_error_norm(constant_symbol(0.7), p, working_grid(p, 4.0))
        assert err < 1e-8

    def test_harmonic_error_is_two_h2a(self):
        # quadratic symbol: curvature 1/(4b) counterterms leave exactly
        # h^2 a per side
        p = CoherentParams(h=0.2, a=0.2**-0.8)
        err = representation_error_norm(harmonic_symbol(), p, working_grid(p, 4.0))
        assert err == pytest.approx(2.0 * p.h**2 * p.a, rel=5e-3)
        # equivalently err/(h^2 b) is the 1 + (ha)^2 localization factor
        assert err / (p.h**2 * p.b) == pytest.approx(
            1.0 + (p.h * p.a) ** 2, rel=5e-3
        )

    def test_sin_symbol_bounded_by_error_budget(self):
        # non-quadratic symbol: the defect splits into the h^2 b curvature
        # piece and the third-derivative localization tail b^(-3/2)
        h = 0.2
        for rule in (-0.6, -0.8):
            p = CoherentParams(h=h, a=h**rule)
            err = representation_error_norm(sin_symbol(), p, working_grid(p, 4.0))
            assert err < 1.5 * (h * h * p.b + p.b**-1.5)

    def test_short_grid_rejected(self):
        p = CoherentParams(h=0.2, a=0.2**-0.8)
        grid = Grid1D.uniform(-0.5, 0.5, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # spacing warning precedes the raise
            with pytest.raises(ValueError, match="grid too short"):
                representation_error_norm(harmonic_symbol(), p, grid)

    def test_symbol_runs_in_the_calling_thread_a_fixed_number_of_times(self):
        p = CoherentParams(h=0.2, a=0.2**-0.8)
        records = []
        for half_width in (4.0, 5.0):  # more u-nodes on the wider grid
            sym, calls = recording_symbol(harmonic_symbol(-1.0))
            representation_error_norm(sym, p, working_grid(p, half_width))
            records.append(calls)
        assert_fixed_calls_in_calling_thread(*records)

    def test_block_loop_peak_within_budget(self, traced_peak_mib):
        # coherent-check's h = 0.25 grid (n = 193, core m = 67): the block
        # loop of _momentum_sandwich, one block of Hermite factors and its
        # products next to S_P, sets the check's traced peak, 3.4 MiB.  The
        # m x m core kernels are about 70 KiB each, so where they are built
        # barely moves it; this bounds the block loop.  The 5 MiB budget
        # leaves 1.6 MiB of margin above today's peak.
        p = CoherentParams(h=0.25, a=0.25**-0.8)
        grid = working_grid(p, 4.0)
        assert grid.size == 193
        peak = traced_peak_mib(representation_error_norm, harmonic_symbol(), p, grid)
        assert peak < 5.0

    def test_coarse_grid_rejected(self):
        p = CoherentParams(h=0.2, a=0.2**-0.8)
        grid = Grid1D.uniform(-4.0, 4.0, 33)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="too coarse"):
                representation_error_norm(harmonic_symbol(), p, grid)


class TestTrialDensity:
    def build_small(self):
        p = CoherentParams(h=0.4, a=0.4**-0.8)
        return p, harmonic_symbol(offset=-1.0), acceptance_grid(p)

    def test_gamma_is_a_density_matrix(self):
        p, sym, grid = self.build_small()
        gamma = trial_density_matrix(sym, p, grid, support_radius=1.5)
        w = gamma.eigenvalues()
        assert w[0] > -1e-6
        assert w[-1] < 1.0 + 1e-6
        # trace counts the negative phase-space disc, area pi over 2 pi h
        trace = np.trace(gamma.matrix).real
        assert trace == pytest.approx(math.pi / (2.0 * math.pi * p.h), rel=0.1)

    def test_energy_dominates_negative_sum(self):
        p, sym, grid = self.build_small()
        gamma = trial_density_matrix(sym, p, grid, support_radius=1.5)
        H = schrodinger_operator(sym, grid, p.h)
        energy = float(np.real(np.sum(H.matrix * gamma.matrix.T)))
        assert energy >= H.negative_sum()

    def test_shell_off_the_momentum_origin(self):
        # sigma = (q + 8)^2 + u^2 - 1 is negative only at q < 0; the grid's
        # Nyquist momentum clears the q range 9 + 10/sqrt(a)
        p, _, small = self.build_small()
        sym = shifted_symbol()
        half = small.points[-1]
        grid = Grid1D.uniform(-half, half, 161)
        assert math.pi * p.h / grid.spacing > 9.0 + 10.0 / math.sqrt(p.a)
        gamma = trial_density_matrix(sym, p, grid, support_radius=1.5)
        assert np.trace(gamma.matrix).real == pytest.approx(1.0 / (2.0 * p.h), rel=0.1)

    def test_upper_bound_does_not_depend_on_the_grid(self):
        # each node's projection is taken on the line, so the box length and
        # the spacing only sample gamma: C(h) = (Tr H gamma - Weyl) h^(-1/5)
        # is the same on criterion 8's grid, at half its spacing, on a box
        # twice as wide and on both
        p = CoherentParams(h=0.5, a=0.5**-0.8)
        sym = harmonic_symbol(offset=-1.0)
        constants = []
        for widen, refine in ((1, 1), (1, 2), (2, 1), (2, 2)):
            grid = acceptance_grid(p, widen, refine)
            gamma = trial_density_matrix(sym, p, grid, support_radius=1.5)
            H = schrodinger_operator(sym, grid, p.h)
            energy = float(np.real(np.sum(H.matrix * gamma.matrix.T)))
            # the Weyl term of q^2 + u^2 - 1 is -(area pi)/(2 pi h)
            constants.append((energy + 1.0 / (4.0 * p.h)) * p.h**-0.2)
        np.testing.assert_allclose(constants, constants[0], rtol=1e-9, atol=0.0)

    def test_even_symbol_keeps_symmetric_q_nodes(self):
        p, sym, grid = self.build_small()
        _, qs, step = _trial_nodes(sym, p, grid, 1.5)
        # consecutive integer multiples of the step, mirrored bitwise about 0
        k = np.rint(qs / step)
        assert np.array_equal(qs, step * k)
        assert np.array_equal(k, np.arange(k[0], k[-1] + 1))
        assert np.array_equal(qs, -qs[::-1])
        # the lattice covers the largest scanned |q| with sigma < 0 plus the
        # margin, by less than one step
        q_mags = np.linspace(0.0, 20.0, 2001)
        q_scan = np.concatenate((-q_mags[::-1], q_mags))
        shell = max(
            np.abs(q_scan[sym.F(q_scan) + sym.V(u) < 0.0]).max(initial=0.0)
            for u in np.linspace(-1.5, 1.5, 41)
        )
        q_half = shell + 10.0 / math.sqrt(p.a)
        assert q_half <= qs[-1] < q_half + step

    @pytest.mark.parametrize("h, rows", [(0.5, 19), (0.6, 15)])
    def test_u_rows_on_the_support_edge(self, h, rows):
        # R/step is 9 at h = 0.5, so rows land on u = +-1.5; at h = 0.6 it is
        # 7.5 and no row does
        p = CoherentParams(h=h, a=h**-0.8)
        sym = harmonic_symbol(offset=-1.0)
        grid = Grid1D.uniform(-3.0, 3.0, 31)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the grid Nyquist is below the q range
            us, _, step = _trial_nodes(sym, p, grid, 1.5)
        assert np.array_equal(us, step * np.arange(-(rows // 2), rows // 2 + 1))
        assert np.array_equal(us, -us[::-1])
        on_edge = np.isclose(np.abs(us), 1.5, rtol=1e-12, atol=0.0)
        assert list(np.flatnonzero(on_edge)) == ([0, rows - 1] if h == 0.5 else [])

    def test_support_edge_row_has_half_weight(self):
        # at h = 0.5 the rows u = +-1.5 sit on the edge: a radius 1e-9 inside
        # drops them and one 1e-9 outside keeps them at full weight
        p = CoherentParams(h=0.5, a=0.5**-0.8)
        sym = harmonic_symbol(offset=-1.0)
        grid = Grid1D.uniform(-3.0, 3.0, 31)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            edge, inside, outside = (
                trial_density_matrix(sym, p, grid, support_radius=r).matrix
                for r in (1.5, 1.5 * (1.0 - 1e-9), 1.5 * (1.0 + 1e-9))
            )
        assert not np.allclose(inside, outside)
        half_sum = 0.5 * (inside + outside)
        assert np.max(np.abs(edge - half_sum)) <= 1e-13 * np.max(np.abs(edge))

    def test_q_nodes_follow_a_shifted_shell(self):
        p, _, grid = self.build_small()
        sym = shifted_symbol()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # grid Nyquist is below q = -9
            _, qs, step = _trial_nodes(sym, p, grid, 1.5)
        margin = 10.0 / math.sqrt(p.a)
        assert qs.min() >= -9.0 - margin - step
        assert qs.max() <= -7.0 + margin + step

    def assert_mirrored(self, mapped_rows, calls, sym, p, grid, radius):
        # every call took the parity path: only the rows u >= 0 were solved
        us, _, _ = _trial_nodes(sym, p, grid, radius)
        assert us.size > 2
        assert mapped_rows == calls * [np.flatnonzero(us >= 0.0).tolist()]

    def test_gamma_same_for_any_worker_count(self, monkeypatch, mapped_rows):
        p, sym, grid = self.build_small()
        gammas = []
        for cpus in (1, 2, 8):
            monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
            gammas.append(trial_density_matrix(sym, p, grid, support_radius=0.5))
        self.assert_mirrored(mapped_rows, 3, sym, p, grid, 0.5)
        for other in gammas[1:]:
            assert np.array_equal(gammas[0].matrix, other.matrix)

    def test_gamma_same_without_the_blas_pin(self, monkeypatch, mapped_rows):
        p, sym, grid = self.build_small()
        pinned = trial_density_matrix(sym, p, grid, support_radius=0.5)
        monkeypatch.setattr(numerics, "_bundled_openblas", lambda: None)
        serial = trial_density_matrix(sym, p, grid, support_radius=0.5)
        self.assert_mirrored(mapped_rows, 2, sym, p, grid, 0.5)
        assert np.array_equal(pinned.matrix, serial.matrix)

    def test_blas_threads_restored_after_normal_and_raising_calls(self, monkeypatch):
        calls = numerics._bundled_openblas()
        if calls is None:
            pytest.skip("numpy has no bundled OpenBLAS to pin")
        set_threads, get_threads = calls
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: 2)
        p, sym, grid = self.build_small()
        prior = get_threads()
        set_threads(2)
        try:
            trial_density_matrix(sym, p, grid, support_radius=0.5)
            assert get_threads() == 2

            raised_in = []
            node_columns = coherent._node_columns

            def failing_node(grid, u, *columns):
                # the rows build their node columns in the workers; only the
                # nodes of a row u > 0 fail
                if u > 0.0:
                    raised_in.append(threading.current_thread())
                    raise RuntimeError("node failed in a row")
                return node_columns(grid, u, *columns)

            monkeypatch.setattr(coherent, "_node_columns", failing_node)
            with pytest.raises(RuntimeError, match="failed in a row"):
                trial_density_matrix(sym, p, grid, support_radius=0.5)
            assert get_threads() == 2
            assert threading.main_thread() not in raised_in
        finally:
            set_threads(prior)

    def test_symbol_runs_in_the_calling_thread_a_fixed_number_of_times(
        self, monkeypatch
    ):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: 2)
        p, _, grid = self.build_small()
        records = []
        for radius in (0.5, 1.5):
            sym, calls = recording_symbol(harmonic_symbol(-1.0))
            trial_density_matrix(sym, p, grid, support_radius=radius)
            records.append(calls)
        assert_fixed_calls_in_calling_thread(*records)

    @pytest.mark.parametrize("h", [0.5, 0.2])  # the benchmark's grid; criterion 8's
    def test_blocks_stay_within_the_entry_budget(self, column_blocks, h):
        # every block of node columns the rows take holds at most
        # _BLOCK_ENTRIES entries, which bounds their working memory, and
        # every block but a row's last holds that many, since a row's
        # columns are cut into blocks by columns, not by whole nodes
        p = CoherentParams(h=h, a=h**-0.8)
        grid = acceptance_grid(p)
        trial_density_matrix(harmonic_symbol(-1.0), p, grid, support_radius=1.5)
        per_block = coherent._BLOCK_ENTRIES // grid.size
        assert any(len(row) > 1 for row in column_blocks)
        for row in filter(None, column_blocks):  # a row may drop every node
            assert row[:-1] == [per_block] * (len(row) - 1)
            assert 0 < row[-1] <= per_block

    def test_shell_past_the_scan_rejected(self):
        p, _, grid = self.build_small()
        with pytest.raises(ValueError, match=r"\|q\| = 20"):
            trial_density_matrix(harmonic_symbol(-1000.0), p, grid, support_radius=1.5)

    def test_under_resolved_grid_warns(self):
        p = CoherentParams(h=0.4, a=0.4**-0.8)
        sym = harmonic_symbol(offset=-1.0)
        grid = Grid1D.uniform(-5.0, 5.0, 33)  # Nyquist well below q range
        with pytest.warns(UserWarning, match="under-resolved"):
            trial_density_matrix(sym, p, grid, support_radius=1.5)

    def test_rejects_bad_arguments(self):
        p, sym, grid = self.build_small()
        with pytest.raises(ValueError, match="support radius"):
            trial_density_matrix(sym, p, grid, support_radius=0.0)


# Per-node oracles: the identities assembled one phase-space u-node at a
# time, each node a dense product, the way the library first computed them.


def kernel_factor(p, x, dx, u):
    """A_u from the public pointwise kernel: G_{u,0} with the weight dx."""
    return new_kernel_G(p, PhasePoint(u, 0.0), x[:, None], x[None, :]).real * dx


def trapezoid_u_nodes(p, grid):
    """The grid range plus seven widths 1/sqrt(2a) per side, at step _u_step."""
    sigma = 1.0 / math.sqrt(2.0 * p.a)
    x, du = grid.points, _u_step(p)
    return np.arange(x[0] - 7.0 * sigma, x[-1] + 7.0 * sigma + du, du), du


def per_node_resolution(p, psi, grid):
    """The resolution check as a u trapezoid, one dense product per node."""
    sigma = 1.0 / math.sqrt(2.0 * p.a)
    x, dx = grid.points, grid.spacing
    us, du = trapezoid_u_nodes(p, grid)
    q_half = math.pi * p.h / dx + 7.0 * sigma
    q_count = 2 * int(math.ceil(q_half / _phase_rule(p))) + 1
    qs = np.linspace(-q_half, q_half, q_count)
    dq = qs[1] - qs[0]
    diffs = dx * np.arange(-(grid.size - 1), grid.size)
    s_vec = np.sum(np.cos(np.outer(qs, diffs) / p.h), axis=0) * dq / (
        2.0 * math.pi * p.h
    )
    idx = np.arange(grid.size)
    s_mat = s_vec[idx[:, None] - idx[None, :] + grid.size - 1]
    out = np.zeros_like(psi, dtype=complex)
    for u in us:
        a_mat = kernel_factor(p, x, dx, float(u))
        out += du * (((a_mat @ a_mat) * s_mat) @ psi)
    return float(np.linalg.norm(out - psi) / np.linalg.norm(psi))


def per_node_representation(sym, p, grid):
    x, dx, n = grid.points, grid.spacing, grid.size
    target = schrodinger_operator(sym, grid, p.h).matrix
    qs = momentum_lattice(grid, p.h)
    w_f = np.asarray(sym.F(qs), dtype=float) + np.asarray(
        sym.d2F(qs), dtype=float
    ) / (4.0 * p.b)
    w_df = np.asarray(sym.dF(qs), dtype=float)
    idx = np.arange(n)
    wrap = (idx[:, None] - idx[None, :]) % n
    s_f = (np.fft.ifft(w_f) / dx)[wrap]
    s_df = (np.fft.ifft(w_df) / dx)[wrap]
    us, du = trapezoid_u_nodes(p, grid)
    assembled = np.zeros((n, n), dtype=complex)
    for u in us:
        a_mat = kernel_factor(p, x, dx, float(u))
        c_diag = (
            float(sym.V(u))
            + float(sym.d2V(u)) / (4.0 * p.b)
            + float(sym.dV(u)) * (x - u)
        )
        t1_diag = np.einsum("xy,xy->x", a_mat * c_diag[None, :], a_mat)
        assembled[idx, idx] += du * t1_diag / dx
        assembled += du * ((a_mat @ a_mat) * s_f)
        # A P A = (F A)^H diag(q) (F A) / n for the spectral momentum P
        fa = np.fft.fft(a_mat, axis=0)
        assembled += du * ((fa.conj().T @ (qs[:, None] * fa) / n) * s_df)
    reach = 6.0 * p.h * math.sqrt(p.a)
    margin = max(int(round(0.1 * n)), int(math.ceil(reach / dx)), 1)
    window = slice(margin, n - margin)
    diff = assembled - target
    diff = 0.5 * (diff + diff.conj().T)
    core = diff[window, window]
    smear = 0.5 * math.sqrt(p.h * p.h * p.a + 1.0 / p.a)
    q_cut = math.pi * p.h / dx - 8.0 * smear
    q_core = 2.0 * math.pi * p.h * np.fft.fftfreq(core.shape[0], d=dx)
    keep = np.abs(q_core) <= q_cut
    rotated = np.fft.fft(np.fft.ifft(core, axis=1), axis=0)
    band = rotated[np.ix_(keep, keep)]
    band = 0.5 * (band + band.conj().T)
    return float(np.max(np.abs(np.linalg.eigvalsh(band))))


def per_node_trial_density(sym, p, grid, support_radius):
    """gamma summed entry by entry over every (u, q) of _trial_nodes, with the
    exact integral over the cut; rows on the support edge at weight 1/2.

    With r = hypot(V', F') and (c, s) = (V', F')/r, chi(hhat < 0) projects
    onto lambda < lam0 = (V' u + F' q - c0)/r of c x + s p.  By the Gaussian
    integral over y of the kernel times that operator's eigenfunctions, the
    column G e_lambda at x is exp(P(x) + L(x) lambda - A lambda^2) times
    (2 pi h^2 |alpha|)^(-1/2), up to a phase constant in x, with alpha =
    A0 s + i c/(2h), A0 = a/4 + 1/(4 h^2 a), A = A0/(4 h^2 |alpha|^2),
    beta = x(1/(2 h^2 a) - a/2) + a u - i q/h, L = i beta/(2 h alpha) and
    P = s beta^2/(4 alpha) - a(x - 2u)^2/4 - x^2/(4 h^2 a) + i q x/h.  The
    entry (x, y) integrates exp(-2A lambda^2 + D lambda), D = L(x) +
    conj L(y), up to lam0: the erfc of a complex argument, taken through the
    Faddeeva function w so that no factor overflows.  Swapping x and y
    conjugates P(x) + conj P(y) and D, and w(-conj z) = conj w(z), so each
    node's term is Hermitian entry by entry: only the entries on and above
    the diagonal are integrated, and the rest mirrored.
    """
    x, dx, h, a = grid.points, grid.spacing, p.h, p.a
    us, qs, step = _trial_nodes(sym, p, grid, support_radius)
    a0 = a / 4.0 + 1.0 / (4.0 * h * h * a)
    row, col = np.triu_indices(x.size)
    upper = np.zeros(row.size, dtype=complex)
    for u in us.tolist():
        edge = math.isclose(abs(u), support_radius, rel_tol=1e-12)
        weight = (0.5 if edge else 1.0) * step * step / (2.0 * math.pi * h)
        for q in qs.tolist():
            c0 = (
                float(sym.F(q))
                + float(sym.d2F(q)) / (4.0 * p.b)
                + float(sym.V(u))
                + float(sym.d2V(u)) / (4.0 * p.b)
            )
            grad_q, grad_u = float(sym.dF(q)), float(sym.dV(u))
            r = math.hypot(grad_u, grad_q)
            if r == 0.0:  # hhat = c0: all of the line or nothing
                if c0 >= 0.0:
                    continue
                c, s, lam0 = 1.0, 0.0, math.inf
            else:
                c, s = grad_u / r, grad_q / r
                lam0 = (grad_u * u + grad_q * q - c0) / r
            alpha = a0 * s + 1j * c / (2.0 * h)
            two_a = a0 / (2.0 * h * h * abs(alpha) ** 2)
            beta = x * (1.0 / (2.0 * h * h * a) - a / 2.0) + a * u - 1j * q / h
            p_x = (
                s * beta * beta / (4.0 * alpha)
                - a * (x - 2.0 * u) ** 2 / 4.0
                - x * x / (4.0 * h * h * a)
                + 1j * q * x / h
            )
            l_x = 1j * beta / (2.0 * h * alpha)
            pp = p_x[row] + p_x.conj()[col]
            d = l_x[row] + l_x.conj()[col]
            # int_{-inf}^{lam0} exp(-two_a l^2 + d l) dl
            #   = sqrt(pi/two_a)/2 exp(d^2/(4 two_a)) erfc(z),
            # z = sqrt(two_a) (d/(2 two_a) - lam0)
            whole = pp + d * d / (4.0 * two_a)
            if lam0 == math.inf:
                cut = 2.0 * np.exp(whole)
            else:
                z = math.sqrt(two_a) * (d / (2.0 * two_a) - lam0)
                at_cut = pp + d * lam0 - two_a * lam0 * lam0
                # erfc(z) = exp(-z^2) w(iz), and 2 - erfc(-z) where Re z < 0
                cut = np.where(
                    z.real >= 0.0,
                    np.exp(at_cut) * wofz(1j * z),
                    2.0 * np.exp(whole) - np.exp(at_cut) * wofz(-1j * z),
                )
            scale = dx / (2.0 * math.pi * h * h * abs(alpha))
            upper += weight * scale * 0.5 * math.sqrt(math.pi / two_a) * cut
    gamma = np.zeros((x.size, x.size), dtype=complex)
    gamma[col, row] = upper.conj()
    gamma[row, col] = upper
    np.fill_diagonal(gamma, gamma.diagonal().real)
    return gamma


class TestAgainstPerNodeLoops:
    """The u-first sums and the closed-form u integral agree with one dense
    product per node of a u trapezoid at _u_step, and the trial density
    with the exact cut integral of every node of _trial_nodes.

    n = 121 is the odd grid the h = 0.4 rule gives on [-4, 4]; n = 122 is
    even, so the lattice has an unpaired Nyquist momentum.
    """

    p = CoherentParams(h=0.4, a=0.4**-0.8)

    @staticmethod
    def assert_hermite_factor_matches_kernel(p, grid, us):
        # truncation is relative to the O(1) scale of A_u, so the tolerance is
        # an on-grid node's largest entry, not a far node's own maximum
        x, dx = grid.points, grid.spacing
        scale = np.max(np.abs(kernel_factor(p, x, dx, float(x[grid.size // 2]))))
        g = _hermite_factor(p, grid, np.asarray(us, dtype=float))
        assert g.shape == (grid.size, len(us), _factor_rank(p))
        for j, u in enumerate(us):
            a_ref = kernel_factor(p, x, dx, float(u))
            assert np.max(np.abs(g[:, j] @ g[:, j].T - a_ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [121, 122])
    @pytest.mark.parametrize(
        "ha, rank",
        [
            (0.1, 208),
            (0.55, 34),
            (0.83, 18),
            (0.998, 7),
            (0.4 * np.nextafter(2.5, 0.0), 2),  # the largest a below 1/h
        ],
        ids=["ha=0.1", "ha=0.55", "ha=0.83", "ha=0.998", "a-below-1/h"],
    )
    def test_hermite_factor(self, n, ha, rank):
        # u on a grid point, between points, and past the grid's end
        p = CoherentParams(h=0.4, a=ha / 0.4)
        assert _factor_rank(p) == rank
        grid = Grid1D.uniform(-4.0, 4.0, n)
        us = [grid.points[37], 0.37, -5.3]
        self.assert_hermite_factor_matches_kernel(p, grid, us)

    def test_hermite_factor_at_the_rank_one_limit(self):
        # no admissible a makes h a round to 1.0 (a < 1/h keeps h a below it),
        # so the limit rho = 0 is taken with h a = 1 exactly: the kernel is
        # then rank one, and the rank rule takes no log(0)
        p = types.SimpleNamespace(h=0.4, a=2.5)
        assert _factor_rank(p) == 1
        grid = Grid1D.uniform(-4.0, 4.0, 121)
        self.assert_hermite_factor_matches_kernel(p, grid, [0.37, -5.3])

    def test_hermite_factor_where_the_ground_state_underflows(self):
        # at h a = 0.01 (K = 2080), u = -12 puts (x - u)/sqrt(h) up to 50.6 on
        # the grid, where exp(-xi^2/2) underflows but A_u keeps entries of
        # 1e-7 relative: the lifted start keeps them.  At u = -16, xi reaches
        # 63, and the lifted values would overflow if the lift stayed put.
        p = CoherentParams(h=0.1, a=0.1)
        grid = Grid1D.uniform(-4.0, 4.0, 41)
        assert _factor_rank(p) == 2080
        self.assert_hermite_factor_matches_kernel(p, grid, [-16.0, -12.0, -9.0, 0.1])

    @pytest.mark.parametrize("n", [121, 122])
    def test_u_integrated_square(self, n):
        # off-centre grid, so the u-integrand centres are not symmetric about 0
        grid = Grid1D.uniform(-3.0, 5.0, n)
        us, du = trapezoid_u_nodes(self.p, grid)
        ref = np.zeros((n, n))
        for u in us:
            a_mat = kernel_factor(self.p, grid.points, grid.spacing, float(u))
            ref += du * (a_mat @ a_mat)
        exact = _u_integrated_square(self.p, grid)
        assert np.max(np.abs(exact - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [121, 122])
    def test_resolution_of_identity(self, n):
        grid = Grid1D.uniform(-4.0, 4.0, n)
        psi = np.exp(-((grid.points - 0.5) ** 2) / 1.5)
        fast = resolution_of_identity_check(self.p, psi, grid)
        slow = per_node_resolution(self.p, psi, grid)
        assert abs(fast - slow) < 1e-14

    @pytest.mark.parametrize("n", [121, 122])
    @pytest.mark.parametrize("symbol", [harmonic_symbol, sin_symbol])
    @pytest.mark.parametrize("kappa", [0.8, 0.5])
    def test_weight_one_diagonal(self, n, symbol, kappa):
        # the Hankel sums against sum_u du diag(A_u c_u A_u), one dense A_u
        # per node, on the core rows.  Both add the same n x u-node products
        # in another order, so they differ by roundoff of the largest terms:
        # 1e-14 of the largest entry is about 45 units in its last place,
        # where a wrong node, weight or row offset moves entries by O(1).
        p = CoherentParams(h=0.4, a=0.4**-kappa)
        grid = Grid1D.uniform(-4.0, 4.0, n)
        x, dx, sym = grid.points, grid.spacing, symbol()
        us, du = trapezoid_u_nodes(p, grid)
        v_half = _symbol_half(sym.V, sym.d2V, us, p.b)
        v_slope = np.asarray(sym.dV(us), dtype=float)
        ref = np.zeros(n)
        for u, half, slope in zip(us, v_half, v_slope):
            a_mat = kernel_factor(p, x, dx, float(u))
            ref += du * np.einsum("xy,y,yx->x", a_mat, half + slope * (x - u), a_mat)
        margin = _core_window(p, n, dx)[0]
        core = ref[margin : n - margin]
        fast = du * _weight_one_diagonal(sym, p, grid, us, margin)
        assert np.max(np.abs(fast - core)) <= 1e-14 * np.max(np.abs(core))

    @pytest.mark.parametrize("n", [121, 122])
    @pytest.mark.parametrize("symbol", [harmonic_symbol, sin_symbol])
    def test_representation_error(self, n, symbol):
        grid = Grid1D.uniform(-4.0, 4.0, n)
        # factor rank K = 18, 28 and, past the point count n, 173
        for a in (0.4**-0.8, 0.4**-0.5, 0.3):
            p = CoherentParams(h=0.4, a=a)
            fast = representation_error_norm(symbol(), p, grid)
            slow = per_node_representation(symbol(), p, grid)
            assert fast == pytest.approx(slow, rel=1e-11)

    @pytest.mark.parametrize(
        "sym, bounds, n, paired, mirrored",
        [
            (harmonic_symbol(-1.0), (-4.0, 4.0), 61, True, True),
            (shifted_symbol(), (-4.0, 4.0), 61, False, True),
            (harmonic_symbol(-1.0), (-4.0, 4.0), 62, True, True),
            (u_shifted_symbol(), (-4.0, 4.0), 61, True, False),
            (harmonic_symbol(-1.0), (-4.0, 4.5), 61, True, False),
        ],
        ids=[
            "harmonic-odd",
            "shifted-odd",
            "harmonic-even",
            "u-shifted-odd",
            "harmonic-off-centre",
        ],
    )
    def test_trial_density(self, mapped_rows, sym, bounds, n, paired, mirrored):
        # support radius three node steps, so the two outer rows sit on the
        # edge at weight 1/2; time-reversed nodes pair only for a symbol even
        # in q, and rows mirror u -> -u only for a symbol even in u on a grid
        # symmetric about 0, odd or even
        radius = 3.0 * 2.0 * _phase_rule(self.p)
        grid = Grid1D.uniform(*bounds, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # Nyquist below the shifted q range
            fast = trial_density_matrix(sym, self.p, grid, support_radius=radius)
            slow = per_node_trial_density(sym, self.p, grid, radius)
            us, _, _ = _trial_nodes(sym, self.p, grid, radius)
        rows = np.flatnonzero(us >= 0.0) if mirrored else np.arange(us.size)
        assert mapped_rows == [rows.tolist()]
        assert fast.matrix.dtype == (np.float64 if paired else np.complex128)
        assert np.max(np.abs(fast.matrix - slow)) <= 1e-13 * np.max(np.abs(slow))


def node_by_quadrature(p, x, dx, u, q, c0, v1, f1):
    """dx G chi(hhat < 0) G for hhat = c0 + v1 (x - u) + f1 (p - q), with G
    the kernel new_kernel_G and the y integrals done by quadrature.

    F' = 0 cuts in position: the kernel is int G(x, y) G(y, z) dy over the
    y with c0 + v1 (y - u) < 0.  Otherwise chi projects onto lambda < lam0 =
    (v1 u + f1 q - c0)/r of c x + s p, (c, s) = (v1, f1)/r, with the chirped
    eigenfunctions (2 pi h |s|)^(-1/2) exp(i(lambda y - c y^2/2)/(h s)); G
    acts on each by a y trapezoid and lambda runs over Gauss-Legendre
    points on twelve widths 1/sqrt(2b) either side of c u + s q.
    """
    h = p.h
    kernel = lambda y: new_kernel_G(p, PhasePoint(u, q), x[:, None], y[None, :])
    if f1 == 0.0:
        lo, hi = u - 6.0, u + 6.0
        if v1 > 0.0:
            hi = min(hi, u - c0 / v1)
        elif v1 < 0.0:
            lo = max(lo, u - c0 / v1)
        elif c0 >= 0.0:
            hi = lo
        if hi <= lo:
            return np.zeros((x.size, x.size))
        t, w = np.polynomial.legendre.leggauss(400)
        y = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
        g = kernel(y) * np.sqrt(0.5 * (hi - lo) * w)
        return dx * (g @ g.conj().T)
    r = math.hypot(v1, f1)
    c, s = v1 / r, f1 / r
    lam0, mu, width = (v1 * u + f1 * q - c0) / r, c * u + s * q, 12.0 / math.sqrt(2.0 * p.b)
    lo, hi = mu - width, min(lam0, mu + width)
    if hi <= lo:
        return np.zeros((x.size, x.size))
    t, w = np.polynomial.legendre.leggauss(96)
    lams, w = 0.5 * (hi - lo) * t + 0.5 * (hi + lo), 0.5 * (hi - lo) * w
    y = np.linspace(u - 8.0, u + 8.0, 2401)
    k_mat = kernel(y) * (y[1] - y[0])
    eig = (2.0 * math.pi * h * abs(s)) ** -0.5 * np.exp(
        1j * (lams[None, :] * y[:, None] - 0.5 * c * y[:, None] ** 2) / (h * s)
    )
    g = (k_mat @ eig) * np.sqrt(w)
    return dx * (g @ g.conj().T)


# the six kinds of node: (c0, V', F') and the columns each keeps at
# TestNodeColumns.p, the rule of m_k points on [-W, min(cut, W)]
NODE_KINDS = [
    (0.1, 0.8, 1.4, 24),
    (0.1, 0.8, 0.0, 24),
    (0.1, -0.8, 0.0, 24),
    (-0.3, 0.0, 1.4, 26),
    (-0.2, 0.0, 0.0, 48),
    (0.2, 0.0, 0.0, 0),
]
NODE_KIND_IDS = [
    "general",
    "position-cut-V'>0",
    "position-cut-V'<0",
    "momentum-cut",
    "everything-below-zero",
    "nothing-below-zero",
]


def node_blocks(p, grid, u, q, c0, v1, f1, weight):
    """The blocks _node_columns yields for the nodes (u, q) of _column_rules."""
    return list(_node_columns(grid, u, *_column_rules(p, grid, q, c0, v1, f1, weight)))


def node_columns(p, grid, u, q, c0, v1, f1, weight):
    """The blocks _node_columns yields for the nodes (u, q), side by side."""
    blocks = node_blocks(p, grid, u, q, c0, v1, f1, weight)
    return np.concatenate([np.zeros((grid.size, 0), dtype=complex)] + blocks, axis=1)


def one_node(p, grid, u, q, c0, v1, f1, weight=1.0):
    return node_columns(p, grid, u, [q], [c0], v1, [f1], [weight])


class TestNodeColumns:
    """The closed-form columns of the nodes of a row: one node against the
    kernel applied to the eigenfunctions of hhat by direct quadrature, for
    every kind of cut, and a row against its nodes one at a time."""

    p = CoherentParams(h=0.3, a=0.3**-0.8)
    grid = Grid1D.uniform(-2.6, 3.4, 49)

    @pytest.mark.parametrize("c0, v1, f1, columns", NODE_KINDS, ids=NODE_KIND_IDS)
    def test_against_quadrature(self, c0, v1, f1, columns):
        u, q = 0.4, 0.7
        g = one_node(self.p, self.grid, u, q, c0, v1, f1)
        assert g.shape == (self.grid.size, columns)
        ref = node_by_quadrature(
            self.p, self.grid.points, self.grid.spacing, u, q, c0, v1, f1
        )
        scale = np.max(np.abs(ref)) if columns else 1.0
        assert np.max(np.abs(g @ g.conj().T - ref)) <= 1e-6 * scale

    def test_continuous_as_the_momentum_slope_vanishes(self):
        # F' = 1e-9 reads the position cut of F' = 0; chirps at frequency
        # 1/(h F') put no quadrature of e_lambda within reach
        u, q, c0, v1 = 0.4, 0.7, 0.1, 0.8
        g = one_node(self.p, self.grid, u, q, c0, v1, 1e-9)
        ref = node_by_quadrature(
            self.p, self.grid.points, self.grid.spacing, u, q, c0, v1, 0.0
        )
        assert np.max(np.abs(g @ g.conj().T - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_blocks_agree_with_their_nodes_one_at_a_time(self):
        # the six kinds three times over, at different q and weights, so the
        # live nodes span several blocks; V' varies per node here, where a
        # row of the trial density shares one
        c0, v1, f1, columns = (np.tile(col, 3) for col in zip(*NODE_KINDS))
        q = np.linspace(-0.9, 1.3, c0.size)
        weight = np.tile([1.0, 2.0, 0.5], 6)
        u = 0.4
        blocks = node_blocks(self.p, self.grid, u, q, c0, v1, f1, weight)
        # cut by columns, as many per block as the entry budget holds
        per_block = coherent._BLOCK_ENTRIES // self.grid.size
        total = int(np.sum(columns))
        sizes = [min(per_block, total - lo) for lo in range(0, total, per_block)]
        assert len(sizes) > 1
        assert [b.shape[1] for b in blocks] == sizes
        # a block cut falls inside a node, whose columns then straddle it
        assert not set(np.cumsum(sizes[:-1])) <= set(np.cumsum(columns))
        together = np.concatenate(blocks, axis=1)
        at = 0
        for k in range(q.size):
            single = one_node(
                self.p, self.grid, u, q[k], c0[k], v1[k], f1[k], weight[k]
            )
            assert single.shape[1] == columns[k]
            if not columns[k]:
                continue  # dropped: it has no columns among the blocks'
            ref = single @ single.conj().T
            g = together[:, at : at + columns[k]]
            at += columns[k]
            assert np.max(np.abs(g @ g.conj().T - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert at == together.shape[1]

    @pytest.mark.parametrize("h", [0.3, 0.2])
    def test_nodes_all_above_their_cuts_yield_no_block(self, h):
        p = CoherentParams(h=h, a=h**-0.8)
        grid = acceptance_grid(p)
        # cut -c0/r far below the t-window [-W, W], just below it, and
        # F' = V' = 0 with c0 >= 0
        width = coherent._T_WIDTHS / math.sqrt(2.0 * p.b)
        q = np.array([0.7, -0.1, 0.3, 0.0, 0.2])
        c0 = np.array([50.0, 80.0, 1.001 * width * math.hypot(0.6, 0.8), 0.2, 0.0])
        v1 = np.array([0.8, 0.5, 0.6, 0.0, 0.0])
        f1 = np.array([1.4, -0.3, 0.8, 0.0, 0.0])
        assert node_blocks(p, grid, 0.4, q, c0, v1, f1, np.ones(5)) == []

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 85])
    def test_linear_phase_against_one_exponential_per_entry(self, n):
        # frequencies up to 16 on xi in [-7.3, 0.3], so |w xi| reaches
        # 117 rad, as on the trial-density workload's h = 0.5 rows
        x0, dx = -7.3, 7.6 / (n - 1)
        w = np.array([16.0, -15.3, 3.0, 0.0, -0.7, 9.9])
        step = math.isqrt(n - 1) + 1
        start, base, jump = np.exp(1j * np.multiply.outer((x0, dx, step * dx), w))
        table = _linear_phase(start, base, jump, step, n)
        assert table.shape == (n, w.size) and table.flags.c_contiguous
        arg = np.multiply.outer(x0 + dx * np.arange(n), w)
        # the rounding of each argument moves the phase by eps |w xi| or
        # so, and the start, its powers and the reference share that scale
        tolerance = 4.0 * np.finfo(float).eps * np.max(np.abs(arg))
        assert np.max(np.abs(table - np.exp(1j * arg))) <= tolerance

    def test_three_complex_exponentials_per_column(self, monkeypatch):
        # a row of the trial-density workload at h = 0.5: three complex
        # exponentials per column and one per grid point per node of each
        # block; the count repeats exactly, as a timing would not
        p = CoherentParams(h=0.5, a=0.5**-0.8)
        grid = acceptance_grid(p)
        sym = harmonic_symbol(-1.0)
        us, q, _ = _trial_nodes(sym, p, grid, 1.5)
        u = us[us.size // 2 + 1]
        c0 = _symbol_half(sym.F, sym.d2F, q, p.b) + _symbol_half(sym.V, sym.d2V, u, p.b)
        counted = []
        exp = np.exp

        def counting(x, *args, **kwargs):
            if np.iscomplexobj(x):
                counted.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)
        blocks = node_blocks(p, grid, u, q, c0, sym.dV(u), sym.dF(q), np.ones(q.size))
        monkeypatch.undo()
        columns = sum(g.shape[1] for g in blocks)
        assert len(blocks) > 1
        assert 0 < sum(counted) <= 3 * columns + grid.size * (q.size + len(blocks))


def rule_size(p, cut):
    """m = 2 ceil(24 (top + W)/(2W)) columns for top = min(cut, W), W =
    _T_WIDTHS/sqrt(2b), with 24 half the whole window's points; 0 when the
    cut lies at or below -W."""
    width = coherent._T_WIDTHS / math.sqrt(2.0 * p.b)
    top = min(cut, width)
    if top <= -width:
        return 0
    return 2 * math.ceil(_T_POINTS // 2 * (top + width) / (2.0 * width))


@pytest.fixture
def doubled_t_density(monkeypatch):
    """The node rules at twice the density: a whole window of 96 points."""
    monkeypatch.setattr(coherent, "_T_POINTS", 96)
    coherent._t_rules.cache_clear()
    yield
    monkeypatch.undo()
    coherent._t_rules.cache_clear()


class TestNodeRule:
    """Each node's t rule is sized to its own window [-W, min(cut, W)]: the
    density of the whole window's rule, rounded up to an even count."""

    p = CoherentParams(h=0.3, a=0.3**-0.8)
    grid = Grid1D.uniform(-2.6, 3.4, 49)
    width = coherent._T_WIDTHS / math.sqrt(2.0 * p.b)
    # cut just above -W, at -W/2, 0, W/2, at W and above it, with the
    # columns each keeps
    CUTS = [
        (-(1.0 - 1e-9) * width, 2),
        (-0.5 * width, 12),
        (0.0, 24),
        (0.5 * width, 36),
        (width, 48),
        (1.7 * width, 48),
    ]
    CUT_IDS = ["above-minus-W", "minus-half-W", "zero", "half-W", "W", "above-W"]
    # (V', F'), each with r = hypot(V', F') = 1 to roundoff; c0 = -cut r
    SLOPES = [(0.0, 1.0), (1.0, 0.0), (0.6, 0.8)]
    SLOPE_IDS = ["momentum-cut", "position-cut", "general"]

    @pytest.mark.parametrize("v1, f1", SLOPES, ids=SLOPE_IDS)
    @pytest.mark.parametrize("cut, columns", CUTS, ids=CUT_IDS)
    def test_columns_follow_the_cut(self, v1, f1, cut, columns):
        r = math.hypot(v1, f1)
        c0 = -cut * r
        g = one_node(self.p, self.grid, 0.4, 0.7, c0, v1, f1)
        assert g.shape[1] == rule_size(self.p, -c0 / r)
        assert g.shape[1] == columns

    @pytest.mark.parametrize("v1, f1", SLOPES, ids=SLOPE_IDS)
    @pytest.mark.parametrize("cut, columns", CUTS, ids=CUT_IDS)
    def test_matches_twice_the_density(self, request, v1, f1, cut, columns):
        # to 1e-14 of the node's scale uncut, the mass the rule is sized
        # to: a cut at -W/2 keeps about 3e-6 of that scale, on which the two
        # rules agree only to about 5e-11 of its own size
        r = math.hypot(v1, f1)
        g = one_node(self.p, self.grid, 0.4, 0.7, -cut * r, v1, f1)
        whole = one_node(self.p, self.grid, 0.4, 0.7, -2.0 * self.width * r, v1, f1)
        request.getfixturevalue("doubled_t_density")
        fine = one_node(self.p, self.grid, 0.4, 0.7, -cut * r, v1, f1)
        assert fine.shape[1] in (2 * columns - 2, 2 * columns)
        scale = np.max(np.abs(whole @ whole.conj().T))
        error = np.max(np.abs(g @ g.conj().T - fine @ fine.conj().T))
        assert error <= 1e-14 * scale


@functools.cache
def leggauss_rules():
    """The t rules as numpy.polynomial.legendre.leggauss gives them: its
    rules of 2, 4, ..., 48 points, end to end."""
    rules = [np.polynomial.legendre.leggauss(m) for m in range(2, 49, 2)]
    return tuple(np.concatenate(part) for part in zip(*rules))


class TestTRules:
    """The Gauss-Legendre t rules of _t_rules, from one Newton solve, at
    _T_POINTS = 48 and at twice the density (doubled_t_density)."""

    @pytest.fixture(params=[48, 96], ids=["48-points", "96-points"])
    def rules(self, request):
        """(m, nodes, weights) of every rule, 2, 4, ..., points."""
        if request.param == 96:
            request.getfixturevalue("doubled_t_density")
        assert coherent._T_POINTS == request.param
        nodes, weights = coherent._t_rules()
        assert nodes.size == weights.size == request.param * (request.param + 2) // 4
        return [
            (m, nodes[m * (m - 2) // 4 : m * (m + 2) // 4],
             weights[m * (m - 2) // 4 : m * (m + 2) // 4])
            for m in range(2, request.param + 1, 2)
        ]

    def test_each_rule_is_ascending_and_mirrored(self, rules):
        for m, x, w in rules:
            assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            assert np.all(w > 0.0)

    def test_even_moments_to_roundoff(self, rules):
        # exact for x^k, k <= 2m - 1; odd k vanish by the mirroring.  The
        # rules numpy's leggauss gives miss this by 7.2e-15 at 48 points and
        # 1.8e-14 at 96 (the Newton rules: 8.9e-16 and 1.1e-15)
        for m, x, w in rules:
            for k in range(0, 2 * m - 1, 2):
                assert abs(np.sum(w * x**k) - 2.0 / (k + 1)) <= 2e-15, (m, k)

    def test_nodes_match_scipy(self, rules):
        for m, x, _ in rules:
            assert np.max(np.abs(x - roots_legendre(m)[0])) <= 4.5e-16, m

    @pytest.mark.parametrize("h", [0.6, 0.5])
    def test_trial_density_against_leggauss_rules(self, monkeypatch, h):
        # the benchmark's two cases: gamma and C(h) = (Tr(H gamma) - W)
        # h^(-1/5), W = -1/(4h) for q^2 + u^2 - 1, move at roundoff (2e-15
        # measured) when the rules change
        p = CoherentParams(h=h, a=h**-0.8)
        grid = acceptance_grid(p)
        sym = harmonic_symbol(offset=-1.0)
        H = schrodinger_operator(sym, grid, h)

        def bound():
            gamma = trial_density_matrix(sym, p, grid, support_radius=1.5).matrix
            energy = float(np.real(np.sum(H.matrix * gamma.T)))
            return gamma, (energy + 0.25 / h) * h**-0.2

        gamma, constant = bound()
        monkeypatch.setattr(coherent, "_t_rules", leggauss_rules)
        old_gamma, old_constant = bound()
        assert np.max(np.abs(gamma - old_gamma)) <= 1e-12 * np.max(np.abs(old_gamma))
        assert constant == pytest.approx(old_constant, rel=1e-12)


def old_u_step(p):
    """The u step the representation check used before _u_step:
    min(h, 1/sqrt(a))/6."""
    return min(p.h, 1.0 / math.sqrt(p.a)) / 6.0


class TestUStep:
    """The representation check's u sums at the Gaussian aliasing step.

    Its u-integrands are Gaussians of variance 1/(4a) times the symbol's
    smooth u-dependence, on which the trapezoid rule aliases by at most
    2 exp(-pi^2/(2a du^2)).  The old step min(h, 1/sqrt(a))/6 put that below
    e^-177; the new one puts it at the roundoff floor, so the measured
    figures may move only at roundoff scale.
    """

    @pytest.mark.parametrize("h", [0.6, 0.4, 0.25, 0.2, 0.1, 0.05])
    @pytest.mark.parametrize("rule", [-0.8, -0.6])
    def test_aliasing_bound_at_roundoff(self, h, rule):
        p = CoherentParams(h=h, a=h**rule)
        du = _u_step(p)
        assert 2.0 * math.exp(-math.pi**2 / (2.0 * p.a * du * du)) <= 2e-16
        # the step only ever coarsens the old rule's nodes
        assert du > old_u_step(p)

    @pytest.mark.parametrize("h", [0.4, 0.25, 0.2])
    @pytest.mark.parametrize("symbol", [harmonic_symbol, sin_symbol])
    def test_representation_converged_against_old_step(self, monkeypatch, h, symbol):
        p = CoherentParams(h=h, a=h**-0.8)
        grid = working_grid(p, 4.0)
        new = representation_error_norm(symbol(), p, grid)
        monkeypatch.setattr(coherent, "_u_step", old_u_step)
        old = representation_error_norm(symbol(), p, grid)
        assert new == pytest.approx(old, rel=1e-10)

    @pytest.mark.parametrize("h", [0.6, 0.5, 0.2, 0.1])
    def test_trial_density_keeps_its_node_step(self, h):
        # criterion 8's grid rule; the trial density's integrand is cut off
        # at |u| = R, not a Gaussian u-dependence, so its step stays
        p = CoherentParams(h=h, a=h**-0.8)
        grid = acceptance_grid(p)
        us, qs, step = _trial_nodes(harmonic_symbol(offset=-1.0), p, grid, 1.5)
        assert step == min(h, 1.0 / math.sqrt(p.a)) / 3.0
        assert us[1] - us[0] == pytest.approx(step, rel=1e-12)
        assert qs[1] - qs[0] == pytest.approx(step, rel=1e-12)
