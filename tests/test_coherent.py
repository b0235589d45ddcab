"""Smeared coherent states: weights, kernels, representation, trial density."""

import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottlab.coherent import (
    ClassicalSymbol,
    CoherentParams,
    PhasePoint,
    constant_symbol,
    fourier_multiplier_matrix,
    gaussian_moment_cancellation,
    harmonic_symbol,
    momentum_lattice,
    new_kernel_G,
    operator_symbol,
    representation_error_norm,
    resolution_of_identity_check,
    schrodinger_operator,
    trial_density_matrix,
    weight_w,
)
from scottlab import numerics
from scottlab.coherent import _gaussian_factor, _phase_rule, _trial_nodes
from scottlab.numerics import Grid1D, GridOperator


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


def working_grid(p, half_width):
    dx = min(p.h, 1.0 / math.sqrt(p.b)) / 6.0
    n = int(round(2.0 * half_width / dx)) + 1
    return Grid1D.uniform(-half_width, half_width, n)


class TestParams:
    def test_b_reference_value(self):
        # b = 2a/(1 + (ha)^2) is exactly 8 at h = 0.1, a = 5
        assert CoherentParams(h=0.1, a=5.0).b == 8.0

    def test_default_a_rule(self):
        p = CoherentParams(h=0.1)
        assert p.a == pytest.approx(0.1 ** (-0.8))

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
            CoherentParams(h=0.0)
        with pytest.raises(ValueError, match="a < 1/h"):
            CoherentParams(h=0.5, a=2.0)
        with pytest.raises(ValueError, match="a < 1/h"):
            CoherentParams(h=0.5, a=-1.0)
        with pytest.raises(ValueError, match="dimension"):
            CoherentParams(h=0.1, a=1.0, n=0)

    def test_phase_point_must_be_finite(self):
        with pytest.raises(ValueError):
            PhasePoint(u=math.nan, q=0.0)
        with pytest.raises(ValueError):
            PhasePoint(u=0.0, q=math.inf)


class TestSymbols:
    def test_harmonic(self):
        sym = harmonic_symbol(offset=-1.0)
        assert sym.sigma(0.5, 2.0) == pytest.approx(0.25 + 4.0 - 1.0)
        assert sym.laplacian(0.3, 0.7) == pytest.approx(4.0)

    def test_constant(self):
        sym = constant_symbol(0.7)
        assert sym.sigma(1.0, -2.0) == pytest.approx(0.7)
        assert sym.laplacian(1.0, -2.0) == 0.0

    def test_operator_symbol_counterterm(self):
        p = CoherentParams(h=0.1, a=5.0)  # b = 8
        sym = harmonic_symbol()
        os = operator_symbol(sym, p, PhasePoint(u=0.5, q=-1.0))
        assert os.c0 == pytest.approx(0.25 + 1.0 + 4.0 / 32.0)
        assert os.grad_u == pytest.approx(1.0)
        assert os.grad_q == pytest.approx(-2.0)
        assert os.point == PhasePoint(u=0.5, q=-1.0)


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
                mat = fourier_multiplier_matrix(values, grid.size)
                wave = np.exp(1j * (q[5] / h) * grid.points)
                np.testing.assert_allclose(mat @ wave, values[5] * wave, atol=1e-10)
                # the same multiplier as the FFT of the identity
                by_fft = np.fft.ifft(
                    values[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0
                )
                assert np.max(np.abs(mat - by_fft)) <= 1e-14 * np.max(np.abs(by_fft))

    def test_schrodinger_harmonic_levels(self):
        grid = Grid1D.uniform(-6.0, 6.0, 256)
        H = schrodinger_operator(harmonic_symbol(), grid, h=0.1)
        levels = H.eigenvalues()[:8]
        expect = 2.0 * 0.1 * (np.arange(8) + 0.5)
        np.testing.assert_allclose(levels, expect, atol=1e-8)

    def test_negative_sum_and_trace(self):
        grid = Grid1D.uniform(0.0, 1.0, 8)
        op = GridOperator(
            matrix=np.diag([-1.0, 2.0, -0.25, 0.0, 1.0, 1.0, 1.0, 1.0]),
            grid=grid,
            h=1.0,
        )
        assert op.negative_sum() == pytest.approx(-1.25)
        assert op.trace == pytest.approx(4.75)

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

    def test_under_resolved_quadrature_warns(self):
        p = CoherentParams(h=0.4, a=0.4**-0.8)
        grid = working_grid(p, 7.0)
        psi = np.exp(-grid.points**2)
        with pytest.warns(UserWarning, match="under-resolved"):
            dev = resolution_of_identity_check(p, psi, grid, u_count=4, q_count=9)
        assert dev > 1e-3

    def test_coarse_quadrature_recovers_under_refinement(self):
        p = CoherentParams(h=0.4, a=0.4**-0.8)
        grid = working_grid(p, 7.0)
        psi = np.exp(-grid.points**2)
        coarse = resolution_of_identity_check(p, psi, grid, u_count=80, q_count=81)
        fine = resolution_of_identity_check(p, psi, grid, u_count=160, q_count=161)
        assert fine < coarse

    def test_rejects_wrong_shapes(self):
        p = CoherentParams(h=0.4, a=0.4**-0.8)
        grid = working_grid(p, 7.0)
        with pytest.raises(ValueError, match="on the grid"):
            resolution_of_identity_check(p, np.zeros(grid.size + 3), grid)
        with pytest.raises(ValueError, match="one-dimensional"):
            resolution_of_identity_check(
                CoherentParams(h=0.4, a=1.0, n=3), np.zeros(grid.size), grid
            )


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
        sym = harmonic_symbol(offset=-1.0)
        q_half = 1.0 + 10.0 / math.sqrt(p.a)
        sigma_spread = 1.0 / math.sqrt(2.0 * p.a)
        half = 1.5 + 7.0 * sigma_spread + 0.5
        dx = math.pi * p.h / (q_half + 5.0 * sigma_spread)
        n = 2 * int(math.ceil(half / dx)) + 1
        grid = Grid1D.uniform(-half, half, n)
        return p, sym, grid

    def test_gamma_is_a_density_matrix(self):
        p, sym, grid = self.build_small()
        gamma = trial_density_matrix(sym, p, grid, support_radius=1.5)
        w = gamma.eigenvalues()
        assert w[0] > -1e-6
        assert w[-1] < 1.0 + 1e-6
        # trace counts the negative phase-space disc, area pi over 2 pi h
        assert gamma.trace == pytest.approx(math.pi / (2.0 * math.pi * p.h), rel=0.1)

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
        assert gamma.trace == pytest.approx(1.0 / (2.0 * p.h), rel=0.1)

    def test_even_symbol_keeps_symmetric_q_nodes(self):
        p, sym, grid = self.build_small()
        _, qs, step = _trial_nodes(sym, p, grid, 1.5)
        # the symmetric span: largest scanned |q| with sigma < 0, plus margin
        q_mags = np.linspace(0.0, 20.0, 2001)
        q_scan = np.concatenate((-q_mags[::-1], q_mags))
        shell = max(
            np.abs(q_scan[sym.sigma(u, q_scan) < 0.0]).max(initial=0.0)
            for u in np.linspace(-1.5, 1.5, 41)
        )
        q_half = shell + 10.0 / math.sqrt(p.a)
        assert np.array_equal(qs, np.arange(-q_half, q_half + step, step))

    def test_q_nodes_follow_a_shifted_shell(self):
        p, _, grid = self.build_small()
        sym = shifted_symbol()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # grid Nyquist is below q = -9
            _, qs, step = _trial_nodes(sym, p, grid, 1.5)
        margin = 10.0 / math.sqrt(p.a)
        assert qs.min() >= -9.0 - margin - step
        assert qs.max() <= -7.0 + margin + step

    def test_gamma_same_for_any_worker_count(self, monkeypatch):
        p, sym, grid = self.build_small()
        gammas = []
        for cpus in (1, 2):
            monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
            gammas.append(trial_density_matrix(sym, p, grid, support_radius=0.5))
        assert np.array_equal(gammas[0].matrix, gammas[1].matrix)

    def test_gamma_same_without_the_blas_pin(self, monkeypatch):
        p, sym, grid = self.build_small()
        pinned = trial_density_matrix(sym, p, grid, support_radius=0.5)
        monkeypatch.setattr(numerics, "_openblas_thread_calls", lambda: None)
        serial = trial_density_matrix(sym, p, grid, support_radius=0.5)
        assert np.array_equal(pinned.matrix, serial.matrix)

    def test_blas_threads_restored_after_normal_and_raising_calls(self, monkeypatch):
        calls = numerics._openblas_thread_calls()
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

            def dV(u):
                if u > 0.0:
                    raised_in.append(threading.current_thread())
                    raise RuntimeError("symbol failed in a row")
                return 2.0 * np.asarray(u)

            failing = ClassicalSymbol(
                F=sym.F, dF=sym.dF, d2F=sym.d2F, V=sym.V, dV=dV, d2V=sym.d2V
            )
            with pytest.raises(RuntimeError, match="failed in a row"):
                trial_density_matrix(failing, p, grid, support_radius=0.5)
            assert get_threads() == 2
            assert threading.main_thread() not in raised_in
        finally:
            set_threads(prior)

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
        with pytest.raises(ValueError, match="one-dimensional"):
            trial_density_matrix(
                sym, CoherentParams(h=0.4, a=1.0, n=2), grid, support_radius=1.5
            )


# Per-node oracles: the identities assembled one phase-space u-node at a
# time, each node a dense product, the way the library first computed them.


def kernel_factor(p, x, dx, u):
    """A_u from the public pointwise kernel: G_{u,0} with the weight dx."""
    return new_kernel_G(p, PhasePoint(u, 0.0), x[:, None], x[None, :]).real * dx


def per_node_resolution(p, psi, grid, u_count=None, q_count=None):
    sigma = 1.0 / math.sqrt(2.0 * p.a)
    step = _phase_rule(p)
    x, dx = grid.points, grid.spacing
    u_lo, u_hi = x[0] - 7.0 * sigma, x[-1] + 7.0 * sigma
    if u_count is None:
        u_count = int(math.ceil((u_hi - u_lo) / step)) + 1
    q_half = math.pi * p.h / dx + 7.0 * sigma
    if q_count is None:
        q_count = 2 * int(math.ceil(q_half / step)) + 1
    us = np.linspace(u_lo, u_hi, u_count)
    du = us[1] - us[0]
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
    sigma = 1.0 / math.sqrt(2.0 * p.a)
    du = _phase_rule(p)
    us = np.arange(x[0] - 7.0 * sigma, x[-1] + 7.0 * sigma + du, du)
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


class TestAgainstPerNodeLoops:
    """The u-first sums agree with one dense product per node.

    n = 121 is the odd grid the h = 0.4 rule gives on [-4, 4]; n = 122 is
    even, so the lattice has an unpaired Nyquist momentum.
    """

    p = CoherentParams(h=0.4, a=0.4**-0.8)

    @pytest.mark.parametrize("n", [121, 122])
    @pytest.mark.parametrize("u", [0.37, -5.3])  # off the half-lattice; off the grid
    def test_gaussian_factor_template(self, n, u):
        grid = Grid1D.uniform(-4.0, 4.0, n)
        _, factor = _gaussian_factor(self.p, grid)
        a_ref = kernel_factor(self.p, grid.points, grid.spacing, u)
        assert np.max(np.abs(factor(u) - a_ref)) <= 1e-14 * np.max(np.abs(a_ref))

    @pytest.mark.parametrize("n", [121, 122])
    @pytest.mark.parametrize("u_count", [None, 4, 80])
    def test_resolution_of_identity(self, n, u_count):
        grid = Grid1D.uniform(-4.0, 4.0, n)
        psi = np.exp(-((grid.points - 0.5) ** 2) / 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # u_count = 4 is under-resolved
            fast = resolution_of_identity_check(self.p, psi, grid, u_count=u_count)
            slow = per_node_resolution(self.p, psi, grid, u_count=u_count)
        assert abs(fast - slow) < 1e-14

    @pytest.mark.parametrize("n", [121, 122])
    @pytest.mark.parametrize("symbol", [harmonic_symbol, sin_symbol])
    def test_representation_error(self, n, symbol):
        grid = Grid1D.uniform(-4.0, 4.0, n)
        fast = representation_error_norm(symbol(), self.p, grid)
        slow = per_node_representation(symbol(), self.p, grid)
        assert fast == pytest.approx(slow, rel=1e-11)
