"""Eigenvalue-sum machinery checked against closed-form spectra."""

import math

import numpy as np
import pytest

from scottlab.coherent import harmonic_symbol, schrodinger_operator
from scottlab.numerics import Grid1D, GridOperator, PartitionPair
from scottlab.spectra import (
    BoxSizeError,
    ChannelCutoffError,
    RadialProblem,
    density_of,
    ims_identity_check,
    lieb_thirring_ratio,
    neg_sum_1d,
    neg_sum_radial,
    sentinel_channel,
)


def square_well(depth, width=1.0):
    return lambda r: np.where(np.asarray(r) <= width, depth, 0.0)


class TestNegSum1D:
    def test_dirichlet_box_levels(self):
        # V = -1 on [0, pi]: levels h^2 k^2 - 1, nine of them negative at h = 0.1
        h = 0.1
        grid = Grid1D.uniform(0.0, math.pi, 513)
        s = neg_sum_1d(lambda x: -np.ones_like(x), h, grid)
        exact = h * h * sum(k * k for k in range(1, 10)) - 9.0
        assert s.value == pytest.approx(exact, abs=1e-6)

    def test_harmonic_well_levels(self):
        # V = x^2 - 1: levels 2h(m + 1/2) - 1, five negative at h = 0.1
        grid = Grid1D.uniform(-8.0, 8.0, 1025)
        s = neg_sum_1d(lambda x: x * x - 1.0, 0.1, grid)
        assert s.value == pytest.approx(-2.5, abs=1e-5)

    def test_value_extrapolates_refinement_pair(self):
        grid = Grid1D.uniform(-8.0, 8.0, 257)
        s = neg_sum_1d(lambda x: x * x - 1.0, 0.1, grid)
        assert s.value == pytest.approx(s.fine + (s.fine - s.coarse) / 3.0)
        assert float(s) == s.value
        assert s.refinement_change == pytest.approx(
            abs(s.fine - s.coarse) / abs(s.value)
        )

    def test_tight_rtol_attaches_warning(self):
        grid = Grid1D.uniform(-8.0, 8.0, 129)
        s = neg_sum_1d(lambda x: x * x - 1.0, 0.1, grid, rtol=1e-16)
        assert s.warnings and "moved" in s.warnings[0]

    def test_rejects_nonpositive_h(self):
        grid = Grid1D.uniform(-1.0, 1.0, 33)
        with pytest.raises(ValueError):
            neg_sum_1d(lambda x: -np.ones_like(x), 0.0, grid)


class TestRadialProblem:
    def test_grid_must_start_one_spacing_in(self):
        grid = Grid1D.uniform(1.0, 10.0, 19)  # spacing 0.5, first point 1.0
        with pytest.raises(ValueError, match="one spacing"):
            RadialProblem(potential=square_well(1.0), h=4.1, grid=grid)

    def test_spacing_capped_at_eighth_of_h(self):
        with pytest.raises(ValueError, match="h/8"):
            RadialProblem.build(square_well(1.0), h=0.1, r_max=4.0, spacing=0.05)

    def test_channel_list_must_be_contiguous(self):
        with pytest.raises(ValueError, match="without gaps"):
            RadialProblem.build(
                square_well(1.0), h=0.2, r_max=4.0, spacing=0.025, channels=(0, 2)
            )


class TestNegSumRadial:
    def test_isotropic_harmonic_total(self):
        # V = r^2 - 1 in R^3: levels 2h(N + 3/2) - 1 with degeneracy
        # (N+1)(N+2)/2; at h = 0.1 the four negative shells sum to -5
        prob = RadialProblem.build(
            lambda r: 1.0 - r * r, h=0.1, r_max=8.0, spacing=0.0125
        )
        res = neg_sum_radial(prob)
        assert res.total.value == pytest.approx(-5.0, abs=2e-4)

    def test_harmonic_channel_breakdown(self):
        prob = RadialProblem.build(
            lambda r: 1.0 - r * r, h=0.1, r_max=8.0, spacing=0.0125
        )
        res = neg_sum_radial(prob)
        # channel ell holds the levels 2h(2j + ell + 3/2) - 1, stored
        # shallowest first
        np.testing.assert_allclose(
            res.channels[0].negative_eigenvalues, [-0.3, -0.7], atol=5e-4
        )
        np.testing.assert_allclose(
            res.channels[1].negative_eigenvalues, [-0.1, -0.5], atol=5e-4
        )
        assert [c.degeneracy for c in res.channels[:3]] == [1, 3, 5]
        assert res.channels[1].weighted_sum == pytest.approx(-1.8, abs=2e-3)

    def test_shifted_coulomb_matches_bohr_sum(self):
        # -h^2 Lap - 1/r + 1 at h = 0.2: sum_k k^2 (1 - 1/(4 h^2 k^2))
        # over k < 1/(2h), which is -7.5
        prob = RadialProblem.build(
            lambda r: 1.0 / r, h=0.2, r_max=25.0, spacing=0.025
        )
        res = neg_sum_radial(prob, shift=1.0)
        assert res.total.value == pytest.approx(-7.5, rel=0.01)

    def test_short_channel_list_is_rejected(self):
        prob = RadialProblem.build(
            lambda r: 1.0 / r, h=0.2, r_max=25.0, spacing=0.025, channels=(0, 1)
        )
        with pytest.raises(ChannelCutoffError, match="explicit channel list"):
            neg_sum_radial(prob, shift=1.0)

    def test_small_box_trips_boundary_guard(self):
        # shallow square well: the bound state leaks far past r = 4
        prob = RadialProblem.build(
            square_well(0.2), h=0.2, r_max=4.0, spacing=0.025
        )
        with pytest.raises(BoxSizeError, match="enlarge r_max"):
            neg_sum_radial(prob)

    def test_large_box_clears_boundary_guard(self):
        prob = RadialProblem.build(
            square_well(0.2), h=0.2, r_max=40.0, spacing=0.025
        )
        res = neg_sum_radial(prob)
        assert res.total.value < 0.0


class TestSentinel:
    def test_harmonic_sentinel(self):
        # ell(ell+1) h^2 must top r^2 - r^4, whose max is 1/4
        prob = RadialProblem.build(
            lambda r: 1.0 - r * r, h=0.1, r_max=8.0, spacing=0.0125
        )
        assert sentinel_channel(prob) == 5

    def test_shift_lowers_sentinel(self):
        prob = RadialProblem.build(
            lambda r: 1.0 - r * r, h=0.1, r_max=8.0, spacing=0.0125
        )
        assert sentinel_channel(prob, shift=0.2) < 5

    def test_everything_binds_raises(self):
        # constant well 30 on a box of radius 20 dips below zero for every
        # ell the search is willing to try
        prob = RadialProblem.build(
            lambda r: 30.0 + 0.0 * r, h=0.2, r_max=20.0, spacing=0.025
        )
        with pytest.raises(ChannelCutoffError, match="no empty channel"):
            sentinel_channel(prob)


class TestDensityMatrix:
    def make_rank_one(self):
        grid = Grid1D.uniform(-2.0, 2.0, 65)
        v = np.exp(-grid.points**2)
        v /= np.linalg.norm(v)
        return GridOperator(matrix=np.outer(v, v), grid=grid, h=0.1), v

    def test_rank_one_projector_validates(self):
        gamma, _ = self.make_rank_one()
        gamma.validate_density()
        assert gamma.trace == pytest.approx(1.0, abs=1e-12)

    def test_density_pairs_with_multipliers(self):
        # Tr(gamma Theta) must equal the quadrature of rho * theta
        gamma, v = self.make_rank_one()
        theta = gamma.grid.points**2
        lhs = float(v @ (theta * v))
        rho = density_of(gamma)
        rhs = float(np.sum(rho * theta) * gamma.grid.spacing)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_eigenvalue_above_one_rejected(self):
        gamma, v = self.make_rank_one()
        bad = GridOperator(matrix=1.5 * gamma.matrix, grid=gamma.grid, h=gamma.h)
        with pytest.raises(ValueError, match="escapes"):
            bad.validate_density()

    def test_non_hermitian_rejected(self):
        gamma, _ = self.make_rank_one()
        m = gamma.matrix.copy()
        m[0, 1] += 0.5
        # the single grid-operator type refuses it at construction
        with pytest.raises(ValueError, match="Hermitian"):
            GridOperator(matrix=m, grid=gamma.grid, h=gamma.h)

    def test_shape_mismatch_rejected(self):
        grid = Grid1D.uniform(-2.0, 2.0, 65)
        with pytest.raises(ValueError, match="match the grid"):
            GridOperator(matrix=np.eye(8), grid=grid, h=0.1)


class TestIMS:
    def test_localization_identity_collapses(self):
        grid = Grid1D.uniform(-6.0, 6.0, 256)
        H = schrodinger_operator(harmonic_symbol(offset=-1.0), grid, h=0.2)
        res = ims_identity_check(H, PartitionPair(R=2.0))
        assert res < 1e-9

    def test_broken_partition_is_detected(self):
        grid = Grid1D.uniform(-6.0, 6.0, 256)
        H = schrodinger_operator(harmonic_symbol(offset=-1.0), grid, h=0.2)

        class Lopsided:
            def inner(self, d):
                return PartitionPair(R=2.0).inner(d)

            def outer(self, d):
                return 1.1 * PartitionPair(R=2.0).outer(d)

        assert ims_identity_check(H, Lopsided()) > 1.0


class TestLiebThirringRatio:
    def test_positive_potential_gives_zero(self):
        grid = Grid1D.uniform(-4.0, 4.0, 129)
        assert lieb_thirring_ratio(lambda x: 1.0 + x * x, 0.1, grid, n=1) == 0.0

    def test_1d_harmonic_near_semiclassical_constant(self):
        # exact sum -2.5 at h = 0.1 against integral 3 pi / 8: the ratio
        # lands on the 1D classical constant 2/(3 pi)
        grid = Grid1D.uniform(-6.0, 6.0, 513)
        ratio = lieb_thirring_ratio(lambda x: x * x - 1.0, 0.1, grid, n=1)
        assert ratio == pytest.approx(2.0 / (3.0 * math.pi), rel=2e-3)

    def test_3d_truncated_well_near_semiclassical_constant(self):
        n_pts = 320
        grid = Grid1D.uniform(4.0 / n_pts, 4.0, n_pts)
        ratio = lieb_thirring_ratio(
            lambda r: np.minimum(r * r - 1.0, 0.0), 0.1, grid, n=3
        )
        assert ratio == pytest.approx(1.0 / (15.0 * math.pi**2), rel=0.2)

    def test_unsupported_dimension(self):
        grid = Grid1D.uniform(-4.0, 4.0, 129)
        with pytest.raises(ValueError, match="n = 1 and n = 3"):
            lieb_thirring_ratio(lambda x: x * x - 1.0, 0.1, grid, n=2)
