"""Eigenvalue-sum machinery checked against closed-form spectra."""

import math
import sys
import threading
from functools import cache

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, lapack

from scottlab import numerics, spectra
from scottlab.cli import main
from scottlab.coherent import harmonic_symbol, schrodinger_operator
from scottlab.numerics import Bump, Grid1D, GridOperator
from scottlab.spectra import (
    BOUNDARY_MASS_TOL,
    BoxSizeError,
    ChannelCutoffError,
    RadialProblem,
    neg_sum_1d,
    neg_sum_radial,
    sentinel_channel,
)

from reference import PartitionPair, ims_identity_check


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
        assert s.refinement_change == pytest.approx(
            abs(s.fine - s.coarse) / abs(s.value)
        )

    def test_tight_rtol_attaches_warning(self, monkeypatch):
        grid = Grid1D.uniform(-8.0, 8.0, 129)
        monkeypatch.setattr(spectra, "CONVERGENCE_RTOL", 1e-16)
        s = neg_sum_1d(lambda x: x * x - 1.0, 0.1, grid)
        assert s.warnings and "moved" in s.warnings[0]

    def test_rejects_nonpositive_h(self):
        grid = Grid1D.uniform(-1.0, 1.0, 33)
        with pytest.raises(ValueError):
            neg_sum_1d(lambda x: -np.ones_like(x), 0.0, grid)

    def test_non_finite_potential_named_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            pytest.fail("eigensolve started")

        monkeypatch.setattr(spectra, "_negative_solve", no_solve)
        grid = Grid1D.uniform(-1.0, 1.0, 65)
        # the first interior point past 0.5 is 17/32 on the grid
        with pytest.raises(ValueError, match=r"not finite at x = 0\.53125$"):
            neg_sum_1d(lambda x: np.where(x > 0.5, np.nan, -1.0), 0.1, grid)
        # and 33/64 on its halving, where the grid itself is finite
        with pytest.raises(ValueError, match=r"not finite at x = 0\.515625$"):
            neg_sum_1d(
                lambda x: np.where(np.isclose(x, 0.515625), np.inf, -1.0), 0.1, grid
            )


class TestRadialProblem:
    def test_grid_must_start_one_spacing_in(self):
        grid = Grid1D.uniform(1.0, 10.0, 19)  # spacing 0.5, first point 1.0
        with pytest.raises(ValueError, match="one spacing"):
            RadialProblem(potential=square_well(1.0), h=4.1, grid=grid)

    def test_spacing_capped_at_eighth_of_h(self):
        with pytest.raises(ValueError, match="h/8"):
            RadialProblem.build(square_well(1.0), h=0.1, r_max=4.0, spacing=0.05)

    @pytest.mark.parametrize(
        "r_max, h, points",
        [
            (1.625, 0.4, 33),  # 32.5 steps: rounding down gave a step over h/8
            (1.625, 0.2, 65),
            (0.9, 0.12, 60),  # 0.9/0.015 rounds to 60.00000000000001
        ],
    )
    def test_step_never_exceeds_the_spacing_asked_for(self, r_max, h, points):
        prob = RadialProblem.build(square_well(1.0), h=h, r_max=r_max, spacing=h / 8)
        assert prob.grid.size == points
        assert prob.grid.spacing <= h / 8 * (1.0 + 1e-15)
        assert prob.r_max == pytest.approx(r_max, rel=1e-15)

    def test_non_finite_potential_named_where_first_sampled(self):
        def potential(r):
            return np.where(r > 1, np.nan, 1 - r * r)

        prob = RadialProblem.build(potential, h=0.2, r_max=3.0, spacing=0.025)
        # the first coarse radius past 1 is 41 * 0.025
        with pytest.raises(ValueError, match=r"not finite at r = 1\.025$"):
            neg_sum_radial(prob)
        with pytest.raises(ValueError, match=r"not finite at r = 1\."):
            RadialProblem.build(
                potential, h=0.2, r_max=3.0, spacing=0.025, stretch=0.5
            )

    def test_non_finite_potential_named_on_the_halved_grid(self, monkeypatch):
        # NaN only at a point of the halved grid: the level-0 checks pass, and
        # the level-1 sample names the radius before any solve is mapped
        def no_workers(fn, items):
            pytest.fail("channel solves started")

        monkeypatch.setattr(spectra, "_pinned_map", no_workers)
        prob = RadialProblem.build(
            lambda r: np.where(np.isclose(r, 1.0125), np.nan, 1 - r * r),
            h=0.2,
            r_max=3.0,
            spacing=0.025,
        )
        with pytest.raises(ValueError, match=r"not finite at r = 1\.0125$"):
            neg_sum_radial(prob)


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
        assert [c.ell for c in res.channels[:3]] == [0, 1, 2]
        channel = res.channels[1]
        weighted = 3 * float(np.sum(channel.negative_eigenvalues))
        assert weighted == pytest.approx(-1.8, abs=2e-3)

    def test_shifted_coulomb_matches_bohr_sum(self):
        # -h^2 Lap - 1/r + 1 at h = 0.2: sum_k k^2 (1 - 1/(4 h^2 k^2))
        # over k < 1/(2h), which is -7.5
        prob = RadialProblem.build(
            lambda r: 1.0 / r, h=0.2, r_max=25.0, spacing=0.025
        )
        res = neg_sum_radial(prob, shift=1.0)
        assert res.total.value == pytest.approx(-7.5, rel=0.01)

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


def mapped_coulomb(h, scale=1.0, r_max=6.0, stretch=None):
    """-h^2 Lap - 1/r on r = t + t^2/(4h^2), the Scott sweep's map for z = 1."""
    if stretch is None:
        stretch = 1.0 / (4.0 * h * h)
    step = scale * min(h / 8.0, h * h / 5.0)
    return RadialProblem.build(lambda r: 1.0 / r, h, r_max, step, stretch=stretch)


class TestMappedRadialGrid:
    @pytest.mark.parametrize("h, exact", [(0.2, -7.5), (0.1, -70.0)])
    def test_bohr_sum(self, h, exact):
        prob = mapped_coulomb(h)
        assert prob.grid.size < 250
        res = neg_sum_radial(prob, shift=1.0)
        assert res.total.value == pytest.approx(exact, rel=1e-5)
        assert res.boundary_mass < 1e-20

    @pytest.mark.parametrize("h", [0.2, 0.1])
    def test_refinement_change_falls_fourfold_as_the_step_halves(self, h):
        changes = [
            neg_sum_radial(mapped_coulomb(h, scale), shift=1.0).total
            for scale in (1.0, 0.5)
        ]
        ratio = (changes[0].fine - changes[0].coarse) / (
            changes[1].fine - changes[1].coarse
        )
        assert ratio == pytest.approx(4.0, rel=0.03)

    def test_radius_ends_at_r_max_and_tail_is_measured_in_r(self):
        prob = mapped_coulomb(0.1)
        assert prob.r_max == pytest.approx(6.0, rel=1e-12)
        tail = spectra._radial_level(prob, 1, None)[-1]
        r = prob.radius(prob.interior(level=1)[0])
        # the map widens the step outwards, so the outer 5% in r holds about
        # half as many points as the last 5% of them
        assert tail == np.count_nonzero(r >= 0.95 * prob.r_max) < int(0.05 * r.size)

    def test_uniform_grid_tail_is_measured_in_r_too(self):
        # criterion 2's h = 0.2 grid: 75 of its 1499 level-1 radii lie in the
        # outer 5% in r, one more than the last int(0.05 * 1499) = 74 points
        prob = RadialProblem.build(lambda r: 1.0 / r, h=0.2, r_max=6.0, spacing=0.008)
        r, _ = prob.interior(level=1)
        tail = spectra._radial_level(prob, 1, None)[-1]
        assert tail == np.count_nonzero(r >= 0.95 * prob.r_max) == 75

    def test_small_box_trips_boundary_guard(self):
        prob = RadialProblem.build(
            square_well(0.2), h=0.2, r_max=4.0, spacing=0.025, stretch=6.25
        )
        with pytest.raises(BoxSizeError, match="enlarge r_max"):
            neg_sum_radial(prob)

    def test_map_too_coarse_for_the_local_wavelength(self):
        with pytest.raises(ValueError, match="local wavelength"):
            mapped_coulomb(0.1, stretch=100.0 / (4.0 * 0.01))
        with pytest.raises(ValueError, match="local wavelength"):
            # a step of h/8 at the origin, where the Coulomb wavelength is short
            RadialProblem.build(
                lambda r: 1.0 / r, h=0.1, r_max=6.0, spacing=0.0125, stretch=25.0
            )

    @pytest.mark.parametrize("stretch", [-1.0, math.nan, math.inf])
    def test_stretch_must_be_nonnegative_and_finite(self, stretch):
        grid = Grid1D.uniform(0.025, 4.0, 160)
        with pytest.raises(ValueError, match="stretch"):
            RadialProblem(square_well(1.0), h=0.2, grid=grid, stretch=stretch)


def scipy_radial_reference(problem, shift=0.0, bump=None):
    """The radial sum as one serial loop over scipy's tridiagonal solvers:
    (coarse, fine, level-1 eigenvalues per channel, boundary mass)."""
    ells = list(range(sentinel_channel(problem, shift) + 1))
    h2 = problem.h**2
    totals, spectra_fine, num, den = [0.0, 0.0], [], 0.0, 0.0
    for ell in ells[:-1]:
        for level in (0, 1):
            r, step = problem.interior(level=level)
            v = np.asarray(problem.potential(r), dtype=float)
            diag = 2.0 * h2 / step**2 + ell * (ell + 1) * h2 / r**2 - v + shift
            off = np.full(r.size - 1, -h2 / step**2)
            if bump is not None:
                phi = bump(r)
                diag, off = phi**2 * diag, phi[:-1] * off * phi[1:]
            window = (float(min(np.min(diag) - 2.0 * np.max(np.abs(off)), -1.0)), 0.0)
            if level == 0:
                w = eigvalsh_tridiagonal(diag, off, select="v", select_range=window)
                totals[0] += (2 * ell + 1) * float(np.sum(w[w < 0]))
                continue
            w, vec = eigh_tridiagonal(diag, off, select="v", select_range=window)
            w, vec = w[w < 0], vec[:, w < 0]
            totals[1] += (2 * ell + 1) * float(np.sum(w))
            tail = max(2, int(np.count_nonzero(r >= 0.95 * problem.r_max)))
            mass = np.sum(vec[-tail:, :] ** 2, axis=0)
            num += (2 * ell + 1) * float(np.sum(np.abs(w) * mass))
            den += (2 * ell + 1) * float(np.sum(np.abs(w)))
            spectra_fine.append(w)
    return totals[0], totals[1], spectra_fine, num / den if den else 0.0


def harmonic_problem():
    return RadialProblem.build(lambda r: 1.0 - r * r, h=0.1, r_max=8.0, spacing=0.0125)


def well_with_hidden_spike():
    # a square well whose sentinel would be ell = 5, plus a deep spike at a
    # point of the halved grid only, so the sentinel binds at level 1
    def potential(r):
        r = np.asarray(r, dtype=float)
        spike = np.abs(r - 3.0125) < 1e-9
        return np.where(spike, 1e4, np.where(r <= 1.0, 1.0, 0.0))

    return RadialProblem.build(potential, h=0.2, r_max=4.0, spacing=0.025)


def assert_same_radial_sum(a, b):
    assert (a.total.value, a.total.coarse, a.total.fine) == (
        b.total.value,
        b.total.coarse,
        b.total.fine,
    )
    assert [c.ell for c in a.channels] == [c.ell for c in b.channels]
    for ca, cb in zip(a.channels, b.channels):
        assert np.array_equal(ca.negative_eigenvalues, cb.negative_eigenvalues)
    assert (a.boundary_mass, a.sentinel) == (b.boundary_mass, b.sentinel)


class TestRadialAgainstScipy:
    """neg_sum_radial gives scipy's serial loop bit for bit."""

    @pytest.mark.parametrize("case", ["harmonic", "coulomb", "bump"])
    def test_sums_and_eigenvalues_bitwise(self, case):
        bump = None
        if case == "harmonic":
            prob, shift = harmonic_problem(), 0.0
        elif case == "coulomb":
            prob = RadialProblem.build(
                lambda r: 1.0 / r, h=0.2, r_max=25.0, spacing=0.025
            )
            shift = 1.0
        else:  # local-trace --n 3: well under a bump whose zeros split T
            prob = RadialProblem.build(
                lambda r: np.where(r < 1.0, (1.0 - r * r) ** 2, 0.0),
                h=0.2, r_max=2.5, spacing=0.025,
            )
            shift, bump = 0.0, Bump(center=0.0, radius=2.0)
        coarse, fine, eigs, mass = scipy_radial_reference(prob, shift, bump)
        res = neg_sum_radial(prob, shift=shift, bump=bump)
        assert (res.total.coarse, res.total.fine) == (coarse, fine)
        assert len(res.channels) == len(eigs)
        for channel, w in zip(res.channels, eigs):
            assert np.array_equal(channel.negative_eigenvalues, w[::-1])
        # the masses are 1e-86 to 1e-81 (0 under the bump), so only a
        # relative check tells one tail rule from another
        assert res.boundary_mass == pytest.approx(mass, rel=1e-10, abs=0)


class TestTridiagonalBinding:
    """The LAPACK binding against scipy's eigvalsh / eigh_tridiagonal."""

    def coulomb_channel(self):
        h, step, ell = 0.1, 0.0125, 1
        r = step * np.arange(1, 1600)
        diag = 2.0 * h * h / step**2 + ell * (ell + 1) * h * h / r**2 - 1.0 / r
        off = np.full(r.size - 1, -h * h / step**2)
        return diag, spectra._conjugation(r, off, None)

    def split_channels(self):
        # channels 0 and 1 side by side: two stebz blocks whose eigenvalues
        # interleave, so block order is not ascending order
        h, step = 0.1, 0.0125
        r = step * np.arange(1, 1600)
        diag = np.concatenate(
            [
                2.0 * h * h / step**2 + ell * (ell + 1) * h * h / r**2 - 1.0 / r
                for ell in (0, 1)
            ]
        )
        off = np.full(diag.size - 1, -h * h / step**2)
        off[r.size - 1] = 0.0
        return diag, (None, off, 2.0 * np.max(np.abs(off)))

    def bump_channel(self):
        h, step = 0.05, 0.00625
        r = step * np.arange(1, 400)
        v = np.where(r < 1.0, (1.0 - r * r) ** 2, 0.0)
        off = np.full(r.size - 1, -h * h / step**2)
        conjugation = spectra._conjugation(r, off, Bump(0.0, 2.0))
        return 2.0 * h * h / step**2 - v, conjugation

    @pytest.mark.parametrize(
        "matrix", ["coulomb_channel", "split_channels", "bump_channel"]
    )
    def test_matches_scipy(self, matrix):
        raw, conjugation = getattr(self, matrix)()
        phi2, off, spread = conjugation
        diag = raw
        if phi2 is not None:
            diag = phi2 * raw
            assert np.count_nonzero(off == 0.0) > 1  # several stebz blocks
        lower = float(min(np.min(diag) - spread, -1.0))
        tail = 40

        w = eigvalsh_tridiagonal(diag, off, select="v", select_range=(lower, 0.0))
        eigenvalues, tail_masses = spectra._negative_solve(raw, conjugation)
        assert eigenvalues.size > 3
        assert np.array_equal(eigenvalues, w[w < 0])
        assert tail_masses is None

        w, vec = eigh_tridiagonal(diag, off, select="v", select_range=(lower, 0.0))
        eigenvalues, tail_masses = spectra._negative_solve(raw, conjugation, tail)
        assert np.array_equal(eigenvalues, w[w < 0])
        np.testing.assert_allclose(
            tail_masses,
            np.sum(vec[-tail:, w < 0] ** 2, axis=0),
            rtol=0.0,
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "matrix", ["coulomb_channel", "split_channels", "bump_channel"]
    )
    def test_openblas_adapter_returns_scipys_bits(self, matrix):
        # the two providers of _binding() take the same positional arguments
        # and return the same values, so either may serve every solve
        found = numerics._openblas_library()
        if found is None or not hasattr(found[0], f"{found[1]}dstebz_{found[2]}"):
            pytest.skip("numpy bundles no OpenBLAS that exports LAPACK")
        raw, (phi2, off, spread) = getattr(self, matrix)()
        d = raw if phi2 is None else phi2 * raw
        e = np.ascontiguousarray(off)
        args = (d, e, 1, float(min(np.min(d) - spread, -1.0)), 0.0, 0, 0, 0.0, b"B")
        adapter = spectra._openblas_pair(found)
        m, w, iblock, isplit, info = adapter[0](*args)
        expected = lapack.dstebz(*args)
        assert (m, info) == (expected[0], expected[4]) and m > 3
        assert np.array_equal(w, expected[1])
        assert np.array_equal(iblock, expected[2])
        assert np.array_equal(isplit, expected[3])
        z, info = adapter[1](d, e, w[:m], iblock, isplit)
        expected = lapack.dstein(d, e, w[:m], iblock, isplit)
        assert info == expected[1] == 0
        assert z.shape == expected[0].shape and np.array_equal(z, expected[0])

    def test_scipy_lapack_where_numpy_bundles_none(self, monkeypatch, tmp_path):
        # a numpy with no OpenBLAS found (macOS and conda builds): the solves
        # run on scipy.linalg.lapack's own wrappers, still bitwise scipy's,
        # and a Scott sweep writes the same bytes
        path = tmp_path / "scott.csv"
        argv = ["scott", "--z", "1", "--h", "0.12,0.09", "--out", str(path)]
        assert main(argv) == 0
        native = path.read_bytes()
        monkeypatch.setattr(numerics, "_openblas_library", lambda: None)
        monkeypatch.setattr(spectra, "_binding", cache(spectra._binding.__wrapped__))
        assert spectra._binding() == (lapack.dstebz, lapack.dstein)
        self.test_matches_scipy("split_channels")
        coarse, fine, eigs, _ = scipy_radial_reference(harmonic_problem())
        res = neg_sum_radial(harmonic_problem())
        assert (res.total.coarse, res.total.fine) == (coarse, fine)
        for channel, w in zip(res.channels, eigs):
            assert np.array_equal(channel.negative_eigenvalues, w[::-1])
        # the universal TF table is solved once per process, so only the
        # LAPACK provider differs between the two runs
        path.unlink()
        assert main(argv) == 0
        assert path.read_bytes() == native

    def test_non_finite_entries_rejected(self):
        diag, conjugation = self.coulomb_channel()
        diag[7] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectra._negative_solve(diag, conjugation)


def lapack_reporting(name, info):
    """A _binding whose routine name runs and then reports info."""
    pair = dict(zip(spectra._ROUTINES, spectra._binding()))
    call = pair[name]
    pair[name] = lambda *args: (*call(*args)[:-1], info)
    return lambda: tuple(pair.values())


class TestLapackFailures:
    @pytest.mark.parametrize(
        "name, info, message",
        [
            ("dstebz", 1, "dstebz failed with info = 1"),
            ("dstein", 2, "2 eigenvectors failed to converge"),
            ("dstein", -4, "dstein failed with info = -4"),
        ],
    )
    def test_info_raises(self, monkeypatch, name, info, message):
        monkeypatch.setattr(spectra, "_binding", lapack_reporting(name, info))
        with pytest.raises(RuntimeError, match=message):
            neg_sum_radial(harmonic_problem())

    def test_missing_routine_is_named(self, monkeypatch, tmp_path, capsys):
        # a bundled OpenBLAS without LAPACK and no scipy to fall back on: the
        # first radial solve says which symbol it looked for, and the
        # command exits 1 with no file
        class Library:
            pass

        monkeypatch.setattr(spectra, "_binding", spectra._binding.__wrapped__)
        monkeypatch.setattr(
            numerics, "_openblas_library", lambda: (Library(), "scipy_", "64_")
        )
        monkeypatch.setitem(sys.modules, "scipy.linalg.lapack", None)
        with pytest.raises(RuntimeError, match="scipy_dstebz_64_.*scipy"):
            neg_sum_radial(harmonic_problem())
        argv = ["local-trace", "--n", "3", "--h", "0.4,0.3"]
        assert main(argv + ["--out", str(tmp_path / "lt.csv")]) == 1
        assert "does not export the LAPACK routine scipy_dstebz_64_" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "lt.csv").exists()
        monkeypatch.setattr(numerics, "_openblas_library", lambda: None)
        with pytest.raises(RuntimeError, match="no OpenBLAS.*not installed"):
            neg_sum_radial(harmonic_problem())

    def test_unconverged_vectors_fail_the_cli(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(spectra, "_binding", lapack_reporting("dstein", 1))
        argv = ["local-trace", "--n", "3", "--h", "0.4,0.3"]
        assert main(argv + ["--out", str(tmp_path / "lt.csv")]) == 1
        assert "1 eigenvectors failed to converge" in capsys.readouterr().err
        assert not (tmp_path / "lt.csv").exists()


class TestRadialWorkers:
    def test_same_bits_for_any_worker_count(self, monkeypatch):
        results = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cpus in (1, 2, 8):
                monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
                results.append(neg_sum_radial(harmonic_problem()))
        finally:
            sys.setswitchinterval(interval)
        for other in results[1:]:
            assert_same_radial_sum(results[0], other)

    def test_same_bits_without_the_blas_pins(self, monkeypatch):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: 2)
        pinned = neg_sum_radial(harmonic_problem())
        monkeypatch.setattr(numerics, "_bundled_openblas", lambda: None)
        assert numerics._row_workers() == 1
        assert_same_radial_sum(pinned, neg_sum_radial(harmonic_problem()))

    def test_blas_threads_restored_after_normal_and_raising_calls(self, monkeypatch):
        if numerics._bundled_openblas() is None:
            pytest.skip("no bundled OpenBLAS to pin")
        pins = [numerics._bundled_openblas()]
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: 2)
        priors = [get_threads() for _, get_threads in pins]
        small_box = RadialProblem.build(
            square_well(0.2), h=0.2, r_max=4.0, spacing=0.025
        )
        try:
            for set_threads, _ in pins:
                set_threads(2)
            neg_sum_radial(harmonic_problem())
            assert [get_threads() for _, get_threads in pins] == [2] * len(pins)
            with pytest.raises(ChannelCutoffError, match="sentinel channel"):
                neg_sum_radial(well_with_hidden_spike())
            assert [get_threads() for _, get_threads in pins] == [2] * len(pins)
            with pytest.raises(BoxSizeError):
                neg_sum_radial(small_box)
            assert [get_threads() for _, get_threads in pins] == [2] * len(pins)
            monkeypatch.setattr(spectra, "_binding", lapack_reporting("dstein", 1))
            with pytest.raises(RuntimeError, match="failed to converge"):
                neg_sum_radial(harmonic_problem())
            assert [get_threads() for _, get_threads in pins] == [2] * len(pins)
        finally:
            for (set_threads, _), prior in zip(pins, priors):
                set_threads(prior)

    def test_worker_error_reaches_the_caller(self, monkeypatch, blas_pins):
        # the third channel solve raises, inside a worker thread
        solve = spectra._negative_solve
        lock = threading.Lock()
        calls, raised_in = [], []

        def failing_solve(*args, **kwargs):
            with lock:
                calls.append(None)
                failing = len(calls) == 3
            if failing:
                raised_in.append(threading.current_thread())
                raise ValueError("solve failed in a worker")
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectra, "_negative_solve", failing_solve)
        with pytest.raises(ValueError, match="solve failed in a worker"):
            neg_sum_radial(harmonic_problem())
        assert raised_in and raised_in[0] is not threading.main_thread()
        assert [get() for get in blas_pins] == [2] * len(blas_pins)


class TestRadialDiagnostics:
    def test_sentinel_is_the_solved_empty_channel(self):
        prob = harmonic_problem()
        res = neg_sum_radial(prob)
        assert res.sentinel == sentinel_channel(prob) == len(res.channels)

    def test_boundary_mass_below_the_guard_and_growing_as_the_box_shrinks(self):
        masses = []
        for r_max in (40.0, 20.0):
            prob = RadialProblem.build(
                square_well(0.2), h=0.2, r_max=r_max, spacing=0.025
            )
            masses.append(neg_sum_radial(prob).boundary_mass)
        assert 0.0 < masses[0] < masses[1] <= BOUNDARY_MASS_TOL

    def test_nothing_binds_gives_zero_mass(self):
        prob = RadialProblem.build(
            lambda r: -1.0 + 0.0 * r, h=0.2, r_max=4.0, spacing=0.025
        )
        res = neg_sum_radial(prob)
        assert (res.channels, res.sentinel, res.boundary_mass) == ((), 0, 0.0)
        assert res.total.value == 0.0

    def test_spike_in_the_sentinel_channel_is_caught(self):
        with pytest.raises(ChannelCutoffError, match="ell = 5 holds 1 negative"):
            neg_sum_radial(well_with_hidden_spike())


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
    """|Tr(-h^2 Lap + V)_-| / (h^-n Int |V_-|^(1+n/2)) tends to the
    classical constant (2 pi)^-n * 2 omega_n/(n + 2)."""

    def test_positive_potential_gives_zero(self):
        grid = Grid1D.uniform(-4.0, 4.0, 129)
        assert neg_sum_1d(lambda x: 1.0 + x * x, 0.1, grid).value == 0.0

    def test_1d_harmonic_near_semiclassical_constant(self):
        # exact sum -2.5 at h = 0.1 against integral 3 pi / 8: the ratio
        # lands on the 1D classical constant 2/(3 pi)
        h, grid = 0.1, Grid1D.uniform(-6.0, 6.0, 513)
        v = lambda x: x * x - 1.0
        quantum = neg_sum_1d(v, h, grid).value
        vneg = np.minimum(v(grid.points), 0.0)
        integral = float(np.trapezoid(np.abs(vneg) ** 1.5, grid.points))
        assert abs(quantum) / (integral / h) == pytest.approx(
            2.0 / (3.0 * math.pi), rel=2e-3
        )

    def test_3d_truncated_well_near_semiclassical_constant(self):
        h, n_pts = 0.1, 320
        grid = Grid1D.uniform(4.0 / n_pts, 4.0, n_pts)
        v = lambda r: np.minimum(r * r - 1.0, 0.0)
        prob = RadialProblem(potential=lambda r: -v(r), h=h, grid=grid)
        quantum = neg_sum_radial(prob, shift=0.0).total.value
        r = grid.points
        integral = float(np.trapezoid(4.0 * np.pi * r**2 * np.abs(v(r)) ** 2.5, r))
        assert abs(quantum) / (integral / h**3) == pytest.approx(
            1.0 / (15.0 * math.pi**2), rel=0.2
        )
