"""Thomas-Fermi solver: universal function, atoms, Coulomb energy, scaling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_bvp

from scottlab import cli, numerics, thomas_fermi
from scottlab.semiclassics import WeylSpec, weyl_energy, weyl_prefactor
from scottlab.thomas_fermi import (
    Z_RANGE,
    atomic_tf,
    coulomb_energy_D,
    solve_universal_tf,
    tf_length_scale,
    tf_scaling_transform,
)


class TestUniversal:
    def test_initial_slope(self, universal):
        # Boyd, J. Comput. Appl. Math. 244 (2013), rational Chebyshev series
        assert universal.initial_slope == pytest.approx(-1.5880710226113753, abs=1e-13)

    def test_ode_residual(self, universal):
        assert universal.max_rms_residual < 1e-9
        assert universal.ode_residual_norm() < 1e-6

    def test_phi_starts_at_one_and_decreases(self, universal):
        x = np.geomspace(1e-8, 1e3, 400)
        phi = universal.phi(x)
        assert phi[0] == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(phi) < 0)
        assert np.all(phi > 0)

    def test_sommerfeld_tail(self, universal):
        # phi -> 144/x^3, approached slowly through the x^(-0.772) correction
        assert universal.phi(1e4) * 1e12 / 144.0 == pytest.approx(1.0, rel=0.05)

    def test_rejects_nonpositive_argument(self, universal):
        with pytest.raises(ValueError):
            universal.phi(0.0)


class TestSolveOnce:
    def test_one_collocation_solve_per_process(self, monkeypatch, tmp_path):
        calls = []
        original = thomas_fermi._chebyshev_newton

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(thomas_fermi, "_chebyshev_newton", counted)
        solve_universal_tf.cache_clear()
        atomic_tf(1.0)
        atomic_tf(8.0)
        argv = ["scott", "--z", "1", "--h", "0.3,0.2", "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0
        assert len(calls) == 1

    def test_every_call_returns_the_same_solution(self):
        assert solve_universal_tf() is solve_universal_tf()
        assert atomic_tf(2.0).universal is solve_universal_tf()

    def test_tables_are_read_only(self, universal):
        with pytest.raises(ValueError, match="read-only"):
            universal.phi_table[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            universal.x[0] = 0.0


def bvp_reference(x):
    """phi at x from an independent discretization of the same problem:
    scipy's collocation solve_bvp in t = sqrt(x), where psi(t) = phi(t^2) obeys
    psi'' = psi'/t + 4 t psi^(3/2), with the same series and Sommerfeld
    end conditions and tolerance 1e-10."""
    t_mesh = np.geomspace(1e-3, 50.0, 2500)
    x_mesh = t_mesh**2
    lam = thomas_fermi.SOMMERFELD_LAMBDA
    psi = (1.0 + (x_mesh**3 / 144.0) ** (-lam / 3.0)) ** (3.0 / lam)
    t0, te = t_mesh[0], t_mesh[-1]

    def rhs(t, y, p):
        return np.vstack((y[1], y[1] / t + 4.0 * t * np.maximum(y[0], 0.0) ** 1.5))

    def bc(ya, yb, p):
        phi_0, dphi_0 = thomas_fermi._series_phi_dphi(t0**2, p[0])
        phi_e, dphi_e = thomas_fermi._tail_phi_dphi(te**2, p[1])
        return np.array(
            [
                ya[0] - phi_0,
                ya[1] - 2.0 * t0 * dphi_0,
                yb[0] - phi_e,
                yb[1] - 2.0 * te * dphi_e,
            ]
        )

    bvp = solve_bvp(
        rhs, bc, t_mesh, np.vstack((psi, np.gradient(psi, t_mesh))),
        p=np.array([-1.5, (3.0 / lam) * 144.0 ** (-lam / 3.0)]),
        tol=1e-10, max_nodes=200000,
    )
    assert bvp.status == 0
    return bvp.sol(np.sqrt(x))[0]


class TestAgainstIndependentOracles:
    def test_table_matches_the_sqrt_collocation(self, universal):
        # the two differ by 9e-13 for x <= 15 and by 7e-9 beyond, where
        # phi < 1e-3; that is the reference's error, since the Chebyshev
        # table moves by 7e-14 at most from N = 100 to 140
        rel = np.abs(universal.phi_table / bvp_reference(universal.x) - 1.0)
        inner = universal.x <= 15.0
        assert np.max(rel[inner]) < 1e-11
        assert np.max(rel[~inner]) < 1e-8

    @pytest.mark.parametrize(
        "power, head, expect",
        [(1.5, 1.0, lambda s: -s), (2.5, 5.0 / 3.0, lambda s: -5.0 * s / 7.0)],
        ids=["phi32", "phi52"],
    )
    def test_virial_identity_by_spectral_quadrature(self, power, head, expect):
        # int phi^p x^(-1/2) dx, in u = log x the integral of
        # exp(p w + u/2) du, by integrating the Chebyshev interpolant through
        # the solve's own nodes; the series head 2 sqrt(x0) + head s x0^(3/2)
        # covers (0, x0) and the algebraic tail 144^p x^(-3p - 1/2) the rest
        u = thomas_fermi._U_NODES
        w, _, s, _ = thomas_fermi._chebyshev_newton()
        poly = np.polynomial.Chebyshev.fit(u, np.exp(power * w + 0.5 * u), u.size - 1)
        antiderivative = poly.integ()
        x0, xe = np.exp(u[0]), np.exp(u[-1])
        total = antiderivative(u[-1]) - antiderivative(u[0])
        total += 2.0 * np.sqrt(x0) + head * s * x0**1.5
        total += 144.0**power * xe ** (0.5 - 3.0 * power) / (3.0 * power - 0.5)
        assert total == pytest.approx(expect(s), abs=1e-10)

    def test_same_bits_at_one_and_two_blas_threads(self, blas_pins):
        # the Newton solves run with OpenBLAS held at one thread; unpinned,
        # a second thread moved the table by 5e-14
        calls = numerics._bundled_openblas("numpy")
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        set_threads, _ = calls
        set_threads(1)
        one = solve_universal_tf.__wrapped__()
        set_threads(2)
        two = solve_universal_tf.__wrapped__()
        assert [get() for get in blas_pins] == [2] * len(blas_pins)
        assert two.initial_slope == one.initial_slope
        np.testing.assert_array_equal(two.phi_table, one.phi_table)


class TestAtom:
    def test_validates(self, atom_z1):
        atom_z1.validate()

    def test_neutrality(self, atom_z1, atom_z8):
        assert atom_z1.electron_count() == pytest.approx(1.0, abs=1e-4)
        assert atom_z8.electron_count() == pytest.approx(8.0, rel=1e-4)

    def test_length_scale(self, atom_z1, atom_z8):
        assert atom_z1.ell == pytest.approx(tf_length_scale(1.0))
        assert atom_z8.ell / atom_z1.ell == pytest.approx(0.5, rel=1e-12)

    def test_energy_from_slope(self, atom_z1):
        # E_TF = (3/7) phi'(0) z^2 / l for the neutral atom
        expect = (3.0 / 7.0) * atom_z1.universal.initial_slope / atom_z1.ell
        assert atom_z1.E_TF == pytest.approx(expect, rel=1e-5)

    def test_virial_ratio(self, atom_z1):
        assert atom_z1.D_rho == pytest.approx(-atom_z1.E_TF / 3.0, rel=1e-5)

    def test_energy_scaling_in_z(self, atom_z1, atom_z8):
        assert atom_z8.E_TF / atom_z1.E_TF == pytest.approx(
            8.0 ** (7.0 / 3.0), rel=1e-9
        )
        assert atom_z8.D_rho / atom_z1.D_rho == pytest.approx(
            8.0 ** (7.0 / 3.0), rel=1e-9
        )

    def test_potential_scaling_in_z(self, atom_z1, atom_z8):
        # V_z(r) = z^(4/3) V_1(z^(1/3) r) with the shared screening table
        r = np.geomspace(0.01, 2.0, 50)
        lhs = atom_z8.v_tf(r)
        rhs = 8.0 ** (4.0 / 3.0) * atom_z1.v_tf(8.0 ** (1.0 / 3.0) * r)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_density_follows_potential(self, atom_z1):
        r = np.geomspace(0.05, 5.0, 20)
        ratio = atom_z1.rho_tf(r) / atom_z1.v_tf(r) ** 1.5
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_matches_weyl_integral(self, atom_z1):
        # the TF energy relation E + D(rho) = 2 * (semiclassical integral
        # of -V_TF at h = 1/sqrt(2))
        w = weyl_energy(
            WeylSpec(n=3, potential=lambda r: -atom_z1.v_tf(r), h=2**-0.5)
        )
        assert 2.0 * w == pytest.approx(atom_z1.E_TF + atom_z1.D_rho, rel=1e-3)

    @pytest.mark.parametrize("z", [1.0, 8.0, 1e-3])
    def test_v52_integral_matches_the_weyl_quadrature(self, z):
        # the closed form against weyl_energy's adaptive quadrature of the
        # same potential, which knows nothing of the virial identity
        sol = atomic_tf(z)
        oracle = weyl_energy(WeylSpec(n=3, potential=lambda r: -sol.v_tf(r), h=1.0))
        assert weyl_prefactor(3) * sol.v52_integral() == pytest.approx(oracle, rel=1e-12)

    def test_kinetic_and_attraction_are_exact(self, atom_z1):
        # kinetic : attraction = 3 : 7 with the attraction z^2 |s| / l, both
        # from the virial identities; only D(rho) is a quadrature
        kinetic_minus_attraction = atom_z1.E_TF - atom_z1.D_rho
        expect = (4.0 / 7.0) * atom_z1.universal.initial_slope / atom_z1.ell
        assert kinetic_minus_attraction == pytest.approx(expect, rel=1e-13)

    def test_rejects_nonpositive_charge(self):
        with pytest.raises(ValueError):
            atomic_tf(0.0)
        with pytest.raises(ValueError):
            tf_length_scale(-2.0)


def outputs_normal(sol):
    """Whether every table entry and scalar of a TF atom is a finite, normal
    float."""
    values = np.concatenate(
        [sol.r, sol.v_tf_table, sol.rho_tf_table, [sol.E_TF, sol.D_rho, sol.ell]]
    )
    magnitude = np.abs(values)
    limits = np.finfo(float)
    return bool(np.all(magnitude >= limits.tiny) and np.all(magnitude <= limits.max))


class TestChargeRange:
    @pytest.mark.parametrize("z", Z_RANGE)
    def test_ends_keep_every_output_normal(self, z):
        # each output is monotone in z, so the whole range keeps them normal
        assert outputs_normal(atomic_tf(z))

    @pytest.mark.parametrize("z", [Z_RANGE[0] / 10.0, 10.0 * Z_RANGE[1]])
    def test_one_decade_out_is_rejected(self, z):
        with pytest.raises(ValueError, match="lies outside"):
            atomic_tf(z)

    @pytest.mark.parametrize("z", [1e-120, 1e-118, 1e-60, 8.0, 1e60, 1e116])
    def test_energies_scale_as_z_to_the_seven_thirds(self, atom_z1, z):
        # D(rho) is integrated in universal units, so no subnormal integrand
        # costs it digits at the low end of the range (it was 19% low at
        # z = 1e-120 when integrated in r)
        sol = atomic_tf(z)
        assert sol.D_rho * z ** (-7.0 / 3.0) == pytest.approx(atom_z1.D_rho, rel=1e-12)
        assert sol.E_TF * z ** (-7.0 / 3.0) == pytest.approx(atom_z1.E_TF, rel=1e-12)
        assert sol.v52_integral() * z ** (-7.0 / 3.0) == pytest.approx(
            atom_z1.v52_integral(), rel=1e-12
        )


class TestScalingTransform:
    def test_gamma_two_maps_z8_to_z1(self, atom_z1, atom_z8):
        moved = tf_scaling_transform(atom_z8, 2.0)
        assert moved.z == pytest.approx(1.0)
        assert moved.E_TF == pytest.approx(atom_z1.E_TF, rel=1e-9)
        assert moved.ell == pytest.approx(atom_z1.ell, rel=1e-12)
        r = np.geomspace(0.05, 5.0, 20)
        np.testing.assert_allclose(moved.v_tf(r), atom_z1.v_tf(r), rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.2, max_value=5.0))
    def test_round_trip(self, atom_z1, gamma):
        back = tf_scaling_transform(tf_scaling_transform(atom_z1, gamma), 1 / gamma)
        assert back.z == pytest.approx(atom_z1.z, rel=1e-12)
        assert back.E_TF == pytest.approx(atom_z1.E_TF, rel=1e-12)
        np.testing.assert_allclose(back.v_tf_table, atom_z1.v_tf_table, rtol=1e-12)

    def test_rejects_nonpositive_gamma(self, atom_z1):
        with pytest.raises(ValueError):
            tf_scaling_transform(atom_z1, 0.0)


class TestCoulombEnergy:
    def test_uniform_ball(self):
        # unit charge in the unit ball: D = 3/5
        r = np.linspace(0.0, 1.0, 20001)
        f = np.full_like(r, 3.0 / (4.0 * math.pi))
        assert coulomb_energy_D(r, f) == pytest.approx(0.6, abs=1e-6)

    def test_gaussian_cloud(self):
        # normalized exp(-r^2): D = 1/sqrt(2 pi)
        r = np.linspace(0.0, 12.0, 30001)
        f = math.pi ** -1.5 * np.exp(-(r**2))
        assert coulomb_energy_D(r, f) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-7
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            coulomb_energy_D(np.linspace(0, 1, 5), np.zeros(6))


class TestScreenedPotential:
    def test_negative_and_vanishing_far_out(self, atom_z1):
        # V_TF - z/r is minus the electron cloud's potential: negative, and
        # fading to 0 by neutrality
        w_near = float(atom_z1.v_tf(0.5)) - 1.0 / 0.5
        w_far = float(atom_z1.v_tf(50.0)) - 1.0 / 50.0
        assert w_near < 0 and w_far < 0
        assert abs(w_far) < abs(w_near)
