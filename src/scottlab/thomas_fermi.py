"""Thomas-Fermi atoms: universal equation, physical tables, Coulomb energy.

Everything reduces to the dimensionless equation phi'' = phi^(3/2)/sqrt(x)
with phi(0) = 1 and phi decaying at infinity.  Outward integration loses the
neutral branch past x of order 30, so phi comes from one collocation
boundary value solve in t = sqrt(x).  Its inner conditions are the small-x
series phi = 1 + s x + (4/3) x^(3/2) + ..., its outer conditions the
algebraic decay phi ~ 144 x^-3 (1 + c x^lambda + ...) with the correction
exponent lambda = (7 - sqrt(73))/2; the initial slope s and the amplitude c
are the two unknown parameters of the solve.

Physical scale: V(r) = (z/r) phi(r/l) satisfies both the TF equation and
the radial Poisson relation exactly when z l^3 = 9 pi^2 / 128, giving
l = (9 pi^2/128)^(1/3) z^(-1/3).  With that calibration the attraction
integral equals z^2 |phi'(0)| / l and the neutral-atom energy comes out as
-(3/7) z^2 |phi'(0)| / l, both used as cross-checks on the quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
# solve_ivp is unused but kept: bench/tracer.py wraps it by this name
from scipy.integrate import cumulative_trapezoid, solve_bvp, solve_ivp  # noqa: F401
from scipy.interpolate import CubicSpline

from .numerics import require_positive

__all__ = [
    "DENSITY_CONST",
    "TFSolution",
    "UniversalTF",
    "Z_RANGE",
    "atomic_tf",
    "coulomb_energy_D",
    "solve_universal_tf",
    "tf_length_scale",
    "tf_scaling_transform",
]

# TF functional kinetic constant (3/10)(3 pi^2)^(2/3)
TF_KINETIC_CONST = 0.3 * (3.0 * np.pi**2) ** (2.0 / 3.0)
# TF equation constant: V = TF_EQ_CONST * rho^(2/3)
TF_EQ_CONST = 0.5 * (3.0 * np.pi**2) ** (2.0 / 3.0)
# inverse relation rho = DENSITY_CONST * V^(3/2)
DENSITY_CONST = 2.0**1.5 / (3.0 * np.pi**2)

SOMMERFELD_LAMBDA = (7.0 - np.sqrt(73.0)) / 2.0

_BVP_X0 = 1e-6
_BVP_XEND = 2500.0  # phi < 1e-8 out here

# charges z that atomic_tf and the commands built on it accept.  Every table
# and scalar is z^e times its value at z = 1 (e = -1/3 for radii, 4/3 for V,
# 2 for rho, 7/3 for the energies, as in tf_scaling_transform), and the
# energies are computed that way, so all stay finite, normal floats from
# z = 1e-131 to 1e132, where the energies leave them.  The bounds are the
# ends at which D(rho), once integrated in r, left them; they are kept as
# the interface's range, with a decade or more to spare at each end.
Z_RANGE = (1e-120, 1e116)


def _require_charge(z: float) -> None:
    """ValueError unless z lies in Z_RANGE."""
    lo, hi = Z_RANGE
    if not lo <= z <= hi:
        raise ValueError(
            f"z = {z!r} lies outside [{lo:g}, {hi:g}], the charges whose "
            "Thomas-Fermi tables and energies are finite, normal floats"
        )


def tf_length_scale(z: float) -> float:
    """l with z l^3 = 9 pi^2/128, the radius unit of the atomic TF problem."""
    require_positive(z, "z")
    return (9.0 * np.pi**2 / 128.0) ** (1.0 / 3.0) * z ** (-1.0 / 3.0)


def _sommerfeld_coeffs(kmax: int) -> np.ndarray:
    """Coefficients q_k of the decay correction series F(w) = sum q_k w^k.

    Substituting phi = 144 x^-3 F(c x^lambda) into the universal equation
    and matching powers of w gives q_0 = q_1 = 1 and, for k >= 2,
    [(lambda k - 3)(lambda k - 4) - 18] q_k = 12 [w^k]((F<k)^(3/2))
    where F<k carries the already known coefficients.
    """
    lam = SOMMERFELD_LAMBDA
    q = np.zeros(kmax + 1)
    q[0] = 1.0
    if kmax >= 1:
        q[1] = 1.0
    for k in range(2, kmax + 1):
        u = q[: k + 1].copy()
        u[0] = 0.0
        u[k] = 0.0  # unknown enters linearly; handled in the denominator
        # truncated expansion of (1 + u)^(3/2)
        g = np.zeros(k + 1)
        g[0] = 1.0
        term = np.array([1.0])
        coeff = 1.0
        for m in range(1, k + 1):
            coeff *= (1.5 - (m - 1)) / m
            term = np.convolve(term, u)[: k + 1]
            g[: term.size] += coeff * term
        denom = (lam * k - 3.0) * (lam * k - 4.0) - 18.0
        q[k] = 12.0 * g[k] / denom
    return q


_Q_TAIL = _sommerfeld_coeffs(4)


def _tail_phi_dphi(x, c):
    """phi and phi' from the truncated Sommerfeld form at large x."""
    x = np.asarray(x, dtype=float)
    w = c * x**SOMMERFELD_LAMBDA
    ks = np.arange(_Q_TAIL.size)
    powers = w[..., None] ** ks
    f = powers @ _Q_TAIL
    g = powers @ (_Q_TAIL * ks)  # sum k q_k w^k
    phi = 144.0 * x**-3 * f
    dphi = 144.0 * x**-4 * (-3.0 * f + SOMMERFELD_LAMBDA * g)
    return phi, dphi


def _series_phi_dphi(x, s):
    """Small-x expansion phi = 1 + s x + (4/3)x^(3/2) + (2s/5)x^(5/2) + x^3/3."""
    x = np.asarray(x, dtype=float)
    phi = 1.0 + s * x + (4.0 / 3.0) * x**1.5 + 0.4 * s * x**2.5 + x**3 / 3.0
    dphi = s + 2.0 * np.sqrt(x) + s * x**1.5 + x**2
    return phi, dphi


def _rhs_sqrt(t, y):
    # t = sqrt(x) regularizes the origin: psi(t) = phi(t^2) is analytic,
    # and the equation becomes psi'' = psi'/t + 4 t psi^(3/2)
    psi = np.maximum(y[0], 0.0)
    return np.vstack((y[1], y[1] / t + 4.0 * t * psi**1.5))


@dataclass(frozen=True)
class UniversalTF:
    """Read-only table of the universal screening function phi on a log grid."""

    x: np.ndarray
    phi_table: np.ndarray
    initial_slope: float
    tail_coefficient: float
    max_rms_residual: float
    _spline: CubicSpline = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        self.x.flags.writeable = False
        self.phi_table.flags.writeable = False
        spline = CubicSpline(np.log(self.x), np.log(self.phi_table))
        object.__setattr__(self, "_spline", spline)

    def phi(self, x) -> np.ndarray:
        """phi(x) for any x > 0: series head, spline body, Sommerfeld tail."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(x <= 0):
            raise ValueError("phi is tabulated for x > 0")
        out = np.empty_like(x)
        lo = x < self.x[0]
        hi = x > self.x[-1]
        mid = ~(lo | hi)
        if np.any(lo):
            out[lo] = _series_phi_dphi(x[lo], self.initial_slope)[0]
        if np.any(mid):
            out[mid] = np.exp(self._spline(np.log(x[mid])))
        if np.any(hi):
            out[hi] = _tail_phi_dphi(x[hi], self.tail_coefficient)[0]
        return out[0] if scalar else out

    def curvature_table(self) -> tuple[np.ndarray, np.ndarray]:
        """phi'' on the trimmed table, by differencing the tabulated values
        in log-log coordinates (independent of how the table was produced)."""
        lx = np.log(self.x)
        u = np.log(self.phi_table)
        d1 = np.gradient(u, lx)
        d2 = np.gradient(d1, lx)
        phipp = self.phi_table * (d2 + d1 * (d1 - 1.0)) / self.x**2
        sl = slice(8, -8)
        return self.x[sl], phipp[sl]

    def ode_residual_norm(self) -> float:
        """Integral norm of phi'' - phi^(3/2)/sqrt(x) over the table.

        Weighted by x (the measure under which int x phi'' dx = 1 expresses
        neutrality); an unweighted norm would be dominated by the smallest
        radii where differencing tabulated values is noise-limited.
        """
        x, phipp = self.curvature_table()
        phi = self.phi(x)
        resid = phipp - phi**1.5 / np.sqrt(x)
        return float(
            np.trapezoid(np.abs(resid) * x, x) / np.trapezoid(phipp * x, x)
        )


@cache
def solve_universal_tf() -> UniversalTF:
    """Universal TF function from one collocation solve in t = sqrt(x), run
    once per process: phi serves every charge, so later calls share it.

    The interval is [1e-6, 2500] in x.  The initial slope s and the tail
    amplitude c are the two free parameters: the small-x series fixes psi
    and psi' at the inner end, the Sommerfeld decay fixes them at the outer
    end.  Sommerfeld's closed-form approximant seeds the mesh, and its own
    tail amplitude seeds c; s enters the inner conditions linearly, so a
    rough value suffices.
    """
    t_mesh = np.geomspace(np.sqrt(_BVP_X0), np.sqrt(_BVP_XEND), 2500)
    x_mesh = t_mesh**2
    lam = SOMMERFELD_LAMBDA
    psi_guess = (1.0 + (x_mesh**3 / 144.0) ** (-lam / 3.0)) ** (3.0 / lam)
    dpsi_guess = np.gradient(psi_guess, t_mesh)
    c_guess = (3.0 / lam) * 144.0 ** (-lam / 3.0)
    t0, te = t_mesh[0], t_mesh[-1]

    def bc(ya, yb, p):
        s, c = p
        phi_0, dphi_0 = _series_phi_dphi(t0**2, s)
        phi_e, dphi_e = _tail_phi_dphi(te**2, c)
        return np.array(
            [
                ya[0] - phi_0,
                ya[1] - 2.0 * t0 * dphi_0,
                yb[0] - phi_e,
                yb[1] - 2.0 * te * dphi_e,
            ]
        )

    bvp = solve_bvp(
        lambda t, y, p: _rhs_sqrt(t, y),
        bc,
        t_mesh,
        np.vstack((psi_guess, dpsi_guess)),
        p=np.array([-1.5, c_guess]),
        tol=1e-10,
        max_nodes=200000,
    )
    if bvp.status != 0:
        raise RuntimeError(f"universal TF boundary value solve failed: {bvp.message}")

    x = np.geomspace(_BVP_X0, _BVP_XEND, 6000)
    phi_table = bvp.sol(np.sqrt(x))[0]
    return UniversalTF(
        x=x,
        phi_table=phi_table,
        initial_slope=float(bvp.p[0]),
        tail_coefficient=float(bvp.p[1]),
        max_rms_residual=float(np.max(bvp.rms_residuals)),
    )


# ---------------------------------------------------------------------------
# physical atomic solution


@dataclass(frozen=True)
class TFSolution:
    """Atomic TF data: potential and density tables plus energy scalars.

    V(r) = (z/r) phi(r/l) > 0 is the mean-field potential (attractive sign
    kept positive), rho = DENSITY_CONST * V^(3/2) the density, E_TF the
    value of the TF functional at rho, D_rho the Coulomb self-energy D(rho).
    """

    z: float
    r: np.ndarray
    v_tf_table: np.ndarray
    rho_tf_table: np.ndarray
    E_TF: float
    D_rho: float
    ell: float
    universal: UniversalTF = field(repr=False, compare=False)

    def v_tf(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return (self.z / r) * self.universal.phi(r / self.ell)

    def rho_tf(self, r) -> np.ndarray:
        return DENSITY_CONST * self.v_tf(r) ** 1.5

    def electron_count(self) -> float:
        """Quadrature of rho over space; neutrality makes it z."""
        x = self.universal.x
        integrand = np.sqrt(x) * self.universal.phi_table**1.5
        total = float(np.trapezoid(integrand, x))
        s = self.universal.initial_slope
        x0, xe = x[0], x[-1]
        total += (2.0 / 3.0) * x0**1.5 + 0.6 * s * x0**2.5  # series head
        f_end = self.universal.phi_table[-1] * xe**3 / 144.0
        total += 576.0 * f_end**1.5 * xe**-3  # algebraic tail
        return self.z * total

    def tf_equation_residual(self) -> float:
        """max |V - TF_EQ_CONST rho^(2/3)| / V over the table."""
        recon = TF_EQ_CONST * self.rho_tf_table ** (2.0 / 3.0)
        return float(np.max(np.abs(self.v_tf_table - recon) / self.v_tf_table))

    def validate(self) -> None:
        if np.any(self.v_tf_table <= 0) or np.any(self.rho_tf_table <= 0):
            raise ValueError("TF potential and density must stay positive")
        if self.tf_equation_residual() > 1e-6:
            raise ValueError("TF equation residual exceeds 1e-6")
        charge = self.electron_count()
        if abs(charge - self.z) > 1e-4 * self.z:
            raise ValueError(
                f"density integrates to {charge:.8g}, expected {self.z:.8g}"
            )


def coulomb_energy_D(r: np.ndarray, f: np.ndarray) -> float:
    """D(f) = (1/2) double integral of f(x) f(y)/|x - y| for radial f.

    Newton's theorem collapses the angular integrals, leaving
    (4 pi)^2 Int_0^inf r f(r) Q(r) dr with Q(r) = Int_0^r s^2 f(s) ds.
    """
    r = np.asarray(r, dtype=float)
    f = np.asarray(f, dtype=float)
    if r.shape != f.shape or r.ndim != 1:
        raise ValueError("r and f must be matching 1D tables")
    q = cumulative_trapezoid(r**2 * f, r, initial=0.0)
    return float((4.0 * np.pi) ** 2 * np.trapezoid(r * f * q, r))


def atomic_tf(z: float) -> TFSolution:
    """Solve the neutral TF atom of charge z in the fixed unit convention.

    The tables live on a log grid of 4000 radii from 1e-6 l to the decay
    tail, and z outside Z_RANGE raises ValueError.  Only the length l
    depends on z: every charge scales the one universal phi of
    solve_universal_tf, solved on the first call in the process.
    """
    require_positive(z, "z")
    _require_charge(z)
    uni = solve_universal_tf()
    ell = tf_length_scale(z)
    r = np.geomspace(1e-6 * ell, _BVP_XEND * ell, 4000)

    v = (z / r) * uni.phi(r / ell)
    rho = DENSITY_CONST * v**1.5

    # energy integrals in universal coordinates; the x^(-1/2) heads carry
    # the only quadrature mass a log grid misses
    x = uni.x
    x0 = x[0]
    s = uni.initial_slope
    j32 = float(np.trapezoid(uni.phi_table**1.5 / np.sqrt(x), x))
    j32 += 2.0 * np.sqrt(x0) + s * x0**1.5
    j52 = float(np.trapezoid(uni.phi_table**2.5 / np.sqrt(x), x))
    j52 += 2.0 * np.sqrt(x0) + (5.0 / 3.0) * s * x0**1.5

    # each energy is its z = 1 value times z^(7/3): with r = l x and
    # z l^3 = l_1^3, D(rho) = z^(7/3) l_1^2 D(DENSITY_CONST (phi/x)^(3/2))
    # in x, so no z^3 or subnormal integrand is ever formed
    ell_1 = tf_length_scale(1.0)
    scale = 4.0 * np.pi * np.sqrt(ell_1)
    kinetic = TF_KINETIC_CONST * DENSITY_CONST ** (5.0 / 3.0) * scale * j52
    attraction = DENSITY_CONST * scale * j32
    x_d = np.geomspace(1e-8, _BVP_XEND, 6000)
    d_1 = ell_1**2 * coulomb_energy_D(x_d, DENSITY_CONST * (uni.phi(x_d) / x_d) ** 1.5)
    energy_scale = z ** (7.0 / 3.0)

    sol = TFSolution(
        z=float(z),
        r=r,
        v_tf_table=v,
        rho_tf_table=rho,
        E_TF=energy_scale * (kinetic - attraction + d_1),
        D_rho=energy_scale * d_1,
        ell=ell,
        universal=uni,
    )
    sol.validate()
    return sol


def tf_scaling_transform(sol: TFSolution, gamma: float) -> TFSolution:
    """Rescale a solved atom: charge z/gamma^3, radii gamma r, V by gamma^-4,
    rho by gamma^-6, energies by gamma^-7.  gamma = 1 is the identity."""
    require_positive(gamma, "gamma")
    return TFSolution(
        z=sol.z / gamma**3,
        r=gamma * sol.r,
        v_tf_table=sol.v_tf_table / gamma**4,
        rho_tf_table=sol.rho_tf_table / gamma**6,
        E_TF=sol.E_TF / gamma**7,
        D_rho=sol.D_rho / gamma**7,
        ell=gamma * sol.ell,
        universal=sol.universal,
    )

