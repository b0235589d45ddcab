"""Thomas-Fermi atoms: universal equation, physical tables, Coulomb energy.

Everything reduces to the dimensionless equation phi'' = phi^(3/2)/sqrt(x)
with phi(0) = 1 and phi decaying at infinity.  The initial slope is found by
bisection on the shooting classification (solutions either cross zero or
turn back upward), which is reliable because departures from the neutral
branch are amplified along the sweep.  The same amplification makes an
outward table useless past x of order 30, so the global table comes from a
collocation boundary value solve whose outer condition is the algebraic
decay phi ~ 144 x^-3 (1 + c x^lambda + ...) with the correction exponent
lambda = (7 - sqrt(73))/2 and the amplitude c as an unknown parameter.

Physical scale: V(r) = (z/r) phi(r/l) satisfies both the TF equation and
the radial Poisson relation exactly when z l^3 = 9 pi^2 / 128, giving
l = (9 pi^2/128)^(1/3) z^(-1/3).  With that calibration the attraction
integral equals z^2 |phi'(0)| / l and the neutral-atom energy comes out as
-(3/7) z^2 |phi'(0)| / l, both used as cross-checks on the quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_bvp, solve_ivp
from scipy.interpolate import CubicSpline

from .numerics import require_positive

__all__ = [
    "DENSITY_CONST",
    "GeometryRecord",
    "NucleiConfig",
    "TFSolution",
    "UniversalTF",
    "atomic_tf",
    "coulomb_energy_D",
    "geometry_functions",
    "screened_potential_W",
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

_SERIES_X0 = 1e-4  # start point for outward shooting
_BVP_X0 = 1e-6
_BVP_XEND = 2500.0  # phi < 1e-8 out here
_SHOOT_XMAX = 40.0


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


def _classify_shot(s: float) -> int:
    """-1 if phi crosses zero, +1 if phi turns back upward, 0 if neither."""

    def crossing(x, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1.0

    def upturn(x, y):
        return y[1]

    upturn.terminal = True
    upturn.direction = 1.0

    phi0, dphi0 = _series_phi_dphi(_SERIES_X0, s)
    sol = solve_ivp(
        lambda x, y: [y[1], max(y[0], 0.0) ** 1.5 / np.sqrt(x)],
        (_SERIES_X0, _SHOOT_XMAX),
        [phi0, dphi0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        events=[crossing, upturn],
    )
    if sol.t_events[0].size:
        return -1
    if sol.t_events[1].size:
        return 1
    return 0


@dataclass(frozen=True)
class UniversalTF:
    """Table of the universal screening function phi on a log grid."""

    x: np.ndarray
    phi_table: np.ndarray
    initial_slope: float
    tail_coefficient: float
    max_rms_residual: float
    _spline: CubicSpline = field(repr=False, compare=False, default=None)

    def __post_init__(self):
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

    def dphi(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.empty_like(x)
        lo = x < self.x[0]
        hi = x > self.x[-1]
        mid = ~(lo | hi)
        if np.any(lo):
            out[lo] = _series_phi_dphi(x[lo], self.initial_slope)[1]
        if np.any(mid):
            lx = np.log(x[mid])
            out[mid] = np.exp(self._spline(lx)) * self._spline(lx, 1) / x[mid]
        if np.any(hi):
            out[hi] = _tail_phi_dphi(x[hi], self.tail_coefficient)[1]
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


def solve_universal_tf(tolerance: float = 1e-10) -> UniversalTF:
    """Universal TF function: bisection for the slope, collocation for the table.

    The slope bracket is classified by shooting events (zero crossing vs
    upturn); bisection narrows it to `tolerance`.  The full table is then a
    boundary value solve on [1e-6, 2500] whose outer condition enforces the
    144 x^-3 decay with the correction amplitude as a free parameter, since
    outward integration loses the neutral branch long before the tail is
    reached.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = -1.65, -1.45
    if _classify_shot(lo) != -1 or _classify_shot(hi) != 1:
        raise RuntimeError("bisection bracket not found for the initial slope")
    target = max(tolerance, 1e-13)
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        side = _classify_shot(mid)
        if side == -1:
            lo = mid
        elif side == 1:
            hi = mid
        else:
            lo = mid - 0.25 * (hi - lo)
            hi = mid + 0.25 * (hi - lo)
            break
    slope = 0.5 * (lo + hi)

    # short trustworthy outward table seeds the BVP guess
    phi0, dphi0 = _series_phi_dphi(_SERIES_X0, slope)
    seed = solve_ivp(
        lambda x, y: [y[1], max(y[0], 0.0) ** 1.5 / np.sqrt(x)],
        (_SERIES_X0, 25.0),
        [phi0, dphi0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )

    # collocation in t = sqrt(x); the solution is analytic there
    t_mesh = np.geomspace(np.sqrt(_BVP_X0), np.sqrt(_BVP_XEND), 2500)
    x_mesh = t_mesh**2
    inner = np.clip(x_mesh, _SERIES_X0, 25.0)
    psi_guess = seed.sol(inner)[0] * (inner / x_mesh) ** 3
    low = x_mesh < _SERIES_X0
    psi_guess[low] = _series_phi_dphi(x_mesh[low], slope)[0]
    dpsi_guess = np.gradient(psi_guess, t_mesh)
    t0, te = t_mesh[0], t_mesh[-1]

    def bc(ya, yb, p):
        c = p[0]
        phi_e, dphi_e = _tail_phi_dphi(np.array([te**2]), c)
        return np.array(
            [
                ya[0] - 0.5 * t0 * ya[1] - (1.0 - (2.0 / 3.0) * t0**3),
                yb[0] - phi_e[0],
                yb[1] - 2.0 * te * dphi_e[0],
            ]
        )

    bvp = solve_bvp(
        lambda t, y, p: _rhs_sqrt(t, y),
        bc,
        t_mesh,
        np.vstack((psi_guess, dpsi_guess)),
        p=np.array([-13.0]),
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
        initial_slope=slope,
        tail_coefficient=float(bvp.p[0]),
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

    def poisson_residual(self) -> float:
        """Integral-norm residual of (1/r)(r V)'' = 4 pi rho on the interior.

        r V = z phi(r/l), so the left side is z phi''/(r l^2) with phi''
        differenced from the tabulated universal function.
        """
        x, phipp = self.universal.curvature_table()
        r = x * self.ell
        lhs = self.z * phipp / (r * self.ell**2)
        rho = DENSITY_CONST * ((self.z / r) * self.universal.phi(x)) ** 1.5
        rhs = 4.0 * np.pi * rho
        # Charge-weighted L1 norm: both sides are charge densities, so
        # compare the volume integrals they produce (denominator is the
        # total electron charge).  Without the r^2 weight the norm piles up
        # at the innermost cells where rho ~ r^(-3/2) diverges and
        # differencing the table is noise-limited.
        w = r * r
        return float(
            np.trapezoid(np.abs(lhs - rhs) * w, r) / np.trapezoid(rhs * w, r)
        )

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


def atomic_tf(z: float, universal: UniversalTF | None = None) -> TFSolution:
    """Solve the neutral TF atom of charge z in the fixed unit convention.

    The tables live on a log grid of 4000 radii from 1e-6 l to the decay
    tail.  universal: pass a solved UniversalTF to reuse it; by default each
    call solves afresh, which keeps cross-z comparisons honest.
    """
    require_positive(z, "z")
    uni = universal if universal is not None else solve_universal_tf()
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

    scale = 4.0 * np.pi * z**2.5 * np.sqrt(ell)
    kinetic = TF_KINETIC_CONST * DENSITY_CONST ** (5.0 / 3.0) * scale * j52
    attraction = DENSITY_CONST * scale * j32

    r_d = np.geomspace(1e-8 * ell, _BVP_XEND * ell, 6000)
    rho_d = DENSITY_CONST * ((z / r_d) * uni.phi(r_d / ell)) ** 1.5
    d_rho = coulomb_energy_D(r_d, rho_d)

    sol = TFSolution(
        z=float(z),
        r=r,
        v_tf_table=v,
        rho_tf_table=rho,
        E_TF=kinetic - attraction + d_rho,
        D_rho=d_rho,
        ell=ell,
        universal=uni,
    )
    sol.validate()
    return sol


def tf_scaling_transform(sol: TFSolution, gamma: float) -> TFSolution:
    """Rescale a solved atom: charge z/gamma^3, radii gamma r, V by gamma^-4,
    rho by gamma^-6, energies by gamma^-7.  gamma = 1 is the identity."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
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


# ---------------------------------------------------------------------------
# molecular geometry helpers


@dataclass(frozen=True)
class NucleiConfig:
    """Charges and positions of the nuclei."""

    charges: tuple
    positions: np.ndarray  # shape (M, 3)

    def __post_init__(self):
        charges = tuple(float(c) for c in self.charges)
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.shape != (len(charges), 3):
            raise ValueError("positions must be an (M, 3) array")
        if any(c <= 0 for c in charges):
            raise ValueError("all charges must be positive")
        if len(charges) >= 2:
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.sqrt(np.sum(diff**2, axis=-1))
            off = dist[~np.eye(len(charges), dtype=bool)]
            if np.min(off) <= 0:
                raise ValueError("nuclear positions must be distinct")
        object.__setattr__(self, "charges", charges)
        object.__setattr__(self, "positions", pos)

    @property
    def count(self) -> int:
        return len(self.charges)

    @property
    def r_min(self) -> float:
        if self.count < 2:
            return float("inf")
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        return float(np.min(dist[~np.eye(self.count, dtype=bool)]))


@dataclass(frozen=True)
class GeometryRecord:
    d: float
    f: float
    ell: float


def geometry_functions(cfg: NucleiConfig, x, h: float) -> GeometryRecord:
    """Distance to the nearest nucleus d, the weight f = min(d^-1/2, d^-2),
    and the regularized length ell = (1/2)(1 + sum_k (|x-r_k|^2+h^2)^-1/2)^-1."""
    x = np.asarray(x, dtype=float).reshape(3)
    dists = np.sqrt(np.sum((cfg.positions - x) ** 2, axis=1))
    d = float(np.min(dists))
    f = float("inf") if d == 0.0 else float(min(d**-0.5, d**-2.0))
    ell = 0.5 / (1.0 + float(np.sum(1.0 / np.sqrt(dists**2 + h**2))))
    return GeometryRecord(d=d, f=f, ell=ell)


def screened_potential_W(sol: TFSolution, k: int, x) -> float:
    """W_k = V_TF - z_k/|x - r_k| near nucleus k; atomic solver has k = 0.

    For the single atom this is minus the electron-cloud potential, finite
    at the origin (value z phi'(0)/l) and tending to 0 from below at large
    radii by neutrality.
    """
    if k != 0:
        raise ValueError("atomic solution carries a single nucleus, k = 0")
    x = np.asarray(x, dtype=float)
    r = float(np.sqrt(np.sum(x**2))) if x.ndim else float(x)
    if r == 0.0:
        return sol.z * sol.universal.initial_slope / sol.ell
    return float(sol.v_tf(r) - sol.z / r)
