"""Thomas-Fermi atoms: universal equation, physical tables, Coulomb energy.

Everything reduces to the dimensionless equation phi'' = phi^(3/2)/sqrt(x)
with phi(0) = 1 and phi decaying at infinity.  Outward integration loses the
neutral branch past x of order 30, so phi comes from one boundary value
solve on [1e-6, 2500]: Newton's method on a Chebyshev collocation in
log-log variables (solve_universal_tf).  Its inner conditions are the
small-x series phi = 1 + s x + (4/3) x^(3/2) + ..., its outer conditions
the algebraic decay phi ~ 144 x^-3 (1 + c x^lambda + ...) with the
correction exponent lambda = (7 - sqrt(73))/2; the initial slope s and the
amplitude c are the two unknown parameters of the solve.

Physical scale: V(r) = (z/r) phi(r/l) satisfies both the TF equation and
the radial Poisson relation exactly when z l^3 = 9 pi^2 / 128, giving
l = (9 pi^2/128)^(1/3) z^(-1/3).  With that calibration the attraction
integral equals z^2 |phi'(0)| / l and the neutral-atom energy comes out as
-(3/7) z^2 |phi'(0)| / l, a cross-check on the D(rho) quadrature.

Virial identities: both energy integrals of phi are closed forms in s,
int phi^(3/2) x^(-1/2) dx = -s (the equation integrated once) and
int phi^(5/2) x^(-1/2) dx = -5s/7 (derived in TFSolution.v52_integral).
They are the kinetic : attraction : repulsion = 3 : 7 : 1 virial relation
of Lieb and Simon, Adv. Math. 23 (1977).  atomic_tf takes its kinetic and
attraction energies from them, and TFSolution.v52_integral gives the Weyl
position integral int V^(5/2) d^3x with no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .numerics import _pinned, require_positive

__all__ = [
    "DENSITY_CONST",
    "TFSolution",
    "UniversalTF",
    "Z_RANGE",
    "atomic_tf",
    "coulomb_energy_D",
    "solve_universal_tf",
    "tf_length_scale",
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
# degree N of the Chebyshev collocation in log x (N + 1 = 101 nodes); see
# solve_universal_tf for why 100
_CHEB_N = 100

# charges z that atomic_tf and the commands built on it accept.  Every table
# and scalar is z^e times its value at z = 1 (e = -1/3 for radii, 4/3 for V,
# 2 for rho, 7/3 for the energies), and the energies are computed that way,
# so all stay finite, normal floats from z = 1e-131 to 1e132, where the
# energies leave them.  The range keeps a decade to spare at each end.
Z_RANGE = (1e-130, 1e131)


def __getattr__(name: str):
    # the benchmark tracer wraps these two names in this module; scipy is
    # imported only when they are looked up, as nothing here calls them
    if name in ("solve_bvp", "solve_ivp"):
        import scipy.integrate

        return getattr(scipy.integrate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# l at z = 1; every other charge's l is l_1 z^(-1/3)
_ELL_1 = tf_length_scale(1.0)


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


def _end_conditions(s, c):
    """(w, v) = (log phi, phi'/phi) at x = _BVP_X0 from the series with slope
    s, then at x = _BVP_XEND from the Sommerfeld tail with amplitude c."""
    phi_0, dphi_0 = _series_phi_dphi(_BVP_X0, s)
    phi_e, dphi_e = _tail_phi_dphi(_BVP_XEND, c)
    return np.array([np.log(phi_0), dphi_0 / phi_0, np.log(phi_e), dphi_e / phi_e])


def _chebyshev_lobatto(a: float, b: float, n: int):
    """The n + 1 ascending Chebyshev-Lobatto nodes on [a, b], their
    barycentric weights and the differentiation matrix on them."""
    j = np.arange(n + 1)
    nodes = a + 0.5 * (b - a) * (1.0 - np.cos(np.pi * j / n))
    weights = (-1.0) ** j
    weights[[0, -1]] *= 0.5
    gaps = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(gaps, 1.0)
    diff = (weights[None, :] / weights[:, None]) / gaps
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))
    return nodes, weights, diff


# collocation nodes in u = log x, their barycentric weights and d/du on them
_U_NODES, _U_WEIGHTS, _U_DIFF = _chebyshev_lobatto(
    np.log(_BVP_X0), np.log(_BVP_XEND), _CHEB_N
)


def _barycentric_matrix(nodes, weights, points) -> np.ndarray:
    """Matrix taking values at ascending nodes to the interpolant's values at
    points.

    The weights are divided into the gaps in place, so the matrix is the
    one points x nodes array built; a point equal to a node, which is rare,
    gets that node's unit row, found by a search, not a points x nodes mask."""
    gaps = points[:, None] - nodes[None, :]
    above = np.minimum(np.searchsorted(nodes, points), nodes.size - 1)
    on_node = np.flatnonzero(nodes[above] == points)
    hit = gaps[on_node] == 0.0
    gaps[on_node] = np.where(hit, 1.0, gaps[on_node])
    terms = np.divide(weights, gaps, out=gaps)
    terms /= terms.sum(axis=1, keepdims=True)
    terms[on_node] = hit
    return terms


def _chebyshev_newton():
    """Node values of the log-log TF system by Newton's method.

    Returns (w, v, s, c): w = log phi and v = phi'/phi at the nodes
    _U_NODES, the initial slope s and the tail amplitude c.  These are the
    unknowns; the two equations are collocated at every node except the
    inner end, whose rows hold the series conditions, and two more rows hold
    the tail conditions.  The Jacobian is analytic except for the boundary
    rows' columns in s and c, which are central differences.
    """
    u, diff = _U_NODES, _U_DIFF
    x = np.exp(u)

    # Sommerfeld's approximant (1 + y)^(3/lambda), y = (x^3/144)^(-lambda/3),
    # and its own large-x amplitude seed w, v and c; s starts at -1.5
    lam = SOMMERFELD_LAMBDA
    y = (x**3 / 144.0) ** (-lam / 3.0)
    w, v = (3.0 / lam) * np.log1p(y), -3.0 * y / (x * (1.0 + y))
    s, c = -1.5, (3.0 / lam) * 144.0 ** (-lam / 3.0)
    n = u.size
    diag = np.arange(n)
    # the boundary rows replace the inner end's two collocation rows and add
    # two more; each pins one node value: w and v at the inner end, then at
    # the outer end
    rows = [0, n, 2 * n, 2 * n + 1]
    cols = [0, n, n - 1, 2 * n - 1]
    step = 1e-6
    for _ in range(20):
        g = np.exp(0.5 * (w - u))
        resid = np.concatenate([diff @ w - x * v, diff @ v - x * (g - v * v), [0, 0]])
        resid[rows] = [w[0], v[0], w[-1], v[-1]] - _end_conditions(s, c)
        jac = np.zeros((2 * n + 2, 2 * n + 2))
        jac[:n, :n] = diff
        jac[diag, n + diag] = -x
        jac[n + diag, diag] = -0.5 * x * g
        jac[n : 2 * n, n : 2 * n] = diff
        jac[n + diag, n + diag] += 2.0 * x * v
        jac[rows] = 0.0
        jac[rows, cols] = 1.0
        jac[rows, -2] = _end_conditions(s - step, c) - _end_conditions(s + step, c)
        jac[rows, -1] = _end_conditions(s, c - step) - _end_conditions(s, c + step)
        jac[rows, -2:] /= 2.0 * step
        delta = np.linalg.solve(jac, resid)
        w, v = w - delta[:n], v - delta[n : 2 * n]
        s, c = s - delta[2 * n], c - delta[2 * n + 1]
        if np.max(np.abs(delta)) < 1e-9:
            return w, v, float(s), float(c)
    raise RuntimeError("universal TF Newton iteration did not converge in 20 steps")


def _hermite_coefficients(u, w, slope) -> np.ndarray:
    """One row (u_k, u_k+1 - u_k, c_0, c_1, c_2, c_3) per interval of the
    cubic Hermite interpolant of w(u) with slopes dw/du: on [u_k, u_k+1] it
    is c_0 + t (c_1 + t (c_2 + t c_3)) with t = (u - u_k)/(u_k+1 - u_k)."""
    step = np.diff(u)
    m0, m1 = step * slope[:-1], step * slope[1:]
    rise = np.diff(w)
    return np.column_stack(
        [u[:-1], step, w[:-1], m0, 3.0 * rise - 2.0 * m0 - m1, m0 + m1 - 2.0 * rise]
    )


@dataclass(frozen=True)
class UniversalTF:
    """Read-only table of the universal screening function phi on a log grid,
    with the log-log slope x phi'/phi at the same points; the cubic Hermite
    coefficients built from them are read-only too, as one solve is shared
    by every atom in the process."""

    x: np.ndarray
    phi_table: np.ndarray
    slope_table: np.ndarray
    initial_slope: float
    tail_coefficient: float
    max_rms_residual: float
    _hermite: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        for table in (self.x, self.phi_table, self.slope_table):
            table.flags.writeable = False
        coefficients = _hermite_coefficients(
            np.log(self.x), np.log(self.phi_table), self.slope_table
        )
        coefficients.flags.writeable = False
        object.__setattr__(self, "_hermite", coefficients)

    def _log_phi(self, u: np.ndarray) -> np.ndarray:
        """log phi at u = log x inside the table, from the cubic Hermite
        interpolant of log phi in log x; the table is uniform in log x, so
        each point's interval comes from arithmetic, not a search."""
        rows = self._hermite
        u0, u_end = np.log(self.x[[0, -1]])
        step = (u_end - u0) / rows.shape[0]
        index = np.minimum(((u - u0) / step).astype(np.intp), rows.shape[0] - 1)
        left, width, c0, c1, c2, c3 = rows[index].T
        t = (u - left) / width
        return c0 + t * (c1 + t * (c2 + t * c3))

    def phi(self, x) -> np.ndarray:
        """phi(x) for any x > 0: series head, Hermite body, Sommerfeld tail."""
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
            out[mid] = np.exp(self._log_phi(np.log(x[mid])))
        if np.any(hi):
            out[hi] = _tail_phi_dphi(x[hi], self.tail_coefficient)[0]
        return out[0] if scalar else out


@cache
@_pinned
def solve_universal_tf() -> UniversalTF:
    """Universal TF function from one Chebyshev-Newton solve in log-log
    variables, run once per process: phi serves every charge, so later calls
    share it.

    The formulation.  With u = log x, w = log phi and v = phi'/phi, the
    equation phi'' = phi^(3/2) x^(-1/2) becomes the first-order system
        dw/du = e^u v,    dv/du = e^u (e^((w - u)/2) - v^2),
    since phi''/phi = dv/dx + v^2.  Both unknowns are O(1) over the whole
    interval [1e-6, 2500] (w falls from 0 to -19, v rises from s to about
    -3/x), and the x^(3/2) term of the small-x series becomes the smooth
    e^(3u/2), so one polynomial in u resolves phi spectrally.
    v, not w' = x v, is the second unknown because s = v(0) enters the inner
    conditions at order one that way; with w' it shows only at the scale
    x = 1e-6, and a (w, w') collocation on the same nodes got s wrong by
    1e-11 at N = 100 and 2e-10 at N = 140.

    The solve.  The initial slope s and the tail amplitude c are the two
    free parameters: the small-x series fixes w and v at the inner end, the
    Sommerfeld decay fixes them at the outer end (_chebyshev_newton).
    Newton's method starts from Sommerfeld's closed-form approximant and
    stops at a step below 1e-9, after four dense 204 x 204 solves; the
    table is the barycentric interpolant of w at 6000 log-spaced points,
    with the exact log-log slope dw/du = x v from the interpolant of v, so
    phi between the points is a cubic Hermite interpolant (UniversalTF.phi).
    Where numpy bundles OpenBLAS (its Linux wheels), that library is held
    at one thread meanwhile, so the digits do not depend on the thread
    count.  Elsewhere (macOS wheels, conda and distribution builds) nothing
    is pinned, and the last digits may move with the BLAS's thread count.
    At its peak the solve holds the 6000 x 101 interpolation matrix,
    4.6 MiB, and little else, about 4.9 MiB of numpy buffers in all:
    _barycentric_matrix builds it as its one array, and it is freed after
    its one product.

    The degree.  At N = 80 to 140, s agrees with Boyd's rational Chebyshev
    value -1.5880710226113753 (J. Comput. Appl. Math. 244, 2013) to better
    than 1e-14 and the last five Chebyshev coefficients of w are below
    3e-14; at N = 70, s is 6e-13 off, at N = 60 5e-11.  N = 100 keeps a
    margin on both sides.

    max_rms_residual is the largest residual of both equations, in the u
    variable, of the interpolant at the table points, which lie off the
    collocation nodes.
    """
    w, v, s, c = _chebyshev_newton()
    x = np.geomspace(_BVP_X0, _BVP_XEND, 6000)
    u = np.log(x)
    # the interpolants of w and v and their derivatives, at the table points
    on_nodes = np.column_stack([w, v, _U_DIFF @ w, _U_DIFF @ v])
    w_t, v_t, dw_t, dv_t = (_barycentric_matrix(_U_NODES, _U_WEIGHTS, u) @ on_nodes).T
    residual = np.maximum(
        np.abs(dw_t - x * v_t), np.abs(dv_t - x * (np.exp(0.5 * (w_t - u)) - v_t**2))
    )
    return UniversalTF(
        x=x,
        phi_table=np.exp(w_t),
        slope_table=x * v_t,
        initial_slope=s,
        tail_coefficient=c,
        max_rms_residual=float(np.max(residual)),
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

    def v52_integral(self) -> float:
        """int V^(5/2) d^3x in closed form, with no quadrature.

        With r = l x, int V^(5/2) d^3x = 4 pi z^(5/2) l^(1/2) J, where
        J = int phi^(5/2) x^(-1/2) dx.  Multiply phi'' = phi^(3/2) x^(-1/2)
        by x phi' and integrate by parts on both sides:
        -(1/2) int phi'^2 = -(1/5) J.  Multiply it by phi instead:
        J = int phi phi'' = -phi(0) phi'(0) - int phi'^2 = -s - (2/5) J.
        So J = -5s/7; every boundary term vanishes, as phi(0) = 1 and
        phi ~ 144 x^-3 at infinity.  Since z l^3 = l_1^3, the value is
        z^(7/3) times its z = 1 value 4 pi l_1^(1/2) J, formed in that order
        as atomic_tf's energies are, so no intermediate leaves the normal
        floats anywhere in Z_RANGE.
        """
        j52 = -5.0 * self.universal.initial_slope / 7.0
        return self.z ** (7.0 / 3.0) * (4.0 * np.pi * np.sqrt(_ELL_1) * j52)

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
    g = r**2 * f
    q = np.concatenate([[0.0], np.cumsum(np.diff(r) * (g[1:] + g[:-1]) / 2.0)])
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

    # energy integrals in universal coordinates, exact by the virial
    # identities of the module docstring; D(rho) stays a quadrature, so
    # E_TF = (3/7) s z^2 / l and D = -E_TF / 3 remain checks on it
    s = uni.initial_slope
    j32 = -s
    j52 = -5.0 * s / 7.0

    # each energy is its z = 1 value times z^(7/3): with r = l x and
    # z l^3 = l_1^3, D(rho) = z^(7/3) l_1^2 D(DENSITY_CONST (phi/x)^(3/2))
    # in x, so no z^3 or subnormal integrand is ever formed
    scale = 4.0 * np.pi * np.sqrt(_ELL_1)
    kinetic = TF_KINETIC_CONST * DENSITY_CONST ** (5.0 / 3.0) * scale * j52
    attraction = DENSITY_CONST * scale * j32
    x_d = np.geomspace(1e-8, _BVP_XEND, 6000)
    d_1 = _ELL_1**2 * coulomb_energy_D(x_d, DENSITY_CONST * (uni.phi(x_d) / x_d) ** 1.5)
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
