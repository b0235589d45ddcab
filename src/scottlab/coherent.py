"""Gaussian-smeared coherent operators on a 1D grid.

The objects here realize, at desk scale, a coherent-state calculus with an
adjustable localization parameter a between h and 1/h: the smeared
operators G_{u,q} with kernel

    (pi h)^{-1/2} exp(-a((x+y)/2 - u)^2 + i q (x-y)/h - (x-y)^2/(4 h^2 a)),

their resolution of the identity, the first-order operator-valued symbol of
F(-ih d/dx) + V(x), the measured error of representing a Schrodinger
operator through them, and trial density matrices assembled from sharp
negative-part projections of linearized symbols.

Matrix conventions: operators act on function values over a Grid1D, so
integral kernels carry a factor dx while multipliers and diagonals do not.
Momentum is realized as a discrete Fourier multiplier on the periodic
extension of the grid; phase-space q sums in the representation check run
over the grid's own conjugate lattice q_m = 2 pi h m/(N dx), which makes the
momentum side of the assembly exact.  The remaining artifacts are position
boundary wrap and symbol folding at the lattice momentum boundary; the error
measurement masks both out (margins documented on the function).  The trial
density has no momentum lattice: each node is taken on the line in closed
form and sampled on the grid, with no eigensolve, its projection integrated
by a Gauss-Legendre rule sized to the node's own window below its cut.
_node_columns lays the columns of a row's nodes on one ragged axis and cuts
it into blocks by columns, so each block is a few large array operations
and one matrix product: the modulus of every entry is one real exp of its
summed exponent, which keeps Gaussian factors from overflowing, and the
phase, of modulus one in every factor, is split safely into a per-node
factor, taken once per node, and coarse x fine tables, a few complex
exponentials per column in place of one per grid point.

The real Gaussian factor A_u of G_{u,q}, with the weight dx, is a Toeplitz
factor in x - y times a Hankel factor in x + y: A_u[i, j] = T[i-j] M_u[i+j],
with T = (pi h)^{-1/2} dx exp(-(x_i - x_j)^2/(4 h^2 a)) and
M_u[s] = exp(-a(x_0 + s dx/2 - u)^2).  T remains for the u-integrated terms
of both identity checks (below).  The representation check's per-node terms
take A_u in its Mehler form: in xi = (x - u)/sqrt(h) the kernel is
exp(-ha ((xi + eta)/2)^2 - (xi - eta)^2/(4 ha)), by Mehler's formula
(Folland, Harmonic Analysis in Phase Space, 1989, ch. 1) a thermal state
rho^N of the harmonic oscillator centred at u, rho = (1 - ha)/(1 + ha), so

    A_u = g_u g_u^T,  g_u[i, k] = (2 dx sqrt(a)/(1 + ha))^{1/2} rho^{k/2} phi_k(xi_i),

with phi_k the normalized Hermite functions.  The sum is cut at
K = ceil(60 ln 2/ln(1/rho)) terms, so rho^K <= 2^-60 leaves the truncation at
roundoff of A_u's O(1) scale (K = 1 where rho rounds to 0, the rank-one
limit ha -> 1): K = 18, 21 and 28 at h = 0.4, 0.25 and 0.1 with
a = h^(-4/5).

The u integrals of both identities integrate M_u[x+y] M_u[y'+z]
= exp(-a(m1-m2)^2/2) exp(-2a(u-(m1+m2)/2)^2), an exact Gaussian in u of
variance 1/(4a), whatever kernel sits between the two factors.  Where
nothing else depends on u (the resolution of the identity and the F term
of the representation check) the integral over the whole line is done in
closed form, sqrt(pi/(2a)) for every centre.  The representation check's
other terms carry the symbol's u-dependence and keep a trapezoid sum: the
rule with step du aliases such a Gaussian by at most 2 exp(-pi^2/(2a du^2))
relative (Trefethen & Weideman, The exponentially convergent trapezoidal
rule, SIAM Review 56, 2014), so the u step du = 0.365/sqrt(a) of _u_step
puts the bound at 2 exp(-37) = 1.6e-16, the roundoff floor.  The q sum of
the resolution check is a Dirichlet kernel, not a Gaussian, and keeps the
step min(h, 1/sqrt(a))/6 of _phase_rule; over the nodes q_m = -Q + m delta,
m < N, it has the closed form sum_m cos(q_m d/h) = sin(N phi)/sin(phi),
phi = delta d/(2h), with delta the step linspace itself uses and phi
reduced by the nearest multiple of pi (_dirichlet_kernel).
"""

from __future__ import annotations

import math
import warnings as _warnmod
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
from numpy import fft  # at import: numpy would load it in the first command
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import Grid1D, GridOperator, _pinned_map, require_positive

__all__ = [
    "ClassicalSymbol",
    "CoherentParams",
    "PhasePoint",
    "fourier_multiplier_matrix",
    "gaussian_moment_cancellation",
    "harmonic_symbol",
    "momentum_lattice",
    "representation_error_norm",
    "resolution_of_identity_check",
    "schrodinger_operator",
    "trial_density_matrix",
    "weight_w",
]


@dataclass(frozen=True)
class CoherentParams:
    """Semiclassical parameter h and localization parameter a, with b derived.

    Phase space is R x R, the paper's dimension n = 1.  The weight w needs
    a < 1/h strictly.  b = 2a/(1 + h^2 a^2) satisfies b <= 1/h with equality
    exactly at a = 1/h.  The error-optimal rule a = h^(-4/5) is the CLI's
    default --a-rule.
    """

    h: float
    a: float

    def __post_init__(self):
        require_positive(self.h, "h")
        if not 0 < self.a < 1.0 / self.h:
            raise ValueError("need 0 < a < 1/h for the weight to exist")

    @property
    def b(self) -> float:
        return 2.0 * self.a / (1.0 + (self.h * self.a) ** 2)


@dataclass(frozen=True)
class PhasePoint:
    """A point (u, q) of phase space; scalars in the 1D realization."""

    u: float
    q: float

    def __post_init__(self):
        if not (np.isfinite(self.u) and np.isfinite(self.q)):
            raise ValueError("phase-space components must be finite")


@dataclass(frozen=True)
class ClassicalSymbol:
    """Separable symbol sigma(u, q) = F(q) + V(u) with derivative data.

    First and second derivatives are callables.  Each callable takes a
    scalar or an array of nodes and acts elementwise.  trial_density_matrix
    and representation_error_norm call each on whole node arrays in the
    calling thread, so a symbol's exception surfaces before any node work.
    """

    F: Callable
    dF: Callable
    d2F: Callable
    V: Callable
    dV: Callable
    d2V: Callable

    def laplacian(self, u, q):
        return self.d2F(q) + self.d2V(u)


def harmonic_symbol(offset: float = 0.0) -> ClassicalSymbol:
    """sigma = q^2 + u^2 + offset; third derivatives vanish."""
    return ClassicalSymbol(
        F=lambda q: np.asarray(q) ** 2,
        dF=lambda q: 2.0 * np.asarray(q),
        d2F=lambda q: 2.0 * np.ones_like(np.asarray(q, dtype=float)),
        V=lambda u: np.asarray(u) ** 2 + offset,
        dV=lambda u: 2.0 * np.asarray(u),
        d2V=lambda u: 2.0 * np.ones_like(np.asarray(u, dtype=float)),
    )


def momentum_lattice(grid: Grid1D, h: float) -> np.ndarray:
    """Conjugate momenta 2 pi h m/(N dx) in FFT order."""
    return 2.0 * math.pi * h * fft.fftfreq(grid.size, d=grid.spacing)


def fourier_multiplier_matrix(values: np.ndarray) -> np.ndarray:
    """Dense Fourier multiplier with one value per lattice momentum, in FFT
    order, on as many grid values: ifft(values)[(i - j) mod n], n = values.size."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("multiplier values must be one-dimensional")
    kernel = fft.ifft(values)
    return _toeplitz(np.concatenate((kernel[1:], kernel)))


def schrodinger_operator(
    sym: ClassicalSymbol, grid: Grid1D, h: float
) -> GridOperator:
    """F(-ih d/dx) as a periodic Fourier multiplier plus the diagonal V."""
    q = momentum_lattice(grid, h)
    mat = fourier_multiplier_matrix(np.asarray(sym.F(q), dtype=float))
    mat = mat + np.diag(np.asarray(sym.V(grid.points), dtype=float))
    mat = 0.5 * (mat + mat.conj().T)
    return GridOperator(matrix=mat, grid=grid, h=h)


def weight_w(p: CoherentParams, u, q):
    """Normalized Gaussian weight (a/(pi(1-ha))) exp(-a(u^2+q^2)/(1-ha))."""
    alpha = p.a / (1.0 - p.h * p.a)
    us, qs = np.asarray(u, dtype=float), np.asarray(q, dtype=float)
    val = (p.a / (math.pi * (1.0 - p.h * p.a))) * np.exp(
        -alpha * (us**2 + qs**2)
    )
    return val if (np.ndim(u) or np.ndim(q)) else float(val)


def _factor_rank(p: CoherentParams) -> int:
    """Rank K of the Hermite factor of A_u: the least K with rho^K <= 2^-60
    for rho = (1 - ha)/(1 + ha), and 1 where rho rounds to 0."""
    rho = (1.0 - p.h * p.a) / (1.0 + p.h * p.a)
    if rho <= 0.0:
        return 1
    return math.ceil(60.0 * math.log(2.0) / math.log(1.0 / rho))


def _hermite_factor(p: CoherentParams, grid: Grid1D, us: np.ndarray) -> np.ndarray:
    """g of shape (n, us.size, K), K = _factor_rank(p), with g[:, j] g[:, j]^T
    = A_u for u = us[j] (module docstring):

        g_u[i, k] = (2 dx sqrt(a)/(1 + ha))^{1/2} rho^{k/2} phi_k((x_i - u)/sqrt(h)),

    the Hermite functions phi_k by their three-term recurrence, with the
    weight rho^{k/2} folded into it.  Where phi_0 = pi^{-1/4} exp(-xi^2/2)
    nears the bottom of the normal floats, the start is lifted by a factor e^lift
    and the values brought down by it at the end, with the lift lowered in
    steps wherever a value grows past 1e250, so no entry that carries
    weight is lost to underflow."""
    ha = p.h * p.a
    rho = (1.0 - ha) / (1.0 + ha)
    rank = _factor_rank(p)
    xi = (grid.points[:, None] - us[None, :]) / math.sqrt(p.h)
    lift = np.maximum(0.5 * xi * xi - 600.0, 0.0)
    lifted = bool(lift.any())
    norm = math.sqrt(2.0 * grid.spacing * math.sqrt(p.a) / (1.0 + ha)) * math.pi**-0.25
    g = np.empty(xi.shape + (rank,))
    g[..., 0] = norm * np.exp(lift - 0.5 * xi * xi)
    if rank > 1:
        np.multiply(math.sqrt(2.0 * rho) * xi, g[..., 0], out=g[..., 1])
    for k in range(1, rank - 1):
        nxt = g[..., k + 1]
        np.multiply(math.sqrt(2.0 * rho / (k + 1)) * xi, g[..., k], out=nxt)
        nxt -= rho * math.sqrt(k / (k + 1)) * g[..., k - 1]
        if lifted:
            big = np.abs(nxt) > 1e250
            if big.any():
                g[big] *= 1e-250
                lift[big] -= 250.0 * math.log(10.0)
    if lifted:
        g *= np.exp(-lift)[..., None]
    return g


def _toeplitz(values: np.ndarray) -> np.ndarray:
    """Matrix M[i, j] = values[n - 1 + i - j] from the 2n - 1 values of a
    function on the differences -(n - 1) .. n - 1: a copy of the strided
    view whose row i is values[n - 1 + i], values[n - 2 + i], ..., so no
    n x n index array is built."""
    n = (values.size + 1) // 2
    return sliding_window_view(values[::-1], n)[::-1].copy()


def _u_integrated_square(p: CoherentParams, grid: Grid1D) -> np.ndarray:
    """int A_u A_u du over the whole u line, in closed form.

    A_u[i, j] = T[i-j] M_u[i+j] with the Toeplitz factor
    T = (pi h)^{-1/2} dx exp(-(x_i - x_j)^2/(4 h^2 a)) (module docstring).
    With m1 = (x+y)/2 and m2 = (y+z)/2 the exponents of the M_u factors
    combine as -a(m1-u)^2 - a(m2-u)^2 = -2a(u - (m1+m2)/2)^2 - a(x-z)^2/8,
    and the Gaussian integrates to sqrt(pi/(2a)) whatever its centre, so

        int A_u A_u du = sqrt(pi/(2a)) exp(-a(x-z)^2/8) (T T)[x, z].
    """
    dx, n = grid.spacing, grid.size
    squares = (dx * np.arange(1 - n, n)) ** 2
    t = (math.pi * p.h) ** (-0.5) * dx * _toeplitz(
        np.exp(-squares / (4.0 * p.h**2 * p.a))
    )
    return math.sqrt(math.pi / (2.0 * p.a)) * _toeplitz(
        np.exp(-p.a * squares / 8.0)
    ) * (t @ t)


def _u_step(p: CoherentParams) -> float:
    """u step of the representation check: 0.365/sqrt(a), where the trapezoid
    aliasing bound 2 exp(-pi^2/(2a du^2)) of its Gaussian u-integrand is
    1.6e-16."""
    return 0.365 / math.sqrt(p.a)


# entries (grid points x u-nodes x rank) of one block of Hermite factors in
# representation_error_norm: 1 MiB, 32 u-nodes at n = 193, K = 21
_FACTOR_ENTRIES = 1 << 17


def _phase_rule(p: CoherentParams) -> float:
    """q step of the resolution check; twice it is the trial density's node step."""
    return min(p.h, 1.0 / math.sqrt(p.a)) / 6.0


def _resolution_nodes(p: CoherentParams, grid: Grid1D) -> np.ndarray:
    """q-nodes of resolution_of_identity_check, at step at most _phase_rule(p):
    2 ceil(q_half/step) + 1 >= 61 of them, as q_half/step >= 42/sqrt(2)."""
    q_half = math.pi * p.h / grid.spacing + 7.0 / math.sqrt(2.0 * p.a)
    count = 2 * int(math.ceil(q_half / _phase_rule(p))) + 1
    return np.linspace(-q_half, q_half, count)


def _dirichlet_kernel(count: int, step: float, d: np.ndarray, h: float) -> np.ndarray:
    """sum_m cos(q_m d/h) over q_m = (m - (N - 1)/2) step, m < N = count, in
    closed form: sin(N phi)/sin(phi), phi = step d/(2h).  phi is
    reduced to psi = phi - k pi, k = round(phi/pi), so the aliasing peaks at
    phi = k pi are taken where they lie: the sum is
    (-1)^(k(N-1)) sin(N psi)/sin(psi), and N (-1)^(k(N-1)) where psi = 0."""
    phi = step * d / (2.0 * h)
    k = np.round(phi / math.pi)
    psi = phi - k * math.pi
    ratio = np.divide(
        np.sin(count * psi), np.sin(psi),
        out=np.full_like(psi, float(count)), where=psi != 0.0,
    )
    return np.where(k * (count - 1) % 2 == 0.0, ratio, -ratio)


def resolution_of_identity_check(
    p: CoherentParams, psi: np.ndarray, grid: Grid1D
) -> float:
    """Relative L2 deviation of the quadratured resolution of the identity.

    Computes int G_{u,q}^2 psi du dq/(2 pi h) and compares with psi.  The u
    integral is exact: the exponent identity in _u_integrated_square gives
    M = int A_u A_u du in closed form.  The q sum runs over uniform nodes
    spanning the lattice momenta plus seven widths 1/sqrt(2a) per side at
    step at most min(h, 1/sqrt(a))/6, and enters through its Dirichlet
    kernel S in the difference variable d, taken in closed form by
    _dirichlet_kernel: sin(N phi)/sin(phi) for N nodes, phi = delta d/(2h),
    delta = (q_{N-1} - q_0)/(N - 1) the exact step of the nodes, and phi
    reduced to psi = phi - k pi with k = round(phi/pi), so the aliasing
    peaks give (-1)^(k(N-1)) sin(N psi)/sin(psi), and N (-1)^(k(N-1)) at
    psi = 0.  The same delta weights the sum.  That is O(n) work in place
    of N (2n - 1) cosines; the check is (M o S) psi.  The nodes are those
    of _resolution_nodes, at least 61.
    """
    psi = np.asarray(psi)
    if psi.shape != (grid.size,):
        raise ValueError("test vector must live on the grid")
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        return 0.0

    qs = _resolution_nodes(p, grid)
    dq = (qs[-1] - qs[0]) / (qs.size - 1)  # linspace's step, not qs[1] - qs[0]
    dx = grid.spacing

    # Dirichlet kernel of the q sum on the difference lattice
    diffs = dx * np.arange(-(grid.size - 1), grid.size)
    s_vec = _dirichlet_kernel(qs.size, dq, diffs, p.h) * dq / (2.0 * math.pi * p.h)
    s_mat = _toeplitz(s_vec)

    out = (_u_integrated_square(p, grid) * s_mat) @ psi
    return float(np.linalg.norm(out - psi) / norm)


def _symbol_half(f: Callable, d2f: Callable, t, b: float) -> np.ndarray:
    """Half of the first-order symbol with its curvature counterterm, f + f''/(4b):
    the momentum half for (F, F'') at q, the position half for (V, V'') at u."""
    return np.asarray(f(t), dtype=float) + np.asarray(d2f(t), dtype=float) / (4.0 * b)


def _mirror_symmetric(t: np.ndarray, half: np.ndarray, slope: np.ndarray) -> bool:
    """Whether the nodes t are bitwise t == -t[::-1] and, on them, the symbol
    half f + f''/(4b) is bitwise even and the slope f' bitwise odd."""
    return (
        np.array_equal(t, -t[::-1])
        and np.array_equal(half, half[::-1])
        and np.array_equal(slope, -slope[::-1])
    )


def _representation_u_nodes(p: CoherentParams, grid: Grid1D) -> np.ndarray:
    """u-nodes of representation_error_norm: the grid range plus seven widths
    1/sqrt(2a) per side, at step _u_step(p)."""
    sigma = 1.0 / math.sqrt(2.0 * p.a)
    x, du = grid.points, _u_step(p)
    return np.arange(x[0] - 7.0 * sigma, x[-1] + 7.0 * sigma + du, du)


def _edge_reach(p: CoherentParams) -> float:
    """Six reach lengths h sqrt(a) of the smearing kernel: the least edge
    margin of representation_error_norm's core window."""
    return 6.0 * p.h * math.sqrt(p.a)


def _core_window(p: CoherentParams, n: int, dx: float) -> tuple[int, float]:
    """Edge margin in points and momentum cut of the core on which
    representation_error_norm measures (rules on that function); ValueError
    when an n-point grid of spacing dx leaves no core."""
    reach = _edge_reach(p)
    margin = max(int(round(0.1 * n)), int(math.ceil(reach / dx)), 1)
    if 2 * margin >= n:
        raise ValueError(
            "grid too short for the edge margin; extend it past "
            f"{reach:.3g} on each side of the region of interest"
        )
    smear = 0.5 * math.sqrt(p.h * p.h * p.a + 1.0 / p.a)
    q_cut = math.pi * p.h / dx - 8.0 * smear
    if q_cut <= 0:
        raise ValueError(
            "grid spacing too coarse to leave a band below the momentum "
            "boundary; refine the grid"
        )
    return margin, q_cut


def _factor_sums(
    sym: ClassicalSymbol, p: CoherentParams, grid: Grid1D, us: np.ndarray,
    qs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The two u-node sums of representation_error_norm from the Hermite
    factors g_u of A_u (rules there), per unit du: the diagonal of
    sum_u A_u c_u A_u for the weight-1 symbol c_u = V + V''/4b + V' (x - u),
    and sum_u A_u P A_u for the spectral momentum P on the lattice qs.
    The factors come in blocks of at most _FACTOR_ENTRIES entries, whose
    arrays are freed on return."""
    x, n = grid.points, grid.size
    # P = i S_P + (q_N/n) s s^T, the Nyquist term on even grids only; S_P
    # is copied out of the complex kernel, which a view would keep alive
    s_p = np.ascontiguousarray(fourier_multiplier_matrix(qs).imag)
    sign = (-1.0) ** np.arange(n)

    v_half = _symbol_half(sym.V, sym.d2V, us, p.b)
    v_slope = np.asarray(sym.dV(us), dtype=float)

    rank = _factor_rank(p)
    t1_diag = np.zeros(n)
    a_sp_a = np.zeros((n, n))
    a_s = np.empty((us.size, n))
    per_block = max(1, _FACTOR_ENTRIES // (n * rank))
    for lo in range(0, us.size, per_block):
        nodes = slice(lo, lo + per_block)
        g = _hermite_factor(p, grid, us[nodes])
        m = g.shape[1]
        flat = g.reshape(n, m * rank)
        g_u, g_u_t = g.transpose(1, 0, 2), g.transpose(1, 2, 0)
        # weight-1 q sum collapses to the exact diagonal projection
        c_diag = v_half[nodes] + v_slope[nodes] * (x[:, None] - us[nodes])
        inner = g_u_t @ (c_diag[..., None] * g).transpose(1, 0, 2)
        t1_diag += np.einsum("unk,unk->n", g_u @ inner, g_u)
        inner = g_u_t @ (s_p @ flat).reshape(n, m, rank).transpose(1, 0, 2)
        a_sp_a += (g_u @ inner).transpose(1, 0, 2).reshape(n, m * rank) @ flat.T
        if n % 2 == 0:
            a_s[nodes] = (g_u @ (sign @ flat).reshape(m, rank, 1))[..., 0]
    apa = 1j * a_sp_a
    if n % 2 == 0:
        apa += qs[n // 2] / n * (a_s.T @ a_s)
    return t1_diag, apa


def representation_error_norm(
    sym: ClassicalSymbol, p: CoherentParams, grid: Grid1D
) -> float:
    """Spectral norm of int G Hhat G du dq/(2 pi h) minus F(-ih d/dx) + V.

    q runs over the grid's conjugate lattice, so for each u the three q sums
    (weights 1, F + F''/4b, F') are exact circulant kernels.  The F term
    needs only int A_u A_u du, which _u_integrated_square gives in closed
    form.  The weight-1 and F' terms carry the symbol's u-dependence, so
    their u integral is a plain trapezoid over the grid range plus seven
    Gaussian widths 1/sqrt(2a), at the step of _u_step, whose aliasing
    bound is at roundoff (module docstring).  The F' term needs sum_u du
    A_u P A_u for the spectral momentum P = i S_P + (q_N/n) s s^T, where S_P
    is the real antisymmetric sine kernel of the paired lattice momenta
    +-q_m and, on an even grid, q_N is the unpaired Nyquist momentum with
    s_j = (-1)^j.  With A_u = g_u g_u^T, the Mehler factor of the module
    docstring, a node's terms shrink to K x K inner matrices, g_u^T (c o g_u)
    for the weight-1 diagonal and g_u^T S_P g_u for the F' term, and to
    g_u (g_u^T s) for the Nyquist term.  The nodes' factors are stacked in
    blocks of at most _FACTOR_ENTRIES entries, so the F' sum comes out of a
    few large products: about 2 n^2 K multiply-adds per node in place of the
    2 n^3 of dense products.  K grows like 21/(ha) as ha falls, and the
    factor saves work only while K < n.  The block sums run in
    _factor_sums, which holds the check's peak: one block of factors and
    its products, a few times _FACTOR_ENTRIES floats, next to the real
    n x n sum and S_P.  The complex n x n target and q-sum kernels are built
    only after it returns, and the sum is assembled in place: 3.8 MiB of
    numpy buffers in all at n = 193, coherent-check's h = 0.25 grid.

    The difference is measured on a core window: at least 10% of the grid is
    dropped per side, widened to six reach lengths h sqrt(a) of the
    smearing kernel, because rows closer to the edge than the kernel reach
    lose Gaussian mass and that breakage couples to the symbol at the
    lattice Nyquist momentum.  Momentum gets the matching treatment: the
    sandwich smears the symbol over a width sqrt(h^2 a + 1/a)/2 in q, and
    near the lattice momentum boundary the smeared symbol folds back into
    the zone, an artifact of order q_max times the smearing width that would
    swamp the h^2-scale residual.  Modes within eight smearing widths of the
    boundary are excluded from the reported norm.
    """
    dx, n = grid.spacing, grid.size
    if dx > min(p.h, 1.0 / math.sqrt(p.b)) / 3.0:
        _warnmod.warn(
            "grid spacing does not resolve min(h, 1/sqrt(b))/3; "
            "representation measurement may be polluted",
            stacklevel=2,
        )
    margin, q_cut = _core_window(p, n, dx)

    qs = momentum_lattice(grid, p.h)
    du = _u_step(p)
    us = _representation_u_nodes(p, grid)
    t1_diag, apa = _factor_sums(sym, p, grid, us, qs)
    target = schrodinger_operator(sym, grid, p.h).matrix

    # circulant kernels of the conjugate-lattice q sums; assembled =
    # diag + (int A_u A_u du) o s_f + (du apa) o s_df goes into s_f's
    # array, operation by operation in that order, so its bits are those
    # of the expression written out
    s_f = fourier_multiplier_matrix(_symbol_half(sym.F, sym.d2F, qs, p.b))
    s_f /= dx
    assembled = np.multiply(_u_integrated_square(p, grid), s_f, out=s_f)
    np.add(np.diag(du / dx * t1_diag), assembled, out=assembled)
    s_df = fourier_multiplier_matrix(np.asarray(sym.dF(qs), dtype=float))
    s_df /= dx
    np.multiply(du, apa, out=apa)
    apa *= s_df
    assembled += apa

    assembled -= target
    window = slice(margin, n - margin)
    diff = 0.5 * (assembled + assembled.conj().T)
    core = diff[window, window]

    m = core.shape[0]
    q_core = 2.0 * math.pi * p.h * fft.fftfreq(m, d=dx)
    keep = np.abs(q_core) <= q_cut
    # unitary conjugation by the window DFT, then drop zone-edge modes
    rotated = fft.fft(fft.ifft(core, axis=1), axis=0)
    band = rotated[np.ix_(keep, keep)]
    band = 0.5 * (band + band.conj().T)
    return float(np.max(np.abs(np.linalg.eigvalsh(band))))


def gaussian_moment_cancellation(
    sym: ClassicalSymbol, p: CoherentParams, pt: PhasePoint
) -> float:
    """Centered second-moment identity for a quadratic symbol.

    Integrates [Laplacian sigma/(4b) - (1/2) Hess-quadratic-form] against
    G_b(u - u0) G_b(q - q0); the Gaussian second moment 1/(2b) per direction
    makes the result vanish for symbols with constant Hessian.  Returns the
    quadrature value, which should be 0 to high accuracy.
    """
    b = p.b
    half = 9.0 / math.sqrt(2.0 * b)
    nodes = 801
    t = np.linspace(-half, half, nodes)
    dt = t[1] - t[0]
    g = (b / math.pi) ** 0.5 * np.exp(-b * t**2)
    m0 = float(np.sum(g) * dt)
    m2 = float(np.sum(t**2 * g) * dt)
    lap = float(sym.laplacian(pt.u, pt.q))
    hess_u = float(sym.d2V(pt.u))
    hess_q = float(sym.d2F(pt.q))
    return lap / (4.0 * b) * m0 * m0 - 0.5 * (hess_u + hess_q) * m2 * m0


def _trial_nodes(
    sym: ClassicalSymbol, p: CoherentParams, grid: Grid1D, support_radius: float
):
    """u-nodes, q-nodes and their common step for trial_density_matrix.

    Both lattices are the integer multiples of step = 2 _phase_rule(p), so
    they are anchored at 0 and the u-nodes are symmetric about it.  The
    u-nodes are the multiples inside [-R, R] for R = support_radius; a node
    within 1e-12 relative of |u| = R is kept (trial_density_matrix gives it
    trapezoid weight 1/2).  The q-nodes run from floor(q_lo/step) to
    ceil(q_hi/step) times step for the span [q_lo, q_hi] = [q_min - 10/sqrt(a),
    q_max + 10/sqrt(a)] over the classically negative set, scanned at 41
    support points over |q| <= 20.  The scan is mirrored exactly, so an even
    symbol gets q-nodes with qs == -qs[::-1] bitwise; a symbol negative
    nowhere keeps the span about q = 0.
    """
    step = 2.0 * _phase_rule(p)
    k_max = math.floor(support_radius / step * (1.0 + 1e-12))
    us = step * np.arange(-k_max, k_max + 1)

    q_mags = np.linspace(0.0, 20.0, 2001)
    q_scan = np.concatenate((-q_mags[::-1], q_mags))
    u_scan = np.linspace(-support_radius, support_radius, 41)
    # rounded addition is monotone, so V(u) + F(q) < 0 at some scanned u
    # exactly where min_u V + F(q) < 0 (fmin skips NaN, as the test < 0 does)
    v_min = np.fmin.reduce(np.asarray(sym.V(u_scan), dtype=float))
    sigma_min = v_min + np.asarray(sym.F(q_scan), dtype=float)
    if sigma_min[0] < 0.0 or sigma_min[-1] < 0.0:
        raise ValueError(
            "symbol still negative at |q| = 20, the end of the momentum scan"
        )
    neg = q_scan[sigma_min < 0.0]
    q_min, q_max = (float(neg[0]), float(neg[-1])) if neg.size else (0.0, 0.0)
    margin = 10.0 / math.sqrt(p.a)
    q_lo, q_hi = q_min - margin, q_max + margin
    qs = step * np.arange(math.floor(q_lo / step), math.ceil(q_hi / step) + 1)

    if math.pi * p.h / grid.spacing < max(abs(q_lo), abs(q_hi)):
        _warnmod.warn(
            "grid Nyquist momentum below the phase-space q range; "
            "trial density under-resolved",
            stacklevel=3,
        )
    return us, qs, step


# a trial-density node's t rule: Gauss-Legendre on [-W, min(cut, W)] with
# W = _T_WIDTHS/sqrt(2b), at the density of _T_POINTS points per whole
# window, which integrates a whole window's Gaussian to roundoff for h >= 0.05
_T_WIDTHS = 9.0
_T_POINTS = 48
# entries (grid points x columns) of one block of node columns, which bounds
# a row worker's memory: a complex block of 256 KiB, 192 columns on the
# 85-point grid of h = 0.5
_BLOCK_ENTRIES = 1 << 14


@cache
def _t_rules() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rules of 2, 4, ...,
    _T_POINTS points on [-1, 1], end to end: the m-point rule starts at
    m (m - 2)/4, its nodes ascending.  Built on first use, so importing the
    module costs none.

    The m-point rule's nodes are the roots of the Legendre polynomial P_m,
    symmetric about 0, and its weights w = 2/((1 - x^2) P_m'(x)^2)
    (Abramowitz & Stegun 25.4.29).  The positive roots of every rule are
    found at once by Newton's method on the three-term recurrence, as in
    Hale & Townsend (SIAM J. Sci. Comput. 35, A652, 2013), and mirrored
    onto the negative half:

    - root k = 1, ..., m/2 of P_m, largest first, starts from Tricomi's
      x_k = cos(pi (k - 1/4)/(m + 1/2)) (1 - (m - 1)/(8 m^3)), within
      1.3e-3 of it;
    - P_m at x comes from (n + 1) P_{n+1} = (2n + 1) x P_n - n P_{n-1},
      P_0 = 1, P_1 = x, and P_m' = m (x P_m - P_{m-1})/(x^2 - 1) from the
      same pair.  The roots are kept in order of m, so one recurrence to
      degree _T_POINTS serves them all: step n advances only the roots of
      the rules with m > n, and the others keep their P_m and P_{m-1};
    - Newton converges quadratically from the start: over every m <= 96
      (twice _T_POINTS) its steps are at most 1.3e-3, 1.4e-6, 1.6e-12 and
      1.1e-16, so the fourth is at roundoff.  The weights take P_m' at the
      converged roots, one more recurrence, and 1 - x^2 as (1 - x)(1 + x),
      whose factors are exact near x = 1.

    Against 40-digit references the nodes are within 1e-16, and the weights
    within 7e-14 relative at m <= 48 and 2.2e-13 at m <= 96, where those of
    numpy's leggauss are off by 1.3e-12 and 8.2e-12.  What is left is each
    node's rounding, which moves its weight 2x/(1 - x^2) times as much
    relative, most at the outermost node."""
    orders = np.arange(2, _T_POINTS + 1, 2)
    # the positive roots rule after rule, the m-point rule's from m (m - 2)/8
    first = orders * (orders - 2) // 8
    m = np.repeat(orders, orders // 2).astype(float)
    k = np.arange(m.size) - np.repeat(first, orders // 2) + 1.0
    x = np.cos(math.pi * (k - 0.25) / (m + 0.5)) * (1.0 - (m - 1.0) / (8.0 * m**3))

    def legendre():
        """P_m and P_m' at every root, each at its own m."""
        p_prev, p = np.ones_like(x), x.copy()
        for n in range(1, _T_POINTS):
            lo = (n // 2) * (n // 2 + 1) // 2  # the roots of the rules of m <= n
            p_next = ((2 * n + 1) * x[lo:] * p[lo:] - n * p_prev[lo:]) / (n + 1)
            p_prev[lo:] = p[lo:]
            p[lo:] = p_next
        return p, m * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))

    for _ in range(4):
        p, dp = legendre()
        x -= p / dp
    dp = legendre()[1]
    weight = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # end to end, rule by rule: -x_1, ..., -x_{m/2}, x_{m/2}, ..., x_1
    at = np.arange(orders.sum()) - np.repeat(2 * first, orders)
    size = np.repeat(orders, orders)
    root = np.repeat(first, orders) + np.minimum(at, size - 1 - at)
    return np.where(at < size // 2, -x[root], x[root]), weight[root]


def _phase_tables(
    theta: np.ndarray, x0: float, dx: float, step: int, coarse_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coarse and fine tables of e^{i theta_c xi} on xi = x0 + (step m + l) dx:
    coarse[m] = e^{i theta (x0 + step m dx)} for m < coarse_rows and
    fine[l] = e^{i theta l dx} for l < step, each (rows, theta.size)."""
    xi = np.concatenate((x0 + step * dx * np.arange(coarse_rows), dx * np.arange(step)))
    table = np.exp(np.multiply.outer(1j * xi, theta))
    return table[:coarse_rows], table[coarse_rows:]


def _node_columns(p: CoherentParams, grid: Grid1D, u, q, c0, v1, f1, weight):
    """Yield columns g, block by block, whose g g^H sum to
    sum_k weight_k dx G chi(hhat_k < 0) G over the nodes (u, q_k), for
    hhat_k = c0_k + v1 (x - u) + f1_k (-ih d/dx - q_k).  u is a scalar; q,
    c0, f1 and weight are arrays over the nodes, v1 a scalar or such an
    array.

    hhat = c0 + r L with r = hypot(v1, f1), L = c (x - u) + s (-ih d/dx - q)
    and (c, s) = (v1, f1)/r, or (1, 0) at r = 0, so chi(hhat < 0) projects
    onto the eigenfunctions e_t of L with t below the cut -c0/r (+inf for
    c0 < 0 at r = 0, else -inf): a half-line projection in metaplectic image
    (Folland, Harmonic Analysis in Phase Space, 1989, ch. 4).  With xi =
    x - u, A0 = a/4 + 1/(4 h^2 a), k = 1/(2 h^2 a) - a/2 and alpha = A0 s +
    i c/(2h), G e_t is, up to a phase constant in x, the Gaussian integral

        (2 pi h^2 |alpha|)^(-1/2) exp(xi^2 (s k^2/(4 alpha) - A0)
            + i k xi t/(2 h alpha) - A0 (t/(2 h |alpha|))^2 + i q xi/h),

    smooth through s = 0 (e_t a position delta).  Its mass in t is a
    Gaussian of variance 1/(2b) on the window [-W, W], W =
    _T_WIDTHS/sqrt(2b).  Node k takes t over the Gauss-Legendre rule of
    m_k = 2 ceil((_T_POINTS/2) (top_k + W)/(2W)) points on [-W, top_k],
    top_k = min(cut_k, W): the density of _T_POINTS points on the whole
    window, rounded up to an even count, each column weighted by
    sqrt(weight dx w).

    A node whose cut lies at or below -W has no columns and is dropped
    before any work; the others are taken in order, node after node, m_k
    columns each, their coefficients computed for all columns at once.  The
    columns are yielded in blocks of at most _BLOCK_ENTRIES entries (at
    least one column), cut by columns, so a node may straddle two blocks:
    g g^H is a sum over columns.  Nodes that all drop yield nothing.

    The modulus is one real exp of the real part of the exponent, summed in
    xi first (one product of [1, xi, xi^2] with its coefficients): its terms
    stay O(xi^2), where uncentred ones of order x^2/(h^2 a) would cancel,
    and separate factors could overflow or underflow.  The phase has
    modulus one in every factor, so it may be split without that risk:
    e^{i xi^2 Im(s k^2/(4 alpha)) + i xi (q/h + mid Im(k/(2 h alpha)))} per
    grid point and node, for t = half T + mid, taken once per node of a
    block and gathered per column, times e^{i omega T xi} with omega = half
    Im(k/(2 h alpha)).  With xi_i = xi_0 + i dx and i = B m + l, B =
    ceil(sqrt(n)), the latter is the product of the coarse and fine tables
    of _phase_tables, so a column takes about 2 sqrt(n) complex exponentials
    in place of n.
    """
    q, c0, f1, weight = (np.asarray(v, dtype=float) for v in (q, c0, f1, weight))
    r = np.hypot(v1, f1)
    moving = r > 0.0
    c = np.divide(v1, r, out=np.ones_like(r), where=moving)
    s = np.divide(f1, r, out=np.zeros_like(r), where=moving)
    cut = np.divide(-c0, r, out=np.where(c0 < 0.0, math.inf, -math.inf), where=moving)
    width = _T_WIDTHS / math.sqrt(2.0 * p.b)
    top = np.minimum(cut, width)
    live = top > -width
    if not live.all():
        q, c, s, top, weight = q[live], c[live], s[live], top[live], weight[live]
    sizes = 2 * np.ceil(_T_POINTS // 2 * (top + width) / (2.0 * width)).astype(int)
    # column -> node, and the column's place in the end-to-end rules
    node = np.repeat(np.arange(q.size), sizes)
    first = np.cumsum(sizes) - sizes
    at = np.arange(node.size) + np.repeat(sizes * (sizes - 2) // 4 - first, sizes)
    rule_nodes, rule_weights = _t_rules()
    unit_t = rule_nodes[at]
    half = 0.5 * (top + width)
    mid = 0.5 * (top - width)
    t = half[node] * unit_t + mid[node]
    h, a = p.h, p.a
    a0 = 0.25 * a + 0.25 / (h * h * a)
    alpha = a0 * s + 0.5j * c / h
    k = 0.5 / (h * h * a) - 0.5 * a
    quad = s * k * k / (4.0 * alpha) - a0
    slope = 0.5j * k / (h * alpha)
    reach = 2.0 * h * abs(alpha)
    scale = grid.spacing * weight * half / (math.pi * h * reach)
    # real exponent of each column as coefficients of [1, xi, xi^2]
    exponent = np.empty((3, node.size))
    exponent[0] = 0.5 * np.log(scale[node] * rule_weights[at])
    exponent[0] -= a0 * (t / reach[node]) ** 2
    np.multiply(slope.real[node], t, out=exponent[1])
    exponent[2] = quad.real[node]
    node_phase = np.stack((q / h + slope.imag * mid, quad.imag))
    theta = (slope.imag * half)[node] * unit_t
    powers = np.vander(grid.points - u, 3, increasing=True)

    n = grid.size
    step = math.isqrt(n - 1) + 1
    coarse_rows = -(-n // step)
    per_block = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, node.size, per_block):
        cols = slice(lo, lo + per_block)
        owner = node[cols]
        m = owner.size
        # the modulus fills the real slots of g and the imaginary ones are
        # zeroed; the rows past n pad g to whole coarse rows
        g = np.empty((coarse_rows, step, m), dtype=complex)
        rows = g.reshape(coarse_rows * step, m)
        slots = rows[:n].view(float).reshape(n, m, 2)
        np.matmul(powers, exponent[:, cols], out=slots[..., 0])
        np.exp(slots[..., 0], out=slots[..., 0])
        slots[..., 1] = 0.0
        rows[n:] = 0.0
        coarse, fine = _phase_tables(
            theta[cols], powers[0, 1], grid.spacing, step, coarse_rows
        )
        g *= coarse[:, None]
        g *= fine
        g = rows[:n]
        # each node's phase once, for the nodes the block holds columns of
        nodes = slice(owner[0], owner[-1] + 1)
        g *= np.exp(1j * (powers[:, 1:] @ node_phase[:, nodes]))[:, owner - owner[0]]
        yield g
        del g, rows, slots  # one block alive at a time, given the caller's del


def trial_density_matrix(
    sym: ClassicalSymbol,
    p: CoherentParams,
    grid: Grid1D,
    support_radius: float,
) -> GridOperator:
    """gamma = int G chi(hhat) G du dq/(2 pi h) with hhat linearized.

    hhat at (u, q) is the first-order symbol c0 + grad_u (x - u) + grad_q
    (-ih d/dx - q), with c0 = F + F''/(4b) at q plus V + V''/(4b) at u,
    grad_q = F'(q) and grad_u = V'(u), for |u| inside the support ball and
    zero outside, so only nodes inside contribute.  Each G chi G is taken on
    the line in closed form and sampled on the grid (_node_columns), with
    no eigensolve and no dependence on the box, over the eigenvalues below
    its cut by a t rule sized to that window.  A row hands its q-nodes to
    _node_columns at once, with the weight u_weight * mult of each folded
    into its columns, and takes their columns in blocks of at most
    _BLOCK_ENTRIES entries, one product part += g g^H per block, so a
    worker holds one block at a time; nodes that contribute nothing are
    dropped before any work.  gamma is a sum of such g g^H, so it is
    positive semidefinite by construction, and the
    resolution of the identity caps it at one plus quadrature error.  The
    nodes are the _trial_nodes lattices (a symbol still negative at
    |q| = 20 raises ValueError there).  The u sum is a trapezoid rule: a row
    on the support edge |u| = R (to 1e-12 relative) has weight 1/2, since
    hhat is cut to zero past it.

    Both symmetries below hold on the line, so neither needs an odd grid.
    Time reversal halves the work: when the q-nodes are symmetric, F +
    F''/(4b) bitwise even on them and F' bitwise odd, node (u, -q) is node
    (u, q) conjugated by K, the complex conjugation.  Each row then takes
    the q >= 0 nodes, q > 0 twice, and accumulates Re(g g^H) = [Re g, Im g]
    [Re g, Im g]^T in real arithmetic, so gamma is float64; other symbols
    run every q-node once and gamma is complex.

    Parity halves the rows.  On a grid whose points are symmetric about 0
    (x == -x[::-1] to 1e-12 dx: Grid1D.uniform(-L, L, n) is symmetric only
    to roundoff), when the u-rows satisfy us == -us[::-1] bitwise, V +
    V''/(4b) is bitwise even on them and V' bitwise odd, the reversal
    J: x -> -x gives hhat(-u, q) = J K hhat(u, q) K J, whatever F is, and
    the same for G.  Row -u then contributes conj(J part(u) J) =
    part[::-1, ::-1].conj(), so only the rows u >= 0 are computed and each
    row u > 0 adds its part and its mirror image.

    The symbol's callables run in the calling thread, on the scan points and
    once on each node lattice, so an exception they raise surfaces before
    any node work and the pairing tests read the values the rows use.
    The u-rows, by index, run through numerics._pinned_map, and workers run
    only array arithmetic.  Each row sums its own part block by block in q
    order, its blocks cut the same way whoever runs it, and the parts are
    added in u order as they arrive, so gamma is bitwise the same for any
    worker count and each part is freed once added.  Each projected
    state spreads about 1/sqrt(2a) in momentum, so the grid should put
    pi h/dx several such widths above the q range, or the sampled kernel
    aliases; the warning fires only at the bare q range.
    """
    require_positive(support_radius, "support radius")
    x, n = grid.points, grid.size
    us, qs, step = _trial_nodes(sym, p, grid, support_radius)
    f_half = _symbol_half(sym.F, sym.d2F, qs, p.b)
    f_slope = np.asarray(sym.dF(qs), dtype=float)
    v_half = _symbol_half(sym.V, sym.d2V, us, p.b)
    v_slope = np.asarray(sym.dV(us), dtype=float)

    paired = _mirror_symmetric(qs, f_half, f_slope)
    symmetric_x = np.allclose(x, -x[::-1], rtol=0.0, atol=1e-12 * grid.spacing)
    mirrored = symmetric_x and _mirror_symmetric(us, v_half, v_slope)
    rows = (np.flatnonzero(us >= 0.0) if mirrored else np.arange(us.size)).tolist()
    keep = qs >= 0.0 if paired else slice(None)
    mult = np.where(qs[keep] > 0.0, 2.0, 1.0) if paired else np.ones(qs.size)
    q_row, f0_row, f1_row = qs[keep], f_half[keep], f_slope[keep]
    dtype = float if paired else complex
    edge = np.abs(np.abs(us) - support_radius) <= 1e-12 * support_radius
    u_weights = np.where(edge, 0.5, 1.0) * step * step / (2.0 * math.pi * p.h)

    def row(i: int) -> np.ndarray:
        u, v0, v1, u_weight = us[i], v_half[i], v_slope[i], u_weights[i]
        part = np.zeros((n, n), dtype=dtype)
        for g in _node_columns(
            p, grid, u, q_row, f0_row + v0, v1, f1_row, u_weight * mult
        ):
            if paired:
                # Re(g g^H) = [Re g, Im g] [Re g, Im g]^T, the pairs interleaved
                g = g.view(float)
            part += g @ g.conj().T
            del g  # freed before the next block is built
        return part

    gamma = np.zeros((n, n), dtype=dtype)
    for i, part in zip(rows, _pinned_map(row, rows)):
        gamma += part
        if mirrored and us[i] > 0.0:
            gamma += part[::-1, ::-1].conj()
    return GridOperator(matrix=0.5 * (gamma + gamma.conj().T), grid=grid, h=p.h)
