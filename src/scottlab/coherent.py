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
measurement masks both out (margins documented on the function).

The real Gaussian factor A_u of G_{u,q} is a Toeplitz factor in x - y times a
Hankel factor in x + y: A_u[i, j] = T[i-j] M_u[i+j], with
T = (pi h)^{-1/2} dx exp(-(x_i - x_j)^2/(4 h^2 a)) built once per grid and
M_u[s] = exp(-a(x_0 + s dx/2 - u)^2) for s = 0..2n-2.  Every kernel here
takes A_u and T from that one template.
"""

from __future__ import annotations

import math
import warnings as _warnmod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import circulant, toeplitz

from .numerics import (
    Grid1D,
    GridOperator,
    _one_blas_thread,
    _row_workers,
    require_positive,
)

__all__ = [
    "ClassicalSymbol",
    "CoherentParams",
    "OperatorSymbol",
    "PhasePoint",
    "constant_symbol",
    "fourier_multiplier_matrix",
    "gaussian_moment_cancellation",
    "harmonic_symbol",
    "momentum_lattice",
    "new_kernel_G",
    "operator_symbol",
    "representation_error_norm",
    "resolution_of_identity_check",
    "schrodinger_operator",
    "trial_density_matrix",
    "weight_w",
]


@dataclass(frozen=True)
class CoherentParams:
    """Semiclassical parameter h and localization parameter a, with b derived.

    The weight w needs a < 1/h strictly.  b = 2a/(1 + h^2 a^2) satisfies
    b <= 1/h with equality exactly at a = 1/h.  a = None picks the
    error-optimal rule a = h^(-4/5).
    """

    h: float
    a: float | None = None
    n: int = 1

    def __post_init__(self):
        require_positive(self.h, "h")
        if self.a is None:
            object.__setattr__(self, "a", self.h ** (-0.8))
        if not 0 < self.a < 1.0 / self.h:
            raise ValueError("need 0 < a < 1/h for the weight to exist")
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("dimension n must be a positive integer")

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

    First and second derivatives are callables.
    """

    F: Callable
    dF: Callable
    d2F: Callable
    V: Callable
    dV: Callable
    d2V: Callable

    def sigma(self, u, q):
        return self.F(q) + self.V(u)

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


def constant_symbol(value: float) -> ClassicalSymbol:
    return ClassicalSymbol(
        F=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
        dF=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
        d2F=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
        V=lambda u: np.full_like(np.asarray(u, dtype=float), value),
        dV=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        d2V=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
    )


@dataclass(frozen=True)
class OperatorSymbol:
    """First-order operator model c0 + grad_u (x - u) + grad_q (-ih d/dx - q)."""

    c0: float
    grad_u: float
    grad_q: float
    point: PhasePoint


def momentum_lattice(grid: Grid1D, h: float) -> np.ndarray:
    """Conjugate momenta 2 pi h m/(N dx) in FFT order."""
    return 2.0 * math.pi * h * np.fft.fftfreq(grid.size, d=grid.spacing)


def fourier_multiplier_matrix(values: np.ndarray, n: int) -> np.ndarray:
    """Dense Fourier multiplier on n lattice values: ifft(values)[(i - j) mod n]."""
    values = np.asarray(values)
    if values.shape != (n,):
        raise ValueError("need one multiplier value per lattice momentum")
    return circulant(np.fft.ifft(values))


def schrodinger_operator(
    sym: ClassicalSymbol, grid: Grid1D, h: float
) -> GridOperator:
    """F(-ih d/dx) as a periodic Fourier multiplier plus the diagonal V."""
    q = momentum_lattice(grid, h)
    mat = fourier_multiplier_matrix(np.asarray(sym.F(q), dtype=float), grid.size)
    mat = mat + np.diag(np.asarray(sym.V(grid.points), dtype=float))
    mat = 0.5 * (mat + mat.conj().T)
    return GridOperator(matrix=mat, grid=grid, h=h)


def weight_w(p: CoherentParams, u, q):
    """Normalized Gaussian weight (a/(pi(1-ha)))^n exp(-a(u^2+q^2)/(1-ha))."""
    alpha = p.a / (1.0 - p.h * p.a)
    us, qs = np.asarray(u, dtype=float), np.asarray(q, dtype=float)
    val = (p.a / (math.pi * (1.0 - p.h * p.a))) ** p.n * np.exp(
        -alpha * (us**2 + qs**2)
    )
    return val if (np.ndim(u) or np.ndim(q)) else float(val)


def new_kernel_G(p: CoherentParams, pt: PhasePoint, x, y):
    """Kernel of the smeared coherent operator G_{u,q}."""
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    mid = 0.5 * (xs + ys) - pt.u
    diff = xs - ys
    val = (math.pi * p.h) ** (-p.n / 2.0) * np.exp(
        -p.a * mid**2
        + 1j * pt.q * diff / p.h
        - diff**2 / (4.0 * p.h**2 * p.a)
    )
    return val if (np.ndim(x) or np.ndim(y)) else complex(val)


def _gaussian_factor(p: CoherentParams, grid: Grid1D):
    """T and u -> A_u = T[i-j] M_u[i+j], the real part of G_{u,q} = E_q A_u E_q^*
    with the quadrature weight dx included (the template of the module
    docstring); each node costs the 2n-1 exponentials of M_u."""
    x, dx, n = grid.points, grid.spacing, grid.size
    t = (math.pi * p.h) ** (-0.5) * dx * toeplitz(
        np.exp(-((dx * np.arange(n)) ** 2) / (4.0 * p.h**2 * p.a))
    )
    mids = x[0] + 0.5 * dx * np.arange(2 * n - 1)

    def factor(u: float) -> np.ndarray:
        # hankel[i, j] = M_u[i + j]
        m_u = np.exp(-p.a * (mids - u) ** 2)
        return t * np.lib.stride_tricks.sliding_window_view(m_u, n)

    return t, factor


def _u_summed_square(
    p: CoherentParams, t: np.ndarray, grid: Grid1D, us: np.ndarray, du: float
) -> np.ndarray:
    """sum_u du A_u A_u over the nodes us, with the u sum done first.

    A_u[i, j] = T[i-j] M_u[i+j] is the template of _gaussian_factor.  With
    m1 = (x+y)/2 and m2 = (y+z)/2 the exponents of the M_u factors combine as
    -a(m1-u)^2 - a(m2-u)^2 = -2a(u - (x+2y+z)/4)^2 - a(x-z)^2/8, so

        sum_u du A_u A_u = exp(-a(x-z)^2/8) sum_y T(x-y) T(y-z) U[i+2j+l],

    where U is the node sum sum_u du exp(-2a(u-c)^2) at the 4n-3
    quarter-lattice centres c = x_0 + (i+2j+l) dx/4.  This holds for any
    nodes; it costs one O(n^3) elementwise pass plus O(N_u n) exponentials
    instead of N_u products.
    """
    x, dx, n = grid.points, grid.spacing, grid.size
    centres = x[0] + 0.25 * dx * np.arange(4 * n - 3)
    u_sum = du * sum(np.exp(-2.0 * p.a * (centres - u) ** 2) for u in us)
    # hankel[k, l] = U[k + l], so rows 2j..2j+n-1 hold U[i + 2j + l]
    hankel = np.lib.stride_tricks.sliding_window_view(u_sum, n)
    acc = np.zeros((n, n))
    for j in range(n):
        acc += np.outer(t[:, j], t[j]) * hankel[2 * j : 2 * j + n]
    return toeplitz(np.exp(-p.a * (dx * np.arange(n)) ** 2 / 8.0)) * acc


def _phase_rule(p: CoherentParams) -> float:
    return min(p.h, 1.0 / math.sqrt(p.a)) / 6.0


def resolution_of_identity_check(
    p: CoherentParams,
    psi: np.ndarray,
    grid: Grid1D,
    u_count: int | None = None,
    q_count: int | None = None,
) -> float:
    """Relative L2 deviation of the quadratured resolution of the identity.

    Computes int G_{u,q}^2 psi du dq/(2 pi h) on a uniform tensor phase grid
    and compares with psi.  The q sum enters through its Dirichlet kernel S
    in the difference variable, which is identical to summing nodes
    explicitly.  The u sum is done first: the exponent identity in
    _u_summed_square gives M = sum_u du A_u A_u over the same u-nodes in one
    O(n^3) pass, so the check is (M o S) psi.  Under-resolved
    quadrature (fewer than 8 nodes per axis) raises a Python warning and
    still returns the measured deviation.
    """
    if p.n != 1:
        raise ValueError("grid realization is one-dimensional")
    psi = np.asarray(psi)
    if psi.shape != (grid.size,):
        raise ValueError("test vector must live on the grid")
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        return 0.0

    sigma = 1.0 / math.sqrt(2.0 * p.a)
    step = _phase_rule(p)
    x, dx = grid.points, grid.spacing
    u_lo, u_hi = x[0] - 7.0 * sigma, x[-1] + 7.0 * sigma
    if u_count is None:
        u_count = int(math.ceil((u_hi - u_lo) / step)) + 1
    q_half = math.pi * p.h / dx + 7.0 * sigma
    if q_count is None:
        q_count = 2 * int(math.ceil(q_half / step)) + 1
    if u_count < 8 or q_count < 8:
        _warnmod.warn(
            "phase-space quadrature under-resolved "
            f"({u_count} x {q_count} nodes)",
            stacklevel=2,
        )
    us = np.linspace(u_lo, u_hi, u_count)
    du = us[1] - us[0]
    qs = np.linspace(-q_half, q_half, q_count)
    dq = qs[1] - qs[0]

    # Dirichlet kernel of the q sum on the difference lattice
    diffs = dx * np.arange(-(grid.size - 1), grid.size)
    s_vec = np.sum(np.cos(np.outer(qs, diffs) / p.h), axis=0) * dq / (
        2.0 * math.pi * p.h
    )
    s_mat = toeplitz(s_vec[grid.size - 1 :], s_vec[grid.size - 1 :: -1])

    t, _ = _gaussian_factor(p, grid)
    out = (_u_summed_square(p, t, grid, us, du) * s_mat) @ psi
    return float(np.linalg.norm(out - psi) / norm)


def _symbol_half(f: Callable, d2f: Callable, t, b: float) -> np.ndarray:
    """Half of the first-order symbol with its curvature counterterm, f + f''/(4b):
    the momentum half for (F, F'') at q, the position half for (V, V'') at u."""
    return np.asarray(f(t), dtype=float) + np.asarray(d2f(t), dtype=float) / (4.0 * b)


def operator_symbol(
    sym: ClassicalSymbol, p: CoherentParams, pt: PhasePoint
) -> OperatorSymbol:
    """First-order symbol with the b-dependent curvature counterterm."""
    c0 = float(_symbol_half(sym.F, sym.d2F, pt.q, p.b)) + float(
        _symbol_half(sym.V, sym.d2V, pt.u, p.b)
    )
    return OperatorSymbol(
        c0=c0,
        grad_u=float(sym.dV(pt.u)),
        grad_q=float(sym.dF(pt.q)),
        point=pt,
    )


def representation_error_norm(
    sym: ClassicalSymbol, p: CoherentParams, grid: Grid1D
) -> float:
    """Spectral norm of int G Hhat G du dq/(2 pi h) minus F(-ih d/dx) + V.

    q runs over the grid's conjugate lattice, so for each u the three q sums
    (weights 1, F + F''/4b, F') are exact circulant kernels; u is a plain
    trapezoid over the grid range plus seven Gaussian widths.  The F term
    needs only sum_u du A_u A_u, which _u_summed_square gives with the u sum
    done first.  The F' term needs sum_u du A_u P A_u for the spectral
    momentum P = i S_P + (q_N/n) s s^T, where S_P is the real antisymmetric
    sine kernel of the paired lattice momenta +-q_m and, on an even grid,
    q_N is the unpaired Nyquist momentum with s_j = (-1)^j; each node then
    costs the real product A_u (S_P A_u) plus the rank-one (A_u s)(A_u s)^T.

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
    if p.n != 1:
        raise ValueError("grid realization is one-dimensional")
    x, dx, n = grid.points, grid.spacing, grid.size
    if dx > min(p.h, 1.0 / math.sqrt(p.b)) / 3.0:
        _warnmod.warn(
            "grid spacing does not resolve min(h, 1/sqrt(b))/3; "
            "representation measurement may be polluted",
            stacklevel=2,
        )

    target = schrodinger_operator(sym, grid, p.h).matrix

    qs = momentum_lattice(grid, p.h)
    # circulant kernels of the conjugate-lattice q sums
    s_f = fourier_multiplier_matrix(_symbol_half(sym.F, sym.d2F, qs, p.b), n) / dx
    s_df = fourier_multiplier_matrix(np.asarray(sym.dF(qs), dtype=float), n) / dx

    sigma = 1.0 / math.sqrt(2.0 * p.a)
    du = _phase_rule(p)
    us = np.arange(x[0] - 7.0 * sigma, x[-1] + 7.0 * sigma + du, du)

    # P = i S_P + (q_N/n) s s^T, the Nyquist term on even grids only
    s_p = fourier_multiplier_matrix(qs, n).imag
    sign = (-1.0) ** np.arange(n)

    t, factor = _gaussian_factor(p, grid)
    t1_diag = np.zeros(n)
    a_sp_a = np.zeros((n, n))
    nyquist = np.zeros((n, n))
    for u in us:
        a_mat = factor(float(u))
        v_half = float(_symbol_half(sym.V, sym.d2V, u, p.b))
        c_diag = v_half + float(sym.dV(u)) * (x - u)
        # weight-1 q sum collapses to the exact diagonal projection
        t1_diag += du * np.einsum("xy,xy->x", a_mat * c_diag[None, :], a_mat)
        a_sp_a += du * (a_mat @ (s_p @ a_mat))
        if n % 2 == 0:
            a_s = a_mat @ sign
            nyquist += du * np.outer(a_s, a_s)
    apa = 1j * a_sp_a
    if n % 2 == 0:
        apa += qs[n // 2] / n * nyquist
    assembled = (
        np.diag(t1_diag / dx)
        + _u_summed_square(p, t, grid, us, du) * s_f
        + apa * s_df
    )

    reach = 6.0 * p.h * math.sqrt(p.a)
    margin = max(int(round(0.1 * n)), int(math.ceil(reach / dx)), 1)
    if 2 * margin >= n:
        raise ValueError(
            "grid too short for the edge margin; extend it past "
            f"{reach:.3g} on each side of the region of interest"
        )
    window = slice(margin, n - margin)
    diff = assembled - target
    diff = 0.5 * (diff + diff.conj().T)
    core = diff[window, window]

    smear = 0.5 * math.sqrt(p.h * p.h * p.a + 1.0 / p.a)
    q_cut = math.pi * p.h / dx - 8.0 * smear
    if q_cut <= 0:
        raise ValueError(
            "grid spacing too coarse to leave a band below the momentum "
            "boundary; refine the grid"
        )
    m = core.shape[0]
    q_core = 2.0 * math.pi * p.h * np.fft.fftfreq(m, d=dx)
    keep = np.abs(q_core) <= q_cut
    # unitary conjugation by the window DFT, then drop zone-edge modes
    rotated = np.fft.fft(np.fft.ifft(core, axis=1), axis=0)
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

    The q span is [q_min - 10/sqrt(a), q_max + 10/sqrt(a)] over the
    classically negative set, scanned at 41 support points over |q| <= 20.
    The scan is mirrored exactly, so an even symbol gets nodes symmetric
    about q = 0; a symbol negative nowhere keeps the span about q = 0.
    """
    step = 2.0 * _phase_rule(p)
    us = np.arange(-support_radius, support_radius + step, step)
    us = us[np.abs(us) <= support_radius]

    q_mags = np.linspace(0.0, 20.0, 2001)
    q_scan = np.concatenate((-q_mags[::-1], q_mags))
    q_min, q_max = math.inf, -math.inf
    for u in np.linspace(-support_radius, support_radius, 41):
        vals = np.asarray(sym.sigma(u, q_scan), dtype=float)
        if vals[0] < 0.0 or vals[-1] < 0.0:
            raise ValueError(
                "symbol still negative at |q| = 20, the end of the momentum scan"
            )
        neg = q_scan[vals < 0.0]
        if neg.size:
            q_min, q_max = min(q_min, float(neg[0])), max(q_max, float(neg[-1]))
    if q_min > q_max:
        q_min = q_max = 0.0
    margin = 10.0 / math.sqrt(p.a)
    q_lo, q_hi = q_min - margin, q_max + margin
    qs = np.arange(q_lo, q_hi + step, step)

    if math.pi * p.h / grid.spacing < max(abs(q_lo), abs(q_hi)):
        _warnmod.warn(
            "grid Nyquist momentum below the phase-space q range; "
            "trial density under-resolved",
            stacklevel=3,
        )
    return us, qs, step


def trial_density_matrix(
    sym: ClassicalSymbol,
    p: CoherentParams,
    grid: Grid1D,
    support_radius: float,
) -> GridOperator:
    """gamma = int G chi(hhat) G du dq/(2 pi h) with hhat linearized.

    hhat at (u, q) is the first-order operator_symbol for |u| inside the
    support ball and zero outside, so only interior nodes contribute.  Each
    chi is the exact spectral projection of the dense Hermitian hhat matrix
    onto its negative part; accumulating G P P^H G keeps gamma positive
    semidefinite by construction, and the resolution of the identity caps it
    at one plus quadrature error.  Node spacing follows min(h, 1/sqrt(a))/3
    and the q range extends past the classically negative set by 10/sqrt(a)
    on each side, beyond which the momentum overlap with the projection is
    negligible.  The set is scanned on the support over |q| <= 20; a symbol
    still negative at either end of the scan raises ValueError.  Each node
    operator is grad_q P plus a real diagonal, with the spectral momentum P
    made Hermitian once.

    The u-rows run in parallel worker threads, one per usable CPU, with
    numpy's OpenBLAS held at one thread meanwhile and restored afterwards.
    Where no bundled OpenBLAS is found to pin, the rows run one after
    another in one worker, because unpinned BLAS threads oversubscribe the
    cores.  Each row sums its own part in q order and the parts are added
    in u order, so gamma is bitwise the same for any worker count.  The
    symbol's callables therefore run in worker threads; an exception they
    raise in a row reaches the caller.  The scan, the node grids, the
    warning and the argument checks run in the calling thread first.

    Each projected state spreads about 1/sqrt(2a) in momentum around its
    node, so the grid should put pi h/dx several such widths above the q
    range or the tails alias across the zone edge and inflate energy
    expectations; the warning fires only at the bare q range.
    """
    if p.n != 1:
        raise ValueError("grid realization is one-dimensional")
    require_positive(support_radius, "support radius")
    x, n = grid.points, grid.size
    us, qs, step = _trial_nodes(sym, p, grid, support_radius)

    p_mat = fourier_multiplier_matrix(momentum_lattice(grid, p.h), n)
    p_mat = 0.5 * (p_mat + p_mat.conj().T)
    diag = np.diag_indices(n)
    _, factor = _gaussian_factor(p, grid)
    weight = step * step / (2.0 * math.pi * p.h)

    def row(u: float) -> np.ndarray:
        a_mat = factor(u)
        part = np.zeros((n, n), dtype=complex)
        for q in qs:
            s = operator_symbol(sym, p, PhasePoint(u, float(q)))
            hhat = s.grad_q * p_mat
            hhat[diag] += s.c0 - s.grad_q * q + s.grad_u * (x - u)
            w, vec = np.linalg.eigh(hhat)
            k = int(np.searchsorted(w, 0.0))
            if k == 0:
                continue
            phases = np.exp(1j * q * x / p.h)
            g_neg = phases[:, None] * (
                a_mat @ (phases.conj()[:, None] * vec[:, :k])
            )
            part += weight * (g_neg @ g_neg.conj().T)
        return part

    gamma = np.zeros((n, n), dtype=complex)
    workers = min(_row_workers(), us.size)
    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        for part in pool.map(row, us.tolist()):
            gamma += part

    gamma = 0.5 * (gamma + gamma.conj().T)
    return GridOperator(matrix=gamma, grid=grid, h=p.h)
