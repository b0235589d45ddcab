"""Shared numerical utilities: grids, grid operators, cutoffs, weights, fits.

Everything here is deterministic and stateless, except the BLAS thread pin,
which holds numpy's OpenBLAS at one thread for the length of a with block.
The smooth cutoff functions are built from the classic exponential
transition exp(-1/s), which gives genuinely C-infinity profiles with
compact support.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache

import numpy as np

__all__ = [
    "Grid1D",
    "GridOperator",
    "Bump",
    "PartitionPair",
    "FitResult",
    "make_bump",
    "make_partition",
    "gaussian_weight",
    "fit_power_series",
    "richardson",
]


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid with at least 8 strictly increasing points."""

    points: np.ndarray
    spacing: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 8:
            raise ValueError("Grid1D needs a 1D array of at least 8 points")
        steps = np.diff(pts)
        if np.any(steps <= 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.allclose(steps, self.spacing, rtol=1e-10, atol=0.0):
            raise ValueError("grid points must be uniformly spaced")

    @classmethod
    def uniform(cls, lo: float, hi: float, n: int) -> "Grid1D":
        if not hi > lo:
            raise ValueError("need hi > lo")
        pts, step = np.linspace(lo, hi, n, retstep=True)
        return cls(points=pts, spacing=float(step))

    @property
    def size(self) -> int:
        return self.points.size

    def halved(self) -> "Grid1D":
        """Same interval with the spacing halved (2n-1 points)."""
        return Grid1D.uniform(self.points[0], self.points[-1], 2 * self.size - 1)


def require_positive(value: float, name: str) -> None:
    """Raise ValueError unless value is a finite number above zero.

    Written so that NaN fails too: `nan <= 0` is False.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class GridOperator:
    """Dense Hermitian matrix acting on function values over a Grid1D.

    Hamiltonians and density matrices alike; validate_density adds the
    0 <= gamma <= 1 check that a density matrix must pass.
    """

    matrix: np.ndarray
    grid: Grid1D
    h: float

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if m.shape[0] != self.grid.size:
            raise ValueError("matrix size must match the grid")
        require_positive(self.h, "h")
        scale = np.linalg.norm(m)
        if scale > 0 and np.linalg.norm(m - m.conj().T) > 1e-12 * scale:
            raise ValueError("matrix is not Hermitian to 1e-12 relative")

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def negative_sum(self) -> float:
        w = self.eigenvalues()
        return float(np.sum(w[w < 0.0]))

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def validate_density(self, tol: float = 1e-6) -> None:
        """Raise ValueError unless the spectrum lies in [0, 1] up to tol."""
        w = self.eigenvalues()
        if w[0] < -tol or w[-1] > 1.0 + tol:
            raise ValueError(f"spectrum [{w[0]:.3g}, {w[-1]:.3g}] escapes [0, 1]")


# ---------------------------------------------------------------------------
# worker threads for rows of small dense linear algebra
#
# Small eigh and matmul calls gain little from OpenBLAS's own threads.  On
# two cores a complex Hermitian eigh of order 79 / 121 / 163 took 1.89 /
# 4.58 / 8.76 ms per call serially with the default two BLAS threads, and
# 0.82 / 2.17 / 4.47 ms per call from two Python threads with OpenBLAS held
# at one thread.  Unpinned, the same two Python threads oversubscribe the
# cores: 3.32 / 6.92 / 14.5 ms per call, slower than serial.


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@cache
def _openblas_thread_calls():
    """(set, get) thread-count entry points of numpy's bundled OpenBLAS, or None.

    Wheels ship the library in numpy.libs beside the package, its symbols
    renamed by a prefix and an ILP64 suffix, e.g.
    scipy_openblas_set_num_threads64_.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_", "_64"):
                try:
                    set_n = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                    get_n = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                except AttributeError:
                    continue
                set_n.argtypes, set_n.restype = [ctypes.c_int], None
                get_n.argtypes, get_n.restype = [], ctypes.c_int
                return set_n, get_n
    return None


def _row_workers() -> int:
    """Threads for independent rows of small BLAS work: one per usable CPU
    when _one_blas_thread can pin OpenBLAS, else 1."""
    return _usable_cpus() if _openblas_thread_calls() is not None else 1


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread inside the block, then restore the
    prior count, also when the block raises.  A no-op where no bundled
    OpenBLAS is found.  The count is process-wide, so blocks entered from
    several threads at once restore in the order they exit."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    set_n, get_n = calls
    prior = get_n()
    set_n(1)
    try:
        yield
    finally:
        set_n(prior)


# ---------------------------------------------------------------------------
# smooth transition profile
#
# f(s) = exp(-1/s) for s > 0 vanishes to all orders at 0.  The quotient
# step(s) = f(s) / (f(s) + f(1-s)) rises monotonically from 0 at s<=0 to 1 at
# s>=1 and is C-infinity on the whole line.


def _f(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def _fprime(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos]) / s[pos] ** 2
    return out


def _step(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    a = _f(s)
    b = _f(1.0 - s)
    return a / (a + b)


def _step_prime(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    a, b = _f(s), _f(1.0 - s)
    ap, bp = _fprime(s), _fprime(1.0 - s)
    g = a + b
    # d/ds [a/g] with db/ds = -bp
    return (ap * g - a * (ap - bp)) / g**2


# ---------------------------------------------------------------------------
# bumps


@dataclass(frozen=True)
class Bump:
    """C-infinity cutoff: identically 1 on an inner plateau, 0 outside its ball.

    The profile depends only on t = |x - center| / radius, so all derivative
    sup norms obey the dilation rule sup |radius^k d^k phi| = const(k).
    """

    center: float
    radius: float
    order: int
    plateau: float = 0.5  # fraction of the radius where the bump is exactly 1

    def __post_init__(self):
        require_positive(self.radius, "bump radius")
        if not 0 < self.plateau < 1:
            raise ValueError("plateau fraction must lie in (0, 1)")
        if self.order < 1:
            raise ValueError("order must be >= 1")

    def _s(self, x: np.ndarray) -> np.ndarray:
        t = np.abs(np.asarray(x, dtype=float) - self.center) / self.radius
        return (1.0 - t) / (1.0 - self.plateau)

    def __call__(self, x):
        val = _step(np.clip(self._s(x), 0.0, 1.0))
        return val if np.ndim(x) else float(val)

    def derivative(self, x):
        """First derivative, analytic."""
        x = np.asarray(x, dtype=float)
        s = self._s(x)
        inside = (s > 0.0) & (s < 1.0)
        out = np.zeros_like(x, dtype=float)
        sign = np.sign(x - self.center)
        out[inside] = (
            _step_prime(s[inside])
            * (-sign[inside])
            / ((1.0 - self.plateau) * self.radius)
        )
        return out if out.ndim else float(out)


def make_bump(center: float, radius: float, order: int = 4) -> Bump:
    """Smooth bump, 1 on |x-center| <= radius/2, 0 outside |x-center| >= radius."""
    return Bump(center=center, radius=radius, order=order)


# ---------------------------------------------------------------------------
# quadratic partition of unity


@dataclass(frozen=True)
class PartitionPair:
    """Pair (inner, outer) with inner^2 + outer^2 = 1 exactly.

    Both are functions of a distance-like coordinate d >= 0; inner = 1 for
    d <= R, 0 for d >= 2R, and the pair is built as cos/sin of one smooth
    monotone angle so the quadratic identity holds pointwise by construction.
    """

    R: float

    def __post_init__(self):
        require_positive(self.R, "localization radius R")

    def _theta(self, d):
        s = (np.asarray(d, dtype=float) - self.R) / self.R
        return 0.5 * np.pi * _step(np.clip(s, 0.0, 1.0))

    def _theta_prime(self, d):
        d = np.asarray(d, dtype=float)
        s = (d - self.R) / self.R
        out = np.zeros_like(d, dtype=float)
        inside = (s > 0.0) & (s < 1.0)
        out[inside] = 0.5 * np.pi * _step_prime(s[inside]) / self.R
        return out

    def inner(self, d):
        val = np.cos(self._theta(d))
        return val if np.ndim(d) else float(val)

    def outer(self, d):
        val = np.sin(self._theta(d))
        return val if np.ndim(d) else float(val)

    def inner_grad(self, d):
        val = -np.sin(self._theta(d)) * self._theta_prime(d)
        return val if np.ndim(d) else float(val)

    def outer_grad(self, d):
        val = np.cos(self._theta(d)) * self._theta_prime(d)
        return val if np.ndim(d) else float(val)

    def grad_sq_sum(self, d):
        """(d inner/dd)^2 + (d outer/dd)^2, which collapses to theta'(d)^2."""
        val = self._theta_prime(d) ** 2
        return val if np.ndim(d) else float(val)


def make_partition(R: float) -> PartitionPair:
    return PartitionPair(R=R)


# ---------------------------------------------------------------------------
# Gaussian weight


def gaussian_weight(b: float, v) -> float | np.ndarray:
    """Normalized Gaussian G_b(v) = (b/pi)^(n/2) exp(-b |v|^2) on R^n.

    v is a single point: a scalar means n = 1, a 1D array of length n is a
    point of R^n.  A 2D array is a batch of points (rows).
    """
    require_positive(b, "Gaussian parameter b")
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        n = 1
        sq = v**2
    elif v.ndim == 1:
        n = v.size
        sq = np.dot(v, v)
    else:
        n = v.shape[-1]
        sq = np.sum(v**2, axis=-1)
    val = (b / np.pi) ** (n / 2.0) * np.exp(-b * sq)
    return val if np.ndim(val) else float(val)


# ---------------------------------------------------------------------------
# power-law fits


@dataclass(frozen=True)
class FitResult:
    exponents: tuple
    coefficients: tuple
    residual_norm: float
    condition: float
    warnings: tuple = field(default_factory=tuple)

    def coefficient(self, exponent: float) -> float:
        """Coefficient attached to a given exponent."""
        for e, c in zip(self.exponents, self.coefficients):
            if e == exponent:
                return c
        raise KeyError(f"exponent {exponent} not in fit")


def fit_power_series(h_values, y_values, exponents) -> FitResult:
    """Least-squares fit of y(h) = sum_k c_k h^(e_k).

    Columns are scaled to unit max before solving so widely separated
    exponents (h^-3 against h^-2 at h ~ 0.05) stay well conditioned.
    """
    h = np.asarray(h_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    exps = tuple(float(e) for e in exponents)
    if h.ndim != 1 or y.shape != h.shape:
        raise ValueError("h_values and y_values must be 1D arrays of equal length")
    if not np.all(np.isfinite(h) & (h > 0)):
        raise ValueError("h values must be positive and finite")
    if not np.all(np.isfinite(y)):
        raise ValueError("y values must be finite")
    if len(set(exps)) != len(exps):
        raise ValueError("exponents must be distinct")
    if h.size < len(exps):
        raise ValueError("need at least as many samples as exponents")
    if np.unique(h).size != h.size:
        raise ValueError("h values must be distinct")

    X = np.column_stack([h**e for e in exps])
    scale = np.max(np.abs(X), axis=0)
    Xs = X / scale
    coef_s, _, rank, sv = np.linalg.lstsq(Xs, y, rcond=None)
    warnings = []
    if rank < len(exps):
        warnings.append("rank-deficient design matrix")
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if h.max() / h.min() < 2.0:
        warnings.append("h range spans less than a factor 2; fit poorly conditioned")
    coef = coef_s / scale
    resid = y - X @ coef
    return FitResult(
        exponents=exps,
        coefficients=tuple(float(c) for c in coef),
        residual_norm=float(np.sqrt(np.mean(resid**2))),
        condition=cond,
        warnings=tuple(warnings),
    )


def richardson(coarse: float, fine: float, order: int = 2) -> float:
    """Eliminate the leading O(delta^order) error from a halved-step pair."""
    w = 2.0**order
    return (w * fine - coarse) / (w - 1.0)
