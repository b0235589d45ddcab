"""Shared numerical utilities: grids, grid operators, cutoffs, fits, h sweeps.

Everything here is deterministic and stateless, except what is process
wide.  The worker pool, whose threads the first parallel loop starts and
the process keeps, and pinned calls hold the bundled OpenBLAS at one
thread while they run.  Importing this module sets the allocator policy
for the process: on glibc, buffers under 4 MiB (numpy's huge-page cutoff)
stay mapped when freed and the heap is trimmed only beyond 64 MiB free
(the ceiling of glibc's own trim threshold), so a warm pass reuses the
pages of the one before instead of faulting in fresh ones, for about
1 MiB more peak resident memory.
The smooth cutoff functions are built from the classic exponential
transition exp(-1/s), which gives genuinely C-infinity profiles with
compact support.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from functools import cache, wraps
from typing import ClassVar

import numpy as np

__all__ = [
    "Grid1D",
    "GridOperator",
    "Bump",
    "FitResult",
    "HSweep",
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


def step_count(length: float, step: float) -> int:
    """Fewest uniform steps no longer than step that span length.  A quotient
    within 1e-12 relative above an integer is taken as that integer, so a
    whole ratio such as 0.9/0.015, which rounds to 60.00000000000001, is not
    raised by its rounding error."""
    return math.ceil(length / step * (1.0 - 1e-12))


def require_positive(value: float, name: str) -> None:
    """Raise ValueError unless value is a finite number above zero.

    Written so that NaN fails too: `nan <= 0` is False.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class GridOperator:
    """Dense Hermitian matrix acting on function values over a Grid1D:
    Hamiltonians and density matrices alike."""

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


# ---------------------------------------------------------------------------
# worker threads for independent pieces of small linear algebra
#
# Small matmul and tridiagonal calls gain little from OpenBLAS's own
# threads.  On a shared two-core x86-64 machine the rows of the two trial
# densities at h = 0.6 and 0.5 (79- and 85-point grids; blocks of node
# columns, one matrix product each) took 0.033 to 0.048 s on one worker and
# 0.035 to 0.042 s on two with OpenBLAS held at one thread: no gain, because
# the workers share the interpreter lock between the blocks' numpy calls.
# The rows of criterion 8's h = 0.1 (163-point grid) took 0.45 to 0.48 s on
# one worker and 0.33 to 0.35 s on two.  Unpinned, the same two workers
# oversubscribe the cores and took 0.66 to 0.77 s there, slower than one.
# numpy's Linux wheels bundle OpenBLAS, and the radial channel solves
# (spectra) call LAPACK dstebz / dstein from it too, whose level-1 BLAS
# oversubscribes two cores the same way (the radial sum of the Scott sweep
# at h = 0.05 took 3.2 s on two threads unpinned, 2.0 s pinned).  Only
# numpy's OpenBLAS is pinned: where numpy bundles none, the solves run on
# scipy's LAPACK and _row_workers() is 1, so nothing runs beside them.
#
# _pinned_map is the one place that decides how such pieces run: the rows
# of the trial density (coherent) and the channel solves of a radial sum
# (spectra) both go through it.  Each caller folds the results in item
# order, so its numbers are bitwise the same for any worker count.  It
# submits to one executor per worker count, built on first use and kept
# for the process (_pool), so a call starts no threads once the first has:
# a pool started and joined per call cost every trial density its threads,
# and each fresh thread a fresh glibc malloc arena, which holds none of the
# buffers the allocator policy below keeps (calls 2 to 12 of a trial
# density faulted 75 to 337 pages now and then, against 10 to 34).  A
# forked child drops the pools, whose threads it does not have.
# _pinned runs one call under the same pin, for the dense Newton solve of
# the universal Thomas-Fermi function (thomas_fermi), so its digits do not
# depend on the thread count either.


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@cache
def _openblas_library():
    """(library, prefix, suffix) of the OpenBLAS bundled in numpy's wheel, or
    None.

    Wheels ship the library in numpy.libs beside the package, its symbols
    renamed by a prefix and an ILP64 suffix: numpy 2's exports
    scipy_openblas_set_num_threads64_ and the Fortran routines as
    scipy_dstebz_64_.  A suffix marks 64-bit integer arguments.
    """
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return None
    site = os.path.dirname(list(spec.submodule_search_locations)[0])
    libs = os.path.join(site, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_", "_64"):
                if hasattr(lib, f"{prefix}openblas_set_num_threads{suffix}"):
                    return lib, prefix, suffix
    return None


@cache
def _bundled_openblas():
    """(set, get) thread-count entry points of the OpenBLAS bundled in numpy's
    wheel, or None."""
    found = _openblas_library()
    if found is None:
        return None
    lib, prefix, suffix = found
    set_n = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
    get_n = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
    set_n.argtypes, set_n.restype = [ctypes.c_int], None
    get_n.argtypes, get_n.restype = [], ctypes.c_int
    return set_n, get_n


def _row_workers() -> int:
    """Threads for independent pieces of small BLAS work: one per usable CPU
    when _one_blas_thread can pin numpy's OpenBLAS, else 1."""
    return _usable_cpus() if _bundled_openblas() is not None else 1


@contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS, where found, at one thread inside the
    block, then restore its prior count, also when the block raises.  The
    count is process-wide, so blocks entered from several threads at once
    restore in the order they exit."""
    with ExitStack() as restore:
        if _bundled_openblas() is not None:
            set_n, get_n = _bundled_openblas()
            restore.callback(set_n, get_n())
            set_n(1)
        yield


def _pinned(fn):
    """fn, run with the bundled OpenBLAS held at one thread.

    For a dense solve whose result must not depend on the thread count:
    OpenBLAS splits a factorization differently on more threads, which can
    move the last bits of its result.
    """

    @wraps(fn)
    def pinned(*args, **kwargs):
        with _one_blas_thread():
            return fn(*args, **kwargs)

    return pinned


_pool_thread = threading.local()


def _mark_pool_thread():
    _pool_thread.marked = True


@cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's executor of up to this many worker threads.  A thread
    starts when an item arrives and none is idle, and then stays."""
    return ThreadPoolExecutor(workers, initializer=_mark_pool_thread)


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _pinned_map(fn, items):
    """Yield fn(item) for each of items, in item order, computed on the
    shared pool of _row_workers() threads with the bundled OpenBLAS held at
    one thread meanwhile.

    Results stream: each is yielded once it and those before it are done,
    so a caller that folds them as they come need not hold them all.  An
    exception that fn raises reaches the caller at its item.  Once the
    generator is exhausted, raises or is closed, the items not yet started
    are cancelled, the running ones are waited for and the thread counts are
    restored.  Called from one of the pool's own threads it raises
    RuntimeError, since its items could wait forever on the threads that
    wait for them.
    """
    if getattr(_pool_thread, "marked", False):
        raise RuntimeError("_pinned_map called from inside a pool worker")
    pool = _pool(_row_workers())
    with _one_blas_thread():
        futures = [pool.submit(fn, item) for item in items]
        futures.reverse()  # popped from the end, in item order
        try:
            while futures:
                yield futures.pop().result()
        finally:
            for future in futures:
                future.cancel()
            wait(futures)


# ---------------------------------------------------------------------------
# allocator policy
#
# glibc's malloc gives freed memory back to the kernel: a block above its
# mmap threshold is unmapped when freed, and the top of a heap is trimmed
# once more than the trim threshold of it is free.  Both thresholds start
# at 128 KiB and rise only as large blocks are freed, so the numpy buffers
# of a coherent-check pass or a trial-density row, temporaries included,
# went back to the kernel and the next block, h or pass faulted them in
# again as fresh zeroed pages: about 3,250 minor faults (13 MiB) in a warm
# coherent-check pass and 3,350 in a warm trial-density pass, on glibc 2.36.
# Both are fixed at import, for the whole process:
#   mmap threshold 4 MiB, numpy's own huge-page cutoff: an array from that
#     size up still gets a mapping of its own and goes back when freed;
#   trim threshold 64 MiB, the ceiling of glibc's own dynamic threshold.
# Every buffer under 4 MiB then stays mapped and is reused (0 faults in a
# warm coherent-check pass, about 10 in a trial-density one).  Fixing
# either one stops glibc from raising both, and alone faulted more than
# the defaults.  The cost is peak memory: what a pass frees below 4 MiB
# stays in the process, about 1 MiB more peak RSS on the Scott sweep and
# less on the others.  The parameter numbers are glibc's (<malloc.h>); a
# libc without a working mallopt (macOS, Windows, musl) is left as it is.

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_buffers(libc=None) -> bool:
    """Set the allocator policy above through libc's mallopt (by default the
    C library of this process); True if both settings took.

    Where libc has no mallopt, or its mallopt refuses (musl's always
    returns 0), nothing changes and the result is False.
    """
    try:
        mallopt = (ctypes.CDLL(None) if libc is None else libc).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: Windows' CDLL(None)
        return False
    settings = (
        (_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )
    return all([mallopt(param, value) == 1 for param, value in settings])


_KEEPS_FREED_BUFFERS = _keep_freed_buffers()


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


def _step(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    a = _f(s)
    b = _f(1.0 - s)
    return a / (a + b)


# ---------------------------------------------------------------------------
# bumps


@dataclass(frozen=True)
class Bump:
    """C-infinity cutoff of t = |x - center| / radius: identically 1 for
    t <= plateau = 1/2, 0 for t >= 1.

    The center and the radius are its only parameters, so all derivative
    sup norms obey the dilation rule sup |radius^k d^k phi| = const(k).
    """

    center: float
    radius: float
    plateau: ClassVar[float] = 0.5

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError(f"bump center must be finite, got {self.center!r}")
        require_positive(self.radius, "bump radius")

    def __call__(self, x):
        t = np.abs(np.asarray(x, dtype=float) - self.center) / self.radius
        s = (1.0 - t) / (1.0 - self.plateau)
        val = _step(np.clip(s, 0.0, 1.0))
        return val if np.ndim(x) else float(val)


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
    if len(set(h.tolist())) != h.size:
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


def require_decreasing(h_values, least: int = 1) -> tuple[float, ...]:
    """h_values as floats; ValueError unless each is below the one before and
    there are at least `least` of them (a fitted sweep, HSweep, needs two)."""
    hs = tuple(float(h) for h in h_values)
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h values are not strictly decreasing")
    if len(hs) < least:
        raise ValueError(
            f"a fitted sweep needs at least {least} h values" if hs else "no h values given"
        )
    return hs


@dataclass(frozen=True)
class HSweep:
    """One h sweep and its fit y(h) = sum_k c_k h^(e_k) (fit_power_series).

    results holds one row per h, each with its warnings; values the y of
    each h; per_h optional per-h diagnostics; left_out the rows the fit
    leaves out, each {"h": h, "reason": ...}.  fit is None, with a warning,
    when fewer rows remain than there are exponents, and exact, with a
    warning, when as many remain.
    """

    h_values: tuple
    results: tuple
    values: tuple
    exponents: tuple
    per_h: tuple = ()
    left_out: tuple = ()
    fit: FitResult | None = field(init=False)

    def __post_init__(self):
        hs = require_decreasing(self.h_values, least=2)
        if not len(self.results) == len(self.values) == len(hs):
            raise ValueError("an h sweep needs one row and one value per h")
        if not {row["h"] for row in self.left_out} <= set(hs):
            raise ValueError("a row left out of the fit must be one of the h values")
        for name in ("results", "values", "exponents", "per_h", "left_out"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "h_values", hs)
        hs, ys = self._fitted()
        enough = len(hs) >= len(self.exponents)
        object.__setattr__(
            self, "fit", fit_power_series(hs, ys, self.exponents) if enough else None
        )

    def _fitted(self) -> tuple[tuple, tuple]:
        """The h values and the values of the rows the fit takes."""
        out = {row["h"] for row in self.left_out}
        kept = [(h, y) for h, y in zip(self.h_values, self.values) if h not in out]
        return tuple(h for h, _ in kept), tuple(y for _, y in kept)

    def spread(self) -> tuple[tuple, float | None]:
        """How far the choice of rows and of model moves the fit.

        Per exponent, the [min, max] of its coefficient over the fits that
        each leave one fitted row out, and the change of the first
        coefficient when an h^0 column joins the fit: each None unless more
        rows are fitted than there are exponents.  The sub-fits' warnings
        are dropped: leaving out an end of the sweep may narrow its range
        below the factor 2 that the full fit is judged by.
        """
        hs, ys = self._fitted()
        exponents = self.exponents
        if len(hs) <= len(exponents):
            return (None,) * len(exponents), None
        loo = [
            fit_power_series(hs[:k] + hs[k + 1 :], ys[:k] + ys[k + 1 :], exponents)
            for k in range(len(hs))
        ]
        with_constant = fit_power_series(hs, ys, (*exponents, 0.0))
        columns = zip(*(fit.coefficients for fit in loo))
        ranges = tuple([min(column), max(column)] for column in columns)
        return ranges, with_constant.coefficients[0] - self.fit.coefficients[0]

    @property
    def warnings(self) -> tuple:
        """The rows' warnings, then the fit's, or why there is no fit, or
        that it is exact."""
        fitted = len(self._fitted()[0])
        fit_warnings = self.fit.warnings if self.fit else (
            f"no fit: {len(self.left_out)} of {len(self.h_values)} rows are left "
            f"out of it, too few remain for the exponents {list(self.exponents)}",
        )
        if fitted == len(self.exponents):
            fit_warnings += (
                f"exact fit: as many rows as exponents ({fitted}), so no residual "
                "and no leave-one-out range",
            )
        return (*(w for row in self.results for w in row.warnings), *fit_warnings)

    def summary(self) -> dict | None:
        """The fit's fields for output (JSON writes tuples as lists); None
        without a fit."""
        return None if self.fit is None else asdict(self.fit)


def richardson(coarse: float, fine: float) -> float:
    """Eliminate the leading O(delta^2) error from a halved-step pair."""
    return (4.0 * fine - coarse) / 3.0
