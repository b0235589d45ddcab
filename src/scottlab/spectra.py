"""Sums of negative eigenvalues for 1D and radial Schrodinger operators.

The discretization is the symmetric 3-point finite difference with Dirichlet
boundaries, so every operator here is a real symmetric tridiagonal matrix and
the negative part of the spectrum comes out of bisection (LAPACK *stebz) in
O(n * #eigenvalues) time.  Eigenvalue sums carry an O(spacing^2) error that a
single grid halving removes by Richardson extrapolation; the pre-extrapolation
pair is kept so callers can see the convergence.

3D operators with radial potentials are reduced to angular momentum channels
by the substitution u = r psi: channel ell contributes its half-line spectrum
with degeneracy 2 ell + 1, and the Dirichlet condition u(0) = 0 regularizes
Coulomb-type singularities at the origin.

A radial grid is uniform in t and maps to the radius r(t) = t + stretch t^2.
With stretch = 0 it is uniform in r.  A positive stretch keeps the step near
the origin, where a Coulomb well needs it, and widens it like sqrt(r) further
out, as the local wavelength does.  Every tridiagonal matrix, 1D and radial,
is assembled one way, the lumped-mass 3-point scheme in t: mass s r'(t_i) at
node i, coupling -h^2 / (s r'(t_{i+1/2})) between nodes i and i+1, both
scaled by the square root of the mass so that the matrix stays symmetric
tridiagonal.  With r' = 1 (1D, or stretch = 0) that is the uniform 3-point
matrix entry for entry.  Each refinement level is built once per problem.
The boundary-mass guard measures the mass on the interior points in the
outer 5% of the box in r, r >= 0.95 r_max, and on at least two of them.

The channel solves of a radial sum are independent, so they run through
numerics._pinned_map, one worker thread per usable CPU.  Each solve is one
function: it assembles its channel matrix and calls LAPACK dstebz / dstein
in the call shape of scipy.linalg.lapack's wrappers: through ctypes, with
the interpreter lock released, from the OpenBLAS bundled in numpy's wheel
where it exports them, else through those wrappers themselves, which hold
the lock.  With neither, the first solve fails with a RuntimeError naming
what is missing.  The calling thread adds the results in ell
order, so every eigenvalue and every sum is bitwise the same for any worker
count, and equal to what scipy's eigvalsh_tridiagonal / eigh_tridiagonal
return for the same matrix (the tests check it).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import numerics
from .numerics import Bump, Grid1D, _pinned_map, require_positive, richardson

__all__ = [
    "BoxSizeError",
    "ChannelCutoffError",
    "ChannelSpectrum",
    "RadialProblem",
    "RadialSum",
    "SpectralSum",
    "TraceResult",
    "neg_sum_1d",
    "neg_sum_radial",
    "sentinel_channel",
]


def __getattr__(name: str):
    # the benchmark tracer wraps these two names in this module; scipy is
    # imported only when they are looked up, as the eigensolves below call
    # LAPACK directly
    if name in ("eigh_tridiagonal", "eigvalsh_tridiagonal"):
        import scipy.linalg

        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# relative change between the two refinements above which the accuracy
# warning fires
CONVERGENCE_RTOL = 2e-3

# weighted eigenfunction mass in the outer 5% of the box above which the
# box is declared too small
BOUNDARY_MASS_TOL = 1e-6

# the sentinel search gives up past this angular momentum
SENTINEL_MAX_ELL = 400


class ChannelCutoffError(RuntimeError):
    """The sentinel angular momentum channel holds negative eigenvalues."""


class BoxSizeError(RuntimeError):
    """Bound states carry non-negligible mass at the outer boundary."""


@dataclass(frozen=True)
class SpectralSum:
    """Richardson-extrapolated eigenvalue sum with its refinement pair."""

    value: float
    coarse: float
    fine: float
    warnings: tuple = field(default_factory=tuple)

    @classmethod
    def richardson_pair(cls, coarse: float, fine: float, label: str) -> "SpectralSum":
        """Richardson value of a refinement pair one halving apart, with a
        warning "<label> moved ..." when the pair differs by more than
        CONVERGENCE_RTOL relatively."""
        value = richardson(coarse, fine)
        warnings = []
        if abs(fine - coarse) > CONVERGENCE_RTOL * max(abs(value), 1e-12):
            warnings.append(
                f"{label} moved {abs(fine - coarse):.3g} between refinements"
            )
        return cls(value=value, coarse=coarse, fine=fine, warnings=tuple(warnings))

    @property
    def refinement_change(self) -> float:
        scale = max(abs(self.value), 1e-300)
        return abs(self.fine - self.coarse) / scale


@dataclass(frozen=True)
class ChannelSpectrum:
    """Negative eigenvalues of one angular momentum channel, of degeneracy
    2 ell + 1."""

    ell: int
    negative_eigenvalues: np.ndarray  # sorted descending (closest to 0 first)


@dataclass(frozen=True)
class RadialSum:
    """Channel spectra and their Richardson-extrapolated weighted sum.

    boundary_mass is the |E|-weighted eigenfunction mass in the outer 5% of
    the box that the box-size guard bounds (0 when nothing binds); sentinel
    is the ell solved as the empty witness.
    """

    channels: tuple
    total: SpectralSum
    boundary_mass: float
    sentinel: int


@dataclass(frozen=True)
class TraceResult:
    """One row of a quantum-vs-semiclassics comparison at fixed h."""

    h: float
    quantum_sum: float
    weyl_sum: float
    scott_term: float
    warnings: tuple = field(default_factory=tuple)

    @property
    def residual(self) -> float:
        return self.quantum_sum - self.weyl_sum - self.scott_term


@dataclass(frozen=True)
class RadialProblem:
    """Radial reduction of -h^2 Laplacian - V on L^2(R^3), Dirichlet box.

    V is the attractive profile (positive where binding); the channel-ell
    half-line operator is -h^2 u'' + [ell(ell+1) h^2/r^2 - V(r) + shift] u.
    The grid is uniform in t on (0, t_max]: its first point sits one step
    from the origin and its last point is the outer Dirichlet boundary.  The
    radius is r(t) = t + stretch t^2, so stretch = 0 makes the grid uniform
    in r.  The channels solved are 0 .. sentinel_channel, derived from the
    sign of the effective potential.

    The step may not exceed h/8.  With stretch > 0 the local step s r'(t)
    must also stay within 1/8 of the local wavelength 2 pi h / sqrt(V_+(r)).
    A potential that is not finite on either level raises ValueError where
    the levels are first built, coarse level first: here with stretch > 0,
    else in the first sentinel_channel or neg_sum_radial call.
    """

    potential: Callable[[np.ndarray], np.ndarray]
    h: float
    grid: Grid1D
    stretch: float = 0.0

    def __post_init__(self):
        require_positive(self.h, "h")
        if not (math.isfinite(self.stretch) and self.stretch >= 0.0):
            raise ValueError("stretch must be nonnegative and finite")
        step = self.grid.spacing
        if abs(self.grid.points[0] - step) > 1e-9 * step:
            raise ValueError("radial grid must start one spacing from the origin")
        if step > self.h / 8.0 + 1e-15:
            raise ValueError(
                f"radial spacing {step:g} exceeds h/8 = {self.h / 8:g}; "
                "the Coulomb scale near the origin would be unresolved"
            )
        if self.stretch:
            coarse = self.levels[0]
            r, v = coarse.points, np.maximum(coarse.v, 0.0)
            local = step * coarse.node
            # local step over 1/8 of the local wavelength 2 pi h / sqrt(V_+)
            excess = 8.0 * local * np.sqrt(v) / (2.0 * math.pi * self.h)
            worst = int(np.argmax(excess))
            if excess[worst] > 1.0:
                raise ValueError(
                    f"mapped radial step {local[worst]:g} at r = {r[worst]:g} "
                    "exceeds 1/8 of the local wavelength 2 pi h / sqrt(V); "
                    "refine the step or lower the stretch"
                )

    @classmethod
    def build(
        cls,
        potential: Callable,
        h: float,
        r_max: float,
        spacing: float,
        stretch: float = 0.0,
    ) -> "RadialProblem":
        """Grid on (0, r_max] in r, with the t-step rounded down to divide
        t_max, so that it never exceeds spacing."""
        t_max = 2.0 * r_max / (1.0 + math.sqrt(1.0 + 4.0 * stretch * r_max))
        n = max(numerics.step_count(t_max, spacing), 16)
        step = t_max / n
        grid = Grid1D.uniform(step, t_max, n)
        return cls(potential=potential, h=h, grid=grid, stretch=stretch)

    def radius(self, t):
        """r(t) = t + stretch t^2."""
        return t + self.stretch * t * t

    @property
    def r_max(self) -> float:
        return float(self.radius(self.grid.points[-1]))

    @cached_property
    def levels(self) -> tuple[_Level, _Level]:
        """Levels 0 and 1 (halved step) at the radii of the interior t-points,
        built on first use, coarse level first."""
        levels = []
        for step in (self.grid.spacing, self.grid.spacing / 2.0):
            t = step * np.arange(1, int(round(self.grid.points[-1] / step)))
            r = self.radius(t)
            levels.append(_level(self.potential, self.h, r, step, self.stretch, "r"))
        return tuple(levels)


# ---------------------------------------------------------------------------
# LAPACK dstebz / dstein, called the way scipy.linalg.lapack's wrappers are:
#
#   m, w, iblock, isplit, info = dstebz(d, e, range, vl, vu, il, iu, tol, order)
#   z, info = dstein(d, e, w, iblock, isplit)
#
# scipy's eigvalsh_tridiagonal and eigh_tridiagonal hold the interpreter lock
# through their Fortran calls, so channel solves from two threads ran one at
# a time (8 channels at h = 0.05: 1.63 s serially, 1.61 s from two threads).
# Where the OpenBLAS bundled in numpy's wheel (numerics._openblas_library)
# exports both routines, as numpy's Linux wheels do, a thin ctypes adapter
# calls them instead, which releases the lock for the length of the call.
# Fortran takes every argument by reference, integers at the library's
# width, and each character argument's length as a trailing hidden argument
# by value.  Elsewhere the pair is scipy's own wrappers, imported only then.
# Those hold the lock: where numpy bundles no OpenBLAS that costs nothing,
# as the solves then run on one worker (numerics._row_workers), but with a
# bundled OpenBLAS that lacks the LAPACK symbols the workers run one solve
# at a time.

_ROUTINES = ("dstebz", "dstein")


def _openblas_pair(found) -> tuple:
    """scipy's (dstebz, dstein) call shape over the routines of the OpenBLAS
    found = (library, prefix, suffix); an ILP64 suffix means 64-bit
    integers.  d and e must be contiguous float64 arrays."""
    lib, prefix, suffix = found
    integer = ctypes.c_int64 if suffix else ctypes.c_int
    ints = np.dtype(integer)
    stebz, stein = (getattr(lib, f"{prefix}{name}_{suffix}") for name in _ROUTINES)
    # dstebz: two characters, 16 pointers, then the characters' lengths
    pointers = [ctypes.c_void_p] * 16
    stebz.argtypes = [ctypes.c_char_p] * 2 + pointers + [ctypes.c_size_t] * 2
    stein.argtypes = [ctypes.c_void_p] * 13
    stebz.restype = stein.restype = None
    ref, real = ctypes.byref, ctypes.c_double

    def dstebz(d, e, range, vl, vu, il, iu, tol, order):
        n = d.size
        m, nsplit, info = integer(), integer(), integer()
        # zeroed past what LAPACK fills, as scipy's wrapper returns them
        w, iblock, isplit = np.zeros(n), np.zeros(n, ints), np.zeros(n, ints)
        work, iwork = np.empty(4 * n), np.empty(3 * n, ints)
        stebz(
            b"AVI"[range : range + 1], order, ref(integer(n)), ref(real(vl)),
            ref(real(vu)), ref(integer(il)), ref(integer(iu)), ref(real(tol)),
            d.ctypes.data, e.ctypes.data, ref(m), ref(nsplit), w.ctypes.data,
            iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data,
            iwork.ctypes.data, ref(info), 1, 1,
        )
        return m.value, w, iblock, isplit, info.value

    def dstein(d, e, w, iblock, isplit):
        n, m = d.size, w.size
        z = np.empty((m, n)).T  # column-major n x m, as scipy returns it
        work, iwork, ifail = np.empty(5 * n), np.empty(n, ints), np.empty(m, ints)
        info = integer()
        stein(
            ref(integer(n)), d.ctypes.data, e.ctypes.data, ref(integer(m)),
            w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data, z.ctypes.data,
            ref(integer(n)), work.ctypes.data, iwork.ctypes.data, ifail.ctypes.data,
            ref(info),
        )
        return z, info.value

    return dstebz, dstein


@cache
def _binding() -> tuple:
    """(dstebz, dstein) in scipy.linalg.lapack's call shape: over numpy's
    bundled OpenBLAS where it exports both, else scipy's own; RuntimeError
    naming what is missing when neither has them."""
    found = numerics._openblas_library()
    if found is None:
        missing = "numpy bundles no OpenBLAS under numpy.libs"
    else:
        lib, prefix, suffix = found
        symbols = (f"{prefix}{name}_{suffix}" for name in _ROUTINES)
        absent = next((s for s in symbols if not hasattr(lib, s)), None)
        if absent is None:
            return _openblas_pair(found)
        missing = f"numpy's bundled OpenBLAS does not export the LAPACK routine {absent}"
    try:
        from scipy.linalg.lapack import dstebz, dstein
    except ImportError:
        raise RuntimeError(
            f"{missing}, and scipy, whose LAPACK the radial eigensolves use "
            "instead, is not installed (pip install 'artifact[lapack]')"
        ) from None
    return dstebz, dstein


def _conjugation(points, off, bump):
    """(phi^2 or None, off-diagonal, 2 max |off|) of phi T phi.

    T is the Dirichlet tridiagonal matrix on points with off-diagonal off;
    phi is the optional bump sampled at points.
    """
    phi2 = None
    if bump is not None:
        phi = np.asarray(bump(points), dtype=float)
        phi2 = phi**2
        off = phi[:-1] * off * phi[1:]
    return phi2, off, 2.0 * np.max(np.abs(off))


def _negative_solve(diag, conjugation, tail=0):
    """(eigenvalues, tail masses) of phi T phi below 0, diag the whole
    diagonal of T (kinetic part plus the potential).

    LAPACK dstebz (range V, abstol 0) finds the eigenvalues in (lower, 0) in
    block order, the order dstein takes, and with tail > 0 dstein adds their
    eigenvectors, of which only the mass on the last tail points is kept, one
    per eigenvalue (None without tail); both come back ascending.  These
    are scipy's eigh_tridiagonal(select="v") calls with its arguments, so
    eigenvalues and vectors are bitwise scipy's.  Over numpy's OpenBLAS
    each Fortran call runs without the interpreter lock, so solves in
    several threads overlap.
    """
    phi2, off, spread = conjugation
    if phi2 is not None:
        diag = phi2 * diag
    n = diag.size
    if off.size != n - 1:
        raise ValueError(f"off-diagonal has {off.size} entries, not {n - 1}")
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    lower = float(min(np.min(diag) - spread, -1.0))
    d = np.ascontiguousarray(diag, dtype=float)
    e = np.ascontiguousarray(off, dtype=float)
    dstebz, dstein = _binding()
    found, w, iblock, isplit, info = dstebz(d, e, 1, lower, 0.0, 0, 0, 0.0, b"B")
    if info != 0:
        raise RuntimeError(f"LAPACK dstebz failed with info = {info}")
    w = w[:found]
    masses = np.zeros(found) if tail else None
    if tail and found:
        vectors, info = dstein(d, e, w, iblock, isplit)
        if info < 0:
            raise RuntimeError(f"LAPACK dstein failed with info = {info}")
        if info > 0:
            raise RuntimeError(f"LAPACK dstein: {info} eigenvectors failed to converge")
        masses = np.sum(vectors.T[:, n - tail :] ** 2, axis=1)
    order = np.argsort(w)  # block order to ascending
    values = w[order]
    negative = values < 0.0
    return values[negative], None if masses is None else masses[order][negative]


class _Level(NamedTuple):
    """A refinement level: points (x, or r), r' and V there, and its matrix."""

    points: np.ndarray
    node: np.ndarray
    v: np.ndarray
    kinetic: np.ndarray
    off: np.ndarray


def _level(potential, h, points, step, stretch=0.0, coordinate="x") -> _Level:
    """V at the interior points t_i = i s of a Dirichlet box, ValueError
    naming the first as coordinate = value where it is not finite, and the
    lumped-mass scheme in t with r'(t) = 1 + 2 stretch t: the kinetic
    diagonal is h^2/(s^2 r'_i) (1/r'_{i-1/2} + 1/r'_{i+1/2}) and the
    off-diagonal -h^2/(s^2 r'_{i+1/2} sqrt(r'_i r'_{i+1})), of norm below
    4 h^2/s^2.  With stretch = 0 (r' = 1) they are 2 h^2/s^2 and -h^2/s^2
    bit for bit.
    """
    v = np.asarray(potential(points), dtype=float)
    bad = np.flatnonzero(~np.isfinite(np.broadcast_to(v, points.shape)))
    if bad.size:
        raise ValueError(
            f"potential is not finite at {coordinate} = {points[bad[0]]:g}"
        )
    n, h2 = points.size + 1, h**2
    node = 1.0 + 2.0 * stretch * (step * np.arange(1, n))
    half = 1.0 + 2.0 * stretch * (step * (np.arange(n) + 0.5))
    kinetic = h2 / (step**2 * node) * (1.0 / half[:-1] + 1.0 / half[1:])
    off = -h2 / (step**2 * half[1:-1] * np.sqrt(node[:-1] * node[1:]))
    return _Level(points, node, v, kinetic, off)


def neg_sum_1d(
    potential: Callable,
    h: float,
    grid: Grid1D,
    bump: Bump | None = None,
) -> SpectralSum:
    """Sum of negative eigenvalues of phi (-h^2 d^2/dx^2 + V) phi on a box.

    Dirichlet ends; phi is an optional multiplicative bump.  The returned
    value is Richardson-extrapolated over one halving of the grid spacing,
    and a warning is attached when the refinement pair still moves by more
    than CONVERGENCE_RTOL relatively.  A potential that is not finite at an
    interior point of either level raises ValueError naming the first such
    x, coarse level first, before any eigensolve.
    """
    require_positive(h, "h")
    levels = [
        _level(potential, h, g.points[1:-1], g.spacing) for g in (grid, grid.halved())
    ]
    sums = []
    for level in levels:
        conjugation = _conjugation(level.points, level.off, bump)
        eigenvalues, _ = _negative_solve(level.kinetic + level.v, conjugation)
        sums.append(float(np.sum(eigenvalues)))
    return SpectralSum.richardson_pair(*sums, "eigenvalue sum")


def sentinel_channel(problem: RadialProblem, shift: float = 0.0) -> int:
    """Smallest ell whose effective potential never dips below zero.

    Channels 0 .. sentinel-1 can bind; the sentinel itself is solved as the
    emptiness witness.
    """
    coarse = problem.levels[0]
    r2, v = coarse.points**2, coarse.v
    h2 = problem.h**2
    for ell in range(SENTINEL_MAX_ELL + 1):
        if np.min(ell * (ell + 1) * h2 / r2 - v + shift) >= 0.0:
            return ell
    raise ChannelCutoffError(
        f"no empty channel found below ell = {SENTINEL_MAX_ELL}"
    )


def neg_sum_radial(
    problem: RadialProblem,
    shift: float = 0.0,
    bump: Bump | None = None,
) -> RadialSum:
    """Sum over channels of (2 ell + 1) * (negative half-line eigenvalues).

    The channels are 0 .. sentinel_channel(problem, shift); the sentinel
    (one past the last binding ell) is solved and must be empty, otherwise
    ChannelCutoffError; bound states must be negligible at r_max
    (|E|-weighted mass in the outer 5% of the box below 1e-6), otherwise
    BoxSizeError.  The result carries that mass fraction and the
    sentinel ell, and grid convergence warnings propagate into it as for
    neg_sum_1d.  The (ell, refinement level) solves run on one worker
    thread per usable CPU; the result is bitwise the same for any count.
    """
    sentinel = sentinel_channel(problem, shift)
    h2 = problem.h**2
    levels = problem.levels
    r2 = [level.points**2 for level in levels]
    conjugations = [_conjugation(level.points, level.off, bump) for level in levels]
    # the interior points in the outer 5% of the box in r, and at least two
    tail = max(2, int(np.count_nonzero(levels[1].points >= 0.95 * problem.r_max)))

    def solve(key):
        ell, level = key
        kinetic, v = levels[level].kinetic, levels[level].v
        diag = kinetic + ell * (ell + 1) * h2 / r2[level] - v + shift
        guarded = level == 1 and ell < sentinel
        return _negative_solve(diag, conjugations[level], tail if guarded else 0)

    keys = [(ell, level) for ell in range(sentinel + 1) for level in (0, 1)]
    solved = dict(zip(keys, _pinned_map(solve, keys), strict=True))

    found = max(solved[sentinel, level][0].size for level in (1, 0))
    if found:
        raise ChannelCutoffError(
            f"sentinel channel ell = {sentinel} holds {found} negative eigenvalues"
        )

    channels, totals, mass_num, mass_den = [], [0.0, 0.0], 0.0, 0.0
    for ell in range(sentinel):
        for level in (0, 1):
            eigs, _ = solved[ell, level]
            totals[level] += (2 * ell + 1) * float(np.sum(eigs))
        eigs, tail_masses = solved[ell, 1]
        weight = np.abs(eigs)
        mass_num += (2 * ell + 1) * float(np.sum(weight * tail_masses))
        mass_den += (2 * ell + 1) * float(np.sum(weight))
        channels.append(ChannelSpectrum(ell=ell, negative_eigenvalues=eigs[::-1]))

    frac = mass_num / mass_den if mass_den > 0 else 0.0
    if frac > BOUNDARY_MASS_TOL:
        raise BoxSizeError(
            f"weighted eigenfunction mass {frac:.3g} in the outer 5% of "
            f"the box exceeds {BOUNDARY_MASS_TOL:g}; enlarge r_max"
        )

    return RadialSum(
        channels=tuple(channels),
        total=SpectralSum.richardson_pair(totals[0], totals[1], "radial sum"),
        boundary_mass=frac,
        sentinel=sentinel,
    )
