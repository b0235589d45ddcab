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

The channel solves of a radial sum are independent, so they run in a thread
pool, one worker per usable CPU.  Each worker calls LAPACK dstebz / dstein
through scipy's cython_lapack function pointers with the interpreter lock
released; the calling thread allocates every array and adds the results in
ell order, so every eigenvalue and every sum is bitwise the same for any
worker count and equal to what scipy's eigvalsh_tridiagonal /
eigh_tridiagonal return for the same matrix.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import islice
from typing import Callable

import numpy as np

# The benchmark tracer wraps these two names, so they stay importable from
# this module; the eigensolves below call LAPACK directly instead.
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal  # noqa: F401

from .numerics import (
    Bump,
    Grid1D,
    _one_blas_thread,
    _row_workers,
    require_positive,
    richardson,
)

__all__ = [
    "BoxSizeError",
    "ChannelCutoffError",
    "ChannelSpectrum",
    "RadialProblem",
    "RadialSum",
    "SpectralSum",
    "TraceResult",
    "ims_identity_check",
    "neg_sum_1d",
    "neg_sum_radial",
    "sentinel_channel",
]

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

    def __float__(self) -> float:
        return self.value

    @property
    def refinement_change(self) -> float:
        scale = max(abs(self.value), 1e-300)
        return abs(self.fine - self.coarse) / scale


@dataclass(frozen=True)
class ChannelSpectrum:
    """Negative eigenvalues of one angular momentum channel."""

    ell: int
    negative_eigenvalues: np.ndarray  # sorted descending (closest to 0 first)

    @property
    def degeneracy(self) -> int:
        return 2 * self.ell + 1

    @property
    def weighted_sum(self) -> float:
        return self.degeneracy * float(np.sum(self.negative_eigenvalues))


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

    @property
    def warnings(self) -> tuple:
        return self.total.warnings


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
    The grid lives on (0, r_max]: its first point sits one spacing from the
    origin and its last point is the outer Dirichlet boundary.  channels may
    list the angular momenta explicitly (the largest acting as the empty
    sentinel); by default the list is derived from the sign of the effective
    potential.
    """

    potential: Callable[[np.ndarray], np.ndarray]
    h: float
    grid: Grid1D
    channels: tuple | None = None

    def __post_init__(self):
        require_positive(self.h, "h")
        step = self.grid.spacing
        if abs(self.grid.points[0] - step) > 1e-9 * step:
            raise ValueError("radial grid must start one spacing from the origin")
        if step > self.h / 8.0 + 1e-15:
            raise ValueError(
                f"radial spacing {step:g} exceeds h/8 = {self.h / 8:g}; "
                "the Coulomb scale near the origin would be unresolved"
            )
        if self.channels is not None:
            ch = tuple(self.channels)
            if not ch or any(int(l) != l or l < 0 for l in ch):
                raise ValueError("channels must be nonnegative integers")
            if sorted(set(ch)) != list(range(max(ch) + 1)):
                raise ValueError("channels must be 0..ell_max without gaps")
            object.__setattr__(self, "channels", tuple(sorted(set(ch))))

    @classmethod
    def build(
        cls,
        potential: Callable,
        h: float,
        r_max: float,
        spacing: float,
        channels: tuple | None = None,
    ) -> "RadialProblem":
        """Grid on (0, r_max] with the spacing rounded to divide r_max."""
        n = max(int(round(r_max / spacing)), 16)
        step = r_max / n
        grid = Grid1D.uniform(step, r_max, n)
        return cls(potential=potential, h=h, grid=grid, channels=channels)

    @property
    def r_max(self) -> float:
        return float(self.grid.points[-1])

    def interior(self, level: int = 0) -> tuple[np.ndarray, float]:
        """Interior points at refinement level 0 or 1 (halved spacing)."""
        step = self.grid.spacing / (2.0**level)
        n = int(round(self.r_max / step))
        return step * np.arange(1, n), step


# ---------------------------------------------------------------------------
# LAPACK dstebz / dstein without the interpreter lock
#
# scipy's eigvalsh_tridiagonal and eigh_tridiagonal hold the interpreter lock
# through their Fortran calls, so channel solves from two threads ran one at
# a time (8 channels at h = 0.05: 1.63 s serially, 1.61 s from two threads).
# The same routines are reached here through the function pointers that
# scipy.linalg.cython_lapack exports, and called via ctypes, which releases
# the lock for the length of the call.

# parameter kinds: c = char *, i = int * (LP64), d = double *
_PARAMETERS = {"dstebz": "cciddiidddiidiidii", "dstein": "iddidiididiii"}
_POINTERS = {
    "c": ctypes.c_char_p,
    "i": ctypes.POINTER(ctypes.c_int),
    "d": ctypes.POINTER(ctypes.c_double),
}


def _parameter_kinds(signature: str) -> str:
    """Kind letters of the arguments of a capsule signature such as
    'void (char *, int *, __pyx_t_..._cython_lapack_d *)'; '?' for others."""
    kinds = []
    for arg in signature[signature.index("(") + 1 : signature.rindex(")")].split(","):
        arg = arg.strip()
        if arg in ("char *", "int *"):
            kinds.append(arg[0])
        elif arg == "double *" or arg.endswith("cython_lapack_d *"):
            kinds.append("d")
        else:
            kinds.append("?")
    return "".join(kinds)


@cache
def _lapack(name: str):
    """scipy's LAPACK routine name as a ctypes function that releases the
    interpreter lock; RuntimeError unless its signature is the LP64 one the
    callers here pass arguments for."""
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api)
    )
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
    )(("PyCapsule_GetPointer", api))
    signature = get_name(capsule)
    kinds = _parameter_kinds(signature.decode())
    if kinds != _PARAMETERS[name]:
        raise RuntimeError(
            f"scipy's {name} has the signature {signature.decode()!r}, not "
            "the LP64 int * / double * one this module calls it with"
        )
    prototype = ctypes.CFUNCTYPE(None, *(_POINTERS[k] for k in kinds))
    return prototype(get_pointer(capsule, signature))


def _ptr(array: np.ndarray):
    kind = "i" if array.dtype == np.intc else "d"
    return array.ctypes.data_as(_POINTERS[kind])


class _TridiagonalSolve:
    """Eigenvalues in (lower, 0) of the symmetric tridiagonal matrix with
    diagonal diag and off-diagonal off.

    LAPACK dstebz (range V, abstol 0) finds them, and with tail > 0 dstein
    adds their eigenvectors, of which only the mass on the last tail points
    is kept.  These are scipy's eigh_tridiagonal(select="v") calls with its
    arguments, so eigenvalues and vectors are bitwise scipy's.

    The constructor and advance() allocate every buffer, in the calling
    thread.  run() only makes the pending Fortran call on those buffers,
    without the interpreter lock, so it may run in a worker thread.  The
    calling thread alternates run() and advance() until advance() returns
    False; then eigenvalues (ascending) and, with tail, tail_masses (one per
    eigenvalue) are set and the buffers are released.
    """

    def __init__(self, diag, off, lower: float, tail: int = 0):
        n = diag.size
        if off.size != n - 1:
            raise ValueError(f"off-diagonal has {off.size} entries, not {n - 1}")
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise ValueError("array must not contain infs or NaNs")
        self.tail = tail
        self._n = ctypes.c_int(n)
        self._m, self._info = ctypes.c_int(), ctypes.c_int()
        self._d = np.ascontiguousarray(diag, dtype=float)
        self._e = np.ascontiguousarray(off, dtype=float)
        self._w = np.empty(n)
        self._iblock = np.empty(n, dtype=np.intc)
        self._isplit = np.empty(n, dtype=np.intc)
        work, iwork = np.empty(4 * n), np.empty(3 * n, dtype=np.intc)
        self._call = partial(
            _lapack("dstebz"),
            b"V",
            b"B" if tail else b"E",  # block order is what dstein takes
            ctypes.byref(self._n),
            ctypes.byref(ctypes.c_double(lower)),
            ctypes.byref(ctypes.c_double(0.0)),
            ctypes.byref(ctypes.c_int(0)),
            ctypes.byref(ctypes.c_int(0)),
            ctypes.byref(ctypes.c_double(0.0)),
            _ptr(self._d),
            _ptr(self._e),
            ctypes.byref(self._m),
            ctypes.byref(ctypes.c_int()),
            _ptr(self._w),
            _ptr(self._iblock),
            _ptr(self._isplit),
            _ptr(work),
            _ptr(iwork),
            ctypes.byref(self._info),
        )
        self._vectors = None

    def run(self) -> None:
        self._call()

    def advance(self) -> bool:
        """Check the call run() made; True when a further run() is due."""
        info, m, n = self._info.value, self._m.value, self._n.value
        if self._vectors is None:
            if info != 0:
                raise RuntimeError(f"LAPACK dstebz failed with info = {info}")
            if self.tail and m:
                self._vectors = np.empty((m, n))  # column-major n x m
                work, iwork = np.empty(5 * n), np.empty(n, dtype=np.intc)
                self._call = partial(
                    _lapack("dstein"),
                    ctypes.byref(self._n),
                    _ptr(self._d),
                    _ptr(self._e),
                    ctypes.byref(self._m),
                    _ptr(self._w),
                    _ptr(self._iblock),
                    _ptr(self._isplit),
                    _ptr(self._vectors),
                    ctypes.byref(self._n),
                    _ptr(work),
                    _ptr(iwork),
                    _ptr(np.empty(m, dtype=np.intc)),
                    ctypes.byref(self._info),
                )
                return True
            masses = np.zeros(m) if self.tail else None
        else:
            if info < 0:
                raise RuntimeError(f"LAPACK dstein failed with info = {info}")
            if info > 0:
                raise RuntimeError(
                    f"LAPACK dstein: {info} eigenvectors failed to converge"
                )
            masses = np.sum(self._vectors[:, n - self.tail :] ** 2, axis=1)
        order = np.argsort(self._w[:m])  # block order to ascending
        values = self._w[:m][order]
        negative = values < 0.0
        self.eigenvalues = values[negative]
        self.tail_masses = None if masses is None else masses[order][negative]
        del self._call, self._d, self._e, self._w, self._iblock, self._isplit
        del self._vectors
        return False

    def finish(self) -> "_TridiagonalSolve":
        """Run every step in the calling thread."""
        self.run()
        while self.advance():
            self.run()
        return self


def _run_solves(jobs, workers: int) -> dict:
    """Finish every (key, solve) that jobs yields on workers threads, with at
    most one Fortran call per thread in flight; {key: finished solve}.

    jobs is advanced, and every solve advanced, in the calling thread only.
    """
    finished = {}
    with ThreadPoolExecutor(workers) as pool:
        running = {}
        for key, solve in islice(jobs, workers):
            running[pool.submit(solve.run)] = key, solve
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                key, solve = running.pop(future)
                future.result()
                if solve.advance():
                    running[pool.submit(solve.run)] = key, solve
                    continue
                finished[key] = solve
                for key, solve in islice(jobs, 1):
                    running[pool.submit(solve.run)] = key, solve
    return finished


def _conjugation(points, step, h2, bump):
    """(phi^2 or None, off-diagonal, 2 max |off|) of phi T phi.

    T is the 3-point Dirichlet matrix on points with coupling -h^2/step^2
    between neighbours; phi is the optional bump sampled at points.
    """
    off = np.full(points.size - 1, -h2 / step**2)
    phi2 = None
    if bump is not None:
        phi = np.asarray(bump(points), dtype=float)
        phi2 = phi**2
        off = phi[:-1] * off * phi[1:]
    return phi2, off, 2.0 * np.max(np.abs(off))


def _negative_solve(diag, conjugation, tail=0) -> _TridiagonalSolve:
    """Unstarted solve for all eigenvalues < 0 of phi T phi, diag the whole
    diagonal of T (2 h^2/step^2 plus the potential)."""
    phi2, off, spread = conjugation
    if phi2 is not None:
        diag = phi2 * diag
    lower = float(min(np.min(diag) - spread, -1.0))
    return _TridiagonalSolve(diag, off, lower, tail)


def _sum_1d(potential, h, points, step, bump):
    v = np.asarray(potential(points), dtype=float)
    diag = 2.0 * h**2 / step**2 + v
    solve = _negative_solve(diag, _conjugation(points, step, h**2, bump))
    return float(np.sum(solve.finish().eigenvalues))


def neg_sum_1d(
    potential: Callable,
    h: float,
    grid: Grid1D,
    bump: Bump | None = None,
    rtol: float = CONVERGENCE_RTOL,
) -> SpectralSum:
    """Sum of negative eigenvalues of phi (-h^2 d^2/dx^2 + V) phi on a box.

    Dirichlet ends; phi is an optional multiplicative bump.  The returned
    value is Richardson-extrapolated over one halving of the grid spacing,
    and a warning is attached when the refinement pair still moves by more
    than rtol relatively.
    """
    require_positive(h, "h")
    coarse = _sum_1d(potential, h, grid.points[1:-1], grid.spacing, bump)
    fine_grid = grid.halved()
    fine = _sum_1d(potential, h, fine_grid.points[1:-1], fine_grid.spacing, bump)
    value = richardson(coarse, fine, order=2)
    warnings = []
    if abs(fine - coarse) > rtol * max(abs(value), 1e-12):
        warnings.append(
            f"eigenvalue sum moved {abs(fine - coarse):.3g} between refinements"
        )
    return SpectralSum(value=value, coarse=coarse, fine=fine, warnings=tuple(warnings))


def sentinel_channel(problem: RadialProblem, shift: float = 0.0) -> int:
    """Smallest ell whose effective potential never dips below zero.

    Channels 0 .. sentinel-1 can bind; the sentinel itself is solved as the
    emptiness witness.
    """
    r, _ = problem.interior(level=0)
    v = np.asarray(problem.potential(r), dtype=float)
    h2 = problem.h**2
    for ell in range(SENTINEL_MAX_ELL + 1):
        if np.min(ell * (ell + 1) * h2 / r**2 - v + shift) >= 0.0:
            return ell
    raise ChannelCutoffError(
        f"no empty channel found below ell = {SENTINEL_MAX_ELL}"
    )


def neg_sum_radial(
    problem: RadialProblem,
    shift: float = 0.0,
    bump: Bump | None = None,
    rtol: float = CONVERGENCE_RTOL,
) -> RadialSum:
    """Sum over channels of (2 ell + 1) * (negative half-line eigenvalues).

    The sentinel channel (one past the last binding ell) is solved and must
    be empty, otherwise ChannelCutoffError; bound states must be negligible
    at r_max (|E|-weighted mass in the outer 5% of the box below 1e-6),
    otherwise BoxSizeError.  The result carries that mass fraction and the
    sentinel ell, and grid convergence warnings propagate into it as for
    neg_sum_1d.  The (ell, refinement level) solves run on one worker
    thread per usable CPU; the result is bitwise the same for any count.
    """
    auto = sentinel_channel(problem, shift)
    if problem.channels is None:
        ells = list(range(auto + 1))
    else:
        ells = list(problem.channels)
        if max(ells) < auto:
            raise ChannelCutoffError(
                f"explicit channel list ends at ell = {max(ells)} but the "
                f"effective potential still dips below zero before ell = {auto}"
            )
    sentinel = ells[-1]
    h2 = problem.h**2

    levels = []
    for level in (0, 1):
        r, step = problem.interior(level=level)
        v = np.asarray(problem.potential(r), dtype=float)
        tail = max(2, int(0.05 * r.size))
        levels.append((r**2, step, v, _conjugation(r, step, h2, bump), tail))

    def jobs():
        for ell in ells:
            for level, (r2, step, v, conjugation, tail) in enumerate(levels):
                diag = 2.0 * h2 / step**2 + ell * (ell + 1) * h2 / r2 - v + shift
                guarded = level == 1 and ell < sentinel
                yield (ell, level), _negative_solve(
                    diag, conjugation, tail if guarded else 0
                )

    with _one_blas_thread():
        solved = _run_solves(jobs(), min(_row_workers(), 2 * len(ells)))

    found = max(solved[sentinel, level].eigenvalues.size for level in (1, 0))
    if found:
        raise ChannelCutoffError(
            f"sentinel channel ell = {sentinel} holds {found} negative eigenvalues"
        )

    channels = []
    totals = {0: 0.0, 1: 0.0}
    mass_num = 0.0
    mass_den = 0.0
    for ell in ells[:-1]:
        for level in (0, 1):
            eigs = solved[ell, level].eigenvalues
            totals[level] += (2 * ell + 1) * float(np.sum(eigs))
        fine = solved[ell, 1]
        weight = np.abs(fine.eigenvalues)
        mass_num += (2 * ell + 1) * float(np.sum(weight * fine.tail_masses))
        mass_den += (2 * ell + 1) * float(np.sum(weight))
        channels.append(
            ChannelSpectrum(ell=ell, negative_eigenvalues=fine.eigenvalues[::-1])
        )

    frac = mass_num / mass_den if mass_den > 0 else 0.0
    if frac > BOUNDARY_MASS_TOL:
        raise BoxSizeError(
            f"weighted eigenfunction mass {frac:.3g} in the outer 5% of "
            f"the box exceeds {BOUNDARY_MASS_TOL:g}; enlarge r_max"
        )

    value = richardson(totals[0], totals[1], order=2)
    warnings = []
    if abs(totals[1] - totals[0]) > rtol * max(abs(value), 1e-12):
        warnings.append(
            f"radial sum moved {abs(totals[1] - totals[0]):.3g} "
            "between refinements"
        )
    total = SpectralSum(
        value=value, coarse=totals[0], fine=totals[1], warnings=tuple(warnings)
    )
    return RadialSum(
        channels=tuple(channels),
        total=total,
        boundary_mass=frac,
        sentinel=sentinel,
    )


# ---------------------------------------------------------------------------
# IMS localization identity


def _two_norm_by_power_iteration(matvec, n, iterations=80, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(iterations):
        w = matvec(v)
        nrm = float(np.linalg.norm(w))
        if nrm < 1e-300:
            return 0.0
        estimate = nrm
        v = w / nrm
    return estimate


def ims_identity_check(H, partition) -> float:
    """Spectral norm of Phi- H Phi- + Phi+ H Phi+ - H + h^2 I_grad.

    The profiles are sampled at d(x) = |x| on H's grid.  The gradient-square
    term is realized as the matrix it equals in the localization identity,
    the half double commutator (1/2) sum_i [Phi_i, [Phi_i, H]]; with that
    realization the whole combination collapses to
        (1/2) (P H + H P) - H,     P = Phi-^2 + Phi+^2,
    which vanishes identically when the partition satisfies P = 1.  The
    returned norm (power iteration, matvec only) is therefore the floating
    point residual of the quadratic partition identity weighted by H.
    """
    x = np.asarray(H.grid.points, dtype=float)
    d = np.abs(x)
    pm = np.asarray(partition.inner(d), dtype=float)
    pp = np.asarray(partition.outer(d), dtype=float)
    s = pm * pm + pp * pp - 1.0
    m = H.matrix

    def matvec(v):
        return 0.5 * (s * (m @ v) + m @ (s * v))

    return _two_norm_by_power_iteration(matvec, x.size)
