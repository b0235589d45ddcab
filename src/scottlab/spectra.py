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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .numerics import Bump, Grid1D, require_positive, richardson

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
    channels: tuple
    total: SpectralSum

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


def _negative_spectrum(diag, points, step, h2, bump, need_vectors=False):
    """All eigenvalues < 0 of phi T phi, T the 3-point Dirichlet matrix.

    diag is the caller's whole diagonal of T (2 h^2/step^2 plus the
    potential); the coupling -h^2/step^2 between neighbours is added here,
    and the optional bump phi is sampled at points.  Eigenvectors come back
    only with need_vectors, otherwise None.
    """
    off = np.full(points.size - 1, -h2 / step**2)
    if bump is not None:
        phi = np.asarray(bump(points), dtype=float)
        diag = phi**2 * diag
        off = phi[:-1] * off * phi[1:]
    lower = float(min(np.min(diag) - 2.0 * np.max(np.abs(off)), -1.0))
    if need_vectors:
        w, v = eigh_tridiagonal(diag, off, select="v", select_range=(lower, 0.0))
        return w[w < 0], v[:, w < 0]
    w = eigvalsh_tridiagonal(diag, off, select="v", select_range=(lower, 0.0))
    return w[w < 0], None


def _sum_1d(potential, h, points, step, bump):
    v = np.asarray(potential(points), dtype=float)
    diag = 2.0 * h**2 / step**2 + v
    w, _ = _negative_spectrum(diag, points, step, h**2, bump)
    return float(np.sum(w))


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
    otherwise BoxSizeError.  Grid convergence warnings propagate into the
    result as for neg_sum_1d.
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

    channels = []
    totals = {0: 0.0, 1: 0.0}
    mass_num = 0.0
    mass_den = 0.0

    for ell in ells:
        want_vectors = ell < sentinel
        eigs = {}
        for level in (0, 1):
            r, step = problem.interior(level=level)
            v = np.asarray(problem.potential(r), dtype=float)
            diag = 2.0 * h2 / step**2 + ell * (ell + 1) * h2 / r**2 - v + shift
            w, vec = _negative_spectrum(
                diag, r, step, h2, bump, need_vectors=(want_vectors and level == 1)
            )
            eigs[level] = w
            if vec is not None and w.size:
                tail = max(2, int(0.05 * r.size))
                mass = np.sum(vec[-tail:, :] ** 2, axis=0)
                mass_num += (2 * ell + 1) * float(np.sum(np.abs(w) * mass))
                mass_den += (2 * ell + 1) * float(np.sum(np.abs(w)))
        if ell == sentinel:
            if eigs[1].size or eigs[0].size:
                raise ChannelCutoffError(
                    f"sentinel channel ell = {ell} holds "
                    f"{max(eigs[1].size, eigs[0].size)} negative eigenvalues"
                )
            break
        for level in (0, 1):
            totals[level] += (2 * ell + 1) * float(np.sum(eigs[level]))
        channels.append(
            ChannelSpectrum(ell=ell, negative_eigenvalues=np.sort(eigs[1])[::-1])
        )

    if mass_den > 0:
        frac = mass_num / mass_den
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
    return RadialSum(channels=tuple(channels), total=total)


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
