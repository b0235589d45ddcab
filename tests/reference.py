"""Definitions that only the tests use, kept out of the package, which holds
what a command, a pipeline or the benchmark reaches
(tests/test_package.py::test_every_definition_is_used_in_the_package)."""

import math
from dataclasses import dataclass

import numpy as np

from scottlab.coherent import ClassicalSymbol, CoherentParams, PhasePoint
from scottlab.numerics import _step, require_positive
from scottlab.thomas_fermi import TFSolution, UniversalTF


# ---------------------------------------------------------------------------
# coherent states


def new_kernel_G(p: CoherentParams, pt: PhasePoint, x, y):
    """Kernel of the smeared coherent operator G_{u,q}."""
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    mid = 0.5 * (xs + ys) - pt.u
    diff = xs - ys
    val = (math.pi * p.h) ** (-0.5) * np.exp(
        -p.a * mid**2
        + 1j * pt.q * diff / p.h
        - diff**2 / (4.0 * p.h**2 * p.a)
    )
    return val if (np.ndim(x) or np.ndim(y)) else complex(val)


def constant_symbol(value: float) -> ClassicalSymbol:
    return ClassicalSymbol(
        F=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
        dF=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
        d2F=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
        V=lambda u: np.full_like(np.asarray(u, dtype=float), value),
        dV=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        d2V=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
    )


# ---------------------------------------------------------------------------
# quadratic partition of unity and the IMS localization identity


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

    def inner(self, d):
        val = np.cos(self._theta(d))
        return val if np.ndim(d) else float(val)

    def outer(self, d):
        val = np.sin(self._theta(d))
        return val if np.ndim(d) else float(val)


def ims_identity_check(H, partition) -> float:
    """Spectral norm of Phi- H Phi- + Phi+ H Phi+ - H + h^2 I_grad.

    The profiles are sampled at d(x) = |x| on H's grid.  The gradient-square
    term is realized as the matrix it equals in the localization identity,
    the half double commutator (1/2) sum_i [Phi_i, [Phi_i, H]]; with that
    realization the whole combination collapses to
        (1/2) (P H + H P) - H,     P = Phi-^2 + Phi+^2,
    which vanishes identically when the partition satisfies P = 1.  The
    returned norm (exact, of the dense combination) is therefore the
    floating point residual of the quadratic partition identity weighted by
    H.
    """
    x = np.asarray(H.grid.points, dtype=float)
    d = np.abs(x)
    pm = np.asarray(partition.inner(d), dtype=float)
    pp = np.asarray(partition.outer(d), dtype=float)
    s = pm * pm + pp * pp - 1.0
    m = H.matrix
    return float(np.linalg.norm(0.5 * (s[:, None] * m + m * s), 2))


# ---------------------------------------------------------------------------
# Thomas-Fermi


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


def _five_point_derivatives(y, step) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of y on a uniform grid by fourth-order
    central differences, at every point but the two at each end."""
    first = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * step)
    second = (
        -y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]
    ) / (12.0 * step**2)
    return first, second


def curvature_table(universal: UniversalTF) -> tuple[np.ndarray, np.ndarray]:
    """phi'' on the trimmed table, by five-point differences of the
    tabulated values in log-log coordinates (independent of how the
    table was produced)."""
    lx = np.log(universal.x)
    step = (lx[-1] - lx[0]) / (lx.size - 1)
    d1, d2 = _five_point_derivatives(np.log(universal.phi_table), step)
    x, phi = universal.x[2:-2], universal.phi_table[2:-2]
    phipp = phi * (d2 + d1 * (d1 - 1.0)) / x**2
    sl = slice(6, -6)
    return x[sl], phipp[sl]


def ode_residual_norm(universal: UniversalTF) -> float:
    """Integral norm of phi'' - phi^(3/2)/sqrt(x) over the table.

    Weighted by x (the measure under which int x phi'' dx = 1 expresses
    neutrality); an unweighted norm would be dominated by the smallest
    radii where differencing tabulated values is noise-limited.
    """
    x, phipp = curvature_table(universal)
    phi = universal.phi(x)
    resid = phipp - phi**1.5 / np.sqrt(x)
    return float(
        np.trapezoid(np.abs(resid) * x, x) / np.trapezoid(phipp * x, x)
    )
