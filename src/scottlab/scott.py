"""Scott-correction pipeline.

Closed-form hydrogen sums anchor the engine; the main experiment subtracts
the Weyl volume term from the quantum eigenvalue sum of the Thomas-Fermi
Hamiltonian over an h sweep and fits the leftover against {h^-2, h^-1}.  The
h^-2 coefficient is the Scott correction, z^2/8 for a single nucleus.  The
hydrogen pieces run in exact rational arithmetic so boundary cases like
z/(2h) landing on an integer cannot be lost to floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .numerics import HSweep, require_decreasing, require_positive
# weyl_energy is unused but kept: bench/tracer.py wraps it by this name
from .semiclassics import weyl_energy, weyl_prefactor  # noqa: F401
from .spectra import RadialProblem, TraceResult, neg_sum_radial
from .thomas_fermi import atomic_tf, tf_length_scale

__all__ = [
    "HYDROGEN_LEVEL_LIMIT",
    "HydrogenExpansion",
    "hydrogen_exact_sum",
    "hydrogen_expansion_check",
    "scott_experiment_tf",
    "scott_term",
]


def _to_fraction(x) -> Fraction:
    # Fraction(str(x)) keeps decimal inputs like 0.1 exact instead of
    # inheriting their binary representation error
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


# the largest z/(2h) whose hydrogen sum is a finite float: with K =
# floor(z/(2h)), both terms of the sum lie in [0, K (z/(2h))^2], so its
# magnitude stays below (z/(2h))^3
HYDROGEN_LEVEL_LIMIT = sys.float_info.max ** (1.0 / 3.0)


def _require_levels(z, h) -> None:
    """ValueError unless z/(2h) <= HYDROGEN_LEVEL_LIMIT, compared exactly."""
    limit = HYDROGEN_LEVEL_LIMIT
    if _to_fraction(z) > 2 * _to_fraction(h) * Fraction(limit):
        raise ValueError(
            f"z = {z!r} at h = {h!r} lies outside 0 < z <= 2h x {limit:.6g}, "
            "the charges whose hydrogen sum is a finite float"
        )


def hydrogen_exact_sum(z, h) -> float:
    """Tr[-h^2 Laplacian - z/|x| + 1]_- as the finite Bohr-level sum.

    Levels -z^2/(4 h^2 n^2) shifted by +1 are negative for n <= z/(2h), each
    with multiplicity n^2, giving sum over 1 <= n <= z/(2h) of
    (-z^2/(4h^2) + n^2).  Empty sum is 0.  z/(2h) above
    HYDROGEN_LEVEL_LIMIT raises ValueError, since the sum could overflow.
    """
    zq, hq = _to_fraction(z), _to_fraction(h)
    if zq <= 0 or hq <= 0:
        raise ValueError("z and h must be positive")
    _require_levels(z, h)
    top = zq / (2 * hq)
    K = math.floor(top)
    if K < 1:
        return 0.0
    total = -K * zq**2 / (4 * hq**2) + Fraction(K * (K + 1) * (2 * K + 1), 6)
    return float(total)


@dataclass(frozen=True)
class HydrogenExpansion:
    """Exact decomposition of the hydrogen sum at h = z/(2K)."""

    z: Fraction
    K: int
    h: Fraction
    sum: Fraction
    leading: Fraction
    scott: Fraction
    remainder: Fraction


def hydrogen_expansion_check(z, K: int) -> HydrogenExpansion:
    """Split the exact sum at h = z/(2K) into leading, Scott, and remainder.

    With the boundary exact, sum = -(4K^3 - 3K^2 - K)/6, the leading Weyl
    term is -2K^3/3 and the Scott term K^2/2, so the remainder collapses to
    K/6 whatever z is.
    """
    if int(K) != K or K < 1:
        raise ValueError("K must be a positive integer")
    K = int(K)
    zq = _to_fraction(z)
    if zq <= 0:
        raise ValueError("z must be positive")
    hq = zq / (2 * K)
    total = -K * zq**2 / (4 * hq**2) + Fraction(K * (K + 1) * (2 * K + 1), 6)
    leading = -(zq**3) / (12 * hq**3)
    scott = zq**2 / (8 * hq**2)
    return HydrogenExpansion(
        z=zq,
        K=K,
        h=hq,
        sum=total,
        leading=leading,
        scott=scott,
        remainder=total - leading - scott,
    )


def scott_term(charges: Sequence[float], h: float) -> float:
    """(1/(8 h^2)) sum of z_k^2, each z_k finite; additive over nuclei."""
    require_positive(h, "h")
    zs = [float(z) for z in charges]
    if not all(map(math.isfinite, zs)):
        raise ValueError(f"charges must be finite, got {zs!r}")
    return sum(z**2 for z in zs) / (8.0 * h * h)


def scott_experiment_tf(
    z: float,
    h_values: Sequence[float],
    x_max: float = 15.0,
    spacing_scale: float = 1.0,
) -> HSweep:
    """Extract the Scott coefficient from the atomic TF potential.

    Per h: quantum = radial negative-eigenvalue sum of -h^2 Laplacian - V^TF,
    weyl = the closed-form momentum Weyl integral of the same potential, and
    the Scott term z^2/(8h^2) is recorded alongside.  The experiment fits
    quantum - weyl against {h^-2, h^-1}; the h^-1 column absorbs the slow
    next-order drift so the h^-2 coefficient settles.

    The TF potential (atomic_tf, whose universal phi is solved once per
    process) is built once per sweep, and the Weyl term needs no quadrature:
    it is h^-3 times -(15 pi^2)^-1 int V^(5/2) d^3x, and by the TF virial
    identity (TFSolution.v52_integral) that integral is
    4 pi l_1^(1/2) (-5s/7) z^(7/3), with s = phi'(0) and l_1 the TF length
    at z = 1.  The box ends at x_max TF lengths; the phase-space volume
    beyond it falls off like x_max^-7, but at the default 15 the truncation
    still moves the coefficient by a few 1e-5, more than halving the step
    does.  The radial grid is mapped, r = t + z t^2/(4h^2), with the t-step
    min(h/8, h^2/(5z)), scaled by spacing_scale for discretization-independence
    checks.  The channels run up to the solved empty sentinel; every channel
    past it is empty too.  The sweep's per_h holds, for each h, the radial
    sum's grid_points, negative_eigenvalues, sentinel, boundary_mass and
    refinement_change.
    """
    hs = require_decreasing(h_values, least=2)
    if not 0 < spacing_scale <= 1.0:
        raise ValueError("spacing_scale must lie in (0, 1]")

    sol = atomic_tf(z)
    r_max = x_max * tf_length_scale(z)
    weyl_h3 = weyl_prefactor(3) * sol.v52_integral()

    results, per_h = [], []
    for h in hs:
        # the innermost Bohr-like orbit lives at scale ~ 2h^2/z; resolve it
        # with ten points, and never let the step exceed h/8.  The map stays
        # linear out to about twice that radius, then widens the step like
        # sqrt(r), as the local Coulomb wavelength h sqrt(r/z) does.
        step = spacing_scale * min(h / 8.0, 2.0 * h * h / (10.0 * z))
        stretch = z / (4.0 * h * h)
        problem = RadialProblem.build(sol.v_tf, h, r_max, step, stretch=stretch)
        quantum = neg_sum_radial(problem)
        row = TraceResult(h=h, quantum_sum=quantum.total.value, weyl_sum=weyl_h3 / h**3,
                          scott_term=scott_term([z], h), warnings=quantum.warnings)
        results.append(row)
        per_h.append(
            {
                "h": h,
                "grid_points": problem.grid.size,
                "negative_eigenvalues": sum(
                    c.negative_eigenvalues.size for c in quantum.channels
                ),
                "sentinel": quantum.sentinel,
                "boundary_mass": quantum.boundary_mass,
                "refinement_change": quantum.total.refinement_change,
            }
        )

    values = [row.quantum_sum - row.weyl_sum for row in results]
    return HSweep(hs, results, values, exponents=(-2.0, -1.0), per_h=per_h)
