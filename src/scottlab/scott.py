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

from .numerics import FitResult, fit_power_series, require_positive
from .semiclassics import WeylSpec, weyl_energy
from .spectra import RadialProblem, TraceResult, neg_sum_radial
from .thomas_fermi import atomic_tf, tf_length_scale

__all__ = [
    "HYDROGEN_LEVEL_LIMIT",
    "HydrogenExpansion",
    "ScottExperiment",
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


_FIT_SPREAD_KEYS = (
    "scott_leave_one_out",
    "scott_constant_shift",
    "h_inverse_leave_one_out",
)


@dataclass(frozen=True)
class ScottExperiment:
    """One h sweep of quantum-minus-Weyl on the TF potential, with its fit.

    per_h holds, for each h, the radial sum's diagnostics: grid_points,
    negative_eigenvalues, sentinel, boundary_mass and refinement_change.
    """

    z: float
    h_values: tuple
    results: tuple
    fit: FitResult
    per_h: tuple = ()

    def __post_init__(self):
        hs = tuple(float(h) for h in self.h_values)
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("h_values must be strictly decreasing")
        object.__setattr__(self, "h_values", hs)
        object.__setattr__(self, "results", tuple(self.results))
        object.__setattr__(self, "per_h", tuple(self.per_h))

    @property
    def scott_coefficient(self) -> float:
        """Fitted h^-2 coefficient; z^2/8 is the target."""
        return self.fit.coefficient(-2.0)

    def fit_spread(self) -> dict:
        """How far the choice of samples and of model moves the fit.

        scott_leave_one_out and h_inverse_leave_one_out are the [min, max] of
        the h^-2 and h^-1 coefficients over the fits that each drop one h;
        scott_constant_shift is the change of the h^-2 coefficient when an
        h^0 column joins the fit.  Each is None with fewer than three h
        values.  The sub-fits' own warnings are dropped: leaving out an end
        of the sweep may narrow its range below the factor 2 that the full
        fit is judged by.
        """
        hs = self.h_values
        if len(hs) < 3:
            return dict.fromkeys(_FIT_SPREAD_KEYS)
        ys = tuple(row.quantum_sum - row.weyl_sum for row in self.results)
        exponents = self.fit.exponents
        loo = [
            fit_power_series(hs[:k] + hs[k + 1 :], ys[:k] + ys[k + 1 :], exponents)
            for k in range(len(hs))
        ]
        with_constant = fit_power_series(hs, ys, (*exponents, 0.0))

        def span(exponent):
            values = [fit.coefficient(exponent) for fit in loo]
            return [min(values), max(values)]

        shift = with_constant.coefficient(-2.0) - self.scott_coefficient
        return dict(zip(_FIT_SPREAD_KEYS, (span(-2.0), shift, span(-1.0))))

    @property
    def warnings(self) -> tuple:
        out = []
        for row in self.results:
            out.extend(row.warnings)
        out.extend(self.fit.warnings)
        return tuple(out)


def scott_experiment_tf(
    z: float,
    h_values: Sequence[float],
    x_max: float = 15.0,
    spacing_scale: float = 1.0,
) -> ScottExperiment:
    """Extract the Scott coefficient from the atomic TF potential.

    Per h: quantum = radial negative-eigenvalue sum of -h^2 Laplacian - V^TF,
    weyl = the closed-form momentum Weyl integral of the same potential, and
    the Scott term z^2/(8h^2) is recorded alongside.  The experiment fits
    quantum - weyl against {h^-2, h^-1}; the h^-1 column absorbs the slow
    next-order drift so the h^-2 coefficient settles.

    The TF potential (atomic_tf, whose universal phi is solved once per
    process) and the Weyl position integral are computed once per sweep: they
    do not depend on h, and the Weyl term is h^-3 times that integral.  The
    box ends at x_max TF lengths; the phase-space volume beyond it falls
    off like x_max^-7, but at the default 15 the truncation still moves the
    coefficient by a few 1e-5, more than halving the step does.  The radial
    grid is mapped, r = t + z t^2/(4h^2), with the t-step min(h/8,
    h^2/(5z)), scaled by spacing_scale for discretization-independence
    checks.  The channels run up to the solved empty sentinel; every channel
    past it is empty too.
    """
    hs = [float(h) for h in h_values]
    if len(hs) < 2 or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_values must be strictly decreasing, length >= 2")
    if not 0 < spacing_scale <= 1.0:
        raise ValueError("spacing_scale must lie in (0, 1]")

    sol = atomic_tf(z)
    r_max = x_max * tf_length_scale(z)
    weyl_h3 = weyl_energy(WeylSpec(n=3, potential=lambda r: -sol.v_tf(r), h=1.0))

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
        results.append(
            TraceResult(
                h=h,
                quantum_sum=quantum.total.value,
                weyl_sum=weyl_h3 / h**3,
                scott_term=scott_term([z], h),
                warnings=quantum.warnings,
            )
        )
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

    fit = fit_power_series(
        hs,
        [row.quantum_sum - row.weyl_sum for row in results],
        exponents=(-2.0, -1.0),
    )
    return ScottExperiment(
        z=z, h_values=tuple(hs), results=tuple(results), fit=fit, per_h=per_h
    )
