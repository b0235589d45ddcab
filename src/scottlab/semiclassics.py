"""Weyl phase-space integrals and quantum-vs-Weyl trace experiments.

The momentum integral is always done in closed form,

    int_{R^n} (q^2 + V)_- dq = -(2 omega_n / (n + 2)) |V_-|^{n/2+1},

so every Weyl quantity reduces to a position quadrature against a power of
the negative part of the potential.  Position integrals run through adaptive
quadrature; when no cutoff is supplied the negative region of the potential
is located first so segment edges land on quadrature breakpoints.
"""

from __future__ import annotations

import math
import warnings as _warnmod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize

from .numerics import Bump, FitResult, Grid1D, fit_power_series, require_positive
from .spectra import RadialProblem, TraceResult, neg_sum_1d, neg_sum_radial

__all__ = [
    "WeylSpec",
    "local_trace_experiment",
    "unit_ball_volume",
    "weyl_energy",
    "weyl_prefactor",
]


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n, pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class WeylSpec:
    """Phase-space data for -h^2 Laplacian + V on R^n.

    The optional bump enters squared, matching the localized trace
    Tr[phi H phi]_- it is compared against.  n = 1 integrates over the line,
    n = 3 over radii with the 4 pi r^2 volume factor.
    """

    n: int
    potential: Callable
    bump: Bump | None = None
    h: float = 1.0

    def __post_init__(self):
        if self.n not in (1, 3):
            raise ValueError("only n = 1 and n = 3 are supported")
        require_positive(self.h, "h")


def _eval_scalar(potential: Callable, x: float) -> float:
    val = np.asarray(potential(np.asarray([x], dtype=float)), dtype=float)
    return float(val.reshape(-1)[0])


def _negative_segments(potential, probes) -> tuple[list[tuple[float, float]], bool]:
    """Segments of {V < 0} bracketed by probe points, edges refined by brentq.

    Returns the segment list and whether the region is open at the far end
    (still negative at the last probe).
    """
    vals = np.asarray(potential(probes), dtype=float)
    neg = vals < 0.0
    if not neg.any():
        return [], False
    # one brentq per sign change of the probe values, in probe order
    edges = [
        float(
            optimize.brentq(
                lambda s: _eval_scalar(potential, s),
                probes[i],
                probes[i + 1],
                xtol=1e-14,
                rtol=1e-14,
            )
        )
        for i in np.flatnonzero(neg[:-1] != neg[1:]).tolist()
    ]
    bounds = [float(probes[0])] + edges + [float(probes[-1])]
    segments = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        if _eval_scalar(potential, mid) < 0.0:
            segments.append((lo, hi))
    return segments, bool(neg[-1])


def _quad(f, lo, hi) -> float:
    with _warnmod.catch_warnings():
        _warnmod.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, _ = integrate.quad(
                f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400
            )
        except integrate.IntegrationWarning as exc:
            raise ValueError(
                f"position integral did not converge on [{lo:g}, {hi:g}]; "
                "|V_-|^(n/2+1) must be integrable there"
            ) from exc
    if not math.isfinite(val):
        raise ValueError("position integral is not finite")
    return val


def _position_integral(spec: WeylSpec) -> float:
    """int w(x) |V_-(x)|^(n/2+1) dx with w = bump^2, radial measure for n=3."""
    power = spec.n / 2.0 + 1.0

    def integrand(x: float) -> float:
        v = _eval_scalar(spec.potential, x)
        if v >= 0.0:
            return 0.0
        w = (-v) ** power
        if spec.bump is not None:
            w *= float(spec.bump(x)) ** 2
        if spec.n == 3:
            w *= 4.0 * math.pi * x * x
        return w

    if spec.bump is not None:
        lo = spec.bump.center - spec.bump.radius
        hi = spec.bump.center + spec.bump.radius
        if spec.n == 3:
            lo = max(lo, 0.0)
        if hi <= lo:
            return 0.0
        # split at the plateau edges where the cutoff's derivatives spike
        pr = spec.bump.plateau * spec.bump.radius
        cuts = sorted(
            {lo, hi}
            | {
                c
                for c in (spec.bump.center - pr, spec.bump.center + pr)
                if lo < c < hi
            }
        )
        return sum(_quad(integrand, a, b) for a, b in zip(cuts[:-1], cuts[1:]))

    if spec.n == 3:
        probes = np.geomspace(1e-9, 1e7, 800)
    else:
        probes = np.linspace(-1e4, 1e4, 8001)
    segments, open_tail = _negative_segments(spec.potential, probes)
    # adaptive quadrature on an interval spanning many decades can miss a
    # hump near one end, so each segment is cut at a geometric ladder first
    ladder = np.geomspace(1e-9, 1e7, 17 * 2 + 1)
    if spec.n == 1:
        ladder = np.concatenate([-ladder[::-1], [0.0], ladder])
    total = 0.0
    for lo, hi in segments:
        if spec.n == 3 and lo == probes[0]:
            lo = 0.0
        cuts = [lo] + [c for c in ladder if lo < c < hi] + [hi]
        total += sum(_quad(integrand, a, b) for a, b in zip(cuts[:-1], cuts[1:]))
    if open_tail:
        total += _quad(integrand, float(probes[-1]), np.inf)
    if spec.n == 1 and segments and segments[0][0] == probes[0]:
        total += _quad(integrand, -np.inf, float(probes[0]))
    return total


def weyl_prefactor(n: int, h: float = 1.0) -> float:
    """-(2 omega_n / (n + 2)) (2 pi h)^{-n}: the momentum integral's constant.

    (2 pi h)^{-n} int (q^2 + V)_- dq is this times |V_-|^{n/2+1}; for
    n = 3 it is -(15 pi^2 h^3)^{-1}.
    """
    require_positive(h, "h")
    return -(2.0 * unit_ball_volume(n) / (n + 2.0)) * (2.0 * math.pi * h) ** (-n)


def weyl_energy(spec: WeylSpec) -> float:
    """(2 pi h)^{-n} int bump^2 (q^2 + V)_- du dq, momentum part closed form.

    For n = 3 this is -(15 pi^2 h^3)^{-1} int bump^2 |V_-|^{5/2} du.
    """
    val = weyl_prefactor(spec.n, spec.h) * _position_integral(spec)
    return val if val != 0.0 else 0.0


def _require_radial_bump(bump: Bump) -> None:
    """ValueError unless the bump is nonzero at some radius r > 0."""
    if bump.center + bump.radius <= 0:
        raise ValueError(
            f"bump center {bump.center!r} + radius {bump.radius!r} <= 0: "
            "an n = 3 bump must reach some radius r > 0"
        )


def local_trace_experiment(
    potential: Callable,
    bump: Bump,
    h_values: Sequence[float],
    n: int = 3,
    spacing_divisor: float = 8.0,
) -> tuple[tuple[TraceResult, ...], FitResult]:
    """Localized trace Tr[phi H phi]_- against its Weyl integral over an h sweep.

    Each row records quantum sum, Weyl term, and a zero Scott entry (no
    Coulomb singularity here), so TraceResult.residual is the pure
    quantum-minus-Weyl defect.  The fit estimates the prefactor of the
    expected h^{-n+6/5} error; stability of residual * h^{n-6/5} across the
    sweep is the meaningful check, constants being unknown.  For n = 3 the
    bump lives on radii, and one with center + radius <= 0 vanishes on all
    of them: ValueError rather than a trace of zeros.
    """
    hs = [float(h) for h in h_values]
    if len(hs) < 2 or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_values must be strictly decreasing, length >= 2")
    if spacing_divisor < 8.0:
        raise ValueError("spacing_divisor below 8 would violate the h/8 rule")
    if n not in (1, 3):
        raise ValueError("only n = 1 and n = 3 are supported")
    if n == 3:
        _require_radial_bump(bump)

    span = 1.25 * bump.radius
    results = []

    def attractive(r):
        # RadialProblem wants the profile that is positive where V binds
        return -np.asarray(potential(r), dtype=float)

    for h in hs:
        step = h / spacing_divisor
        if n == 3:
            r_max = bump.center + span
            problem = RadialProblem.build(attractive, h, r_max, step)
            quantum = neg_sum_radial(problem, bump=bump)
            value, warnings = quantum.total.value, quantum.warnings
        else:
            lo = bump.center - span
            hi = bump.center + span
            m = max(int(round((hi - lo) / step)), 16)
            grid = Grid1D.uniform(lo, hi, m + 1)
            quantum = neg_sum_1d(potential, h, grid, bump=bump)
            value, warnings = quantum.value, quantum.warnings
        weyl = weyl_energy(WeylSpec(n=n, potential=potential, bump=bump, h=h))
        results.append(
            TraceResult(
                h=h,
                quantum_sum=value,
                weyl_sum=weyl,
                scott_term=0.0,
                warnings=warnings,
            )
        )

    fit = fit_power_series(
        hs,
        [abs(row.residual) for row in results],
        exponents=(6.0 / 5.0 - n,),
    )
    return tuple(results), fit
