"""Weyl phase-space integrals and quantum-vs-Weyl trace experiments.

The momentum integral is always done in closed form,

    int_{R^n} (q^2 + V)_- dq = -(2 omega_n / (n + 2)) |V_-|^{n/2+1},

so every Weyl quantity reduces to a position quadrature against a power of
the negative part of the potential.  Position integrals take one path:
V's sign is read at sample points (a cutoff's support ends and plateau
edges, or else fixed probes: 2.5 apart on [-1e4, 1e4] for n = 1, 4.7%
apart on [1e-9, 1e7] for n = 3), each sign change between neighbours is
bisected, and a globally adaptive Gauss-Kronrod rule integrates the panels
between the cuts.  A well that falls between the sample points and the
Kronrod nodes reads as empty, so an integral of exactly 0 warns.
"""

from __future__ import annotations

import math
import warnings as _warnmod
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .numerics import Bump, Grid1D, HSweep, require_decreasing, require_positive
from .numerics import step_count
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
    n = 3 over radii with the 4 pi r^2 volume factor, so an n = 3 bump must
    reach some radius r > 0.
    """

    n: int
    potential: Callable
    bump: Bump | None = None
    h: float = 1.0

    def __post_init__(self):
        if self.n not in (1, 3):
            raise ValueError("only n = 1 and n = 3 are supported")
        require_positive(self.h, "h")
        if self.n == 3 and self.bump is not None:
            _require_radial_bump(self.bump)


def _values(potential: Callable, x: np.ndarray) -> np.ndarray:
    """potential at the points x, as floats of x's shape."""
    return np.broadcast_to(np.asarray(potential(x), dtype=float), x.shape)


def _bisect(potential, lo, hi, neg_lo, xtol: float, rtol: float) -> np.ndarray:
    """Points where potential turns negative or back, one per bracket
    [lo_i, hi_i] whose lower end has potential < 0 as neg_lo_i says and
    whose upper end does not, by bisection.

    All brackets halve together, one potential call per step, and each
    stops once its width is below xtol + rtol |x|; its midpoint is
    returned.  ValueError when potential is NaN at a midpoint.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    active = np.arange(lo.size)
    while active.size:
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        done = b - a < xtol + rtol * np.abs(mid)
        active, mid = active[~done], mid[~done]
        v = _values(potential, mid)
        if np.isnan(v).any():
            x = float(mid[np.isnan(v)][0])
            raise ValueError(f"potential is NaN at x = {x!r}; bisection cannot continue")
        same = (v < 0.0) == neg_lo[active]
        lo[active[same]] = mid[same]
        hi[active[~same]] = mid[~same]
    return 0.5 * (lo + hi)


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21, Piessens et al.
# 1983): the Kronrod nodes in ascending order and their weights, and the
# weights of the 10-point Gauss rule on every second node
_KRONROD_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_KRONROD_NODES = np.concatenate([-_KRONROD_HALF, [0.0], _KRONROD_HALF[::-1]])
_KRONROD_WEIGHTS_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525452204, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_KRONROD_WEIGHTS = np.concatenate(
    [_KRONROD_WEIGHTS_HALF, [0.149445554002916905664936468389821],
     _KRONROD_WEIGHTS_HALF[::-1]]
)
_GAUSS_WEIGHTS_HALF = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS_WEIGHTS_HALF, _GAUSS_WEIGHTS_HALF[::-1]])

# panels beyond which a position integral counts as not converging
MAX_PANELS = 2000


def _gauss_kronrod(f, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(Kronrod value, |Kronrod - Gauss|) of f on each panel [a_i, b_i]."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b)[:, None] + half[:, None] * _KRONROD_NODES
    y = f(x.ravel()).reshape(x.shape)
    kronrod = half * (y @ _KRONROD_WEIGHTS)
    gauss = half * (y[:, 1::2] @ _GAUSS_WEIGHTS)
    return kronrod, np.abs(kronrod - gauss)


def _integrate(f, lo: np.ndarray, hi: np.ndarray, tails) -> float:
    """int f over the panels [lo_i, hi_i], which may not overlap, and over
    the half-lines [a, inf] or [-inf, b] in tails.

    f maps an array of points to its values there.  The panels are refined
    together (_refine).  A half-line is refined on its own, in t on [0, 1]
    through x = a + t/(1 - t) or b - t/(1 - t).
    """
    total = _refine(f, lo, hi, (lo.min(), hi.max())) if lo.size else 0.0
    for a, b in tails:
        edge, sign = (a, 1.0) if math.isfinite(a) else (b, -1.0)

        def mapped(t, edge=edge, sign=sign):
            # nodes that round to t = 1 map to infinity, and _refine reports
            # the sum that is not finite
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return f(edge + sign * t / (1.0 - t)) / (1.0 - t) ** 2

        total += _refine(mapped, np.zeros(1), np.ones(1), (a, b))
    return total


def _refine(f, a, b, span) -> float:
    """int f over the panels [a_i, b_i] by a globally adaptive Gauss-Kronrod
    rule; span is the range an error names.

    Every round bisects at once each panel whose error estimate
    |Kronrod - Gauss| exceeds its share, tolerance / panels, of the
    tolerance max(1e-13, 1e-14 |integral|), until the summed estimate is
    within it.  ValueError when that takes more than MAX_PANELS panels or
    the sum or its estimate is not finite.
    """
    values, errors = _gauss_kronrod(f, a, b)
    while True:
        total, error = float(np.sum(values)), float(np.sum(errors))
        tolerance = max(1e-13, 1e-14 * abs(total))
        if math.isfinite(total) and error <= tolerance:
            return total
        if not math.isfinite(total + error) or a.size >= MAX_PANELS:
            raise ValueError(
                f"position integral did not converge on [{span[0]:g}, {span[1]:g}]; "
                "|V_-|^(n/2+1) must be integrable there"
            )
        split = errors > tolerance / a.size
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_values, new_errors = _gauss_kronrod(f, new_a, new_b)
        keep = ~split
        a, b = np.concatenate([a[keep], new_a]), np.concatenate([b[keep], new_b])
        values = np.concatenate([values[keep], new_values])
        errors = np.concatenate([errors[keep], new_errors])


def _cuts(potential, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points and the turning points bisected between them, sorted, and
    whether potential < 0 at each point, where only its sign is read."""
    with np.errstate(divide="ignore", invalid="ignore"):  # V(r = 0) may be inf
        neg = _values(potential, points) < 0.0
    change = np.flatnonzero(neg[:-1] != neg[1:])
    turns = _bisect(
        potential, points[change], points[change + 1], neg[change], 1e-14, 1e-14
    )
    return np.sort(np.concatenate([points, turns])), neg


def _join_decades(lo, hi, probes) -> tuple[np.ndarray, np.ndarray]:
    """The panels [lo_i, hi_i] of r > 0, in order, with each panel joined to
    the one before while they share an end that is one of probes and the
    joined panel stays within a decade, hi <= 10 lo."""
    starts, ends = [], []
    for a, b in zip(lo.tolist(), hi.tolist()):
        if ends and ends[-1] == a and a in probes and b <= 10.0 * starts[-1]:
            ends[-1] = b
        else:
            starts.append(a)
            ends.append(b)
    return np.array(starts), np.array(ends)


def _position_integral(spec: WeylSpec) -> float:
    """int w(x) |V_-(x)|^(n/2+1) dx with w = bump^2, radial measure for n=3.

    Every turning point between two sample points is a cut, so a sliver of
    {V < 0} just past a sample point is a panel that no node can miss.
    With a bump every panel between the cuts is integrated: a well strictly
    between two cuts shows only at the Kronrod nodes.  Without one, the
    panels where V < 0 at the midpoint are, and the half-lines past the
    first and last probe (for n = 3, 0 to the first) where V < 0 there.
    For n = 3 each run of adjacent such panels is joined into panels no
    wider than one decade in r, every turning point still an end
    (_join_decades): no panel spans the decades that can hide a hump from
    the adaptive rule, and -V_TF starts from 18 panels, not 800.
    """
    power = spec.n / 2.0 + 1.0

    def integrand(x: np.ndarray) -> np.ndarray:
        v = _values(spec.potential, x)
        # NaN stays NaN here, so _refine rejects the integral
        w = np.where(v >= 0.0, 0.0, -v) ** power
        if spec.bump is not None:
            w *= spec.bump(x) ** 2
        if spec.n == 3:
            w *= 4.0 * math.pi * x * x
        return w

    bump = spec.bump
    if bump is not None:
        lo, hi = bump.center - bump.radius, bump.center + bump.radius
        lo = max(lo, 0.0) if spec.n == 3 else lo
        pr = bump.plateau * bump.radius
        edges = [c for c in (bump.center - pr, bump.center + pr) if lo < c < hi]
        points = np.array([lo, *edges, hi])
    elif spec.n == 3:
        points = np.geomspace(1e-9, 1e7, 800)
    else:
        points = np.linspace(-1e4, 1e4, 8001)
    cuts, neg = _cuts(spec.potential, points)
    lo, hi, tails = cuts[:-1], cuts[1:], []
    if bump is None:
        inside = _values(spec.potential, 0.5 * (lo + hi)) < 0.0
        lo, hi = lo[inside], hi[inside]
        if spec.n == 3:
            lo, hi = _join_decades(lo, hi, set(points.tolist()))
        if neg[-1]:
            tails.append((points[-1], math.inf))
        if neg[0] and spec.n == 3:
            lo, hi = np.concatenate([[0.0], lo]), np.concatenate([points[:1], hi])
        elif neg[0]:
            tails.append((-math.inf, points[0]))
    total = _integrate(integrand, lo, hi, tails)
    if total == 0.0:
        if bump is not None:
            where = "the bump's cuts " + ", ".join(f"{c:g}" for c in points)
            where += " and the Kronrod nodes between them"
        elif spec.n == 3:
            where = (f"{points.size} probes on [{points[0]:g}, {points[-1]:g}], "
                     f"each {points[1] / points[0]:.4g} times the last")
        else:
            where = (f"{points.size} probes {points[1] - points[0]:g} apart "
                     f"on [{points[0]:g}, {points[-1]:g}]")
        _warnmod.warn(
            f"Weyl position integral is exactly 0: V is read at {where}, "
            "and a well narrower than their spacing reads as empty",
            stacklevel=3,
        )
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

    For n = 3 this is -(15 pi^2 h^3)^{-1} int bump^2 |V_-|^{5/2} du.  The
    position integral reads V at its sample points (a bump's cuts, or else
    probes 2.5 apart for n = 1 and 4.7% apart for n = 3) and at the Kronrod
    nodes between them, so a well that falls between all of these reads as
    empty; an integral of exactly 0 warns and names that sampling.
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
) -> HSweep:
    """Localized trace Tr[phi H phi]_- against its Weyl integral over an h sweep.

    Each row records quantum sum, Weyl term, and a zero Scott entry (no
    Coulomb singularity here), so TraceResult.residual is the pure
    quantum-minus-Weyl defect.  The fit estimates the prefactor of the
    expected h^{-n+6/5} error; stability of residual * h^{n-6/5} across the
    sweep is the meaningful check, constants being unknown.  For n = 3 the
    bump lives on radii, and one with center + radius <= 0 vanishes on all
    of them: ValueError rather than a trace of zeros.  A row whose quantum
    sum is exactly 0 while its Weyl term is not has no negative eigenvalue
    under the bump, so its defect would be the Weyl term alone: it carries a
    warning and is left out of the fit.
    """
    hs = require_decreasing(h_values, least=2)
    spec = WeylSpec(n=n, potential=potential, bump=bump)  # checks n and the bump

    span = 1.25 * bump.radius
    results, left_out = [], []

    def attractive(r):
        # RadialProblem wants the profile that is positive where V binds
        return -np.asarray(potential(r), dtype=float)

    for h in hs:
        step = h / 8.0
        if n == 3:
            problem = RadialProblem.build(attractive, h, bump.center + span, step)
            quantum = neg_sum_radial(problem, bump=bump)
            value, warnings = quantum.total.value, quantum.warnings
        else:
            lo, hi = bump.center - span, bump.center + span
            grid = Grid1D.uniform(lo, hi, max(step_count(hi - lo, step), 16) + 1)
            quantum = neg_sum_1d(potential, h, grid, bump=bump)
            value, warnings = quantum.value, quantum.warnings
        weyl = weyl_energy(replace(spec, h=h))
        if value == 0.0 and weyl != 0.0:
            reason = f"quantum sum is 0 against a Weyl term of {weyl:.3g}"
            left_out.append({"h": h, "reason": reason})
            warnings = (
                *warnings,
                f"quantum sum is 0 at h = {h:g} against a Weyl term of {weyl:.3g}: "
                "no negative eigenvalue under the bump; the row is left out of the fit",
            )
        results.append(TraceResult(h=h, quantum_sum=value, weyl_sum=weyl,
                                   scott_term=0.0, warnings=warnings))

    values = [abs(row.residual) for row in results]
    return HSweep(hs, results, values, exponents=(6.0 / 5.0 - n,), left_out=left_out)
