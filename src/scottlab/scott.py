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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .numerics import FitResult, fit_power_series, require_positive
from .semiclassics import WeylSpec, weyl_energy
from .spectra import RadialProblem, TraceResult, neg_sum_radial, sentinel_channel
from .thomas_fermi import NucleiConfig, TFSolution, atomic_tf, tf_length_scale

__all__ = [
    "HydrogenExpansion",
    "MolecularAssembly",
    "ScottExperiment",
    "hydrogen_exact_sum",
    "hydrogen_expansion_check",
    "molecular_energy_assembly",
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


def hydrogen_exact_sum(z, h) -> float:
    """Tr[-h^2 Laplacian - z/|x| + 1]_- as the finite Bohr-level sum.

    Levels -z^2/(4 h^2 n^2) shifted by +1 are negative for n <= z/(2h), each
    with multiplicity n^2, giving sum over 1 <= n <= z/(2h) of
    (-z^2/(4h^2) + n^2).  Empty sum is 0.
    """
    zq, hq = _to_fraction(z), _to_fraction(h)
    if zq <= 0 or hq <= 0:
        raise ValueError("z and h must be positive")
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
    """(1/(8 h^2)) sum of z_k^2; additive over nuclei."""
    require_positive(h, "h")
    return sum(float(z) ** 2 for z in charges) / (8.0 * h * h)


@dataclass(frozen=True)
class ScottExperiment:
    """One h sweep of quantum-minus-Weyl on the TF potential, with its fit."""

    z: float
    h_values: tuple
    results: tuple
    fit: FitResult

    def __post_init__(self):
        hs = tuple(float(h) for h in self.h_values)
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("h_values must be strictly decreasing")
        object.__setattr__(self, "h_values", hs)
        object.__setattr__(self, "results", tuple(self.results))

    @property
    def scott_coefficient(self) -> float:
        """Fitted h^-2 coefficient; z^2/8 is the target."""
        return self.fit.coefficient(-2.0)

    @property
    def warnings(self) -> tuple:
        out = []
        for row in self.results:
            out.extend(row.warnings)
        out.extend(self.fit.warnings)
        return tuple(out)


def _tf_weyl_term(solution: TFSolution, h: float) -> float:
    spec = WeylSpec(
        n=3, potential=lambda r: -solution.v_tf(r), bump=None, h=h
    )
    return weyl_energy(spec)


def scott_experiment_tf(
    z: float,
    h_values: Sequence[float],
    solution: TFSolution | None = None,
    x_max: float = 15.0,
    spacing_scale: float = 1.0,
    extra_channels: int = 0,
) -> ScottExperiment:
    """Extract the Scott coefficient from the atomic TF potential.

    Per h: quantum = radial negative-eigenvalue sum of -h^2 Laplacian - V^TF,
    weyl = the closed-form momentum Weyl integral of the same potential, and
    the Scott term z^2/(8h^2) is recorded alongside.  The experiment fits
    quantum - weyl against {h^-2, h^-1}; the h^-1 column absorbs the slow
    next-order drift so the h^-2 coefficient settles.

    The TF potential is solved once (it does not depend on h).  The box ends
    at x_max TF lengths: far enough that the phase-space volume beyond it,
    which falls off like x_max^-7, is negligible against the fit tolerance.
    spacing_scale and extra_channels exist for discretization-independence
    checks; defaults leave the spacing rule min(h/8, h^2/(5z)) and the
    automatic channel list alone.
    """
    hs = [float(h) for h in h_values]
    if len(hs) < 2 or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_values must be strictly decreasing, length >= 2")
    if not 0 < spacing_scale <= 1.0:
        raise ValueError("spacing_scale must lie in (0, 1]")
    if extra_channels < 0:
        raise ValueError("extra_channels must be nonnegative")

    sol = solution if solution is not None else atomic_tf(z)
    if abs(sol.z - z) > 1e-12 * max(z, 1.0):
        raise ValueError("supplied TF solution is for a different charge")
    r_max = x_max * tf_length_scale(z)

    results = []
    for h in hs:
        # the innermost Bohr-like orbit lives at scale ~ 2h^2/z; resolve it
        # with ten points, and never let the spacing exceed h/8
        spacing = spacing_scale * min(h / 8.0, 2.0 * h * h / (10.0 * z))
        problem = RadialProblem.build(sol.v_tf, h, r_max, spacing)
        if extra_channels:
            ells = tuple(range(sentinel_channel(problem) + 1 + extra_channels))
            problem = RadialProblem.build(
                sol.v_tf, h, r_max, spacing, channels=ells
            )
        quantum = neg_sum_radial(problem)
        results.append(
            TraceResult(
                h=h,
                quantum_sum=quantum.total.value,
                weyl_sum=_tf_weyl_term(sol, h),
                scott_term=scott_term([z], h),
                warnings=quantum.warnings,
            )
        )

    fit = fit_power_series(
        hs,
        [row.quantum_sum - row.weyl_sum for row in results],
        exponents=(-2.0, -1.0),
    )
    return ScottExperiment(z=z, h_values=tuple(hs), results=tuple(results), fit=fit)


@dataclass(frozen=True)
class MolecularAssembly:
    """Two-term molecular energy bookkeeping in the sum-of-atoms mode.

    Physical charges are Z_k = |Z| z_k.  E_TF_scaled applies the exact TF
    scaling E(Z, R) = |Z|^{7/3} E(z, r); scott_total is (1/2) sum Z_k^2 with
    the spin factor folded in; h_effective ties the semiclassical parameter
    to |Z| through epsilon = |Z|^{-2/3}.
    """

    charges: tuple
    Z_total: float
    E_TF_scaled: float
    scott_total: float
    h_effective: float
    epsilon: float
    sum_of_atoms: bool = True
    warnings: tuple = field(default_factory=tuple)

    @property
    def two_term_energy(self) -> float:
        return self.E_TF_scaled + self.scott_total


def molecular_energy_assembly(cfg: NucleiConfig, Z_total: float) -> MolecularAssembly:
    """Assemble the two-term expansion for reduced charges cfg at scale |Z|.

    Atomic TF energies are summed per nucleus (interaction terms dropped;
    the record is flagged sum_of_atoms).  Each distinct reduced charge is
    solved once.
    """
    if Z_total <= 0:
        raise ValueError("total charge must be positive")
    atomic_energy: dict[float, float] = {}
    for zk in cfg.charges:
        if zk not in atomic_energy:
            atomic_energy[zk] = atomic_tf(zk).E_TF
    e_tf = sum(atomic_energy[zk] for zk in cfg.charges)
    scott_total = 0.5 * sum((Z_total * zk) ** 2 for zk in cfg.charges)
    eps = Z_total ** (-2.0 / 3.0)
    warnings = []
    if eps >= 1.0:
        warnings.append("epsilon = |Z|^(-2/3) >= 1; h_effective loses meaning")
        h_eff = float("nan")
    else:
        h_eff = math.sqrt((1.0 - eps) / 2.0) * Z_total ** (-1.0 / 3.0)
    return MolecularAssembly(
        charges=tuple(cfg.charges),
        Z_total=float(Z_total),
        E_TF_scaled=Z_total ** (7.0 / 3.0) * e_tf,
        scott_total=scott_total,
        h_effective=h_eff,
        epsilon=eps,
        sum_of_atoms=True,
        warnings=tuple(warnings),
    )
