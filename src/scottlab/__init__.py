"""Semiclassical spectral sums, coherent states, and Thomas-Fermi atoms.

The package measures the Scott correction: the h^-2 coefficient left over
when the Weyl volume term is subtracted from the quantum eigenvalue sum of an
atomic Thomas-Fermi Hamiltonian.  Supporting pieces are a radial eigenvalue
engine, the Thomas-Fermi solver, Weyl-term quadratures, and a coherent-state
calculus with trial density matrices.

The public names are those of each module's ``__all__``.
"""

from . import coherent, numerics, scott, semiclassics, spectra, thomas_fermi
from .coherent import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .scott import *  # noqa: F401,F403
from .semiclassics import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .thomas_fermi import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (coherent, numerics, scott, semiclassics, spectra, thomas_fermi)
    for name in module.__all__
] + ["__version__"]
