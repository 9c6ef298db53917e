"""Optimal Hardy weights for anisotropic p-Dirichlet energies.

Constructions of the optimal weights (zero and nonzero potential), the
norm-family calculus they rest on (flux map, dual norms, Bregman bounds),
and a desk-scale verification battery: p-harmonicity residuals, coarea
flux constancy, null-sequence energy decay, null-criticality divergence,
Hardy-ratio probes, a radial Green-potential solver, and the 1D p-Laplace
eigenvalue checks.
"""

__version__ = "0.1.0"

from . import bregman, eigen, fields, green, hardy, norms, quadrature  # noqa: F401
from .norms import NormFamily, parse_family  # noqa: F401
