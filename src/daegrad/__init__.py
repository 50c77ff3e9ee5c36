"""Structure-preserving discrete-gradient integrators for DAEs.

The package models systems ``A zdot = f(z)`` with a singular mass matrix
``A``, classifies their conserved or dissipated quantities through the
null space of ``A``, rewrites the right-hand side in linear-gradient form
``f = S(z) grad V(z)``, and integrates with discrete-gradient one-step
schemes that reproduce the conservation/dissipation law exactly (up to
solver tolerance) at every step.

Each module's ``__all__`` is its list of public names; the package
re-exports exactly those lists.
"""

from . import errors, gradients, integrators, linalg, model, problems
from .errors import *
from .gradients import *
from .integrators import *
from .linalg import *
from .model import *
from .problems import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *gradients.__all__,
    *integrators.__all__,
    *linalg.__all__,
    *model.__all__,
    *problems.__all__,
]
