"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "DaegradError",
    "DegenerateDenominator",
    "RankDeficientConstraints",
    "VanishingGradient",
    "VanishingDissipation",
    "NewtonError",
    "NoConvergence",
    "SingularJacobian",
    "UnderdeterminedSystem",
    "StepFailure",
    "FallbackCompromisedConservation",
]


class DaegradError(Exception):
    """Base class for every error this package raises deliberately."""


class DegenerateDenominator(DaegradError):
    """The interior-division coefficient is undefined for this point pair.

    Raised when the curvature term ``<grad V(z) - grad V(z'), z - z'>`` falls
    below its tolerance relative to ``||z - z'||^2``, so the two-point
    coefficient ``theta`` would divide by (nearly) zero.
    """


class RankDeficientConstraints(DaegradError):
    """The constraint gradients do not span the null-space directions.

    The properization construction needs the matrix of constraint gradients,
    restricted to the null space of the mass matrix, to have full row rank.
    A typical cause is an incomplete constraint set, e.g. the hidden
    constraints of a higher-index system were not included.
    """


class VanishingGradient(DaegradError):
    """A construction that divides by ``||grad V||`` hit a critical point."""


class VanishingDissipation(DaegradError):
    """The dissipative structure construction hit a point where the
    dissipation rate ``<A^+ f, grad V>`` is (nearly) zero."""


class NewtonError(DaegradError):
    """Base class for nonlinear-solver failures."""


class NoConvergence(NewtonError):
    """Newton iteration stopped without meeting the residual tolerance."""

    def __init__(self, iters: int, residual_norm: float, detail: str = ""):
        self.iters = iters
        self.residual_norm = residual_norm
        msg = f"no convergence after {iters} iteration(s), residual {residual_norm:.3e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SingularJacobian(NewtonError):
    """The (approximate) Jacobian of the residual could not be factorized."""


class UnderdeterminedSystem(DaegradError):
    """The one-step equations do not determine the update uniquely.

    Happens when the mass matrix is singular and the scheme leaves the
    null-space components of the new state unconstrained.  The index-1
    scheme with its redundant variable and explicit constraint block is the
    intended remedy.
    """


class StepFailure(DaegradError):
    """A time step failed mid-run; carries the partial trajectory."""

    def __init__(self, step_index: int, cause: Exception, trajectory):
        self.step_index = step_index
        self.cause = cause
        self.trajectory = trajectory
        super().__init__(f"step {step_index} failed: {cause}")


class FallbackCompromisedConservation(UserWarning):
    """The interior-division gradient fell back to the midpoint form.

    The fallback still satisfies the discrete chain rule, but the exact
    constraint-preservation argument of the index-1 scheme no longer
    applies to the affected step.
    """
