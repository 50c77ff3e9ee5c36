"""Structure-preserving discrete-gradient integrators for DAEs.

The package models systems ``A zdot = f(z)`` with a singular mass matrix
``A``, classifies their conserved or dissipated quantities through the
null space of ``A``, rewrites the right-hand side in linear-gradient form
``f = S(z) grad V(z)``, and integrates with discrete-gradient one-step
schemes that reproduce the conservation/dissipation law exactly (up to
solver tolerance) at every step.
"""

from .errors import (
    DaegradError,
    DegenerateDenominator,
    FallbackCompromisedConservation,
    NewtonError,
    NoConvergence,
    RankDeficientConstraints,
    SingularJacobian,
    StepFailure,
    UnderdeterminedSystem,
    VanishingDissipation,
    VanishingGradient,
)
from .gradients import (
    DiscreteGradientKind,
    ScalarField,
    avf_gradient,
    chain_rule_residual,
    cosh_sum_field,
    convex_quartic_field,
    discrete_gradient_info,
    linear_field,
    midpoint_gradient,
    proper_gradient,
    quadratic_field,
    theta_coefficient,
)
from .integrators import (
    SCHEMES,
    NewtonConfig,
    NewtonResult,
    StepRecord,
    StepResult,
    Trajectory,
    integrate,
    newton_solve,
    project_to_constraint,
    step,
)
from .linalg import (
    SubspaceData,
    is_negative_semidefinite,
    is_skew_symmetric,
    penrose_residuals,
    project,
    pseudo_inverse,
)
from .model import (
    ConstrainedHamiltonian,
    GeneralDAE,
    LinearGradientDAE,
    ProperCheck,
    StructureReport,
    build_conservative_S,
    build_dissipative_S,
    check_proper,
    implicit_constraint_residual,
    properize,
    verify_structure,
)
from .problems import (
    PROBLEM_NAMES,
    ProblemSpec,
    make_constrained_hamiltonian,
    make_friction,
    make_linear_invariant_fixture,
    make_mixed_derivative,
    make_problem,
    make_smhs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DaegradError",
    "DegenerateDenominator",
    "FallbackCompromisedConservation",
    "NewtonError",
    "NoConvergence",
    "RankDeficientConstraints",
    "SingularJacobian",
    "StepFailure",
    "UnderdeterminedSystem",
    "VanishingDissipation",
    "VanishingGradient",
    # gradients
    "DiscreteGradientKind",
    "ScalarField",
    "avf_gradient",
    "chain_rule_residual",
    "cosh_sum_field",
    "convex_quartic_field",
    "discrete_gradient_info",
    "linear_field",
    "midpoint_gradient",
    "proper_gradient",
    "quadratic_field",
    "theta_coefficient",
    # integrators
    "SCHEMES",
    "NewtonConfig",
    "NewtonResult",
    "StepRecord",
    "StepResult",
    "Trajectory",
    "integrate",
    "newton_solve",
    "project_to_constraint",
    "step",
    # linalg
    "SubspaceData",
    "is_negative_semidefinite",
    "is_skew_symmetric",
    "penrose_residuals",
    "project",
    "pseudo_inverse",
    # model
    "ConstrainedHamiltonian",
    "GeneralDAE",
    "LinearGradientDAE",
    "ProperCheck",
    "StructureReport",
    "build_conservative_S",
    "build_dissipative_S",
    "check_proper",
    "implicit_constraint_residual",
    "properize",
    "verify_structure",
    # problems
    "PROBLEM_NAMES",
    "ProblemSpec",
    "make_constrained_hamiltonian",
    "make_friction",
    "make_linear_invariant_fixture",
    "make_mixed_derivative",
    "make_problem",
    "make_smhs",
]
