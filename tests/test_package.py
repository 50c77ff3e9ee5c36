"""The package's public surface is the union of its modules' ``__all__``."""

import daegrad
from daegrad import errors, gradients, integrators, linalg, model, problems

PUBLIC = {
    "__version__",
    # errors
    "DaegradError", "DegenerateDenominator", "FallbackCompromisedConservation", "NewtonError",
    "NoConvergence", "RankDeficientConstraints", "SingularJacobian", "StepFailure",
    "UnderdeterminedSystem", "VanishingDissipation", "VanishingGradient",
    # gradients
    "DiscreteGradientKind", "ScalarField", "avf_gradient", "chain_rule_residual",
    "cosh_sum_field", "convex_quartic_field", "discrete_gradient_info", "linear_field",
    "midpoint_gradient", "proper_gradient", "quadratic_field", "theta_coefficient",
    # integrators
    "SCHEMES", "NewtonConfig", "NewtonResult", "StepRecord", "Trajectory",
    "integrate", "newton_solve", "project_to_constraint",
    # linalg
    "SubspaceData", "is_negative_semidefinite", "is_skew_symmetric", "penrose_residuals",
    "project", "pseudo_inverse",
    # model
    "GeneralDAE", "LinearGradientDAE", "ProperCheck", "StructureReport",
    "build_conservative_S", "build_dissipative_S", "check_proper",
    "implicit_constraint_residual", "properize", "verify_structure",
    # problems
    "PROBLEM_NAMES", "ProblemSpec", "make_friction", "make_mixed_derivative", "make_problem",
    "make_smhs",
}


def test_package_all_is_the_modules_all_lists():
    modules = (errors, gradients, integrators, linalg, model, problems)
    expected = ["__version__"] + [name for module in modules for name in module.__all__]
    assert daegrad.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_public_name_resolves_on_the_package():
    for name in daegrad.__all__:
        assert hasattr(daegrad, name), name


def test_public_surface_is_pinned():
    assert set(daegrad.__all__) == PUBLIC
    assert len(PUBLIC) == 54
