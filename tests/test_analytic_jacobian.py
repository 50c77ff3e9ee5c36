"""Analytic Newton Jacobians from field Hessians.

A field that supplies ``hessian`` (the diagonal of ``grad^2 V``) lets
``dg-avf``, ``dg-proper`` and ``dg-index1`` build their Newton Jacobians
from the prepared base's ``derivative`` instead of forward differences,
and ``gonzalez`` when ``H`` and every constraint supply one and are hinted
quadratic.
The references here are the difference Jacobian of the same residual, and
whole runs with every Jacobian taken by differences.
"""

from dataclasses import replace

import numpy as np
import pytest

import daegrad.integrators as integrators
from daegrad import gradients
from daegrad.gradients import (
    ScalarField,
    convex_quartic_field,
    cosh_sum_field,
    midpoint_gradient,
    quadratic_field,
)
from daegrad.integrators import integrate
from daegrad.model import LinearGradientDAE
from daegrad.problems import make_problem

SCHEMES = ("dg-index1", "dg-proper", "dg-avf")
GRID = 8


def lattice(field: str) -> tuple[LinearGradientDAE, np.ndarray]:
    """The sinh-gordon system at grid 8, with its cosh sum or a convex
    quartic as ``V``, and its start state."""
    spec = make_problem("sinh-gordon", grid=GRID)
    dae = spec.dae
    if field == "quartic":
        dae = replace(dae, V=convex_quartic_field(np.linspace(0.5, 1.5, GRID), name="H"))
    return dae, spec.default_initial_state


@pytest.mark.parametrize("field", [cosh_sum_field(5),
                                   convex_quartic_field([0.0, 1.0, 2.0, 0.5, 3.0])])
def test_field_hessian_is_the_derivative_of_the_gradient(field):
    z = np.array([0.3, -1.2, 0.0, 2.0, -0.4])
    h = 1e-6
    differences = [(field.gradient(z + h * e) - field.gradient(z - h * e)) / (2 * h)
                   for e in np.eye(5)]
    np.testing.assert_allclose(np.diag(gradients._hessian(field, z)), differences,
                               rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("field", [cosh_sum_field(3), convex_quartic_field([0.0, 1.0, 2.0])])
def test_a_stack_of_hessians_does_not_depend_on_the_hint(field):
    points = np.linspace(-2.0, 2.0, 21).reshape(7, 3)
    stacked = gradients._hessian(field, points)
    row_by_row = gradients._hessian(replace(field, hint="general"), points)
    assert stacked.shape == row_by_row.shape == (7, 3)
    assert np.array_equal(stacked, row_by_row)
    assert np.array_equal(stacked[2], gradients._hessian(field, points[2]))


def test_a_separable_hessian_of_the_wrong_shape_is_refused():
    field = replace(cosh_sum_field(3), hessian=lambda z: np.ones(3))
    with pytest.raises(ValueError, match="hessian"):
        gradients._hessian(field, np.zeros((7, 3)))


def test_hessian_follows_name_so_positional_construction_is_unchanged():
    names = list(ScalarField.__dataclass_fields__)
    assert names[-2:] == ["name", "hessian"]
    field = ScalarField(1, lambda z: 0.0, lambda z: np.zeros(1), "general", None, "V")
    assert field.name == "V" and field.hessian is None


def step(dae, scheme, z0, dt=0.1):
    residual, jacobian, _ = integrators._bind(dae, scheme).build(z0, dt)
    return residual, jacobian, integrators._bind(dae, scheme).extra


def schur(J, n):
    """The derivative in the first ``n`` unknowns of a bordered Newton
    matrix: its Schur complement once the auxiliary unknowns are
    eliminated; ``J`` itself when it has none."""
    if J.shape[0] == n:
        return J
    return J[:n, :n] - J[:n, n:] @ np.linalg.solve(J[n:, n:], J[n:, :n])


def dense_jacobian(dae, scheme, z0, w, dt=0.1):
    """The reference formula: the Newton matrix of a ``dg-proper`` or
    ``dg-index1`` step assembled densely, ``A / dt - S * k - outer(S u, v)``
    from the derivative ``diag(k) + outer(u, v)``, and for ``dg-index1`` the
    block ``[[that, -B], [(B^T S) * grad^2 V(z1), 0]]``."""
    S = dae.S(z0)
    base = gradients._PreparedBase(gradients._PROPER, dae.V, z0)
    diagonal, rank_one = base.derivative(w[:dae.dim])
    J = dae.A / dt - S * diagonal
    if rank_one is not None:
        J -= np.outer(S @ rank_one[0], rank_one[1])
    if scheme == "dg-proper":
        return J
    B = dae.subspaces.range_perp_basis
    return np.block([[J, -B], [(B.T @ S) * base.hess, np.zeros((B.shape[1],) * 2)]])


def iterate(z0, extra, at):
    z1 = z0 if at == "coincident" else z0 + 0.05 * np.cos(np.arange(GRID))
    return np.concatenate([z1, 0.01 * np.ones(extra)])


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("field", ["cosh", "quartic"])
@pytest.mark.parametrize("at", ["apart", "coincident"])
def test_analytic_jacobian_matches_the_difference_jacobian(scheme, field, at):
    # the proper gradient's rank-one term is one auxiliary unknown, so its
    # Newton matrix has one more row and column than the unknown w
    dae, z0 = lattice(field)
    residual, jacobian, extra = step(dae, scheme, z0)
    assert jacobian is not None
    n = GRID + extra
    w = iterate(z0, extra, at)
    r0 = residual(w)
    J = jacobian(w).copy()  # the step's next build overwrites the array it returns
    differences = integrators._fd_jacobian(residual, w, r0)
    assert differences.shape == (n, n)
    assert J.shape == (n + (scheme != "dg-avf"),) * 2
    newton = schur(J, n)
    assert np.abs(newton - differences).max() <= 1e-6 * np.abs(newton).max()
    # after the difference columns the base evaluates z1 afresh, alike
    assert np.array_equal(jacobian(w), J)


@pytest.mark.parametrize("scheme", ["dg-index1", "dg-proper"])
@pytest.mark.parametrize("field", ["cosh", "quartic"])
@pytest.mark.parametrize("at", ["apart", "coincident"])
def test_bordered_newton_step_matches_the_dense_newton_step(scheme, field, at):
    dae, z0 = lattice(field)
    residual, jacobian, extra = step(dae, scheme, z0)
    n = GRID + extra
    w = iterate(z0, extra, at)
    r = residual(w)
    jacobian(iterate(z0, extra, "apart"))  # no border of an earlier build may survive
    bordered = np.linalg.solve(jacobian(w), np.concatenate([-r, [0.0]]))[:n]
    dense = np.linalg.solve(dense_jacobian(dae, scheme, z0, w), -r)
    assert np.abs(bordered - dense).max() <= 1e-12 * np.abs(dense).max()


def test_degenerate_curvature_takes_differences():
    # a linear V declared general has a zero curvature term: the proper
    # gradient falls back, its derivative is None, and the step's
    # Jacobian is taken by differences
    gamma = np.array([1.0, 2.0])
    V = ScalarField(dim=2, value=lambda z: float(gamma @ z), gradient=lambda z: gamma.copy(),
                    hint="general", name="V", hessian=lambda z: np.zeros(2))
    z0, z1 = np.array([1.0, 0.0]), np.array([0.9, 0.1])
    base = gradients._PreparedBase(gradients._PROPER, V, z0)
    assert base(z1)[1] is True
    assert base.derivative(z1) is None
    assert base.derivative(z0)[0].tolist() == [0.0, 0.0]  # coincidence: h / 2
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dae = LinearGradientDAE(np.eye(2), lambda z: S, V, structure_claim="conservative")
    residual, jacobian, _ = step(dae, "dg-index1", z0)
    residual(z1)
    assert jacobian(z1) is None


def runs(monkeypatch, dae, scheme, z0, steps=10):
    """The run as it is, with every Jacobian result recorded, and the run
    with every Jacobian taken by differences."""
    real = integrators.newton_solve
    built = []

    def recorded(residual, w0, *args, jacobian=None, **kwargs):
        def wrapped(w):
            built.append(jacobian(w))
            return built[-1]

        return real(residual, w0, *args, **kwargs, jacobian=None if jacobian is None else wrapped)

    def differences(residual, w0, *args, jacobian=None, **kwargs):
        return real(residual, w0, *args, **kwargs)

    out = []
    for newton in (recorded, differences):
        monkeypatch.setattr(integrators, "newton_solve", newton)
        out.append(integrate(dae, scheme, z0, 0.1, steps))
    return out, built


def assert_same_run(a, b):
    assert np.array_equal(a.states(), b.states())
    for x, y in zip(a.records, b.records):
        assert (x.newton_iters, x.newton_residual) == (y.newton_iters, y.newton_residual)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_field_without_hessian_stays_on_differences(scheme, monkeypatch):
    dae, z0 = lattice("cosh")
    dae = replace(dae, V=replace(dae.V, hessian=None))
    assert step(dae, scheme, z0)[1] is None
    (run, reference), built = runs(monkeypatch, dae, scheme, z0)
    assert built == []
    assert_same_run(run, reference)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_state_dependent_structure_stays_on_differences(scheme, monkeypatch):
    dae, z0 = lattice("cosh")
    S0 = dae.S(z0)
    dae = replace(dae, S=lambda z: (1.0 + 0.1 * np.sin(z[0])) * S0)
    (run, reference), built = runs(monkeypatch, dae, scheme, z0)
    assert len(built) >= 10 and all(J is None for J in built)
    assert_same_run(run, reference)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_structure_that_a_uniform_shift_keeps_stays_on_differences(scheme, monkeypatch):
    # S(z) = Mavg (1 + 2 D(z)^2), with D a first or a second difference of
    # z, depends on the state, yet a uniform shift keeps it equal entry by
    # entry, and for the second difference a linear shift too: a probe along
    # either would pass it as constant at step 1's first iterate z1 = z0.
    # Only an S(z1) that is S(z0) counts as constant
    spec = make_problem("sinh-gordon", grid=16)
    z0, Mavg = spec.default_initial_state, spec.dae.S(spec.default_initial_state)
    for D in (lambda z: z[1] - z[0], lambda z: z[2] - 2.0 * z[1] + z[0]):
        dae = replace(spec.dae, S=lambda z, D=D: (1.0 + 2.0 * D(z) ** 2) * Mavg)
        assert step(dae, scheme, z0)[1](z0) is None
        (run, _), built = runs(monkeypatch, dae, scheme, z0)
        assert len(built) >= 10 and all(J is None for J in built)
        monkeypatch.undo()
        assert_same_run(run, integrate(replace(dae, V=replace(dae.V, hessian=None)), scheme,
                                       z0, 0.1, 10))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("field", ["cosh", "quartic"])
def test_analytic_run_keeps_the_difference_runs_iterations_and_accuracy(scheme, field,
                                                                        monkeypatch):
    dae, z0 = lattice(field)
    (run, reference), built = runs(monkeypatch, dae, scheme, z0, steps=20)
    assert len(built) == sum(r.newton_iters for r in run.records)
    assert all(J is not None for J in built)
    assert all(x.newton_iters <= y.newton_iters for x, y in zip(run.records, reference.records))
    assert np.abs(run.states() - reference.states()).max() <= 1e-12
    V = [dae.V.value(z) for z in run.states()]
    assert np.abs(np.array(V) - V[0]).max() <= 1e-12 * max(1.0, abs(V[0]))


# ------------------------------------------------------------- Gonzalez


def test_quadratic_midpoint_derivative_is_the_derivative_of_the_midpoint_gradient():
    X = np.diag([2.0, 0.5, 0.0, 3.0])
    V = replace(quadratic_field(X, linear=[1.0, -1.0, 0.5, 0.0]), hessian=lambda z: np.diag(X))
    z, zp = np.array([0.3, -1.2, 0.7, 2.0]), np.array([-0.5, 0.4, 1.1, -0.2])
    for at in (z, zp):  # apart and coincident
        base = gradients._PreparedBase(gradients._MIDPOINT, V, zp)
        diagonal, rank_one = base.derivative(at)
        assert rank_one is None
        h = 1e-6
        differences = [(midpoint_gradient(V, at + h * e, zp) - midpoint_gradient(V, at - h * e, zp))
                       / (2 * h) for e in np.eye(4)]
        np.testing.assert_allclose(np.diag(diagonal), np.array(differences).T,
                                   rtol=1e-8, atol=1e-8)
    # a curved field's midpoint gradient has no analytic derivative
    curved = gradients._PreparedBase(gradients._MIDPOINT, cosh_sum_field(4), zp)
    assert curved.derivative(z) is None


def test_dg_midpoint_on_a_quadratic_field_with_hessian_is_analytic():
    X = np.diag([2.0, 0.5, 1.0])
    V = replace(quadratic_field(X), hessian=lambda z: np.diag(X))
    S = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, -0.5]])
    dae = LinearGradientDAE(np.eye(3), lambda z: S, V, structure_claim="dissipative")
    z0 = np.array([1.0, -0.5, 0.25])
    residual, jacobian, _ = step(dae, "dg-midpoint", z0)
    w = z0 + np.array([0.05, -0.02, 0.03])
    J = jacobian(w)
    differences = integrators._fd_jacobian(residual, w, residual(w))
    assert np.abs(J - differences).max() <= 1e-6 * np.abs(J).max()


@pytest.mark.parametrize("problem", ["pendulum", "friction"])
@pytest.mark.parametrize("at", ["apart", "coincident"])
def test_gonzalez_jacobian_matches_the_difference_jacobian(problem, at):
    spec = make_problem(problem)
    for z0 in (spec.default_initial_state,
               spec.sample_on_manifold(np.random.default_rng(7), 1)[0]):
        residual, jacobian, extra = step(spec.dae, "gonzalez", z0)
        assert jacobian is not None and extra == 0
        w = z0 if at == "coincident" else z0 + 0.05 * np.cos(np.arange(5.0))
        J = jacobian(w)
        differences = integrators._fd_jacobian(residual, w, residual(w))
        assert J.shape == differences.shape == (5, 5)
        assert np.abs(J - differences).max() <= 1e-6 * np.abs(J).max()


def without_hessian(dae, which):
    if which == "H":
        return replace(dae, hamiltonian=replace(dae.hamiltonian, hessian=None))
    return replace(dae, constraints=tuple(replace(g, hessian=None) for g in dae.constraints))


@pytest.mark.parametrize("problem", ["pendulum", "friction"])
@pytest.mark.parametrize("which", ["H", "g"])
def test_gonzalez_without_a_hessian_stays_on_differences(problem, which, monkeypatch):
    spec = make_problem(problem)
    dae, z0 = without_hessian(spec.dae, which), spec.default_initial_state
    assert step(dae, "gonzalez", z0)[1] is None
    (run, reference), built = runs(monkeypatch, dae, "gonzalez", z0, steps=20)
    assert built == []
    assert_same_run(run, reference)


@pytest.mark.parametrize("problem", ["pendulum", "friction"])
def test_gonzalez_builds_every_jacobian_analytically(problem, monkeypatch):
    spec = make_problem(problem)
    (run, reference), built = runs(monkeypatch, spec.dae, "gonzalez",
                                   spec.default_initial_state, steps=20)
    assert len(built) == sum(r.newton_iters for r in run.records)
    assert all(J is not None for J in built)
    assert all(x.newton_iters <= y.newton_iters for x, y in zip(run.records, reference.records))
    # positions and velocities agree to the solver's tolerance 1e-12; the
    # multipliers, of which the scheme fixes only the average, are compared
    # through that average, which enters the residual as dt lam_bar q with
    # |q| = 1, so to 1e-12 / dt
    states, reference_states = run.states(), reference.states()
    assert np.abs(states[:, :4] - reference_states[:, :4]).max() <= 1e-12
    lam_bar = 0.5 * (states[1:, 4] + states[:-1, 4])
    reference_lam_bar = 0.5 * (reference_states[1:, 4] + reference_states[:-1, 4])
    assert np.abs(lam_bar - reference_lam_bar).max() <= 1e-12 / 0.1


@pytest.mark.parametrize("problem, scheme", [("sinh-gordon", "dg-midpoint"),
                                             ("pendulum", "gonzalez")])
def test_a_gradient_without_a_derivative_passes_no_jacobian(problem, scheme, monkeypatch):
    # the cosh sum's midpoint gradient, and Gonzalez's with H hinted
    # "general", have no derivative though every field has a hessian: each
    # step passes newton_solve no Jacobian, as the hessian-stripped twin does
    spec = make_problem(problem, grid=GRID if problem == "sinh-gordon" else None)
    dae = spec.dae
    if scheme == "gonzalez":
        dae = replace(dae, hamiltonian=replace(dae.hamiltonian, hint="general"))
        twin = replace(dae, hamiltonian=replace(dae.hamiltonian, hessian=None))
    else:
        twin = replace(dae, V=replace(dae.V, hessian=None))
    real, passed = integrators.newton_solve, []

    def recorded(residual, w0, *args, jacobian=None, **kwargs):
        passed.append(jacobian)
        return real(residual, w0, *args, **kwargs, jacobian=jacobian)

    monkeypatch.setattr(integrators, "newton_solve", recorded)
    run = integrate(dae, scheme, spec.default_initial_state, 0.1, 2)
    assert len(passed) >= 2 and all(jacobian is None for jacobian in passed)
    assert_same_run(run, integrate(twin, scheme, spec.default_initial_state, 0.1, 2))


def test_dg_midpoint_on_the_augmented_energy_takes_differences():
    spec = make_problem("friction")
    assert spec.dae.V.hessian is None
    assert step(spec.dae, "dg-midpoint", spec.default_initial_state)[1] is None


# ----------------------------------------------------- S calls per step


@pytest.mark.parametrize("problem, scheme", [
    ("pendulum", "gonzalez"),
    ("sinh-gordon", "dg-avf"),
    ("sinh-gordon", "dg-proper"),
    ("sinh-gordon", "dg-index1"),
])
def test_a_fresh_copy_structure_takes_differences_with_one_s_call_per_build(problem, scheme,
                                                                            monkeypatch):
    # S returns an equal copy at every call, which is not the same object,
    # so S is not constant: each build calls S once, at the iterate, and
    # returns None, and the step makes one S call at z0 and one per residual
    spec = make_problem(problem, grid=GRID if problem == "sinh-gordon" else None)
    S0 = spec.dae.S(spec.default_initial_state)
    s_calls, residuals, builds, steps = [], [], [], []

    def S(z):
        s_calls.append(1)
        return S0.copy()

    real_advance, real_newton = integrators._advance, integrators.newton_solve

    def advance(*args, **kwargs):
        for seen in (s_calls, residuals, builds):
            seen.clear()
        out = real_advance(*args, **kwargs)
        steps.append((len(s_calls), len(residuals), list(builds)))
        return out

    def newton(residual, w0, *args, jacobian=None, **kwargs):
        def counted(w):
            residuals.append(1)
            return residual(w)

        def built(w):
            builds.append(jacobian(w))
            return builds[-1]

        return real_newton(counted, w0, *args, **kwargs, jacobian=built)

    monkeypatch.setattr(integrators, "_advance", advance)
    monkeypatch.setattr(integrators, "newton_solve", newton)
    dae = replace(spec.dae, S=S)
    run = integrate(dae, scheme, spec.default_initial_state, 0.1, 3)
    assert len(steps) == 3
    for s, r, built in steps:
        assert len(built) >= 2 and all(J is None for J in built)
        assert s == 1 + r + len(built)
    monkeypatch.undo()
    twin = (without_hessian(dae, "H") if scheme == "gonzalez"
            else replace(dae, V=replace(dae.V, hessian=None)))
    assert_same_run(run, integrate(twin, scheme, spec.default_initial_state, 0.1, 3))


@pytest.mark.parametrize("problem", ["pendulum", "friction"])
def test_a_bound_scheme_forms_a_over_dt_for_each_dt(problem):
    spec = make_problem(problem)
    z0 = spec.default_initial_state
    w = z0 + 0.05 * np.cos(np.arange(5.0))
    bound = integrators._bind(spec.dae, "gonzalez")
    derivative = integrators._augmented_gradient(spec.dae)(z0)[1](w)[0]
    for dt in (0.1, 0.05, 0.1):
        jacobian = bound.build(z0, dt)[1]
        assert np.array_equal(jacobian(w), spec.dae.A / dt - spec.dae.S(z0) @ derivative)
