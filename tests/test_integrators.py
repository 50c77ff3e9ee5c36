"""Tests for the Newton kernel, one-step maps, and the driver."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daegrad.errors import (
    FallbackCompromisedConservation,
    NoConvergence,
    SingularJacobian,
    StepFailure,
    UnderdeterminedSystem,
)
import daegrad.integrators as integrators
from daegrad import gradients
from daegrad.gradients import (
    DiscreteGradientKind,
    ScalarField,
    cosh_sum_field,
    discrete_gradient_info,
    quadratic_field,
)
from daegrad.integrators import (
    NewtonConfig,
    integrate,
    newton_solve,
    project_to_constraint,
)
from daegrad.model import GeneralDAE, LinearGradientDAE
from daegrad.problems import make_friction, make_problem

TIGHT = NewtonConfig(residual_tol=1e-13)


def rotation_system():
    """Harmonic oscillator as a linear-gradient system: zdot = S grad V."""
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return LinearGradientDAE(
        np.eye(2), lambda z: S, quadratic_field(np.eye(2), name="V"),
        structure_claim="conservative",
    )


# -------------------------------------------------------------- newton


def test_newton_finds_sqrt2():
    sol = newton_solve(lambda w: np.array([w[0] ** 2 - 2.0]), np.array([1.0]))
    assert sol.w[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert sol.iters <= 8
    assert sol.residual_norm <= 1e-12


def test_newton_linear_residual_one_iteration():
    sol = newton_solve(lambda w: np.array([3.0 * w[0] - 6.0]), np.array([0.0]))
    assert sol.iters == 1
    assert sol.w[0] == pytest.approx(2.0, abs=1e-12)


def test_newton_zero_iterations_at_root():
    sol = newton_solve(lambda w: np.array([w[0] ** 2 - 4.0]), np.array([2.0]))
    assert sol.iters == 0
    assert sol.w[0] == 2.0


def test_newton_no_real_root_raises():
    with pytest.raises(NoConvergence):
        newton_solve(lambda w: np.array([w[0] ** 2 + 1.0]), np.array([1.0]))


def test_newton_max_iters_exhausted():
    cfg = NewtonConfig(max_iters=2, residual_tol=1e-15)
    with pytest.raises(NoConvergence) as info:
        newton_solve(lambda w: np.array([math.exp(w[0]) - 5.0]), np.array([-3.0]), cfg)
    assert info.value.iters == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_newton_fails_at_once_on_a_start_point_that_is_not_finite(bad):
    calls = []
    with pytest.raises(NoConvergence, match="residual is not finite") as info:
        newton_solve(_recorded(lambda w: np.array([bad, 0.0]), calls), np.zeros(2))
    assert info.value.iters == 0
    assert len(calls) == 1


def test_newton_halves_a_trial_point_that_is_not_finite():
    # the full step from 2.9 lands at -8.8, where the residual is inf
    calls = []

    def residual(w):
        return np.array([math.atan(w[0]) if abs(w[0]) <= 3.0 else math.inf])

    sol = newton_solve(_recorded(residual, calls), np.array([2.9]))
    assert sol.iters == 3 and sol.residual_norm <= 1e-12
    assert any(abs(w[0]) > 3.0 for w in calls)


def test_newton_singular_jacobian():
    def residual(w):
        r = w[0] + w[1] - 1.0
        return np.array([r, r])

    with pytest.raises(SingularJacobian):
        newton_solve(residual, np.zeros(2))


def _recorded(fn, calls):
    def wrapped(w):
        calls.append(np.array(w))
        return fn(w)

    return wrapped


def test_newton_analytic_jacobian_used():
    residuals, jacobians = [], []
    residual = _recorded(lambda w: np.array([w[0] ** 2 - 2.0]), residuals)
    jacobian = _recorded(lambda w: np.array([[2.0 * w[0]]]), jacobians)
    sol = newton_solve(residual, np.array([1.0]), jacobian=jacobian)
    assert sol.w[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # one Jacobian per iteration, at the current iterate; the residual is
    # evaluated at the start and at each (here undamped) trial, never at a
    # difference column
    assert len(jacobians) == sol.iters
    assert len(residuals) == 1 + sol.iters
    assert np.array_equal(np.array(jacobians), np.array(residuals[:-1]))


def test_newton_damped_with_callers_jacobian_makes_no_difference_columns():
    residuals, jacobians = [], []
    residual = _recorded(lambda w: np.array([math.atan(w[0] - 1.0)]), residuals)
    jacobian = _recorded(lambda w: np.array([[1.0 / (1.0 + (w[0] - 1.0) ** 2)]]), jacobians)
    sol = newton_solve(residual, np.array([6.0]), jacobian=jacobian)
    assert sol.w[0] == pytest.approx(1.0, abs=1e-12)
    assert len(jacobians) == sol.iters
    assert len(residuals) > 1 + sol.iters  # the line search halved at least once
    for at in jacobians:
        h = np.sqrt(np.finfo(float).eps) * (1.0 + float(np.max(np.abs(at))))
        assert not any(np.array_equal(w, at + h) for w in residuals)


def test_newton_jacobian_is_keyword_only():
    def residual(w):
        return np.array([w[0] - 1.0])

    with pytest.raises(TypeError):
        newton_solve(residual, np.zeros(1), NewtonConfig(), lambda w: np.eye(1))


def test_newton_takes_differences_where_the_jacobian_returns_none():
    # the caller's Jacobian declines the first iterate only: that iteration
    # takes len(w) difference columns, the later ones none
    residuals, jacobians = [], []
    residual = _recorded(lambda w: np.array([w[0] ** 2 - 2.0, w[1] - 3.0]), residuals)

    def jacobian(w):
        jacobians.append(np.array(w))
        return None if len(jacobians) == 1 else np.array([[2.0 * w[0], 0.0], [0.0, 1.0]])

    sol = newton_solve(residual, np.array([1.0, 0.0]), jacobian=jacobian)
    assert sol.w == pytest.approx([math.sqrt(2.0), 3.0], abs=1e-12)
    assert len(jacobians) == sol.iters
    assert len(residuals) == 1 + 2 + sol.iters  # no damping on this problem
    h = np.sqrt(np.finfo(float).eps) * 2.0
    assert np.array_equal(np.array(residuals[1:3]), np.array([[1.0 + h, 0.0], [1.0, h]]))


# r(w) = w^3 + w - c + u (v^T w)^2, whose Jacobian diag(3 w^2 + 1) + outer(u, 2 (v^T w) v)
# is a diagonal plus a rank-one term
_U, _V, _C = np.array([0.5, -1.0, 0.25]), np.array([1.0, 0.5, -2.0]), np.array([2.0, -1.0, 3.0])


def _toy_residual(w):
    return w ** 3 + w - _C + _U * float(_V @ w) ** 2


def _toy_dense(w):
    return np.diag(3.0 * w ** 2 + 1.0) + np.outer(_U, 2.0 * float(_V @ w) * _V)


def _toy_bordered(w, out=None):
    """The toy Jacobian with its rank-one term as one auxiliary unknown
    ``s = 2 (v^T w) v^T dw``: ``[[diag(3 w^2 + 1), u], [2 (v^T w) v^T, -1]]``."""
    J = np.zeros((4, 4)) if out is None else out
    J[:3, :3] = np.diag(3.0 * w ** 2 + 1.0)
    J[:3, 3], J[3, :3], J[3, 3] = _U, 2.0 * float(_V @ w) * _V, -1.0
    return J


def test_newton_solves_a_bordered_jacobian_like_its_dense_twin():
    w0 = np.array([0.3, -0.2, 1.0])
    bordered = newton_solve(_toy_residual, w0, jacobian=_toy_bordered)
    dense = newton_solve(_toy_residual, w0, jacobian=_toy_dense)
    assert bordered.iters == dense.iters >= 3
    assert bordered.w.shape == (3,)
    assert np.abs(bordered.w - dense.w).max() <= 1e-14 * np.abs(dense.w).max()
    assert max(bordered.residual_norm, dense.residual_norm) <= NewtonConfig().residual_tol


def test_newton_reads_a_reused_jacobian_buffer_like_fresh_arrays():
    buffer, returned = np.zeros((4, 4)), []

    def reused(w):
        returned.append(_toy_bordered(w, out=buffer))
        return returned[-1]

    w0 = np.array([0.3, -0.2, 1.0])
    again = newton_solve(_toy_residual, w0, jacobian=reused)
    fresh = newton_solve(_toy_residual, w0, jacobian=_toy_bordered)
    assert len(returned) == again.iters >= 3 and all(J is buffer for J in returned)
    assert np.array_equal(again.w, fresh.w) and again.iters == fresh.iters
    assert again.residual_norm == fresh.residual_norm


def test_newton_singular_bordered_jacobian():
    # a zero border and corner leave the auxiliary unknown undetermined
    def bordered(w):
        J = _toy_bordered(w)
        J[:3, 3] = J[3, :] = 0.0
        return J

    with pytest.raises(SingularJacobian):
        newton_solve(_toy_residual, np.array([0.3, -0.2, 1.0]), jacobian=bordered)


def _fd_jacobian_by_columns(residual, w, r0):
    """The column-by-column loop that ``_fd_jacobian`` replaced, kept as the
    reference for how each entry is rounded."""
    h = np.sqrt(np.finfo(float).eps) * (1.0 + float(np.max(np.abs(w))))
    J = np.empty((r0.shape[0], w.shape[0]))
    for j in range(w.shape[0]):
        wj = w.copy()
        wj[j] += h
        J[:, j] = (np.asarray(residual(wj), dtype=float) - r0) / h
    return J


def _assert_fd_jacobian_matches_columns(residual, w):
    r0 = np.asarray(residual(w), dtype=float)
    got = integrators._fd_jacobian(residual, w, r0)
    assert got.shape == (r0.shape[0], w.shape[0])
    assert np.array_equal(got, _fd_jacobian_by_columns(residual, w, r0))


def test_fd_jacobian_rounds_as_the_column_loop_on_a_nonlinear_residual():
    rng = np.random.default_rng(23)
    for dim in (1, 2, 6, 17):
        for _ in range(4):
            w = rng.normal(scale=2.0, size=dim)
            _assert_fd_jacobian_matches_columns(
                lambda v: np.sinh(v) * v[::-1] + np.cumsum(v ** 3) - 0.5 * np.exp(-v * v), w
            )


def test_fd_jacobian_rounds_as_the_column_loop_on_a_list_residual():
    rng = np.random.default_rng(29)
    for _ in range(8):
        _assert_fd_jacobian_matches_columns(
            lambda v: [math.cos(v[0]) * v[1], v[0] ** 2 - v[1] / 3.0, math.atan(v[0] * v[1])],
            rng.normal(size=2),
        )


def test_fd_jacobian_gives_each_column_its_own_perturbed_point():
    # a residual may keep what it is given; every kept point must still be
    # w moved in exactly its own coordinate
    rng = np.random.default_rng(31)
    for dim in (3, 5, 8):
        kept = []

        def keeping(v):
            kept.append(v)
            return np.tanh(v) * 2.0 + v.sum() ** 2

        w = rng.normal(scale=3.0, size=dim)
        _assert_fd_jacobian_matches_columns(keeping, w)
        ours = kept[1 : 1 + dim]  # after residual(w), before the reference's columns
        for j, point in enumerate(ours):
            assert np.array_equal(np.flatnonzero(point != w), [j])


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iters=0)
    for tol in (math.nan, math.inf, -1e-12, True, np.True_):
        with pytest.raises(ValueError, match="residual_tol must be finite and positive"):
            NewtonConfig(residual_tol=tol)
    for iters in (2.5, 3.0, "5", True):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            NewtonConfig(max_iters=iters)
    assert NewtonConfig(max_iters=np.int64(3)).max_iters == 3


# ------------------------------------------------------- implicit Euler


def test_implicit_euler_scalar_decay_closed_form():
    dae = GeneralDAE(np.eye(1), lambda z: -z)
    out = integrate(dae, "implicit-euler", np.array([1.0]), 0.1, 1, cfg=TIGHT).records[-1]
    # (z1 - z0)/dt = -z1  =>  z1 = z0 / (1 + dt)
    assert out.state[0] == pytest.approx(1.0 / 1.1, abs=1e-12)
    assert out.redundant_c_norm == 0.0
    assert not out.fallback_used


def test_implicit_euler_preserves_linear_invariant():
    spec = make_problem("linear-test")
    traj = integrate(
        spec.dae, "implicit-euler", spec.default_initial_state, 0.05, 50,
        observers=spec.observers, cfg=TIGHT,
    )
    series = traj.invariant_series("V")
    assert np.abs(series - series[0]).max() <= 1e-11


def test_implicit_euler_first_order_convergence():
    dae = GeneralDAE(np.eye(1), lambda z: -z)
    errors = []
    for steps in (10, 20):
        traj = integrate(dae, "implicit-euler", np.array([1.0]), 1.0 / steps, steps, cfg=TIGHT)
        errors.append(abs(traj.final_state[0] - math.exp(-1.0)))
    rate = math.log2(errors[0] / errors[1])
    assert 0.8 <= rate <= 1.2


# ------------------------------------------------- discrete-gradient step


@pytest.mark.parametrize("variant", ["avf", "midpoint", "proper"])
def test_dg_scalar_step_closed_form(variant):
    dae = LinearGradientDAE(
        np.eye(1), lambda z: -np.eye(1), quadratic_field(np.eye(1)),
        structure_claim="dissipative",
    )
    z1 = integrate(dae, f"dg-{variant}", np.array([1.0]), 0.1, 1, cfg=TIGHT).final_state
    # quadratic V: every variant reduces to the midpoint average,
    # (z1 - z0)/dt = -(z0 + z1)/2
    assert z1[0] == pytest.approx((1.0 - 0.05) / (1.0 + 0.05), abs=1e-12)


@pytest.mark.parametrize("variant", ["avf", "midpoint"])
def test_dg_conserves_augmented_pendulum_potential(variant):
    # the scheme conserves the proper potential V = H + lam*g exactly;
    # the physical energy H only tracks it through the constraint
    # violation, which is truncation-sized, not machine-sized
    spec = make_problem("pendulum")
    traj = integrate(
        spec.dae, f"dg-{variant}", spec.default_initial_state, 0.05, 20,
        observers=spec.observers, cfg=TIGHT,
    )
    V = traj.invariant_series(spec.primary_invariant.name)
    assert np.abs(V - V[0]).max() <= 1e-11
    H = traj.invariant_series("H")
    assert np.abs(H - H[0]).max() > 1e-11


def test_dg_proper_conserves_nonquadratic_energy():
    # the interior-division variant with a dedicated divergence routine:
    # no cancellation, machine-level conservation of a non-quadratic V
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dae = LinearGradientDAE(
        np.eye(2), lambda z: S, cosh_sum_field(2, name="V"),
        structure_claim="conservative",
    )
    traj = integrate(dae, "dg-proper", np.array([1.2, 0.3]), 0.1, 30,
                     observers=(dae.V,), cfg=TIGHT)
    V = traj.invariant_series("V")
    assert np.abs(V - V[0]).max() <= 1e-12
    assert not any(rec.fallback_used for rec in traj.records)


def one_sided_cosh_divergence(z, z0):
    """``D(z, z0)`` of the cosh sum by the one-sided formula, evaluated on its own."""
    a = np.asarray(z0, dtype=float)
    h = np.asarray(z, dtype=float) - a
    s = np.sinh(0.5 * h)
    return float(np.sum(np.cosh(a) * 2.0 * s * s + np.sinh(a) * gradients._sinh_minus_identity(h)))


def test_cosh_divergence_pair_is_bitwise_two_one_sided_calls():
    rng = np.random.default_rng(5)
    V = cosh_sum_field(16)
    for scale in (1e-9, 1e-3, 0.3, 0.5, 1.5):
        z0 = rng.uniform(-3.0, 3.0, size=16)
        z = z0 + scale * rng.uniform(-1.0, 1.0, size=16)
        assert V.divergence(z, z0) == (one_sided_cosh_divergence(z, z0),
                                       one_sided_cosh_divergence(z0, z))


@pytest.mark.parametrize("scheme", ["dg-index1", "dg-proper"])
def test_sinh_gordon_run_is_unchanged_by_the_paired_divergence(scheme):
    # the reference field gets its pair from two one-sided calls; the
    # trajectory and the Newton counts must agree bit for bit
    spec = make_problem("sinh-gordon", grid=16)
    reference = replace(spec.dae, V=replace(
        spec.dae.V,
        divergence=lambda z, z0: (one_sided_cosh_divergence(z, z0),
                                  one_sided_cosh_divergence(z0, z)),
    ))
    runs = [integrate(dae, scheme, spec.default_initial_state, 0.1, 10, observers=spec.observers)
            for dae in (spec.dae, reference)]
    assert np.array_equal(runs[0].states(), runs[1].states())
    assert [r.newton_iters for r in runs[0].records] == [r.newton_iters for r in runs[1].records]
    assert [r.newton_residual for r in runs[0].records] == [r.newton_residual for r in runs[1].records]


def test_sinh_gordon_avf_run_is_unchanged_by_the_separable_hint():
    # the row-loop quadrature is the reference: the one-call path must give
    # the same trajectory and Newton counts bit for bit
    spec = make_problem("sinh-gordon", grid=16)
    assert spec.dae.V.hint == "separable"
    reference = replace(spec.dae, V=replace(spec.dae.V, hint="general"))
    runs = [integrate(dae, "dg-avf", spec.default_initial_state, 0.1, 20, observers=spec.observers)
            for dae in (spec.dae, reference)]
    assert np.array_equal(runs[0].states(), runs[1].states())
    assert [r.newton_iters for r in runs[0].records] == [r.newton_iters for r in runs[1].records]
    assert [r.newton_residual for r in runs[0].records] == [r.newton_residual for r in runs[1].records]


def test_dg_midpoint_dissipates_friction_energy():
    spec = make_friction()
    traj = integrate(
        spec.dae, "dg-midpoint", spec.default_initial_state, 0.1, 40,
        observers=spec.observers, cfg=TIGHT,
    )
    V = traj.invariant_series("V")
    assert np.all(np.diff(V) <= 1e-12)
    assert V[-1] < V[0]  # the damping actually bites


def test_dg_underdetermined_null_component_detected():
    # second row of A and of S both vanish: nothing pins z2
    dae = LinearGradientDAE(
        np.diag([1.0, 0.0]),
        lambda z: np.array([[-1.0, 0.0], [0.0, 0.0]]),
        quadratic_field(np.eye(2)),
        structure_claim="none",
    )
    with pytest.raises(StepFailure) as info:
        integrate(dae, "dg-midpoint", np.array([1.0, 0.3]), 0.1, 1)
    assert isinstance(info.value.cause, UnderdeterminedSystem)


def test_singular_jacobian_without_free_null_space_is_not_underdetermined():
    # implicit Euler leaves no null-space component free; 0 z' = 1 has no solution
    dae = GeneralDAE(np.zeros((1, 1)), lambda z: np.ones(1))
    with pytest.raises(StepFailure) as info:
        integrate(dae, "implicit-euler", np.zeros(1), 0.1, 1)
    assert isinstance(info.value.cause, SingularJacobian)
    assert not isinstance(info.value.cause, UnderdeterminedSystem)


def test_dg_conserves_with_state_dependent_structure():
    # the rotation speed 1 + z0^2 varies along the orbit, so the averaged
    # structure matrix differs from both endpoint values at every step
    def S(z):
        w = 1.0 + z[0] ** 2
        return np.array([[0.0, w], [-w, 0.0]])

    dae = LinearGradientDAE(np.eye(2), S, quadratic_field(np.eye(2), name="V"),
                            structure_claim="conservative")
    z0 = np.array([1.0, 0.0])
    for scheme in ("dg-avf", "dg-midpoint", "dg-proper"):
        traj = integrate(dae, scheme, z0, 0.4, 10, observers=(dae.V,), cfg=TIGHT)
        V = traj.invariant_series("V")
        assert np.abs(V - V[0]).max() <= 1e-12
        assert np.ptp(traj.states()[:, 0] ** 2) > 0.5  # S really changes
    # any skew S conserves V, so check the scheme itself: Sbar is the endpoint average
    z1 = integrate(dae, "dg-midpoint", z0, 0.4, 1, cfg=TIGHT).final_state
    gbar = 0.5 * (z1 + z0)  # exact for the quadratic V
    assert np.allclose((z1 - z0) / 0.4, 0.5 * (S(z1) + S(z0)) @ gbar, rtol=0.0, atol=1e-12)
    assert not np.allclose((z1 - z0) / 0.4, S(z0) @ gbar, rtol=0.0, atol=1e-3)


@pytest.mark.parametrize(
    "problem, grid, scheme",
    [
        ("friction", None, "dg-midpoint"),
        ("sinh-gordon", 16, "dg-proper"),
        ("sinh-gordon", 16, "dg-index1"),
        ("sinh-gordon", 16, "dg-avf"),
    ],
)
def test_constant_structure_single_product_matches_average(problem, grid, scheme):
    # a constant S returned as one object takes the single S gbar product;
    # a fresh copy per call forces the endpoint average, which must agree bit
    # for bit; the copy is not constant, so it also takes difference
    # Jacobians, and is compared with the one object on differences
    spec = make_problem(problem, grid=grid)
    dae = replace(spec.dae, V=replace(spec.dae.V, hessian=None))
    z0 = spec.default_initial_state
    S0 = dae.S(z0)
    assert dae.S(z0 + 1.0) is S0
    averaged = replace(spec.dae, S=lambda z: S0.copy())
    runs = [integrate(target, scheme, z0, 0.1, 10) for target in (dae, averaged)]
    assert np.array_equal(runs[0].states(), runs[1].states())
    assert [r.newton_iters for r in runs[0].records] == [r.newton_iters for r in runs[1].records]


def test_dg_midpoint_second_order_convergence():
    dae = rotation_system()
    errors = []
    for steps in (10, 20):
        traj = integrate(dae, "dg-midpoint", np.array([1.0, 0.0]), 1.0 / steps, steps, cfg=TIGHT)
        exact = np.array([math.cos(1.0), -math.sin(1.0)])
        errors.append(np.linalg.norm(traj.final_state - exact))
    rate = math.log2(errors[0] / errors[1])
    assert 1.8 <= rate <= 2.2


# ---------------------------------------------------- index-1 dg scheme


def test_index1_lattice_at_grid_128_conserves_and_stays_on_the_manifold():
    # the benchmark's lattice-index1 system; its constraint row is formed
    # from B^T S once per step
    spec = make_problem("sinh-gordon", grid=128)
    traj = integrate(spec.dae, "dg-index1", spec.default_initial_state, 0.1, 10,
                     observers=spec.observers)
    H = traj.invariant_series("H")
    assert sum(r.newton_iters for r in traj.records) == 21
    assert np.abs(H - H[0]).max() <= 1e-12 * max(1.0, abs(H[0]))
    assert max(r.constraint_residual_norm for r in traj.records) <= 1e-10


@pytest.mark.parametrize("problem", ["pendulum", "friction"])
def test_index1_scheme_is_refused_before_any_solve_where_the_system_is_not_index1(
        problem, monkeypatch):
    # both are index 3: their algebraic rows do not fix the null-space
    # components, and a run would fail mid-run with "step stagnated"
    spec = make_problem(problem)

    def no_solve(*args, **kwargs):
        raise AssertionError("newton_solve was called")

    monkeypatch.setattr(integrators, "newton_solve", no_solve)
    with pytest.raises(ValueError, match="index 1"):
        integrate(spec.dae, "dg-index1", spec.default_initial_state, 0.1, 100)


def test_index1_step_enforces_constraint_and_energy():
    spec = make_problem("sinh-gordon", grid=8)
    traj = integrate(
        spec.dae, "dg-index1", spec.default_initial_state, 0.1, 20,
        observers=spec.observers, cfg=TIGHT,
    )
    H = traj.invariant_series("H")
    F = traj.invariant_series("F")
    assert np.abs(H - H[0]).max() <= 1e-12 * max(1.0, abs(H[0]))
    assert np.abs(F).max() <= 1e-10
    c_norms = [rec.redundant_c_norm for rec in traj.records]
    assert max(c_norms) <= 1e-10


def flat_general_system():
    """The rotation system with a linear ``V`` hinted ``"general"``."""
    gamma = np.array([1.0, 2.0])
    V = ScalarField(dim=2, value=lambda z: float(gamma @ z),
                    gradient=lambda z: gamma.copy(), hint="general", name="V")
    return LinearGradientDAE(np.eye(2), rotation_system().S, V, structure_claim="conservative")


def test_index1_fallback_warns_about_conservation():
    # a linear V declared "general" has a zero curvature term, which
    # forces the midpoint fallback; it must be reported loudly
    dae = flat_general_system()
    V = dae.V
    with pytest.warns(FallbackCompromisedConservation):
        out = integrate(dae, "dg-index1", np.array([1.0, 0.0]), 0.1, 1, cfg=TIGHT).records[-1]
    assert out.fallback_used
    assert V.value(out.state) == pytest.approx(V.value(np.array([1.0, 0.0])), abs=1e-12)


def fallback_case(problem):
    """The flat system, whose interior-division gradient always falls back,
    or the sinh-gordon lattice, whose gradient never does: the system, its
    start state and whether it falls back."""
    if problem == "flat":
        return flat_general_system(), np.array([1.0, 0.0]), True
    spec = make_problem("sinh-gordon", grid=8)
    return spec.dae, spec.default_initial_state, False


def assert_flags_are_the_one_shot_flags(case, scheme, steps):
    """Run ``scheme`` on a :func:`fallback_case`; each step's
    ``fallback_used`` and warning must be the flag of a one-shot
    interior-division gradient at its new state about its start."""
    dae, z0, falls_back = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = integrate(dae, scheme, z0, 0.1, steps, cfg=TIGHT)
    states = traj.states()
    want = [discrete_gradient_info(DiscreteGradientKind("proper"), dae.V, z1, z0)[1]
            for z0, z1 in zip(states[:-1], states[1:])]
    assert [r.fallback_used for r in traj.records[1:]] == want == [falls_back] * steps
    assert sum(w.category is FallbackCompromisedConservation for w in caught) == sum(want)
    return traj


@pytest.mark.parametrize("problem, scheme", [
    ("flat", "dg-index1"),
    ("flat", "dg-proper"),
    ("sinh-gordon", "dg-proper"),
])
def test_fallback_flag_is_the_one_shot_flag(problem, scheme):
    assert_flags_are_the_one_shot_flags(fallback_case(problem), scheme, 4)


@pytest.mark.parametrize("problem, scheme", [("flat", "dg-index1"), ("sinh-gordon", "dg-proper")])
def test_fallback_flag_after_a_failed_predicted_start(problem, scheme, monkeypatch):
    # the predicted solve of step 2 evaluates the residual at its start,
    # where the step's prepared gradient is then left, and fails; the flag
    # is that of the state the retry from z_m accepts
    case = fallback_case(problem)  # before the patch: make_problem may solve
    starts = _record_starts(monkeypatch)
    recording = integrators.newton_solve

    def failing_on_the_prediction(residual, w0, *args, **kwargs):
        if len(starts) == 1:  # the second call is step 2's predicted start
            starts.append(np.array(w0))
            residual(np.array(w0))
            raise NoConvergence(1, 1.0)
        return recording(residual, w0, *args, **kwargs)

    monkeypatch.setattr(integrators, "newton_solve", failing_on_the_prediction)
    traj = assert_flags_are_the_one_shot_flags(case, scheme, 2)
    assert len(starts) == 3 and np.array_equal(starts[2], traj.states()[1])


# ------------------------------------------------------ constrained step


def test_gonzalez_conserves_energy_and_constraint():
    spec = make_problem("pendulum")
    system = spec.gonzalez
    traj = integrate(
        system, "gonzalez", spec.default_initial_state, 0.1, 50,
        observers=spec.observers, cfg=TIGHT,
    )
    H = traj.invariant_series("H")
    g = traj.invariant_series("g")
    assert np.abs(H - H[0]).max() <= 1e-11
    assert np.abs(g).max() <= 1e-11


def test_gonzalez_reflects_initial_constraint_violation():
    spec = make_problem("pendulum")
    z0 = np.array([1.1, 0.0, 0.0, 0.0, 0.0])  # |q| != 1
    q1 = integrate(spec.gonzalez, "gonzalez", z0, 0.1, 1, cfg=TIGHT).final_state[:2]
    g1 = 0.5 * (q1 @ q1 - 1.0)
    # the scheme enforces g(q1) = -g(q0)
    assert g1 == pytest.approx(-0.105, abs=1e-10)


# reference: one step of Gonzalez's scheme written on separate (q, p) and q
# blocks, from the pendulum's default state at dt 0.1 with default Newton
# settings, printed to 17 digits
GONZALEZ_STEP = np.array([
    0.99998750007812454, -0.0049999687501953117, -0.00024999843750925558,
    -0.099999375003906224, 0.0049999999999897973,
])


def test_gonzalez_step_matches_the_former_block_scheme():
    spec = make_problem("pendulum")
    out = integrate(spec.dae, "gonzalez", spec.default_initial_state, 0.1, 1).records[-1]
    assert out.newton_iters == 3
    assert np.abs(out.state - GONZALEZ_STEP).max() <= 1e-13


pendulum_coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
pendulum_states = st.lists(pendulum_coords, min_size=5, max_size=5).map(np.array)


@settings(max_examples=100, deadline=None)
@given(pendulum_states, pendulum_states)
def test_augmented_gradient_chain_rule_property(z0, z1):
    # V = H + lam g on (q, v, lam): the augmented gradient is an exact
    # discrete gradient of V, and its lam row is the average of g
    dae = make_problem("pendulum").dae
    gradient, _ = integrators._augmented_gradient(dae)(z0)
    gbar = gradient(z1)
    V = dae.V
    scale = max(1.0, abs(V.value(z1)), abs(V.value(z0)))
    assert abs(float(gbar @ (z1 - z0)) - (V.value(z1) - V.value(z0))) <= 1e-12 * scale
    (g,) = dae.constraints
    g_bar = 0.5 * (g.value(z1) + g.value(z0))
    assert gbar[4] == pytest.approx(g_bar, rel=1e-15, abs=1e-15)


def _gonzalez_targets():
    dae = make_problem("pendulum").dae
    return {
        "no-hamiltonian": replace(dae, hamiltonian=None),
        "nonsingular": replace(dae, A=np.eye(5)),
        "two-constraints": replace(dae, constraints=dae.constraints * 2),
        "no-constraints": replace(dae, constraints=()),
    }


@pytest.mark.parametrize("case", list(_gonzalez_targets()))
def test_gonzalez_binding_checks_the_declaration(case):
    target = _gonzalez_targets()[case]
    with pytest.raises(ValueError, match="gonzalez"):
        integrate(target, "gonzalez", make_problem("pendulum").default_initial_state, 0.1, 1)


def test_friction_gonzalez_dissipates_on_the_constraint():
    spec = make_problem("friction")
    assert spec.schemes[0] == "gonzalez"
    traj = integrate(spec.dae, "gonzalez", spec.default_initial_state, 0.1, 500,
                     observers=spec.observers)
    assert len(traj) == 501
    assert sum(r.newton_iters for r in traj.records) == 1486
    assert np.diff(traj.invariant_series("H")).max() < 0.0  # H falls at every step
    assert max(r.constraint_residual_norm for r in traj.records) <= 1e-12
    lam = traj.states()[:, 4]
    lam_bar = 0.5 * (lam[1:] + lam[:-1])  # the scheme fixes only the average
    assert lam_bar.min() >= 0.0 and lam_bar.max() <= 3.0


def test_pendulum_gonzalez_run_conserves_at_round_off():
    # H and g are hinted quadratic, so their midpoint gradients carry no
    # correction; V and H stay at round-off and Newton takes 3 iterations a step
    spec = make_problem("pendulum")
    traj = integrate(spec.dae, "gonzalez", spec.default_initial_state, 0.1, 500,
                     observers=spec.observers)
    assert sum(r.newton_iters for r in traj.records) == 1500
    for name in ("V", "H"):
        series = traj.invariant_series(name)
        assert np.abs(series - series[0]).max() <= 1e-13, name
    assert max(r.constraint_residual_norm for r in traj.records) <= 1e-13


def test_friction_gonzalez_is_second_order():
    spec = make_problem("friction")
    z0, T = spec.default_initial_state, 2.0

    def final(dt):
        return integrate(spec.dae, "gonzalez", z0, dt, round(T / dt)).final_state[:4]

    reference = final(0.1 / 64)
    errors = [np.abs(final(dt) - reference).max() for dt in (0.1, 0.05, 0.025)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.1), orders


def observed_orders(spec, scheme, dts, reference_dt, part=slice(None)):
    """``log2`` of successive error ratios at ``T = 1``, each error the max
    norm of ``part`` of the final state against a run at ``reference_dt``."""

    def final(dt):
        return integrate(spec.dae, scheme, spec.default_initial_state, dt,
                         round(1.0 / dt)).final_state[part]

    reference = final(reference_dt)
    errors = [np.abs(final(dt) - reference).max() for dt in dts]
    return np.log2(np.array(errors[:-1]) / np.array(errors[1:]))


@pytest.mark.parametrize("scheme", ["dg-index1", "dg-proper", "dg-avf"])
def test_sinh_gordon_schemes_are_second_order(scheme):
    # measured: 1.99, 2.00, 2.02 for each scheme
    orders = observed_orders(make_problem("sinh-gordon", grid=16), scheme,
                             (0.2, 0.1, 0.05, 0.025), 0.025 / 8)
    assert np.all(np.abs(orders - 2.0) <= 0.05), orders


def test_pendulum_gonzalez_is_second_order_in_positions_and_velocities():
    # measured: 2.00, 2.00, 1.99; the multiplier is fixed only as a step average
    orders = observed_orders(make_problem("pendulum"), "gonzalez",
                             (0.1, 0.05, 0.025, 0.0125), 0.0125 / 8, slice(0, 4))
    assert np.all(np.abs(orders - 2.0) <= 0.05), orders


def test_smhs_implicit_euler_is_first_order():
    # a first-order error against a reference at dt_ref reads (h - dt_ref) C,
    # which biases the finest ratio up: 1.10 at dt_ref = 0.0125 / 8, 1.01 at
    # the 0.0125 / 64 used here (measured: 1.00, 1.00, 1.01)
    orders = observed_orders(make_problem("smhs", seed=1), "implicit-euler",
                             (0.1, 0.05, 0.025, 0.0125), 0.0125 / 64)
    assert np.all(np.abs(orders - 1.0) <= 0.05), orders


# ---------------------------------------------------------- single step


@pytest.mark.parametrize(
    "target, scheme",
    [
        ("general", "dg-avf"),
        ("general", "dg-midpoint"),
        ("general", "dg-proper"),
        ("general", "dg-index1"),
        ("general", "gonzalez"),
        ("linear", "gonzalez"),
        ("linear", "leapfrog"),
    ],
)
def test_step_rejects_mismatched_or_unknown_scheme(target, scheme):
    system = {
        "general": make_problem("smhs").dae,
        "linear": rotation_system(),
    }[target]
    with pytest.raises(ValueError):
        integrate(system, scheme, np.zeros(5), 0.1, 1)


def test_step_looks_up_discrete_gradient_at_call_time(monkeypatch):
    # one gradient per residual evaluation, all through the module
    # attribute; the interior-division step's fallback flag on the accepted
    # state is read from its prepared gradient's last call, with no call here
    dg_calls, residual_calls = [], []
    real_dg, real_newton = integrators.discrete_gradient_info, integrators.newton_solve

    def counting_dg(*args):
        dg_calls.append(args[0].variant)
        return real_dg(*args)

    def counting_newton(residual, w0, *args, **kwargs):
        def counted(w):
            residual_calls.append(1)
            return residual(w)

        return real_newton(counted, w0, *args, **kwargs)

    monkeypatch.setattr(integrators, "discrete_gradient_info", counting_dg)
    monkeypatch.setattr(integrators, "newton_solve", counting_newton)
    for scheme, variant in [("dg-avf", "avf"), ("dg-proper", "proper")]:
        dg_calls.clear()
        residual_calls.clear()
        out = integrate(rotation_system(), scheme, np.array([1.0, 0.0]), 0.1, 1, cfg=TIGHT).records[-1]
        assert out.newton_iters >= 1
        assert set(dg_calls) == {variant}
        assert len(dg_calls) == len(residual_calls)


# ------------------------------------------------------------ projection


def test_projection_moves_constant_state_to_zero():
    spec = make_problem("sinh-gordon", grid=8)
    z = project_to_constraint(spec.dae, 0.3 * np.ones(8), TIGHT)
    # the null direction is the constant vector and sum(sinh(u)) = 0
    # forces a constant profile to vanish identically
    assert np.abs(z).max() <= 1e-12


def test_projection_fixes_only_null_direction():
    spec = make_problem("sinh-gordon", grid=8)
    u0 = spec.default_initial_state
    shifted = u0 + 0.2
    z = project_to_constraint(spec.dae, shifted, TIGHT)
    diff = z - shifted
    assert np.abs(diff - diff.mean()).max() <= 1e-12  # a pure constant shift


def test_projection_identity_on_manifold_and_invertible_mass():
    spec = make_problem("sinh-gordon", grid=8)
    u0 = spec.default_initial_state
    assert np.allclose(project_to_constraint(spec.dae, u0, TIGHT), u0, atol=1e-12)

    dae = GeneralDAE(np.eye(2), lambda z: z)
    z0 = np.array([0.5, -0.5])
    out = project_to_constraint(dae, z0)
    assert np.array_equal(out, z0)
    assert out is not z0  # caller's array must stay untouched


# --------------------------------------------------------------- driver


def test_integrate_record_bookkeeping():
    dae = GeneralDAE(np.eye(1), lambda z: -z)
    traj = integrate(dae, "implicit-euler", np.array([1.0]), 0.25, 4)
    assert len(traj) == 5
    assert [rec.time for rec in traj.records] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    first = traj.records[0]
    assert first.newton_iters == 0
    assert first.newton_residual == 0.0
    assert first.redundant_c_norm == 0.0
    assert traj.states().shape == (5, 1)


def test_integrate_observer_series_match_states():
    spec = make_problem("pendulum")
    traj = integrate(spec.dae, "dg-midpoint", spec.default_initial_state, 0.1, 5,
                     observers=spec.observers, cfg=TIGHT)
    field = spec.primary_invariant
    recomputed = np.array([field.value(z) for z in traj.states()])
    assert np.array_equal(traj.invariant_series(field.name), recomputed)
    with pytest.raises(KeyError):
        traj.invariant_series("no-such-observer")
    once = integrate(spec.dae, "dg-midpoint", spec.default_initial_state, 0.1, 5,
                     observers=(obs for obs in spec.observers), cfg=TIGHT)
    assert [r.invariant_values for r in once.records] == [r.invariant_values for r in traj.records]


def test_integrate_step_failure_carries_partial_trajectory():
    spec = make_problem("smhs")
    starved = NewtonConfig(max_iters=1, residual_tol=1e-14)
    with pytest.raises(StepFailure) as info:
        integrate(spec.dae, "implicit-euler", spec.default_initial_state, 0.05, 10, cfg=starved)
    failure = info.value
    assert failure.step_index == 1
    assert isinstance(failure.cause, NoConvergence)
    assert len(failure.trajectory) == 1  # only the initial record survived


def test_failed_start_projection_is_a_step_zero_failure():
    spec = make_problem("sinh-gordon", grid=8)
    z0 = spec.default_initial_state + 0.2
    starved = NewtonConfig(residual_tol=1e-300, max_iters=1)
    with pytest.raises(StepFailure) as info:
        integrate(spec.dae, "dg-index1", z0, 0.1, 3, cfg=starved)
    failure = info.value
    assert failure.step_index == 0
    assert isinstance(failure.cause, NoConvergence)
    assert len(failure.trajectory) == 1
    assert np.array_equal(failure.trajectory.final_state, z0)  # not projected


def test_integrate_wraps_linear_algebra_errors_as_step_failures():
    def f(z):
        if z[0] != 1.0:  # fine at the initial state, fails inside the first step
            raise np.linalg.LinAlgError("singular matrix")
        return -z

    dae = GeneralDAE(np.eye(1), f)
    with pytest.raises(StepFailure) as info:
        integrate(dae, "implicit-euler", np.array([1.0]), 0.1, 3)
    assert info.value.step_index == 1
    assert isinstance(info.value.cause, np.linalg.LinAlgError)


def test_integrate_lets_programming_errors_propagate():
    # a bug in the right-hand side is not a solver failure
    def f(z):
        if z[0] < 0.9:
            return z + "oops"  # TypeError, reached on the second step
        return -z

    dae = GeneralDAE(np.eye(1), f)
    with pytest.raises(TypeError):
        integrate(dae, "implicit-euler", np.array([1.0]), 0.1, 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_non_finite_initial_state(bad, monkeypatch):
    spec = make_problem("sinh-gordon", grid=8)
    solves = []
    monkeypatch.setattr(integrators, "newton_solve", lambda *a, **k: solves.append(a))
    z0 = spec.default_initial_state.copy()
    z0[3] = bad
    for scheme in ("dg-index1", "dg-avf"):
        with pytest.raises(ValueError, match="finite"):
            integrate(spec.dae, scheme, z0, 0.1, 5)
    assert solves == []  # refused before the projection or any step


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf, True, np.True_])
@pytest.mark.parametrize("advance", [lambda *args: integrate(*args, 5)], ids=["integrate"])
def test_step_and_integrate_reject_a_dt_that_is_not_finite_and_positive(advance, dt, monkeypatch):
    spec = make_problem("sinh-gordon", grid=8)
    solves = []
    monkeypatch.setattr(integrators, "newton_solve", lambda *a, **k: solves.append(a))
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        advance(spec.dae, "dg-avf", spec.default_initial_state, dt)
    assert solves == []


def test_step_rejects_a_non_finite_state(monkeypatch):
    spec = make_problem("sinh-gordon", grid=8)
    solves = []
    monkeypatch.setattr(integrators, "newton_solve", lambda *a, **k: solves.append(a))
    z = spec.default_initial_state.copy()
    z[3] = math.nan
    with pytest.raises(ValueError, match="finite"):
        integrate(spec.dae, "dg-avf", z, 0.1, 1)
    assert solves == []


@pytest.mark.parametrize("shape", [(5,), (8, 1), ()], ids=["short", "column", "scalar"])
@pytest.mark.parametrize("advance", [lambda *args: integrate(*args, 5)], ids=["integrate"])
def test_step_and_integrate_reject_a_state_of_the_wrong_shape(advance, shape, monkeypatch):
    runs = [(make_problem("sinh-gordon", grid=8).dae, "dg-index1", 8),
            (make_problem("smhs").dae, "implicit-euler", 3)]
    solves = []
    monkeypatch.setattr(integrators, "newton_solve", lambda *a, **k: solves.append(a))
    for dae, scheme, dim in runs:
        with pytest.raises(ValueError, match=rf"start state must have shape \({dim},\), got "):
            advance(dae, scheme, np.zeros(shape), 0.1)
    assert solves == []


def test_index1_on_a_replaced_nonsingular_A_has_no_redundant_force():
    # the gonzalez refusal of a replaced A is the "nonsingular" case above
    lattice = make_problem("sinh-gordon", grid=8)
    out = integrate(replace(lattice.dae, A=np.eye(8)), "dg-index1", lattice.default_initial_state, 0.1, 1)
    assert out.records[-1].redundant_c_norm == 0.0


def _float_gradient_system(gradient):
    """``z' = -grad V`` for the 1-D quartic ``V = z^4/4 + z^2/2``."""
    V = ScalarField(1, lambda z: float(0.25 * z[0] ** 4 + 0.5 * z[0] ** 2), gradient, name="V")
    return LinearGradientDAE(np.eye(1), lambda z: np.array([[-1.0]]), V, structure_claim="dissipative")


@pytest.mark.parametrize("scheme", ["dg-avf", "dg-index1", "implicit-euler"])
def test_a_float_gradient_in_one_dimension_integrates_like_an_array(scheme):
    def float_gradient(z):
        return float(z[0] ** 3 + z[0])

    as_float, as_array = [
        integrate(_float_gradient_system(g), scheme, np.array([0.8]), 0.1, 10, cfg=TIGHT)
        for g in (float_gradient, lambda z: np.array([float_gradient(z)]))
    ]
    assert np.array_equal(as_float.states(), as_array.states())
    assert [r.newton_iters for r in as_float.records] == [r.newton_iters for r in as_array.records]
    assert [r.newton_residual for r in as_float.records] == [r.newton_residual for r in as_array.records]


def test_integrate_validates_arguments():
    spec = make_problem("smhs")
    z0 = spec.default_initial_state
    with pytest.raises(ValueError):
        integrate(spec.dae, "implicit-euler", z0, 0.1, 0)
    with pytest.raises(ValueError):
        integrate(spec.dae, "implicit-euler", z0, 0.0, 10)
    with pytest.raises(ValueError):
        integrate(spec.dae, "dg-avf", z0, 0.1, 10)  # no gradient structure
    with pytest.raises(ValueError):
        integrate(spec.dae, "gonzalez", z0, 0.1, 10)
    with pytest.raises(ValueError):
        integrate(spec.dae, "leapfrog", z0, 0.1, 10)
    with pytest.raises(ValueError, match=r"needs a system A z' = f\(z\)"):
        integrate(object(), "implicit-euler", z0, 0.1, 10)
    assert len(integrate(spec.dae, "implicit-euler", z0, 0.1, np.int64(2))) == 3


@pytest.mark.parametrize("steps", [2.5, "3", 0, -1, True])
def test_integrate_refuses_a_step_count_that_is_not_a_positive_integer(steps, monkeypatch):
    spec = make_problem("sinh-gordon", grid=8)
    solves = []
    monkeypatch.setattr(integrators, "newton_solve", lambda *a, **k: solves.append(a))
    with pytest.raises(ValueError, match="steps must be an integer of at least 1"):
        integrate(spec.dae, "dg-index1", spec.default_initial_state, 0.1, steps)
    assert solves == []  # refused before the projection or any step


@pytest.mark.parametrize("case", ["g-named-H", "unnamed-and-observer0", "dim-3"])
def test_integrate_refuses_clashing_or_misshapen_observers(case, monkeypatch):
    spec = make_problem("pendulum")
    H, g = (next(obs for obs in spec.observers if obs.name == name) for name in ("H", "g"))
    observers, message = {
        "g-named-H": ((H, replace(g, name="H")), "observer names must be distinct"),
        "unnamed-and-observer0": ((replace(H, name=""), replace(g, name="observer0")),
                                  "observer names must be distinct"),
        "dim-3": ((H, quadratic_field(np.eye(3), name="W")),
                  "observer 'W' acts on dimension 3, not 5"),
    }[case]
    solves = []
    monkeypatch.setattr(integrators, "newton_solve", lambda *a, **k: solves.append(a))
    with pytest.raises(ValueError, match=message):
        integrate(spec.dae, "dg-index1", spec.default_initial_state, 0.1, 3, observers=observers)
    assert solves == []  # refused before the projection or any step


def test_integrate_index1_projects_initial_state():
    spec = make_problem("sinh-gordon", grid=8)
    off = spec.default_initial_state + 0.2
    traj = integrate(spec.dae, "dg-index1", off, 0.1, 2, observers=spec.observers, cfg=TIGHT)
    assert traj.records[0].constraint_residual_norm <= 1e-10
    assert abs(traj.invariant_series("F")[0]) <= 1e-10


# ------------------------------------------------------ predicted start


def _record_starts(monkeypatch):
    """Route ``newton_solve`` through a wrapper that records each ``w0``."""
    starts = []
    real = integrators.newton_solve

    def recording(residual, w0, *args, **kwargs):
        starts.append(np.array(w0, dtype=float))
        return real(residual, w0, *args, **kwargs)

    monkeypatch.setattr(integrators, "newton_solve", recording)
    return starts


def test_predicted_start_saves_an_iteration_on_the_lattice():
    spec = make_problem("sinh-gordon", grid=32)
    traj = integrate(spec.dae, "dg-index1", spec.default_initial_state, 0.1, 50)
    iters = [rec.newton_iters for rec in traj.records[1:]]
    assert iters[0] == 3  # no predecessor, so no prediction
    assert max(iters[1:]) <= 2  # 3 each when every step starts at z_m


def test_plain_scheme_on_an_index1_lattice_takes_the_predicted_start():
    spec = make_problem("sinh-gordon", grid=32)
    traj = integrate(spec.dae, "dg-avf", spec.default_initial_state, 0.1, 50,
                     observers=spec.observers)
    iters = [rec.newton_iters for rec in traj.records[1:]]
    assert max(iters[1:]) <= 2  # 3 each when every step starts at z_m
    H = traj.invariant_series(spec.primary_invariant.name)
    assert np.max(np.abs(H - H[0])) <= 1e-12 * abs(H[0])


@pytest.mark.parametrize(
    "S, index1",
    [(np.array([[0.0, 1.0], [-1.0, -1.0]]), True),  # 0 = -z1 - z2 fixes z2
     (np.array([[0.0, 1.0], [-1.0, 0.0]]), False)],  # 0 = -z1 leaves z2 to the derivative
    ids=["index-1", "index-2"],
)
def test_index_check_asks_whether_the_algebraic_rows_fix_the_null_space(S, index1):
    dae = LinearGradientDAE(np.diag([1.0, 0.0]), lambda z: S, quadratic_field(np.eye(2)))
    assert integrators._fixes_null_space(dae, np.array([0.5, -0.5])) is index1


def test_step_starts_newton_at_the_current_state(monkeypatch):
    starts = _record_starts(monkeypatch)
    lattice, pendulum = make_problem("sinh-gordon", grid=8), make_problem("pendulum")
    # the index-1 scheme's start projection solves first, and returns z
    # unchanged for a state that is already on the manifold
    cases = [
        (lattice.dae, "dg-index1", lattice.default_initial_state, 1, 1),
        (lattice.dae, "implicit-euler", lattice.default_initial_state, 0, 0),
        (pendulum.gonzalez, "gonzalez", pendulum.default_initial_state, 0, 0),
    ]
    for target, scheme, z, extra, projections in cases:
        starts.clear()
        integrate(target, scheme, z, 0.1, 1)
        assert len(starts) == projections + 1
        assert np.array_equal(starts[-1], np.concatenate([z, np.zeros(extra)]))


@pytest.mark.parametrize("name, scheme", [("pendulum", "dg-midpoint"), ("friction", "dg-midpoint")])
def test_free_null_space_schemes_start_at_the_current_state(name, scheme, monkeypatch):
    # index 3: the algebraic row g(q) = 0 does not read the multiplier
    spec = make_problem(name)
    assert integrators._bind(spec.dae, scheme).free_null_space
    starts = _record_starts(monkeypatch)
    traj = integrate(spec.dae, scheme, spec.default_initial_state, 0.1, 4)
    assert len(starts) == 4
    for start, rec in zip(starts, traj.records):
        assert np.array_equal(start, rec.state)


def _assert_line_starts(spec, scheme, monkeypatch):
    """Run three steps and check that steps 2 and 3 start at ``2 z_m - z_{m-1}``."""
    extra = integrators._bind(spec.dae, scheme).extra
    starts = _record_starts(monkeypatch)
    traj = integrate(spec.dae, scheme, spec.default_initial_state, 0.1, 3)
    steps = starts[-3:]  # after the index-1 scheme's projection solve
    z = traj.states()
    assert np.array_equal(steps[0], np.concatenate([z[0], np.zeros(extra)]))
    assert np.array_equal(steps[1], np.concatenate([2.0 * z[1] - z[0], np.zeros(extra)]))
    assert np.array_equal(steps[2], np.concatenate([2.0 * z[2] - z[1], np.zeros(extra)]))


@pytest.mark.parametrize("name, scheme", [("sinh-gordon", "dg-index1"), ("smhs", "implicit-euler")])
def test_integrate_starts_later_steps_on_the_line_through_two_states(name, scheme, monkeypatch):
    spec = make_problem(name, grid=8) if name == "sinh-gordon" else make_problem(name)
    _assert_line_starts(spec, scheme, monkeypatch)


@pytest.mark.parametrize("scheme", ["dg-avf", "dg-proper"])
def test_plain_schemes_on_an_index1_lattice_start_on_the_line(scheme, monkeypatch):
    # the lattice's algebraic rows fix its null-space components
    spec = make_problem("sinh-gordon", grid=8)
    assert integrators._bind(spec.dae, scheme).free_null_space
    _assert_line_starts(spec, scheme, monkeypatch)


@pytest.mark.parametrize("error", [NoConvergence(1, 1.0), SingularJacobian("test")])
def test_failed_predicted_solve_is_retried_from_the_current_state(error, monkeypatch):
    dae = GeneralDAE(np.eye(1), lambda z: -z)
    reference = integrate(dae, "implicit-euler", np.array([1.0]), 0.1, 2)
    starts = _record_starts(monkeypatch)
    recording = integrators.newton_solve

    def failing_on_the_prediction(residual, w0, *args, **kwargs):
        if len(starts) == 1:  # the second call is step 2's predicted start
            starts.append(np.array(w0))
            raise error
        return recording(residual, w0, *args, **kwargs)

    monkeypatch.setattr(integrators, "newton_solve", failing_on_the_prediction)
    traj = integrate(dae, "implicit-euler", np.array([1.0]), 0.1, 2)
    z = reference.states()
    assert [s[0] for s in starts] == [z[0][0], 2.0 * z[1][0] - z[0][0], z[1][0]]
    assert np.array_equal(traj.states(), z)


def test_second_failure_of_a_step_propagates(monkeypatch):
    dae = GeneralDAE(np.eye(1), lambda z: -z)
    starts = _record_starts(monkeypatch)
    recording = integrators.newton_solve

    def failing_after_step_one(residual, w0, *args, **kwargs):
        if starts:
            starts.append(np.array(w0))
            raise NoConvergence(len(starts), 1.0)
        return recording(residual, w0, *args, **kwargs)

    monkeypatch.setattr(integrators, "newton_solve", failing_after_step_one)
    with pytest.raises(StepFailure) as info:
        integrate(dae, "implicit-euler", np.array([1.0]), 0.1, 3)
    assert info.value.step_index == 2
    assert info.value.cause.iters == 3  # the retry's error, not the prediction's
    assert len(starts) == 3


@pytest.mark.parametrize(
    "name, dt, seed",
    # smhs seed 0 fails on step 1 at 1e-6, before any prediction (ROADMAP item 3)
    [("pendulum", 1e-5, 0), ("friction", 1e-5, 0), ("smhs", 1e-6, 1)],
)
def test_small_dt_runs_recover_from_failed_predictions(name, dt, seed):
    # without the retry from z_m these fail: the predicted solve stagnates
    # just above the absolute 1e-12 tolerance
    spec = make_problem(name, seed=seed)
    traj = integrate(spec.dae, "implicit-euler", spec.default_initial_state, dt, 40)
    assert len(traj) == 41
