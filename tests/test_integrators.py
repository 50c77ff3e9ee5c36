"""Tests for the Newton kernel, one-step maps, and the driver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from daegrad.errors import (
    FallbackCompromisedConservation,
    NoConvergence,
    SingularJacobian,
    StepFailure,
    UnderdeterminedSystem,
)
import daegrad.integrators as integrators
from daegrad import gradients
from daegrad.gradients import ScalarField, cosh_sum_field, quadratic_field
from daegrad.integrators import (
    NewtonConfig,
    integrate,
    newton_solve,
    project_to_constraint,
    step,
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


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iters=0)


# ------------------------------------------------------- implicit Euler


def test_implicit_euler_scalar_decay_closed_form():
    dae = GeneralDAE(np.eye(1), lambda z: -z)
    out = step(dae, "implicit-euler", np.array([1.0]), 0.1, TIGHT)
    # (z1 - z0)/dt = -z1  =>  z1 = z0 / (1 + dt)
    assert out.state[0] == pytest.approx(1.0 / 1.1, abs=1e-12)
    assert out.c.size == 0
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
    out = step(dae, f"dg-{variant}", np.array([1.0]), 0.1, TIGHT)
    # quadratic V: every variant reduces to the midpoint average,
    # (z1 - z0)/dt = -(z0 + z1)/2
    assert out.state[0] == pytest.approx((1.0 - 0.05) / (1.0 + 0.05), abs=1e-12)


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
    with pytest.raises(UnderdeterminedSystem):
        step(dae, "dg-midpoint", np.array([1.0, 0.3]), 0.1)


def test_singular_jacobian_without_free_null_space_is_not_underdetermined():
    # implicit Euler leaves no null-space component free; 0 z' = 1 has no solution
    dae = GeneralDAE(np.zeros((1, 1)), lambda z: np.ones(1))
    with pytest.raises(SingularJacobian) as info:
        step(dae, "implicit-euler", np.zeros(1), 0.1)
    assert not isinstance(info.value, UnderdeterminedSystem)


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
    z1 = step(dae, "dg-midpoint", z0, 0.4, TIGHT).state
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
    # a fresh copy per call forces the endpoint average, which must agree bit for bit
    spec = make_problem(problem, grid=grid)
    dae = spec.dae
    z0 = spec.default_initial_state
    S0 = dae.S(z0)
    assert dae.S(z0 + 1.0) is S0
    averaged = replace(dae, S=lambda z: S0.copy())
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


def test_index1_fallback_warns_about_conservation():
    # a linear V declared "general" has a zero curvature term, which
    # forces the midpoint fallback; it must be reported loudly
    gamma = np.array([1.0, 2.0])
    V = ScalarField(dim=2, value=lambda z: float(gamma @ z),
                    gradient=lambda z: gamma.copy(), hint="general", name="V")
    dae = LinearGradientDAE(np.eye(2), rotation_system().S, V, structure_claim="conservative")
    with pytest.warns(FallbackCompromisedConservation):
        out = step(dae, "dg-index1", np.array([1.0, 0.0]), 0.1, TIGHT)
    assert out.fallback_used
    assert V.value(out.state) == pytest.approx(V.value(np.array([1.0, 0.0])), abs=1e-12)


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
    out = step(spec.gonzalez, "gonzalez", z0, 0.1, TIGHT)
    q1 = out.state[:2]
    g1 = 0.5 * (q1 @ q1 - 1.0)
    # the scheme enforces g(q1) = -g(q0)
    assert g1 == pytest.approx(-0.105, abs=1e-10)


# ---------------------------------------------------------- single step


@pytest.mark.parametrize(
    "target, scheme",
    [
        ("general", "dg-avf"),
        ("general", "dg-midpoint"),
        ("general", "dg-proper"),
        ("general", "dg-index1"),
        ("constrained", "dg-avf"),
        ("constrained", "dg-index1"),
        ("general", "gonzalez"),
        ("linear", "gonzalez"),
        ("constrained", "implicit-euler"),
        ("linear", "leapfrog"),
    ],
)
def test_step_rejects_mismatched_or_unknown_scheme(target, scheme):
    system = {
        "general": make_problem("smhs").dae,
        "linear": rotation_system(),
        "constrained": make_problem("pendulum").gonzalez,
    }[target]
    with pytest.raises(ValueError):
        step(system, scheme, np.zeros(5), 0.1)


def test_step_looks_up_discrete_gradient_at_call_time(monkeypatch):
    # one gradient per residual evaluation, plus the fallback check on the
    # accepted state for the interior-division gradient (the only one that
    # can fall back), all through the module attribute
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
    for scheme, variant, fallback_checks in [("dg-avf", "avf", 0), ("dg-proper", "proper", 1)]:
        dg_calls.clear()
        residual_calls.clear()
        out = step(rotation_system(), scheme, np.array([1.0, 0.0]), 0.1, TIGHT)
        assert out.newton_iters >= 1
        assert set(dg_calls) == {variant}
        assert len(dg_calls) == len(residual_calls) + fallback_checks


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
    cases = [
        (lattice.dae, "dg-index1", lattice.default_initial_state, 1),
        (lattice.dae, "implicit-euler", lattice.default_initial_state, 0),
        (pendulum.gonzalez, "gonzalez", pendulum.default_initial_state, 0),
    ]
    for target, scheme, z, extra in cases:
        starts.clear()
        step(target, scheme, z, 0.1)
        assert len(starts) == 1
        assert np.array_equal(starts[0], np.concatenate([z, np.zeros(extra)]))


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
