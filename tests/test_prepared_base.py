"""The discrete gradient prepared at a step's base point.

A step holds its base point ``z0`` fixed over every residual call, so the
integrators prepare it once (``gradients._PreparedBase``) and each call
evaluates only what depends on ``z1``.  The references here are the
per-call formulas, which evaluate every term, ``grad V(z0)`` and the
divergence's base terms included, at each call: the prepared base must
give what they give bit for bit, and make fewer field calls.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import daegrad.integrators as integrators
from daegrad import gradients
from daegrad.gradients import (
    DiscreteGradientKind,
    ScalarField,
    avf_gradient,
    convex_quartic_field,
    cosh_sum_field,
    discrete_gradient_info,
    linear_field,
    midpoint_gradient,
    proper_gradient,
    quadratic_field,
)
from daegrad.integrators import integrate
from daegrad.problems import make_friction, make_problem

VARIANTS = ("avf", "midpoint", "proper")
coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def per_call_midpoint(V, z, zp):
    if V.hint == "quadratic":
        return gradients._gradient(V, 0.5 * (z + zp)).copy()
    delta = z - zp
    dd = float(delta @ delta)
    if gradients._coincide(z, dd):
        return gradients._gradient(V, z).copy()
    g = gradients._gradient(V, 0.5 * (z + zp))
    corr = (V.value(z) - V.value(zp) - float(g @ delta)) / dd
    return g + corr * delta


def per_call_discrete_gradient(variant, V, z, zp):
    """``(gbar(z, zp), fell_back)`` with every term evaluated in this call."""
    z, zp = np.asarray(z, dtype=float), np.asarray(zp, dtype=float)
    if variant == "avf":
        if (z == zp).all():
            return gradients._gradient(V, z).copy(), False
        nodes, weights = gradients._avf_rule()
        points = zp + nodes[:, None] * (z - zp)
        if V.hint == "separable":
            grads = np.asarray(V.gradient(points), dtype=float)
        else:
            grads = np.array([gradients._gradient(V, p) for p in points])
        return weights @ grads, False
    if variant == "midpoint":
        return per_call_midpoint(V, z, zp), False
    delta = z - zp
    dd = float(delta @ delta)
    if gradients._coincide(z, dd):
        return gradients._gradient(V, z).copy(), False
    if V.hint == "quadratic":
        t1 = t2 = 0.5
    else:
        if V.divergence is not None:
            d1, d2 = V.divergence(zp)(z)
        else:
            gp = gradients._gradient(V, zp).copy()
            d1 = V.value(z) - V.value(zp) - float(gp @ delta)
            d2 = float((gradients._gradient(V, z) - gp) @ delta) - d1
        den = d1 + d2
        if abs(den) <= 1e-10 * dd:
            return per_call_midpoint(V, z, zp), True
        t1, t2 = d1 / den, d2 / den
    return t1 * gradients._gradient(V, z) + t2 * gradients._gradient(V, zp), False


def fields(dim):
    """The four built-in kinds, a cosh sum hinted ``"general"`` with no
    divergence, and a linear field hinted ``"general"``, whose curvature
    term vanishes, so that its proper gradient always falls back."""
    X = np.diag(np.arange(1.0, dim + 1.0)) + 0.1
    gamma = np.linspace(-1.0, 1.0, dim) + 0.5
    cosh = cosh_sum_field(dim)
    return {
        "quadratic": quadratic_field(X, linear=np.full(dim, 0.5)),
        "linear": linear_field(gamma),
        "cosh-sum": cosh,
        "convex-quartic": convex_quartic_field(np.linspace(0.0, 2.0, dim)),
        "general": replace(cosh, hint="general", divergence=None),
        "flat": ScalarField(dim, lambda z: float(gamma @ z), lambda z: gamma.copy()),
    }


def one_shot(variant, V, z, zp):
    """The public functions' result for ``variant``."""
    g, fell_back = discrete_gradient_info(DiscreteGradientKind(variant), V, z, zp)
    public = {"avf": avf_gradient, "midpoint": midpoint_gradient, "proper": proper_gradient}
    assert np.array_equal(public[variant](V, z, zp), g)
    return g, fell_back


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=4),
       st.sampled_from(["distinct", "coincident", "near"]))
def test_prepared_base_gives_the_per_call_and_one_shot_results_property(points, case):
    zp, z1, z2 = (np.array(column) for column in zip(*points))
    if case == "coincident":
        z1 = zp.copy()
    elif case == "near":
        z1 = zp + 1e-9 * (z1 - zp)
    for name, V in fields(zp.size).items():
        for variant in VARIANTS:
            base = gradients._PreparedBase(DiscreteGradientKind(variant), V, zp)
            # z1, z2, z1 on one base: nothing of the z2 call may leak into z1's
            for z in (z1, z2, z1):
                got, fell_back = base(z)
                want, want_fell_back = per_call_discrete_gradient(variant, V, z, zp)
                assert np.array_equal(got, want), (name, variant, case)
                assert fell_back == want_fell_back, (name, variant, case)
                shot, shot_fell_back = one_shot(variant, V, z, zp)
                assert np.array_equal(shot, got) and shot_fell_back == fell_back
                if variant == "proper":
                    assert np.array_equal(base.grad, gradients._gradient(V, z))
                # the flag where the last call was, read from that call
                at = base.at
                assert base.fell_back(z) == fell_back and base.at is at
            # and where it was not: the flag at z2 calls there, after which
            # a call at z1 still gives the per-call result
            assert base.fell_back(z2) == per_call_discrete_gradient(variant, V, z2, zp)[1]
            got, fell_back = base(z1)
            want, want_fell_back = per_call_discrete_gradient(variant, V, z1, zp)
            assert np.array_equal(got, want) and fell_back == want_fell_back, (name, variant, case)


def test_the_flat_general_field_falls_back_and_quadratic_fields_take_the_short_cut():
    # the property above covers both branches: check that it does
    zp, z = np.array([0.3, -0.2]), np.array([1.1, 0.4])
    assert one_shot("proper", fields(2)["flat"], z, zp)[1] is True
    base = gradients._PreparedBase(DiscreteGradientKind("proper"), fields(2)["flat"], zp)
    assert base.fell_back(z) is True and base.fell_back(zp) is False
    for name in ("quadratic", "linear"):
        V = replace(fields(2)[name], value=lambda u: pytest.fail("value called"),
                    divergence=lambda z0: pytest.fail("divergence called"))
        for variant in ("midpoint", "proper"):
            one_shot(variant, V, z, zp)


def test_a_prepared_base_of_another_field_or_variant_is_refused():
    V, W = cosh_sum_field(2), cosh_sum_field(2)
    zp, z = np.array([0.3, -0.2]), np.array([1.1, 0.4])
    base = gradients._PreparedBase(DiscreteGradientKind("proper"), V, zp)
    with pytest.raises(ValueError, match="prepared base"):
        discrete_gradient_info(DiscreteGradientKind("proper"), W, z, base)
    with pytest.raises(ValueError, match="prepared base"):
        discrete_gradient_info(DiscreteGradientKind("avf"), V, z, base)
    assert discrete_gradient_info(DiscreteGradientKind("proper"), V, z, base)[0].shape == (2,)


# ------------------------------------------------------- calls per step


def counting(V, calls):
    """``V`` with each field call appended to ``calls`` as ``(kind, point)``,
    where the point is the first argument."""

    def count(kind, fn):
        def wrapped(*args):
            calls.append((kind, np.array(args[0])))
            return fn(*args)

        return wrapped

    return replace(
        V,
        value=count("value", V.value),
        gradient=count("gradient", V.gradient),
        divergence=None if V.divergence is None else count("divergence", V.divergence),
        hessian=None if V.hessian is None else count("hessian", V.hessian),
    )


def step_calls(monkeypatch, dae, scheme, z0, steps):
    """Per step: the start ``z``, the field calls made by ``_advance``, with
    each analytic Jacobian build among them as ``("jacobian", w)``, and its
    residual calls."""
    calls, residuals, steps_seen = [], [], []
    real_advance, real_newton = integrators._advance, integrators.newton_solve

    def advance(bound, z, *args, **kwargs):
        calls.clear()
        residuals.clear()
        out = real_advance(bound, z, *args, **kwargs)
        steps_seen.append((z.copy(), list(calls), len(residuals)))
        return out

    def newton(residual, w0, *args, jacobian=None, **kwargs):
        def counted(w):
            residuals.append(1)
            return residual(w)

        def built(w):
            calls.append(("jacobian", np.array(w)))
            return jacobian(w)

        return real_newton(counted, w0, *args, **kwargs,
                           jacobian=None if jacobian is None else built)

    monkeypatch.setattr(integrators, "_advance", advance)
    monkeypatch.setattr(integrators, "newton_solve", newton)
    integrate(replace(dae, V=counting(dae.V, calls)), scheme, z0, 0.1, steps)
    return steps_seen


def test_index1_step_evaluates_one_gradient_per_residual(monkeypatch):
    spec = make_problem("sinh-gordon", grid=16)
    for z, calls, residuals in step_calls(monkeypatch, spec.dae, "dg-index1",
                                          spec.default_initial_state, 2):
        kinds = [kind for kind, _ in calls]
        builds = kinds.count("jacobian")
        # analytic Jacobians: no difference columns, which would take 17
        # residuals per build
        assert 1 <= builds and residuals < 17
        # one grad V(z1) per residual and none per Jacobian build, which
        # reads the last residual's, and grad V(z0) when the step prepares
        # its base; the fallback flag on the accepted state reads the last
        # residual's call too
        assert kinds.count("gradient") == residuals + 1
        assert kinds.count("hessian") == builds
        # the step's preparation, at z, only
        divergences = [u for kind, u in calls if kind == "divergence"]
        assert len(divergences) == 1 and np.array_equal(divergences[0], z)
        assert kinds.count("value") == 0


def test_midpoint_step_evaluates_the_base_value_once(monkeypatch):
    spec = make_friction()
    assert spec.dae.V.hint == "general"
    for z, calls, residuals in step_calls(monkeypatch, spec.dae, "dg-midpoint",
                                          spec.default_initial_state, 3):
        at_base = [kind for kind, u in calls if kind == "value" and np.array_equal(u, z)]
        assert len(at_base) == 1
        assert residuals > 5


# ------------------------------------------------- whole runs bit for bit


class PerCallBase(gradients._PreparedBase):
    """Keeps the base point only, and evaluates the per-call formulas at
    every call; ``grad`` is a fresh ``grad V(z)``, as the constraint row
    evaluated it before the base was prepared.  Its ``derivative`` comes
    from a fresh prepared base at each call, with that base's ``hess``, and
    its ``fell_back`` from the per-call formulas at each call."""

    def __init__(self, kind, V, zp):
        self.variant, self.V, self.zp = kind.variant, V, np.asarray(zp, dtype=float)

    def __call__(self, z):
        self.grad = gradients._gradient(self.V, z)
        return per_call_discrete_gradient(self.variant, self.V, z, self.zp)

    def derivative(self, z):
        fresh = gradients._PreparedBase(DiscreteGradientKind(self.variant), self.V, self.zp)
        out = fresh.derivative(z)
        self.hess = fresh.hess
        return out

    def fell_back(self, z):
        return per_call_discrete_gradient(self.variant, self.V, z, self.zp)[1]


@pytest.mark.parametrize("problem, scheme, steps", [
    ("sinh-gordon", "dg-index1", 10),
    ("sinh-gordon", "dg-proper", 20),
    ("sinh-gordon", "dg-avf", 20),
    ("friction", "dg-midpoint", 50),
])
def test_run_matches_the_per_call_formulas_bit_for_bit(problem, scheme, steps, monkeypatch):
    spec = make_problem(problem, grid=16 if problem == "sinh-gordon" else None)

    def run():
        return integrate(spec.dae, scheme, spec.default_initial_state, 0.1, steps,
                         observers=spec.observers)

    prepared = run()
    monkeypatch.setattr(integrators, "_PreparedBase", PerCallBase)
    per_call = run()
    assert np.array_equal(prepared.states(), per_call.states())
    for a, b in zip(prepared.records, per_call.records):
        assert (a.newton_iters, a.newton_residual) == (b.newton_iters, b.newton_residual)
        assert a.fallback_used == b.fallback_used


# ------------------------------------------------------------- Gonzalez


def per_call_augmented_gradient(dae):
    """Gonzalez's gradient with a one-shot ``midpoint_gradient`` per field
    at every call, as it was formed before each step prepared its bases,
    and its derivative from fresh prepared bases at every call."""
    H, constraints, E = dae.hamiltonian, dae.constraints, dae.subspaces.null_basis
    P = np.eye(dae.dim) - E @ E.T

    def split(z):
        x = P @ z
        return x, E.T @ z, np.array([g.value(x) for g in constraints])

    def gradient_from(z):
        x0, lam0, g0 = split(z)

        def gradient(zp):
            x1, lam1, g1 = split(zp)
            w = midpoint_gradient(H, x1, x0)
            for lam_j, g in zip(0.5 * (lam1 + lam0), constraints):
                w = w + lam_j * midpoint_gradient(g, x1, x0)
            return P @ w + E @ (0.5 * (g1 + g0))

        def derivative(zp):
            x1, lam1 = P @ zp, E.T @ zp

            def k_of(field):
                return gradients._PreparedBase(gradients._MIDPOINT, field, x0).derivative(x1)[0]

            k = k_of(H)
            for lam_j, g in zip(0.5 * (lam1 + lam0), constraints):
                k = k + lam_j * k_of(g)
            Gbar = np.array([midpoint_gradient(g, x1, x0) for g in constraints]).T
            G1 = np.array([gradients._gradient(g, x1) for g in constraints]).T
            return (P * k) @ P + 0.5 * (P @ Gbar @ E.T + E @ G1.T @ P), None

        return gradient, derivative

    return gradient_from


@pytest.mark.parametrize("problem", ["pendulum", "friction"])
def test_gonzalez_run_matches_the_per_call_midpoint_gradients_bit_for_bit(problem, monkeypatch):
    spec = make_problem(problem)

    def run():
        return integrate(spec.dae, "gonzalez", spec.default_initial_state, 0.1, 500,
                         observers=spec.observers)

    prepared = run()
    monkeypatch.setattr(integrators, "_augmented_gradient", per_call_augmented_gradient)
    per_call = run()
    assert len(prepared) == len(per_call) == 501
    assert np.array_equal(prepared.states(), per_call.states())
    for a, b in zip(prepared.records, per_call.records):
        assert (a.newton_iters, a.newton_residual) == (b.newton_iters, b.newton_residual)
        assert a.invariant_values == b.invariant_values


@pytest.mark.parametrize("problem", ["pendulum", "friction"])
def test_gonzalez_prepares_one_midpoint_base_per_field_per_step(problem, monkeypatch):
    spec = make_problem(problem)
    dae = spec.dae
    fields = (dae.hamiltonian, *dae.constraints)
    E = dae.subspaces.null_basis
    P = np.eye(dae.dim) - E @ E.T
    made, dg_calls, residuals, steps = [], [], [], []

    class CountedBase(gradients._PreparedBase):
        def __init__(self, kind, V, zp):
            made.append((kind.variant, V, np.array(zp)))
            super().__init__(kind, V, zp)

    real_advance, real_newton = integrators._advance, integrators.newton_solve
    real_dg = integrators.discrete_gradient_info

    def advance(bound, z, *args, **kwargs):
        made.clear()
        dg_calls.clear()
        residuals.clear()
        out = real_advance(bound, z, *args, **kwargs)
        steps.append((z.copy(), list(made), len(dg_calls), len(residuals)))
        return out

    def newton(residual, w0, *args, **kwargs):
        def counted(w):
            residuals.append(1)
            return residual(w)

        return real_newton(counted, w0, *args, **kwargs)

    def dg(kind, V, z, base):
        dg_calls.append(kind.variant)
        return real_dg(kind, V, z, base)

    monkeypatch.setattr(integrators, "_PreparedBase", CountedBase)
    monkeypatch.setattr(integrators, "_advance", advance)
    monkeypatch.setattr(integrators, "newton_solve", newton)
    monkeypatch.setattr(integrators, "discrete_gradient_info", dg)
    integrate(dae, "gonzalez", spec.default_initial_state, 0.1, 3)
    assert len(steps) == 3
    for z, bases, calls, residual_calls in steps:
        assert len(bases) == len(fields)
        for (variant, V, zp), field in zip(bases, fields):
            assert variant == "midpoint" and V is field and np.array_equal(zp, P @ z)
        # each residual still reads every field's midpoint gradient once
        assert residual_calls > 2 and calls == len(fields) * residual_calls
