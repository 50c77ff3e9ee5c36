"""Tests for the built-in model catalogue.

Hand-computed values used below:

* cyclic reaction system at z = (1, 0, 0): the rate vector is
  w = (3, 0, 0), the shifted-difference square is s = (1, 0, 1), so
  f = (M w - s)/2 = (1, 0, 1).
* forward-difference circulant on 4 points of a length-1 ring has
  dx = 1/4, so D [1,2,3,4] = (4, 4, 4, -12).
"""

import numpy as np
import pytest

from daegrad.integrators import SCHEMES, integrate
from daegrad.model import implicit_constraint_residual, verify_structure
from daegrad.problems import (
    PROBLEM_NAMES,
    make_friction,
    make_mixed_derivative,
    make_problem,
    make_smhs,
)

CATALOGUE = sorted(PROBLEM_NAMES)


def _make(name):
    return make_problem(name, grid=12) if name == "sinh-gordon" else make_problem(name)


# ----------------------------------------------------------- catalogue-wide


@pytest.mark.parametrize("name", CATALOGUE)
def test_default_state_is_consistent(name):
    spec = _make(name)
    res = implicit_constraint_residual(spec.dae, spec.default_initial_state)
    assert res.size == spec.dae.subspaces.nullity
    if res.size:
        assert np.abs(res).max() <= 1e-9
    for g in spec.dae.constraints:
        assert abs(g.value(spec.default_initial_state)) <= 1e-9


@pytest.mark.parametrize("name", CATALOGUE)
def test_sampler_lands_on_manifold(name):
    spec = _make(name)
    states = spec.sample_on_manifold(np.random.default_rng(5), 8)
    assert states.shape == (8, spec.dae.dim)
    for z in states:
        res = implicit_constraint_residual(spec.dae, z)
        if res.size:
            assert np.abs(res).max() <= 1e-9
    # distinct draws, not one point repeated
    assert np.linalg.norm(states[0] - states[1]) > 1e-6


@pytest.mark.parametrize("name", CATALOGUE)
def test_observers_unique_and_named(name):
    spec = _make(name)
    names = [obs.name for obs in spec.observers]
    assert names[0] == spec.primary_invariant.name
    assert len(names) == len(set(names))
    assert all(names)
    assert spec.err_tracked <= set(names)


@pytest.mark.parametrize("name", CATALOGUE)
def test_declared_schemes_match_their_targets(name):
    # the driver refuses undeclared schemes, and every declared one binds to
    # the problem's system and takes a step
    spec = _make(name)
    assert set(spec.schemes) <= set(SCHEMES)
    assert len(set(spec.schemes)) == len(spec.schemes)
    assert ("gonzalez" in spec.schemes) == (spec.gonzalez is not None)
    for scheme in spec.schemes:
        target = spec.gonzalez if scheme == "gonzalez" else spec.dae
        assert len(integrate(target, scheme, spec.default_initial_state, 0.1, 1)) == 2


# ------------------------------------------------------------------ cyclic


def test_smhs_mass_matrix_and_rhs_values():
    spec = make_smhs()
    expected_A = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
    assert np.array_equal(spec.dae.A, expected_A)
    assert np.allclose(spec.dae.f(np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 1.0], atol=1e-14)


def test_smhs_constraint_is_energy_plus_total(cyclic_samples=None):
    spec = make_smhs()
    (g,) = spec.dae.constraints
    H, = [o for o in spec.observers if o.name == "H"]
    rng = np.random.default_rng(3)
    for z in rng.normal(size=(6, 3)):
        assert g.value(z) == pytest.approx(H.value(z) + z.sum(), rel=1e-12)
        assert np.allclose(g.gradient(z), H.gradient(z) + 1.0, atol=1e-12)


def test_smhs_default_state_is_nontrivial():
    spec = make_smhs()
    z0 = spec.default_initial_state
    assert np.linalg.norm(z0) > 1e-3
    assert np.linalg.norm(spec.dae.f(z0)) > 1e-6
    other = make_smhs(seed=4).default_initial_state
    assert np.linalg.norm(other - z0) > 1e-6


def test_smhs_factored_form_supports_energy_conservation():
    # wrap the reconstructed structure matrix into a gradient system and
    # check one discrete-gradient step holds H fixed
    from daegrad.gradients import quadratic_field
    from daegrad.integrators import NewtonConfig, step
    from daegrad.model import LinearGradientDAE, build_conservative_S

    spec = make_smhs()
    K = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    H = quadratic_field(K, name="H")
    S = build_conservative_S(spec.dae, H)
    factored = LinearGradientDAE(spec.dae.A, S, H, structure_claim="conservative")
    z0 = spec.default_initial_state
    out = step(factored, "dg-midpoint", z0, 0.05, NewtonConfig(residual_tol=1e-13))
    assert H.value(out.state) == pytest.approx(H.value(z0), abs=1e-11)


# ---------------------------------------------------------------- pendulum


def test_pendulum_sampler_satisfies_hidden_constraints():
    spec = make_problem("pendulum")
    for z in spec.sample_on_manifold(np.random.default_rng(7), 10):
        q, p = z[:2], z[2:4]
        assert q @ q == pytest.approx(1.0, abs=1e-12)
        assert abs(q @ p) <= 1e-12
        # velocity-level consistency: d/dt (q . p) = 0 under the flow
        zdot = spec.dae.f(z)
        assert abs(q @ zdot[2:4] + p @ zdot[:2]) <= 1e-10


def test_pendulum_carries_constrained_canonical_form():
    spec = make_problem("pendulum")
    assert spec.gonzalez is not None
    assert spec.gonzalez.n == 2
    assert spec.gonzalez.dim == spec.dae.dim
    q = np.array([0.6, -0.8])
    assert spec.gonzalez.constraint_values(q) == pytest.approx([0.0], abs=1e-12)


def test_pendulum_is_frictionless_friction():
    pendulum = make_problem("pendulum")
    frictionless = make_friction(friction=np.zeros(2))
    assert frictionless.dae.structure_claim == "conservative"
    assert np.array_equal(pendulum.dae.A, frictionless.dae.A)
    for z in pendulum.sample_on_manifold(np.random.default_rng(11), 10):
        assert np.array_equal(pendulum.dae.S(z), frictionless.dae.S(z))
        for a, b in zip(pendulum.observers, frictionless.observers):
            assert a.name == b.name
            assert a.value(z) == b.value(z)


# ---------------------------------------------------------------- friction


def test_friction_energy_rate_is_quadratic_drag():
    F = np.diag([0.3, 0.05])
    spec = make_friction(friction=np.diag(F))
    V = spec.primary_invariant
    for z in spec.sample_on_manifold(np.random.default_rng(9), 10):
        v = z[2:4]
        zdot = spec.dae.f(z)  # unit mass: the (q, v) rows of A are the identity
        rate = V.gradient(z)[:4] @ zdot[:4]
        assert rate == pytest.approx(-(v @ F @ v), abs=1e-10)
        assert rate <= 1e-12


def test_friction_structure_report_is_dissipative():
    spec = make_friction()
    report = verify_structure(spec.dae, spec.sample_on_manifold(np.random.default_rng(2), 6))
    assert report.claim == "dissipative"
    assert report.passed


def test_friction_parameter_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        make_friction(friction=[-0.1, 0.1])  # negative drag
    for wrong_shape in ([0.1, 0.1, 0.1], np.diag([0.1, 0.1])):
        with pytest.raises(ValueError, match="two coefficients"):
            make_friction(friction=wrong_shape)


# ------------------------------------------------------------- lattice PDE


def test_lattice_operators_frozen_values():
    spec = make_mixed_derivative(grid=4, length=1.0)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    D = spec.dae.A
    assert np.allclose(D @ u, [4.0, 4.0, 4.0, -12.0], atol=1e-13)
    Mavg = spec.dae.S(u)
    assert np.allclose(Mavg @ u, [1.5, 2.5, 3.5, 2.5], atol=1e-13)


def test_lattice_operator_identities():
    spec = make_mixed_derivative(grid=9)
    ones = np.ones(9)
    D = spec.dae.A
    Mavg = spec.dae.S(ones)
    assert np.abs(D @ ones).max() <= 1e-13  # constants are invisible
    assert np.abs(ones @ D).max() <= 1e-13  # and are not produced
    assert np.allclose(ones @ Mavg, ones, atol=1e-13)
    assert spec.dae.subspaces.nullity == 1


def test_lattice_initial_profile_antisymmetric_and_consistent():
    spec = make_mixed_derivative(grid=16, amplitude=0.5)
    u0 = spec.default_initial_state
    assert u0[0] == 0.0
    assert np.allclose(u0[1:], -u0[1:][::-1], atol=1e-13)
    assert abs(np.sum(np.sinh(u0))) <= 1e-12
    # the i = 4 node sits at the sine crest, so the peak is the amplitude
    assert np.abs(u0).max() == pytest.approx(0.5, abs=1e-12)

    smaller = make_mixed_derivative(grid=16, amplitude=0.25).default_initial_state
    assert np.abs(smaller).max() == pytest.approx(np.abs(u0).max() / 2.0, abs=1e-12)


def test_lattice_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        make_mixed_derivative(grid=2)


# ------------------------------------------------------------ linear fixture


def test_linear_fixture_conserves_component_sum():
    spec = make_problem("linear-test")
    rng = np.random.default_rng(6)
    for z in rng.normal(size=(8, 3)):
        f = spec.dae.f(z)
        assert f[0] + f[1] == pytest.approx(0.0, abs=1e-14)


# ------------------------------------------------------------- entry point


def test_make_problem_rejects_unknown_names_and_stray_grid():
    with pytest.raises(ValueError, match="unknown problem"):
        make_problem("driven-cavity")
    with pytest.raises(ValueError, match="grid"):
        make_problem("smhs", grid=16)
    assert make_problem("sinh-gordon", grid=8).dae.dim == 8
