"""Tests for system containers, properness, and structure constructions.

The recurring fixture is the three-dimensional cyclic system whose mass
matrix annihilates (1,1,1): its quadratic invariant H has gradient Kz
orthogonal to the null direction everywhere (proper), while the linear
invariant V = z1+z2+z3 points straight along it (not proper).  Adding
-1 times the constraint g = H + V repairs V exactly: V - g = -H, an
identity strong enough to serve as a properization oracle.
"""

import numpy as np
import pytest

from daegrad.errors import (
    RankDeficientConstraints,
    VanishingDissipation,
    VanishingGradient,
)
from daegrad.gradients import ScalarField, linear_field, quadratic_field
from daegrad.model import (
    ConstrainedHamiltonian,
    GeneralDAE,
    LinearGradientDAE,
    build_conservative_S,
    build_dissipative_S,
    check_proper,
    implicit_constraint_residual,
    properize,
    verify_structure,
)
from daegrad.problems import make_friction, make_problem, make_smhs

K = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])


@pytest.fixture(scope="module")
def cyclic():
    return make_smhs()


@pytest.fixture(scope="module")
def cyclic_samples(cyclic):
    return cyclic.sample_on_manifold(np.random.default_rng(8), 20)


# ------------------------------------------------------------ containers


def test_general_dae_derives_subspaces(cyclic):
    sub = cyclic.dae.subspaces
    assert sub.rank == 2
    assert sub.nullity == 1
    assert np.allclose(np.abs(sub.null_basis[:, 0]), 1.0 / np.sqrt(3.0), atol=1e-14)


def test_linear_gradient_dae_f_is_s_times_gradient():
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    V = quadratic_field(np.eye(2))
    dae = LinearGradientDAE(np.eye(2), lambda z: S, V, structure_claim="conservative")
    z = np.array([0.3, -0.4])
    assert np.allclose(dae.f(z), S @ z)
    gen = dae.as_general()
    assert isinstance(gen, GeneralDAE)
    assert np.allclose(gen.f(z), dae.f(z))


def test_structure_claim_validated():
    V = quadratic_field(np.eye(2))
    with pytest.raises(ValueError):
        LinearGradientDAE(np.eye(2), lambda z: np.eye(2), V, structure_claim="magic")


def test_constrained_hamiltonian_validates_dimensions():
    H = quadratic_field(np.eye(4))
    g = ScalarField(dim=2, value=lambda q: 0.0, gradient=lambda q: np.zeros(2))
    system = ConstrainedHamiltonian(n=2, hamiltonian=H, constraints=(g,))
    assert system.dim == 5
    with pytest.raises(ValueError):
        ConstrainedHamiltonian(n=3, hamiltonian=H, constraints=(g,))
    bad_g = ScalarField(dim=3, value=lambda q: 0.0, gradient=lambda q: np.zeros(3))
    with pytest.raises(ValueError):
        ConstrainedHamiltonian(n=2, hamiltonian=H, constraints=(bad_g,))


# ------------------------------------------------- implicit constraint


def test_implicit_constraint_residual_hand_value(cyclic):
    # at z = (1,0,0): f = (1, 0, 1), and B = 1/sqrt(3), so the residual
    # is (f1+f2+f3)/sqrt(3) = 2/sqrt(3)
    res = implicit_constraint_residual(cyclic.dae, np.array([1.0, 0.0, 0.0]))
    assert res.shape == (1,)
    assert abs(res[0]) == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-14)


def test_implicit_constraint_vanishes_on_manifold(cyclic, cyclic_samples):
    for z in cyclic_samples:
        res = implicit_constraint_residual(cyclic.dae, z)
        assert np.abs(res).max() <= 1e-10


def test_implicit_constraint_empty_for_invertible_mass():
    dae = GeneralDAE(np.eye(2), lambda z: z)
    assert implicit_constraint_residual(dae, np.ones(2)).size == 0


# ------------------------------------------------------------ properness


def test_quadratic_invariant_is_proper_everywhere(cyclic):
    H = quadratic_field(K, name="H")
    rng = np.random.default_rng(1)
    for z in rng.normal(size=(10, 3)):
        # 1^T K = 0, so the gradient never meets the null direction;
        # silence the off-manifold warning, properness is pointwise here
        with pytest.warns(UserWarning):
            result = check_proper(cyclic.dae, z, field=H)
        assert result.residual <= 1e-12 * max(1.0, np.linalg.norm(K @ z))


def test_linear_invariant_not_proper(cyclic, cyclic_samples):
    V = linear_field(np.ones(3), name="V")
    result = check_proper(cyclic.dae, cyclic_samples[0], field=V)
    assert not result.passed
    assert result.residual == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_check_proper_requires_field_for_general_dae(cyclic):
    with pytest.raises(ValueError):
        check_proper(cyclic.dae, np.zeros(3))


def test_check_proper_defaults_to_own_potential():
    spec = make_problem("sinh-gordon", grid=8)
    z = spec.default_initial_state
    assert check_proper(spec.dae, z).passed


def test_check_proper_warns_off_manifold(cyclic):
    with pytest.warns(UserWarning, match="manifold"):
        check_proper(cyclic.dae, np.array([5.0, 5.0, 5.0]), field=quadratic_field(K))


# ----------------------------------------------------------- properize


def test_properize_recovers_negated_quadratic(cyclic, cyclic_samples):
    v_tilde = linear_field(np.ones(3), name="total")
    proper = properize(v_tilde, cyclic.dae)
    H = quadratic_field(K)
    for z in cyclic_samples:
        assert proper.value(z) == pytest.approx(-H.value(z), abs=1e-10)
        assert np.allclose(proper.gradient(z), -(K @ z), atol=1e-10)
        assert check_proper(cyclic.dae, z, field=proper).passed


def test_properize_coefficient_is_minus_one_off_manifold(cyclic):
    # V - g = -H holds identically, not just on the manifold
    v_tilde = linear_field(np.ones(3))
    proper = properize(v_tilde, cyclic.dae)
    z = np.array([0.3, -1.2, 0.7])
    g_value = 0.5 * z @ K @ z + z.sum()
    assert proper.value(z) == pytest.approx(z.sum() - g_value, rel=1e-12)


def test_properize_noop_for_trivial_null_space():
    dae = GeneralDAE(np.eye(2), lambda z: z)
    v = linear_field(np.ones(2))
    assert properize(v, dae) is v


def test_properize_requires_constraints():
    dae = GeneralDAE(np.diag([1.0, 0.0]), lambda z: np.array([z[1], -z[1]]))
    with pytest.raises(RankDeficientConstraints):
        properize(linear_field(np.ones(2)), dae)


def test_properize_rejects_constraints_blind_to_null_space():
    # constraint gradient misses the null direction e2 entirely
    blind = ScalarField(dim=2, value=lambda z: z[0], gradient=lambda z: np.array([1.0, 0.0]))
    dae = GeneralDAE(np.diag([1.0, 0.0]), lambda z: np.array([z[1], -z[1]]), constraints=(blind,))
    with pytest.raises(RankDeficientConstraints):
        properize(linear_field(np.ones(2)), dae).gradient(np.ones(2))


def test_properize_rejects_nearly_dependent_constraints():
    # z2 and z2 + 1e-8 z3 span the null space of diag(1, 0, 0) only barely
    g1 = linear_field(np.array([0.0, 1.0, 0.0]))
    g2 = linear_field(np.array([0.0, 1.0, 1e-8]))
    dae = GeneralDAE(np.diag([1.0, 0.0, 0.0]), lambda z: -z, constraints=(g1, g2))
    with pytest.raises(RankDeficientConstraints, match="numerically rank deficient"):
        properize(linear_field(np.ones(3)), dae).gradient(np.ones(3))


# ---------------------------------------------------- structure verdicts


def test_verify_structure_conservative_pass():
    spec = make_problem("pendulum")
    samples = spec.sample_on_manifold(np.random.default_rng(2), 10)
    report = verify_structure(spec.dae, samples)
    assert report.passed
    assert report.claim == "conservative"
    assert report.worst_residual <= 1e-14


def test_verify_structure_dissipative_pass():
    spec = make_friction()
    samples = spec.sample_on_manifold(np.random.default_rng(3), 10)
    report = verify_structure(spec.dae, samples)
    assert report.passed
    assert report.worst_residual <= 1e-12


def test_verify_structure_detects_false_claim():
    V = quadratic_field(np.eye(2))
    dae = LinearGradientDAE(
        np.eye(2), lambda z: np.eye(2), V, structure_claim="conservative"
    )
    report = verify_structure(dae, [np.array([1.0, 0.0])])
    assert not report.passed
    assert report.worst_residual == pytest.approx(2.0)


def test_verify_structure_no_claim_is_trivially_true():
    V = quadratic_field(np.eye(2))
    dae = LinearGradientDAE(np.eye(2), lambda z: np.eye(2), V, structure_claim="none")
    assert verify_structure(dae, []).passed


# ------------------------------------------------- factored structure maps


def test_conservative_construction_on_cyclic_system(cyclic, cyclic_samples):
    H = quadratic_field(K, name="H")
    S = build_conservative_S(cyclic.dae, H)
    pinv = cyclic.dae.subspaces.pinv
    for z in cyclic_samples:
        Sz = S(z)
        assert np.allclose(Sz @ (K @ z), cyclic.dae.f(z), atol=1e-10)
        product = pinv @ Sz
        assert np.abs(product + product.T).max() <= 1e-10


def test_conservative_construction_rejects_critical_point(cyclic):
    H = quadratic_field(K)
    S = build_conservative_S(cyclic.dae, H)
    with pytest.raises(VanishingGradient):
        S(np.zeros(3))  # grad H(0) = 0


def test_dissipative_construction_on_friction_model():
    spec = make_friction()
    dae = spec.dae
    V = spec.primary_invariant
    S = build_dissipative_S(dae.as_general(), V)
    pinv = dae.subspaces.pinv
    for z in spec.sample_on_manifold(np.random.default_rng(4), 10):
        Sz = S(z)
        assert np.allclose(Sz @ V.gradient(z), dae.f(z), atol=1e-9)
        product = pinv @ Sz
        sym = 0.5 * (product + product.T)
        assert np.linalg.eigvalsh(sym).max() <= 1e-10


def test_dissipative_construction_rejects_stationary_rate():
    spec = make_friction()
    S = build_dissipative_S(spec.dae.as_general(), spec.primary_invariant)
    rest = np.array([1.0, 0.0, 0.0, 0.0, 0.0])  # zero velocity: no dissipation
    with pytest.raises(VanishingDissipation):
        S(rest)
