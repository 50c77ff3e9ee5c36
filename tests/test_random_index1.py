"""Random index-1 linear-gradient systems.

The paper's index-1 result is not about the built-in problems: for any
index-1 system ``A z' = S grad V`` with ``A^+ S`` skew on proper gradients
and a strictly convex ``V``, the interior-division step conserves ``V`` and
stays on the constraint manifold.  The family here meets those premises by
construction:

* ``A = U diag(sigma, 0) W^T`` with random orthogonal ``U``, ``W`` and
  ``sigma`` in ``[0.5, 2]``; ``B`` and ``E``, the last ``l`` columns of
  ``U`` and ``W``, span the complement of ``range(A)`` and ``null(A)``;
* ``S = A K + B E^T`` with ``K`` random skew, so that ``B^T S grad V =
  E^T grad V`` (the constraint is properness) and ``A^+ S = (I - E E^T) K``;
  for a dissipative system ``K`` is ``M - M^T - 0.3 M M^T``, whose form
  ``g^T K g = -0.3 |M^T g|^2`` is never positive;
* or the state-dependent ``S(z) = A (K + sin(a.z) K1) + B E^T`` with ``K1``
  random skew and ``a`` a random vector: the step's ``Sbar`` is ``A Kbar +
  B E^T`` with ``Kbar = K + (sin(a.z1) + sin(a.z0)) K1 / 2``, whose form is
  that of ``K``, so the premises hold for the endpoint average;
* ``V`` a convex quartic with positive curvature, or the cosh sum, so that
  ``E^T grad^2 V E`` is nonsingular and the system is index 1.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import daegrad.integrators as integrators
from daegrad import gradients
from daegrad.gradients import convex_quartic_field, cosh_sum_field
from daegrad.integrators import NewtonConfig, integrate, project_to_constraint
from daegrad.model import LinearGradientDAE

DT = 0.1
STEPS = 10
TOL = NewtonConfig().residual_tol
EPS = np.finfo(float).eps


def make_system(n, l, seed, field, claim="conservative", varying=False):
    """``(dae, z0, kbar, E)`` for the family member of size ``n``, nullity
    ``l``, random ``seed``, ``field`` ``"quartic"`` or ``"cosh"``, structure
    ``claim`` and, with ``varying``, the state-dependent ``S``, a new array
    at every call; ``kbar(z1, z0)`` is the step's ``Kbar``."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    W = np.linalg.qr(rng.normal(size=(n, n)))[0]
    r = n - l
    A = (U[:, :r] * rng.uniform(0.5, 2.0, size=r)) @ W[:, :r].T
    B, E = U[:, r:], W[:, r:]
    M = rng.normal(size=(n, n))
    K = M - M.T
    if claim == "dissipative":
        K = K - 0.3 * M @ M.T
    if field == "quartic":
        V = convex_quartic_field(rng.uniform(0.5, 2.0, size=n), name="V")
    else:
        V = cosh_sum_field(n, name="V")
    start = rng.uniform(-1.0, 1.0, size=n)
    if varying:
        M1 = rng.normal(size=(n, n))
        K1, a = M1 - M1.T, rng.normal(size=n)

        def S(z):
            return A @ (K + math.sin(a @ z) * K1) + B @ E.T

        def kbar(z1, z0):
            return K + 0.5 * (math.sin(a @ z1) + math.sin(a @ z0)) * K1
    else:
        S_constant = A @ K + B @ E.T

        def S(z):
            return S_constant

        def kbar(z1, z0):
            return K
    dae = LinearGradientDAE(A, S, V, structure_claim=claim)
    return dae, project_to_constraint(dae, start), kbar, E


@st.composite
def systems(draw, claim="conservative"):
    n = draw(st.integers(min_value=3, max_value=6))
    l = draw(st.integers(min_value=1, max_value=min(2, n - 1)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    field = draw(st.sampled_from(["quartic", "cosh"]))
    return make_system(n, l, seed, field, claim, draw(st.booleans()))


def index1_run(system):
    """``V`` along ``STEPS`` steps of ``dg-index1`` at ``DT`` and, for each
    step, the most its change may exceed ``dt <gbar, K gbar>`` by, with the
    step's ``Kbar`` as ``K``.

    With Newton residuals r1 (dynamic rows) and r2 = E^T grad V(z1)
    (constraint rows), both at most TOL in the max norm, the step's change
    of V = <gbar, z1 - z0> splits into
      dt <gbar, K gbar>           (zero for skew K, never positive for
                                  a dissipative one),
      dt <gbar, A^+ r1>           <= dt |A^+| |gbar| sqrt(n) TOL,
      -dt <E^T gbar, E^T K gbar>  <= dt |K| |gbar| sqrt(l) TOL,
      <E^T gbar, E^T (z1 - z0)>   <= |z1 - z0| sqrt(l) TOL,
    since A^+ S = (I - E E^T) K and E^T gbar is an interior division of
    endpoint residuals; |gbar| is at most the larger endpoint gradient, and
    V itself is evaluated to a few n eps |V|.  Also asserts that every
    state keeps |E^T grad V| <= 1e-11.
    """
    dae, z0, kbar, E = system
    n, l = E.shape
    states = integrate(dae, "dg-index1", z0, DT, STEPS).states()
    V = np.array([dae.V.value(z) for z in states])
    grads = np.array([gradients._gradient(dae.V, z) for z in states])
    assert np.abs(grads @ E).max() <= 1e-11
    pinv_norm = np.linalg.norm(np.linalg.pinv(dae.A), 2)
    bounds = []
    for m in range(1, len(states)):
        K_norm = np.linalg.norm(kbar(states[m], states[m - 1]), 2)
        g = max(np.linalg.norm(grads[m]), np.linalg.norm(grads[m - 1]))
        step = np.linalg.norm(states[m] - states[m - 1])
        bounds.append(TOL * (DT * pinv_norm * g * math.sqrt(n) + DT * K_norm * g * math.sqrt(l)
                             + step * math.sqrt(l))
                      + 4 * n * EPS * max(1.0, abs(V[m]), abs(V[m - 1])))
    return V, bounds


@settings(max_examples=20, deadline=None)
@given(systems())
def test_analytic_jacobian_matches_differences_on_random_index1_systems(system):
    # a state-dependent S is not constant, so its iterates take differences
    dae, z0, _, _ = system
    n = dae.dim
    varying = dae.S(z0) is not dae.S(z0)
    for scheme in ("dg-index1", "dg-proper", "dg-avf"):
        bound = integrators._bind(dae, scheme)
        residual, jacobian, _ = bound.build(z0, DT)
        assert jacobian is not None
        w = np.concatenate([z0 + 0.05 * np.cos(np.arange(n)), 0.01 * np.ones(bound.extra)])
        J = jacobian(w)
        if varying:
            assert J is None, scheme
            continue
        differences = integrators._fd_jacobian(residual, w, residual(w))
        # the derivative in w: the Schur complement of the proper gradient's
        # auxiliary unknown, the last row and column
        if J.shape[0] > w.shape[0]:
            J = J[:-1, :-1] - np.outer(J[:-1, -1], J[-1, :-1]) / J[-1, -1]
        assert np.abs(J - differences).max() <= 1e-6 * np.abs(J).max(), scheme


@settings(max_examples=20, deadline=None)
@given(systems())
def test_index1_step_conserves_and_stays_proper_on_random_systems(system):
    V, bounds = index1_run(system)
    drift = np.cumsum(bounds)
    for m in range(1, len(V)):
        assert abs(V[m] - V[0]) <= drift[m - 1], m


@settings(max_examples=20, deadline=None)
@given(systems("dissipative"))
def test_index1_step_dissipates_and_stays_proper_on_random_systems(system):
    V, bounds = index1_run(system)
    for m in range(1, len(V)):
        assert V[m] - V[m - 1] <= bounds[m - 1], m
    assert V[-1] < V[0]


def test_avf_loses_the_constraint_that_index1_keeps_on_a_dissipative_system():
    # dg-avf's algebraic rows make the averaged gradient proper, not grad V(z1)
    for varying in (False, True):
        dae, z0, _, E = make_system(4, 1, 1, "quartic", "dissipative", varying)
        largest = {}
        for scheme in ("dg-avf", "dg-index1"):
            states = integrate(dae, scheme, z0, DT, STEPS).states()
            largest[scheme] = max(np.abs(gradients._gradient(dae.V, z) @ E).max() for z in states)
        assert largest["dg-avf"] >= 1e-6 and largest["dg-index1"] <= 1e-11, varying


def test_avf_loses_the_constraint_that_index1_keeps_on_a_conservative_system():
    for varying in (False, True):
        dae, z0, _, E = make_system(4, 1, 2, "quartic", varying=varying)
        largest = {}
        for scheme in ("dg-avf", "dg-index1"):
            states = integrate(dae, scheme, z0, DT, STEPS).states()
            largest[scheme] = max(np.abs(gradients._gradient(dae.V, z) @ E).max() for z in states)
        assert largest["dg-avf"] >= 1e-3 and largest["dg-index1"] <= 1e-11, varying
