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


@st.composite
def systems(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    l = draw(st.integers(min_value=1, max_value=min(2, n - 1)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    W = np.linalg.qr(rng.normal(size=(n, n)))[0]
    r = n - l
    A = (U[:, :r] * rng.uniform(0.5, 2.0, size=r)) @ W[:, :r].T
    B, E = U[:, r:], W[:, r:]
    M = rng.normal(size=(n, n))
    K = M - M.T
    S = A @ K + B @ E.T
    if draw(st.sampled_from(["quartic", "cosh"])) == "quartic":
        V = convex_quartic_field(rng.uniform(0.5, 2.0, size=n), name="V")
    else:
        V = cosh_sum_field(n, name="V")
    dae = LinearGradientDAE(A, lambda z: S, V, structure_claim="conservative")
    z0 = project_to_constraint(dae, rng.uniform(-1.0, 1.0, size=n))
    return dae, z0, K, E


@settings(max_examples=20, deadline=None)
@given(systems())
def test_analytic_jacobian_matches_differences_on_random_index1_systems(system):
    dae, z0, _, _ = system
    n = dae.dim
    for scheme in ("dg-index1", "dg-proper", "dg-avf"):
        bound = integrators._bind(dae, scheme)
        residual, jacobian, _ = bound.build(z0, DT)
        assert jacobian is not None
        w = np.concatenate([z0 + 0.05 * np.cos(np.arange(n)), 0.01 * np.ones(bound.extra)])
        J = jacobian(w)
        differences = integrators._fd_jacobian(residual, w, residual(w))
        assert np.abs(J - differences).max() <= 1e-6 * np.abs(J).max(), scheme


@settings(max_examples=20, deadline=None)
@given(systems())
def test_index1_step_conserves_and_stays_proper_on_random_systems(system):
    # With Newton residuals r1 (dynamic rows) and r2 = E^T grad V(z1)
    # (constraint rows), both at most TOL in the max norm, the step's
    # change of V = <gbar, z1 - z0> splits into
    #   dt <gbar, A^+ r1>                       <= dt |A^+| |gbar| sqrt(n) TOL,
    #   -dt <E^T gbar, E^T K gbar>              <= dt |K| |gbar| sqrt(l) TOL,
    #   <E^T gbar, E^T (z1 - z0)>               <= |z1 - z0| sqrt(l) TOL,
    # since <gbar, A^+ S gbar> = <gbar, (I - E E^T) K gbar> and E^T gbar is an
    # interior division of endpoint residuals; |gbar| is at most the larger
    # endpoint gradient, and V itself is evaluated to a few n eps |V|.
    dae, z0, K, E = system
    n, l = E.shape
    traj = integrate(dae, "dg-index1", z0, DT, STEPS)
    states = traj.states()
    V = np.array([dae.V.value(z) for z in states])
    grads = np.array([gradients._gradient(dae.V, z) for z in states])
    assert np.abs(grads @ E).max() <= 1e-11
    pinv_norm = np.linalg.norm(np.linalg.pinv(dae.A), 2)
    K_norm = np.linalg.norm(K, 2)
    drift = 0.0
    for m in range(1, len(states)):
        g = max(np.linalg.norm(grads[m]), np.linalg.norm(grads[m - 1]))
        step = np.linalg.norm(states[m] - states[m - 1])
        drift += (TOL * (DT * pinv_norm * g * math.sqrt(n) + DT * K_norm * g * math.sqrt(l)
                         + step * math.sqrt(l))
                  + 4 * n * EPS * max(1.0, abs(V[m]), abs(V[m - 1])))
        assert abs(V[m] - V[0]) <= drift, m
