"""Built-in model problems for the experiment driver and the test suite.

Each factory returns a :class:`ProblemSpec` bundling the system, its named
invariants, a default initial state on the constraint manifold, and a
sampler that produces further on-manifold states for verification.

Problems (CLI names in parentheses):

* ``make_smhs`` ("smhs") - a three-dimensional index-1 system with a
  singular incidence-like mass matrix and three functionally dependent
  conserved quantities: a quadratic proper one, a linear non-proper one,
  and their sum, which is the constraint.
* ``make_friction`` ("friction") - the planar unit-mass pendulum with
  linear velocity friction, in augmented ``(q, v, lambda)`` form; the
  augmented energy is a proper dissipated quantity.
* ``make_constrained_hamiltonian`` ("pendulum") - the friction problem
  with zero friction, so the augmented energy is conserved;
  it also carries the ``(q, p)`` block form for the constraint-conserving
  scheme.
* ``make_mixed_derivative`` ("sinh-gordon") - periodic central
  semi-discretization of ``u_tx = sinh(u)``: forward-difference matrix on
  the left, average matrix times the gradient of a cosh sum on the right.
  Carries the energy and the sinh-sum constraint as invariants.
* ``make_linear_invariant_fixture`` ("linear-test") - a minimal index-1
  system with a linear conserved quantity whose gradient avoids the null
  space, so even implicit Euler conserves it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NewtonError
from .gradients import ScalarField, cosh_sum_field, linear_field, quadratic_field
from .integrators import NewtonConfig, newton_solve, project_to_constraint
from .model import ConstrainedHamiltonian, GeneralDAE, LinearGradientDAE

__all__ = [
    "ProblemSpec",
    "make_smhs",
    "make_friction",
    "make_mixed_derivative",
    "PROBLEM_NAMES",
    "make_problem",
]


@dataclass(frozen=True)
class ProblemSpec:
    """A packaged system plus everything the driver needs to run it."""

    name: str
    dae: GeneralDAE | LinearGradientDAE
    primary_invariant: ScalarField
    extra_invariants: tuple[ScalarField, ...]
    err_tracked: frozenset[str]
    default_initial_state: np.ndarray
    schemes: tuple[str, ...]  # the driver refuses any other; the first is its default
    index_note: str
    sample_on_manifold: Callable[[np.random.Generator, int], np.ndarray]
    notes: str = ""
    gonzalez: ConstrainedHamiltonian | None = None

    @property
    def observers(self) -> tuple[ScalarField, ...]:
        """Primary plus extra invariants."""
        return (self.primary_invariant,) + self.extra_invariants


def make_smhs(seed: int = 0) -> ProblemSpec:
    """Index-1 test system with dependent conserved quantities H, V, g = H + V."""
    A = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
    M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    K = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])

    def f(z):
        z = np.asarray(z, dtype=float)
        total = z.sum()
        w = z * (1.0 + 3.0 * z - total)
        s = (np.roll(z, -1) - z) ** 2
        return 0.5 * (M @ w - s)

    H = quadratic_field(K, name="H")
    V = linear_field(np.ones(3), name="V")
    g = quadratic_field(K, linear=np.ones(3), name="g")  # g = H + V, the constraint
    dae = GeneralDAE(A, f, constraints=(g,))

    def nonzero_state_on_ray(direction: np.ndarray) -> np.ndarray | None:
        # scalar root of g along t -> g(t * direction), skipping the origin
        def phi(t):
            return np.array([g.value(t[0] * direction)])

        cfg = NewtonConfig(residual_tol=1e-13, max_iters=60)
        for t0 in (1.0, -1.0):
            try:
                sol = newton_solve(phi, np.array([t0]), cfg)
            except NewtonError:
                continue
            t = float(sol.w[0])
            z = t * direction
            if abs(t) > 1e-3 and np.linalg.norm(f(z)) > 1e-6 and np.linalg.norm(H.gradient(z)) > 1e-6:
                return z
        return None

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        points = []
        while len(points) < count:
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            z = nonzero_state_on_ray(u)
            if z is not None:
                points.append(z)
        return np.array(points)

    z0 = sampler(np.random.default_rng(seed), 1)[0]
    return ProblemSpec(
        name="smhs",
        dae=dae,
        primary_invariant=V,
        extra_invariants=(H, g),
        err_tracked=frozenset({"H"}),
        default_initial_state=z0,
        schemes=("implicit-euler",),
        index_note="uniform index-1",
        notes="singular incidence-type mass matrix; H is proper, V and g are not",
        sample_on_manifold=sampler,
    )


def _pendulum_fields() -> tuple[ScalarField, ScalarField, ScalarField]:
    """The (H, g, V_aug) fields on the 5-dimensional (q, v, lam) state."""

    def h_value(z):
        q, v = z[:2], z[2:4]
        return 0.5 * float(v @ v) + q[1]

    def h_gradient(z):
        return np.concatenate([[0.0, 1.0], z[2:4], [0.0]])

    H = ScalarField(dim=5, value=h_value, gradient=h_gradient, hint="quadratic", name="H")

    g = ScalarField(
        dim=5,
        value=lambda z: 0.5 * (float(z[:2] @ z[:2]) - 1.0),
        gradient=lambda z: np.concatenate([z[:2], np.zeros(3)]),
        hint="quadratic",
        name="g",
    )

    def v_value(z):
        return h_value(z) + z[4] * g.value(z)

    def v_gradient(z):
        q, v, lam = z[:2], z[2:4], z[4]
        return np.concatenate([np.array([0.0, 1.0]) + lam * q, v, [g.value(z)]])

    V = ScalarField(dim=5, value=v_value, gradient=v_gradient, name="V")
    return H, g, V


def make_constrained_hamiltonian() -> ProblemSpec:
    """Planar pendulum: ``H = |p|^2 / 2 + q_2`` on the unit circle.

    The augmented ``(q, p, lambda)`` system is the friction problem with
    zero friction.  The :class:`ConstrainedHamiltonian` for
    the constraint-conserving scheme takes its fields on the ``(q, p)`` and
    ``q`` blocks, so it builds its own.
    """
    H_qp = quadratic_field(
        np.diag([0.0, 0.0, 1.0, 1.0]), linear=np.array([0.0, 1.0, 0.0, 0.0]), name="H"
    )
    g_q = ScalarField(
        dim=2,
        value=lambda q: 0.5 * (float(q @ q) - 1.0),
        gradient=lambda q: np.asarray(q, dtype=float).copy(),
        hint="quadratic",
        name="g",
    )
    return replace(
        make_friction(friction=(0.0, 0.0)),
        name="pendulum",
        schemes=("gonzalez", "dg-midpoint", "implicit-euler"),
        index_note="index 3 (holonomic constraint)",
        notes="",
        gonzalez=ConstrainedHamiltonian(n=2, hamiltonian=H_qp, constraints=(g_q,)),
    )


def make_friction(friction=(0.1, 0.1)) -> ProblemSpec:
    """Unit-mass pendulum with linear velocity friction; dissipates the augmented energy.

    ``friction`` holds the two nonnegative drag coefficients.  All-zero
    friction conserves the energy instead, and the structure claim says so.
    """
    fdiag = np.asarray(friction, dtype=float)
    if fdiag.shape != (2,):
        raise ValueError(f"friction must be two coefficients, got shape {fdiag.shape}")
    if np.any(fdiag < 0):
        raise ValueError("friction coefficients must be nonnegative")
    F = np.diag(fdiag)

    H, g, V = _pendulum_fields()
    S0 = np.zeros((5, 5))
    S0[0:2, 2:4] = np.eye(2)
    S0[2:4, 0:2] = -np.eye(2)
    S0[2:4, 2:4] = -F
    S0[4, 4] = 1.0
    A = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
    claim = "dissipative" if np.any(fdiag) else "conservative"
    dae = LinearGradientDAE(A, lambda z: S0, V, constraints=(g,), structure_claim=claim)

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty((count, 5))
        for i in range(count):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            speed = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
            q = np.array([math.cos(phi), math.sin(phi)])
            v = speed * np.array([-math.sin(phi), math.cos(phi)])
            grad_u = np.array([0.0, 1.0])
            lam = (float(v @ v) - float(q @ (grad_u + F @ v))) / float(q @ q)
            out[i] = np.concatenate([q, v, [lam]])
        return out

    return ProblemSpec(
        name="friction",
        dae=dae,
        primary_invariant=V,
        extra_invariants=(H, g),
        err_tracked=frozenset({"H"}),
        default_initial_state=np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
        schemes=("dg-midpoint", "implicit-euler"),  # the others ignore the index-3 constraint
        index_note="index 3 (holonomic constraint with friction)",
        notes="nonzero velocity needed for a strict dissipation rate",
        sample_on_manifold=sampler,
    )


def make_mixed_derivative(grid: int = 32, length: float = 2.0 * math.pi, amplitude: float = 0.5) -> ProblemSpec:
    """Periodic semi-discretization of ``u_tx = sinh(u)`` on ``grid`` points.

    The mass matrix is the forward-difference circulant (null space: the
    constant vector), the structure matrix is the constant average
    circulant, and the potential is the cosh sum.  The implied constraint
    is the vanishing sinh sum, exposed as the invariant ``F``.
    """
    I = int(grid)
    if I < 3:
        raise ValueError(f"grid must have at least 3 points, got {I}")
    dx = length / I
    shift = np.roll(np.eye(I), 1, axis=1)  # maps u_i -> u_{i+1}, periodic
    D = (shift - np.eye(I)) / dx
    Mavg = 0.5 * (shift + np.eye(I))

    H = cosh_sum_field(I, name="H")
    F = ScalarField(
        dim=I,
        value=lambda u: float(np.sum(np.sinh(u))),
        gradient=lambda u: np.cosh(u),
        hint="general",
        name="F",
    )
    dae = LinearGradientDAE(
        D, lambda u: Mavg, H, constraints=(F,), structure_claim="conservative"
    )

    u0 = np.zeros(I)
    for i in range(1, (I + 1) // 2):
        value = amplitude * math.sin(2.0 * math.pi * i / I)
        u0[i] = value
        u0[I - i] = -value  # mirror so the sinh sum cancels pairwise
    u0 = project_to_constraint(dae, u0)

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty((count, I))
        for i in range(count):
            out[i] = project_to_constraint(dae, rng.uniform(-0.8, 0.8, size=I))
        return out

    return ProblemSpec(
        name="sinh-gordon",
        dae=dae,
        primary_invariant=H,
        extra_invariants=(F,),
        err_tracked=frozenset(),
        default_initial_state=u0,
        # dg-midpoint fails within 15 steps at any dt from 0.1 down to 0.001
        schemes=("dg-index1", "dg-proper", "dg-avf", "implicit-euler"),
        index_note="uniform index-1",
        notes="forward differences with periodic wrap",
        sample_on_manifold=sampler,
    )


def make_linear_invariant_fixture() -> ProblemSpec:
    """Minimal index-1 system whose linear invariant survives implicit Euler.

    ``y1 + y2`` is conserved because its gradient lies in the row space of
    the (diagonal, singular) mass matrix; the third equation is the
    algebraic constraint ``y3 = y1 y2``.
    """
    A = np.diag([1.0, 1.0, 0.0])

    def f(y):
        y = np.asarray(y, dtype=float)
        return np.array([y[2], -y[2], y[2] - y[0] * y[1]])

    V = linear_field(np.array([1.0, 1.0, 0.0]), name="V")
    g = ScalarField(
        dim=3,
        value=lambda y: float(y[2] - y[0] * y[1]),
        gradient=lambda y: np.array([-y[1], -y[0], 1.0]),
        name="g",
    )
    dae = GeneralDAE(A, f, constraints=(g,))

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty((count, 3))
        for i in range(count):
            y12 = rng.uniform(-1.0, 1.0, size=2)
            out[i] = np.array([y12[0], y12[1], y12[0] * y12[1]])
        return out

    return ProblemSpec(
        name="linear-test",
        dae=dae,
        primary_invariant=V,
        extra_invariants=(g,),
        err_tracked=frozenset(),
        default_initial_state=np.array([0.4, -0.3, -0.12]),
        schemes=("implicit-euler",),
        index_note="uniform index-1",
        notes="gradient of the invariant lies in the row space of A",
        sample_on_manifold=sampler,
    )


PROBLEM_NAMES = ("smhs", "pendulum", "friction", "sinh-gordon", "linear-test")


def make_problem(name: str, grid: int | None = None, seed: int = 0) -> ProblemSpec:
    """Build a problem by CLI name; ``grid`` only applies to sinh-gordon."""
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; available: {', '.join(PROBLEM_NAMES)}")
    if grid is not None and name != "sinh-gordon":
        raise ValueError(f"problem {name!r} does not take a grid size")
    if name == "smhs":
        return make_smhs(seed=seed)
    if name == "pendulum":
        return make_constrained_hamiltonian()
    if name == "friction":
        return make_friction()
    if name == "sinh-gordon":
        return make_mixed_derivative(grid=grid if grid is not None else 32)
    return make_linear_invariant_fixture()
