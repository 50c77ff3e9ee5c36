"""One-step integrators for linear-gradient DAE systems.

Every scheme solves one residual per step with a damped Newton iteration
on a forward-difference Jacobian.  The schemes, by name:

* ``implicit-euler`` - ``A (z1 - z0) = dt f(z1)``; conserves any linear
  invariant whose gradient avoids the null space of ``A``.
* ``dg-avf``, ``dg-midpoint``, ``dg-proper`` - the discrete-gradient
  scheme ``A (z1 - z0) = dt Sbar gbar(z1, z0)`` with the named discrete
  gradient and ``Sbar`` the endpoint average of ``S``.
* ``dg-index1`` - the interior-division scheme for index-1 systems,
  augmented with a redundant null-space force ``B c`` and the explicit
  constraint block ``B^T S(z1) grad V(z1) = 0``, which lands every step
  on the constraint manifold while conserving ``V``.
* ``gonzalez`` - discrete-gradient scheme for canonical systems with
  holonomic constraints, enforcing ``g(q1) + g(q0) = 0``.

``step`` takes one step of any of them, starting Newton at the current
state.  ``integrate`` drives a run, records per-step diagnostics, and
returns the partial trajectory inside a :class:`StepFailure` if a step
fails mid-run.  From its second step on, ``integrate`` starts Newton at
the line ``2 z_m - z_{m-1}`` through the last two states, and solves
again from ``z_m`` if that start fails.  A plain discrete-gradient scheme
on a singular ``A`` leaves the null-space components to the algebraic
rows; it gets the line start only on a system that is index 1 at ``z0``
(the algebraic rows fix those components there), and otherwise keeps
starting at ``z_m``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DaegradError,
    FallbackCompromisedConservation,
    NewtonError,
    NoConvergence,
    SingularJacobian,
    StepFailure,
    UnderdeterminedSystem,
)
from .gradients import (
    DiscreteGradientKind,
    ScalarField,
    discrete_gradient_info,
    midpoint_gradient,
)
from . import model
from .model import ConstrainedHamiltonian, GeneralDAE, LinearGradientDAE

__all__ = [
    "NewtonConfig",
    "NewtonResult",
    "newton_solve",
    "StepResult",
    "step",
    "project_to_constraint",
    "StepRecord",
    "Trajectory",
    "integrate",
    "SCHEMES",
]

SCHEMES = (
    "implicit-euler",
    "dg-avf",
    "dg-midpoint",
    "dg-proper",
    "dg-index1",
    "gonzalez",
)

_MAX_HALVINGS = 20
_STEP_TOL = 1e-14


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping rules for the Newton iteration."""

    residual_tol: float = 1e-12
    max_iters: int = 50

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


class NewtonResult(NamedTuple):
    w: np.ndarray
    iters: int
    residual_norm: float


def _fd_jacobian(residual, w, r0):
    """Forward-difference Jacobian at ``w``, ``r0 = residual(w)``, with the
    step ``sqrt(eps) (1 + max |w|)`` in every coordinate."""
    h = np.sqrt(np.finfo(float).eps) * (1.0 + float(np.max(np.abs(w))))
    J = np.empty((r0.shape[0], w.shape[0]))
    for j in range(w.shape[0]):
        wj = w.copy()
        wj[j] += h
        J[:, j] = (np.asarray(residual(wj), dtype=float) - r0) / h
    return J


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    w0,
    cfg: NewtonConfig = NewtonConfig(),
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
) -> NewtonResult:
    """Damped Newton iteration on ``residual(w) = 0``.

    Each iteration solves with ``jacobian(w)`` when the caller passes one,
    and otherwise with a forward-difference Jacobian that costs ``len(w)``
    residual calls.  Success means ``||residual||_inf <= cfg.residual_tol``.
    Full steps that increase the residual norm are halved up to 20 times;
    if no halving helps, or ``max_iters`` is exhausted, or the step stagnates
    below a relative ``1e-14`` without meeting the tolerance, raises
    :class:`NoConvergence`.  A Jacobian that cannot be solved raises
    :class:`SingularJacobian`.
    """
    w = np.asarray(w0, dtype=float).copy()
    r = np.asarray(residual(w), dtype=float)
    rnorm = float(np.max(np.abs(r))) if r.size else 0.0
    if rnorm <= cfg.residual_tol:
        return NewtonResult(w, 0, rnorm)
    for it in range(1, cfg.max_iters + 1):
        if jacobian is not None:
            J = np.asarray(jacobian(w), dtype=float)
        else:
            J = _fd_jacobian(residual, w, r)
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"iteration {it}: {exc}") from exc
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            w_new = w + scale * delta
            r_new = np.asarray(residual(w_new), dtype=float)
            rnorm_new = float(np.max(np.abs(r_new)))
            if rnorm_new <= cfg.residual_tol or rnorm_new < rnorm:
                break
            scale *= 0.5
        else:
            raise NoConvergence(it, rnorm, "damping failed to reduce the residual")
        step_size = scale * float(np.max(np.abs(delta)))
        w, r, rnorm = w_new, r_new, rnorm_new
        if rnorm <= cfg.residual_tol:
            return NewtonResult(w, it, rnorm)
        if step_size <= _STEP_TOL * (1.0 + float(np.max(np.abs(w)))):
            raise NoConvergence(it, rnorm, "step stagnated")
    raise NoConvergence(cfg.max_iters, rnorm)


class StepResult(NamedTuple):
    """New state plus solver diagnostics; ``c`` is empty unless the scheme
    carries a redundant null-space force."""

    state: np.ndarray
    c: np.ndarray
    newton_iters: int
    newton_residual: float
    fallback_used: bool


class _Scheme(NamedTuple):
    """A scheme bound to its target system.

    ``build(z0, dt)`` returns the Newton residual of one step from ``z0``.
    The unknown is the new state followed by ``extra`` auxiliary
    components.  ``kind`` and ``V`` name the interior-division gradient
    whose midpoint fallback is reported (``kind`` is None for gradients
    that cannot fall back); ``free_null_space`` marks a scheme that leaves
    the null-space components of a singular mass matrix to the system's
    algebraic rows, so that a singular Newton Jacobian is reported as
    :class:`UnderdeterminedSystem`.
    """

    build: Callable
    extra: int = 0
    kind: DiscreteGradientKind | None = None
    V: ScalarField | None = None
    free_null_space: bool = False


def _implicit_euler(dae) -> _Scheme:
    """``A (z1 - z0) / dt = f(z1)``.

    For uniform index-1 systems the result satisfies the implicit
    constraint to solver tolerance, because the constraint equations are a
    fixed linear combination of the residual rows.
    """
    if isinstance(dae, LinearGradientDAE):
        dae = dae.as_general()
    if not isinstance(dae, GeneralDAE):
        raise ValueError("scheme 'implicit-euler' needs a system A z' = f(z)")
    A = dae.A

    def build(z, dt):
        def residual(zp):
            return A @ (zp - z) / dt - np.asarray(dae.f(zp), dtype=float)

        return residual

    return _Scheme(build)


def _discrete_gradient(dae, scheme: str) -> _Scheme:
    """``A (z1 - z0) / dt = Sbar gbar(z1, z0)``, ``Sbar = (S(z1) + S(z0)) / 2``.

    ``dg-index1`` uses the interior-division gradient and solves, for
    ``(z1, c)`` with ``c`` of length ``nullity(A)``,

        A (z1 - z0) / dt = Sbar gbar_P(z1, z0) + B c ,
        B^T S(z1) grad V(z1) = 0 ,

    where ``B`` spans the orthogonal complement of ``range(A)``.  The extra
    block lands every step exactly on the constraint manifold; the
    redundant force ``c`` is zero in exact arithmetic, and its computed
    size is a solver diagnostic.
    """
    if not isinstance(dae, LinearGradientDAE):
        raise ValueError(f"scheme {scheme!r} needs a linear-gradient system")
    index1 = scheme == "dg-index1"
    kind = DiscreteGradientKind("proper" if index1 else scheme.removeprefix("dg-"))
    A, V, d = dae.A, dae.V, dae.dim
    B = dae.subspaces.range_perp_basis

    def build(z, dt):
        S0 = dae.S(z)

        def residual(w):
            zp = w[:d]
            gbar, _ = discrete_gradient_info(kind, V, zp, z)
            S1 = dae.S(zp)
            # a constant S comes back as the same object: Sbar = S, one product
            Sg = S1 @ gbar if S1 is S0 else 0.5 * (S1 @ gbar + S0 @ gbar)
            dyn = A @ (zp - z) / dt - Sg
            if not index1:
                return dyn
            constraint = B.T @ (S1 @ np.asarray(V.gradient(zp), dtype=float))
            return np.concatenate([dyn - B @ w[d:], constraint])

        return residual

    if index1:
        return _Scheme(build, B.shape[1], kind, V)
    fallback_kind = kind if kind.variant == "proper" else None
    return _Scheme(build, 0, fallback_kind, V, free_null_space=dae.subspaces.nullity > 0)


def _gonzalez(system) -> _Scheme:
    """Discrete-gradient step for a constrained canonical system.

    With state ``(q, p, lam)`` and the midpoint discrete gradient
    ``(gbar_q, gbar_p)`` of the Hamiltonian over the ``(q, p)`` pair,
    solves

        (q1 - q0) / dt = gbar_p ,
        (p1 - p0) / dt = -gbar_q - Jbar_g^T (lam1 + lam0) / 2 ,
        g(q1) + g(q0) = 0 ,

    where row ``j`` of ``Jbar_g`` is the midpoint discrete gradient of the
    ``j``-th constraint over ``(q1, q0)``.  Conserves the Hamiltonian and
    flips the sign of any initial constraint violation (so consistent
    initial data stays on the constraint manifold).
    """
    if not isinstance(system, ConstrainedHamiltonian):
        raise ValueError("scheme 'gonzalez' needs a constrained canonical system")
    n, H = system.n, system.hamiltonian

    def build(z, dt):
        q0, p0, lam0 = z[:n], z[n : 2 * n], z[2 * n :]
        g0 = system.constraint_values(q0)

        def residual(w):
            q1, p1, lam1 = w[:n], w[n : 2 * n], w[2 * n :]
            gbar = midpoint_gradient(H, np.concatenate([q1, p1]), np.concatenate([q0, p0]))
            lam_mid = 0.5 * (lam1 + lam0)
            force = np.zeros(n)
            for j, g in enumerate(system.constraints):
                force += lam_mid[j] * midpoint_gradient(g, q1, q0)
            return np.concatenate(
                [
                    (q1 - q0) / dt - gbar[n:],
                    (p1 - p0) / dt + gbar[:n] + force,
                    0.5 * (system.constraint_values(q1) + g0),
                ]
            )

        return residual

    return _Scheme(build)


def _bind(target, scheme: str) -> _Scheme:
    if scheme == "implicit-euler":
        return _implicit_euler(target)
    if scheme in ("dg-avf", "dg-midpoint", "dg-proper", "dg-index1"):
        return _discrete_gradient(target, scheme)
    if scheme == "gonzalez":
        return _gonzalez(target)
    raise ValueError(f"unknown scheme {scheme!r}; available: {', '.join(SCHEMES)}")


def _advance(bound: _Scheme, z, dt: float, cfg: NewtonConfig, guess=None) -> StepResult:
    """One step from ``z``; Newton starts at ``guess`` when given, and
    again at ``z`` if that solve fails."""
    z = np.asarray(z, dtype=float)
    residual = bound.build(z, dt)
    extra = np.zeros(bound.extra)
    sol = None
    if guess is not None:
        try:
            sol = newton_solve(residual, np.concatenate([guess, extra]), cfg)
        except NewtonError:
            pass
    if sol is None:
        try:
            sol = newton_solve(residual, np.concatenate([z, extra]), cfg)
        except SingularJacobian as exc:
            if bound.free_null_space:
                raise UnderdeterminedSystem(
                    "singular Jacobian with singular mass matrix: the scheme does not "
                    "determine the null-space components; use the index-1 scheme"
                ) from exc
            raise
    d = z.shape[0]
    z_new, c = sol.w[:d], sol.w[d:]
    fallback = False
    if bound.kind is not None:
        _, fallback = discrete_gradient_info(bound.kind, bound.V, z_new, z)
    if fallback:
        warnings.warn(
            "interior-division gradient fell back to the midpoint form; "
            "exact conservation is compromised for this step",
            FallbackCompromisedConservation,
            stacklevel=3,
        )
    return StepResult(z_new, c, sol.iters, sol.residual_norm, fallback)


def step(target, scheme: str, z, dt: float, cfg: NewtonConfig = NewtonConfig()) -> StepResult:
    """Advance ``target`` by one step of ``scheme`` (one of :data:`SCHEMES`).

    ``target`` is matched to the scheme as in :func:`integrate`; a
    mismatch or an unknown name raises ``ValueError``.  The Newton guess
    is ``z`` (with zero redundant force).  A plain discrete-gradient step
    on a system with singular ``A`` whose Newton Jacobian comes out
    singular raises :class:`UnderdeterminedSystem`.  A midpoint fallback
    inside the final gradient evaluation is reported via the result flag
    and a :class:`FallbackCompromisedConservation` warning.
    """
    return _advance(_bind(target, scheme), z, dt, cfg)


def project_to_constraint(dae, z0, cfg: NewtonConfig = NewtonConfig()) -> np.ndarray:
    """Correct a state onto the implicit-constraint manifold.

    The correction is restricted to the null-space directions of the mass
    matrix (``z0 + E s`` with ``E`` the orthonormal null basis), which
    leaves the determined components of the state untouched; the shift
    ``s`` solves ``B^T f(z0 + E s) = 0`` by Newton iteration.  States
    already on the manifold come back unchanged.
    """
    z0 = np.asarray(z0, dtype=float)
    E = dae.subspaces.null_basis
    if E.shape[1] == 0:
        return z0.copy()
    sol = newton_solve(_null_space_slice(dae, z0), np.zeros(E.shape[1]), cfg)
    return z0 + E @ sol.w


def _null_space_slice(dae, z):
    """``s -> B^T f(z + E s)``: the implicit-constraint residual of ``dae``
    along the columns of its null basis ``E``, through ``z``."""
    E = dae.subspaces.null_basis
    return lambda s: model.implicit_constraint_residual(dae, z + E @ s)


def _fixes_null_space(dae, z) -> bool:
    """Do the algebraic rows of ``dae`` fix its null-space components at ``z``?

    Forms the ``l x l`` matrix ``W = B^T (df/dz) E`` by forward differences
    of :func:`_null_space_slice`, and answers whether it has full rank,
    which makes the system index 1 at ``z``.  A non-finite ``W`` answers
    no.
    """
    along_null_space = _null_space_slice(dae, z)
    s = np.zeros(dae.subspaces.nullity)
    W = _fd_jacobian(along_null_space, s, along_null_space(s))
    return bool(np.all(np.isfinite(W)) and np.linalg.matrix_rank(W) == s.shape[0])


@dataclass(frozen=True)
class StepRecord:
    """State and diagnostics after one accepted step (or the initial state)."""

    step_index: int
    time: float
    state: np.ndarray
    invariant_values: dict[str, float]
    constraint_residual_norm: float
    redundant_c_norm: float
    newton_iters: int
    newton_residual: float
    fallback_used: bool


@dataclass
class Trajectory:
    """Sequence of step records produced by :func:`integrate`."""

    records: list[StepRecord] = dc_field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final_state(self) -> np.ndarray:
        return self.records[-1].state

    def states(self) -> np.ndarray:
        return np.array([r.state for r in self.records])

    def invariant_series(self, name: str) -> np.ndarray:
        return np.array([r.invariant_values[name] for r in self.records])


def _constraint_norm(target, z: np.ndarray) -> float:
    if isinstance(target, ConstrainedHamiltonian):
        return float(np.linalg.norm(target.constraint_values(z[: target.n])))
    res = model.implicit_constraint_residual(target, z)
    return float(np.linalg.norm(res)) if res.size else 0.0


def integrate(
    target,
    scheme: str,
    z0,
    dt: float,
    steps: int,
    observers: Sequence[ScalarField] = (),
    cfg: NewtonConfig = NewtonConfig(),
) -> Trajectory:
    """Advance ``target`` by ``steps`` steps of size ``dt``.

    ``target`` is a :class:`GeneralDAE`, :class:`LinearGradientDAE` or
    :class:`ConstrainedHamiltonian`, matched to the scheme.  Observers are
    named scalar fields whose values are recorded at every state.  The
    first Newton solve starts at ``z0``; each later one starts at the
    linear extrapolation ``2 z_m - z_{m-1}`` of the last two states, and
    if that solve fails it is solved again from ``z_m``.  A plain
    discrete-gradient scheme on a singular ``A`` gets the line start only
    when the system is index 1 at ``z0`` (its algebraic rows fix the
    null-space components there); on index-3 systems such as the pendulum
    it always starts at ``z_m``.
    The redundant force of the index-1 scheme always starts at zero.  The
    index-1 scheme first projects ``z0`` onto the constraint manifold, and
    a non-finite ``z0`` raises ``ValueError``.  ``newton_iters`` counts
    the iterations of the solve that was accepted.
    Returns ``steps + 1`` records; a solver or linear-algebra error in a
    step raises :class:`StepFailure` carrying the partial trajectory, and
    one in the projection raises it for step 0 with the unprojected
    ``z0`` as the only record.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    bound = _bind(target, scheme)
    z = np.asarray(z0, dtype=float).copy()
    if not np.all(np.isfinite(z)):
        raise ValueError("z0 must be finite")

    def observe(state):
        return {obs.name or f"observer{i}": float(obs.value(state)) for i, obs in enumerate(observers)}

    def initial(state):
        record = StepRecord(0, 0.0, state.copy(), observe(state), _constraint_norm(target, state),
                            0.0, 0, 0.0, False)
        return Trajectory([record])

    if bound.extra:
        try:
            z = project_to_constraint(target, z, cfg)
        except (DaegradError, np.linalg.LinAlgError) as exc:
            raise StepFailure(0, exc, initial(z)) from exc
    traj = initial(z)
    predict = not bound.free_null_space or _fixes_null_space(target, z)
    prev = None
    for m in range(1, steps + 1):
        guess = 2.0 * z - prev if predict and prev is not None else None
        try:
            result = _advance(bound, z, dt, cfg, guess)
        except (DaegradError, np.linalg.LinAlgError) as exc:
            raise StepFailure(m, exc, traj) from exc
        prev, z = z, result.state
        traj.records.append(
            StepRecord(
                step_index=m,
                time=m * dt,
                state=z.copy(),
                invariant_values=observe(z),
                constraint_residual_norm=_constraint_norm(target, z),
                redundant_c_norm=float(np.linalg.norm(result.c)) if result.c.size else 0.0,
                newton_iters=result.newton_iters,
                newton_residual=result.newton_residual,
                fallback_used=result.fallback_used,
            )
        )
    return traj
