"""One-step integrators for linear-gradient DAE systems.

Every scheme solves one residual per step with a damped Newton iteration.
Its Jacobian is analytic for a discrete-gradient scheme whose ``S`` is
constant, returning one matrix object at every state, and whose gradient
has a derivative: ``dg-avf``, ``dg-proper`` and
``dg-index1`` on a field that supplies its ``hessian``, ``dg-midpoint`` on
such a field hinted ``"quadratic"``, and ``gonzalez`` when ``H`` and every
constraint are; every other iteration takes forward differences.
The schemes, by name:

* ``implicit-euler`` - ``A (z1 - z0) = dt f(z1)``; conserves any linear
  invariant whose gradient avoids the null space of ``A``.
* ``dg-avf``, ``dg-midpoint``, ``dg-proper`` - the discrete-gradient
  scheme ``A (z1 - z0) = dt Sbar gbar(z1, z0)`` with the named discrete
  gradient and ``Sbar`` the endpoint average of ``S``.
* ``dg-index1`` - the interior-division scheme for index-1 systems,
  augmented with a redundant null-space force ``B c`` and the explicit
  constraint block ``B^T S(z1) grad V(z1) = 0``, which lands every step
  on the constraint manifold while conserving ``V``.
* ``gonzalez`` - the plain discrete-gradient step with Gonzalez's gradient
  of ``V = H + lam^T g`` for a system that declares its ``hamiltonian``;
  it enforces ``g(x1) + g(x0) = 0`` and fixes only the multipliers' average.

``integrate`` drives a run of any of them, records per-step diagnostics,
and returns the partial trajectory inside a :class:`StepFailure` if a step
fails mid-run.  Whether a step's gradient fell back is what the step's own
prepared gradient reports from its last call, with no second evaluation.
The first Newton solve of a run starts at ``z0``.  From
the second step on, it starts at the line ``2 z_m - z_{m-1}`` through the
last two states, and solves again from ``z_m`` if that start fails.  A
plain discrete-gradient scheme on a singular ``A`` leaves the null-space
components to the algebraic rows; it gets the line start only on a
system that is index 1 at ``z0`` (the algebraic rows fix those components
there), and otherwise keeps starting at ``z_m``.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

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
    _MIDPOINT,
    _PreparedBase,
    _gradient,
    _has_derivative,
    discrete_gradient_info,
    midpoint_gradient,  # unused here; benchmarks/spans.py traces this attribute
)
from . import model
from .model import GeneralDAE, LinearGradientDAE

__all__ = [
    "NewtonConfig",
    "NewtonResult",
    "newton_solve",
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
    """Stopping rules for the Newton iteration: a finite, positive
    ``residual_tol`` and an integral ``max_iters`` of at least 1, neither a
    ``bool``, or ``ValueError``."""

    residual_tol: float = 1e-12
    max_iters: int = 50

    def __post_init__(self):
        if (isinstance(self.residual_tol, (bool, np.bool_))
                or not (self.residual_tol > 0 and math.isfinite(self.residual_tol))):
            raise ValueError(f"residual_tol must be finite and positive, got {self.residual_tol}")
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")


class NewtonResult(NamedTuple):
    w: np.ndarray
    iters: int
    residual_norm: float


def _fd_jacobian(residual, w, r0):
    """Forward-difference Jacobian at ``w``, ``r0 = residual(w)``, with the
    step ``h = sqrt(eps) (1 + max |w|)`` in every coordinate.

    Row ``j`` of one buffer takes the raw ``residual(w + h e_j)``, each from
    a fresh perturbed copy of ``w`` (a residual may keep its argument); the
    differences ``(row - r0) / h`` are formed once over the whole buffer,
    which rounds every entry as a per-column difference would.  Returns the
    transposed view, an F-ordered ``(len(r0), len(w))`` array.
    """
    h = np.sqrt(np.finfo(float).eps) * (1.0 + float(np.maximum.reduce(np.abs(w))))
    rows = np.empty((w.shape[0], r0.shape[0]))
    for j in range(w.shape[0]):
        wj = w.copy()
        wj[j] += h
        rows[j] = residual(wj)
    rows -= r0
    rows /= h
    return rows.T


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    w0,
    cfg: NewtonConfig = NewtonConfig(),
    *,
    jacobian: Callable[[np.ndarray], np.ndarray | None] | None = None,
) -> NewtonResult:
    """Damped Newton iteration on ``residual(w) = 0``.

    Each iteration solves with ``jacobian(w)`` when the caller passes one
    (by keyword) and it returns an array, and otherwise with a
    forward-difference Jacobian that costs ``len(w)`` residual calls; a
    ``jacobian`` that returns None takes differences at that iterate.
    It may return an ``(n + k)``-square bordered matrix, ``n = len(w)``,
    whose last ``k`` equations have a zero right-hand side: the step is the
    first ``n`` entries of the solution, and the next call may reuse the array.
    Success means ``||residual||_inf <= cfg.residual_tol``.
    Full steps that increase the residual norm are halved up to 20 times;
    if no halving helps, or ``max_iters`` is exhausted, or the step stagnates
    below a relative ``1e-14`` without meeting the tolerance, raises
    :class:`NoConvergence`; so does a residual that is not finite at ``w0``,
    at once (a non-finite trial point is halved like any other).  A Jacobian
    that cannot be solved raises :class:`SingularJacobian`.
    """
    w = np.asarray(w0, dtype=float).copy()
    r = np.asarray(residual(w), dtype=float)
    rnorm = float(np.maximum.reduce(np.abs(r))) if r.size else 0.0
    if not math.isfinite(rnorm):
        raise NoConvergence(0, rnorm, "residual is not finite")
    if rnorm <= cfg.residual_tol:
        return NewtonResult(w, 0, rnorm)
    for it in range(1, cfg.max_iters + 1):
        J = None if jacobian is None else jacobian(w)
        J = _fd_jacobian(residual, w, r) if J is None else np.asarray(J, dtype=float)
        try:
            k = J.shape[0] - r.shape[0]  # bordered: k more equations with a zero right-hand side
            delta = (np.linalg.solve(J, np.concatenate([-r, np.zeros(k)]))[: w.shape[0]] if k
                     else np.linalg.solve(J, -r))
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"iteration {it}: {exc}") from exc
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            w_new = w + delta if scale == 1.0 else w + scale * delta  # 1.0 * delta is delta
            r_new = np.asarray(residual(w_new), dtype=float)
            rnorm_new = float(np.maximum.reduce(np.abs(r_new)))
            if rnorm_new <= cfg.residual_tol or rnorm_new < rnorm:
                break
            scale *= 0.5
        else:
            raise NoConvergence(it, rnorm, "damping failed to reduce the residual")
        w, r, rnorm = w_new, r_new, rnorm_new
        if rnorm <= cfg.residual_tol:
            return NewtonResult(w, it, rnorm)
        step_size = scale * float(np.maximum.reduce(np.abs(delta)))
        if step_size <= _STEP_TOL * (1.0 + float(np.maximum.reduce(np.abs(w)))):
            raise NoConvergence(it, rnorm, "step stagnated")
    raise NoConvergence(cfg.max_iters, rnorm)


class _Scheme(NamedTuple):
    """A scheme bound to its target system.

    ``build(z0, dt)`` returns the Newton residual of one step from ``z0``;
    its analytic Jacobian, a map ``w ->`` array (maybe bordered) or None
    (differences at that iterate), or None throughout; and ``fell_back``
    of the step's prepared discrete gradient, or None for implicit Euler
    and ``gonzalez``.  The unknown is the new state followed by ``extra``
    auxiliary components.  ``free_null_space`` marks a scheme that leaves
    the null-space components of a singular mass matrix to the system's
    algebraic rows, so that a singular Newton Jacobian is reported as
    :class:`UnderdeterminedSystem`.
    """

    build: Callable
    extra: int = 0
    free_null_space: bool = False


def _implicit_euler(dae) -> _Scheme:
    """``A (z1 - z0) / dt = f(z1)``.

    For uniform index-1 systems the result satisfies the implicit
    constraint to solver tolerance, because the constraint equations are a
    fixed linear combination of the residual rows.
    """
    if not isinstance(dae, (GeneralDAE, LinearGradientDAE)):
        raise ValueError("scheme 'implicit-euler' needs a system A z' = f(z)")
    A = dae.A

    def build(z, dt):
        def residual(zp):
            return A @ (zp - z) / dt - np.asarray(dae.f(zp), dtype=float)

        return residual, None, None

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
    size is a solver diagnostic.  ``gonzalez`` uses :func:`_augmented_gradient`.
    Every scheme prepares its discrete gradient at ``z0`` once per step.
    The constraint block is ``(B^T S) grad V(z1)``: it reads the
    ``grad V(z1)`` that the interior-division gradient evaluated, and forms
    ``B^T S(z0)`` once per step for a constant ``S``.

    With a field ``hessian`` (for ``gonzalez``, on ``H`` and every
    constraint), every scheme builds an analytic Jacobian ``A / dt - S
    dgbar/dz1`` from the gradient's derivative, in ``O(d^2)`` into the
    scheme's one buffer.  The prepared base's derivative ``diag(k) + outer(u,
    v)`` gives ``A / dt - S * k`` bordered by one unknown ``s = v^T dz1``
    (column ``-S u``, row ``v``, corner ``-1``; a zero border without
    ``u``), and for ``dg-index1`` the columns ``-B`` and rows ``(B^T S) *
    grad^2 V(z1)`` of ``c`` before ``s``; Gonzalez's dense derivative
    gives ``A / dt - S @ D``.  It holds only for a constant ``S``, and
    ``S`` is constant where ``S(z1)`` is ``S(z0)``, the same object: the
    residual's single product uses the same rule.  An ``S`` that returns
    an equal copy, and every other ``S``, gets None, as does a None
    derivative; where the gradient has none at all (``_has_derivative``),
    there is no Jacobian.
    """
    if not isinstance(dae, LinearGradientDAE):
        raise ValueError(f"scheme {scheme!r} needs a linear-gradient system")
    index1 = scheme == "dg-index1"
    A, V, d = dae.A, dae.V, dae.dim
    B = dae.subspaces.range_perp_basis
    if scheme == "gonzalez":
        kind, gradient_from = None, _augmented_gradient(dae)
    else:
        kind = DiscreteGradientKind("proper" if index1 else scheme.removeprefix("dg-"))

    n = d + B.shape[1] if index1 else d
    bordered = kind is not None and kind.variant == "proper"
    J = np.zeros((n + bordered,) * 2)  # one per scheme: a zeroed one per step cost dg-avf ~1 %
    if index1:
        J[:d, d:n] = -B
    if bordered:
        J[n, n] = -1.0
    over_dt = lru_cache(maxsize=1)(lambda dt: A / dt)  # formed once per dt, not per step

    def build(z, dt):
        S0 = dae.S(z)
        if kind is None:
            (gradient, derivative), fell_back = gradient_from(z), None
        else:
            base = _PreparedBase(kind, V, z)
            derivative = base.derivative if _has_derivative(kind.variant, V) else None
            fell_back = base.fell_back

            def gradient(zp):
                return discrete_gradient_info(kind, V, zp, base)[0]

        BtS0 = B.T @ S0 if index1 else None

        def residual(w):
            zp = w[:d]
            gbar = gradient(zp)
            S1 = dae.S(zp)
            # a constant S comes back as the same object: Sbar = S, one product
            Sg = S1 @ gbar if S1 is S0 else 0.5 * (S1 @ gbar + S0 @ gbar)
            dyn = A @ (zp - z) / dt - Sg
            if not index1:
                return dyn
            constraint = (BtS0 if S1 is S0 else B.T @ S1) @ base.grad
            return np.concatenate([dyn - B @ w[d:], constraint])

        if derivative is None:
            return residual, None, fell_back
        A_dt = over_dt(float(dt))

        def jacobian(w):
            zp = w[:d]
            part = derivative(zp) if dae.S(zp) is S0 else None  # the residual's rule
            if part is None:
                return None
            diagonal, rank_one = part
            np.subtract(A_dt, S0 @ diagonal if diagonal.ndim == 2 else S0 * diagonal, out=J[:d, :d])
            if bordered:
                J[:d, n] = 0.0 if rank_one is None else -(S0 @ rank_one[0])
                J[n, :d] = 0.0 if rank_one is None else rank_one[1]
            if index1:
                np.multiply(BtS0, base.hess, out=J[d:n, :d])
            return J

        return residual, jacobian, fell_back

    if index1:
        return _Scheme(build, B.shape[1])
    return _Scheme(build, free_null_space=kind is not None and dae.subspaces.nullity > 0)


def _augmented_gradient(dae):
    """``z0 -> (z1 -> gbar, derivative)``: Gonzalez's discrete gradient of
    ``V = H(x) + lam^T g(x)`` and its derivative in ``z1``.

    With ``lam = E^T z`` and ``x = z - E lam`` as in :class:`LinearGradientDAE`,
    ``gbar = P (Hbar + sum_j lam_bar_j gbar_j) + E g_bar``, where ``Hbar`` and
    ``gbar_j`` are midpoint gradients over ``(x1, x0)``, ``lam_bar`` and
    ``g_bar`` endpoint averages, and ``P = I - E E^T``.  The discrete chain
    rule holds exactly: ``lam1 g1 - lam0 g0 = lam_bar (g1 - g0) + g_bar (lam1 - lam0)``.
    Each step prepares one midpoint base per field at ``x0``, and each
    residual calls every base once through ``discrete_gradient_info``.

    ``derivative(z1)`` composes the bases' derivatives ``k_H`` and ``k_j``
    into the dense ``(P (k_H + sum_j lam_bar_j k_j) P + (P Gbar E^T +
    E G1^T P) / 2, None)``, with ``gbar_j`` the columns of ``Gbar`` and
    ``grad g_j(x1)`` those of ``G1``; ``derivative`` itself is None unless
    every field's midpoint gradient has a derivative (``_has_derivative``).
    Each ``k`` is constant (hint ``"quadratic"``), read once per bound
    scheme; ``x1``, ``lam1`` and ``Gbar`` come from the last gradient call,
    made again unless it was at ``z1``; only ``G1`` is read at every build.
    """
    H, constraints, E = dae.hamiltonian, dae.constraints, dae.subspaces.null_basis
    if H is None:
        raise ValueError("scheme 'gonzalez' needs a system that declares its hamiltonian")
    if not 0 < E.shape[1] == len(constraints):
        raise ValueError(f"scheme 'gonzalez' needs a singular A and one constraint per null-space "
                         f"direction; nullity {E.shape[1]}, {len(constraints)} constraints")

    P = np.eye(dae.dim) - E @ E.T
    fields = (H, *constraints)
    analytic = all(_has_derivative("midpoint", field) for field in fields)
    halves = None  # each field's constant k, read at the run's first derivative

    def split(z):
        x = P @ z
        return x, E.T @ z, np.array([g.value(x) for g in constraints])

    def gradient_from(z):
        x0, lam0, g0 = split(z)
        bases = [_PreparedBase(_MIDPOINT, field, x0) for field in fields]
        last = (None,)  # (z1 bytes, x1, lam1, gbar_j) of the last gradient call

        def gradient(zp):
            nonlocal last
            x1, lam1, g1 = split(zp)
            w = discrete_gradient_info(_MIDPOINT, H, x1, bases[0])[0]
            gbars = [discrete_gradient_info(_MIDPOINT, g, x1, base)[0]
                     for g, base in zip(constraints, bases[1:])]
            for lam_j, gbar_j in zip(0.5 * (lam1 + lam0), gbars):
                w = w + lam_j * gbar_j
            last = zp.tobytes(), x1, lam1, gbars
            return P @ w + E @ (0.5 * (g1 + g0))

        def derivative(zp):
            nonlocal halves
            if last[0] != zp.tobytes():
                gradient(zp)
            _, x1, lam1, gbars = last
            if halves is None:
                halves = [base.derivative(x1)[0] for base in bases]
            k, *ks = halves
            for lam_j, k_j in zip(0.5 * (lam1 + lam0), ks):
                k = k + lam_j * k_j
            Gbar = np.array(gbars).T
            G1 = np.array([_gradient(g, x1) for g in constraints]).T
            return (P * k) @ P + 0.5 * (P @ Gbar @ E.T + E @ G1.T @ P), None

        return gradient, derivative if analytic else None

    return gradient_from


def _bind(target, scheme: str) -> _Scheme:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; available: {', '.join(SCHEMES)}")
    if scheme == "implicit-euler":
        return _implicit_euler(target)
    return _discrete_gradient(target, scheme)


def _advance(
    bound: _Scheme, z: np.ndarray, dt: float, cfg: NewtonConfig, guess=None
) -> tuple[NewtonResult, bool]:
    """One step from ``z``: the accepted Newton solve, whose ``w`` is the new
    state followed by the ``extra`` components, and whether the gradient
    fell back there, as the step's own ``fell_back`` tells.  Newton starts
    at ``guess`` when given, and again at ``z`` if that solve fails."""
    residual, jacobian, fell_back = bound.build(z, dt)

    def start(state):  # newton_solve copies its start
        return np.concatenate([state, np.zeros(bound.extra)]) if bound.extra else state

    sol = None
    if guess is not None:
        try:
            sol = newton_solve(residual, start(guess), cfg, jacobian=jacobian)
        except NewtonError:
            pass
    if sol is None:
        try:
            sol = newton_solve(residual, start(z), cfg, jacobian=jacobian)
        except SingularJacobian as exc:
            if bound.free_null_space:
                raise UnderdeterminedSystem(
                    "singular Jacobian with singular mass matrix: the scheme does not "
                    "determine the null-space components; use the index-1 scheme"
                ) from exc
            raise
    fallback = fell_back is not None and fell_back(sol.w[: z.shape[0]])
    if fallback:
        warnings.warn(
            "interior-division gradient fell back to the midpoint form; "
            "exact conservation is compromised for this step",
            FallbackCompromisedConservation,
            stacklevel=3,
        )
    return sol, fallback


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
    r = model.implicit_constraint_residual(target, z)
    return math.sqrt(r @ r)  # bitwise np.linalg.norm of a 1-D float vector


def integrate(
    target,
    scheme: str,
    z0,
    dt: float,
    steps: int,
    observers: Iterable[ScalarField] = (),
    cfg: NewtonConfig = NewtonConfig(),
) -> Trajectory:
    """Advance ``target`` by ``steps`` steps of size ``dt``.

    ``target`` is a :class:`GeneralDAE` or :class:`LinearGradientDAE`,
    matched to the scheme.  Observers are scalar fields on the system's
    dimension whose values are recorded at every state under their names;
    an unnamed one at index ``i`` is called ``observer<i>``.  The
    first Newton solve starts at ``z0``; each later one starts at the
    linear extrapolation ``2 z_m - z_{m-1}`` of the last two states, and
    if that solve fails it is solved again from ``z_m``.  A plain
    discrete-gradient scheme on a singular ``A`` gets the line start only
    when the system is index 1 at ``z0`` (its algebraic rows fix the
    null-space components there); on index-3 systems such as the pendulum
    it always starts at ``z_m``.
    The redundant force of the index-1 scheme always starts at zero.  The
    index-1 scheme first projects ``z0`` onto the constraint manifold.
    ``ValueError`` is raised before any solve for ``steps`` that is not an
    integer of at least 1 (a ``bool`` is not one), a ``dt`` that is a
    ``bool`` or not finite and positive, a ``z0`` that is not a finite
    vector of the system's dimension, observers of another dimension
    or with clashing names, and the index-1 scheme on a system whose
    algebraic rows do not fix its null-space components at ``z0`` (one that
    is not index 1 there, such as the pendulum).
    ``newton_iters`` counts the iterations of the solve that was accepted.
    Returns ``steps + 1`` records; a solver or linear-algebra error in a
    step raises :class:`StepFailure` carrying the partial trajectory, and
    one in the projection raises it for step 0 with the unprojected
    ``z0`` as the only record.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise ValueError(f"steps must be an integer of at least 1, got {steps!r}")
    bound = _bind(target, scheme)
    d = target.dim
    if isinstance(dt, (bool, np.bool_)) or not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    z = np.array(z0, dtype=float)
    if z.shape != (d,):
        raise ValueError(f"the start state must have shape ({d},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("the start state must be finite")
    observers = tuple(observers)  # read at every state, so an iterator must not run dry
    names = [obs.name or f"observer{i}" for i, obs in enumerate(observers)]
    if len(set(names)) < len(names):
        raise ValueError(f"observer names must be distinct, got {names}")
    for name, obs in zip(names, observers):
        model._check_dim(f"observer {name!r}", obs, d)

    def observe(state):
        return {name: float(obs.value(state)) for name, obs in zip(names, observers)}

    def initial(state):
        record = StepRecord(0, 0.0, state.copy(), observe(state), _constraint_norm(target, state),
                            0.0, 0, 0.0, False)
        return Trajectory([record])

    if bound.extra:
        if not _fixes_null_space(target, z):
            raise ValueError(f"scheme {scheme!r} needs a system that is index 1 at the start "
                             "state: its algebraic rows do not fix the null-space components there")
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
            sol, fallback = _advance(bound, z, dt, cfg, guess)
        except (DaegradError, np.linalg.LinAlgError) as exc:
            raise StepFailure(m, exc, traj) from exc
        prev, z, c = z, sol.w[:d], sol.w[d:]
        traj.records.append(
            StepRecord(
                step_index=m,
                time=m * dt,
                state=z.copy(),
                invariant_values=observe(z),
                constraint_residual_norm=_constraint_norm(target, z),
                redundant_c_norm=float(np.linalg.norm(c)) if c.size else 0.0,
                newton_iters=sol.iters,
                newton_residual=sol.residual_norm,
                fallback_used=fallback,
            )
        )
    return traj
