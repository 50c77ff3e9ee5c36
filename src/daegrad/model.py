"""Differential-algebraic systems with linear-gradient structure.

A system ``A z' = f(z)`` with singular square ``A`` carries implicit
constraints: along the orthogonal complement of ``range(A)`` the equation
reads ``B^T f(z) = 0``, which pins solutions to a configuration manifold.
A *linear-gradient* system is one whose right-hand side factors as
``f(z) = S(z) grad V(z)``; conservation or dissipation of ``V`` is then
decided by the symmetry of ``pinv(A) S(z)``:

* skew-symmetric (on the manifold)        -> ``V`` conserved,
* negative-semidefinite symmetric part    -> ``V`` dissipated,

provided ``V`` is *proper*: its gradient stays orthogonal to the null
space of ``A`` on the manifold, so that only the determined part of the
velocity enters ``dV/dt``.

The module offers: containers for general and linear-gradient systems,
the implicit-constraint residual, a properness check, a properization
transform that adds multiples of the constraints to a non-proper function
to make it proper, structure verification over sample states, and the two
generic factorizations that build a suitable ``S`` for a known conserved
or dissipated quantity.  Their tolerances are fixed, not arguments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

import numpy as np

from .errors import RankDeficientConstraints, VanishingDissipation, VanishingGradient
from .gradients import ScalarField
from .linalg import (
    SubspaceData,
    is_negative_semidefinite,
    is_skew_symmetric,
    project,
    pseudo_inverse,
)

__all__ = [
    "GeneralDAE",
    "LinearGradientDAE",
    "ConstrainedHamiltonian",
    "implicit_constraint_residual",
    "ProperCheck",
    "check_proper",
    "properize",
    "StructureReport",
    "verify_structure",
    "build_conservative_S",
    "build_dissipative_S",
]

_CLAIMS = ("conservative", "dissipative", "none")


@dataclass(frozen=True)
class GeneralDAE:
    """``A z' = f(z)`` with a constant square mass matrix.

    ``constraints`` optionally lists scalar functions whose joint zero set
    is the configuration manifold; they are used by properization and by
    diagnostics, not by the solvers themselves.  ``subspaces`` is derived
    from ``A`` on construction unless supplied.
    """

    A: np.ndarray
    f: Callable[[np.ndarray], np.ndarray]
    constraints: tuple[ScalarField, ...] = ()
    subspaces: SubspaceData | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "A", A)
        if self.subspaces is None:
            object.__setattr__(self, "subspaces", pseudo_inverse(A))

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class LinearGradientDAE:
    """``A z' = S(z) grad V(z)`` with a declared structure claim.

    ``structure_claim`` records what the factorization is supposed to
    deliver ("conservative", "dissipative" or "none"); it is verified by
    :func:`verify_structure`, not enforced at construction.  ``A`` and
    ``subspaces`` are set up as for :class:`GeneralDAE`.
    """

    A: np.ndarray
    S: Callable[[np.ndarray], np.ndarray]
    V: ScalarField
    constraints: tuple[ScalarField, ...] = ()
    structure_claim: str = "none"
    subspaces: SubspaceData | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.structure_claim not in _CLAIMS:
            raise ValueError(f"unknown structure claim {self.structure_claim!r}")
        GeneralDAE.__post_init__(self)

    dim = GeneralDAE.dim

    def f(self, z: np.ndarray) -> np.ndarray:
        return self.S(z) @ np.asarray(self.V.gradient(z), dtype=float)

    def as_general(self) -> GeneralDAE:
        return GeneralDAE(
            A=self.A, f=self.f, constraints=self.constraints, subspaces=self.subspaces
        )


@dataclass(frozen=True)
class ConstrainedHamiltonian:
    """A canonical system with holonomic constraints, state ``(q, p, lam)``.

    ``hamiltonian`` acts on the ``2n``-dimensional ``(q, p)`` block;
    each entry of ``constraints`` acts on the ``n``-dimensional ``q``
    block.  Used by the constraint-conserving one-step scheme.
    """

    n: int
    hamiltonian: ScalarField
    constraints: tuple[ScalarField, ...]

    def __post_init__(self):
        if self.hamiltonian.dim != 2 * self.n:
            raise ValueError("hamiltonian must act on the (q, p) block")
        for g in self.constraints:
            if g.dim != self.n:
                raise ValueError("each constraint must act on the q block")

    @property
    def dim(self) -> int:
        return 2 * self.n + len(self.constraints)

    def constraint_values(self, q: np.ndarray) -> np.ndarray:
        return np.array([g.value(q) for g in self.constraints])


def implicit_constraint_residual(dae, z) -> np.ndarray:
    """``B^T f(z)`` where B spans the orthogonal complement of range(A).

    The zero set of this residual is the manifold that solutions cannot
    leave; for an index-1 system it coincides with the configuration
    manifold cut out by the declared constraints.
    """
    z = np.asarray(z, dtype=float)
    return dae.subspaces.range_perp_basis.T @ np.asarray(dae.f(z), dtype=float)


class ProperCheck(NamedTuple):
    passed: bool
    residual: float


def check_proper(dae, z, field: ScalarField | None = None) -> ProperCheck:
    """Does ``grad field`` avoid the null-space directions at ``z``?

    The residual is the norm of the null-space projection of the gradient,
    and the check passes when it is at most 1e-10.  ``field`` defaults to
    the system's own ``V`` for linear-gradient systems.  Points whose
    implicit-constraint residual exceeds 1e-8 give a warning, since
    properness is only meaningful on the manifold.
    """
    z = np.asarray(z, dtype=float)
    if field is None:
        if not isinstance(dae, LinearGradientDAE):
            raise ValueError("field must be given for systems without a V")
        field = dae.V
    cres = implicit_constraint_residual(dae, z)
    if cres.size and float(np.max(np.abs(cres))) > 1e-8:
        warnings.warn(
            f"state is off the constraint manifold (residual {float(np.max(np.abs(cres))):.2e}); "
            "properness is only meaningful on it",
            stacklevel=2,
        )
    g = np.asarray(field.gradient(z), dtype=float)
    residual = float(np.linalg.norm(project(dae.subspaces.null_basis, g)))
    return ProperCheck(residual <= 1e-10, residual)


def properize(v_tilde: ScalarField, dae) -> ScalarField:
    """Add constraint multiples to make a function proper on the manifold.

    Returns the field ``V = v_tilde + sum_i c_i(z) g_i(z)`` whose
    coefficient vector solves ``W W^T (.) = -E^T grad v_tilde`` with
    ``W = E^T [grad g_1 ... grad g_k]`` and ``E`` the null-space basis;
    the reported gradient is ``grad v_tilde + sum_i c_i(z) grad g_i(z)``,
    which agrees with the true gradient of ``V`` on the manifold where
    every ``g_i`` vanishes.

    Raises :class:`RankDeficientConstraints` when ``W`` loses row rank,
    i.e. the declared constraints cannot steer the gradient out of some
    null-space direction.
    """
    E = dae.subspaces.null_basis
    ell = E.shape[1]
    if ell == 0:
        return v_tilde
    constraints = dae.constraints
    if not constraints:
        raise RankDeficientConstraints(
            "properization needs at least one constraint for a singular mass matrix"
        )
    grads = [g.gradient for g in constraints]
    values = [g.value for g in constraints]

    def coefficients(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        G = np.column_stack([np.asarray(dg(z), dtype=float) for dg in grads])
        W = E.T @ G
        WWt = W @ W.T
        trace = float(np.trace(WWt))
        try:
            L = np.linalg.cholesky(WWt)
        except np.linalg.LinAlgError as exc:
            raise RankDeficientConstraints(
                "constraint gradients do not span the null-space directions"
            ) from exc
        if float(np.min(np.diag(L)) ** 2) <= 1e-12 * trace:
            raise RankDeficientConstraints(
                "constraint gradients are numerically rank deficient on the null space"
            )
        rhs = -(E.T @ np.asarray(v_tilde.gradient(z), dtype=float))
        y = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
        return W.T @ y, G

    def value(z):
        z = np.asarray(z, dtype=float)
        c, _ = coefficients(z)
        return v_tilde.value(z) + sum(ci * gv(z) for ci, gv in zip(c, values))

    def gradient(z):
        z = np.asarray(z, dtype=float)
        c, G = coefficients(z)
        return np.asarray(v_tilde.gradient(z), dtype=float) + G @ c

    label = v_tilde.name or "field"
    return ScalarField(
        dim=v_tilde.dim,
        value=value,
        gradient=gradient,
        hint="general",
        name=f"proper({label})",
    )


@dataclass(frozen=True)
class StructureReport:
    """Outcome of verifying a structure claim over sample states."""

    claim: str
    passed: bool
    worst_residual: float


def verify_structure(dae: LinearGradientDAE, samples) -> StructureReport:
    """Check the declared claim of ``pinv(A) S(z)`` at each sample state.

    Conservative systems must show a skew-symmetric product (max-abs
    residual), dissipative ones a negative-semidefinite symmetric part
    (largest eigenvalue); either figure may reach 1e-9 at the worst sample.
    Samples are expected to lie on the configuration manifold.  A system
    without a claim passes trivially.
    """
    claim = dae.structure_claim
    if claim == "none":
        return StructureReport(claim, True, 0.0)
    pinv = dae.subspaces.pinv
    residuals = []
    for z in samples:
        P = pinv @ dae.S(np.asarray(z, dtype=float))
        if claim == "conservative":
            residuals.append(is_skew_symmetric(P).residual)
        else:
            residuals.append(is_negative_semidefinite(P).max_eigenvalue)
    worst = max(residuals) if residuals else 0.0
    return StructureReport(claim, worst <= 1e-9, float(worst))


def build_conservative_S(dae: GeneralDAE, V: ScalarField) -> Callable[[np.ndarray], np.ndarray]:
    """Factor ``f`` through a structure matrix that conserves ``V``.

    Returns the map

        S(z) = [f(z) grad V^T - A grad V (pinv(A) f)^T] / ||grad V||^2 .

    On the manifold, where ``V`` is proper and ``<grad V, pinv(A) f> = 0``,
    this satisfies ``S(z) grad V(z) = f(z)`` and ``pinv(A) S(z)`` is
    skew-symmetric.  Evaluation where ``||grad V|| <= 1e-12`` raises
    :class:`VanishingGradient`.
    """
    A = dae.A
    pinv = dae.subspaces.pinv

    def S(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        g = np.asarray(V.gradient(z), dtype=float)
        gg = float(g @ g)
        if gg <= 1e-24:
            raise VanishingGradient(f"||grad V|| = {np.sqrt(gg):.3e} at z = {z}")
        fz = np.asarray(dae.f(z), dtype=float)
        return (np.outer(fz, g) - np.outer(A @ g, pinv @ fz)) / gg

    return S


def build_dissipative_S(dae: GeneralDAE, V: ScalarField) -> Callable[[np.ndarray], np.ndarray]:
    """Factor ``f`` through a structure matrix that dissipates ``V``.

    Returns ``S(z) = f(z) (pinv(A) f)^T / <pinv(A) f, grad V>``, defined
    wherever ``V`` actually changes along the flow.  ``S grad V = f``
    holds identically there, and ``pinv(A) S`` is a symmetric rank-one
    matrix whose sign matches the dissipation rate, hence negative
    semidefinite where ``V`` decreases.  A rate of magnitude at most 1e-12
    raises :class:`VanishingDissipation`.
    """
    pinv = dae.subspaces.pinv

    def S(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        fz = np.asarray(dae.f(z), dtype=float)
        w = pinv @ fz
        rate = float(w @ np.asarray(V.gradient(z), dtype=float))
        if abs(rate) <= 1e-12:
            raise VanishingDissipation(f"dissipation rate {rate:.3e} at z = {z}")
        return np.outer(fz, w) / rate

    return S
