"""Scalar fields and discrete gradients.

A discrete gradient of a differentiable ``V`` is a two-point map
``gbar(z, z')`` that is consistent (``gbar(z, z) = grad V(z)``) and
satisfies the discrete chain rule

    <gbar(z, z'), z - z'> = V(z) - V(z').

Three constructions are provided:

* ``avf_gradient`` - the average of ``grad V`` along the segment from
  ``z'`` to ``z``, evaluated by 7-node Gauss-Legendre quadrature;
* ``midpoint_gradient`` - the midpoint gradient plus a rank-one
  correction along ``z - z'`` that enforces the chain rule exactly;
* ``proper_gradient`` - an interior division of the endpoint gradients,
  ``theta * grad V(z) + (1 - theta) * grad V(z')``.  Its distinguishing
  feature is that the result stays inside the span of endpoint gradients,
  which is what lets one-step schemes inherit constraint invariance from
  the continuous system.  Where the curvature term is degenerate it falls
  back to the midpoint gradient, and :func:`discrete_gradient_info` flags
  that fallback.

The interior-division coefficient ``theta(z, z')`` is the ratio of the
one-sided divergence ``V(z) - V(z') - <grad V(z'), z - z'>`` to the
two-sided curvature term ``<grad V(z) - grad V(z'), z - z'>``; the two
one-sided divergences sum to the curvature term, so the coefficients for
``(z, z')`` and ``(z', z)`` always sum to one.  For quadratic fields the
coefficient is exactly one half and the construction coincides with the
average vector field.

The policy is fixed: none of the constructions takes a tuning parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import DegenerateDenominator

__all__ = [
    "ScalarField",
    "quadratic_field",
    "linear_field",
    "cosh_sum_field",
    "convex_quartic_field",
    "DiscreteGradientKind",
    "avf_gradient",
    "midpoint_gradient",
    "theta_coefficient",
    "proper_gradient",
    "discrete_gradient_info",
    "chain_rule_residual",
]

_HINTS = ("quadratic", "general")

#: points whose distance is below this (scaled) threshold are treated as equal
COINCIDENCE_RTOL = 1e-14

# the interior-division curvature term counts as degenerate below this
# multiple of |z - z'|^2
_DENOMINATOR_TOL = 1e-10


@dataclass(frozen=True)
class ScalarField:
    """A differentiable map ``R^dim -> R`` with an optional structure hint.

    ``hint`` declares what the discrete-gradient machinery may exploit:
    ``"quadratic"`` means the gradient is affine (so the interior-division
    coefficient is exactly one half), and ``"general"`` promises nothing.

    ``divergence`` optionally evaluates the one-sided divergence

        D(z, z0) = V(z) - V(z0) - <grad V(z0), z - z0>

    in a cancellation-free way.  Supplying it makes the interior-division
    coefficient accurate arbitrarily close to coincidence, where the naive
    three-term formula loses all significant digits.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hint: str = "general"
    divergence: Callable[[np.ndarray, np.ndarray], float] | None = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.hint not in _HINTS:
            raise ValueError(f"unknown hint {self.hint!r}, expected one of {_HINTS}")


def quadratic_field(X, linear=None, name: str = "") -> ScalarField:
    """The field ``V(z) = z^T X z / 2 + <b, z>`` for symmetric ``X``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"X must be square, got shape {X.shape}")
    if not np.allclose(X, X.T, atol=1e-12):
        raise ValueError("X must be symmetric")
    b = np.zeros(X.shape[0]) if linear is None else np.asarray(linear, dtype=float)

    def divergence(z, z0):
        h = np.asarray(z, dtype=float) - np.asarray(z0, dtype=float)
        return 0.5 * float(h @ (X @ h))

    return ScalarField(
        dim=X.shape[0],
        value=lambda z: 0.5 * float(z @ (X @ z)) + float(b @ z),
        gradient=lambda z: X @ z + b,
        hint="quadratic",
        divergence=divergence,
        name=name,
    )


def linear_field(gamma, name: str = "") -> ScalarField:
    """The field ``V(z) = <gamma, z>`` (affine gradient, so hint quadratic)."""
    g = np.asarray(gamma, dtype=float)
    return ScalarField(
        dim=g.shape[0],
        value=lambda z: float(g @ z),
        gradient=lambda z: g.copy(),
        hint="quadratic",
        divergence=lambda z, z0: 0.0,
        name=name,
    )


_SINH_SERIES = tuple(1.0 / math.factorial(2 * k + 3) for k in reversed(range(8)))


def _sinh_minus_identity(h: np.ndarray) -> np.ndarray:
    """``sinh(h) - h`` element-wise; where ``|h| <= 0.5`` the cancellation-free
    Horner sum ``h^3 sum_{k<8} h^(2k) / (2k+3)!``, which reaches double precision."""
    h2 = h * h
    poly = _SINH_SERIES[0]
    for c in _SINH_SERIES[1:]:
        poly = poly * h2 + c
    return np.where(np.abs(h) <= 0.5, h * h2 * poly, np.sinh(h) - h)


def cosh_sum_field(dim: int, name: str = "") -> ScalarField:
    """The strictly convex field ``V(u) = sum_i cosh(u_i)``.

    The one-sided divergence sums ``cosh(a) 2 sinh(h/2)^2 + sinh(a) (sinh(h) - h)``
    (``a = z0``, ``h = z - z0``) on whole arrays; a Horner series for small ``h``
    keeps ``sinh(h) - h``, and so the divergence, accurate near coincidence.
    """

    def divergence(z, z0):
        a = np.asarray(z0, dtype=float)
        h = np.asarray(z, dtype=float) - a
        s = np.sinh(0.5 * h)
        return float(np.sum(np.cosh(a) * 2.0 * s * s + np.sinh(a) * _sinh_minus_identity(h)))

    return ScalarField(
        dim=dim,
        value=lambda u: float(np.sum(np.cosh(u))),
        gradient=lambda u: np.sinh(u),
        hint="general",
        divergence=divergence,
        name=name,
    )


def convex_quartic_field(curvature, name: str = "") -> ScalarField:
    """``V(z) = sum_i (z_i^4 / 4 + c_i z_i^2 / 2)`` with ``c_i >= 0``.

    Strictly convex; the divergence has the closed component form
    ``h^2 (6 a^2 + 4 a h + h^2) / 4 + c h^2 / 2`` which is cancellation-free.
    """
    c = np.asarray(curvature, dtype=float)
    if np.any(c < 0):
        raise ValueError("curvature coefficients must be nonnegative")

    def divergence(z, z0):
        a = np.asarray(z0, dtype=float)
        h = np.asarray(z, dtype=float) - a
        return float(np.sum(h * h * ((6.0 * a * a + 4.0 * a * h + h * h) / 4.0 + c / 2.0)))

    return ScalarField(
        dim=c.shape[0],
        value=lambda z: float(np.sum(0.25 * z**4 + 0.5 * c * z**2)),
        gradient=lambda z: z**3 + c * z,
        hint="general",
        divergence=divergence,
        name=name,
    )


@dataclass(frozen=True)
class DiscreteGradientKind:
    """Selector for a discrete-gradient construction.

    ``variant`` is one of ``"avf"``, ``"midpoint"``, ``"proper"``.
    """

    variant: str

    def __post_init__(self):
        if self.variant not in ("avf", "midpoint", "proper"):
            raise ValueError(f"unknown discrete-gradient variant {self.variant!r}")


def _coincide(z: np.ndarray, zp: np.ndarray) -> bool:
    return float(np.linalg.norm(z - zp)) <= COINCIDENCE_RTOL * max(
        1.0, float(np.linalg.norm(z))
    )


def _as_pair(V: ScalarField, z, zp) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=float)
    zp = np.asarray(zp, dtype=float)
    if z.shape != (V.dim,) or zp.shape != (V.dim,):
        raise ValueError(
            f"points must have shape ({V.dim},), got {z.shape} and {zp.shape}"
        )
    return z, zp


def _gradient(V: ScalarField, z) -> np.ndarray:
    """``grad V(z)`` as a float vector of shape ``(V.dim,)``; the AVF rows get it by copying."""
    return np.asarray(V.gradient(z), dtype=float).reshape(V.dim)


@cache
def _avf_rule() -> tuple[np.ndarray, np.ndarray]:
    # built on first use, so that ``import daegrad`` need not load numpy.polynomial
    nodes, weights = np.polynomial.legendre.leggauss(7)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def avf_gradient(V: ScalarField, z, zp) -> np.ndarray:
    """Average of ``grad V`` over the segment from ``zp`` to ``z``.

    7-node Gauss-Legendre quadrature: it integrates a gradient of degree up
    to 13 exactly, so it is exact for polynomial ``V`` of degree up to 14.
    The seven nodes are one ``(7, dim)`` array; each gradient is copied into
    its row as soon as it returns, so a gradient may return a list, a scalar
    when ``dim`` is 1, or one buffer that it reuses between calls.  The
    midpoint and proper gradients accept such a gradient too.
    """
    z, zp = _as_pair(V, z, zp)
    if np.array_equal(z, zp):
        return _gradient(V, z)
    nodes, weights = _avf_rule()
    points = zp + nodes[:, None] * (z - zp)
    grads = np.empty_like(points)
    for i, point in enumerate(points):
        grads[i] = V.gradient(point)
    return weights @ grads


def midpoint_gradient(V: ScalarField, z, zp) -> np.ndarray:
    """Midpoint gradient with the rank-one chain-rule correction."""
    z, zp = _as_pair(V, z, zp)
    if _coincide(z, zp):
        return _gradient(V, z)
    delta = z - zp
    g = _gradient(V, 0.5 * (z + zp))
    dd = float(delta @ delta)
    corr = (V.value(z) - V.value(zp) - float(g @ delta)) / dd
    return g + corr * delta


def _divergence_pair(V: ScalarField, z, zp) -> tuple[float, float]:
    """One-sided divergences ``D(z, zp)`` and ``D(zp, z)``.

    Uses the field's stable evaluator when available, otherwise the direct
    three-term formulas sharing a single curvature evaluation.  ``grad V(zp)``
    is copied before ``grad V(z)`` is evaluated, so a gradient that reuses
    one buffer does not cancel the curvature term.
    """
    if V.divergence is not None:
        return float(V.divergence(z, zp)), float(V.divergence(zp, z))
    delta = z - zp
    gp = _gradient(V, zp).copy()
    d1 = V.value(z) - V.value(zp) - float(gp @ delta)
    den = float((_gradient(V, z) - gp) @ delta)
    return d1, den - d1


def _theta_pair(V: ScalarField, z, zp) -> tuple[float, float]:
    if V.hint == "quadratic":
        return 0.5, 0.5
    d1, d2 = _divergence_pair(V, z, zp)
    den = d1 + d2
    delta = z - zp
    if abs(den) <= _DENOMINATOR_TOL * float(delta @ delta):
        raise DegenerateDenominator(
            f"curvature term {den:.3e} below tolerance for |z - z'|^2 = {float(delta @ delta):.3e}"
        )
    return d1 / den, d2 / den


def theta_coefficient(V: ScalarField, z, zp) -> float:
    """Interior-division coefficient ``theta(z, z')``.

    Requires ``z != z'``.  Short-circuits to exactly one half for fields
    with an affine gradient; raises :class:`DegenerateDenominator` when the
    curvature term is too small relative to ``||z - z'||^2``.
    """
    z, zp = _as_pair(V, z, zp)
    if _coincide(z, zp):
        raise ValueError("theta_coefficient requires distinct points")
    return _theta_pair(V, z, zp)[0]


def proper_gradient(V: ScalarField, z, zp) -> np.ndarray:
    """Discrete gradient ``theta(z,z') grad V(z) + theta(z',z) grad V(z')``.

    Coincident points (within ``1e-14 * max(1, ||z||)``) return the exact
    gradient.  A degenerate curvature term yields the midpoint gradient
    instead; use :func:`discrete_gradient_info` to observe which branch was
    taken.
    """
    return discrete_gradient_info(DiscreteGradientKind("proper"), V, z, zp)[0]


def discrete_gradient_info(
    kind: DiscreteGradientKind, V: ScalarField, z, zp
) -> tuple[np.ndarray, bool]:
    """Evaluate the selected discrete gradient; flags midpoint fallbacks."""
    if kind.variant == "avf":
        return avf_gradient(V, z, zp), False
    if kind.variant == "midpoint":
        return midpoint_gradient(V, z, zp), False
    z, zp = _as_pair(V, z, zp)
    if _coincide(z, zp):
        return _gradient(V, z), False
    try:
        t1, t2 = _theta_pair(V, z, zp)
    except DegenerateDenominator:
        return midpoint_gradient(V, z, zp), True
    return t1 * _gradient(V, z) + t2 * _gradient(V, zp), False


def chain_rule_residual(kind: DiscreteGradientKind, V: ScalarField, z, zp) -> float:
    """``|<gbar(z, z'), z - z'> - (V(z) - V(z'))|`` for the selected kind."""
    z = np.asarray(z, dtype=float)
    zp = np.asarray(zp, dtype=float)
    g = discrete_gradient_info(kind, V, z, zp)[0]
    return abs(float(g @ (z - zp)) - (V.value(z) - V.value(zp)))
