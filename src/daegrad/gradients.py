"""Scalar fields and discrete gradients.

A discrete gradient of a differentiable ``V`` is a two-point map
``gbar(z, z')`` that is consistent (``gbar(z, z) = grad V(z)``) and
satisfies the discrete chain rule

    <gbar(z, z'), z - z'> = V(z) - V(z').

Three constructions are provided:

* ``avf_gradient`` - the average of ``grad V`` along the segment from
  ``z'`` to ``z``, evaluated by 7-node Gauss-Legendre quadrature;
* ``midpoint_gradient`` - the midpoint gradient plus a rank-one
  correction along ``z - z'`` that enforces the chain rule exactly; for
  a quadratic field the midpoint gradient satisfies it already, so the
  result is ``grad V((z + z') / 2)`` with no correction;
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
``(z, z')`` and ``(z', z)`` always sum to one.  A field's ``divergence``
routine returns both one-sided divergences from one evaluation at
``(z, z')``, so each coefficient pair costs one call.  For quadratic fields
the coefficient is exactly one half and the construction coincides with
the average vector field.

An integrator step prepares its fixed ``z'`` once, evaluating ``grad V(z')``
there, and then each ``gbar(z, z')`` evaluates ``grad V(z)`` once; the
public functions are one-shot uses of the same code.

The policy is fixed: none of the constructions takes a tuning parameter.
"""

from __future__ import annotations

import math
import numbers
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

_HINTS = ("quadratic", "separable", "general")

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
    coefficient is exactly one half, and the midpoint gradient is
    ``grad V`` at the midpoint, with no correction and no ``value``
    call); ``"separable"`` means
    ``V(z) = sum_i v_i(z_i)`` with a gradient that also maps a ``(k, dim)``
    stack of points row by row to an array of that shape, so that
    :func:`avf_gradient` evaluates all its quadrature nodes in one call;
    and ``"general"`` promises nothing.  ``cosh_sum_field`` and
    ``convex_quartic_field`` are separable.  Any other field keeps one
    gradient call per node, because its gradient need not accept a stack
    of points: ``X @ z`` of a quadratic field does not map rows.

    ``divergence(z, z0)`` optionally evaluates both one-sided divergences

        D(z, z0) = V(z) - V(z0) - <grad V(z0), z - z0>

    and ``D(z0, z)`` in a cancellation-free way, and returns them as the
    pair ``(D(z, z0), D(z0, z))``.  Supplying it makes the interior-division
    coefficient accurate arbitrarily close to coincidence, where the naive
    three-term formula loses all significant digits.

    ``hessian`` optionally returns the diagonal of ``grad^2 V(z)`` for a
    field whose Hessian is diagonal, as ``V(z) = sum_i v_i(z_i)`` has.
    Under the ``"separable"`` hint it must also map a ``(k, dim)`` stack of
    points row by row, as ``gradient`` does; any other field is read one
    point at a time.  Supplying it lets the integrators build their Newton
    Jacobians from it rather than from forward differences: through the
    averaged and interior-division gradients of any such field, and through
    the midpoint gradient of a ``"quadratic"`` one, whose Hessian is
    constant (``gonzalez`` needs it on ``H`` and on every constraint).
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hint: str = "general"
    divergence: Callable[[np.ndarray, np.ndarray], tuple[float, float]] | None = None
    name: str = ""
    hessian: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if (isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral)
                or self.dim < 1):
            raise ValueError(f"dim must be positive and integral, got {self.dim!r}")
        if self.hint not in _HINTS:
            raise ValueError(f"unknown hint {self.hint!r}, expected one of {_HINTS}")


def quadratic_field(X, linear=None, name: str = "") -> ScalarField:
    """The field ``V(z) = z^T X z / 2 + <b, z>`` for finite symmetric ``X``
    and a finite vector ``b = linear`` of matching length (zero when omitted)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"X must be square, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X coefficients must be finite")
    if not np.allclose(X, X.T, atol=1e-12):
        raise ValueError("X must be symmetric")
    b = np.zeros(X.shape[0]) if linear is None else np.asarray(linear, dtype=float)
    if b.shape != (X.shape[0],):
        raise ValueError(f"linear must have shape ({X.shape[0]},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("linear coefficients must be finite")

    def divergence(z, z0):
        h = np.asarray(z, dtype=float) - np.asarray(z0, dtype=float)
        v = 0.5 * float(h @ (X @ h))
        return v, v

    return ScalarField(
        dim=X.shape[0],
        value=lambda z: 0.5 * float(z @ (X @ z)) + float(b @ z),
        gradient=lambda z: X @ z + b,
        hint="quadratic",
        divergence=divergence,
        name=name,
    )


def linear_field(gamma, name: str = "") -> ScalarField:
    """The field ``V(z) = <gamma, z>`` for a finite vector ``gamma`` (affine
    gradient, so hint quadratic)."""
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"gamma must be a vector, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("gamma coefficients must be finite")
    return ScalarField(
        dim=g.shape[0],
        value=lambda z: float(g @ z),
        gradient=lambda z: g.copy(),
        hint="quadratic",
        divergence=lambda z, z0: (0.0, 0.0),
        name=name,
    )


_SINH_SERIES = tuple(1.0 / math.factorial(2 * k + 3) for k in reversed(range(8)))


def _sinh_minus_identity(h: np.ndarray) -> np.ndarray:
    """``sinh(h) - h`` element-wise; where ``|h| <= 0.5`` the cancellation-free
    Horner sum ``h^3 sum_{k<8} h^(2k) / (2k+3)!``, which reaches double precision.
    The direct difference is evaluated, and used where ``|h| <= 0.5`` fails,
    only when ``max |h|`` exceeds 0.5 or is NaN.
    The sum runs in place in one buffer, rounded in the order of
    ``poly = poly h^2 + c`` per coefficient and ``series = (h h^2) poly``."""
    h2 = h * h
    series = h2 * _SINH_SERIES[0]
    series += _SINH_SERIES[1]
    for c in _SINH_SERIES[2:]:
        series *= h2
        series += c
    series *= h * h2
    if np.maximum.reduce(np.abs(h)) <= 0.5:
        return series
    return np.where(np.abs(h) <= 0.5, series, np.sinh(h) - h)


def cosh_sum_field(dim: int, name: str = "") -> ScalarField:
    """The strictly convex field ``V(u) = sum_i cosh(u_i)``.

    ``D(z, z0)`` sums ``cosh(z0) 2 s^2 + sinh(z0) phi`` and ``D(z0, z)`` sums
    ``cosh(z) 2 s^2 - sinh(z) phi``, with ``h = z - z0``, ``s = sinh(h/2)`` and
    ``phi = sinh(h) - h`` computed once on whole arrays for both, rounded as
    ``((2 cosh(z0)) s) s + sinh(z0) phi`` and ``((2 cosh(z)) s) s - sinh(z) phi``.
    ``sinh`` and the kernel are odd, so each entry is bitwise what the
    one-sided formula gives on its own.  A Horner series for small ``h`` keeps
    ``phi``, and so the divergences, accurate near coincidence.
    """

    def divergence(z, z0):
        z = np.asarray(z, dtype=float)
        z0 = np.asarray(z0, dtype=float)
        h = z - z0
        s = np.sinh(0.5 * h)
        phi = _sinh_minus_identity(h)
        return (float(np.add.reduce(np.cosh(z0) * 2.0 * s * s + np.sinh(z0) * phi)),
                float(np.add.reduce(np.cosh(z) * 2.0 * s * s - np.sinh(z) * phi)))

    return ScalarField(
        dim=dim,
        value=lambda u: float(np.sum(np.cosh(u))),
        gradient=lambda u: np.sinh(u),
        hint="separable",
        divergence=divergence,
        name=name,
        hessian=lambda u: np.cosh(u),
    )


def convex_quartic_field(curvature, name: str = "") -> ScalarField:
    """``V(z) = sum_i (z_i^4 / 4 + c_i z_i^2 / 2)`` with finite ``c_i >= 0``.

    ``curvature`` is the 1-D array of the ``c_i``; any other shape, or a
    negative or non-finite entry, raises ``ValueError``.

    Strictly convex; with ``h = z - z0`` the divergences have the closed
    component forms ``h^2 ((6 a^2 + 4 a h + h^2) / 4 + c / 2)`` for ``D(z, z0)``
    (``a = z0``) and ``h^2 ((6 b^2 - 4 b h + h^2) / 4 + c / 2)`` for ``D(z0, z)``
    (``b = z``), which are cancellation-free.
    """
    c = np.asarray(curvature, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"curvature must be one coefficient per component, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("curvature coefficients must be finite")
    if np.any(c < 0):
        raise ValueError("curvature coefficients must be nonnegative")

    half_c = c / 2.0

    def divergence(z, z0):
        b = np.asarray(z, dtype=float)
        a = np.asarray(z0, dtype=float)
        h = b - a
        hh = h * h
        return (float(np.add.reduce(hh * ((6.0 * a * a + 4.0 * a * h + hh) / 4.0 + half_c))),
                float(np.add.reduce(hh * ((6.0 * b * b - 4.0 * b * h + hh) / 4.0 + half_c))))

    return ScalarField(
        dim=c.shape[0],
        value=lambda z: float(np.sum(0.25 * z**4 + 0.5 * c * z**2)),
        gradient=lambda z: z**3 + c * z,
        hint="separable",
        divergence=divergence,
        name=name,
        hessian=lambda z: 3.0 * z**2 + c,
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


def _coincide(z: np.ndarray, dd: float) -> bool:
    """Whether ``z`` and a point at squared distance ``dd`` count as equal.

    ``math.sqrt`` of a dot product is bitwise what ``np.linalg.norm`` gives
    for a 1-D float vector, without its per-call overhead.
    """
    return math.sqrt(dd) <= COINCIDENCE_RTOL * max(1.0, math.sqrt(float(z @ z)))


def _point(V: ScalarField, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (V.dim,):
        raise ValueError(f"points must have shape ({V.dim},), got {z.shape}")
    return z


def _gradient(V: ScalarField, z) -> np.ndarray:
    """``grad V(z)`` at one point as a float vector of shape ``(V.dim,)``;
    every single-point gradient read in the library comes here.  It accepts
    an array, a list or, for ``dim`` 1, a float, and raises ``ValueError``
    on any other size."""
    return np.asarray(V.gradient(z), dtype=float).reshape(V.dim)


def _hessian(V: ScalarField, z) -> np.ndarray:
    """The diagonal of ``grad^2 V`` at one point, shape ``(V.dim,)``, or at
    each row of a ``(k, V.dim)`` stack through :func:`_rows`, which gives
    the same result under any hint; every Hessian read in the library comes
    here."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        return np.asarray(V.hessian(z), dtype=float).reshape(V.dim)
    return _rows(V, V.hessian, _hessian, z, "hessian")


def _rows(V: ScalarField, stacked, one, points, what: str) -> np.ndarray:
    """``one(V, p)`` at each row ``p`` of a ``(k, V.dim)`` stack, each copied
    into its row of a fresh array (a field may reuse one buffer), or under
    the ``"separable"`` hint ``stacked(points)`` in one call, which must
    return the stack's shape, or ``ValueError`` is raised naming ``what``."""
    if V.hint != "separable":
        rows = np.empty_like(points)
        for i, point in enumerate(points):
            rows[i] = one(V, point)
        return rows
    out = np.asarray(stacked(points), dtype=float)
    if out.shape != points.shape:
        raise ValueError(f"field {V.name or '<unnamed>'} is hinted 'separable', but its {what} "
                         f"mapped points of shape {points.shape} to shape {out.shape}")
    return out


def _has_derivative(variant: str, V: ScalarField) -> bool:
    """Whether the discrete gradient ``variant`` of ``V`` has a derivative."""
    return V.hessian is not None and (variant != "midpoint" or V.hint == "quadratic")


@cache
def _avf_rule() -> tuple[np.ndarray, np.ndarray]:
    # built on first use, so that ``import daegrad`` need not load numpy.polynomial
    nodes, weights = np.polynomial.legendre.leggauss(7)
    return 0.5 * (nodes + 1.0), 0.5 * weights


class _PreparedBase:
    """The discrete gradient of variant ``kind`` of ``V`` about a fixed ``zp``.

    What depends on ``zp`` alone is evaluated once: here the shape check and,
    for ``"proper"``, ``grad V(zp)`` (a copy, since a gradient may reuse one
    buffer); ``V(zp)`` at the first call whose formula needs it (a proper
    gradient with a divergence needs it only on a fallback).
    Calling the base at ``z`` returns ``(gbar(z, zp), fell_back)``; a proper
    gradient leaves ``grad V(z)``, evaluated once per call, in ``grad``,
    ``z`` in ``at`` and its interior-division coefficient, None after a
    fallback, in ``theta``, for :meth:`fell_back` and :meth:`derivative`.
    """

    __slots__ = ("variant", "V", "zp", "gp", "vp", "grad", "at", "theta", "hess")

    def __init__(self, kind: DiscreteGradientKind, V: ScalarField, zp):
        self.variant, self.V, self.zp = kind.variant, V, _point(V, zp)
        self.gp = self.vp = self.grad = self.at = self.theta = self.hess = None
        if self.variant == "proper":
            self.gp = _gradient(V, self.zp).copy()

    def __call__(self, z) -> tuple[np.ndarray, bool]:
        V, zp = self.V, self.zp
        z = _point(V, z)
        if self.variant == "avf":
            return self._avf(z), False
        if self.variant == "midpoint" and V.hint == "quadratic":
            return _gradient(V, 0.5 * (z + zp)).copy(), False
        delta = z - zp
        dd = float(delta @ delta)
        if self.variant == "midpoint":
            if _coincide(z, dd):
                return _gradient(V, z).copy(), False
            return self._corrected_midpoint(z, delta, dd), False
        g = self.grad = _gradient(V, z)
        self.at, self.theta = z.copy(), None
        if _coincide(z, dd):
            self.theta = 0.5, None
            return g.copy(), False
        try:
            t1, t2, den = self._theta_pair(z, g, delta, dd)
        except DegenerateDenominator:
            self.grad = g.copy()  # the midpoint gradient may reuse its buffer
            return self._corrected_midpoint(z, delta, dd), True
        self.theta = t1, den
        return t1 * g + t2 * self.gp, False

    def fell_back(self, z) -> bool:
        """``self(z)[1]``, read from the last call if that was at ``z``."""
        if self.variant != "proper":
            return False
        if self.at is None or not np.array_equal(self.at, z):
            self(z)
        return self.theta is None

    def derivative(self, z):
        """``d gbar(z, zp) / dz`` as ``(diagonal, rank_one)``, meaning
        ``diag(diagonal) + outer(*rank_one)`` (``rank_one`` may be None), or
        None where :func:`_has_derivative` says there is none, or where a
        proper gradient falls back at ``z``.

        For the midpoint gradient of a quadratic field, ``grad V`` at the
        midpoint ``m``, it is ``grad^2 V(m) / 2``, exact because the gradient
        is affine.  For the average vector field it is
        ``sum_i w_i c_i grad^2 V(p_i)`` over the quadrature nodes
        ``p_i = zp + c_i (z - zp)``.  For the proper
        gradient, with ``u = grad V(z) - grad V(zp)``, ``delta = z - zp`` and
        ``h = grad^2 V(z)``, it is ``theta h + outer(u, dtheta)`` where
        ``dtheta = (u - theta (u + h delta)) / den`` and ``den`` is the
        curvature term; at coincidence, or for an affine gradient, ``h / 2``.
        Like :meth:`fell_back` it reads the last call or makes one, and
        then leaves ``grad^2 V(z)`` in ``hess``.
        """
        V, zp = self.V, self.zp
        if not _has_derivative(self.variant, V):
            return None
        z = _point(V, z)
        if self.variant == "midpoint":
            return 0.5 * _hessian(V, 0.5 * (z + zp)), None
        if self.variant == "avf":
            nodes, weights = _avf_rule()
            return (weights * nodes) @ _hessian(V, zp + nodes[:, None] * (z - zp)), None
        if self.fell_back(z):
            return None
        h = self.hess = _hessian(V, z)
        t1, den = self.theta
        if den is None:
            return t1 * h, None
        u = self.grad - self.gp
        return t1 * h, (u, (u - t1 * (u + h * (z - zp))) / den)

    def _avf(self, z):
        V, zp = self.V, self.zp
        if np.logical_and.reduce(z == zp):
            return _gradient(V, z).copy()
        nodes, weights = _avf_rule()
        points = zp + nodes[:, None] * (z - zp)
        return weights @ _rows(V, V.gradient, _gradient, points, "gradient")

    def _corrected_midpoint(self, z, delta, dd):
        """``grad V`` at the midpoint plus the rank-one chain-rule correction."""
        g = _gradient(self.V, 0.5 * (z + self.zp))
        return g + (self.V.value(z) - self._base_value() - float(g @ delta)) / dd * delta

    def _base_value(self) -> float:
        """``V(zp)``, read from the field once per base."""
        if self.vp is None:
            self.vp = self.V.value(self.zp)
        return self.vp

    def _theta_pair(self, z, g, delta, dd) -> tuple[float, float, float | None]:
        """``theta(z, zp)``, ``theta(zp, z)`` and their denominator, the
        curvature term, with ``g = grad V(z)``, from one ``V.divergence(z, zp)``
        call or else the three-term formulas, which share one curvature
        evaluation; an affine gradient gives one half each and no term."""
        if self.V.hint == "quadratic":
            return 0.5, 0.5, None
        if self.V.divergence is not None:
            d1, d2 = map(float, self.V.divergence(z, self.zp))
        else:
            d1 = self.V.value(z) - self._base_value() - float(self.gp @ delta)
            d2 = float((g - self.gp) @ delta) - d1
        den = d1 + d2
        if abs(den) <= _DENOMINATOR_TOL * dd:
            raise DegenerateDenominator(
                f"curvature term {den:.3e} below tolerance for |z - z'|^2 = {dd:.3e}"
            )
        return d1 / den, d2 / den, den


_AVF, _MIDPOINT, _PROPER = map(DiscreteGradientKind, ("avf", "midpoint", "proper"))


def avf_gradient(V: ScalarField, z, zp) -> np.ndarray:
    """Average of ``grad V`` over the segment from ``zp`` to ``z``.

    7-node Gauss-Legendre quadrature: it integrates a gradient of degree up
    to 13 exactly, so it is exact for polynomial ``V`` of degree up to 14.
    The seven nodes are one ``(7, dim)`` array.  A field hinted
    ``"separable"`` gets that whole array in one gradient call, which must
    return an array of the same shape, or ``ValueError`` is raised.  Every
    other field gets one call per node, read by :func:`_gradient` and
    copied into its row as soon as it returns, so it may reuse one buffer
    between calls and need not broadcast over rows (``X @ z`` does not).
    The midpoint and proper gradients read it the same way, and at
    coincident points all three return a copy of ``grad V(z)``.
    """
    return _PreparedBase(_AVF, V, zp)(z)[0]


def midpoint_gradient(V: ScalarField, z, zp) -> np.ndarray:
    """Midpoint gradient with the rank-one chain-rule correction.

    A field hinted ``"quadratic"`` has an affine gradient, so
    ``<grad V(m), z - z'> = V(z) - V(z')`` holds exactly at the midpoint
    ``m``, the correction vanishes, and a copy of ``grad V(m)`` is returned
    without a ``value`` call; coincident points are no exception.
    """
    return _PreparedBase(_MIDPOINT, V, zp)(z)[0]


def theta_coefficient(V: ScalarField, z, zp) -> float:
    """Interior-division coefficient ``theta(z, z')``.

    Requires ``z != z'``.  Short-circuits to exactly one half for fields
    with an affine gradient; raises :class:`DegenerateDenominator` when the
    curvature term is too small relative to ``||z - z'||^2``.
    """
    base = _PreparedBase(_PROPER, V, zp)
    z = _point(V, z)
    delta = z - base.zp
    dd = float(delta @ delta)
    if _coincide(z, dd):
        raise ValueError("theta_coefficient requires distinct points")
    return base._theta_pair(z, _gradient(V, z), delta, dd)[0]


def proper_gradient(V: ScalarField, z, zp) -> np.ndarray:
    """Discrete gradient ``theta(z,z') grad V(z) + theta(z',z) grad V(z')``.

    Coincident points (within ``1e-14 * max(1, ||z||)``) return the exact
    gradient.  A degenerate curvature term yields the midpoint gradient
    instead; use :func:`discrete_gradient_info` to observe which branch was
    taken.
    """
    return _PreparedBase(_PROPER, V, zp)(z)[0]


def discrete_gradient_info(
    kind: DiscreteGradientKind, V: ScalarField, z, zp
) -> tuple[np.ndarray, bool]:
    """Evaluate the selected discrete gradient; flags midpoint fallbacks.

    ``zp`` is the base point, or a :class:`_PreparedBase` of the same
    ``kind`` and ``V`` that a step prepared at its base point once.
    """
    if not isinstance(zp, _PreparedBase):
        return _PreparedBase(kind, V, zp)(z)
    if zp.V is not V or zp.variant != kind.variant:
        raise ValueError("the prepared base belongs to another field or discrete gradient")
    return zp(z)


def chain_rule_residual(kind: DiscreteGradientKind, V: ScalarField, z, zp) -> float:
    """``|<gbar(z, z'), z - z'> - (V(z) - V(z'))|`` for the selected kind."""
    z = np.asarray(z, dtype=float)
    zp = np.asarray(zp, dtype=float)
    g = discrete_gradient_info(kind, V, z, zp)[0]
    return abs(float(g @ (z - zp)) - (V.value(z) - V.value(zp)))
