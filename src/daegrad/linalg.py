"""Dense linear algebra for singular square systems.

This module computes the Moore-Penrose pseudoinverse of a (possibly
singular) square matrix, with the numerical rank set by a fixed relative
singular-value cutoff, together with orthonormal bases of the subspaces
that organize a linear-gradient DAE: the null space of the mass matrix
and the orthogonal complement of its range.  It also provides orthogonal
projections onto such bases and the two matrix predicates used to verify
conservation and dissipation structure: skew-symmetry and negative
semidefiniteness.

Everything operates on plain ``numpy`` float arrays.  Inputs are treated
as immutable and no function keeps state, so all routines are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SubspaceData",
    "pseudo_inverse",
    "project",
    "penrose_residuals",
    "is_skew_symmetric",
    "is_negative_semidefinite",
]


def _as_square(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _max_abs(A: np.ndarray) -> float:
    return float(np.max(np.abs(A))) if A.size else 0.0


@dataclass(frozen=True)
class SubspaceData:
    """Pseudoinverse of a square matrix plus its fundamental subspaces.

    Attributes:
        pinv: the Moore-Penrose pseudoinverse, shape ``(d, d)``.
        rank: numerical rank determined by the singular-value cutoff.
        null_basis: shape ``(d, l)``, orthonormal columns spanning the
            null space; ``l = d - rank``.
        range_perp_basis: shape ``(d, l)``, orthonormal columns spanning
            the orthogonal complement of the range.  For a DAE with this
            mass matrix, these directions read off the implicit
            constraints.
    """

    pinv: np.ndarray
    rank: int
    null_basis: np.ndarray
    range_perp_basis: np.ndarray

    @property
    def nullity(self) -> int:
        return self.null_basis.shape[1]


def pseudo_inverse(A) -> SubspaceData:
    """Compute the pseudoinverse and subspace bases of a square matrix.

    The numerical rank is the number of singular values exceeding the fixed
    cutoff ``d * eps * sigma_max``, the usual scaling for an SVD-based rank
    decision.  Bases are taken from the singular vectors, so they are
    orthonormal to machine precision.

    Raises:
        ValueError: if the input is not square or has non-finite entries.
    """
    A = _as_square(A)
    d = A.shape[0]
    U, s, Vt = np.linalg.svd(A)
    sigma_max = float(s[0]) if s.size else 0.0
    tol = d * np.finfo(float).eps * sigma_max
    rank = int(np.count_nonzero(s > tol))
    pinv = (Vt[:rank].T / s[:rank]) @ U[:, :rank].T if rank else np.zeros((d, d))
    return SubspaceData(
        pinv=pinv,
        rank=rank,
        null_basis=Vt[rank:].T.copy(),
        range_perp_basis=U[:, rank:].copy(),
    )


def project(basis, v) -> np.ndarray:
    """Orthogonal projection of ``v`` onto the span of the basis columns.

    The basis must have orthonormal columns (checked to 1e-10); an empty
    basis projects everything to zero.
    """
    B = np.asarray(basis, dtype=float)
    w = np.asarray(v, dtype=float)
    if B.ndim != 2 or w.ndim != 1 or B.shape[0] != w.shape[0]:
        raise ValueError(f"shape mismatch: basis {B.shape}, vector {w.shape}")
    if B.shape[1] == 0:
        return np.zeros_like(w)
    gram_defect = _max_abs(B.T @ B - np.eye(B.shape[1]))
    if gram_defect > 1e-10:
        raise ValueError(f"basis columns not orthonormal (Gram defect {gram_defect:.2e})")
    return B @ (B.T @ w)


def penrose_residuals(A, pinv) -> np.ndarray:
    """Max-abs residuals of the four Moore-Penrose conditions.

    Returned in the order: ``A P A = A``, ``P A P = P``, ``(P A)^T = P A``,
    ``(A P)^T = A P``.
    """
    A = np.asarray(A, dtype=float)
    P = np.asarray(pinv, dtype=float)
    PA = P @ A
    AP = A @ P
    return np.array(
        [
            _max_abs(A @ PA - A),
            _max_abs(P @ AP - P),
            _max_abs(PA.T - PA),
            _max_abs(AP.T - AP),
        ]
    )


class SkewCheck(NamedTuple):
    passed: bool
    residual: float


def is_skew_symmetric(M, tol: float = 1e-12) -> SkewCheck:
    """Test ``M + M^T = 0`` in the max-abs norm."""
    A = _as_square(M)
    residual = _max_abs(A + A.T)
    return SkewCheck(residual <= tol, residual)


class SemidefiniteCheck(NamedTuple):
    passed: bool
    max_eigenvalue: float


def is_negative_semidefinite(M, tol: float = 1e-12) -> SemidefiniteCheck:
    """Test whether the symmetric part of ``M`` has no eigenvalue above ``tol``."""
    A = _as_square(M)
    top = float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
    return SemidefiniteCheck(top <= tol, top)
