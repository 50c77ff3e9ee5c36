"""Tests for the pseudoinverse and subspace machinery.

The main oracle is a hand-derived pseudoinverse of the cyclic difference
matrix: writing A = P - I with P the 3-cycle permutation, the DFT
diagonalizes both, and inverting the nonzero symbol values gives
A^+ = (P^2 - I)/3 exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daegrad.linalg import (
    SubspaceData,
    is_negative_semidefinite,
    is_skew_symmetric,
    penrose_residuals,
    project,
    pseudo_inverse,
)

CYCLE = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
DIFFERENCE = CYCLE - np.eye(3)  # rank 2, null space spanned by (1, 1, 1)


def test_cyclic_difference_pinv_matches_dft_oracle():
    expected = (CYCLE @ CYCLE - np.eye(3)) / 3.0
    sub = pseudo_inverse(DIFFERENCE)
    assert np.allclose(sub.pinv, expected, atol=1e-14)
    assert sub.rank == 2


def test_cyclic_difference_null_space_is_ones():
    sub = pseudo_inverse(DIFFERENCE)
    assert sub.null_basis.shape == (3, 1)
    direction = sub.null_basis[:, 0]
    assert np.allclose(np.abs(direction), 1.0 / np.sqrt(3.0), atol=1e-14)
    assert np.allclose(DIFFERENCE @ direction, 0.0, atol=1e-14)
    # rows of A sum to zero, so the range misses the same direction
    assert np.allclose(DIFFERENCE.T @ sub.range_perp_basis, 0.0, atol=1e-14)


def test_rank_one_rectangular_pattern():
    A = np.array([[0.0, 2.0], [0.0, 0.0]])
    sub = pseudo_inverse(A)
    assert np.allclose(sub.pinv, np.array([[0.0, 0.0], [0.5, 0.0]]), atol=1e-15)
    assert sub.rank == 1
    assert sub.nullity == 1


def test_diagonal_projector_is_its_own_pinv():
    A = np.diag([1.0, 0.0])
    sub = pseudo_inverse(A)
    assert np.allclose(sub.pinv, A, atol=1e-15)


def test_zero_matrix_has_zero_pinv_and_full_null_space():
    sub = pseudo_inverse(np.zeros((4, 4)))
    assert sub.rank == 0
    assert np.all(sub.pinv == 0.0)
    assert sub.null_basis.shape == (4, 4)
    assert sub.null_basis.shape[1] == 4 - sub.rank


def test_invertible_matrix_pinv_is_inverse():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    sub = pseudo_inverse(A)
    assert np.allclose(sub.pinv @ A, np.eye(4), atol=1e-10)
    assert sub.nullity == 0
    assert sub.range_perp_basis.shape == (4, 0)


def test_pinv_agrees_with_reference_implementation():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(1, 9))
        A = rng.normal(size=(d, d))
        if rng.random() < 0.5 and d > 1:
            r = int(rng.integers(1, d))
            A = rng.normal(size=(d, r)) @ rng.normal(size=(r, d))
        assert np.allclose(pseudo_inverse(A).pinv, np.linalg.pinv(A), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
@example(dim=2, seed=181917)  # condition number ~1200; failed a bound in ||A|| alone
def test_penrose_identities_hold(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim))
    if seed % 2 == 0 and dim > 1:
        A[dim - 1] = A[0]  # force rank deficiency
    sub = pseudo_inverse(A)
    # rounding in P A P = P grows with ||A^+|| as well as with ||A||
    scale = max(np.linalg.norm(A), 1.0) * max(np.linalg.norm(sub.pinv), 1.0)
    assert max(penrose_residuals(A, sub.pinv)) <= 1e-11 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_subspace_bases_are_orthonormal_and_complementary(dim, seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, dim))
    A = rng.normal(size=(dim, r)) @ rng.normal(size=(r, dim))
    sub = pseudo_inverse(A)
    for basis in (sub.null_basis, sub.range_perp_basis):
        if basis.shape[1]:
            assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    assert sub.null_basis.shape[1] == dim - sub.rank


def test_project_onto_null_direction():
    sub = pseudo_inverse(DIFFERENCE)
    v = np.ones(3)
    assert np.allclose(project(sub.null_basis, v), v, atol=1e-13)
    w = np.array([1.0, -1.0, 0.0])  # orthogonal to (1,1,1)
    assert np.allclose(project(sub.null_basis, w), 0.0, atol=1e-13)


def test_project_idempotent_on_random_vectors():
    rng = np.random.default_rng(3)
    basis = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    v = rng.normal(size=5)
    once = project(basis, v)
    assert np.allclose(project(basis, once), once, atol=1e-12)


def test_project_rejects_non_orthonormal_basis():
    bad = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        project(bad, np.ones(3))


def test_project_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        project(np.eye(3), np.ones(2))


def test_project_with_empty_basis_returns_zeros():
    basis = np.zeros((3, 0))
    assert np.all(project(basis, np.array([1.0, 2.0, 3.0])) == 0.0)


def test_pseudo_inverse_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        pseudo_inverse(np.ones((2, 3)))
    with pytest.raises(ValueError):
        pseudo_inverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_rank_tolerance_controls_cutoff():
    A = np.diag([1.0, 1e-13])
    assert pseudo_inverse(A).rank == 2  # cutoff d * eps * sigma_max ~ 4e-16
    assert pseudo_inverse(np.diag([1.0, 1e-17])).rank == 1


def test_skew_check():
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    result = is_skew_symmetric(S)
    assert result.passed and result.residual == 0.0
    result = is_skew_symmetric(np.eye(2))
    assert not result.passed
    assert result.residual == pytest.approx(2.0)


def test_negative_semidefinite_check():
    assert is_negative_semidefinite(-np.eye(3)).passed
    assert is_negative_semidefinite(np.zeros((2, 2))).passed
    # skew part is ignored: only the symmetric part matters
    assert is_negative_semidefinite(np.array([[0.0, 5.0], [-5.0, 0.0]])).passed
    result = is_negative_semidefinite(np.diag([1.0, -1.0]))
    assert not result.passed
    assert result.max_eigenvalue == pytest.approx(1.0)


def test_subspace_data_reports_tolerance_used():
    sub = pseudo_inverse(np.eye(2))
    assert isinstance(sub, SubspaceData)
