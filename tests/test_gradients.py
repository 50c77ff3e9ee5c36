"""Tests for scalar fields and the three discrete-gradient variants.

Frozen oracles used here, all derivable by hand:

* 1-D cosh between 0 and 1: the exact mean-value gradient is cosh(1) - 1,
  and the interior-division coefficient is tanh(1/2).
* In one dimension the interior-division gradient collapses to the exact
  divided difference (V(b) - V(a)) / (b - a) for any strictly convex V.
* On quadratic fields the midpoint rule integrates the affine gradient
  exactly, so every variant must agree with X (z + z') / 2 + b.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daegrad import gradients
from daegrad.errors import DegenerateDenominator
from daegrad.gradients import (
    DiscreteGradientKind,
    ScalarField,
    avf_gradient,
    chain_rule_residual,
    cosh_sum_field,
    convex_quartic_field,
    discrete_gradient_info,
    linear_field,
    midpoint_gradient,
    proper_gradient,
    quadratic_field,
    theta_coefficient,
)
from daegrad.problems import _pendulum_fields

finite_coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def gauss_average(V, z, zp, order=20):
    """Independent quadrature oracle for the averaged gradient."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    xi = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    total = np.zeros_like(np.asarray(z, dtype=float))
    for x, wt in zip(xi, w):
        total += wt * V.gradient((1.0 - x) * np.asarray(z) + x * np.asarray(zp))
    return total


# ---------------------------------------------------------------- fields


def test_quadratic_field_value_and_gradient():
    X = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([0.5, -1.0])
    V = quadratic_field(X, linear=b)
    z = np.array([1.0, 2.0])
    assert V.value(z) == pytest.approx(0.5 * z @ X @ z + b @ z)
    assert np.allclose(V.gradient(z), X @ z + b)
    assert V.hint == "quadratic"


def test_quadratic_field_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        quadratic_field(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_linear_field_has_constant_gradient_and_zero_divergence():
    V = linear_field([2.0, -1.0])
    assert V.value(np.array([3.0, 4.0])) == pytest.approx(2.0)
    assert np.allclose(V.gradient(np.zeros(2)), [2.0, -1.0])
    assert V.divergence(np.array([1.0, 1.0]), np.array([0.3, -0.2])) == (0.0, 0.0)


def test_cosh_sum_field_matches_formulas():
    V = cosh_sum_field(3)
    z = np.array([0.2, -0.4, 1.1])
    assert V.value(z) == pytest.approx(np.sum(np.cosh(z)))
    assert np.allclose(V.gradient(z), np.sinh(z))


def direct_divergence(V, z, z0):
    """The three-term definition ``V(z) - V(z0) - <grad V(z0), z - z0>``."""
    return V.value(z) - V.value(z0) - V.gradient(z0) @ (z - z0)


def test_cosh_divergence_matches_definition_at_moderate_offsets():
    V = cosh_sum_field(2)
    z0 = np.array([0.3, -0.7])
    z = z0 + np.array([0.9, 0.4])
    d1, d2 = V.divergence(z, z0)
    assert d1 == pytest.approx(direct_divergence(V, z, z0), rel=1e-13)
    assert d2 == pytest.approx(direct_divergence(V, z0, z), rel=1e-13)


def test_cosh_divergence_series_branch_agrees_with_direct_formula():
    # the sinh(h) - h kernel switches from a series to direct evaluation at
    # |h| = 0.5; both sides of the switch must match the defining formula
    V = cosh_sum_field(1)
    z0 = np.array([0.4])
    for h in (0.4999999, 0.5000001):
        a, b = z0[0], z0[0] + h
        d1, d2 = V.divergence(z0 + h, z0)
        assert d1 == pytest.approx(math.cosh(b) - math.cosh(a) - math.sinh(a) * h, rel=1e-12)
        assert d2 == pytest.approx(math.cosh(a) - math.cosh(b) + math.sinh(b) * h, rel=1e-12)


def exact_cosh_divergence(z, z0, terms=40):
    """``D(z, z0)`` of the cosh sum in exact rational arithmetic.

    Sums the Taylor series of ``cosh`` about each ``z0_i``, whose
    coefficients are ``cosh(z0_i)`` and ``sinh(z0_i)`` (themselves exact
    series).  For ``|z0_i| <= 3`` and ``|z_i - z0_i| <= 2`` the truncation
    is far below double precision.
    """
    total = Fraction(0)
    for zi, ai in zip(z, z0):
        a = Fraction(float(ai))
        h = Fraction(float(zi)) - a
        a_terms = [a**n / math.factorial(n) for n in range(terms)]
        cosh_a, sinh_a = sum(a_terms[0::2]), sum(a_terms[1::2])
        total += sum(
            (cosh_a if n % 2 == 0 else sinh_a) * h**n / math.factorial(n) for n in range(2, terms)
        )
    return total


# |h| from 1e-12 to 2, on both sides of the series/direct switch at |h| = 0.5
KERNEL_OFFSETS = (1e-12, 1e-8, 1e-4, 0.1, 0.3, 0.4999999, 0.5, 0.5000001, 0.7, 1.0, 2.0)
KERNEL_BASES = (-2.5, -1.3, 0.0, 0.4, 2.1)


def assert_exact_cosh_divergences(V, z, z0, case):
    """Both entries of ``V.divergence(z, z0)`` within 1e-15 of the exact series."""
    d1, d2 = V.divergence(z, z0)
    exact = exact_cosh_divergence(z, z0)
    assert abs(Fraction(d1) - exact) <= 1e-15 * exact, case
    exact = exact_cosh_divergence(z0, z)
    assert abs(Fraction(d2) - exact) <= 1e-15 * exact, case


@pytest.mark.parametrize("a", KERNEL_BASES)
def test_cosh_divergence_matches_exact_series(a):
    V = cosh_sum_field(1)
    for m in KERNEL_OFFSETS:
        for h in (m, -m):
            z0 = np.array([a])
            assert_exact_cosh_divergences(V, z0 + h, z0, (a, h))
    # all offsets at once, as components of one vector
    hs = np.array(KERNEL_OFFSETS + tuple(-m for m in KERNEL_OFFSETS))
    z0 = np.full(hs.size, a)
    assert_exact_cosh_divergences(cosh_sum_field(hs.size), z0 + hs, z0, a)


def test_sinh_minus_identity_series_branch_is_accurate():
    # below |h| = 0.5 the direct difference sinh(h) - h cancels badly; the
    # polynomial branch must not
    hs = np.array([1e-12, 1e-6, 1e-3, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5])
    hs = np.concatenate([hs, -hs])
    got = gradients._sinh_minus_identity(hs)
    for h, value in zip(hs, got):
        x = Fraction(float(h))
        exact = sum(x ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(1, 20))
        assert abs(Fraction(float(value)) - exact) <= 1e-15 * abs(exact), h


def test_sinh_minus_identity_selects_the_branch_entry_by_entry():
    # one entry above 0.5 switches to the direct branch; every entry must
    # still be bitwise what its own branch gives
    hs = np.array([0.05, -0.3, 0.5, 0.51, -0.7, 1e-9, 3.0, -0.5000001])
    small = np.abs(hs) <= 0.5
    got = gradients._sinh_minus_identity(hs)
    assert np.array_equal(got[small], gradients._sinh_minus_identity(hs[small]))
    assert np.array_equal(got[~small], (np.sinh(hs) - hs)[~small])


def _sinh_minus_identity_out_of_place(h):
    """The Horner loop that ``_sinh_minus_identity`` runs in place, kept as
    the reference for its rounding order."""
    h2 = h * h
    poly = gradients._SINH_SERIES[0]
    for c in gradients._SINH_SERIES[1:]:
        poly = poly * h2 + c
    series = h * h2 * poly
    small = np.abs(h) <= 0.5
    if small.all():
        return series
    return np.where(small, series, np.sinh(h) - h)


@pytest.mark.parametrize("low, high", [(0.0, 0.5), (0.5, 4.0), (0.0, 1.5)],
                         ids=["series", "direct", "mixed"])
def test_sinh_minus_identity_rounds_as_the_out_of_place_horner_loop(low, high):
    rng = np.random.default_rng(37)
    for size in (1, 7, 128):
        h = rng.uniform(low, high, size) * rng.choice([-1.0, 1.0], size)
        assert np.array_equal(gradients._sinh_minus_identity(h),
                              _sinh_minus_identity_out_of_place(h))
    small = np.abs(h) <= 0.5
    assert small.any() == (low < 0.5) and (~small).any() == (high > 0.5)


@pytest.mark.parametrize("h", [
    [0.5, -0.5, 0.25],
    [0.5, math.nan, -0.1],
    [math.inf, 0.2, -0.5],
    [-math.inf, 0.3],
    [math.nan],
    [0.5, 0.5000000000000001, -0.5],
], ids=["half", "nan", "inf", "minus-inf", "all-nan", "just-above-half"])
def test_sinh_minus_identity_matches_the_out_of_place_loop_on_edge_entries(h):
    # the branch test reads max |h| once: NaN and inf entries must take the
    # direct branch where the entry-wise test did, and |h| = 0.5 the series
    h = np.array(h)
    with np.errstate(invalid="ignore"):  # sinh(inf) - inf
        got = gradients._sinh_minus_identity(h)
        want = _sinh_minus_identity_out_of_place(h)
    assert got.tobytes() == want.tobytes()


def test_cosh_divergence_vanishes_at_coincidence():
    V = cosh_sum_field(4)
    for z in (np.zeros(4), np.array([0.3, -2.5, 1e-9, 2.9]), np.full(4, -0.5)):
        assert V.divergence(z, z) == (0.0, 0.0)


def test_quartic_field_divergence_closed_form():
    V = convex_quartic_field([0.5])
    z0, z = np.array([0.7]), np.array([1.0])
    d1, d2 = V.divergence(z, z0)
    assert d1 == pytest.approx(direct_divergence(V, z, z0), rel=1e-13)
    assert d2 == pytest.approx(direct_divergence(V, z0, z), rel=1e-13)


def builtin_fields(dim):
    """One field of each built-in kind, with a divergence routine each."""
    X = np.diag(np.arange(1.0, dim + 1.0)) + 0.1
    return (
        quadratic_field(X, linear=np.full(dim, 0.5)),
        linear_field(np.linspace(-1.0, 1.0, dim)),
        cosh_sum_field(dim),
        convex_quartic_field(np.linspace(0.0, 2.0, dim)),
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(finite_coords, finite_coords), min_size=1, max_size=5))
def test_divergence_pair_is_symmetric_and_sums_to_curvature_property(points):
    z0 = np.array([p[0] for p in points])
    z = np.array([p[1] for p in points])
    for V in builtin_fields(z.size):
        forward, backward = V.divergence(z, z0), V.divergence(z0, z)
        assert backward == forward[::-1]
        delta = z - z0
        # closer than this, the two gradient evaluations of the reference
        # curvature cancel too much for a 1e-12 comparison
        if float(delta @ delta) < 1e-2:
            continue
        curvature = float((V.gradient(z) - V.gradient(z0)) @ delta)
        assert sum(forward) == pytest.approx(curvature, rel=1e-12), V


@pytest.mark.parametrize("hint", ["quadratic", "separable", "general"])
def test_scalar_field_accepts_known_hints(hint):
    assert ScalarField(1, lambda u: 0.0, lambda u: 0.0, hint=hint).hint == hint


@pytest.mark.parametrize("hint", ["strictly_convex", "convex"])
def test_scalar_field_rejects_unknown_hints(hint):
    with pytest.raises(ValueError, match="unknown hint"):
        ScalarField(1, lambda u: 0.0, lambda u: 0.0, hint=hint)


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: ScalarField(0, lambda u: 0.0, lambda u: 0.0), "dim must be positive"),
        (lambda: quadratic_field(np.ones((2, 3))), "must be square"),
        (lambda: convex_quartic_field([1.0, -0.5]), "must be nonnegative"),
        (lambda: convex_quartic_field(np.ones((2, 2))), "one coefficient per component"),
        (lambda: convex_quartic_field(1.0), "one coefficient per component"),
        (lambda: convex_quartic_field([math.nan]), "must be finite"),
        (lambda: convex_quartic_field([1.0, math.inf]), "must be finite"),
        (lambda: cosh_sum_field(2.5), "dim must be positive"),
        (lambda: quadratic_field(np.eye(3), linear=np.ones(2)), r"linear must have shape \(3,\)"),
        (lambda: quadratic_field(np.eye(3), linear=np.ones((3, 3))), r"linear must have shape \(3,\)"),
        (lambda: linear_field(np.ones((2, 2))), "gamma must be a vector"),
        (lambda: quadratic_field(np.array([[math.inf]])), "X coefficients must be finite"),
        (lambda: quadratic_field(np.array([[math.nan]])), "X coefficients must be finite"),
        (lambda: quadratic_field(np.eye(2), linear=[math.inf, 0.0]),
         "linear coefficients must be finite"),
        (lambda: linear_field([math.nan, 1.0]), "gamma coefficients must be finite"),
        (lambda: cosh_sum_field(True), "dim must be positive"),
    ],
    ids=["zero-dim", "nonsquare-quadratic", "negative-curvature", "matrix-curvature",
         "scalar-curvature", "nan-curvature", "inf-curvature", "fractional-dim",
         "short-linear", "matrix-linear", "matrix-gamma", "inf-quadratic", "nan-quadratic",
         "inf-linear", "nan-gamma", "bool-dim"],
)
def test_field_constructors_reject_bad_input(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


# ------------------------------------------------- averaged (AVF) variant


def test_avf_1d_cosh_closed_form():
    V = cosh_sum_field(1)
    got = avf_gradient(V, np.array([0.0]), np.array([1.0]))
    assert got[0] == pytest.approx(math.cosh(1.0) - 1.0, abs=1e-14)


def test_avf_matches_high_order_quadrature_oracle():
    V = cosh_sum_field(3)
    rng = np.random.default_rng(1)
    for _ in range(10):
        z, zp = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(avf_gradient(V, z, zp), gauss_average(V, z, zp), atol=1e-13)


def test_avf_exact_on_quadratics_even_at_low_order():
    X = np.array([[3.0, 1.0], [1.0, 2.0]])
    V = quadratic_field(X)
    z, zp = np.array([1.0, -2.0]), np.array([0.5, 4.0])
    expected = X @ (z + zp) / 2.0
    assert np.allclose(avf_gradient(V, z, zp), expected, atol=1e-14)


def test_avf_coincident_points_return_exact_gradient():
    V = cosh_sum_field(2)
    z = np.array([0.3, -1.2])
    assert np.allclose(avf_gradient(V, z, z.copy()), np.sinh(z), atol=0.0)


def sequential_avf(V, z, zp):
    """The 7-node sum accumulated one node at a time, with the summed magnitudes."""
    total, magnitude = np.zeros_like(z), np.zeros_like(z)
    for x, wx in zip(*gradients._avf_rule()):
        g = np.asarray(V.gradient(zp + x * (z - zp)), dtype=float)
        total += wx * g
        magnitude += wx * np.abs(g)
    return total, magnitude


def sample_fields(dim, rng):
    M = rng.normal(size=(dim, dim))
    return (
        cosh_sum_field(dim),
        convex_quartic_field(rng.uniform(0.0, 2.0, size=dim)),
        quadratic_field(M + M.T, linear=rng.normal(size=dim)),
    )


@pytest.mark.parametrize("dim", [1, 3, 64])
def test_batched_avf_matches_sequential_sum(dim):
    rng = np.random.default_rng(dim)
    for V in sample_fields(dim, rng):
        for _ in range(50):
            z, zp = 2.0 * rng.normal(size=dim), 2.0 * rng.normal(size=dim)
            expected, magnitude = sequential_avf(V, z, zp)
            got = avf_gradient(V, z, zp)
            assert got.shape == (dim,)
            # the sums differ only in rounding: relative to the summed magnitudes
            assert np.all(np.abs(got - expected) <= 1e-15 * magnitude)
        assert np.array_equal(avf_gradient(V, z, z.copy()), V.gradient(z))


def test_avf_accepts_a_gradient_that_returns_a_list():
    V = cosh_sum_field(3)
    as_list = ScalarField(3, V.value, lambda u: np.sinh(u).tolist())
    z, zp = np.array([0.4, -1.0, 2.0]), np.array([1.5, 0.2, -0.7])
    assert np.array_equal(avf_gradient(as_list, z, zp), avf_gradient(V, z, zp))


def test_avf_accepts_a_gradient_that_reuses_one_buffer():
    V = cosh_sum_field(3)
    buffer = np.empty(3)

    def gradient(u):
        np.sinh(u, out=buffer)
        return buffer

    shared = ScalarField(3, V.value, gradient)
    z, zp = np.array([0.4, -1.0, 2.0]), np.array([1.5, 0.2, -0.7])
    assert np.array_equal(avf_gradient(shared, z, zp), avf_gradient(V, z, zp))


@pytest.mark.parametrize("dim", [1, 3, 64])
@pytest.mark.parametrize(
    "build",
    [cosh_sum_field, lambda dim: convex_quartic_field(np.linspace(0.0, 2.0, dim))],
    ids=["cosh", "quartic"],
)
def test_avf_evaluates_a_separable_field_in_one_gradient_call(build, dim):
    V = build(dim)
    assert V.hint == "separable"
    shapes = []

    def gradient(u):
        shapes.append(np.shape(u))
        return V.gradient(u)

    rng = np.random.default_rng(dim)
    z, zp = rng.normal(size=dim), rng.normal(size=dim)
    got = avf_gradient(replace(V, gradient=gradient), z, zp)
    assert shapes == [(7, dim)]
    # the row loop is the reference, and the arithmetic is the same
    assert np.array_equal(got, avf_gradient(replace(V, hint="general"), z, zp))


def test_avf_rejects_a_separable_hint_whose_gradient_does_not_map_rows():
    flat = ScalarField(3, lambda u: 0.0, lambda u: np.ones(3), hint="separable", name="flat")
    with pytest.raises(ValueError, match="flat.*'separable'"):
        avf_gradient(flat, np.zeros(3), np.ones(3))


@pytest.mark.parametrize("dg", [avf_gradient, midpoint_gradient, proper_gradient],
                         ids=["avf", "midpoint", "proper"])
def test_a_scalar_gradient_of_a_field_above_one_dimension_is_refused(dg):
    # 1.0 is a gradient only for dim 1; broadcasting it to [1, 1, 1] would
    # make up a gradient the field never gave
    V = ScalarField(3, lambda u: float(np.sum(u)), lambda u: 1.0, name="flat")
    with pytest.raises(ValueError, match="reshape"):
        dg(V, np.array([0.1, 0.2, 0.3]), np.array([0.4, -0.5, 0.6]))


def test_proper_accepts_a_gradient_that_reuses_one_buffer():
    # no divergence routine, so theta comes from the three-term formulas,
    # whose curvature term must not read one buffer twice
    buffer = np.empty(2)

    def value(u):
        return float(np.sum(u**4) / 4.0 + u @ u / 2.0)

    def shared_gradient(u):
        np.add(u**3, u, out=buffer)
        return buffer

    fresh = ScalarField(2, value, lambda u: u**3 + u)
    shared = ScalarField(2, value, shared_gradient)
    z, zp = np.array([0.7, -0.2]), np.array([-0.1, 0.4])
    kind = DiscreteGradientKind("proper")
    got, fell_back = discrete_gradient_info(kind, shared, z, zp)
    want, want_fell_back = discrete_gradient_info(kind, fresh, z, zp)
    assert not fell_back and not want_fell_back
    assert np.array_equal(got, want)


@pytest.mark.parametrize("variant", ["avf", "midpoint", "proper"])
def test_coincident_gradient_is_not_the_fields_buffer(variant):
    # at z == z' every variant is grad V(z); the result must not change when
    # a gradient that reuses one buffer is called again
    buffer = np.empty(2)

    def shared_gradient(u):
        np.add(u**3, u, out=buffer)
        return buffer

    V = ScalarField(2, lambda u: float(np.sum(u**4) / 4.0 + u @ u / 2.0), shared_gradient)
    z = np.array([1.2, -0.4])
    got, _ = discrete_gradient_info(DiscreteGradientKind(variant), V, z, z.copy())
    V.gradient(np.array([5.0, 5.0]))
    assert np.array_equal(got, z**3 + z)


@pytest.mark.parametrize(
    "z, zp, expected",
    [(0.5, 0.5, math.sinh(0.5)), (0.0, 1.0, math.cosh(1.0) - 1.0)],
    ids=["coincident", "distinct"],
)
@pytest.mark.parametrize("variant", ["avf", "midpoint", "proper"])
def test_avf_scalar_gradient_in_one_dimension_keeps_vector_shape(variant, z, zp, expected):
    # a float gradient is read as shape (1,); between distinct points every
    # variant is the divided difference cosh(1) - cosh(0) in one dimension
    V = ScalarField(1, lambda u: math.cosh(u[0]), lambda u: math.sinh(u[0]))
    got, _ = discrete_gradient_info(DiscreteGradientKind(variant), V, np.array([z]), np.array([zp]))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(expected, abs=1e-14)


def exact_power_average(degree, coefficients, z, zp):
    """Component ``i`` is the divided difference ``c_i (z_i^k - zp_i^k) / (z_i - zp_i)``."""
    return np.array([
        float(Fraction(c) * (Fraction(a) ** degree - Fraction(b) ** degree) / (Fraction(a) - Fraction(b)))
        for c, a, b in zip(coefficients, z, zp)
    ])


def avf_power_error(degree):
    rng = np.random.default_rng(degree)
    coefficients = [1.0, 0.5, 2.0]
    c = np.array(coefficients)
    V = ScalarField(3, lambda z: float(np.sum(c * z**degree)), lambda z: degree * c * z ** (degree - 1))
    worst = 0.0
    for _ in range(20):
        z, zp = rng.uniform(-1.5, 1.5, size=3), rng.uniform(-1.5, 1.5, size=3)
        exact = exact_power_average(degree, coefficients, z, zp)
        worst = max(worst, float(np.max(np.abs(avf_gradient(V, z, zp) - exact) / np.max(np.abs(exact)))))
    return worst


def test_avf_is_exact_up_to_degree_fourteen():
    # seven Gauss nodes integrate a gradient of degree 13, so V of degree 14
    assert avf_power_error(14) <= 1e-13


@pytest.mark.parametrize("degree", [15, 16])
def test_avf_is_not_exact_beyond_degree_fourteen(degree):
    assert avf_power_error(degree) >= 1e-8


# ------------------------------------------------------- midpoint variant


def test_midpoint_1d_quartic_hand_value():
    # V = z^4/4 between 0 and 2: gradient at midpoint is 1, correction
    # [V(2)-V(0) - <1, 2>] * 2 / 4 adds 1, so the discrete gradient is 2.
    V = convex_quartic_field([0.0])
    got = midpoint_gradient(V, np.array([2.0]), np.array([0.0]))
    assert got[0] == pytest.approx(2.0, abs=1e-14)


def test_midpoint_exact_on_quadratics():
    X = np.array([[2.0, -1.0], [-1.0, 2.0]])
    b = np.array([1.0, 0.0])
    V = quadratic_field(X, linear=b)
    rng = np.random.default_rng(2)
    for _ in range(10):
        z, zp = rng.normal(size=2), rng.normal(size=2)
        assert np.allclose(midpoint_gradient(V, z, zp), X @ (z + zp) / 2.0 + b, atol=1e-13)


QUADRATIC_X = np.array([[2.0, -1.0, 0.5], [-1.0, 3.0, 0.25], [0.5, 0.25, 1.5]])
QUADRATIC_B = np.array([1.0, -2.0, 0.5])


def _quadratic_fields():
    """Fields hinted quadratic: their midpoint gradient is ``grad V`` at the midpoint."""
    H, g, _ = _pendulum_fields()
    return {
        "quadratic": quadratic_field(QUADRATIC_X, linear=QUADRATIC_B),
        "linear": linear_field([0.5, -1.5, 2.0]),
        "pendulum-H": H,
        "pendulum-g": g,
    }


def _fields_with_a_correction():
    """Fields not hinted quadratic, which keep the rank-one correction."""
    _, _, V_aug = _pendulum_fields()
    return {
        "cosh-sum": cosh_sum_field(4),
        "convex-quartic": convex_quartic_field([0.0, 1.0, 2.5]),
        "pendulum-V-aug": V_aug,
    }


def _point_pairs(dim, seed):
    """Distinct, near and coincident point pairs in ``dim`` dimensions."""
    rng = np.random.default_rng(seed)
    pairs = [(rng.normal(size=dim), rng.normal(size=dim)) for _ in range(8)]
    z = rng.normal(size=dim)
    pairs += [(z, z + 1e-9 * rng.normal(size=dim)), (z, z.copy()), (z, z + 1e-15)]
    return pairs


@pytest.mark.parametrize("name", list(_quadratic_fields()))
def test_midpoint_of_a_quadratic_field_is_its_gradient_at_the_midpoint(name):
    V = _quadratic_fields()[name]
    for z, zp in _point_pairs(V.dim, seed=V.dim):
        got = midpoint_gradient(V, z, zp)
        assert np.array_equal(got, gradients._gradient(V, 0.5 * (z + zp)))


@pytest.mark.parametrize("name", list(_quadratic_fields()))
def test_midpoint_of_a_quadratic_field_calls_no_value(name):
    field, calls = _quadratic_fields()[name], []
    V = replace(field, value=lambda u: calls.append(1) or field.value(u))
    for z, zp in _point_pairs(V.dim, seed=V.dim):
        midpoint_gradient(V, z, zp)
    assert calls == []


def test_midpoint_of_a_quadratic_field_stays_exact_near_coincidence():
    # the correction (V(z) - V(z') - <grad V(m), d>) / |d|^2 is zero in exact
    # arithmetic, but evaluated it is round-off of size eps |V| / |d|, about
    # 5e-4 at |d| = 1e-12 on this field; the exact X m + b is formed in fractions
    V = _quadratic_fields()["quadratic"]
    z, u = np.array([0.7, -1.3, 2.1]), np.array([0.6, 0.0, -0.8])
    X = [[Fraction(x) for x in row] for row in QUADRATIC_X]
    for k in range(2, 13):
        zp = z + 10.0**-k * u
        m = [(Fraction(a) + Fraction(c)) / 2 for a, c in zip(z, zp)]
        exact = np.array([float(sum(x * mj for x, mj in zip(row, m)) + Fraction(bi))
                          for row, bi in zip(X, QUADRATIC_B)])
        mid = 0.5 * (z + zp)
        scale = float((np.abs(QUADRATIC_X) @ np.abs(mid) + np.abs(QUADRATIC_B)).max())
        error = float(np.abs(midpoint_gradient(V, z, zp) - exact).max())
        assert error <= 8 * np.finfo(float).eps * scale, (k, error)


def corrected_midpoint_gradient(V, z, zp):
    """Reference: the midpoint gradient with the rank-one chain-rule
    correction, as every field not hinted quadratic takes it."""
    z, zp = np.asarray(z, dtype=float), np.asarray(zp, dtype=float)
    delta = z - zp
    dd = float(delta @ delta)
    if gradients._coincide(z, dd):
        return gradients._gradient(V, z).copy()
    g = gradients._gradient(V, 0.5 * (z + zp))
    corr = (V.value(z) - V.value(zp) - float(g @ delta)) / dd
    return g + corr * delta


@pytest.mark.parametrize("name", list(_fields_with_a_correction()))
def test_midpoint_of_a_field_not_hinted_quadratic_keeps_the_correction(name):
    V = _fields_with_a_correction()[name]
    for z, zp in _point_pairs(V.dim, seed=V.dim):
        got = midpoint_gradient(V, z, zp)
        assert np.array_equal(got, corrected_midpoint_gradient(V, z, zp))


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_coords, min_size=2, max_size=4), st.lists(finite_coords, min_size=2, max_size=4))
def test_midpoint_chain_rule_property(a, b):
    n = min(len(a), len(b))
    z, zp = np.array(a[:n]), np.array(b[:n])
    V = cosh_sum_field(n)
    residual = chain_rule_residual(DiscreteGradientKind("midpoint"), V, z, zp)
    scale = max(1.0, abs(V.value(z)), abs(V.value(zp)))
    assert residual <= 1e-12 * scale


def avf_remainder_bound(z, zp):
    """Bound on the 7-node Gauss-Legendre error in the AVF chain rule on the
    cosh sum: per component, ``|d|^15 (7!)^4 / (15 (14!)^3) cosh(max |z|)``."""
    d = np.abs(np.asarray(z) - np.asarray(zp))
    peak = np.cosh(np.maximum(np.abs(z), np.abs(zp)))
    c = math.factorial(7) ** 4 / (15 * math.factorial(14) ** 3)
    return float(np.sum(c * d**15 * peak))


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_coords, min_size=1, max_size=4), st.lists(finite_coords, min_size=1, max_size=4))
def test_avf_chain_rule_property(a, b):
    # exact up to the quadrature remainder, which cosh (not a polynomial) leaves
    n = min(len(a), len(b))
    z, zp = np.array(a[:n]), np.array(b[:n])
    V = cosh_sum_field(n)
    residual = chain_rule_residual(DiscreteGradientKind("avf"), V, z, zp)
    scale = max(1.0, abs(V.value(z)), abs(V.value(zp)))
    assert residual <= 1e-12 * scale + avf_remainder_bound(z, zp)


@pytest.mark.parametrize("variant", ["avf", "midpoint", "proper"])
@settings(max_examples=50, deadline=None)
@given(st.lists(finite_coords, min_size=1, max_size=4), st.lists(finite_coords, min_size=1, max_size=4))
def test_discrete_gradient_is_symmetric_property(variant, a, b):
    n = min(len(a), len(b))
    z, zp = np.array(a[:n]), np.array(b[:n])
    V = cosh_sum_field(n)
    kind = DiscreteGradientKind(variant)
    forward = discrete_gradient_info(kind, V, z, zp)[0]
    backward = discrete_gradient_info(kind, V, zp, z)[0]
    scale = max(1.0, float(np.max(np.abs(V.gradient(z)))), float(np.max(np.abs(V.gradient(zp)))))
    assert np.allclose(forward, backward, rtol=0.0, atol=1e-13 * scale)


# ------------------------------------------- interior-division (proper) variant


def test_theta_1d_cosh_is_tanh_half():
    V = cosh_sum_field(1)
    theta = theta_coefficient(V, np.array([1.0]), np.array([0.0]))
    assert theta == pytest.approx(math.tanh(0.5), abs=1e-14)


def test_theta_weights_sum_to_one():
    V = cosh_sum_field(2)
    z, zp = np.array([0.7, -0.3]), np.array([-0.1, 0.4])
    theta = theta_coefficient(V, z, zp)
    theta_swapped = theta_coefficient(V, zp, z)
    assert theta + theta_swapped == pytest.approx(1.0, abs=1e-14)


def test_theta_is_half_on_quadratics():
    V = quadratic_field(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert theta_coefficient(V, np.array([1.0, 2.0]), np.array([-1.0, 0.3])) == 0.5


def test_theta_coincident_points_rejected():
    V = cosh_sum_field(1)
    with pytest.raises(ValueError):
        theta_coefficient(V, np.array([1.0]), np.array([1.0]))


def test_proper_gradient_is_divided_difference_in_1d():
    V = convex_quartic_field([1.0])
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.normal(size=2) * 2.0
        if abs(a - b) < 1e-6:
            continue
        got = proper_gradient(V, np.array([a]), np.array([b]))[0]
        assert got == pytest.approx((V.value(np.array([a])) - V.value(np.array([b]))) / (a - b), rel=1e-12)


def test_proper_equals_avf_on_quadratics():
    X = np.array([[4.0, 1.0], [1.0, 3.0]])
    V = quadratic_field(X)
    rng = np.random.default_rng(4)
    for _ in range(10):
        z, zp = rng.normal(size=2), rng.normal(size=2)
        assert np.allclose(proper_gradient(V, z, zp), avf_gradient(V, z, zp), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_coords, min_size=1, max_size=4), st.lists(finite_coords, min_size=1, max_size=4))
def test_proper_chain_rule_property(a, b):
    n = min(len(a), len(b))
    z, zp = np.array(a[:n]), np.array(b[:n])
    V = cosh_sum_field(n)
    residual = chain_rule_residual(DiscreteGradientKind("proper"), V, z, zp)
    scale = max(1.0, abs(V.value(z)), abs(V.value(zp)))
    assert residual <= 1e-12 * scale


def test_proper_gradient_convex_combination_stays_bounded():
    # weights in [0, 1] mean the result is between the endpoint gradients
    V = cosh_sum_field(1)
    lo, hi = np.array([-1.5]), np.array([2.0])
    got = proper_gradient(V, lo, hi)[0]
    g1, g2 = math.sinh(-1.5), math.sinh(2.0)
    assert min(g1, g2) <= got <= max(g1, g2)


def test_theta_stays_near_half_at_tiny_separations():
    V = cosh_sum_field(3)
    z = np.array([0.3, -0.2, 0.7])
    v = np.array([1.0, -2.0, 0.5])
    v /= np.linalg.norm(v)
    for eps in (1e-6, 1e-7, 1e-8):
        theta = theta_coefficient(V, z + eps * v, z)
        assert abs(theta - 0.5) <= 5.0 * eps


def test_nonconvex_field_degenerate_denominator():
    saddle = ScalarField(
        dim=2,
        value=lambda z: 0.5 * (z[0] ** 2 - z[1] ** 2),
        gradient=lambda z: np.array([z[0], -z[1]]),
        hint="general",
    )
    z, zp = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    with pytest.raises(DegenerateDenominator):
        theta_coefficient(saddle, z, zp)
    # the discrete gradient falls back to the midpoint form and flags it
    vec, fallback = discrete_gradient_info(DiscreteGradientKind("proper"), saddle, z, zp)
    assert fallback
    assert np.allclose(vec, midpoint_gradient(saddle, z, zp), atol=1e-14)


def test_fallback_still_satisfies_chain_rule():
    saddle = ScalarField(
        dim=2,
        value=lambda z: 0.5 * (z[0] ** 2 - z[1] ** 2),
        gradient=lambda z: np.array([z[0], -z[1]]),
        hint="general",
    )
    z, zp = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    residual = chain_rule_residual(DiscreteGradientKind("proper"), saddle, z, zp)
    assert residual <= 1e-13


# ------------------------------------------------------------- dispatch


def test_discrete_gradient_dispatch_matches_direct_calls():
    V = cosh_sum_field(2)
    z, zp = np.array([0.5, -0.5]), np.array([-0.2, 0.8])
    assert np.allclose(
        discrete_gradient_info(DiscreteGradientKind("avf"), V, z, zp)[0], avf_gradient(V, z, zp)
    )
    assert np.allclose(
        discrete_gradient_info(DiscreteGradientKind("midpoint"), V, z, zp)[0],
        midpoint_gradient(V, z, zp),
    )
    assert np.allclose(
        discrete_gradient_info(DiscreteGradientKind("proper"), V, z, zp)[0],
        proper_gradient(V, z, zp),
    )


def test_discrete_gradient_info_reports_fallback_flag():
    V = cosh_sum_field(2)
    z, zp = np.array([0.5, -0.5]), np.array([-0.2, 0.8])
    vec, fallback = discrete_gradient_info(DiscreteGradientKind("proper"), V, z, zp)
    assert not fallback
    assert np.allclose(vec, proper_gradient(V, z, zp))


def test_kind_validation():
    with pytest.raises(ValueError):
        DiscreteGradientKind("upwind")


def test_dimension_mismatch_rejected():
    V = cosh_sum_field(2)
    with pytest.raises(ValueError):
        avf_gradient(V, np.zeros(3), np.zeros(3))
