"""Reference-cell polynomial families: oracles and invariants."""

from fractions import Fraction

import numpy as np
import pytest
from helpers import (cell_integral, eval_and_derivative, frac_dual_basis,
                     frac_radau_pair, frac_solve, gram_schmidt_legendre,
                     polynomials, project, radau_polys)
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npp

from afdg import poly


# ---------------------------------------------------------------------------
# independent oracles (exact rational arithmetic)

def radau_left_oracle_k1():
    """Solve the 3x3 defining system for R_L at K=1 exactly."""
    # rows: value at 1/2 is 0, value at -1/2 is 1, zero mean
    mat = [
        [Fraction(1), Fraction(1, 2), Fraction(1, 4)],
        [Fraction(1), Fraction(-1, 2), Fraction(1, 4)],
        [Fraction(1), Fraction(0), Fraction(1, 12)],
    ]
    return frac_solve(mat, [Fraction(0), Fraction(1), Fraction(0)])


# ---------------------------------------------------------------------------
# legendre

def test_legendre_constant_is_one():
    assert np.array_equal(poly.legendre(0), [[1]])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_legendre_matches_gram_schmidt_oracle(n):
    """Exact: the rows are Fractions equal to the Gram-Schmidt oracle."""
    got = poly.legendre(n)
    assert got.dtype == object and not got.flags.writeable
    assert list(got[n]) == gram_schmidt_legendre(n)


def test_legendre_frozen_low_orders():
    assert list(poly.legendre(2)[1]) == [0, 2, 0]
    assert list(poly.legendre(2)[2]) == [Fraction(-1, 2), 0, 6]


def test_legendre_endpoint_normalization():
    assert all(v == 1 for v in poly.end_values(poly.legendre(7))[1])


def test_legendre_rejects_negative_degree():
    with pytest.raises(ValueError):
        poly.legendre(-1)


# ---------------------------------------------------------------------------
# radau pair and points

def test_radau_k1_matches_linear_system_oracle():
    r_l, _ = poly.radau_pair(1)
    assert list(r_l) == radau_left_oracle_k1() == [Fraction(-1, 4), -1, 3]


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_radau_reflection_and_endpoints(K):
    r_l, r_r = radau_polys(K)
    xs = np.linspace(-0.5, 0.5, 33)
    assert np.allclose(r_r(xs), r_l(-xs), atol=1e-13)
    assert r_l(-0.5) == pytest.approx(1.0, abs=1e-13)
    assert r_l(0.5) == pytest.approx(0.0, abs=1e-13)
    assert r_r(-0.5) == pytest.approx(0.0, abs=1e-13)
    assert r_r(0.5) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_radau_orthogonality(K):
    r_l, r_r = radau_polys(K)
    for m in range(K):
        mono = Polynomial(np.eye(m + 1)[m])
        assert abs(cell_integral(mono * r_l)) < 1e-12
        assert abs(cell_integral(mono * r_r)) < 1e-12
    # and exactly
    R = poly.radau_pair(K)
    assert not np.any(poly.inner(np.eye(K, dtype=int), R))


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_radau_construction_cross_check(K):
    """The Legendre half-sum/difference is, exactly, the solve of the
    defining conditions (end values, orthogonality to P^{K-1})."""
    assert [list(r) for r in poly.radau_pair(K)] == list(frac_radau_pair(K))


def test_radau_rejects_k0():
    with pytest.raises(ValueError):
        poly.radau_pair(0)


def test_radau_pair_is_cached_and_read_only():
    """One shared pair per K, so its coefficients must not be writable;
    K = 0 still raises on every call."""
    assert poly.radau_pair(2) is poly.radau_pair(2)
    assert not poly.radau_pair(2).flags.writeable
    for p in poly.radau_pair(2):
        with pytest.raises(ValueError):
            p[0] = 1
    for _ in range(2):
        with pytest.raises(ValueError):
            poly.radau_pair(0)


def test_radau_points_k1():
    left = poly.radau_points(1, "left")
    assert np.allclose(left, [-1.0 / 6.0, 0.5], atol=1e-13)
    right = poly.radau_points(1, "right")
    assert np.allclose(right, [-0.5, 1.0 / 6.0], atol=1e-13)
    assert np.allclose(right, -left[::-1], atol=1e-13)


def test_radau_points_k2_bisection_oracle():
    r_l, _ = radau_polys(2)
    got = poly.radau_points(2, "left")
    assert len(got) == 3
    # independent scan-and-bisect on a finer grid
    xs = np.linspace(-0.5, 0.5, 2001)
    vals = r_l(xs)
    roots = [0.5]
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa * fb < 0:
            lo, hi = a, b
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if r_l(lo) * r_l(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    assert np.allclose(sorted(roots), got, atol=1e-10)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("side", ["left", "right"])
def test_radau_points_root_property(K, side):
    r_l, r_r = radau_polys(K)
    p = r_l if side == "left" else r_r
    pts = poly.radau_points(K, side)
    assert np.max(np.abs(p(pts))) <= 1e-12
    assert np.min(np.diff(pts)) >= 1e-6
    endpoint = 0.5 if side == "left" else -0.5
    assert np.min(np.abs(pts - endpoint)) == 0.0


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("side", ["left", "right"])
def test_radau_points_are_newton_polished(K, side):
    """The companion-matrix roots plus one Newton step sit within roundoff
    of a zero: a residual below 1e-14 at every K up to 7 (the earlier
    bisection to 1e-14 in x left residuals up to 7e-14), and a second
    Newton step moves no root by more than 1e-15."""
    r_l, r_r = radau_polys(K)
    p = r_l if side == "left" else r_r
    pts = poly.radau_points(K, side)
    assert len(pts) == K + 1
    assert np.max(np.abs(p(pts))) <= 1e-14
    step = p(pts) / p.deriv()(pts)
    assert np.max(np.abs(step)) <= 1e-15


# ---------------------------------------------------------------------------
# moment dual basis

def test_dual_basis_k1_frozen():
    basis = poly.moment_dual_basis(1)
    assert list(basis[1]) == [Fraction(3, 2), 0, -6]


def test_dual_basis_partition_of_unity_k1():
    r_l, s_0, r_r = polynomials(poly.moment_dual_basis(1))
    xs = np.linspace(-0.5, 0.5, 50)
    total = r_l(xs) + r_r(xs) + s_0(xs)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_dual_basis_partition_of_unity(K):
    """Exactly: the dofs of the constant one are 1 at both points and,
    for the moments, 1 for even k and 0 for odd."""
    basis = poly.moment_dual_basis(K)
    constant_moments = poly.inner(poly.moment_weights(K), np.ones((1, 1),
                                                                  dtype=int))
    assert list(constant_moments[:, 0]) == [1 - k % 2 for k in range(K)]
    dofs = np.concatenate([[1], constant_moments[:, 0], [1]])
    assert list(dofs @ basis) == [1] + [0] * (K + 1)
    xs = np.linspace(-0.5, 0.5, 50)
    total = npp.polyval(xs, poly.table(basis).T).T @ dofs.astype(float)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_dual_basis_duality_and_endpoints(K):
    """Exact duality, with the Radau pair as the end rows, and the rows
    equal to the test's own solve of the defining conditions."""
    basis = poly.moment_dual_basis(K)
    assert basis.dtype == object and not basis.flags.writeable
    assert [list(b) for b in basis] == frac_dual_basis(K)
    left, right = poly.end_values(basis)
    moments = poly.inner(poly.moment_weights(K), basis)
    assert np.array_equal(np.vstack([left, moments, right]),
                          np.eye(K + 2, dtype=int))
    assert np.array_equal(basis[[0, -1]], poly.radau_pair(K))


def test_dual_basis_k2_duality_example():
    basis = poly.moment_dual_basis(2)
    got = poly.inner(poly.moment_weights(2), basis)[1, 1]
    assert got == 0


def test_dual_basis_rejects_k0():
    with pytest.raises(ValueError):
        poly.moment_dual_basis(0)


# ---------------------------------------------------------------------------
# quadrature

def test_gauss_rule_one_point():
    rule = poly.gauss_legendre_rule(1)
    assert np.allclose(rule.nodes, [0.0]) and np.allclose(rule.weights, [1.0])


def test_gauss_rule_is_cached_and_read_only():
    rule = poly.gauss_legendre_rule(3)
    assert poly.gauss_legendre_rule(3) is rule
    assert not rule.nodes.flags.writeable
    assert not rule.weights.flags.writeable
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        poly.gauss_legendre_rule(0)


def test_gauss_rule_two_points():
    rule = poly.gauss_legendre_rule(2)
    assert np.allclose(sorted(rule.nodes), [-0.5 / np.sqrt(3), 0.5 / np.sqrt(3)])
    assert np.allclose(rule.weights, [0.5, 0.5])


def test_gauss_rule_quartic():
    rule = poly.gauss_legendre_rule(3)
    got = float(np.dot(rule.weights, rule.nodes ** 4))
    assert got == pytest.approx(1.0 / 80.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_gauss_rule_exactness_and_normalization(n):
    rule = poly.gauss_legendre_rule(n)
    assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
    for m in range(rule.exactness_degree + 1):
        exact = cell_integral(np.eye(m + 1)[m])
        got = float(np.dot(rule.weights, rule.nodes ** m))
        assert got == pytest.approx(exact, abs=1e-14)


# ---------------------------------------------------------------------------
# projections

def test_project_reproduces_polynomials():
    rng = np.random.default_rng(7)
    for K in (1, 2, 3):
        c = rng.uniform(-1, 1, K + 1)
        f = lambda xi: np.polynomial.polynomial.polyval(xi, c)
        got = project(f, K, "l2")
        xs = np.linspace(-0.5, 0.5, 20)
        assert np.allclose(got(xs), f(xs), atol=1e-13)


def test_project_gauss_radau_endpoint():
    for K in (1, 2, 3):
        f = lambda xi: xi ** (K + 1)
        got = project(f, K, "gauss_radau_right")
        assert got(0.5) == pytest.approx(0.5 ** (K + 1), abs=1e-13)
        got_l = project(f, K, "gauss_radau_left")
        assert got_l(-0.5) == pytest.approx((-0.5) ** (K + 1), abs=1e-13)


def test_project_gauss_radau_moments():
    f = np.sin
    K = 3
    p = project(f, K, "gauss_radau_right")
    rule = poly.gauss_legendre_rule(20)
    for m in range(K):
        resid = np.dot(rule.weights,
                       (f(rule.nodes) - p(rule.nodes)) * rule.nodes ** m)
        assert abs(resid) < 1e-12


def test_project_sin_against_quadrature_oracle():
    K = 2
    p = project(np.sin, K, "l2")
    # brute force: 50-point rule, modal coefficients by orthogonality
    rule = poly.gauss_legendre_rule(50)
    xs = np.linspace(-0.5, 0.5, 11)
    approx = np.zeros_like(xs)
    for phi in polynomials(poly.legendre(K)):
        mass = cell_integral(phi * phi)
        coef = np.dot(rule.weights, np.sin(rule.nodes) * phi(rule.nodes)) / mass
        approx += coef * phi(xs)
    assert np.allclose(p(xs), approx, atol=1e-12)


def test_project_gauss_radau_rejects_k0():
    with pytest.raises(ValueError):
        project(np.sin, 0, "gauss_radau_right")


def test_gauss_radau_projection_integral_property():
    # remainder after projecting f in P^{2K} integrates exactly
    rng = np.random.default_rng(3)
    for K in (1, 2, 3):
        c = rng.uniform(-1, 1, 2 * K + 1)
        f = lambda xi: np.polynomial.polynomial.polyval(xi, c)
        p = project(f, K, "gauss_radau_right",
                         rule=poly.gauss_legendre_rule(12))
        exact = cell_integral(c)
        assert cell_integral(p) == pytest.approx(exact, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluation helper

def test_eval_and_derivative_radau_k1():
    r_l, _ = radau_polys(1)
    val, der = eval_and_derivative(r_l, 0.5, 1.0)
    assert val == pytest.approx(0.0, abs=1e-14)
    assert der == pytest.approx(2.0, abs=1e-14)
    val, der = eval_and_derivative(r_l, -0.5, 1.0)
    assert val == pytest.approx(1.0, abs=1e-14)
    assert der == pytest.approx(-4.0, abs=1e-14)


def test_eval_and_derivative_dx_scaling():
    p = Polynomial([0.3, -1.2, 2.0, 0.7])
    _, d1 = eval_and_derivative(p, 0.17, 1.0)
    _, d2 = eval_and_derivative(p, 0.17, 2.0)
    assert d2 == pytest.approx(d1 / 2.0, rel=1e-15)
