"""Reference-cell polynomial families: oracles and invariants."""

from fractions import Fraction

import numpy as np
import pytest
from helpers import eval_and_derivative, project, radau_left_via_system

from afdg import poly


# ---------------------------------------------------------------------------
# independent oracles (exact rational arithmetic)

def _frac_cell_integral(coeffs):
    """Exact integral of sum_j c_j xi^j over [-1/2, 1/2] with Fractions."""
    total = Fraction(0)
    for j, c in enumerate(coeffs):
        if j % 2 == 0:
            total += c * Fraction(1, 2 ** j) / (j + 1)
    return total


def _frac_polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def gram_schmidt_legendre(n):
    """Orthogonalize monomials exactly, normalize to value 1 at xi = 1/2."""
    basis = []
    for d in range(n + 1):
        mono = [Fraction(0)] * d + [Fraction(1)]
        v = list(mono) + [Fraction(0)] * (n - d)
        for u in basis:
            num = _frac_cell_integral(_frac_polymul(mono, u))
            den = _frac_cell_integral(_frac_polymul(u, u))
            coef = num / den
            v = [vi - coef * ui for vi, ui in zip(v, u)]
        basis.append(v)
    top = basis[n]
    val = sum(c * Fraction(1, 2 ** j) for j, c in enumerate(top))
    return [c / val for c in top]


def _frac_solve(mat, rhs):
    """Gaussian elimination over Fractions."""
    n = len(rhs)
    m = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def radau_left_oracle_k1():
    """Solve the 3x3 defining system for R_L at K=1 exactly."""
    # rows: value at 1/2 is 0, value at -1/2 is 1, zero mean
    mat = [
        [Fraction(1), Fraction(1, 2), Fraction(1, 4)],
        [Fraction(1), Fraction(-1, 2), Fraction(1, 4)],
        [Fraction(1), Fraction(0), Fraction(1, 12)],
    ]
    return _frac_solve(mat, [Fraction(0), Fraction(1), Fraction(0)])


# ---------------------------------------------------------------------------
# legendre

def test_legendre_constant_is_one():
    assert np.allclose(poly.legendre(0).coefficients, [1.0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_legendre_matches_gram_schmidt_oracle(n):
    expect = [float(c) for c in gram_schmidt_legendre(n)]
    got = poly.legendre(n).coefficients
    assert np.allclose(got, expect, atol=1e-14)


def test_legendre_frozen_low_orders():
    assert np.allclose(poly.legendre(1).coefficients, [0.0, 2.0])
    assert np.allclose(poly.legendre(2).coefficients, [-0.5, 0.0, 6.0])


def test_legendre_endpoint_normalization():
    for n in range(7):
        assert poly.legendre(n)(0.5) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# radau pair and points

def test_radau_k1_matches_linear_system_oracle():
    expect = [float(c) for c in radau_left_oracle_k1()]
    r_l, _ = poly.radau_pair(1)
    assert np.allclose(r_l.coefficients, expect, atol=1e-14)
    assert np.allclose(r_l.coefficients, [-0.25, -1.0, 3.0])


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_radau_reflection_and_endpoints(K):
    r_l, r_r = poly.radau_pair(K)
    xs = np.linspace(-0.5, 0.5, 33)
    assert np.allclose(r_r(xs), r_l(-xs), atol=1e-13)
    assert r_l(-0.5) == pytest.approx(1.0, abs=1e-13)
    assert r_l(0.5) == pytest.approx(0.0, abs=1e-13)
    assert r_r(-0.5) == pytest.approx(0.0, abs=1e-13)
    assert r_r(0.5) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_radau_orthogonality(K):
    r_l, r_r = poly.radau_pair(K)
    for m in range(K):
        mono = poly.PolySpec(np.eye(m + 1)[m])
        assert abs((mono * r_l).cell_integral()) < 1e-12
        assert abs((mono * r_r).cell_integral()) < 1e-12


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_radau_construction_cross_check(K):
    r_l, _ = poly.radau_pair(K)
    r_l_sys = radau_left_via_system(K)
    scale = max(1.0, np.max(np.abs(r_l.coefficients)))
    assert np.max(np.abs(r_l.coefficients - r_l_sys.coefficients)) <= 1e-13 * scale


def test_radau_rejects_k0():
    with pytest.raises(ValueError):
        poly.radau_pair(0)


def test_radau_pair_is_cached_and_read_only():
    """One shared pair per K, so its coefficients must not be writable;
    K = 0 still raises on every call."""
    assert poly.radau_pair(2) is poly.radau_pair(2)
    for p in poly.radau_pair(2):
        assert not p.coefficients.flags.writeable
        with pytest.raises(ValueError):
            p.coefficients[0] = 1.0
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
    r_l, _ = poly.radau_pair(2)
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
    r_l, r_r = poly.radau_pair(K)
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
    r_l, r_r = poly.radau_pair(K)
    p = r_l if side == "left" else r_r
    pts = poly.radau_points(K, side)
    assert len(pts) == K + 1
    assert np.max(np.abs(p(pts))) <= 1e-14
    step = p(pts) / p.derivative()(pts)
    assert np.max(np.abs(step)) <= 1e-15


# ---------------------------------------------------------------------------
# moment dual basis

def test_dual_basis_k1_frozen():
    basis = poly.moment_dual_basis(1)
    assert np.allclose(basis.S[0].coefficients, [1.5, 0.0, -6.0], atol=1e-13)


def test_dual_basis_partition_of_unity_k1():
    basis = poly.moment_dual_basis(1)
    xs = np.linspace(-0.5, 0.5, 50)
    total = basis.R_L(xs) + basis.R_R(xs) + basis.S[0](xs)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_dual_basis_partition_of_unity(K):
    basis = poly.moment_dual_basis(K)
    xs = np.linspace(-0.5, 0.5, 50)
    total = basis.R_L(xs) + basis.R_R(xs)
    for k in range(K):
        total = total + basis.constant_moments[k] * basis.S[k](xs)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_dual_basis_duality_and_endpoints(K):
    basis = poly.moment_dual_basis(K)
    for k, s in enumerate(basis.S):
        assert abs(s(0.5)) < 1e-12 and abs(s(-0.5)) < 1e-12
        for m in range(K):
            want = 1.0 if m == k else 0.0
            got = basis.A[m] * (basis.b[m] * s).cell_integral()
            assert got == pytest.approx(want, abs=1e-12)


def test_dual_basis_k2_duality_example():
    basis = poly.moment_dual_basis(2)
    got = basis.A[1] * (basis.b[1] * basis.S[0]).cell_integral()
    assert got == pytest.approx(0.0, abs=1e-13)


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
        exact = poly.cell_integral(np.eye(m + 1)[m])
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
    for m in range(K + 1):
        phi = poly.legendre(m)
        mass = (phi * phi).cell_integral()
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
        exact = poly.cell_integral(c)
        assert p.cell_integral() == pytest.approx(exact, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluation helper

def test_eval_and_derivative_radau_k1():
    r_l, _ = poly.radau_pair(1)
    val, der = eval_and_derivative(r_l, 0.5, 1.0)
    assert val == pytest.approx(0.0, abs=1e-14)
    assert der == pytest.approx(2.0, abs=1e-14)
    val, der = eval_and_derivative(r_l, -0.5, 1.0)
    assert val == pytest.approx(1.0, abs=1e-14)
    assert der == pytest.approx(-4.0, abs=1e-14)


def test_eval_and_derivative_dx_scaling():
    p = poly.PolySpec([0.3, -1.2, 2.0, 0.7])
    _, d1 = eval_and_derivative(p, 0.17, 1.0)
    _, d2 = eval_and_derivative(p, 0.17, 2.0)
    assert d2 == pytest.approx(d1 / 2.0, rel=1e-15)
