"""Test-only helpers: oracles that the package itself never calls."""

import math
import time
from fractions import Fraction
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from afdg import af, dg, mesh, poly


# ---------------------------------------------------------------------------
# float polynomials on the reference cell [-1/2, 1/2]: numpy's
# ``Polynomial`` (its default domain and window make it plain monomial
# coefficients)


def polynomials(rows) -> list:
    """One ``Polynomial`` per coefficient row."""
    return [Polynomial(np.asarray(r, dtype=float)) for r in rows]


def legendre_polys(K: int) -> list:
    """The DG modes phi_0..phi_K, from ``dg.phi_table``."""
    return polynomials(dg.phi_table(K, 0))


def radau_polys(K: int) -> list:
    """(R_L, R_R), from ``poly.radau_pair``."""
    return polynomials(poly.radau_pair(K))


def cell_integral(p) -> float:
    """Integral of a polynomial (or its coefficients) over the cell, from
    the exact moments of the monomials."""
    c = np.asarray(getattr(p, "coef", p), dtype=float)
    m = np.arange(len(c))
    return float(np.dot(c, np.where(m % 2 == 0, 0.5 ** m / (m + 1), 0.0)))


def eval_and_derivative(p, xi: float, dx: float) -> tuple:
    """Value and physical derivative (reference derivative / dx) of the
    polynomial p at xi."""
    return p(xi), p.deriv()(xi) / dx


# ---------------------------------------------------------------------------
# exact oracles: polynomials as lists of Fractions, xi**j the j-th entry


def frac_cell_integral(coeffs) -> Fraction:
    """Exact integral of sum_j c_j xi^j over [-1/2, 1/2]."""
    return sum((c * Fraction(1, 2 ** j) / (j + 1)
                for j, c in enumerate(coeffs) if j % 2 == 0), Fraction(0))


def frac_polymul(a, b) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def frac_derivative(a) -> list:
    return [j * c for j, c in enumerate(a)][1:] or [Fraction(0)]


def frac_value(a, x) -> Fraction:
    return sum((c * Fraction(x) ** j for j, c in enumerate(a)), Fraction(0))


def frac_solve(mat, rhs) -> list:
    """Gaussian elimination over Fractions."""
    n = len(rhs)
    m = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
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


def gram_schmidt_legendre(n) -> list:
    """Orthogonalize monomials exactly, normalize to value 1 at xi = 1/2."""
    basis = []
    for d in range(n + 1):
        mono = [Fraction(0)] * d + [Fraction(1)]
        v = list(mono) + [Fraction(0)] * (n - d)
        for u in basis:
            num = frac_cell_integral(frac_polymul(mono, u))
            den = frac_cell_integral(frac_polymul(u, u))
            coef = num / den
            v = [vi - coef * ui for vi, ui in zip(v, u)]
        basis.append(v)
    top = basis[n]
    val = frac_value(top, Fraction(1, 2))
    return [c / val for c in top]


def frac_moment_weight(k) -> list:
    """The k-th AF moment weight (k + 1) (2 xi)^k."""
    return [Fraction(0)] * k + [Fraction((k + 1) * 2 ** k)]


def frac_dual_basis(K) -> list:
    """The AF basis in dof order, each function solved from its defining
    conditions: value 1 at its own point (or moment 1 against its own
    weight), and zero for every other point value and moment."""
    n = K + 2
    mono = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    functionals = ([lambda p: frac_value(p, Fraction(-1, 2))]
                   + [lambda p, k=k: frac_cell_integral(
                       frac_polymul(frac_moment_weight(k), p))
                      for k in range(K)]
                   + [lambda p: frac_value(p, Fraction(1, 2))])
    mat = [[f(e) for e in mono] for f in functionals]
    return [frac_solve(mat, [Fraction(int(i == p)) for i in range(n)])
            for p in range(n)]


def frac_radau_pair(K) -> tuple:
    """(R_L, R_R) of degree K+1 from their defining conditions: the end
    values and orthogonality to P^{K-1}."""
    n = K + 2
    mat = [[frac_value([Fraction(int(i == j)) for i in range(n)], x)
            for j in range(n)] for x in (Fraction(-1, 2), Fraction(1, 2))]
    mat += [[frac_cell_integral([Fraction(0)] * (m + j) + [Fraction(1)])
             for j in range(n)] for m in range(K)]
    zeros = [Fraction(0)] * K
    return (frac_solve(mat, [Fraction(1), Fraction(0)] + zeros),
            frac_solve(mat, [Fraction(0), Fraction(1)] + zeros))


def simpson_midpoint(average, end1, end2):
    """Inverse of ``mesh.simpson_edge_average`` for the midpoint value."""
    return (6.0 * np.asarray(average) - np.asarray(end1) - np.asarray(end2)) / 4.0


def eigen_split(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J = J+ + J- via eigendecomposition with eigenvalues clipped at 0."""
    lam, R = np.linalg.eig(J)
    Rinv = np.linalg.inv(R)
    Jp = (R * np.maximum(lam, 0.0)) @ Rinv
    Jm = (R * np.minimum(lam, 0.0)) @ Rinv
    return Jp.real, Jm.real


def block_circulant(S: np.ndarray, n: int) -> np.ndarray:
    """The dense n-cell periodic operator of the (m, 3m) block row
    [L | D | R]: out_i = L U_{i-1} + D U_i + R U_{i+1}."""
    m = S.shape[0]
    A = np.zeros((n * m, n * m))
    for i in range(n):
        for block, shift in enumerate((-1, 0, 1)):
            k = (i + shift) % n
            A[i * m:(i + 1) * m, k * m:(k + 1) * m] += \
                S[:, block * m:(block + 1) * m]
    return A


def neighbour_stack(V: np.ndarray, axis: int) -> np.ndarray:
    """[V_{i-1}; V_i; V_{i+1}] along ``axis``, periodic, stacked on the
    axis after it, from ``np.roll`` shifts: the reference for
    ``mesh._with_neighbours``."""
    left, right = np.roll(V, 1, axis=axis), np.roll(V, -1, axis=axis)
    return np.concatenate((left, V, right), axis=axis + 1)


def fresh_kron_sum_apply(U, sx, sy, ghosts=None):
    """One call of a fresh ``mesh.kron_sum_applier``."""
    return mesh.kron_sum_applier(U, sx, sy)(U, ghosts)


def project(f: Callable, K: int, kind: str = "l2",
            rule: poly.QuadratureRule | None = None) -> Polynomial:
    """Project a function onto P^K on the reference cell.

    ``l2`` matches moments against all of P^K; the Gauss-Radau variants
    interpolate f at one endpoint (right endpoint for
    ``gauss_radau_right``) and match moments against P^{K-1} only.
    Non-polynomial integrands default to a 12-point Gauss-Legendre rule,
    which exceeds every exactness requirement in scope.
    """
    if rule is None:
        rule = poly.gauss_legendre_rule(12)
    phis = legendre_polys(K)
    mass = np.array([cell_integral(q * q) for q in phis])
    fv = np.asarray(f(rule.nodes), dtype=float)
    inner = np.array([np.dot(rule.weights, fv * p(rule.nodes)) for p in phis])

    if kind == "l2":
        coeffs_modal = inner / mass
    elif kind in ("gauss_radau_left", "gauss_radau_right"):
        if K < 1:
            raise ValueError("Gauss-Radau projection requires K >= 1")
        endpoint = 0.5 if kind == "gauss_radau_right" else -0.5
        coeffs_modal = inner / mass
        # replace the top mode so the endpoint value is interpolated
        f_end = float(np.asarray(f(np.array([endpoint])))[0])
        lower = sum(coeffs_modal[m] * phis[m](endpoint) for m in range(K))
        coeffs_modal[K] = (f_end - lower) / phis[K](endpoint)
    else:
        raise ValueError(f"unknown projection kind {kind!r}")

    out = np.zeros(K + 1)
    for m in range(K + 1):
        out += coeffs_modal[m] * phis[m].coef
    return Polynomial(out)


def af_reconstruct(state, cell: int) -> list:
    """Cell polynomial(s) of an ``AfState1D``, one ``Polynomial`` per
    component."""
    dofs = af.cell_dof_tensor_1d(state)[cell]          # (K+2, m)
    return [Polynomial(dofs[:, c] @ af.basis_table(state.K, 0))
            for c in range(state.n_components)]


def planted_cost_slope(grids, cfl: float = 0.25, work_per_cell: int = 60,
                       repeats: int = 3):
    """Scaling-oracle: a synthetic rhs of known linear cost, timed through
    the same loop, must show the CFL-coupled 1.5 slope.  Each grid's time
    is the best of ``repeats`` loops, so a burst of load on a shared
    machine during one loop does not move the fit."""
    taus = []
    for n in grids:
        n_cells = n * n
        steps = int(np.ceil(0.1 / (cfl / n)))
        best = math.inf
        for _ in range(repeats):
            data = np.linspace(0.0, 1.0, n_cells * work_per_cell)
            t0 = time.perf_counter()
            for _ in range(steps):
                data = np.sin(data) * 1e-3 + data
            best = min(best, time.perf_counter() - t0)
        taus.append((n_cells, best))
    xs = np.log([t[0] for t in taus])
    ys = np.log([t[1] for t in taus])
    return float(np.polyfit(xs, ys, 1)[0])


def with_slots(U, x_slot, y_slot):
    """A copy of a closed 2-d state tensor U[i, a, j, b] with the dofs 1..
    of the slot blocks, cells (nx-1, j) and (i, ny-1), written into its
    unused slots, x first, then y, as a Dirichlet AF rhs wrote them into
    its state before its ghost ring returned them with the ghost blocks;
    a None slot is left as it is."""
    U = U.copy()
    if x_slot is not None:
        U[-1, 1:] = x_slot[:, 1:].swapaxes(0, 1)
    if y_slot is not None:
        U[:, :, -1, 1:] = y_slot[:, :, 1:]
    return U
