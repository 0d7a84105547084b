"""Polynomial machinery on the reference cell [-1/2, 1/2].

Everything downstream (reconstruction, weak forms, dof mappings) is built
from a handful of univariate polynomial families living on the reference
coordinate xi in [-1/2, 1/2], with physical coordinate x = x_center + dx*xi:

    legendre(K)          endpoint-normalized Legendre modes of degree 0..K
    radau_pair(K)        the left/right Radau polynomials of degree K+1
    radau_points(K, s)   their zeros (Gauss-Radau nodes)
    moment_weights(K)    the AF moment weights A_k (2 xi)^k, k < K
    moment_dual_basis(K) the basis dual to {point values, cell moments}
    gauss_legendre_rule  quadrature normalized to cell measure 1

A family is a read-only object array of exact ``fractions.Fraction``
monomial coefficients, one row per polynomial (``rows[p, j]`` multiplies
xi**j), which numpy's ``polynomial.polynomial`` routines accept.  Every
linear table downstream is an exact product of such rows with the cell
moments of the monomials (``inner``), rounded once to float64
(``rounded``, ``table``).  The Gauss rules and the Radau zeros are
irrational and stay float64.  All constructions here are pure functions
of their integer arguments and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npp

__all__ = [
    "QuadratureRule",
    "legendre",
    "radau_pair",
    "radau_points",
    "moment_weights",
    "moment_dual_basis",
    "inner",
    "end_values",
    "rounded",
    "table",
    "gauss_legendre_rule",
    "frozen",
]


def frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.flags.writeable = False
    return a


def _exact(a) -> np.ndarray:
    """A read-only object array of Fractions."""
    return frozen(np.vectorize(Fraction, otypes=[object])(a))


def rounded(a) -> np.ndarray:
    """Exact entries rounded once to float64 (``float`` of a Fraction is
    correctly rounded), read-only."""
    return frozen(np.array(a, dtype=float))


def table(rows, d: int = 0) -> np.ndarray:
    """Read-only C[p, k]: the monomial coefficients of the d-th derivative
    of exact ``rows[p]``, rounded; ``npp.polyval(x, C.T)[p]``."""
    return rounded(npp.polyder(rows, d, axis=1))


@lru_cache(maxsize=None)
def _cell_moments(a: int, b: int) -> np.ndarray:
    """M[i, j]: the integral of xi**(i+j) over [-1/2, 1/2]."""
    s = np.add.outer(np.arange(a), np.arange(b))
    return frozen(_exact(1 - s % 2) / _exact(2 ** s * (s + 1)))


def inner(P, Q) -> np.ndarray:
    """G[p, q]: the exact integral of P[p] Q[q] over the cell."""
    return P @ _cell_moments(P.shape[1], Q.shape[1]) @ Q.T


def end_values(rows) -> np.ndarray:
    """Rows (values at xi = -1/2, values at xi = +1/2) of exact ``rows``."""
    return np.stack([npp.polyval(Fraction(s, 2), rows.T) for s in (-1, 1)])


def _inverse(A) -> np.ndarray:
    """Exact inverse of a nonsingular Fraction matrix (Gauss-Jordan)."""
    n = len(A)
    M = np.hstack([A, _exact(np.eye(n, dtype=int))])
    for c in range(n):
        p = c + np.flatnonzero(M[c:, c])[0]
        M[[c, p]] = M[[p, c]]
        M[c] = M[c] / M[c, c]
        for r in range(n):
            if r != c:
                M[r] = M[r] - M[r, c] * M[c]
    return M[:, n:]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [-1/2, 1/2], normalized so the weights sum to 1."""

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int


@lru_cache(maxsize=None)
def gauss_legendre_rule(n_points: int) -> QuadratureRule:
    """Gauss-Legendre rule scaled from [-1, 1] to the reference cell;
    cached, with read-only nodes and weights."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    x, w = np.polynomial.legendre.leggauss(n_points)
    x, w = x / 2.0, w / 2.0
    x.flags.writeable = w.flags.writeable = False
    return QuadratureRule(nodes=x, weights=w, exactness_degree=2 * n_points - 1)


@lru_cache(maxsize=None)
def legendre(K: int) -> np.ndarray:
    """Rows n = 0..K: the degree-n polynomial orthogonal to P^{n-1} on the
    cell with value 1 at xi = 1/2, by the three-term recurrence for P_n
    evaluated at 2 xi."""
    if K < 0:
        raise ValueError("degree must be >= 0")
    L = _exact(np.zeros((K + 1, K + 1), dtype=int)).copy()
    L[0, 0] = Fraction(1)
    for n in range(1, K + 1):
        L[n] = (Fraction(2 * n - 1, n) * 2 * np.roll(L[n - 1], 1)
                - (Fraction(n - 1, n) * L[n - 2] if n > 1 else 0))
    return frozen(L)


@lru_cache(maxsize=None)
def radau_pair(K: int) -> np.ndarray:
    """Rows (R_L, R_R): the left/right Radau polynomials of degree K+1.

    R_L(-1/2) = 1, R_L(1/2) = 0 and R_R mirrored; both orthogonal to
    P^{K-1} on the cell.  Built as the half-sum/difference of the two
    top Legendre polynomials (the tests check it against the defining
    conditions).
    """
    if K < 1:
        raise ValueError("Radau pair requires K >= 1")
    L = legendre(K + 1)
    return frozen(np.stack([(-1) ** (K + 1) * (L[K + 1] - L[K]),
                            L[K + 1] + L[K]]) / 2)


def radau_points(K: int, side: str) -> np.ndarray:
    """Zeros of the Radau polynomial, ascending, endpoint included.

    The interior roots are the real companion-matrix roots
    (``npp.polyroots``) away from the endpoint, polished by one Newton
    step; the known endpoint root (+1/2 for the left polynomial, -1/2 for
    the right) is inserted exactly.  A wrong root count or a residual
    above 1e-12 raises instead of returning silently.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    p, dp = (table(radau_pair(K), d)[int(side == "right")] for d in (0, 1))
    endpoint = 0.5 if side == "left" else -0.5
    z = npp.polyroots(p)
    z = z[(np.abs(np.imag(z)) < 1e-10) & (np.abs(z - endpoint) > 1e-10)].real
    z = z - npp.polyval(z, p) / npp.polyval(z, dp)
    roots = np.sort(np.append(z, endpoint))
    if len(roots) != K + 1:
        raise RuntimeError(
            f"root finding failed for K={K}, side={side}: "
            f"found {len(roots)} roots, expected {K + 1}")
    resid = np.max(np.abs(npp.polyval(roots, p)))
    if resid > 1e-12:
        raise RuntimeError(
            f"root residual {resid:.3e} exceeds 1e-12 for K={K}, side={side}")
    return roots


@lru_cache(maxsize=None)
def moment_weights(K: int) -> np.ndarray:
    """Rows k = 0..K-1: the k-th AF moment weight A_k (2 xi)^k with
    normalization A_k = k + 1, so that the moments of the constant one
    are 1 for even k and 0 for odd."""
    k = np.arange(K)
    return _exact(np.diag((k + 1) * 2 ** k).reshape(K, K))


@lru_cache(maxsize=None)
def moment_dual_basis(K: int) -> np.ndarray:
    """Rows in dof order (R_L, S_0..S_{K-1}, R_R): the degree-(K+1) basis
    dual to {left point value, moments 0..K-1, right point value}, the
    exact inverse of those functionals on the monomials.  Its end rows
    are the Radau pair."""
    if K < 1:
        raise ValueError("moment dual basis requires K >= 1")
    mono = _exact(np.eye(K + 2, dtype=int))
    left, right = end_values(mono)
    F = np.vstack([left, inner(moment_weights(K), mono), right])
    return frozen(_inverse(F.T))
