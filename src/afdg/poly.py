"""Polynomial machinery on the reference cell [-1/2, 1/2].

Everything downstream (reconstruction, weak forms, dof mappings) is built
from a handful of univariate polynomial families living on the reference
coordinate xi in [-1/2, 1/2], with physical coordinate x = x_center + dx*xi:

    legendre(n)          endpoint-normalized Legendre polynomials
    radau_pair(K)        the left/right Radau polynomials of degree K+1
    radau_points(K, s)   their zeros (Gauss-Radau nodes)
    moment_dual_basis(K) the basis dual to {point values, cell moments}
    gauss_legendre_rule  quadrature normalized to cell measure 1

Polynomials are stored by monomial coefficients (degrees <= 8 in practice,
conditioning is a non-issue).  All constructions here are pure functions of
their integer arguments and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npp

__all__ = [
    "PolySpec",
    "QuadratureRule",
    "AfBasis",
    "legendre",
    "radau_pair",
    "radau_points",
    "moment_dual_basis",
    "moment_weight",
    "coefficient_table",
    "gauss_legendre_rule",
]


@dataclass(frozen=True)
class PolySpec:
    """A univariate polynomial on the reference cell, monomial coefficients.

    ``coefficients[j]`` multiplies xi**j.  The array always has length
    ``degree + 1``; trailing zeros are kept, so the stored degree is
    explicit rather than inferred.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, xi):
        return npp.polyval(xi, self.coefficients)

    def derivative(self) -> "PolySpec":
        if self.degree == 0:
            return PolySpec(np.zeros(1))
        return PolySpec(npp.polyder(self.coefficients))

    def cell_integral(self) -> float:
        """Integral over the reference cell [-1/2, 1/2] (exact)."""
        return cell_integral(self.coefficients)

    def __mul__(self, other: "PolySpec") -> "PolySpec":
        return PolySpec(npp.polymul(self.coefficients, other.coefficients))

    def __add__(self, other: "PolySpec") -> "PolySpec":
        return PolySpec(npp.polyadd(self.coefficients, other.coefficients))

    def __sub__(self, other: "PolySpec") -> "PolySpec":
        return PolySpec(npp.polysub(self.coefficients, other.coefficients))

    def scaled(self, a: float) -> "PolySpec":
        return PolySpec(a * self.coefficients)


def coefficient_table(polys, d: int = 0) -> np.ndarray:
    """Read-only C[p, k]: monomial coefficients of the d-th derivative of
    ``polys[p]``, padded to a common degree; ``npp.polyval(x, C.T)[p]``."""
    n = max(p.degree for p in polys) + 1
    C = npp.polyder([np.pad(p.coefficients, (0, n - len(p.coefficients)))
                     for p in polys], d, axis=1)
    C.flags.writeable = False
    return C


def cell_integral(coefficients) -> float:
    """Exact integral of a monomial-coefficient polynomial over [-1/2, 1/2]."""
    c = np.asarray(coefficients, dtype=float)
    m = np.arange(len(c))
    w = np.where(m % 2 == 0, (0.5 ** m) / (m + 1), 0.0)
    return float(np.dot(c, w))


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
def _legendre_coeffs(n: int) -> tuple:
    if n == 0:
        return (1.0,)
    if n == 1:
        return (0.0, 2.0)
    pm2 = np.array(_legendre_coeffs(n - 2))
    pm1 = np.array(_legendre_coeffs(n - 1))
    # three-term recurrence for P_n evaluated at 2*xi
    p = ((2 * n - 1) * npp.polymul([0.0, 2.0], pm1)
         - (n - 1) * np.pad(pm2, (0, n - len(pm2) + 1))) / n
    return tuple(p[: n + 1])


def legendre(n: int) -> PolySpec:
    """Degree-n polynomial orthogonal to P^{n-1} on the cell, value 1 at xi=1/2."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return PolySpec(np.array(_legendre_coeffs(n)))


@lru_cache(maxsize=None)
def radau_pair(K: int) -> tuple[PolySpec, PolySpec]:
    """Left/right Radau polynomials of degree K+1.

    R_L(-1/2) = 1, R_L(1/2) = 0 and R_R mirrored; both orthogonal to
    P^{K-1} on the cell.  Built as the half-sum/difference of the two
    top Legendre polynomials (the tests check it against the direct
    (K+2)-dimensional linear system).  Cached: every caller shares the
    pair, whose coefficient arrays are read-only.
    """
    if K < 1:
        raise ValueError("Radau pair requires K >= 1")
    lk = legendre(K)
    lk1 = legendre(K + 1)
    r_r = (lk1 + lk).scaled(0.5)
    r_r = PolySpec(np.pad(r_r.coefficients, (0, K + 2 - len(r_r.coefficients))))
    r_l = (lk1 - lk).scaled(0.5 * (-1.0) ** (K + 1))
    r_l = PolySpec(np.pad(r_l.coefficients, (0, K + 2 - len(r_l.coefficients))))
    r_l.coefficients.flags.writeable = r_r.coefficients.flags.writeable = False
    return r_l, r_r


def radau_points(K: int, side: str) -> np.ndarray:
    """Zeros of the Radau polynomial, ascending, endpoint included.

    The interior roots are the real companion-matrix roots
    (``npp.polyroots``) away from the endpoint, polished by one Newton
    step; the known endpoint root (+1/2 for the left polynomial, -1/2 for
    the right) is inserted exactly.  A wrong root count or a residual
    above 1e-12 raises instead of returning silently.
    """
    r_l, r_r = radau_pair(K)
    if side == "left":
        p, endpoint = r_l, 0.5
    elif side == "right":
        p, endpoint = r_r, -0.5
    else:
        raise ValueError("side must be 'left' or 'right'")

    z = npp.polyroots(p.coefficients)
    z = z[(np.abs(np.imag(z)) < 1e-10) & (np.abs(z - endpoint) > 1e-10)].real
    z = z - p(z) / p.derivative()(z)
    roots = np.sort(np.append(z, endpoint))
    if len(roots) != K + 1:
        raise RuntimeError(
            f"root finding failed for K={K}, side={side}: "
            f"found {len(roots)} roots, expected {K + 1}")
    resid = np.max(np.abs(p(roots)))
    if resid > 1e-12:
        raise RuntimeError(
            f"root residual {resid:.3e} exceeds 1e-12 for K={K}, side={side}")
    return roots


@lru_cache(maxsize=None)
def moment_weight(k: int) -> PolySpec:
    """The k-th moment weight (2 xi)^k; cached, with read-only coefficients."""
    c = np.zeros(k + 1)
    c[k] = 2.0 ** k
    c.flags.writeable = False
    return PolySpec(c)


def moment_normalization(k: int) -> float:
    return float(k + 1)


@dataclass(frozen=True)
class AfBasis:
    """Degree-(K+1) basis dual to {left point, moments 0..K-1, right point}.

    R_L and R_R carry the interface values, S[k] carries the k-th moment
    taken with weight b[k] = (2 xi)^k and normalization A[k] = k+1.  The
    constant-one reconstruction identity R_L + R_R + sum_k c_k S_k == 1
    holds with c_k = A_k * integral(b_k), i.e. 1 for even k and 0 for odd.
    """

    K: int
    R_L: PolySpec
    R_R: PolySpec
    S: tuple
    b: tuple
    A: np.ndarray
    constant_moments: np.ndarray = field(default=None)

    def functions(self) -> list[PolySpec]:
        """Basis in dof order: left point, moments 0..K-1, right point."""
        return [self.R_L, *self.S, self.R_R]


@lru_cache(maxsize=None)
def moment_dual_basis(K: int) -> AfBasis:
    if K < 1:
        raise ValueError("moment dual basis requires K >= 1")
    r_l, r_r = radau_pair(K)
    n = K + 2
    b = tuple(moment_weight(k) for k in range(K))
    A = np.array([moment_normalization(k) for k in range(K)])

    # moment rows are shared by every S_k system
    mom_rows = np.zeros((K, n))
    for m in range(K):
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            mom_rows[m, j] = A[m] * cell_integral(npp.polymul(b[m].coefficients, e))

    S = []
    for k in range(K):
        mat = np.zeros((n, n))
        rhs = np.zeros(n)
        mat[0] = 0.5 ** np.arange(n)
        mat[1] = (-0.5) ** np.arange(n)
        mat[2:] = mom_rows
        rhs[2 + k] = 1.0
        try:
            S.append(PolySpec(np.linalg.solve(mat, rhs)))
        except np.linalg.LinAlgError as exc:  # cannot occur for these weights
            raise RuntimeError(f"singular dual-basis system for K={K}, k={k}") from exc

    c = np.array([A[k] * b[k].cell_integral() for k in range(K)])
    return AfBasis(K=K, R_L=r_l, R_R=r_r, S=tuple(S), b=b, A=A,
                   constant_moments=c)
