"""Test-only helpers: oracles that the package itself never calls."""

import math
import time
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npp

from afdg import af, poly


def eval_and_derivative(p, xi: float, dx: float) -> tuple:
    """Value and physical derivative (reference derivative / dx) of the
    ``poly.PolySpec`` p at xi."""
    return p(xi), p.derivative()(xi) / dx


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


def neighbour_stack(V: np.ndarray, axis: int, lo=None,
                    hi=None) -> np.ndarray:
    """[V_{i-1}; V_i; V_{i+1}] along ``axis``, stacked on the axis after it,
    from ``np.roll`` shifts: the reference for ``mesh._with_neighbours``.
    ``lo`` and ``hi`` (V without ``axis``) replace the wrapped V_{-1} and
    V_n."""
    left, right = np.roll(V, 1, axis=axis), np.roll(V, -1, axis=axis)
    if lo is not None:
        n = V.shape[axis]
        ghost = V.shape[:axis] + (1,) + V.shape[axis + 1:]
        body = [slice(None)] * V.ndim
        body[axis] = slice(0, n - 1)
        left = np.concatenate((np.reshape(lo, ghost), V[tuple(body)]), axis)
        body[axis] = slice(1, n)
        right = np.concatenate((V[tuple(body)], np.reshape(hi, ghost)), axis)
    return np.concatenate((left, V, right), axis=axis + 1)


def project(f: Callable, K: int, kind: str = "l2",
            rule: poly.QuadratureRule | None = None) -> poly.PolySpec:
    """Project a function onto P^K on the reference cell.

    ``l2`` matches moments against all of P^K; the Gauss-Radau variants
    interpolate f at one endpoint (right endpoint for
    ``gauss_radau_right``) and match moments against P^{K-1} only.
    Non-polynomial integrands default to a 12-point Gauss-Legendre rule,
    which exceeds every exactness requirement in scope.
    """
    if rule is None:
        rule = poly.gauss_legendre_rule(12)
    phis = [poly.legendre(n) for n in range(K + 1)]
    mass = np.array([p.cell_integral() for p in (q * q for q in phis)])
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
        out[: m + 1] += coeffs_modal[m] * phis[m].coefficients
    return poly.PolySpec(out)


def radau_left_via_system(K: int) -> poly.PolySpec:
    """R_L from its defining conditions as one linear solve, the
    construction ``poly.radau_pair``'s Legendre half-difference is checked
    against."""
    n = K + 2
    mat = np.zeros((n, n))
    rhs = np.zeros(n)
    xi_pow = lambda xi: xi ** np.arange(n)
    mat[0] = xi_pow(0.5)          # R_L(1/2) = 0
    mat[1] = xi_pow(-0.5)         # R_L(-1/2) = 1
    rhs[1] = 1.0
    for m in range(K):            # orthogonality against (2 xi)^m
        w = poly.moment_weight(m)
        mat[2 + m] = [poly.cell_integral(npp.polymul(w.coefficients,
                                                     np.eye(n)[j]))
                      for j in range(n)]
    return poly.PolySpec(np.linalg.solve(mat, rhs))


def af_reconstruct(state, cell: int) -> list:
    """Cell polynomial(s) of an ``AfState1D``, one ``poly.PolySpec`` per
    component."""
    ops = af.af_ops(state.K)
    dofs = af.cell_dof_tensor_1d(state)[cell]          # (K+2, m)
    out = []
    for c in range(state.n_components):
        coeffs = np.zeros(state.K + 2)
        for p, f in enumerate(ops.basis.functions()):
            coeffs += dofs[p, c] * f.coefficients
        out.append(poly.PolySpec(coeffs))
    return out


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
