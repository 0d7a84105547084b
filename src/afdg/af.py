"""Semi-discrete Active Flux right-hand sides and reconstruction.

1-d: arbitrary K.  A two-point numerical flux names the point-value
update, the same ``NumericalFluxSpec`` the DG right-hand side takes: its
partials with respect to the left and right trace weigh the one-sided
reconstruction derivatives (upwind gives the Jacobian splitting,
Lax-Friedrichs the flux-vector splitting).  Moments update centrally
through integration by parts; no Riemann fluxes enter.  A linear
problem, scalar or system, is one three-block product of
``af_stencil_1d`` on the state tensor itself, whose cell blocks are
(point value, K moments) (``mesh.AfState1D``): the 1-d operator the 2-d
update is built from (``mesh.line_apply``).  A flux projection instead
mirrors the DG update for nonlinear problems.

2-d: the tensorial variant stores node values, edge moments (k = 0 is the
edge average) and interior tensor moments.  It is the tensor product of
the 1-d method, so its linear-advection update is the Kronecker sum
A (x) I + I (x) B of 1-d operators (u S_u + d_L S_L + d_R S_R) / h in
each axis' speed and flux partials, periodic or closed by Dirichlet ghost
blocks.  Three blocks per K (``af_stencil_1d``, built from ``af_ops``
alone, each entry an exact value rounded once) give them, and
``mesh.kron_sum_apply`` applies them.
K = 1 reproduces the edge-average/node/cell-average updates with
Simpson-exact edge integrals; K = 2 gives the fourth-order method.
The classical update (point updates at the nodes and edge midpoints, the
derivatives of the same K = 1 biquadratic ``af_evaluator_2d`` evaluates) is
kept as the midpoint-vs-average control on the same periodic K = 1 state;
it is upwind-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npp

from . import poly
from .mesh import (AF_N_INT, AfState1D, AfState2D, axis_stencils,
                   kron_sum_applier, line_apply, roll_cells,
                   simpson_edge_average)
from .problems import NumericalFluxSpec, ProblemSpec, flux_partials

__all__ = [
    "AfOps", "af_ops", "basis_table",
    "af_eval_1d", "af_evaluator_2d",
    "af_rhs_1d", "FluxProjection1D",
    "af_stencil_1d", "af_rhs_2d_tensorial", "af_rhs_2d_classical",
]


@dataclass(frozen=True)
class AfOps:
    """Precomputed 1-d stencil weights in dof order (left pt, moments,
    right pt), each an exact value rounded once, read-only."""

    K: int
    d_plus: np.ndarray        # B_p'(+1/2)
    d_minus: np.ndarray       # B_p'(-1/2)
    mom_w: np.ndarray         # moment-update weights, shape (K, K+2)
    w_ends: np.ndarray        # (-w_k(-1/2), w_k(+1/2)), shape (K, 2)
    dw: np.ndarray            # ``poly.table`` of the weights' derivatives

    def basis_values(self, nodes: np.ndarray, d: int = 0) -> np.ndarray:
        """Row p: the d-th derivative of basis function p at ``nodes``."""
        return npp.polyval(nodes, basis_table(self.K, d).T)


@lru_cache(maxsize=None)
def basis_table(K: int, d: int) -> np.ndarray:
    """The AF basis' ``poly.table``, in dof order."""
    return poly.table(poly.moment_dual_basis(K), d)


@lru_cache(maxsize=None)
def af_ops(K: int) -> AfOps:
    """The moment update of basis function B_p against weight w_k =
    A_k (2 xi)^k integrates by parts: w_k B_p at the ends minus the
    integral of w_k' B_p."""
    B, w = poly.moment_dual_basis(K), poly.moment_weights(K)
    dw = npp.polyder(w, axis=1)
    (b_minus, b_plus), (w_minus, w_plus) = map(poly.end_values, (B, w))
    d_minus, d_plus = poly.end_values(npp.polyder(B, axis=1))
    mom_w = (np.outer(w_plus, b_plus) - np.outer(w_minus, b_minus)
             - poly.inner(dw, B))
    w_ends = np.stack([-w_minus, w_plus], axis=1)
    return AfOps(K, *map(poly.rounded, (d_plus, d_minus, mom_w, w_ends)),
                 poly.table(dw))


# ---------------------------------------------------------------------------
# reconstruction


def cell_dof_tensor_1d(state: AfState1D) -> np.ndarray:
    """Dofs per cell in basis order, shape (n_cells, K+2, m): each cell
    block closed by the point value of the next cell."""
    return np.concatenate([state.U, roll_cells(state.U[:, :1], -1)], axis=1)


def af_eval_1d(state: AfState1D, xi: np.ndarray) -> np.ndarray:
    """Evaluate every cell's reconstruction at reference points xi.

    Returns shape (n_cells, len(xi), m).
    """
    ops = af_ops(state.K)
    dofs = cell_dof_tensor_1d(state)
    bv = ops.basis_values(np.asarray(xi))        # (K+2, nxi)
    return np.einsum("ipc,pq->iqc", dofs, bv)


def af_evaluator_2d(state: AfState2D):
    """``evaluate(xi, eta, dxi=0, deta=0)``: all tensorial cell
    reconstructions of one state, differentiated dxi times in xi and deta
    times in eta, on a tensor point grid, as shape (nx, ny, len(xi),
    len(eta)); the state's closed cell blocks (``_dof_tensor_2d``) are
    built here, once, for evaluations on several point grids."""
    ops, C = af_ops(state.K), _dof_tensor_2d(state)

    def evaluate(xi, eta, dxi: int = 0, deta: int = 0) -> np.ndarray:
        bx = ops.basis_values(np.asarray(xi), dxi)
        by = ops.basis_values(np.asarray(eta), deta)
        return bx.T @ C @ by
    return evaluate


def _dof_tensor_2d(state: AfState2D) -> np.ndarray:
    """(nx, ny, K+2, K+2): every cell's block closed by the point rows of
    its right and top neighbours, which hold its right and top boundary
    dofs; per axis the order is (left point, moments, right point)."""
    V = state.U.swapaxes(1, 2)
    if state.periodic:
        V = np.concatenate([V, V[:1]], axis=0)
        V = np.concatenate([V, V[:, :1]], axis=1)
    m = state.K + 1
    C = np.empty((V.shape[0] - 1, V.shape[1] - 1, m + 1, m + 1))
    C[:, :, :m, :m] = V[:-1, :-1]
    C[:, :, m, :m] = V[1:, :-1, 0]
    C[:, :, :m, m] = V[:-1, 1:, :, 0]
    C[:, :, m, m] = V[1:, 1:, 0, 0]
    return C


# ---------------------------------------------------------------------------
# 1-d right-hand side


@dataclass(frozen=True)
class FluxProjection1D:
    """Per-cell flux-projection dofs plus interface data for the
    flux-mirroring point update.

    F_dofs[i, p, c] are the AF-basis dofs of the degree-(K+1) projection
    of the flux along cell i (endpoints equal the interface numerical
    fluxes); A, dfdql, dfdqr live on interfaces.
    """

    F_dofs: np.ndarray
    A: np.ndarray
    dfdql: np.ndarray
    dfdqr: np.ndarray


def af_rhs_1d(state: AfState1D, problem: ProblemSpec, flux: NumericalFluxSpec,
              flux_projection: FluxProjection1D | None = None) -> AfState1D:
    """Semi-discrete derivative of an AF state, as a state.

    The point update is -(d_L DQ_L + d_R DQ_R): the one-sided derivatives
    DQ_L, DQ_R of the reconstructions left and right of each interface,
    weighed by the partials (d_L, d_R) of the two-point ``flux`` with
    respect to its left and right trace.  Upwind gives the Jacobian
    splitting, Lax-Friedrichs the flux-vector splitting.  A linear problem,
    scalar or system, applies the block row (u S_u + d_L S_L + d_R S_R) / h
    of ``af_stencil_1d`` (matrices u = J, d_L, d_R for a system) to each
    cell block U_i = (p_i, m_i) of the state tensor and its neighbours
    (``mesh.line_apply``).  A nonlinear (scalar) problem takes (d_L, d_R)
    at the shared point value and its moment integrals by quadrature.

    ``flux_projection`` replaces the reconstruction by the projected flux
    (``equiv.project_flux_F``): the point update becomes
    -(d_L DF_L + d_R DF_R) / f'(q) and the moments difference the
    projection.  Nonlinear problems need it to mirror the DG update,
    because the projection's interior moments involve the broken flux
    profile, which the AF dofs alone do not determine.
    """
    ops = af_ops(state.K)
    dx = state.grid.dx
    fp = flux_projection
    if problem.linear and fp is None:
        # a linear problem's Jacobian and flux partials are constant
        return state.with_tensor(line_apply(
            af_stencil_1d(state.K), problem.jacobian(0.0),
            flux_partials(flux, problem, 0.0, 0.0), dx, state.U))
    # the point and moment updates are written into their rows of dU
    dU = np.empty_like(state.U)
    if fp is not None:
        if np.any(np.abs(fp.A) < 1e-12):
            raise ZeroDivisionError("sonic state: flux derivative vanishes at "
                                    "an interface; the identification is "
                                    "undefined")
        dfl, dfr = _interface_derivatives(ops, fp.F_dofs, dx)
        np.divide(-(fp.dfdql[:, None] * dfl + fp.dfdqr[:, None] * dfr),
                  fp.A[:, None], out=dU[:, 0])
        np.multiply(-(1.0 / dx), np.einsum("kp,ipc->ikc", ops.mom_w,
                                           fp.F_dofs), out=dU[:, 1:])
        return state.with_tensor(dU)

    dofs = cell_dof_tensor_1d(state)                     # (n, K+2, 1)
    dql, dqr = _interface_derivatives(ops, dofs, dx)
    pts = state.point_values
    d_l, d_r = flux_partials(flux, problem, pts, pts)
    dU[:, 0] = -(d_l * dql + d_r * dqr)
    _moment_rhs_1d(state, problem, ops, dofs, dU[:, 1:])
    return state.with_tensor(dU)


def _interface_derivatives(ops, dofs, dx):
    """At every interface a, the x-derivatives of the cell polynomials with
    AF-basis dofs ``dofs`` from its left cell a-1 and its right cell a."""
    d_plus = np.einsum("p,ipc->ic", ops.d_plus, dofs) / dx     # right faces
    d_minus = np.einsum("p,ipc->ic", ops.d_minus, dofs) / dx   # left faces
    return roll_cells(d_plus, 1), d_minus


@lru_cache(maxsize=None)
def _moment_quadrature(K: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis at the nodes of the nonlinear moment update's rule, which
    K fixes, and the rule's weights times the moment weights' derivatives
    there; read-only."""
    rule = poly.gauss_legendre_rule((AF_N_INT.get(K + 2, 2 * K + 5) + 2) // 2)
    b, dw = (npp.polyval(rule.nodes, C.T) for C in (basis_table(K, 0),
                                                    af_ops(K).dw))
    return poly.frozen(b), poly.frozen(rule.weights * dw)


def _moment_rhs_1d(state, problem, ops, dofs, dmo):
    """Moment update of a nonlinear flux, by quadrature, into ``dmo``."""
    b, w_dw = _moment_quadrature(state.K)
    vol = np.einsum("iqc,kq->ikc",
                    problem.flux(np.einsum("ipc,pq->iqc", dofs, b)), w_dw)
    f_ends = problem.flux(dofs[:, [0, -1], :])                 # (n, 2, m)
    np.divide(vol - np.einsum("ke,iec->ikc", ops.w_ends, f_ends),
              state.grid.dx, out=dmo)


# ---------------------------------------------------------------------------
# 2-d tensorial right-hand side


@lru_cache(maxsize=None)
def af_stencil_1d(K: int) -> np.ndarray:
    """Blocks (S_u, S_L, S_R) of the periodic 1-d AF operator at dx = 1,
    each a block row [L | D | R] on U_i = (p_i, m_i), cell i's left point
    value and K moments: columns m..2m hold the K+2 dofs of cell i and
    columns 0..m those of cell i-1.  The point rows of S_L and S_R are
    minus the derivatives of cell i-1 at its right face and of cell i at
    its left face; the moment rows of S_u are the moment update.
    """
    ops = af_ops(K)
    m = K + 1
    S = np.zeros((3, m, 3 * m))
    S[0, 1:, m:2 * m + 1] = -ops.mom_w
    S[1, 0, :m + 1] = -ops.d_plus
    S[2, 0, m:2 * m + 1] = -ops.d_minus
    return poly.frozen(S)


def af_rhs_2d_tensorial(state: AfState2D, ux: float, uy: float,
                        partials_x: tuple[float, float],
                        partials_y: tuple[float, float],
                        ghosts=None, apply=None) -> AfState2D:
    """Tensorial AF update for 2-d linear advection, any K >= 1.

    The update is the Kronecker sum A (x) I + I (x) B of the 1-d operators
    (u S_u + d_L S_L + d_R S_R) / h (``af_stencil_1d``), with each axis'
    flux partials (``NumericalFluxSpec.advection_partials``), applied by
    ``mesh.kron_sum_apply`` to the state tensor U[i, a, j, b]: per axis,
    index 0 is the point value and 1..K the moments, so point x point are
    the nodes, point x moment the x-edge moments, moment x point the y-edge
    moments and moment x moment the cell moments.  ``apply`` is the
    ``mesh.kron_sum_applier`` of the operators' ``mesh.axis_stencils``,
    bound to the state's grid and tensor, as a time loop binds it once per
    run (``driver.make_rhs``); None builds both for this call.

    A non-periodic state needs ``ghosts``, the blocks of the cells one
    beyond its tensor, followed by the cells of its unused slots where the
    partial d_R reads them, for the point updates of the right and top
    boundary dofs (see ``kron_sum_apply``).  The derivative is zero in
    those slots.
    """
    periodic = state.periodic
    if not periodic and ghosts is None:
        raise ValueError("a non-periodic state needs ghost blocks")
    apply = apply or kron_sum_applier(state.U, *axis_stencils(
        af_stencil_1d(state.K), state.grid, ux, uy, partials_x, partials_y))
    dU = apply(state.U, ghosts)
    if not periodic:
        dU[-1, 1:] = 0.0
        dU[:, :, -1, 1:] = 0.0
    return state.with_tensor(dU)


# ---------------------------------------------------------------------------
# classical 2-d update (edge midpoints), K = 1, upwind, nonnegative speeds


def af_rhs_2d_classical(state: AfState2D, ux: float, uy: float) -> AfState2D:
    """The classical AF update as the derivative of a periodic K = 1
    state's dofs (nodes, edge averages, cell averages).

    Every node and edge midpoint is advected with the derivatives, in its
    fully upwind cell, of the biquadratic ``af_evaluator_2d`` reconstructs; the
    average differences the edge averages.  An edge average moves with the
    Simpson combination of its end nodes' and midpoint's derivatives, which
    is not the tensorial edge-average update.  Only nonnegative speeds are
    supported (sufficient for the midpoint-versus-edge-average comparison).
    """
    if state.K != 1 or not state.periodic:
        raise NotImplementedError("the classical update is periodic K = 1 only")
    if ux < 0 or uy < 0:
        raise NotImplementedError("classical update implemented for "
                                  "nonnegative speeds")
    dx, dy = state.grid.dx, state.grid.dy
    pts = np.array([0.0, 0.5])
    evaluate = af_evaluator_2d(state)
    dq = -(ux / dx * evaluate(pts, pts, dxi=1)
           + uy / dy * evaluate(pts, pts, deta=1))
    # (1/2, 1/2), (1/2, 0) and (0, 1/2) of a cell are the node and x- and
    # y-edge midpoint of its upper-right, right and upper (downwind) cells
    dN = roll_cells(roll_cells(dq[:, :, 1, 1], 1), 1, axis=1)
    dEx = roll_cells(dq[:, :, 1, 0], 1)
    dEy = roll_cells(dq[:, :, 0, 1], 1, axis=1)
    ex, ey = state.x_edge[..., 0], state.y_edge[..., 0]
    davg = -(ux * (roll_cells(ex, -1) - ex) / dx
             + uy * (roll_cells(ey, -1, axis=1) - ey) / dy)

    dex = simpson_edge_average(dN, dEx, roll_cells(dN, -1, axis=1))
    dey = simpson_edge_average(dN, dEy, roll_cells(dN, -1))
    return AfState2D(state.grid, 1, dN, dex[..., None], dey[..., None],
                     davg[..., None, None])
