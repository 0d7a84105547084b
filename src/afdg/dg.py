"""Semi-discrete Discontinuous Galerkin right-hand sides.

The 1-d assembly exists in two permanently maintained forms that must
agree to roundoff:

  * ``weak``       volume term against test-function derivatives plus
                   interface flux terms, divided by the diagonal mass.
                   For linear problems, scalar or system, this is one
                   three-block product (u S_u + d_L S_L + d_R S_R) / h
                   over the modes of cells i-1, i, i+1 (``dg_stencil_1d``
                   through ``mesh.line_apply``, as in 2-d; u, d_L and d_R
                   are matrices for a system); nonlinear fluxes assemble
                   it term by term;
  * ``augmented``  the flux-corrected reconstruction path: the per-cell
                   polynomial is corrected by scaled Radau polynomials so
                   that the whole update becomes the derivative of a
                   single continuous field.  This is the form the
                   equivalence verifier instruments.

The 2-d assembly is tensor-modal for linear advection: the update is the
Kronecker sum A (x) I + I (x) B of 1-d operators (u S_u + d_L S_L +
d_R S_R) / h in each axis' speed and flux partials, periodic or closed by
Dirichlet ghost blocks.  Three blocks per K (``dg_stencil_1d``, built
from the exact Legendre rows alone and rounded once) give them, and
``mesh.kron_sum_applier`` applies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npp

from . import poly
from .mesh import (AF_N_INT, DG_N_INT, DgState1D, DgState2D, axis_stencils,
                   kron_sum_applier, line_apply, roll_cells)
from .problems import (NumericalFluxSpec, ProblemSpec, flux_partials,
                       invert_flux, numerical_flux)

__all__ = [
    "DgBasis", "dg_basis", "dg_rhs_1d", "dg_stencil_1d", "dg_rhs_2d",
    "trace_values_1d", "interface_traces_1d", "quad_rule_for_order",
    "phi_table", "catalog_phi_values",
]


@dataclass(frozen=True)
class DgBasis:
    """Endpoint-normalized Legendre modes (``poly.legendre``): their
    couplings, each an exact value rounded once, read-only."""

    K: int
    mass: np.ndarray           # diagonal entries of the mass matrix
    stiffness: np.ndarray      # stiffness[m, n] = integral phi_m' phi_n
    value_right: np.ndarray    # phi_n(+1/2) = 1
    value_left: np.ndarray     # phi_n(-1/2) = (-1)^n
    ends: np.ndarray           # rows (value_left, value_right)


@lru_cache(maxsize=None)
def _exact_basis(K: int) -> tuple:
    """Exact (mass, stiffness, ends) of the modes."""
    phi = poly.legendre(K)
    return (np.diag(poly.inner(phi, phi)),
            poly.inner(npp.polyder(phi, axis=1), phi), poly.end_values(phi))


@lru_cache(maxsize=None)
def dg_basis(K: int) -> DgBasis:
    mass, stiff, ends = map(poly.rounded, _exact_basis(K))
    return DgBasis(K, mass, stiff, ends[1], ends[0], ends)


@lru_cache(maxsize=None)
def phi_table(K: int, d: int) -> np.ndarray:
    """The modes' ``poly.table``."""
    return poly.table(poly.legendre(K), d)


def quad_rule_for_order(family: str, order: int) -> poly.QuadratureRule:
    """Gauss rule reaching the catalog's integration order for a method."""
    table = DG_N_INT if family == "dg" else AF_N_INT
    n_int = table[order]
    return poly.gauss_legendre_rule((n_int + 2) // 2)


@lru_cache(maxsize=None)
def catalog_phi_values(K: int) -> tuple:
    """The catalog rule of DG order K + 1 and, row n of each, phi_n and
    phi_n' at its nodes, read-only."""
    rule = quad_rule_for_order("dg", K + 1)
    return rule, *(poly.frozen(npp.polyval(rule.nodes, phi_table(K, d).T))
                   for d in (0, 1))


def trace_values_1d(state: DgState1D) -> tuple[np.ndarray, np.ndarray]:
    """(q_i^-, q_i^+) for every cell; exact modal evaluation at the faces."""
    basis = dg_basis(state.K)
    n, k1, m = state.coeffs.shape
    # the product np.tensordot(coeffs, v, axes=(1, 0)) forms, so the traces
    # match it bit for bit (an einsum or one stacked product would not)
    c = state.coeffs.transpose(0, 2, 1).reshape(n * m, k1)
    return (np.dot(c, basis.value_left).reshape(n, m),
            np.dot(c, basis.value_right).reshape(n, m))


def interface_traces_1d(state: DgState1D) -> tuple[np.ndarray, np.ndarray]:
    """(q_{a-1}^+, q_a^-): the traces either side of every interface a
    (between cells a-1 and a, periodic)."""
    q_minus, q_plus = trace_values_1d(state)
    return roll_cells(q_plus, 1), q_minus


def interface_fluxes_1d(state: DgState1D, problem: ProblemSpec,
                        flux: NumericalFluxSpec) -> np.ndarray:
    """fhat at every interface a (between cells a-1 and a, periodic)."""
    return numerical_flux(flux, problem, *interface_traces_1d(state))


def dg_rhs_1d(state: DgState1D, problem: ProblemSpec,
              flux: NumericalFluxSpec, assembly: str = "weak") -> DgState1D:
    """Semi-discrete time derivative of the modal coefficients.

    The weak form of a linear problem, scalar or system, is the block row
    (u S_u + d_L S_L + d_R S_R) / h of ``dg_stencil_1d`` applied to each
    cell and its two neighbours (``mesh.line_apply``), with the Jacobian u
    and the flux partials (d_L, d_R), matrices for a system.  Nonlinear
    fluxes are integrated with the catalog rule for the method's order.
    """
    if assembly == "weak" and problem.linear:
        # a linear problem's Jacobian and flux partials are constant
        return state.with_tensor(line_apply(
            dg_stencil_1d(state.K), problem.jacobian(0.0),
            flux_partials(flux, problem, 0.0, 0.0), state.grid.dx,
            state.coeffs))
    if assembly == "augmented":
        if not problem.linear:
            raise ValueError("augmented assembly applies to linear problems; "
                             "nonlinear updates go through the flux projection")
        daug = _poly_derivative_modal(
            augmented_coefficients_1d(state, problem, flux), state.K)
        J = np.atleast_2d(problem.jacobian(0.0))
        return state.with_tensor(daug @ (-J.T / state.grid.dx))
    if assembly != "weak":
        raise ValueError(f"unknown assembly {assembly!r}")

    basis = dg_basis(state.K)
    fhat = interface_fluxes_1d(state, problem, flux)          # (n, m)
    fhat_r = roll_cells(fhat, -1)                             # at x_{i+1/2}
    rule, phi, dphi = catalog_phi_values(state.K)
    fvals = problem.flux(np.einsum("inc,nq->iqc", state.coeffs, phi))
    vol = np.einsum("iqc,mq,q->imc", fvals, dphi, rule.weights)
    numer = (vol
             - np.einsum("m,ic->imc", basis.value_right, fhat_r)
             + np.einsum("m,ic->imc", basis.value_left, fhat))
    return state.with_tensor(numer / (state.grid.dx
                                      * basis.mass[None, :, None]))


def augmented_coefficients_1d(state: DgState1D, problem: ProblemSpec,
                              flux: NumericalFluxSpec) -> np.ndarray:
    """Per-cell monomial coefficients of q_i plus its Radau corrections.

    The corrections (qhat - trace) R at each face make the broken field
    globally continuous; degree rises from K to K+1.
    """
    K = state.K
    qhat = interface_states_from_fluxes(
        interface_fluxes_1d(state, problem, flux), problem)
    q_minus, q_plus = trace_values_1d(state)
    phi = phi_table(K, 0)
    r_l, r_r = poly.table(poly.radau_pair(K))

    mono = np.zeros((state.grid.n_cells, K + 2, state.n_components))
    for n in range(K + 1):
        mono[:, : n + 1, :] += state.coeffs[:, n, None, :] \
            * phi[n, : n + 1][None, :, None]
    corr_r = roll_cells(qhat, -1) - q_plus           # weight on R_R
    corr_l = qhat - q_minus                          # weight on R_L
    mono += corr_r[:, None, :] * r_r[None, :, None]
    mono += corr_l[:, None, :] * r_l[None, :, None]
    return mono


def interface_states_from_fluxes(fhat: np.ndarray,
                                 problem: ProblemSpec) -> np.ndarray:
    """Interface state values induced by the numerical flux: its inverse
    (fhat / u for advection, J^-1 fhat for linear systems), and zero for
    advection at zero speed."""
    if problem.advection_speed == 0:
        return np.zeros_like(fhat)
    return invert_flux(problem, fhat)


@lru_cache(maxsize=None)
def monomial_to_modal(K: int) -> np.ndarray:
    """Change of basis modal = T @ monomial on P^K, read-only: by
    orthogonality T[n, j] is the integral of phi_n xi^j divided by the
    mass of phi_n, exact and rounded once."""
    mass, _, _ = _exact_basis(K)
    phi = poly.legendre(K)
    return poly.rounded(poly.inner(phi, np.eye(K + 1, dtype=int))
                        / mass[:, None])


def _poly_derivative_modal(mono: np.ndarray, K: int) -> np.ndarray:
    """d/dxi of per-cell monomial blocks, re-expanded in the modal basis."""
    dmono = mono[:, 1:, :] * np.arange(1, mono.shape[1])[None, :, None]
    return np.einsum("nm,imc->inc", monomial_to_modal(K), dmono)


# ---------------------------------------------------------------------------
# 2-d tensor assembly (linear advection)


def qhat_interfaces_2d(state: DgState2D, alpha: tuple[float, float],
                       beta: tuple[float, float]):
    """Weighted interface traces (periodic): qhat_x[a, j] = ap q^+ + am q^-
    with q^+ the trace of cell (a-1, j) at its right face and q^- that of
    cell (a, j) at its left face (modal in y); qhat_y likewise with beta."""
    ends = dg_basis(state.K).ends
    nx, m, ny, _ = state.U.shape   # one product each way on U[i, m, j, n]
    x_ends = np.matmul(ends, state.U.reshape(nx, m, -1)).reshape(nx, 2, ny, m)
    y_ends = (state.U.reshape(-1, m) @ ends.T).reshape(nx, m, ny, 2)
    ap, am = alpha
    bp, bm = beta
    qhat_x = ap * roll_cells(x_ends[:, 1], 1) + am * x_ends[:, 0]
    qhat_y = bp * roll_cells(y_ends[..., 1], 1, axis=2) + bm * y_ends[..., 0]
    return qhat_x, qhat_y.swapaxes(1, 2)


@lru_cache(maxsize=None)
def dg_stencil_1d(K: int) -> np.ndarray:
    """Blocks (S_u, S_L, S_R) of the periodic 1-d DG operator at dx = 1,
    each a block row [L | D | R] on the modes of cells i-1, i, i+1 divided
    row-wise by the mass: the stiffness, and the traces that the interface
    flux d_L q^+_{left} + d_R q^-_{right} weighs by d_L and by d_R.  Each
    entry is its exact value rounded once; read-only.
    """
    mass, stiffness, (vl, vr) = _exact_basis(K)
    zero = np.zeros((K + 1, K + 1), dtype=int)
    S = np.stack([np.hstack([zero, stiffness, zero]),
                  np.hstack([np.outer(vl, vr), -np.outer(vr, vr), zero]),
                  np.hstack([zero, np.outer(vl, vl), -np.outer(vr, vl)])])
    return poly.rounded(S / mass[:, None])


def dg_rhs_2d(state: DgState2D, ux: float, uy: float,
              partials_x: tuple[float, float],
              partials_y: tuple[float, float], ghosts=None,
              apply=None) -> DgState2D:
    """Tensor-modal update for 2-d linear advection.

    The update is the Kronecker sum A (x) I + I (x) B of the 1-d operators
    (u S_u + d_L S_L + d_R S_R) / h (``dg_stencil_1d``), with each axis'
    flux partials (``NumericalFluxSpec.advection_partials``), applied by
    ``mesh.kron_sum_applier`` to the state tensor U[i, m, j, n]
    (coeffs[i, j, m, n]).  ``apply`` is the ``mesh.kron_sum_applier`` of
    the operators' ``mesh.axis_stencils``, bound to the state's grid and
    tensor, as a time loop binds it once per run (``driver.make_rhs``);
    None builds both for this call.
    The state's layout does not depend on the boundary: ``ghosts``, the
    modal blocks of the cells one beyond it on each side and two None slot
    blocks (``kron_sum_applier``'s six), close a Dirichlet run, and None
    wraps periodically.  Nonlinear problems are out of scope here.
    """
    apply = apply or kron_sum_applier(state.U, *axis_stencils(
        dg_stencil_1d(state.K), state.grid, ux, uy, partials_x, partials_y))
    return state.with_tensor(apply(state.U, ghosts))
