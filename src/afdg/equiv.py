"""Dof mappings between DG and AF and the semi-discrete equivalence verifier.

The mapping sends a DG state to AF dofs (interface values from the
numerical flux, moments by exact modal transfer).  In 2-d it is T (x) T of
the 1-d block row [T_-1 | T_0 | 0] (``map_stencil_1d``, built from DG data
alone), applied by ``mesh.kron_apply``.  The verifier then compares,
family by family,

  (a) the time derivatives of the mapped dofs induced by the DG
      right-hand side: for linear problems the map of the DG derivative
      (1-d and 2-d alike); for nonlinear ones moments via modal transfer
      and interface values via the flux-partial chain rule on trace
      derivatives, the DG end values (``DgBasis.ends``) of the modal
      derivative, and
  (b) the native AF right-hand side evaluated on the mapped state,

each family pair one row (1-d) or one field (2-d) of the two AF states.
Both sides are independently implemented, so machine-precision agreement
is a strong mutual oracle.  Every transfer matrix is its exact rational
value rounded once to float64 (``poly.inner``); the rest of the gap is
the roundoff of applying the tables to a state.

The 2-d identity checks (``lemma_checks``) hold the corrected DG field
q + r^x + r^y + corners as one coefficient block per cell over the 1-d
basis (phi_0..phi_K, R_L, R_R) in each axis (``TensorReconstruction2D``).
Every end value they take is one product with ``DgBasis.ends``.
Evaluating it reads only DG and Radau data (``dg.dg_basis``,
``poly.legendre``, ``poly.radau_pair``), never the AF operators it is
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import polynomial as npp

from . import af, dg, poly
from .mesh import (AfState1D, AfState2D, DgState1D, DgState2D, Grid1D, Grid2D,
                   _af_moment_weights, kron_apply, roll_cells)
from .problems import (NumericalFluxSpec, ProblemSpec, builtin_problems,
                       check_weights, flux_partials, flux_spec, invert_flux,
                       lax_friedrichs_speed, numerical_flux)

__all__ = [
    "moment_transfer_matrix", "map_dg_to_af_1d", "project_flux_F",
    "dg_induced_af_derivative_1d",
    "map_stencil_1d", "map_dg_to_af_2d", "reconstruct_af_2d_from_dg",
    "dg_induced_af_derivative_2d", "lemma_checks",
    "EquivSetting", "EquivalenceReport", "FamilyResult", "verify_equivalence",
]


@lru_cache(maxsize=None)
def moment_transfer_matrix(K: int) -> np.ndarray:
    """T[k, n] = A_k * integral of (2 xi)^k phi_n over the cell, exact and
    rounded once, read-only."""
    return poly.rounded(poly.inner(poly.moment_weights(K), poly.legendre(K)))


# ---------------------------------------------------------------------------
# 1-d mapping and induced derivatives


def map_dg_to_af_1d(state: DgState1D, flux: NumericalFluxSpec,
                    problem: ProblemSpec) -> AfState1D:
    """Interface values from the numerical flux, moments by modal transfer,
    written into the rows of the mapped state's cell blocks."""
    fhat = dg.interface_fluxes_1d(state, problem, flux)
    U = np.empty_like(state.U)
    U[:, 0] = dg.interface_states_from_fluxes(fhat, problem)
    np.einsum("kn,inc->ikc", moment_transfer_matrix(state.K), state.coeffs,
              out=U[:, 1:])
    return AfState1D.from_tensor(state.grid, state.K, U)


def project_flux_F(state: DgState1D, problem: ProblemSpec,
                   flux: NumericalFluxSpec) -> af.FluxProjection1D:
    """Degree-(K+1) flux projection per cell plus interface chain-rule data.

    Endpoint dofs equal the interface numerical fluxes; interior moments
    match the flux composed with the broken DG polynomial under the same
    quadrature the DG volume term uses, which is what makes the mirrored
    AF update reproduce the DG trace derivatives exactly.
    """
    if not problem.is_scalar:
        raise ValueError("flux projection is defined for scalar problems")
    K = state.K
    rule, phi_vals, _ = dg.catalog_phi_values(K)
    q_l, q_r = dg.interface_traces_1d(state)
    fhat = numerical_flux(flux, problem, q_l, q_r)               # (n_if, 1)

    dl, dr = flux_partials(flux, problem, q_l, q_r)
    dfdql = np.asarray(dl)[:, 0]
    dfdqr = np.asarray(dr)[:, 0]
    A = np.asarray(problem.jacobian(invert_flux(problem, fhat)))[:, 0]

    qvals = np.einsum("inc,nq->iqc", state.coeffs, phi_vals)
    fvals = problem.flux(qvals)                                  # (n, nq, 1)
    moments = np.einsum("kq,iqc->ikc", _af_moment_weights(K, rule), fvals)
    F_dofs = np.concatenate([fhat[:, None], moments,
                             roll_cells(fhat, -1)[:, None]], axis=1)
    return af.FluxProjection1D(F_dofs=F_dofs, A=A, dfdql=dfdql, dfdqr=dfdqr)


def dg_induced_af_derivative_1d(state: DgState1D, problem: ProblemSpec,
                                flux: NumericalFluxSpec) -> AfState1D:
    """Time derivatives of the mapped AF dofs implied by the DG method.

    The map is linear for a linear problem, so the derivatives are the
    map of the DG derivative, as in 2-d.  Otherwise moments transfer
    modally and interface values follow the chain rule through the
    numerical flux, with the trace time derivatives the end values of the
    modal derivative (``DgBasis.ends``).
    """
    dstate = dg.dg_rhs_1d(state, problem, flux, assembly="weak")
    if problem.linear:
        return map_dg_to_af_1d(dstate, flux, problem)
    dc = dstate.coeffs
    U = np.empty_like(dc)
    np.einsum("kn,inc->ikc", moment_transfer_matrix(state.K), dc,
              out=U[:, 1:])

    value_left, value_right = dg.dg_basis(state.K).ends
    dq_plus = np.einsum("inc,n->ic", dc, value_right)
    dq_minus = np.einsum("inc,n->ic", dc, value_left)
    dql = roll_cells(dq_plus, 1)               # d/dt q_{a-1}^+
    dqr = dq_minus                             # d/dt q_a^-

    q_l, q_r = dg.interface_traces_1d(state)
    fhat = numerical_flux(flux, problem, q_l, q_r)
    dl, dr = flux_partials(flux, problem, q_l, q_r)
    A = problem.jacobian(invert_flux(problem, fhat))
    U[:, 0] = (np.asarray(dl) * dql + np.asarray(dr) * dqr) / np.asarray(A)
    return AfState1D.from_tensor(state.grid, state.K, U)


# ---------------------------------------------------------------------------
# 2-d mapping, reconstruction, induced derivatives


@lru_cache(maxsize=256)
def map_stencil_1d(K: int, weights: tuple[float, float]) -> np.ndarray:
    """Block row [T_-1 | T_0 | 0] of the periodic 1-d DG-to-AF map on the
    modes of cells i-1, i, i+1, read-only: the point value left of cell i
    is w+ q_{i-1}^+ + w- q_i^- for the one-sided weights (w+, w-), and the
    moments transfer modally.  Built from ``dg.dg_basis`` and
    ``moment_transfer_matrix`` alone, never from the AF operators.
    """
    b = dg.dg_basis(K)
    w_plus, w_minus = weights
    T = np.zeros((K + 1, 3 * (K + 1)))
    T[0, :K + 1] = w_plus * b.value_right
    T[0, K + 1:2 * K + 2] = w_minus * b.value_left
    T[1:, K + 1:2 * K + 2] = moment_transfer_matrix(K)
    return poly.frozen(T)


def map_dg_to_af_2d(state: DgState2D, alpha: tuple[float, float],
                    beta: tuple[float, float], check_consistency: bool = True
                    ) -> AfState2D:
    """Corner/edge/moment dofs of tensorial AF from a DG state, wrapped
    periodically: the mapped AF state has n cells per axis, so it reads as
    periodic (``AfState2D.periodic``).

    The map is T (x) T of the 1-d map (``map_stencil_1d``) with the alpha
    weights in x and the beta weights in y, applied by ``mesh.kron_apply``:
    corners combine the four one-sided corner traces with the alpha/beta
    products, edge dofs are tangential moments of the weighted interface
    traces and interior moments transfer tensor-modally.  The two ways of
    evaluating a corner through the weighted edge traces of
    ``dg.qhat_interfaces_2d`` must agree with the mapped node (consistency
    of the corner definition); a violation is an internal error.  The
    same tensor form serves every K >= 1, and ``lemma_checks`` checks its
    reconstruction and update identities at each.
    ``check_consistency=False`` skips that check.
    """
    if state.K < 1:
        raise ValueError("the 2-d identification needs K >= 1")
    check_weights(alpha)
    check_weights(beta)
    K = state.K
    out = AfState2D.from_tensor(state.grid, K, kron_apply(
        state.U, map_stencil_1d(K, tuple(alpha)),
        map_stencil_1d(K, tuple(beta))))
    if check_consistency:
        res = corner_consistency_residual(state, alpha, beta, out.node_values)
        if res > 1e-12:
            raise RuntimeError(f"corner consistency violated: {res:.3e}")
    return out


def corner_consistency_residual(state: DgState2D, alpha, beta,
                                nodes: np.ndarray | None = None,
                                qhat: tuple | None = None) -> float:
    """Max gap between the two weighted-trace expressions for the corner
    (and the mapped ``nodes``); ``qhat`` is the caller's
    ``dg.qhat_interfaces_2d`` pair, if it has one."""
    ap, am = alpha
    bp, bm = beta
    ends = dg.dg_basis(state.K).ends
    qhat_x, qhat_y = qhat or dg.qhat_interfaces_2d(state, alpha, beta)
    # each qhat at its two ends: qhat_y (an x-polynomial on horizontal
    # interfaces) at x = -+1/2, qhat_x at y = -+1/2
    qy, qx = qhat_y @ ends.T, qhat_x @ ends.T
    expr1 = ap * roll_cells(qy[..., 1], 1) + am * qy[..., 0]
    expr2 = bp * roll_cells(qx[..., 1], 1, axis=1) + bm * qx[..., 0]
    res = np.max(np.abs(expr1 - expr2))
    if nodes is not None:
        res = max(res, np.max(np.abs(expr1 - nodes)))
    return float(res)


@lru_cache(maxsize=None)
def _psi(K: int, d: int) -> np.ndarray:
    """``poly.table`` of psi = (phi_0..phi_K, R_L, R_R)."""
    phi = np.pad(poly.legendre(K), ((0, 0), (0, 1)))
    return poly.table(np.vstack([phi, poly.radau_pair(K)]), d)


@dataclass(frozen=True)
class TensorReconstruction2D:
    """Per-cell corrected DG fields: q + r^x + r^y + corner terms.

    Built from the modal blocks, interface trace polynomials and corner
    constants C[i, j, (L/R)x, (L/R)y]; evaluated through ``blocks``.
    ``mapped`` is the AF state the corners were built from.
    """

    state: DgState2D
    qhat_x: np.ndarray
    qhat_y: np.ndarray
    corners: np.ndarray       # (nx, ny, 2, 2)
    mapped: AfState2D | None = None

    @cached_property
    def blocks(self) -> np.ndarray:
        """D[i, j, p, q]: the field of cell (i, j) is sum D psi_p(xi) psi_q(eta)
        over psi = (phi_0..phi_K, R_L, R_R).  q fills the modal block, r^x
        (qhat minus the cell's own x-trace) the two Radau rows, r^y the two
        Radau columns and the corner constants the 2 x 2 Radau corner."""
        c = self.state.coeffs
        ends = dg.dg_basis(self.state.K).ends
        r_x = (np.stack([self.qhat_x, roll_cells(self.qhat_x, -1)], axis=2)
               - ends @ c)
        r_y = (np.stack([self.qhat_y, roll_cells(self.qhat_y, -1, axis=1)],
                        axis=3)
               - c @ ends.T)
        return np.block([[c, r_y], [r_x, self.corners]])

    def evaluate(self, xi: np.ndarray, eta: np.ndarray, dxi: int = 0,
                 deta: int = 0, parts: str = "xy") -> np.ndarray:
        """The field differentiated dxi times in xi and deta times in eta on
        the tensor grid xi x eta, shape (nx, ny, nxi, neta).

        ``parts="x"`` evaluates q + r^x and ``parts="y"`` q + r^y: the
        Radau columns, respectively rows, of the blocks are left out.
        """
        if parts not in ("x", "y", "xy"):
            raise ValueError(f"parts must be 'x', 'y' or 'xy', got {parts!r}")
        K = self.state.K
        rows = K + 3 if "x" in parts else K + 1
        cols = K + 3 if "y" in parts else K + 1
        px = npp.polyval(xi, _psi(K, dxi).T)[:rows]
        py = npp.polyval(eta, _psi(K, deta).T)[:cols]
        return px.T @ self.blocks[:, :, :rows, :cols] @ py


def reconstruct_af_2d_from_dg(state: DgState2D, alpha, beta
                              ) -> TensorReconstruction2D:
    """Build q + r^x + r^y plus the four corner constants per cell: at its
    corner (sx, sy) (1: right/top), cell (i, j)'s own value plus the mapped
    node at (i+sx, j+sy) minus the end values there of the two qhat."""
    ends = dg.dg_basis(state.K).ends
    qhat_x, qhat_y = dg.qhat_interfaces_2d(state, alpha, beta)
    mapped = map_dg_to_af_2d(state, alpha, beta, check_consistency=False)
    qx, qy = qhat_x @ ends.T, qhat_y @ ends.T
    corners = ends @ state.coeffs @ ends.T
    for sx, sy in np.ndindex(2, 2):
        corners[:, :, sx, sy] += (
            roll_cells(roll_cells(mapped.node_values, -sx), -sy, axis=1)
            - roll_cells(qx[..., sy], -sx)
            - roll_cells(qy[..., sx], -sy, axis=1))
    return TensorReconstruction2D(state, qhat_x, qhat_y, corners, mapped)


def dg_induced_af_derivative_2d(state: DgState2D, ux: float, uy: float,
                                partials_x: tuple[float, float],
                                partials_y: tuple[float, float],
                                alpha: tuple[float, float],
                                beta: tuple[float, float]):
    """DG-induced time derivatives of the mapped tensorial dofs."""
    dstate = dg.dg_rhs_2d(state, ux, uy, partials_x, partials_y)
    return map_dg_to_af_2d(dstate, alpha, beta, check_consistency=False)


# ---------------------------------------------------------------------------
# identity checks on the proofs' intermediate objects


def lemma_checks(state: DgState2D, ux: float, uy: float,
                 flux_x: NumericalFluxSpec, flux_y: NumericalFluxSpec
                 ) -> dict[str, float]:
    """Residuals of the reconstruction/update identities on a given state.

    Checks the corner-consistency identity, the average/edge/corner
    matches of the corrected field, the edge-trace combination identity,
    and the three trace-derivative update identities for random weights.
    All residuals are relative to the state scale and must sit at
    roundoff for the equivalence theorem to hold.  A Lax-Friedrichs axis
    of zero speed is refused, as in the verifier.
    """
    _refuse_zero_speed_lax_friedrichs((flux_x.kind, flux_y.kind), ux, uy)
    alpha, beta = flux_x.advection_weights(ux), flux_y.advection_weights(uy)
    scale = max(1e-300, float(np.max(np.abs(state.coeffs))))
    res: dict[str, float] = {}

    rec = reconstruct_af_2d_from_dg(state, alpha, beta)
    mapped = rec.mapped

    res["corner_consistency"] = corner_consistency_residual(
        state, alpha, beta, mapped.node_values,
        (rec.qhat_x, rec.qhat_y)) / scale

    # corrected field equals the AF reconstruction of the mapped dofs
    xi = np.linspace(-0.5, 0.5, 7)
    built = rec.evaluate(xi, xi)
    af_evaluate = af.af_evaluator_2d(mapped)
    direct = af_evaluate(xi, xi)
    res["reconstruction_match"] = float(np.max(np.abs(built - direct))) / scale

    # average match: cell mean of the corrected field equals the DG mean;
    # K + 2 Gauss points integrate its degree K + 1 per axis exactly
    rule = poly.gauss_legendre_rule(state.K + 2)
    built_q = rec.evaluate(rule.nodes, rule.nodes)
    mean_built = rule.weights @ built_q @ rule.weights
    res["average_match"] = float(
        np.max(np.abs(mean_built - state.coeffs[:, :, 0, 0]))) / scale

    # edge-average match: mean of the corrected field along the right edge
    # equals the mean of qhat on that interface
    edge_vals = rec.evaluate(np.array([0.5]), rule.nodes)[:, :, 0, :]
    mean_edge = edge_vals @ rule.weights
    qhat_mean = rec.qhat_x[:, :, 0]
    res["edge_average_match"] = float(
        np.max(np.abs(mean_edge - roll_cells(qhat_mean, -1)))) / scale

    # corner match: corrected field at (+1/2, +1/2) equals the mapped node
    corner_vals = rec.evaluate(np.array([0.5]), np.array([0.5]))[:, :, 0, 0]
    node = roll_cells(roll_cells(mapped.node_values, -1), -1, axis=1)
    res["corner_match"] = float(np.max(np.abs(corner_vals - node))) / scale

    # edge-trace combination identity (both sides along horizontal edges)
    res["edge_trace_combination"] = _edge_trace_identity_residual(
        rec, af_evaluate, alpha, beta, xi) / scale

    # trace-derivative update identities with random weights
    dc = dg.dg_rhs_2d(state, ux, uy, flux_x.advection_partials(ux),
                      flux_y.advection_partials(uy)).coeffs
    res.update({k: v / scale for k, v in _update_identity_residuals(
        state, rec, dc, ux, uy, alpha, beta).items()})
    return res


def _refuse_zero_speed_lax_friedrichs(kinds: tuple[str, str], ux: float,
                                      uy: float) -> None:
    """Refuse a Lax-Friedrichs axis (``kinds``: the x and y flux kinds) of
    zero speed, where the DG-to-AF map's weights are undefined."""
    for kind, axis, u in zip(kinds, ("ux", "uy"), (ux, uy)):
        if kind == "lax_friedrichs" and u == 0:
            raise ValueError("Lax-Friedrichs at zero speed is no weighted "
                             f"flux ({axis} = 0)")


def _edge_trace_identity_residual(rec, af_evaluate, alpha, beta, xi):
    """beta-weighted x-corrected traces along a horizontal interface equal
    the (continuous) mapped reconstruction trace, ``af_evaluate`` (the
    ``af.af_evaluator_2d`` of the mapped state); alpha-weighted mirror."""
    bp, bm = beta
    ap, am = alpha
    edges = np.array([-0.5, 0.5])
    qrx = rec.evaluate(xi, edges, parts="x")
    af_trace = af_evaluate(xi, np.array([0.5]))[:, :, :, 0]
    lhs = bp * qrx[..., 1] + bm * roll_cells(qrx[..., 0], -1, axis=1)
    worst = float(np.max(np.abs(lhs - af_trace)))

    qry = rec.evaluate(edges, xi, parts="y")
    af_trace_x = af_evaluate(np.array([0.5]), xi)[:, :, 0, :]
    lhs = ap * qry[:, :, 1] + am * roll_cells(qry[:, :, 0], -1)
    return max(worst, float(np.max(np.abs(lhs - af_trace_x))))


def _update_identity_residuals(state, rec, dc, ux, uy, alpha, beta):
    """The three weighted trace-derivative identities on a random pair;
    dc holds the DG time derivative of the state's modes."""
    rng = np.random.default_rng(1234)
    a_w, b_w = rng.uniform(-1, 1, 2)
    out = {}
    out["edge_update_identity_x"] = _x_edge_identity(rec, dc, ux, uy, a_w, b_w)

    # the perpendicular-edge identity is the same computation on the
    # transposed state with the axes and weights swapped
    grid_t = Grid2D(state.grid.y_min, state.grid.y_max, state.grid.n_cells_y,
                    state.grid.x_min, state.grid.x_max, state.grid.n_cells_x)
    state_t = DgState2D(grid_t, state.K, state.coeffs.transpose(1, 0, 3, 2))
    rec_t = TensorReconstruction2D(state_t, rec.qhat_y.swapaxes(0, 1),
                                   rec.qhat_x.swapaxes(0, 1),
                                   rec.corners.transpose(1, 0, 3, 2))
    out["edge_update_identity_y"] = _x_edge_identity(
        rec_t, dc.transpose(1, 0, 3, 2), uy, ux, a_w, b_w)

    out["corner_update_identity"] = _corner_identity(
        rec, dc, ux, uy, rng.uniform(-1, 1, 4))
    return out


def _x_edge_identity(rec, dc, ux, uy, a_w, b_w) -> float:
    state = rec.state
    ends = dg.dg_basis(state.K).ends
    rule = poly.gauss_legendre_rule(state.K + 2)
    dx, dy = state.grid.dx, state.grid.dy
    dtr = dc[:, :, :, 0] @ ends.T
    lhs = a_w * dtr[..., 1] + b_w * roll_cells(dtr[..., 0], -1)
    mean_dqrx = rec.evaluate(np.array([-0.5, 0.5]), rule.nodes, dxi=1,
                             parts="x") @ rule.weights / dx
    lhs += ux * (a_w * mean_dqrx[:, :, 1]
                 + b_w * roll_cells(mean_dqrx[:, :, 0], -1))
    qy = rec.qhat_y @ ends.T
    jump = (a_w * (roll_cells(qy[..., 1], -1, axis=1) - qy[..., 1])
            + b_w * roll_cells(roll_cells(qy[..., 0], -1, axis=1) - qy[..., 0],
                               -1))
    lhs += uy * jump / dy
    return float(np.max(np.abs(lhs)))


def _corner_identity(rec, dc, ux, uy, g) -> float:
    """d/dt of a weighted corner combination balances the weighted
    one-sided derivatives of the corrected fields at the shared node."""
    dx, dy = rec.state.grid.dx, rec.state.grid.dy

    def at_node(v):
        """g-weighted values v[..., sx, sy] of the four cells at the node
        they share, the upper-right corner of cell (i, j)."""
        return (g[0] * v[:, :, 1, 1] + g[1] * roll_cells(v[:, :, 0, 1], -1)
                + g[2] * roll_cells(v[:, :, 1, 0], -1, axis=1)
                + g[3] * roll_cells(roll_cells(v[:, :, 0, 0], -1), -1, axis=1))

    ends = dg.dg_basis(rec.state.K).ends
    corners = np.array([-0.5, 0.5])
    lhs = at_node(ends @ dc @ ends.T)
    lhs += ux * at_node(rec.evaluate(corners, corners, dxi=1, parts="x") / dx)
    lhs += uy * at_node(rec.evaluate(corners, corners, deta=1, parts="y") / dy)
    return float(np.max(np.abs(lhs)))


# ---------------------------------------------------------------------------
# the verifier


@dataclass(frozen=True)
class FamilyResult:
    family: str
    max_abs: float
    scale: float
    relative: float
    passed: bool


@dataclass
class EquivalenceReport:
    setting: dict
    tolerance: float
    families: list
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.families)

    def rows(self):
        for f in self.families:
            yield (f.family, f.max_abs, f.scale, f.relative, f.passed)


@dataclass
class EquivSetting:
    """One equivalence-verification run."""

    dimension: int = 1
    problem: str = "advection1d"
    problem_params: dict = field(default_factory=dict)
    flux: str = "upwind"
    alpha_plus: float = 1.0
    beta_plus: float = 1.0
    lf_speed: float | None = None
    K: int = 1
    n_cells: int = 64
    seed: int = 0
    tolerance: float = 1e-11
    variant: str = "tensorial"
    flip_point_sign: bool = False


def _family_results(pairs: dict, tol: float) -> list:
    out = []
    for name, (da, db) in pairs.items():
        gap = float(np.abs(da - db).max()) if da.size else 0.0
        scale = max(float(np.abs(da).max()), float(np.abs(db).max()), 1e-300)
        rel = gap / scale
        out.append(FamilyResult(name, gap, scale, rel, rel <= tol))
    return out


def _random_dg_state_1d(K, n_cells, n_components, seed, nonlinear: bool):
    rng = np.random.default_rng(seed)
    grid = Grid1D(0.0, 1.0, n_cells)
    if not nonlinear:
        coeffs = rng.uniform(-1.0, 1.0, (n_cells, K + 1, n_components))
        return DgState1D(grid, K, coeffs)
    # smooth state bounded inside [0.5, 2] so the flux stays invertible
    phase = rng.uniform(0, 2 * np.pi, 2)
    amp = rng.uniform(0.3, 0.55)

    def init(x):
        return 1.25 + amp * np.sin(2 * np.pi * x + phase[0]) \
            + 0.1 * np.sin(4 * np.pi * x + phase[1])

    from .mesh import fill_dg_1d
    return fill_dg_1d(grid, K, init, n_components)


def verify_equivalence(setting: EquivSetting) -> EquivalenceReport:
    """Run one equivalence comparison and report per-family mismatches."""
    if setting.dimension == 1:
        return _verify_1d(setting)
    if setting.dimension == 2:
        return _verify_2d(setting)
    raise ValueError("dimension must be 1 or 2")


def _verify_1d(s: EquivSetting) -> EquivalenceReport:
    if s.variant != "tensorial":
        raise ValueError(f"the {s.variant!r} variant is a 2-d comparison")
    problem = builtin_problems()[s.problem](**s.problem_params)
    nonlinear = not problem.linear
    state = _random_dg_state_1d(s.K, s.n_cells, problem.n_components, s.seed,
                                nonlinear)
    a = s.lf_speed
    if s.flux == "lax_friedrichs" and a is None:
        a = lax_friedrichs_speed(problem, state.coeffs[:, 0, :])
    flux = flux_spec(s.flux, s.alpha_plus, a)
    if flux.kind == "lax_friedrichs" and problem.advection_speed == 0:
        raise ValueError("Lax-Friedrichs at zero speed is no weighted flux")

    if not (problem.is_scalar or flux.kind == "upwind"):
        raise ValueError("system equivalence is verified with the upwind flux")

    Ua = dg_induced_af_derivative_1d(state, problem, flux).U
    mapped = map_dg_to_af_1d(state, flux, problem)
    fp = project_flux_F(state, problem, flux) if nonlinear else None
    Ub = af.af_rhs_1d(mapped, problem, flux, flux_projection=fp).U
    sign = -1 if s.flip_point_sign else 1

    pairs = {"point_values": (Ua[:, 0], sign * Ub[:, 0])}
    for k in range(s.K):
        pairs[f"moment_{k}"] = (Ua[:, k + 1], Ub[:, k + 1])
    fams = _family_results(pairs, s.tolerance)
    return EquivalenceReport(setting=vars(s).copy(), tolerance=s.tolerance,
                             families=fams,
                             metadata={"seed": s.seed, "problem": problem.name,
                                       "nonlinear": nonlinear})


def _random_dg_state_2d(K, n, seed):
    rng = np.random.default_rng(seed)
    grid = Grid2D.square(n)
    coeffs = rng.uniform(-1.0, 1.0, (n, n, K + 1, K + 1))
    return DgState2D(grid, K, coeffs)


def _verify_2d(s: EquivSetting) -> EquivalenceReport:
    if s.flip_point_sign:
        raise ValueError("flip_point_sign is a 1-d negative control")
    problem = builtin_problems()[s.problem](**s.problem_params)
    ux = problem.advection_speed
    uy = problem.advection_speed_y
    if ux is None or uy is None:
        raise ValueError("2-d verification runs on advection2d")
    _refuse_zero_speed_lax_friedrichs((s.flux, s.flux), ux, uy)
    state = _random_dg_state_2d(s.K, s.n_cells, s.seed)
    a = s.lf_speed
    if s.flux == "lax_friedrichs" and a is None:
        a = lax_friedrichs_speed(problem, state.coeffs[:, :, 0, 0])
    flux_x = flux_spec(s.flux, s.alpha_plus, a)
    flux_y = flux_spec(s.flux, s.beta_plus, a)
    alpha, beta = flux_x.advection_weights(ux), flux_y.advection_weights(uy)
    px, py = flux_x.advection_partials(ux), flux_y.advection_partials(uy)

    induced = dg_induced_af_derivative_2d(state, ux, uy, px, py, alpha, beta)
    mapped = map_dg_to_af_2d(state, alpha, beta)

    metadata = {"seed": s.seed, "zero_speed_axis":
                ("x" if ux == 0 else "") + ("y" if uy == 0 else "")}

    if s.variant == "tensorial":
        dmapped = af.af_rhs_2d_tensorial(mapped, ux, uy, px, py)
    elif s.variant == "classical_midpoint":
        if s.K != 1:
            raise ValueError("the classical midpoint variant is K = 1 only")
        if s.flux != "upwind" or ux < 0 or uy < 0:
            raise ValueError("the classical midpoint comparison runs with "
                             "the upwind flux and nonnegative speeds")
        dmapped = af.af_rhs_2d_classical(mapped, ux, uy)
        metadata["note"] = "midpoint updates Simpson-combined per edge"
    else:
        raise ValueError(f"unknown 2-d variant {s.variant!r}")
    pairs = {
        "node_values": (induced.node_values, dmapped.node_values),
        "x_edge_averages": (induced.x_edge, dmapped.x_edge),
        "y_edge_averages": (induced.y_edge, dmapped.y_edge),
        "cell_averages": (induced.cell_moments, dmapped.cell_moments),
    }

    fams = _family_results(pairs, s.tolerance)
    return EquivalenceReport(setting=vars(s).copy(), tolerance=s.tolerance,
                             families=fams, metadata=metadata)
