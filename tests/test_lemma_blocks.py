"""The corrected DG field as one coefficient block per cell.

``reference_evaluate`` and the five ``_q_plus_*``/``_d*_q_plus_*``
helpers are the per-piece evaluation of q + r^x + r^y + corners that
``equiv.TensorReconstruction2D`` used before its coefficient blocks,
kept here unchanged (``reference_evaluate`` was the ``evaluate`` method)
as an independent reference for ``TensorReconstruction2D.evaluate``.
"""

import numpy as np
import pytest
from helpers import legendre_polys, radau_polys

from afdg import dg, equiv, poly
from afdg.mesh import DgState2D, Grid2D


def reference_evaluate(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Values on the tensor grid xi x eta, shape (nx, ny, nxi, neta)."""
    st = self.state
    basis = dg.dg_basis(st.K)
    r_l, r_r = radau_polys(st.K)
    phi = legendre_polys(st.K)
    phx = np.array([p(xi) for p in phi])             # (K+1, nxi)
    phy = np.array([p(eta) for p in phi])
    rlx, rrx = r_l(xi), r_r(xi)
    rly, rry = r_l(eta), r_r(eta)

    vals = np.einsum("ijmn,ma,nb->ijab", st.coeffs, phx, phy)
    # r^x: (qhat - own trace) against the x-Radau pair
    tr_r = np.einsum("ijmn,m,nb->ijb", st.coeffs, basis.value_right, phy)
    tr_l = np.einsum("ijmn,m,nb->ijb", st.coeffs, basis.value_left, phy)
    qx_r = np.einsum("ajn,nb->ajb", np.roll(self.qhat_x, -1, axis=0), phy)
    qx_l = np.einsum("ajn,nb->ajb", self.qhat_x, phy)
    vals += np.einsum("ijb,a->ijab", qx_r - tr_r, rrx)
    vals += np.einsum("ijb,a->ijab", qx_l - tr_l, rlx)
    # r^y
    tr_t = np.einsum("ijmn,ma,n->ija", st.coeffs, phx, basis.value_right)
    tr_b = np.einsum("ijmn,ma,n->ija", st.coeffs, phx, basis.value_left)
    qy_t = np.einsum("ibm,ma->iba", np.roll(self.qhat_y, -1, axis=1), phx)
    qy_b = np.einsum("ibm,ma->iba", self.qhat_y, phx)
    vals += np.einsum("ija,b->ijab", qy_t - tr_t, rry)
    vals += np.einsum("ija,b->ijab", qy_b - tr_b, rly)
    # corner corrections
    for sx, rx in ((0, rlx), (1, rrx)):
        for sy, ry in ((0, rly), (1, rry)):
            vals += np.einsum("ij,a,b->ijab", self.corners[:, :, sx, sy],
                              rx, ry)
    return vals


def _q_plus_rx(state, rec, xi, eta_val):
    basis = dg.dg_basis(state.K)
    r_l, r_r = radau_polys(state.K)
    phi = legendre_polys(state.K)
    phx = np.array([p(xi) for p in phi])
    phy = np.array([p(eta_val) for p in phi])
    q = np.einsum("ijmn,ma,n->ija", state.coeffs, phx, phy)
    tr_r = np.einsum("ijmn,m,n->ij", state.coeffs, basis.value_right, phy)
    tr_l = np.einsum("ijmn,m,n->ij", state.coeffs, basis.value_left, phy)
    qx_r = np.einsum("ajn,n->aj", np.roll(rec.qhat_x, -1, axis=0), phy)
    qx_l = np.einsum("ajn,n->aj", rec.qhat_x, phy)
    q += np.einsum("ij,a->ija", qx_r - tr_r, r_r(xi))
    q += np.einsum("ij,a->ija", qx_l - tr_l, r_l(xi))
    return q


def _q_plus_ry(state, rec, xi_val, eta):
    basis = dg.dg_basis(state.K)
    r_l, r_r = radau_polys(state.K)
    phi = legendre_polys(state.K)
    phx = np.array([p(xi_val) for p in phi])
    phy = np.array([p(eta) for p in phi])
    q = np.einsum("ijmn,m,nb->ijb", state.coeffs, phx, phy)
    tr_t = np.einsum("ijmn,m,n->ij", state.coeffs, phx, basis.value_right)
    tr_b = np.einsum("ijmn,m,n->ij", state.coeffs, phx, basis.value_left)
    qy_t = np.einsum("ibm,m->ib", np.roll(rec.qhat_y, -1, axis=1), phx)
    qy_b = np.einsum("ibm,m->ib", rec.qhat_y, phx)
    q += np.einsum("ij,b->ijb", qy_t - tr_t, r_r(eta))
    q += np.einsum("ij,b->ijb", qy_b - tr_b, r_l(eta))
    return q


def _dx_q_plus_rx(state, rec, xi_val, rule):
    """d/dxi of (q + r^x) at xi_val, sampled at the rule's eta nodes."""
    basis = dg.dg_basis(state.K)
    r_l, r_r = radau_polys(state.K)
    phi = legendre_polys(state.K)
    dphx = np.array([p.deriv()(xi_val) for p in phi])
    phy = np.array([p(rule.nodes) for p in phi])
    dq = np.einsum("ijmn,m,nb->ijb", state.coeffs, dphx, phy)
    tr_r = np.einsum("ijmn,m,nb->ijb", state.coeffs, basis.value_right, phy)
    tr_l = np.einsum("ijmn,m,nb->ijb", state.coeffs, basis.value_left, phy)
    qx_r = np.einsum("ajn,nb->ajb", np.roll(rec.qhat_x, -1, axis=0), phy)
    qx_l = np.einsum("ajn,nb->ajb", rec.qhat_x, phy)
    dq += (qx_r - tr_r) * r_r.deriv()(xi_val)
    dq += (qx_l - tr_l) * r_l.deriv()(xi_val)
    return dq


def _dx_q_plus_rx_at(state, rec, xi_val, eta_val):
    rule = poly.QuadratureRule(np.array([eta_val]), np.array([1.0]), 0)
    return _dx_q_plus_rx(state, rec, xi_val, rule)[:, :, 0]


def _dy_q_plus_ry_at(state, rec, xi_val, eta_val):
    basis = dg.dg_basis(state.K)
    r_l, r_r = radau_polys(state.K)
    phi = legendre_polys(state.K)
    phx = np.array([p(xi_val) for p in phi])
    dphy = np.array([p.deriv()(eta_val) for p in phi])
    dq = np.einsum("ijmn,m,n->ij", state.coeffs, phx, dphy)
    tr_t = np.einsum("ijmn,m,n->ij", state.coeffs, phx, basis.value_right)
    tr_b = np.einsum("ijmn,m,n->ij", state.coeffs, phx, basis.value_left)
    qy_t = np.einsum("ibm,m->ib", np.roll(rec.qhat_y, -1, axis=1), phx)
    qy_b = np.einsum("ibm,m->ib", rec.qhat_y, phx)
    dq += (qy_t - tr_t) * r_r.deriv()(eta_val)
    dq += (qy_b - tr_b) * r_l.deriv()(eta_val)
    return dq


# ---------------------------------------------------------------------------
# the reference at every (parts, dxi, deta)


def _stack(f, points, axis):
    return np.stack([f(p) for p in points], axis=axis)


# (parts, dxi, deta) -> values on xi x eta, from the helpers above
DIRECT = {
    ("xy", 0, 0): lambda rec, xi, eta: reference_evaluate(rec, xi, eta),
    ("x", 0, 0): lambda rec, xi, eta: _stack(
        lambda e: _q_plus_rx(rec.state, rec, xi, e), eta, -1),
    ("y", 0, 0): lambda rec, xi, eta: _stack(
        lambda x: _q_plus_ry(rec.state, rec, x, eta), xi, 2),
    ("x", 1, 0): lambda rec, xi, eta: _stack(
        lambda x: _dx_q_plus_rx(rec.state, rec, x, poly.QuadratureRule(
            eta, np.ones_like(eta), 0)), xi, 2),
    ("y", 0, 1): lambda rec, xi, eta: _stack(
        lambda x: _stack(lambda e: _dy_q_plus_ry_at(rec.state, rec, x, e),
                         eta, -1), xi, 2),
}


def _interpolant_derivative(nodes, points, d):
    """W[a, s]: d-th derivative at points[a] of the Lagrange polynomial
    through nodes that is 1 at nodes[s] (Legendre form, well conditioned)."""
    leg = np.polynomial.legendre
    n = len(nodes)
    inv = np.linalg.inv(leg.legvander(2 * nodes, n - 1))
    rows = np.stack([leg.legval(2 * points, leg.legder(np.eye(n)[k], d))
                     for k in range(n)], axis=1) * 2.0 ** d
    return rows @ inv


def reference(rec, parts, dxi, deta, xi, eta):
    """The old evaluation; derivatives it had no helper for come from
    differentiating the exact interpolant of its values (the field has
    degree K + 1 per axis, so K + 2 nodes per axis determine it)."""
    if (parts, dxi, deta) in DIRECT:
        return DIRECT[parts, dxi, deta](rec, xi, eta)
    nodes = poly.gauss_legendre_rule(rec.state.K + 2).nodes
    vals = DIRECT[parts, 0, 0](rec, nodes, nodes)
    return np.einsum("as,ijst,bt->ijab",
                     _interpolant_derivative(nodes, xi, dxi), vals,
                     _interpolant_derivative(nodes, eta, deta))


def _reconstruction(K):
    """The reconstruction of a random DG state; the grids are not square,
    so a swapped axis changes the shapes."""
    rng = np.random.default_rng(40 + K)
    nx, ny = 6, 5
    grid = Grid2D(0.0, 1.0, nx, 0.0, 1.0, ny)
    state = DgState2D(grid, K, rng.uniform(-1, 1, (nx, ny, K + 1, K + 1)))
    return equiv.reconstruct_af_2d_from_dg(state, (0.8, 0.2), (0.6, 0.4))


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("parts", ["xy", "x", "y"])
@pytest.mark.parametrize("dxi,deta", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_blocks_match_per_piece_reference(K, parts, dxi, deta):
    rec = _reconstruction(K)
    xi = np.array([-0.5, -0.31, 0.07, 0.4, 0.5])
    eta = np.array([-0.5, -0.2, 0.26, 0.5])
    got = rec.evaluate(xi, eta, dxi=dxi, deta=deta, parts=parts)
    want = reference(rec, parts, dxi, deta, xi, eta)
    assert got.shape == want.shape == (6, 5, 5, 4)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_blocks_layout():
    """q, r^x, r^y and the corners each own their part of the block."""
    rec = _reconstruction(2)
    D = rec.blocks
    assert D.shape == (6, 5, 5, 5)
    assert np.array_equal(D[:, :, :3, :3], rec.state.coeffs)
    assert np.array_equal(D[:, :, 3:, 3:], rec.corners)
    assert rec.blocks is D


def test_evaluate_rejects_unknown_parts():
    with pytest.raises(ValueError):
        _reconstruction(1).evaluate(np.zeros(1), np.zeros(1), parts="z")
