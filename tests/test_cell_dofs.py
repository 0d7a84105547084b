"""The sum-factorised cell projections behind the fills and the ghost ring.

``loop_fill_*`` are the per-mode quadrature loops that the fills in
``afdg.mesh`` used before the cell projectors (``af_cell_projector_2d``/
``dg_cell_projector_2d``), and
``strip_pad_2d`` the ghost ring assembled from four non-periodic strip
fills that the padded Dirichlet path used before its one projection call.
They are kept here as an independent reference; the ring reads and
writes each state's family fields (``fields``), every one indexed by cell
first, as the states stored them then.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from afdg import dg, driver, mesh, poly
from afdg.driver import RunConfig
from afdg.mesh import (AfState1D, AfState2D, DgState1D, DgState2D, Grid1D,
                       Grid2D, _FILL_RULE, _af_moment_weights,
                       _as_components, _dg_projection_weights)
from helpers import with_slots


def loop_fill_af_1d(grid, K, init, n_components=1, rule=None):
    pts = _as_components(init(grid.interfaces()), n_components)

    rule = rule or _FILL_RULE
    nodes, weights = rule.nodes, rule.weights
    xq = grid.centers()[:, None] + grid.dx * nodes[None, :]
    fq = _as_components(init(xq), n_components)  # (n_cells, 12, m)
    moments = np.empty((grid.n_cells, K, n_components))
    for k in range(K):
        bw = (k + 1) * (2 * nodes) ** k * weights
        moments[:, k, :] = np.tensordot(fq, bw, axes=(1, 0))
    return AfState1D(grid, K, pts, moments)


def loop_fill_dg_1d(grid, K, init, n_components=1):
    nodes = _FILL_RULE.nodes
    xq = grid.centers()[:, None] + grid.dx * nodes[None, :]
    fq = _as_components(init(xq), n_components)
    coeffs = np.empty((grid.n_cells, K + 1, n_components))
    for n, w in enumerate(_dg_projection_weights(K)):
        coeffs[:, n, :] = np.tensordot(fq, w, axes=(1, 0))
    return DgState1D(grid, K, coeffs)


def loop_fill_af_2d(grid, K, init, periodic=True, rule=None):
    xs_if = grid.gx.interfaces(periodic)
    ys_if = grid.gy.interfaces(periodic)
    xc, yc = grid.gx.centers(), grid.gy.centers()
    rule = rule or _FILL_RULE
    nodes, weights = rule.nodes, rule.weights

    node_values = np.asarray(init(xs_if[:, None], ys_if[None, :]), dtype=float)

    bws = [(k + 1) * (2 * nodes) ** k * weights for k in range(K)]

    fx = init(xs_if[:, None, None], yc[None, :, None] + grid.dy * nodes[None, None, :])
    x_edge = np.stack([np.tensordot(fx, bw, axes=(2, 0)) for bw in bws], axis=-1)

    # horizontal edges: quadrature runs along x, axes (cell_x, interface_y, quad)
    fy = init(xc[:, None, None] + grid.dx * nodes[None, None, :],
              ys_if[None, :, None])
    y_edge = np.stack([np.tensordot(fy, bw, axes=(2, 0)) for bw in bws], axis=-1)

    xq2 = xc[:, None, None, None] + grid.dx * nodes[None, None, :, None]
    yq2 = yc[None, :, None, None] + grid.dy * nodes[None, None, None, :]
    fq = np.asarray(init(xq2, yq2), dtype=float)
    cell_moments = np.empty((grid.n_cells_x, grid.n_cells_y, K, K))
    for m in range(K):
        for n in range(K):
            cell_moments[:, :, m, n] = np.einsum("ijab,a,b->ij", fq, bws[m], bws[n])
    return AfState2D(grid, K, node_values, x_edge, y_edge, cell_moments)


def loop_fill_dg_2d(grid, K, init):
    nodes = _FILL_RULE.nodes
    xq = grid.gx.centers()[:, None, None, None] + grid.dx * nodes[None, None, :, None]
    yq = grid.gy.centers()[None, :, None, None] + grid.dy * nodes[None, None, None, :]
    fq = np.asarray(init(xq, yq), dtype=float)
    coeffs = np.empty((grid.n_cells_x, grid.n_cells_y, K + 1, K + 1))
    w = _dg_projection_weights(K)
    for m in range(K + 1):
        for n in range(K + 1):
            coeffs[:, :, m, n] = np.einsum("ijab,a,b->ij", fq, w[m], w[n])
    return DgState2D(grid, K, coeffs)


def fields(state):
    if isinstance(state, DgState2D):
        return [state.coeffs]
    return [state.node_values, state.x_edge, state.y_edge, state.cell_moments]


def strip_pad_2d(state, fill, exact, t):
    """The padded fields (see ``fields``): cell (i, j) at [i + 1, j + 1]."""
    g = state.grid
    nx, ny = g.n_cells_x, g.n_cells_y
    gpad = Grid2D(g.x_min - g.dx, g.x_max + g.dx, nx + 2,
                  g.y_min - g.dy, g.y_max + g.dy, ny + 2)
    padded = [np.empty((nx + 2, ny + 2) + a.shape[2:]) for a in fields(state)]

    def fill_strip(x0, x1, ncx, y0, y1, ncy, si, sj):
        strip = fill(Grid2D(x0, x1, ncx, y0, y1, ncy),
                     lambda x, y: exact(t, x, y))
        for a, s in zip(padded, fields(strip)):
            a[si:si + ncx, sj:sj + ncy] = s[:ncx, :ncy]

    fill_strip(gpad.x_min, gpad.x_max, nx + 2, gpad.y_min, g.y_min, 1, 0, 0)
    fill_strip(gpad.x_min, gpad.x_max, nx + 2, g.y_max, gpad.y_max, 1, 0, ny + 1)
    fill_strip(gpad.x_min, g.x_min, 1, g.y_min, g.y_max, ny, 0, 1)
    fill_strip(g.x_max, gpad.x_max, 1, g.y_min, g.y_max, ny, nx + 1, 1)
    for a, s in zip(padded, fields(state)):
        a[1:1 + s.shape[0], 1:1 + s.shape[1]] = s
    return padded


def as_blocks(fields):
    """Per-cell (K+1, K+1) blocks of cell-first family fields."""
    if len(fields) == 1:
        return fields[0]
    N, Ex, Ey, Mo = fields
    blocks = np.empty(N.shape + (Ex.shape[2] + 1,) * 2)
    blocks[..., 0, 0], blocks[..., 0, 1:] = N, Ex
    blocks[..., 1:, 0], blocks[..., 1:, 1:] = Ey, Mo
    return blocks


# ---------------------------------------------------------------------------

TOL = 1e-14
GRIDS = {"3x4": Grid2D(0.0, 1.0, 3, 0.0, 1.5, 4),
         "7x5": Grid2D(-0.25, 1.0, 7, 0.1, 0.9, 5)}


def _exact(init, ux=0.7, uy=-0.4):
    cfg = RunConfig(problem="advection2d", init=init, ux=ux, uy=uy)
    return driver.exact_solution(cfg)


# each entry: the data for the new fill, and the same data for the loop
# reference, whose quadrature needs f in the full point shape
DATA = {
    "gauss": (lambda x, y: _exact("gauss")(0.03, x, y),) * 2,
    "sine": (lambda x, y: _exact("sine")(0.03, x, y),) * 2,
    "ones": (lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x + y)),
}


def assert_close(new, ref):
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= TOL * np.max(np.abs(b))


@pytest.mark.parametrize("data", sorted(DATA))
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_2d_fills_match_loop_reference(K, grid, periodic, data):
    g = GRIDS[grid]
    f, f_ref = DATA[data]
    # a DG state's layout does not depend on the boundary
    assert_close(mesh.fill_dg_2d(g, K, f).arrays(),
                 loop_fill_dg_2d(g, K, f_ref).arrays())
    catalog = dg.quad_rule_for_order("af", K + 2)
    for rule in (None, catalog):
        state = mesh.fill_af_2d(g, K, f, periodic, rule)
        assert state.periodic is periodic
        assert_close(state.arrays(),
                     loop_fill_af_2d(g, K, f_ref, periodic, rule).arrays())


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_1d_fills_match_loop_reference(K):
    g = Grid1D(-0.25, 1.0, 7)
    f = lambda x: np.stack([np.sin(3 * x), np.exp(x)], axis=-1)
    assert_close(mesh.fill_dg_1d(g, K, f, 2).arrays(),
                 loop_fill_dg_1d(g, K, f, 2).arrays())
    for rule in (None, dg.quad_rule_for_order("af", K + 2)):
        new = mesh.fill_af_1d(g, K, f, 2, rule=rule)
        ref = loop_fill_af_1d(g, K, f, 2, rule=rule)
        assert_close([new.point_values, new.moments],
                     [ref.point_values, ref.moments])


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_af_moment_weights_are_one_read_only_table_per_rule(K):
    for rule in (_FILL_RULE, dg.quad_rule_for_order("af", K + 2),
                 poly.gauss_legendre_rule(5)):
        B = _af_moment_weights(K, rule)
        # the rows of the weights (k + 1) (2 xi)^k, evaluated by Horner
        rows = np.diag((np.arange(K) + 1) * 2.0 ** np.arange(K))
        want = npp.polyval(rule.nodes, rows.T) * rule.weights
        assert B.shape == want.shape and B.tobytes() == want.tobytes()
        assert np.allclose(B, [(k + 1) * (2 * rule.nodes) ** k * rule.weights
                               for k in range(K)], rtol=1e-15, atol=0)
        assert not B.flags.writeable
        # a rule is unhashable; an equal one built anew shares the table
        again = poly.QuadratureRule(rule.nodes.copy(), rule.weights.copy(),
                                    rule.exactness_degree)
        assert _af_moment_weights(K, again) is B
    other = _af_moment_weights(K, poly.gauss_legendre_rule(6))
    assert other.shape == (K, 6)


def test_cell_dofs_broadcast_over_any_cell_set():
    # a flat list of cells gives the entries of the grid call at those cells
    g = GRIDS["7x5"]
    f = DATA["sine"][0]
    i, j = np.array([0, 6, 3, 2]), np.array([4, 0, 2, 2])
    x0, y0 = g.x_min + i * g.dx, g.y_min + j * g.dy
    for cell_dofs, grid_state in (
            (mesh.af_cell_projector_2d(3, x0, y0, g.dx, g.dy)(f),
             mesh.fill_af_2d(g, 3, f)),
            (mesh.dg_cell_projector_2d(3, x0, y0, g.dx, g.dy)(f),
             mesh.fill_dg_2d(g, 3, f))):
        assert_close([cell_dofs], [grid_state.U.swapaxes(1, 2)[i, j]])


FAMILIES = {
    "af": lambda g, K, f: loop_fill_af_2d(g, K, f, periodic=False),
    "dg": loop_fill_dg_2d,
}


@pytest.mark.parametrize("data", ["gauss", "sine"])
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("family", ["af", "dg"])
def test_ghost_ring_matches_strip_reference(family, K, grid, data):
    loop_fill = FAMILIES[family]
    g = GRIDS[grid]
    exact = _exact(data)
    state = loop_fill(g, K, lambda x, y: exact(0.0, x, y))
    nx, _, ny, _ = state.U.shape
    kept = state.U.copy()
    ring = driver._ghost_ring(state, exact)(0.02)
    x_lo, x_hi, y_lo, y_hi, x_slot, y_slot = ring
    assert np.array_equal(state.U, kept)
    ref = as_blocks(strip_pad_2d(
        state, lambda gs, f: loop_fill(gs, K, f), exact, 0.02))
    assert_close([x_lo, y_lo], [ref[0, 1:1 + ny], ref[1:1 + nx, 0]])
    if family == "dg":
        assert x_slot is None and y_slot is None
        assert_close([x_hi, y_hi], [ref[nx + 1, 1:1 + ny],
                                    ref[1:1 + nx, ny + 1]])
    else:
        # an AF tensor's last row and column are the strips' right and top
        # cells (its slot blocks), and its ghost blocks lie one cell beyond
        assert x_hi.shape == (ny, K + 1, K + 1)
        assert y_hi.shape == (nx, K + 1, K + 1)
        V = with_slots(state.U, x_slot, y_slot).swapaxes(1, 2)
        assert_close([V[-1, :, 1:], V[:, -1, :, 1:]],
                     [ref[nx, 1:1 + ny, 1:], ref[1:1 + nx, ny, :, 1:]])
