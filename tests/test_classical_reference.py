"""The classical midpoint update on tensorial K = 1 dofs against the
midpoint-state implementation it replaced.

The reference below is that implementation, kept verbatim apart from the
removed ``variant`` argument and check: ``_tensorial_to_classical``
converts the edge averages of a tensorial K = 1 state into edge
midpoints, ``reference_af_rhs_2d_classical`` updates nodes, midpoints and
cell averages on that midpoint state, and ``reference_derivative``
Simpson-combines the node and midpoint derivatives of each edge into its
edge-average derivative, as the verifier's classical comparison did.
``af.af_rhs_2d_classical`` must give the same derivatives family by
family.
"""

import numpy as np
import pytest
from helpers import cell_integral, simpson_midpoint
from numpy.polynomial import Polynomial

from afdg import af
from afdg.mesh import AfState2D, Grid2D, fill_af_2d, simpson_edge_average


# ---------------------------------------------------------------------------
# reference: the midpoint-state implementation


def _tensorial_to_classical(state: AfState2D) -> AfState2D:
    """Exact conversion: edge midpoints from averages and endpoint nodes."""
    N = state.node_values
    x_mid = simpson_midpoint(state.x_edge[..., 0], N, np.roll(N, -1, axis=1))
    y_mid = simpson_midpoint(state.y_edge[..., 0], N, np.roll(N, -1, axis=0))
    return AfState2D(state.grid, 1, N.copy(), x_mid[..., None],
                     y_mid[..., None], state.cell_moments[:, :, :1, :1].copy())


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


_LAGR = None


def _lagrange_quadratic():
    """1-d quadratic Lagrange basis on {-1/2, 0, 1/2} plus mean weights."""
    global _LAGR
    if _LAGR is None:
        l_l = Polynomial([0.0, -1.0, 2.0])
        l_0 = Polynomial([1.0, 0.0, -4.0])
        l_r = Polynomial([0.0, 1.0, 2.0])
        w = np.array([cell_integral(p) for p in (l_l, l_0, l_r)])
        _LAGR = ((l_l, l_0, l_r), w)
    return _LAGR


def classical_cell_values(state: AfState2D) -> np.ndarray:
    """3x3 point values per cell (corners, edge midpoints, center).

    The center value is recovered from the stored cell average through the
    tensor-Lagrange mean weights.
    """
    if not state.periodic:
        raise NotImplementedError("classical variant is periodic-only")
    _, w = _lagrange_quadratic()
    # the K = 1 closed blocks are the point values, the average in the centre
    V = _dof_tensor_2d(state)
    avg = V[:, :, 1, 1].copy()
    V[:, :, 1, 1] = 0.0
    # center value from the average: subtract the 8 boundary contributions
    partial = np.einsum("ijab,a,b->ij", V, w, w)
    V[:, :, 1, 1] = (avg - partial) / (w[1] * w[1])
    return V


def _classical_derivatives(V, dx, dy, xi, eta):
    """(d/dx, d/dy) of the Lagrange-tensor cell polynomial at (xi, eta)."""
    (basis, _) = _lagrange_quadratic()
    bx = np.array([p(xi) for p in basis])
    by = np.array([p(eta) for p in basis])
    dbx = np.array([p.deriv()(xi) for p in basis])
    dby = np.array([p.deriv()(eta) for p in basis])
    ddx = np.einsum("ijab,a,b->ij", V, dbx, by) / dx
    ddy = np.einsum("ijab,a,b->ij", V, bx, dby) / dy
    return ddx, ddy


def reference_af_rhs_2d_classical(state: AfState2D, ux: float,
                                  uy: float) -> AfState2D:
    """Point updates at nodes and edge midpoints plus the average update.

    Every point is advected with the one-sided derivatives of its fully
    upwind cell; the average uses Simpson-converted edge averages.  Only
    nonnegative speeds are supported (sufficient for the midpoint-versus-
    edge-average comparison).
    """
    if ux < 0 or uy < 0:
        raise NotImplementedError("classical update implemented for "
                                  "nonnegative speeds")
    dx, dy = state.grid.dx, state.grid.dy
    V = classical_cell_values(state)

    # nodes: upwind cell is the lower-left neighbour
    ddx, ddy = _classical_derivatives(V, dx, dy, 0.5, 0.5)
    dN = -(ux * np.roll(ddx, (1, 1), axis=(0, 1))
           + uy * np.roll(ddy, (1, 1), axis=(0, 1)))

    # x-edge midpoints: upwind cell sits left of the interface
    ddx, ddy = _classical_derivatives(V, dx, dy, 0.5, 0.0)
    dEx = -(ux * np.roll(ddx, 1, axis=0) + uy * np.roll(ddy, 1, axis=0))

    # y-edge midpoints: upwind cell sits below
    ddx, ddy = _classical_derivatives(V, dx, dy, 0.0, 0.5)
    dEy = -(ux * np.roll(ddx, 1, axis=1) + uy * np.roll(ddy, 1, axis=1))

    # average: convert midpoints to edge averages, then difference them
    N = state.node_values
    ex_avg = simpson_edge_average(N, state.x_edge[..., 0], np.roll(N, -1, axis=1))
    ey_avg = simpson_edge_average(N, state.y_edge[..., 0], np.roll(N, -1, axis=0))
    davg = -(ux * (np.roll(ex_avg, -1, axis=0) - ex_avg) / dx
             + uy * (np.roll(ey_avg, -1, axis=1) - ey_avg) / dy)

    return AfState2D(state.grid, 1, dN, dEx[..., None], dEy[..., None],
                     davg[..., None, None])


def reference_derivative(state: AfState2D, ux: float, uy: float) -> dict:
    """The tensorial K = 1 derivative by family: node and cell-average
    derivatives as they come, edge averages Simpson-combined per edge."""
    dclassical = reference_af_rhs_2d_classical(_tensorial_to_classical(state),
                                               ux, uy)
    dn = dclassical.node_values
    simpson_x = simpson_edge_average(dn, dclassical.x_edge[..., 0],
                                     np.roll(dn, -1, axis=1))
    simpson_y = simpson_edge_average(dn, dclassical.y_edge[..., 0],
                                     np.roll(dn, -1, axis=0))
    return {"node_values": dn, "x_edge": simpson_x, "y_edge": simpson_y,
            "cell_moments": dclassical.cell_moments[..., 0, 0]}


# ---------------------------------------------------------------------------

GRIDS = {"8x8": Grid2D.square(8), "7x5": Grid2D(0.0, 1.0, 7, 0.0, 1.5, 5)}
SPEEDS = [(1.0, 1.0), (1.0, 0.8), (0.3, 0.0), (0.0, 0.0)]


def random_state(grid: Grid2D, seed: int) -> AfState2D:
    """A random periodic tensorial K = 1 state."""
    rng = np.random.default_rng(seed)
    nx, ny = grid.n_cells_x, grid.n_cells_y
    r = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    return AfState2D(grid, 1, r(nx, ny), r(nx, ny, 1), r(nx, ny, 1),
                     r(nx, ny, 1, 1))


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("ux,uy", SPEEDS)
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_classical_update_matches_midpoint_reference(grid, ux, uy, seed):
    state = random_state(GRIDS[grid], seed)
    want = reference_derivative(state, ux, uy)
    got = af.af_rhs_2d_classical(state, ux, uy)
    for family, w in want.items():
        g = getattr(got, family).reshape(w.shape)
        scale = max(np.max(np.abs(w)), np.max(np.abs(g)))
        assert np.max(np.abs(g - w)) <= 1e-14 * scale, family
    # the state is read, never written
    assert np.array_equal(state.U, random_state(GRIDS[grid], seed).U)


@pytest.mark.parametrize("K,periodic", [(2, True), (1, False)])
def test_classical_update_refuses_other_states(K, periodic):
    state = fill_af_2d(Grid2D.square(6), K, lambda x, y: x * y, periodic)
    with pytest.raises(NotImplementedError, match="periodic K = 1"):
        af.af_rhs_2d_classical(state, 1.0, 1.0)


@pytest.mark.parametrize("ux,uy", [(-1.0, 1.0), (1.0, -0.5)])
def test_classical_update_refuses_negative_speeds(ux, uy):
    with pytest.raises(NotImplementedError, match="nonnegative"):
        af.af_rhs_2d_classical(random_state(GRIDS["8x8"], 3), ux, uy)
