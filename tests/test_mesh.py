"""Grids, state containers, dof counting, Simpson conversion, fills."""

import numpy as np
import pytest
from helpers import neighbour_stack, simpson_midpoint

from afdg import af, driver, mesh, poly
from afdg.mesh import Grid1D, Grid2D, dof_counts
from afdg.problems import NumericalFluxSpec, acoustics2x2, flux_partials

# every populated entry of the method-overview table, frozen
AF_TABLE = {
    # order: (n_dofs, n_tdofs, n_mom, n_edge, n_node)
    3: (4, 9, 1, 4, 4),
    4: (6, 13, 1, 8, 4),
    5: (8, 17, 1, 12, 4),
    6: (12, 23, 3, 16, 4),
    7: (17, 30, 6, 20, 4),
}
DG_TABLE = {2: 4, 3: 9, 4: 16, 5: 25, 6: 36}


@pytest.mark.parametrize("order", sorted(AF_TABLE))
def test_af_dof_counts_match_table(order):
    c = dof_counts("af", order)
    assert (c.n_dofs, c.n_tdofs, c.n_mom, c.n_edge, c.n_node) == AF_TABLE[order]


@pytest.mark.parametrize("order", sorted(DG_TABLE))
def test_dg_dof_counts_match_table(order):
    c = dof_counts("dg", order)
    n = DG_TABLE[order]
    assert (c.n_dofs, c.n_tdofs, c.n_mom) == (n, n, n)
    assert c.n_edge is None and c.n_node is None


def test_dof_counts_reject_bad_orders():
    with pytest.raises(ValueError):
        dof_counts("af", 2)
    with pytest.raises(ValueError):
        dof_counts("dg", 0)
    with pytest.raises(ValueError):
        dof_counts("fv", 3)


def test_af_order3_moment_count_formula():
    # max(1, (order-4)(order-3)/2) kicks in below order 6
    assert dof_counts("af", 3).n_mom == 1
    assert dof_counts("af", 6).n_mom == 3


# ---------------------------------------------------------------------------
# Simpson conversion


def test_simpson_constant():
    assert mesh.simpson_edge_average(1.0, 1.0, 1.0) == pytest.approx(1.0)


def test_simpson_formula():
    assert mesh.simpson_edge_average(0.0, 1.0, 0.0) == pytest.approx(2.0 / 3.0)


def test_simpson_roundtrip():
    rng = np.random.default_rng(0)
    end1, mid, end2 = rng.uniform(-2, 2, 3)
    avg = mesh.simpson_edge_average(end1, mid, end2)
    assert simpson_midpoint(avg, end1, end2) == pytest.approx(mid, abs=1e-14)


def test_simpson_exact_on_quadratics():
    # oracle: analytic integral of a*eta^2 + b*eta + c over [-1/2, 1/2]
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, c = rng.uniform(-3, 3, 3)
        f = lambda eta: a * eta ** 2 + b * eta + c
        exact = a / 12.0 + c
        simpson = mesh.simpson_edge_average(f(-0.5), f(0.0), f(0.5))
        assert simpson == pytest.approx(exact, abs=1e-14)


# ---------------------------------------------------------------------------
# fills


def test_fill_af_constant_moments():
    state = mesh.fill_af_1d(Grid1D(0, 1, 8), 4, lambda x: np.ones_like(x))
    for k in range(4):
        want = 1.0 if k % 2 == 0 else 0.0
        assert np.allclose(state.moments[:, k, 0], want, atol=1e-14)
    assert np.allclose(state.point_values, 1.0)


def test_fill_dg_constant_block():
    state = mesh.fill_dg_1d(Grid1D(0, 1, 8), 3, lambda x: np.ones_like(x))
    assert np.allclose(state.coeffs[:, 0, 0], 1.0, atol=1e-14)
    assert np.allclose(state.coeffs[:, 1:, 0], 0.0, atol=1e-14)


def test_fill_dg_linear_closed_form():
    # q(x) = x on one cell: mean is the center, slope coefficient dx/2
    grid = Grid1D(0.0, 2.0, 4)
    state = mesh.fill_dg_1d(grid, 1, lambda x: x)
    centers = grid.centers()
    assert np.allclose(state.coeffs[:, 0, 0], centers, atol=1e-14)
    assert np.allclose(state.coeffs[:, 1, 0], grid.dx / 2.0, atol=1e-14)


def test_fill_then_reconstruct_roundtrip():
    grid = Grid1D(0, 1, 16)
    init = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
    for K in (1, 2, 3):
        state = mesh.fill_af_1d(grid, K, init)
        # interface values are reproduced exactly
        vals = af.af_eval_1d(state, np.array([-0.5]))[:, 0, 0]
        assert np.allclose(vals, init(grid.interfaces()), atol=1e-13)
        # stored moments are reproduced by quadrature of the reconstruction
        rule = poly.gauss_legendre_rule(12)
        recon = af.af_eval_1d(state, rule.nodes)[:, :, 0]
        for k in range(K):
            w = (k + 1) * (2 * rule.nodes) ** k * rule.weights
            assert np.allclose(recon @ w, state.moments[:, k, 0], atol=1e-12)


def test_fill_af_2d_duality_roundtrip():
    grid = Grid2D.square(6)
    init = lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.2
    for K in (1, 2):
        state = mesh.fill_af_2d(grid, K, init)
        evaluate = af.af_evaluator_2d(state)
        corners = evaluate(np.array([-0.5]), np.array([-0.5]))
        assert np.allclose(corners[:, :, 0, 0], state.node_values, atol=1e-12)
        rule = poly.gauss_legendre_rule(10)
        vals = evaluate(np.array([0.5]), rule.nodes)
        for k in range(K):
            w = (k + 1) * (2 * rule.nodes) ** k * rule.weights
            got = np.einsum("ijb,b->ij", vals[:, :, 0, :], w)
            want = np.roll(state.x_edge[:, :, k], -1, axis=0)
            assert np.allclose(got, want, atol=1e-12)
        # the reconstruction reproduces the cell average
        vals = evaluate(rule.nodes, rule.nodes)
        mean = np.einsum("ijab,a,b->ij", vals, rule.weights, rule.weights)
        assert np.allclose(mean, state.cell_moments[:, :, 0, 0], atol=1e-12)


# ---------------------------------------------------------------------------
# states: one cell-block tensor U, U[i, p, c] in 1-d


def _states_1d():
    grid = Grid1D(0, 1, 5)
    f = lambda x: np.stack([np.sin(3 * x), np.cos(x)], axis=-1)
    return mesh.fill_af_1d(grid, 3, f, 2), mesh.fill_dg_1d(grid, 3, f, 2)


GRID_2D = Grid2D(0.0, 1.0, 4, 0.0, 1.5, 3)


def _states():
    """One state of each type; the AF 2-d state periodic and closed."""
    af_1d, dg_1d = _states_1d()
    f = lambda x, y: np.sin(3 * x) * np.cos(y)
    return {"af": af_1d, "dg": dg_1d,
            "af_2d": mesh.fill_af_2d(GRID_2D, 2, f),
            "af_2d_closed": mesh.fill_af_2d(GRID_2D, 2, f, periodic=False),
            "dg_2d": mesh.fill_dg_2d(GRID_2D, 2, f)}


def test_af_1d_fields_are_views_of_the_cell_blocks():
    state, _ = _states_1d()
    assert state.U.shape == (5, 4, 2)
    assert state.arrays() == [state.U]
    for field, rows in ((state.point_values, state.U[:, 0]),
                        (state.moments, state.U[:, 1:])):
        assert np.shares_memory(field, state.U)
        assert np.array_equal(field, rows)


def test_af_1d_constructor_packs_the_fields():
    rng = np.random.default_rng(3)
    pts, mom = rng.standard_normal((6, 2)), rng.standard_normal((6, 2, 2))
    state = mesh.AfState1D(Grid1D(0, 1, 6), 2, pts, mom)
    assert not np.shares_memory(state.U, pts)
    assert state.U.flags.c_contiguous
    assert np.array_equal(state.point_values, pts)
    assert np.array_equal(state.moments, mom)
    assert state.n_components == 2


@pytest.mark.parametrize("which", ["af", "dg", "af_2d", "af_2d_closed",
                                   "dg_2d"])
def test_1d_states_wrap_without_copying_and_copy_on_request(which):
    """Every state type wraps a given tensor as it is and copies only on
    request; only an AF 2-d state has a boundary flag."""
    state = _states()[which]
    assert hasattr(state, "periodic") == (which in ("af_2d", "af_2d_closed"))
    U = np.zeros_like(state.U)
    for other in (state.with_tensor(U),
                  type(state).from_tensor(state.grid, state.K, U)):
        assert type(other) is type(state) and other.arrays()[0] is U
        assert other.U is U
        assert (other.grid, other.K) == (state.grid, state.K)
    dup = state.copy()
    assert type(dup) is type(state)
    assert not np.shares_memory(dup.U, state.U)
    assert np.array_equal(dup.U, state.U)
    if which == "dg":
        assert state.coeffs is state.U


def test_2d_boundary_is_read_from_the_af_tensor_shape():
    """A DG 2-d state has one layout for both boundaries and no flag; an
    AF 2-d state's ``periodic`` follows its tensor's shape (n rows
    periodic, n + 1 closed) and cannot be set."""
    states = _states()
    f = lambda x, y: x + y
    assert not hasattr(states["dg_2d"], "periodic")
    with pytest.raises(TypeError):
        mesh.fill_dg_2d(GRID_2D, 2, f, False)
    with pytest.raises(TypeError):
        mesh.DgState2D(GRID_2D, 2, states["dg_2d"].coeffs, False)
    for name, periodic in (("af_2d", True), ("af_2d_closed", False)):
        state = states[name]
        assert state.periodic is periodic
        assert state.U.shape[0] == GRID_2D.n_cells_x + (not periodic)
        assert state.U.shape[2] == GRID_2D.n_cells_y + (not periodic)
        with pytest.raises(AttributeError):
            state.periodic = not periodic
        assert state.periodic is periodic
        other = states["af_2d_closed" if periodic else "af_2d"]
        assert state.with_tensor(other.U).periodic is not periodic
        # the constructor reads the shape of the fields it packs
        again = mesh.AfState2D(GRID_2D, 2, state.node_values, state.x_edge,
                               state.y_edge, state.cell_moments)
        assert again.periodic is periodic
        assert again.U.tobytes() == state.U.tobytes()


# ---------------------------------------------------------------------------
# the neighbour windows of every stencil apply


@pytest.mark.parametrize("n", [1, 2, 3, 16])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("axis", [0, 1])
def test_neighbour_gather_is_the_rolled_stack(n, m, axis):
    """The periodic windows run along the leading axis; the y-apply hands
    them the transposed view V[j, b, rest] of a state V[rest, j, b].  They
    are read-only views of one C-contiguous padded copy of n + 2 cells."""
    rng = np.random.default_rng(10 * n + m)
    V = rng.standard_normal((n, m, 5 * m) if axis == 0 else (7 * m, n, m))
    lead = (lambda a: a) if axis == 0 else (lambda a: a.transpose(1, 2, 0))
    got = mesh._with_neighbours(lead(V))
    want = lead(neighbour_stack(V, axis))
    assert got.shape == want.shape and not got.flags.writeable
    assert got.base.flags.c_contiguous
    assert got.base.shape == (n + 2,) + lead(V).shape[1:]
    assert got.dtype == want.dtype
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("n", [1, 5])
def test_padded_index_is_cached_and_read_only(n):
    idx = mesh._padded_index(n)
    assert idx is mesh._padded_index(n)
    assert idx.shape == (n + 2,) and not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0] = 0
    assert idx[0] == n - 1 and idx[-1] == 0
    assert list(idx[1:-1]) == list(range(n))


@pytest.mark.parametrize("K", [1, 2, 3])
def test_two_component_line_apply_sees_the_rolled_stack(K):
    """The acoustics2x2 stencil acts on (dof, component) pairs; the windows
    hand its GEMM the reference stack bit for bit."""
    problem = acoustics2x2(1.3)
    J = problem.jacobian(0.0)
    partials = flux_partials(NumericalFluxSpec.upwind(), problem, 0.0, 0.0)
    blocks = af.af_stencil_1d(K)
    V = np.random.default_rng(K).standard_normal((9, K + 1, 2))
    got = mesh.line_apply(blocks, J, partials, 0.1, V)
    S = sum(np.kron(b, a) for b, a in zip(blocks, (J, *partials))) / 0.1
    want = (neighbour_stack(V, 0).reshape(9, -1) @ S.T).reshape(V.shape)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# CSV snapshots


def test_state_csv_roundtrip(tmp_path):
    grid = Grid1D(0, 1, 4)
    state = mesh.fill_af_1d(grid, 2, lambda x: np.sin(x))
    path = tmp_path / "state.csv"
    driver.write_csv(str(path), mesh.STATE_HEADER, mesh.state_rows(state))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "family,i,j,component,value"
    n_dofs = state.point_values.size + state.moments.size
    assert len(lines) == 1 + n_dofs
    # values survive the 17-significant-digit round trip exactly
    first_pt = float(lines[1].split(",")[-1])
    assert first_pt == state.point_values[0, 0]


def test_state_csv_2d_families(tmp_path):
    state = mesh.fill_af_2d(Grid2D.square(3), 1, lambda x, y: x * y)
    path = tmp_path / "state2.csv"
    driver.write_csv(str(path), mesh.STATE_HEADER, mesh.state_rows(state))
    text = path.read_text()
    for family in ("node_values", "x_edge_0", "y_edge_0", "moment_0_0"):
        assert family in text


@pytest.mark.parametrize("axis", [0, 1, 2, 3])
@pytest.mark.parametrize("shift", [1, -1])
def test_roll_cells_is_np_roll_byte_for_byte(axis, shift):
    a = np.random.default_rng(axis).standard_normal((5, 4, 3, 6))
    for view in (a, a[..., 1:]):
        want = np.roll(view, shift, axis=axis)
        got = mesh.roll_cells(view, shift, axis=axis)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert mesh.roll_cells(a, 0, axis=axis) is a
    with pytest.raises(ValueError):
        mesh.roll_cells(a, 2, axis=axis)
