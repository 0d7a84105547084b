"""The 2-d right-hand sides as Kronecker sums of 1-d three-block stencils.

``einsum_af_rhs_2d`` and ``einsum_dg_rhs_2d`` are the trace-bundle einsum
assemblies that ``af.af_rhs_2d_tensorial`` and ``dg.dg_rhs_2d`` used
before the Kronecker-sum apply, kept here unchanged as an independent
reference.  The row-wise tests check the other defining property: with
one speed zero, every grid line evolves under the 1-d operator.
"""

import numpy as np
import pytest
from helpers import block_circulant, fresh_kron_sum_apply

from afdg import af, dg
from afdg.af import af_ops
from afdg.dg import dg_basis, qhat_interfaces_2d
from afdg.mesh import (AfState1D, AfState2D, DgState1D, DgState2D, Grid2D,
                       kron_apply, line_apply)
from afdg.problems import (FLUX_NAMES, NumericalFluxSpec, advection1d,
                           flux_spec)


def einsum_af_rhs_2d(state, ux, uy, alpha, beta):
    ops = af_ops(state.K)

    dx, dy = state.grid.dx, state.grid.dy
    K = state.K
    N, Ex, Ey, Mo = state.node_values, state.x_edge, state.y_edge, state.cell_moments

    # trace bundles along interfaces and moment rows inside cells:
    # TX[a, j] are the 1-d dofs of vertical interface a over y-cell j,
    # XR[i, j, :, n] the x-direction dofs of cell (i, j)'s n-th moment row.
    TX = np.concatenate([N[:, :, None], Ex,
                         np.roll(N, -1, axis=1)[:, :, None]], axis=2)
    TY = np.concatenate([N[:, :, None], Ey,
                         np.roll(N, -1, axis=0)[:, :, None]], axis=2)
    XR = np.concatenate([Ex[:, :, None, :], Mo,
                         np.roll(Ex, -1, axis=0)[:, :, None, :]], axis=2)
    YR = np.concatenate([Ey[:, :, None, :], np.swapaxes(Mo, 2, 3),
                         np.roll(Ey, -1, axis=1)[:, :, None, :]], axis=2)

    dN = np.zeros_like(N)
    dEx = np.zeros_like(Ex)
    dEy = np.zeros_like(Ey)
    dMo = np.zeros_like(Mo)

    if ux != 0.0:
        ap, am = alpha
        # nodes: one-sided x-derivatives of the horizontal-interface traces
        dty_p = np.einsum("ibp,p->ib", TY, ops.d_plus) / dx
        dty_m = np.einsum("ibp,p->ib", TY, ops.d_minus) / dx
        dN -= ux * (ap * np.roll(dty_p, 1, axis=0) + am * dty_m)
        # x-edge moments: one-sided x-derivatives of the moment rows
        dxr_p = np.einsum("ijpk,p->ijk", XR, ops.d_plus) / dx
        dxr_m = np.einsum("ijpk,p->ijk", XR, ops.d_minus) / dx
        dEx -= ux * (ap * np.roll(dxr_p, 1, axis=0) + am * dxr_m)
        # y-edge moments and interior moments: transverse moment stencil
        dEy -= (ux / dx) * np.einsum("kp,ibp->ibk", ops.mom_w, TY)
        dMo -= (ux / dx) * np.einsum("mp,ijpn->ijmn", ops.mom_w, XR)

    if uy != 0.0:
        bp, bm = beta
        dtx_p = np.einsum("ajp,p->aj", TX, ops.d_plus) / dy
        dtx_m = np.einsum("ajp,p->aj", TX, ops.d_minus) / dy
        dN -= uy * (bp * np.roll(dtx_p, 1, axis=1) + bm * dtx_m)
        dyr_p = np.einsum("ijpk,p->ijk", YR, ops.d_plus) / dy
        dyr_m = np.einsum("ijpk,p->ijk", YR, ops.d_minus) / dy
        dEy -= uy * (bp * np.roll(dyr_p, 1, axis=1) + bm * dyr_m)
        dEx -= (uy / dy) * np.einsum("kp,ajp->ajk", ops.mom_w, TX)
        dMo -= (uy / dy) * np.einsum("np,ijpm->ijmn", ops.mom_w, YR)

    return AfState2D(state.grid, K, dN, dEx, dEy, dMo)


def einsum_dg_rhs_2d(state, ux, uy, flux_x, flux_y):
    basis = dg_basis(state.K)
    dx, dy = state.grid.dx, state.grid.dy
    c = state.coeffs

    dc = np.zeros_like(c)

    if ux != 0.0:
        alpha = flux_x.advection_weights(ux)
        qhat_x, _ = qhat_interfaces_2d(state, alpha, (1.0, 0.0))
        qhat_x_right = np.roll(qhat_x, -1, axis=0)
        term = np.einsum("am,ijmn->ijan", basis.stiffness, c)
        term -= np.einsum("a,ijn->ijan", basis.value_right, qhat_x_right)
        term += np.einsum("a,ijn->ijan", basis.value_left, qhat_x)
        dc += (ux / dx) * term / basis.mass[None, None, :, None]

    if uy != 0.0:
        beta = flux_y.advection_weights(uy)
        _, qhat_y = qhat_interfaces_2d(state, (1.0, 0.0), beta)
        qhat_y_top = np.roll(qhat_y, -1, axis=1)
        term = np.einsum("bn,ijmn->ijmb", basis.stiffness, c)
        term -= np.einsum("b,ijm->ijmb", basis.value_right, qhat_y_top)
        term += np.einsum("b,ijm->ijmb", basis.value_left, qhat_y)
        dc += (uy / dy) * term / basis.mass[None, None, None, :]

    return DgState2D(state.grid, state.K, dc)


# ---------------------------------------------------------------------------
# helpers


def random_states(K, nx, ny, rng):
    """Random periodic AF and DG states on [0, 1] x [0, 1.5]."""
    grid = Grid2D(0.0, 1.0, nx, 0.0, 1.5, ny)
    r = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    af_state = AfState2D(grid, K, r(nx, ny), r(nx, ny, K), r(nx, ny, K),
                         r(nx, ny, K, K))
    return af_state, DgState2D(grid, K, r(nx, ny, K + 1, K + 1))


def assert_same(got, want, rel):
    for g, w in zip(got.arrays(), want.arrays()):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w), initial=0.0) \
            <= rel * np.max(np.abs(w), initial=0.0)


# ---------------------------------------------------------------------------
# stencils and the apply


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_stencils_are_cached_and_read_only(K):
    for stencil in (af.af_stencil_1d, dg.dg_stencil_1d):
        S = stencil(K)
        assert S.shape == (3, K + 1, 3 * (K + 1))
        assert stencil(K) is S
        assert not S.flags.writeable


# every m the families use, on a square-free grid either way round, so the
# transposed y-apply is pinned on a non-square transpose
SHAPES = pytest.mark.parametrize("nx,ny", [(4, 3), (3, 5)])
DOFS = pytest.mark.parametrize("m", [2, 3, 4])


def operands(seed, nx, ny, m):
    rng = np.random.default_rng(seed)
    sx, sy = rng.normal(size=(m, 3 * m)), rng.normal(size=(m, 3 * m))
    return rng, sx, sy, rng.normal(size=(nx, m, ny, m))


@DOFS
@SHAPES
def test_kron_sum_apply_is_the_dense_kronecker_sum(nx, ny, m):
    _, sx, sy, U = operands(5, nx, ny, m)
    Ax, Ay = block_circulant(sx, nx), block_circulant(sy, ny)

    dense = np.kron(Ax, np.eye(ny * m)) + np.kron(np.eye(nx * m), Ay)
    want = (dense @ U.ravel()).reshape(U.shape)
    assert np.allclose(fresh_kron_sum_apply(U, sx, sy), want, atol=1e-13)
    assert np.allclose(fresh_kron_sum_apply(U, sx, None),
                       (np.kron(Ax, np.eye(ny * m))
                        @ U.ravel()).reshape(U.shape), atol=1e-13)
    assert np.allclose(fresh_kron_sum_apply(U, None, sy),
                       (np.kron(np.eye(nx * m), Ay)
                        @ U.ravel()).reshape(U.shape), atol=1e-13)
    assert not np.any(fresh_kron_sum_apply(U, None, None))


@DOFS
@SHAPES
def test_kron_apply_is_the_dense_kronecker_product(nx, ny, m):
    _, sx, sy, U = operands(7, nx, ny, m)
    want = np.kron(block_circulant(sx, nx), block_circulant(sy, ny)) @ U.ravel()
    assert np.allclose(kron_apply(U, sx, sy), want.reshape(U.shape),
                       atol=1e-13)
    # a view of the tensor, such as the transpose of cell-major blocks
    view = np.ascontiguousarray(U.swapaxes(1, 2)).swapaxes(1, 2)
    assert np.array_equal(kron_apply(view, sx, sy), kron_apply(U, sx, sy))


@DOFS
@SHAPES
def test_kron_sum_apply_with_ghosts_is_the_dense_operator(nx, ny, m):
    # one cell beyond each side: the banded 1-d operator over the tensor's
    # cells plus the boundary columns of the ghost cells
    rng, sx, sy, U = operands(6, nx, ny, m)
    x_lo, x_hi = rng.normal(size=(2, ny, m, m))
    y_lo, y_hi = rng.normal(size=(2, nx, m, m))

    def banded(S, n):
        A = np.zeros((n * m, (n + 2) * m))
        for i in range(n):
            A[i * m:(i + 1) * m, i * m:(i + 3) * m] = S
        return A

    # the tensor extended by the ghost cells along x, and along y
    Ux = np.concatenate([x_lo.swapaxes(0, 1)[None], U,
                         x_hi.swapaxes(0, 1)[None]], axis=0)
    Uy = np.concatenate([y_lo[:, :, None], U, y_hi[:, :, None]], axis=2)
    want = (np.kron(banded(sx, nx), np.eye(ny * m)) @ Ux.ravel()
            + np.kron(np.eye(nx * m), banded(sy, ny)) @ Uy.ravel())
    got = fresh_kron_sum_apply(U, sx, sy,
                               (x_lo, x_hi, y_lo, y_hi, None, None))
    assert np.allclose(got, want.reshape(U.shape), atol=1e-13)


@DOFS
@SHAPES
def test_fortran_ordered_input_is_applied_and_left_unchanged(nx, ny, m):
    rng, sx, sy, U = operands(8, nx, ny, m)
    ghosts = tuple(rng.normal(size=(2, ny, m, m))) \
        + tuple(rng.normal(size=(2, nx, m, m))) + (None, None)
    F = np.asfortranarray(U)
    kept = F.copy(order="A")
    for apply, args in ((fresh_kron_sum_apply, (sx, sy)),
                        (fresh_kron_sum_apply, (sx, sy, ghosts)),
                        (kron_apply, (sx, sy))):
        got = apply(F, *args)
        assert got.shape == U.shape and got.flags.c_contiguous
        assert got.tobytes() == apply(U, *args).tobytes()
        assert np.array_equal(F, kept) and F.flags.f_contiguous


@pytest.mark.parametrize("dtype", [np.complex128, np.longdouble])
def test_applies_keep_the_input_dtype(dtype):
    """A complex or extended-precision tensor keeps its dtype through every
    apply (float64 ghost blocks are written into its padded copies), and
    each part of the result is the float64 apply's to 1e-15 relative (the
    real ghost blocks scaled by c enter the real part alone)."""
    rng, sx, sy, U = operands(9, 4, 3, 3)
    V = rng.normal(size=U.shape)
    # (x_lo, x_hi, y_lo, y_hi, x_slot, y_slot) on the 4 x 3 grid
    ghosts = (*rng.normal(size=(2, 3, 3, 3)), *rng.normal(size=(2, 4, 3, 3)),
              rng.normal(size=(3, 3, 3)), rng.normal(size=(4, 3, 3)))
    blocks, J = af.af_stencil_1d(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    applies = [lambda W, c: fresh_kron_sum_apply(W, sx, sy),
               lambda W, c: fresh_kron_sum_apply(
                   W, sx, sy, tuple(c * g for g in ghosts)),
               lambda W, c: kron_apply(W, sx, sy),
               lambda W, c: line_apply(blocks, -0.7, (0.0, -0.7), 0.1,
                                       W[:, :, 0]),
               lambda W, c: line_apply(blocks, J, (0.5 * J, 0.5 * J), 0.1,
                                       W[:, :, :2, 0])]
    if dtype is np.complex128:
        W, parts = U + 1j * V, ((np.real, U, 1.0), (np.imag, V, 0.0))
    else:
        W, parts = U.astype(dtype), ((np.asarray, U, 1.0),)
    for apply in applies:
        got = apply(W, 1.0)
        assert got.dtype == dtype
        for part, X, c in parts:
            want = apply(X, c)
            assert want.dtype == np.float64
            gap = np.max(np.abs(part(got) - want))
            assert gap <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("weights", [None, (0.7, 0.3), (0.5, 0.5)])
@pytest.mark.parametrize("ux,uy", [(1.0, -0.5), (-0.7, 1.0), (1.0, 0.0),
                                   (0.0, -1.3), (-1.0, -1.0), (0.3, 0.9),
                                   (0.0, 0.0)])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_kron_sum_matches_einsum_reference(K, ux, uy, weights):
    """Both families, both axis orders of the weights, grids n x (n+1)."""
    rng = np.random.default_rng(K)
    for n in (3, 7):
        af_state, dg_state = random_states(K, n, n + 1, rng)
        if weights is None:
            alpha = (1.0, 0.0) if ux >= 0 else (0.0, 1.0)
            beta = (1.0, 0.0) if uy >= 0 else (0.0, 1.0)
            flux_x = flux_y = NumericalFluxSpec.upwind()
        else:
            alpha, beta = weights, weights[::-1]
            flux_x = NumericalFluxSpec.alpha(*alpha)
            flux_y = NumericalFluxSpec.alpha(*beta)
        px = flux_x.advection_partials(ux)
        py = flux_y.advection_partials(uy)
        assert_same(af.af_rhs_2d_tensorial(af_state, ux, uy, px, py),
                    einsum_af_rhs_2d(af_state, ux, uy, alpha, beta), 1e-13)
        assert_same(dg.dg_rhs_2d(dg_state, ux, uy, px, py),
                    einsum_dg_rhs_2d(dg_state, ux, uy, flux_x, flux_y), 1e-13)


# ---------------------------------------------------------------------------
# row-wise reduction to the 1-d operators


def af_lines(state, axis):
    """(point values, moments) of every grid line along ``axis``."""
    K = state.K
    if axis == "x":
        for j in range(state.node_values.shape[1]):
            yield state.node_values[:, j], state.y_edge[:, j, :]
            for k in range(K):
                yield state.x_edge[:, j, k], state.cell_moments[:, j, :, k]
    else:
        for i in range(state.node_values.shape[0]):
            yield state.node_values[i, :], state.x_edge[i, :, :]
            for k in range(K):
                yield state.y_edge[i, :, k], state.cell_moments[i, :, k, :]


def dg_lines(state, axis):
    """Modal blocks of every grid line along ``axis``."""
    c = state.coeffs
    if axis == "x":
        return [c[:, j, :, n] for j in range(c.shape[1])
                for n in range(c.shape[3])]
    return [c[i, :, m, :] for i in range(c.shape[0])
            for m in range(c.shape[2])]


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("draw", range(9))
def test_rows_reduce_to_1d_operators(draw, axis):
    rng = np.random.default_rng(100 + draw)
    K = int(rng.integers(1, 5))
    ap = float(rng.uniform(0.0, 1.0))
    u = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
    # every flux kind twice, then Lax-Friedrichs at u = 0; the 1-d and the
    # 2-d sides all read its trace partials, and the other axis no flux
    name = FLUX_NAMES[draw % 4] if draw < 8 else "lax_friedrichs"
    flux = flux_spec(name, ap, 1.1 * abs(u))
    u = u if draw < 8 else 0.0
    partials, none = flux.advection_partials(u), (0.0, 0.0)
    af_state, dg_state = random_states(K, 5, 4, rng)
    grid = af_state.grid
    line_grid = grid.gx if axis == "x" else grid.gy
    ux, uy = (u, 0.0) if axis == "x" else (0.0, u)
    px, py = (partials, none) if axis == "x" else (none, partials)
    problem = advection1d(u=u)

    d_af = af.af_rhs_2d_tensorial(af_state, ux, uy, px, py)
    scale = max(np.max(np.abs(a)) for a in d_af.arrays())
    for (pts, mom), (dpts, dmom) in zip(af_lines(af_state, axis),
                                        af_lines(d_af, axis)):
        line = AfState1D(line_grid, K, pts[:, None], mom[:, :, None])
        d1 = af.af_rhs_1d(line, problem, flux)
        assert np.allclose(dpts, d1.point_values[:, 0], rtol=0,
                           atol=1e-13 * scale)
        assert np.allclose(dmom, d1.moments[:, :, 0], rtol=0,
                           atol=1e-13 * scale)

    d_dg = dg.dg_rhs_2d(dg_state, ux, uy, px, py)
    scale = np.max(np.abs(d_dg.coeffs))
    for c, dc in zip(dg_lines(dg_state, axis), dg_lines(d_dg, axis)):
        d1 = dg.dg_rhs_1d(DgState1D(line_grid, K, c[:, :, None]), problem,
                          flux)
        assert np.allclose(dc, d1.coeffs[:, :, 0], rtol=0,
                           atol=1e-13 * scale)
