"""The 1-d equivalence as an operator identity, for every periodic grid.

On a periodic grid the DG and AF right-hand sides are block-circulant with
symbols S(z) = L z^-1 + D + R z, from the block rows [L | D | R] of
``dg.dg_stencil_1d`` and ``af.af_stencil_1d``.  The DG-to-AF map sends the
modes c to the AF dofs U_i = T_0 c_i + T_-1 c_{i-1} (the interface value
left of cell i reads cell i-1), so its symbol is T(z) = T_0 + T_-1 z^-1.
AF and DG are the same semi-discrete method when T(z) S_DG(z) =
S_AF(z) T(z), that is when the four block equations of the coefficients
of z^-2 .. z^1 hold; then the identity holds on every grid of n >= 3 cells
and for every state.  T is read off ``equiv.map_dg_to_af_1d`` one column
at a time, so both stencils and the map enter exactly as the code has
them, and the block rows of ``af.af_rhs_1d`` and ``dg.dg_rhs_1d`` are read
the same way and must be these stencils.  The block row [T_-1 | T_0 | 0]
that the 2-d map T (x) T is built from (``equiv.map_stencil_1d``) must be
this T as well.  A linear system's stencils are
the Kronecker sums (S_u (x) J + S_L (x) d_L + S_R (x) d_R) / h on the
(dof, component) pairs of a cell.
"""

import numpy as np
import pytest

from afdg import af, dg, equiv
from afdg.mesh import AfState1D, DgState1D, Grid1D, axis_stencil
from afdg.problems import acoustics2x2, advection1d, flux_partials, flux_spec

FLUXES = [("upwind", 1.0), ("alpha", 0.7), ("central", 0.5),
          ("lax_friedrichs", 1.0)]


def flux_for(name, ap, u):
    # the Lax-Friedrichs constant is 1.1 |u|, as a run takes it
    return flux_spec(name, ap, 1.1 * abs(u))


def stencils(K, u, flux):
    """(S_DG, S_AF): the block rows [L | D | R] at speed u and dx = 1."""
    d = flux.advection_partials(u)
    return (axis_stencil(dg.dg_stencil_1d(K), u, d, 1.0),
            axis_stencil(af.af_stencil_1d(K), u, d, 1.0))


def system_stencils(K, problem, flux):
    """(S_DG, S_AF) of a linear system at dx = 1: the Kronecker sums."""
    coefficients = (problem.jacobian(0.0),
                    *flux_partials(flux, problem, 0.0, 0.0))
    return tuple(sum(np.kron(b, a) for b, a in zip(blocks, coefficients))
                 for blocks in (dg.dg_stencil_1d(K), af.af_stencil_1d(K)))


def unit_columns(K, m, n=5):
    """Cell blocks V[i, dof, component] with one unit dof in cell 2, one
    per (dof, component) pair in order."""
    for j in range((K + 1) * m):
        V = np.zeros((n, (K + 1) * m))
        V[2, j] = 1.0
        yield j, V.reshape(n, K + 1, m)


def map_blocks(K, flux, problem, n=5):
    """(T_0, T_-1) of the DG-to-AF map, one unit mode at a time."""
    m = problem.n_components
    size = (K + 1) * m
    T0, Tm1 = np.zeros((size, size)), np.zeros((size, size))
    for j, coeffs in unit_columns(K, m, n):
        mapped = equiv.map_dg_to_af_1d(
            DgState1D(Grid1D(0.0, 1.0, n), K, coeffs), flux, problem)
        U = mapped.U.reshape(n, size)
        T0[:, j], Tm1[:, j] = U[2], U[3]
        # the map is local: a mode reaches its own cell and the next one
        assert not np.any(np.delete(U, [2, 3], axis=0))
    return T0, Tm1


def rhs_block_rows(K, problem, flux, n=5):
    """The block rows [L | D | R] of ``dg.dg_rhs_1d`` and ``af.af_rhs_1d``
    on n cells of width 1, read one unit column at a time: a unit dof in
    cell 2 reaches cell 3 through L, cell 2 through D and cell 1 through
    R.  The AF cell block is (left point value, moments)."""
    m = problem.n_components
    size = (K + 1) * m
    grid = Grid1D(0.0, float(n), n)
    rows = np.zeros((2, size, 3 * size))
    for j, V in unit_columns(K, m, n):
        d_dg = dg.dg_rhs_1d(DgState1D(grid, K, V), problem, flux).coeffs
        d_af = af.af_rhs_1d(AfState1D.from_tensor(grid, K, V), problem,
                            flux).U
        for rows_f, d in zip(rows, (d_dg, d_af)):
            d = d.reshape(n, size)
            rows_f[:, j], rows_f[:, size + j] = d[3], d[2]
            rows_f[:, 2 * size + j] = d[1]
    return rows


def symbol_residual(T0, Tm1, S_dg, S_af):
    """(max |T(z) S_DG(z) - S_AF(z) T(z)| over the coefficients of
    z^-2 .. z^1, the operator scale max|T| max|S|)."""
    L, D, R = np.split(S_dg, 3, axis=1)
    La, Da, Ra = np.split(S_af, 3, axis=1)
    coefficients = [Tm1 @ L - La @ Tm1,
                    T0 @ L + Tm1 @ D - La @ T0 - Da @ Tm1,
                    T0 @ D + Tm1 @ R - Da @ T0 - Ra @ Tm1,
                    T0 @ R - Ra @ T0]
    scale = (max(np.max(np.abs(T0)), np.max(np.abs(Tm1)))
             * max(np.max(np.abs(S_dg)), np.max(np.abs(S_af))))
    return max(np.max(np.abs(c)) for c in coefficients), scale


@pytest.mark.parametrize("u", [1.0, -0.6])
@pytest.mark.parametrize("name,ap", FLUXES)
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_dof_map_intertwines_the_1d_operators(K, name, ap, u):
    flux = flux_for(name, ap, u)
    S_dg, S_af = stencils(K, u, flux)
    gap, scale = symbol_residual(*map_blocks(K, flux, advection1d(u)),
                                 S_dg, S_af)
    assert gap <= 1e-13 * scale


@pytest.mark.parametrize("u", [1.0, -0.6])
@pytest.mark.parametrize("name,ap", FLUXES)
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_the_1d_right_hand_sides_apply_the_certified_stencils(K, name, ap, u):
    flux = flux_for(name, ap, u)
    rows_dg, rows_af = rhs_block_rows(K, advection1d(u), flux)
    S_dg, S_af = stencils(K, u, flux)
    assert np.array_equal(rows_dg, S_dg)
    assert np.array_equal(rows_af, S_af)


@pytest.mark.parametrize("u", [1.0, -0.6])
@pytest.mark.parametrize("name,ap", FLUXES)
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_the_2d_map_is_built_from_the_certified_1d_map(K, name, ap, u):
    """The 2-d map is T (x) T of ``equiv.map_stencil_1d``; that block row
    is [T_-1 | T_0 | 0] of the 1-d map this certificate reads."""
    flux = flux_for(name, ap, u)
    T0, Tm1 = map_blocks(K, flux, advection1d(u))
    got = equiv.map_stencil_1d(K, flux.advection_weights(u))
    want = np.hstack([Tm1, T0, np.zeros_like(T0)])
    assert np.max(np.abs(got - want)) <= 1e-15


# acoustics at c = 1.3; Lax-Friedrichs at a = c splits J as upwind does
SYSTEM_FLUXES = [flux_spec("upwind"), flux_spec("lax_friedrichs", a=1.3)]


@pytest.mark.parametrize("flux", SYSTEM_FLUXES, ids=lambda f: f.kind)
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_dof_map_intertwines_the_1d_system_operators(K, flux):
    problem = acoustics2x2(1.3)
    S_dg, S_af = system_stencils(K, problem, flux)
    gap, scale = symbol_residual(*map_blocks(K, flux, problem), S_dg, S_af)
    assert gap <= 1e-13 * scale
    rows_dg, rows_af = rhs_block_rows(K, problem, flux)
    assert np.array_equal(rows_dg, S_dg)
    assert np.array_equal(rows_af, S_af)


@pytest.mark.parametrize("u", [1.0, -0.6])
@pytest.mark.parametrize("name,ap", FLUXES)
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_sign_flipped_point_row_breaks_the_identity(K, name, ap, u):
    # negative control: the AF point update with the wrong sign misses by
    # at least 1 (the entries of T are of order 1, those of S of order
    # 1 to 80 at |u| >= 0.6 and dx = 1)
    flux = flux_for(name, ap, u)
    S_dg, S_af = stencils(K, u, flux)
    S_af = S_af.copy()
    S_af[0] *= -1.0
    gap, _ = symbol_residual(*map_blocks(K, flux, advection1d(u)),
                             S_dg, S_af)
    assert gap >= 1.0
