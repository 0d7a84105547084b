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
them.
"""

import numpy as np
import pytest

from afdg import af, dg, equiv
from afdg.mesh import DgState1D, Grid1D, axis_stencil
from afdg.problems import advection1d, flux_spec

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


def map_blocks(K, u, flux, n=5):
    """(T_0, T_-1) of the DG-to-AF map, one unit mode at a time."""
    m = K + 1
    T0, Tm1 = np.zeros((m, m)), np.zeros((m, m))
    for k in range(m):
        coeffs = np.zeros((n, m, 1))
        coeffs[2, k, 0] = 1.0
        mapped = equiv.map_dg_to_af_1d(
            DgState1D(Grid1D(0.0, 1.0, n), K, coeffs), flux, advection1d(u))
        U = np.concatenate([mapped.point_values, mapped.moments[:, :, 0]],
                           axis=1)
        T0[:, k], Tm1[:, k] = U[2], U[3]
        # the map is local: a mode reaches its own cell and the next one
        assert not np.any(np.delete(U, [2, 3], axis=0))
    return T0, Tm1


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
    gap, scale = symbol_residual(*map_blocks(K, u, flux), S_dg, S_af)
    assert gap <= 1e-13 * scale


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
    gap, _ = symbol_residual(*map_blocks(K, u, flux), S_dg, S_af)
    assert gap >= 1.0
