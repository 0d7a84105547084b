"""Dirichlet boundaries as ghost slabs of the Kronecker-sum apply, and the
one-tensor layout of the 2-d states.

``_pad_2d`` and ``_slice_pad`` are the padded-grid Dirichlet path that the
driver used before the ghost slabs, kept here unchanged as an independent
reference: the state is embedded in a periodic grid one ring of cells
larger than its arrays, the ring is projected from the exact solution and
the periodic right-hand side runs on the whole.  They handle a state as
the list of cell-first family fields the states stored then (``Fields``).
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from afdg import af, dg, driver, mesh, timeint
from afdg.driver import RunConfig
from afdg.mesh import AfState2D, DgState2D, Grid2D


@dataclass
class Fields:
    """A 2-d state as cell-first family fields: AF nodes, x-edges, y-edges
    and cell moments, or DG modes."""

    grid: Grid2D
    fields: list

    def arrays(self):
        return self.fields

    def with_arrays(self, arrays):
        return replace(self, fields=list(arrays))


def fields(state):
    if isinstance(state, DgState2D):
        return [state.coeffs]
    return [state.node_values, state.x_edge, state.y_edge, state.cell_moments]


def _pad_2d(state, project, exact, t: float):
    """Embed the state in a ghost ring projected from the exact solution;
    the periodic stencil code then runs unchanged and the ring derivatives
    are discarded.

    Cell (i, j) of the padded periodic grid owns entry [i, j] of every
    state array: a DG cell its modes, an AF cell its lower-left node, left
    edge, bottom edge and moments.  The ring is every padded cell outside
    the state's cells, projected by one ``project(f, x0, y0, dx, dy)``
    call.  The padding reaches one cell beyond every state array, because
    an AF state's right and top boundary dofs need the cell beyond them
    for inflow from that side.  The state goes in last, so its own
    boundary dofs win over the ring's.
    """
    g = state.grid
    arrays = state.arrays()
    npx, npy = (2 + max(a.shape[k] for a in arrays) for k in (0, 1))
    gpad = Grid2D(g.x_min - g.dx, g.x_min + (npx - 1) * g.dx, npx,
                  g.y_min - g.dy, g.y_min + (npy - 1) * g.dy, npy)
    ring = np.ones((npx, npy), dtype=bool)
    ring[1:1 + g.n_cells_x, 1:1 + g.n_cells_y] = False
    i, j = np.nonzero(ring)
    ghosts = project(lambda x, y: exact(t, x, y), g.x_min + (i - 1) * g.dx,
                     g.y_min + (j - 1) * g.dy, g.dx, g.dy)
    padded = [np.empty((npx, npy) + a.shape[2:]) for a in arrays]
    for a, r, s in zip(padded, ghosts, arrays):
        a[ring] = r
        a[1:1 + s.shape[0], 1:1 + s.shape[1]] = s
    return replace(state, grid=gpad).with_arrays(padded)


def _slice_pad(dpad, state):
    """The state-shaped part of a padded derivative (see ``_pad_2d``)."""
    return state.with_arrays([d[1:1 + s.shape[0], 1:1 + s.shape[1]]
                              for d, s in zip(dpad.arrays(), state.arrays())])


def padded_rhs(state, op, project, exact, t):
    """The padded-grid Dirichlet derivative of ``state`` as its fields;
    ``op`` is the periodic right-hand side, ``project`` the family's cell
    projection."""
    if isinstance(state, AfState2D):
        split = lambda b: [b[..., 0, 0], b[..., 0, 1:], b[..., 1:, 0],
                           b[..., 1:, 1:]]
        wrap = lambda f: AfState2D(f.grid, state.K, *f.arrays())
    else:
        split = lambda b: [b]
        wrap = lambda f: DgState2D(f.grid, state.K, *f.arrays())
    legacy = Fields(state.grid, fields(state))
    pad = _pad_2d(legacy, lambda *args: split(project(*args)), exact, t)
    dpad = Fields(pad.grid, fields(op(wrap(pad))))
    return _slice_pad(dpad, legacy).arrays()


# ---------------------------------------------------------------------------

GRID = Grid2D(0.0, 1.0, 6, 0.0, 1.5, 5)
T = 0.03
SPEEDS = [(1.0, 0.6), (-0.7, -1.0), (1.0, -0.5)]


def dirichlet_case(family, K, ux, uy, flux, seed=0):
    """Config, exact solution and a noisy non-periodic state of a case."""
    cfg = RunConfig(method=family, order=K + (2 if family == "af" else 1),
                    problem="advection2d", ux=ux, uy=uy, init="sine",
                    flux=flux, alpha_plus=0.7, beta_plus=0.7,
                    boundary="dirichlet")
    exact = driver.exact_solution(cfg)
    f = lambda x, y: exact(T, x, y)
    if family == "af":
        state = mesh.fill_af_2d(GRID, K, f, False)
    else:
        state = mesh.fill_dg_2d(GRID, K, f)
    # the state differs from the exact data, so its dofs and the ghost
    # blocks are told apart
    noise = np.random.default_rng(seed).uniform(-0.1, 0.1, state.U.shape)
    return cfg, exact, state.with_tensor(state.U + noise)


@pytest.mark.parametrize("flux", ["upwind", "alpha"])
@pytest.mark.parametrize("ux,uy", SPEEDS)
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("family", ["af", "dg"])
def test_dirichlet_rhs_matches_padded_reference(family, K, ux, uy, flux):
    cfg, exact, state = dirichlet_case(family, K, ux, uy, flux)
    spec = driver.make_flux(cfg)
    px, py = spec.advection_partials(ux), spec.advection_partials(uy)
    if family == "af":
        op = lambda s: af.af_rhs_2d_tensorial(s, ux, uy, px, py)
        project = lambda f, *cells: mesh.af_cell_projector_2d(K, *cells)(f)
    else:
        op = lambda s: dg.dg_rhs_2d(s, ux, uy, px, py)
        project = lambda f, *cells: mesh.dg_cell_projector_2d(K, *cells)(f)
    want = padded_rhs(state, op, project, exact, T)
    rhs = driver.make_rhs(cfg, driver.make_problem(cfg), spec)
    got = fields(rhs(state.copy(), T))
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


@pytest.mark.parametrize("ux,uy", SPEEDS)
@pytest.mark.parametrize("K", [1, 2, 3])
def test_af_dirichlet_derivative_is_zero_in_unused_slots(K, ux, uy):
    cfg, _, state = dirichlet_case("af", K, ux, uy, "alpha")
    rhs = driver.make_rhs(cfg, driver.make_problem(cfg), driver.make_flux(cfg))
    d = rhs(state, T)
    assert np.any(d.U[-1, 0]) and np.any(d.U[:, :, -1, 0])
    assert not np.any(d.U[-1, 1:])
    assert not np.any(d.U[:, :, -1, 1:])
    # so a run keeps a state's unused slots zero, as the fill leaves them:
    # the rhs takes the slot cells with the ghost blocks and writes none
    # into its input
    run = timeint.integrate(driver.build_state(cfg, 6), rhs, timeint.SSPRK3,
                            0.01, 0.03)
    assert np.any(run.U[-1, 0]) and np.any(run.U[:, :, -1, 0])
    assert not np.any(run.U[-1, 1:])
    assert not np.any(run.U[:, :, -1, 1:])


# ---------------------------------------------------------------------------
# the state layout


def layouts(K=2, nx=4, ny=3):
    """Per layout: the state class and constructor arguments."""
    rng = np.random.default_rng(3)
    r = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    g = Grid2D(0.0, 1.0, nx, 0.0, 1.5, ny)
    return {
        "af_periodic": (AfState2D, (g, K, r(nx, ny), r(nx, ny, K),
                                    r(nx, ny, K), r(nx, ny, K, K))),
        "af_dirichlet": (AfState2D, (g, K, r(nx + 1, ny + 1),
                                     r(nx + 1, ny, K), r(nx, ny + 1, K),
                                     r(nx, ny, K, K))),
        "classical": (AfState2D, (g, 1, r(nx, ny), r(nx, ny, 1),
                                  r(nx, ny, 1), r(nx, ny, 1, 1))),
        "dg": (DgState2D, (g, K, r(nx, ny, K + 1, K + 1))),
    }


LAYOUTS = sorted(layouts())


def build(layout):
    cls, args = layouts()[layout]
    return cls(*args), [a for a in args if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_constructor_round_trips_fields(layout):
    state, given = build(layout)
    for got, want in zip(fields(state), given, strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, want)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_fields_are_views_of_one_tensor(layout):
    state, given = build(layout)
    (U,) = state.arrays()
    assert U is state.U and U.flags.c_contiguous
    m = state.K + 1
    assert U.shape == (given[0].shape[0], m, given[0].shape[-1], m)
    for f in fields(state):
        assert np.shares_memory(f, U)
        # built once per state
        assert any(f is g for g in fields(state))
    # the unused slots of a non-periodic AF state are left zero
    if layout == "af_dirichlet":
        assert not np.any(U[-1, 1:]) and not np.any(U[:, :, -1, 1:])


@pytest.mark.parametrize("layout", LAYOUTS)
def test_with_arrays_does_not_copy(layout):
    """``with_tensor`` wraps the given tensor as it is; ``copy`` copies."""
    state, _ = build(layout)
    U = np.ones_like(state.U)
    new = state.with_tensor(U)
    assert new.U is U
    assert (type(new), new.grid, new.K) == (type(state), state.grid, state.K)
    # an AF state reads its boundary from the tensor's shape
    if type(state) is AfState2D:
        assert new.periodic is state.periodic is (layout != "af_dirichlet")
    assert all(np.shares_memory(f, U) for f in fields(new))
    copy = state.copy()
    assert np.array_equal(copy.U, state.U)
    assert not np.shares_memory(copy.U, state.U)
