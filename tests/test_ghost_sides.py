"""Dirichlet ghost sides: the 2-d stencils read only the ghost blocks (and
AF slots) whose flux partial is nonzero, so the blocks of the other sides
may be zero without changing a single bit of the derivative.  A zero-speed
Lax-Friedrichs axis keeps its dissipation, (d_L, d_R) = (a/2, -a/2), and
reads both of its sides."""

import numpy as np
import pytest

from afdg import af, dg, driver, mesh
from afdg.driver import RunConfig
from afdg.mesh import Grid2D
from helpers import with_slots

SPEEDS = [(1.0, 0.6), (-0.7, 1.0), (1.0, -1.3), (-1.0, -0.5), (0.0, 1.0),
          (1.0, 0.0)]
FLUXES = ["upwind", "alpha", "central", "lax_friedrichs"]
FILLS = {"af": lambda g, K, f: mesh.fill_af_2d(g, K, f, periodic=False),
         "dg": mesh.fill_dg_2d}


def random_case(family, K, ux, uy, flux_name, seed=0):
    """A random non-periodic state (AF slots included), random blocks for
    all four ghost sides, the family's RHS and the sides it reads."""
    cfg = RunConfig(method=family, problem="advection2d", ux=ux, uy=uy,
                    flux=flux_name, alpha_plus=0.7, beta_plus=0.7,
                    boundary="dirichlet")
    rng = np.random.default_rng(seed)
    state = FILLS[family](Grid2D(0.0, 1.0, 5, 0.0, 1.5, 6), K,
                          lambda x, y: np.ones_like(x + y))
    state.U[...] = rng.standard_normal(state.U.shape)
    nx, m, ny, _ = state.U.shape
    ghosts = tuple(rng.standard_normal((n, m, m)) for n in (ny, ny, nx, nx))
    flux = driver.make_flux(cfg, driver.make_problem(cfg), state.U)
    px, py = flux.advection_partials(ux), flux.advection_partials(uy)
    # the four sides without slot blocks: an AF state's slots are read
    # from its own tensor
    if family == "af":
        op = lambda s, g: af.af_rhs_2d_tensorial(s, ux, uy, px, py,
                                                 g + (None, None))
    else:
        op = lambda s, g: dg.dg_rhs_2d(s, ux, uy, px, py, g + (None, None))
    return state, ghosts, op, driver.ghost_sides(cfg, flux)


def keep_sides(state, ghosts, sides):
    """The state and ghosts with every unread block and slot zeroed."""
    state = state.copy()
    if isinstance(state, mesh.AfState2D):
        if "x_hi" not in sides:
            state.U[-1, 1:] = 0.0
        if "y_hi" not in sides:
            state.U[:, :, -1, 1:] = 0.0
    return state, tuple(g if side in sides else np.zeros_like(g)
                        for side, g in zip(driver._SIDES, ghosts))


@pytest.mark.parametrize("flux_name", FLUXES)
@pytest.mark.parametrize("ux,uy", SPEEDS)
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("family", ["af", "dg"])
def test_read_sides_give_the_all_sides_rhs(family, K, ux, uy, flux_name):
    state, ghosts, op, sides = random_case(family, K, ux, uy, flux_name)
    want = op(state, ghosts).U
    got = op(*keep_sides(state, ghosts, sides)).U
    assert np.array_equal(got, want)


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("family", ["af", "dg"])
def test_dropping_the_inflow_side_changes_the_boundary_derivative(family, K):
    # negative control: with ux > 0 the low x side is the inflow, and the
    # cells next to it read it
    state, ghosts, op, sides = random_case(family, K, 1.0, 0.6, "upwind")
    assert sides == ("x_lo", "y_lo")
    want = op(state, ghosts).U
    got = op(*keep_sides(state, ghosts, ("y_lo",))).U
    gap = np.max(np.abs(got[0] - want[0])) / np.max(np.abs(want[0]))
    assert gap > 1e-3


@pytest.mark.parametrize("flux_name,ux,uy,sides", [
    ("upwind", 1.0, 1.0, ("x_lo", "y_lo")),
    ("upwind", -1.0, 0.5, ("x_hi", "y_lo")),
    ("upwind", 0.0, -1.0, ("y_hi",)),
    ("upwind", 0.0, 0.0, ()),
    ("alpha", 1.0, -1.0, ("x_lo", "x_hi", "y_lo", "y_hi")),
    ("central", 1.0, 0.0, ("x_lo", "x_hi")),
    ("lax_friedrichs", 0.0, 1.0, ("x_lo", "x_hi", "y_lo", "y_hi")),
])
def test_ghost_sides_follow_the_weights(flux_name, ux, uy, sides):
    cfg = RunConfig(problem="advection2d", ux=ux, uy=uy, flux=flux_name,
                    alpha_plus=0.7, beta_plus=0.7, boundary="dirichlet")
    flux = driver.make_flux(cfg, driver.make_problem(cfg), np.zeros(1))
    assert driver.ghost_sides(cfg, flux) == sides
    assert driver.ghost_sides(RunConfig(ux=ux, uy=uy, flux=flux_name),
                              flux) == ()


@pytest.mark.parametrize("sides", [("x_lo", "y_lo"), ("x_hi",), ("y_hi",),
                                   ()])
@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("family", ["af", "dg"])
def test_ghosts_project_only_the_read_sides(family, K, sides):
    cfg = RunConfig(problem="advection2d", init="sine", boundary="dirichlet")
    exact = driver.exact_solution(cfg)
    state = FILLS[family](Grid2D.square(6), K,
                          lambda x, y: exact(0.0, x, y))
    everything = state.copy()
    want = driver._GhostRing(exact)(everything, 0.03)
    before = state.U.copy()
    got = driver._GhostRing(exact, sides)(state, 0.03)
    for side, g, w in zip(driver._SIDES, got, want):
        if side in sides:
            assert np.allclose(g, w, rtol=1e-14, atol=1e-15)
        else:
            assert g.shape == w.shape and not g.any()
    # neither ring writes its state
    assert np.array_equal(state.U, before)
    assert np.array_equal(everything.U, before)
    # an AF state's slot blocks (for the last column's and row's moments)
    # come with their axis' high side only; written in, they leave the
    # dofs as they were
    written, written_all = (with_slots(before, *got[4:]),
                            with_slots(before, *want[4:]))
    slots = {"x_hi": (-1, slice(1, None)),
             "y_hi": (slice(None), slice(None), -1, slice(1, None))}
    unread = np.ones(state.U.shape, bool)
    for side, index in slots.items():
        if family == "af" and side in sides:
            assert np.allclose(written[index], written_all[index],
                               rtol=1e-14, atol=1e-15)
            unread[index] = False
    assert np.array_equal(written[unread], before[unread])


@pytest.mark.parametrize("family,order", [("af", 3), ("af", 4), ("dg", 3)])
def test_dirichlet_rhs_projects_the_read_sides(family, order):
    # the run's RHS equals the one given every side, to roundoff (the read
    # blocks come from a smaller batch of the same projection)
    cfg = RunConfig(method=family, order=order, problem="advection2d",
                    ux=-1.0, uy=0.5, init="sine", boundary="dirichlet")
    state = driver.build_state(cfg, 8)
    problem = driver.make_problem(cfg)
    flux = driver.make_flux(cfg, problem, state.arrays()[0])
    got = driver.make_rhs(cfg, problem, flux)(state.copy(), 0.04).U
    everything = state.copy()
    ghosts = driver._GhostRing(driver.exact_solution(cfg))(everything, 0.04)
    if family == "af":
        want = af.af_rhs_2d_tensorial(everything, -1.0, 0.5, (0.0, -1.0),
                                      (0.5, 0.0), ghosts).U
    else:
        want = dg.dg_rhs_2d(everything, -1.0, 0.5, (0.0, -1.0), (0.5, 0.0),
                            ghosts).U
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
