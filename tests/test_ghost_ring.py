"""The Dirichlet ghost ring, bound once per run.

``reference_ghosts`` and the ``reference_*_cell_dofs_2d`` are the
per-stage ghost fill and the four-evaluation AF projection the package
used before ``driver._ghost_ring`` and ``mesh.af_cell_projector_2d``, kept
verbatim as an independent reference: the bound ring must return the same
ghost blocks, and the AF slot blocks that the reference writes into its
state, byte for byte, without writing the state it is bound to, and the
two-evaluation projection must give the same bytes as the four-evaluation
one.
"""

import functools

import numpy as np
import pytest

from afdg import dg, driver, mesh, timeint
from afdg.driver import RunConfig
from afdg.mesh import (AfState2D, Grid2D, _FILL_RULE, _af_moment_weights,
                       _dg_projection_weights)
from helpers import with_slots


def _points(x0, d, nodes):
    return (np.asarray(x0, dtype=float) + 0.5 * d)[..., None] + d * nodes


def _eval(f, x, y):
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.broadcast_to(np.asarray(f(x, y), dtype=float), shape)


def reference_af_cell_dofs_2d(K, f, x0, y0, dx, dy, rule=None, out=None):
    rule = rule or _FILL_RULE
    B = _af_moment_weights(K, rule)
    xq, yq = _points(x0, dx, rule.nodes), _points(y0, dy, rule.nodes)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(x0), np.shape(y0))
                       + (K + 1, K + 1))
    out[..., 0, 0] = _eval(f, x0, y0)
    np.matmul(_eval(f, np.expand_dims(x0, -1), yq), B.T, out=out[..., 0, 1:])
    out[..., 1:, 0] = _eval(f, xq, np.expand_dims(y0, -1)) @ B.T
    np.matmul(B @ _eval(f, xq[..., :, None], yq[..., None, :]), B.T,
              out=out[..., 1:, 1:])
    return out


def reference_dg_cell_dofs_2d(K, f, x0, y0, dx, dy, out=None):
    W = _dg_projection_weights(K)
    xq, yq = _points(x0, dx, _FILL_RULE.nodes), _points(y0, dy, _FILL_RULE.nodes)
    return np.matmul(W @ _eval(f, xq[..., :, None], yq[..., None, :]), W.T,
                     out=out)


def reference_ghosts(state, project, exact, t, sides=driver._SIDES):
    g = state.grid
    nx, m, ny, _ = state.U.shape
    i, j, names, sizes = _ghost_cells(nx, ny, isinstance(state, AfState2D),
                                      sides)
    blocks = project(lambda x, y: exact(t, x, y), g.x_min + i * g.dx,
                     g.y_min + j * g.dy, g.dx, g.dy)
    got = dict(zip(names, np.split(blocks, np.cumsum(sizes)[:-1])))
    if "x_slot" in got:
        state.U[-1, 1:] = got["x_slot"][:, 1:].swapaxes(0, 1)
    if "y_slot" in got:
        state.U[:, :, -1, 1:] = got["y_slot"][:, :, 1:]
    zero = {"x": np.zeros((ny, m, m)), "y": np.zeros((nx, m, m))}
    return tuple(got.get(side, zero[side[0]]) for side in driver._SIDES)


def _ghost_cells(nx, ny, slots, sides):
    rows, cols = np.arange(nx), np.arange(ny)
    cells = {"x_lo": (np.full(ny, -1), cols), "x_hi": (np.full(ny, nx), cols),
             "y_lo": (rows, np.full(nx, -1)), "y_hi": (rows, np.full(nx, ny)),
             "x_slot": (np.full(ny, nx - 1), cols),
             "y_slot": (rows, np.full(nx, ny - 1))}
    names = []
    for side in sides:
        names.append(side)
        if slots and side.endswith("_hi"):
            names.append(side[0] + "_slot")
    i = np.concatenate([cells[n][0] for n in names] or [np.arange(0)])
    j = np.concatenate([cells[n][1] for n in names] or [np.arange(0)])
    return i, j, tuple(names), tuple(len(cells[n][0]) for n in names)


GRID = Grid2D(0.0, 1.0, 5, 0.0, 1.5, 6)
FILLS = {"af": lambda g, K, f: mesh.fill_af_2d(g, K, f, periodic=False),
         "dg": mesh.fill_dg_2d}
REFERENCE = {"af": reference_af_cell_dofs_2d, "dg": reference_dg_cell_dofs_2d}
SIDE_SETS = [("x_lo", "y_lo"), ("x_hi", "y_lo"), ("y_hi",), driver._SIDES]


def noisy_state(family, K, grid=GRID, seed=0):
    """A non-periodic state whose dofs (AF slots included) are noise, so a
    slot write shows."""
    state = FILLS[family](grid, K, lambda x, y: np.ones_like(x + y))
    state.U[...] = np.random.default_rng(seed).standard_normal(state.U.shape)
    return state


def gauss_exact(ux=1.0, uy=0.6):
    return driver.exact_solution(RunConfig(problem="advection2d", ux=ux,
                                           uy=uy, init="gauss"))


@pytest.mark.parametrize("sides", SIDE_SETS)
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("family", ["af", "dg"])
def test_bound_ring_matches_the_per_stage_reference(family, K, sides):
    exact = gauss_exact()
    bound = noisy_state(family, K)
    kept = bound.U.tobytes()
    ring = driver._ghost_ring(bound, exact, sides)
    project = functools.partial(REFERENCE[family], K)
    # SSPRK3's stage times: the step's end comes back as the next start
    for seed, t in enumerate((0.0, 0.04, 0.02, 0.04)):
        state = noisy_state(family, K, seed=seed)
        want_state = state.copy()
        got = ring(t)
        want = reference_ghosts(want_state, project, exact, t, sides)
        assert len(got) == 6
        for g, w in zip(got[:4], want, strict=True):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        # an AF state's slot blocks come with their axis' high side; the
        # ring writes nothing, and its slots are the reference's writes
        assert [s is not None for s in got[4:]] == [
            family == "af" and f"{axis}_hi" in sides for axis in "xy"]
        assert bound.U.tobytes() == kept
        assert with_slots(state.U, *got[4:]).tobytes() == \
            want_state.U.tobytes()


def counting(exact, calls):
    """``exact`` that records the shape of every x it is called on."""
    def counted(t, x, y):
        calls.append(np.shape(x))
        return exact(t, x, y)
    return counted


@pytest.mark.parametrize("rk,projections", [("ssprk3", 1 + 2 * 4),
                                            ("ssprk54", 5 * 4)])
@pytest.mark.parametrize("family,order", [("af", 3), ("af", 4), ("dg", 3)])
def test_a_run_projects_each_distinct_stage_time_once(family, order, rk,
                                                      projections,
                                                      monkeypatch):
    cfg = RunConfig(method=family, order=order, rk=rk, problem="advection2d",
                    init="gauss", boundary="dirichlet")
    calls = []
    exact = driver.exact_solution(cfg)
    monkeypatch.setattr(driver, "exact_solution",
                        lambda c: counting(exact, calls))
    state = driver.build_state(cfg, 8)
    problem = driver.make_problem(cfg)
    rhs = driver.make_rhs(cfg, problem, driver.make_flux(cfg, problem,
                                                         state.U))
    dt = driver.default_dt(cfg, state.grid.dx)
    scheme = timeint.schemes_by_name()[rk]
    # a second run of the same closure, from t = 0 again, reuses as much
    for _ in range(2):
        calls.clear()
        steps = []
        timeint.integrate(state.copy(), lambda s, t: steps.append(t)
                          or rhs(s, t), scheme, dt, 4 * dt)
        assert len(steps) == 4 * scheme.stages
        # AF evaluates each projection on two point sets, DG on one
        per_set = {}
        for shape in calls:
            per_set[len(shape)] = per_set.get(len(shape), 0) + 1
        assert per_set == ({2: projections, 3: projections}
                           if family == "af" else {3: projections})


@pytest.mark.parametrize("family", ["af", "dg"])
def test_reused_blocks_are_read_only(family):
    ring = driver._ghost_ring(noisy_state(family, 2), gauss_exact())
    first = ring(0.05)
    again = ring(0.05)
    assert all(a is b for a, b in zip(first, again, strict=True))
    # an AF ring's two slot blocks are kept with its four ghost blocks
    blocks = [b for b in again if b is not None]
    assert len(blocks) == (6 if family == "af" else 4)
    for block in blocks:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[...] = 0.0


@pytest.mark.parametrize("family,order", [("af", 3), ("af", 4), ("dg", 3)])
def test_a_closure_rebinds_to_another_grid(family, order):
    cfg = RunConfig(method=family, order=order, problem="advection2d",
                    ux=-1.0, uy=0.5, init="sine", flux="alpha",
                    alpha_plus=0.7, beta_plus=0.7, boundary="dirichlet")
    problem = driver.make_problem(cfg)
    flux = driver.make_flux(cfg, problem)
    rhs = driver.make_rhs(cfg, problem, flux)
    rhs(driver.build_state(cfg, 8), 0.03)
    small = driver.build_state(cfg, 6)
    got = rhs(small.copy(), 0.03).U
    want = driver.make_rhs(cfg, problem, flux)(small.copy(), 0.03).U
    assert got.shape == small.U.shape and got.tobytes() == want.tobytes()


def fill_cells(n):
    """The fill's column-by-row corners of an n x n square."""
    x = mesh.Grid2D.square(n).gx.interfaces(False)
    return x[:, None], x[None, :], 1.0 / n


def ring_cells(n):
    """A flat cell list: the ring of a 2-d Dirichlet run with all sides."""
    state = noisy_state("af", 1, Grid2D.square(n))
    nx, _, ny, _ = state.U.shape
    i, j, _, _ = _ghost_cells(nx, ny, True, driver._SIDES)
    return i / n, j / n, 1.0 / n


@pytest.mark.parametrize("cells", [fill_cells, ring_cells])
@pytest.mark.parametrize("rule", ["catalog", "fill"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_af_cell_dofs_evaluates_twice_with_the_four_evaluation_bytes(
        K, rule, cells):
    rule = dg.quad_rule_for_order("af", K + 2) if rule == "catalog" else None
    x0, y0, h = cells(7)
    exact = gauss_exact(0.3, -0.2)
    calls = []
    f = functools.partial(counting(exact, calls), 0.07)
    got = mesh.af_cell_projector_2d(K, x0, y0, h, h, rule)(f)
    assert len(calls) == 2
    want = reference_af_cell_dofs_2d(K, functools.partial(exact, 0.07), x0,
                                     y0, h, h, rule)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got_dg = mesh.dg_cell_projector_2d(K, x0, y0, h, h)(f)
    want_dg = reference_dg_cell_dofs_2d(K, functools.partial(exact, 0.07),
                                        x0, y0, h, h)
    assert got_dg.tobytes() == want_dg.tobytes()
