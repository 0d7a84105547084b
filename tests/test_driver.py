"""Experiment driver and command-line interface."""

import csv
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from helpers import planted_cost_slope

from afdg import af, cli, dg, driver, mesh, timeint
from afdg.driver import RunConfig
from afdg.mesh import DgState2D, Grid2D
from afdg.problems import NumericalFluxSpec, flux_spec

UPWIND = NumericalFluxSpec.upwind()


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_roundtrip():
    text = """
    # comment line
    method = af
    order = 4
    grids = 16, 32, 64
    t_final = 0.25
    flux = alpha
    alpha_plus = 0.7
    boundary = periodic
    cfl_override = 0.1
    """
    cfg = driver.parse_config(text)
    assert cfg.method == "af" and cfg.order == 4
    assert cfg.grids == (16, 32, 64)
    assert cfg.t_final == 0.25
    assert cfg.alpha_plus == 0.7
    assert cfg.cfl_override == 0.1


def test_parse_config_overrides_win():
    cfg = driver.parse_config("order = 3", overrides={"order": "5"})
    assert cfg.order == 5


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        driver.parse_config("not_a_key = 1")


@pytest.mark.parametrize("key", ["K", "speeds", "validate", "refuse"])
def test_cli_refuses_an_attribute_that_is_not_a_config_key(key, tmp_path,
                                                          capsys):
    code = cli.main(["run", "--set", "grids=8", "--set", f"{key}=3",
                     "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"afdg run: error: unknown config key {key!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key,value", [
    ("t_final", "0"), ("t_final", "-1"), ("cfl_override", "0"),
    ("cfl_override", "-0.1"), ("method", "xx"), ("rk", "rk4"),
])
def test_invalid_config_rejected_before_any_step(key, value, tmp_path,
                                                 capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a time step was taken")

    monkeypatch.setattr(timeint, "rk_step", refuse)
    cfg = driver.parse_config("grids = 8", {key: value})
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        driver.run_simulation(cfg)
    capsys.readouterr()
    code = cli.main(["run", "--set", "grids=8", "--set", f"{key}={value}",
                     "--out", str(tmp_path / "state.csv")])
    err = capsys.readouterr().err
    assert code != 0
    assert err.count("\n") == 1 and f"config key '{key}'" in err
    assert not (tmp_path / "state.csv").exists()


# (command, key, value, extra settings, serial).  A case's id ends in its
# row's serial, the index pytest once gave it by position and now frozen,
# so deleting or inserting a row renames no other case; a new row takes
# the next free serial.
REFUSED = [
    ("run", "boundary", "bogus", [], 0),
    ("run", "boundary", "dirichlet", ["problem=advection1d"], 1),
    ("run", "init", "foo", [], 2),
    ("run", "flux", "bogus", [], 3),
    ("run", "problem", "burgers", [], 4),
    ("convergence", "grids", "20,30", [], 5),
    ("superconvergence", "method", "af", [], 6),
    ("superconvergence", "flux", "central", [], 7),
    ("bench", "grids", "20,40", [], 8),
    ("equiv-check", "flux", "bogus", [], 9),
    ("equiv-check", "problem", "bogus", [], 10),
    ("equiv-check", "flux", "lax_friedrichs", ["problem=advection2d", "ux=0"], 11),
    ("equiv-check", "k", "0", ["problem=advection1d"], 12),
    ("equiv-check", "k", "0", ["problem=advection2d"], 13),
    ("equiv-check", "order", "1", ["problem=advection1d"], 14),
    ("equiv-check", "flux", "central", ["problem=acoustics2x2"], 15),
    ("equiv-check", "order", "3",
     ["problem=advection2d", "--variant=classical_midpoint"], 16),
    ("equiv-check", "flux", "alpha",
     ["problem=advection2d", "k=1", "--variant=classical_midpoint"], 17),
    ("equiv-check", "ux", "-1",
     ["problem=advection2d", "k=1", "--variant=classical_midpoint"], 18),
    ("run", "flux", "lax_friedrichs", ["ux=0", "uy=0"], 19),
    ("run", "flux", "lax_friedrichs", ["problem=advection1d", "u=0"], 20),
    # a run's K comes from method and order; a k that disagrees is refused
    ("run", "k", "3", ["method=dg", "problem=advection1d"], 21),
    ("run", "k", "1", ["method=af", "order=4"], 22),
    ("convergence", "k", "2", ["method=dg", "order=2", "grids=8,16"], 23),
    # grid lists, orders and numbers no run can serve
    ("run", "grids", "", [], 24),
    ("run", "grids", "0", [], 25),
    ("run", "grids", "-4", [], 26),
    ("run", "grids", "1.5", [], 27),
    ("run", "order", "2", ["method=af"], 28),
    ("run", "order", "9", [], 29),
    ("run", "order", "0", ["cfl_override=0.1"], 30),
    ("run", "u", "abc", ["problem=advection1d"], 31),
    ("run", "c_sound", "abc", [], 32),
    ("equiv-check", "grids", "0", [], 33),
    ("equiv-check", "ux", "abc", ["problem=advection2d"], 34),
    # a seed, tolerance or k that no comparison can take
    ("equiv-check", "seed", "abc", [], 35),
    ("equiv-check", "seed", "-1", [], 36),
    ("equiv-check", "seed", "1.5", [], 37),
    ("equiv-check", "tolerance", "abc", [], 38),
    ("equiv-check", "tolerance", "0", [], 39),
    ("equiv-check", "tolerance", "-1e-11", [], 40),
    ("equiv-check", "k", "abc", [], 41),
    ("equiv-check", "k", "1.5", [], 42),
    ("run", "seed", "abc", [], 43),
    ("run", "tolerance", "abc", [], 44),
    # non-finite numbers, and a t_final too short for one step
    ("run", "ux", "nan", [], 45),
    ("run", "u", "-inf", ["problem=advection1d"], 46),
    ("run", "t_final", "inf", [], 47),
    ("run", "t_final", "nan", [], 48),
    ("run", "cfl_override", "inf", [], 49),
    ("run", "t_final", "1e-30", [], 50),
    ("run", "t_final", "1e-30", ["problem=advection1d"], 51),
    ("convergence", "t_final", "1e-30", ["grids=8,16"], 52),
    ("bench", "t_final", "1e-30", ["grids=8,16,32"], 53),
    ("equiv-check", "alpha_plus", "nan",
     ["problem=advection2d", "k=1", "flux=alpha"], 54),
    ("equiv-check", "tolerance", "inf", [], 55),
    # keys that a command read before it checked them
    ("superconvergence", "u", "abc", ["problem=advection1d"], 56),
    ("superconvergence", "ux", "abc", [], 57),
    ("superconvergence", "order", "abc", [], 58),
    ("superconvergence", "problem", "none", [], 59),
    ("equiv-check", "order", "3.0", [], 60),
    ("equiv-check", "order", "abc", [], 61),
    ("equiv-check", "problem", "none", [], 62),
    ("run", "order", "abc", [], 63),
    ("convergence", "order", "abc", ["grids=8,16"], 64),
    # a grid beyond driver.MAX_CELLS
    ("run", "grids", "3000", [], 65),
    ("run", "grids", "262145", ["problem=advection1d"], 66),
    ("equiv-check", "grids", "513", ["problem=advection2d"], 67),
]


@pytest.mark.parametrize("command,key,value,extra", [
    pytest.param(*row[:4], id="-".join(row[:3]) + f"-extra{row[4]}")
    for row in REFUSED])
def test_cli_names_bad_key_before_any_step(command, key, value, extra,
                                           tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a time step was taken")

    monkeypatch.setattr(timeint, "rk_step", refuse)
    argv = [command, "--set", "grids=8", "--set", f"{key}={value}"]
    for item in extra:
        argv += [item] if item.startswith("--") else ["--set", item]
    code = cli.main(argv + ["--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and f"config key '{key}'" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("problem,side", [("advection2d", 512),
                                          ("advection1d", 2 ** 18)])
def test_the_cell_bound_admits_its_largest_grid_only(problem, side):
    """``MAX_CELLS`` is 512^2 cells: a 2-d grid of 512 a side and a 1-d
    grid of 2^18 cells pass, one cell more a side is refused."""
    assert driver.MAX_CELLS == 512 ** 2
    RunConfig(problem=problem, grids=(8, side)).validate("run")
    with pytest.raises(driver.ConfigError, match="config key 'grids'"):
        RunConfig(problem=problem, grids=(8, side + 1)).validate("run")


def test_a_grid_beyond_the_cell_bound_exits_2_before_any_allocation(
        tmp_path, capsys):
    """``run --set grids=3000`` (9.66 GiB for one fill's points) ends in
    one line naming ``grids`` and exit status 2, having allocated next to
    nothing."""
    tracemalloc.start()
    try:
        code = cli.main(["run", "--set", "grids=3000",
                         "--out", str(tmp_path / "out.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "config key 'grids'" in err
    assert peak < 2 ** 20
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key,value,others", [
    pytest.param("cfl_override", "1e-30", (), id="cfl_override-1e-30"),
    pytest.param("t_final", "1e30", (), id="t_final-1e30"),
    # dt = cfl_override dx underflows to 0: no ZeroDivisionError
    pytest.param("cfl_override", "5e-324", (), id="cfl_override-5e-324"),
    # t_final / dt overflows to inf: still the refusal, no OverflowError
    pytest.param("cfl_override", "1e-300",
                 ("problem=advection2d", "t_final=1e300"),
                 id="cfl_override-1e-300-t_final-1e300")])
def test_a_run_that_could_never_finish_exits_2_before_integrating(
        key, value, others, tmp_path, capsys, monkeypatch):
    """A tiny ``cfl_override`` or a huge ``t_final`` asks the default grids
    for about 1e30 time steps, or more than a float holds, as does a step
    that underflows to 0: one line naming the key and exit status 2, and
    ``integrate`` is never called."""
    def refuse(*args, **kwargs):
        raise AssertionError("integrate was called")

    monkeypatch.setattr(timeint, "integrate", refuse)
    settings = [a for kv in (*others, f"{key}={value}") for a in ("--set", kv)]
    code = cli.main(["run", *settings, "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and f"config key '{key}'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override", [None, 1.0])
def test_the_step_bound_admits_its_longest_run_only(override):
    """``MAX_STEPS`` time steps on the finest grid pass, one more is
    refused, naming ``cfl_override`` when it sets the step, else
    ``t_final``."""
    assert driver.MAX_STEPS == 2 ** 20
    cfg = RunConfig(method="dg", order=2, grids=(1, 2),
                    cfl_override=override)
    dt = driver.default_dt(cfg, 1 / 2)
    key = "t_final" if override is None else "cfl_override"
    dataclasses.replace(cfg, t_final=driver.MAX_STEPS * dt).validate("run")
    with pytest.raises(driver.ConfigError, match=f"config key '{key}'"):
        dataclasses.replace(
            cfg, t_final=(driver.MAX_STEPS + 1) * dt).validate("run")


@pytest.mark.parametrize("method,order", [("af", 4), ("dg", 3)])
@pytest.mark.parametrize("problem,boundary", [
    ("advection1d", "periodic"), ("advection2d", "periodic"),
    ("advection2d", "dirichlet")])
def test_a_run_never_writes_its_initial_state(method, order, problem,
                                              boundary, monkeypatch):
    """The time loop starts from the initial state itself, not a copy:
    with ``build_state`` giving a read-only tensor, a run completes, and
    its initial norm and mass are those of a fresh state."""
    cfg = RunConfig(method=method, order=order, problem=problem,
                    boundary=boundary, ux=1.0, uy=-0.5, init="sine",
                    grids=(8,), t_final=0.1)
    build = driver.build_state
    states = []

    def read_only(*args):
        states.append(build(*args))
        states[-1].U.setflags(write=False)
        return states[-1]

    monkeypatch.setattr(driver, "build_state", read_only)
    res = driver.run_simulation(cfg)
    fresh = build(cfg, 8)
    assert len(states) == 1 and res.bench.steps >= 2
    assert states[0].U.tobytes() == fresh.U.tobytes()
    assert res.norm0 == driver.dof_norm(fresh)
    assert res.mass0 == driver.cell_mass(fresh)


def no_integrate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the time loop was reached")

    monkeypatch.setattr(timeint, "integrate", refuse)


def test_run_simulation_checks_the_grid_it_runs(monkeypatch):
    """A grid given to ``run_simulation`` is validated in place of the
    config's: 10^5 a side is refused, naming ``grids``, before anything
    of its 10^10 cells is allocated or stepped."""
    no_integrate(monkeypatch)
    cfg = RunConfig(problem="advection2d", grids=(20,), cfl_override=1e-3)
    cfg.validate("run")
    tracemalloc.start()
    try:
        with pytest.raises(driver.ConfigError, match="config key 'grids'"):
            driver.run_simulation(cfg, 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_run_simulation_refuses_too_many_steps_on_its_grid(monkeypatch):
    """An in-bounds grid that needs more than ``MAX_STEPS`` steps is
    refused naming the override that sets its step, though the config's
    own grid passes."""
    no_integrate(monkeypatch)
    cfg = RunConfig(problem="advection2d", grids=(20,), cfl_override=1e-5)
    n = 500
    assert driver._steps(cfg) <= driver.MAX_STEPS < driver._steps(cfg, n)
    with pytest.raises(driver.ConfigError,
                       match="config key 'cfl_override'"):
        driver.run_simulation(cfg, n)


def test_a_run_of_no_time_step_is_refused_before_the_time_loop(monkeypatch):
    """The refusal of a t_final below one step reads the coarsest grid,
    the one with the largest step, and comes from ``validate``."""
    no_integrate(monkeypatch)
    cfg = RunConfig(problem="advection2d", grids=(8, 16), t_final=1e-16)
    with pytest.raises(driver.ConfigError,
                       match="config key 't_final' must give at least one"):
        cfg.validate("run")
    with pytest.raises(driver.ConfigError, match="config key 't_final'"):
        driver.run_simulation(cfg, 16)


def test_superconvergence_names_a_bad_k_before_its_k_rule(tmp_path, capsys):
    code = cli.main(["superconvergence", "--set", "grids=8", "--set", "k=abc",
                     "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("afdg superconvergence: error: config key 'k' must be none "
                   "or an integer >= 1, got 'abc'\n")


@pytest.mark.parametrize("command", ["run", "convergence", "superconvergence",
                                     "bench", "equiv-check", "dof-table"])
@pytest.mark.parametrize("out", ["missing/out.csv", "."])
def test_out_outside_an_existing_directory_is_refused_before_any_step(
        command, out, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a time step was taken")

    monkeypatch.setattr(timeint, "rk_step", refuse)
    code = cli.main([command, "--set", "grids=8,16,32",
                     "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "config key 'out'" in err
    assert list(tmp_path.iterdir()) == []


def test_dg_order_outside_the_catalog_runs_with_cfl_override():
    cfg = RunConfig(method="dg", order=7, problem="advection1d", init="sine",
                    grids=(8,), t_final=0.01, cfl_override=0.01)
    assert driver.run_simulation(cfg).bench.steps == 8


def test_cli_unstable_run_ends_in_one_line(tmp_path, capsys):
    # fifth-order AF at the catalog CFL blows up on this run
    code = cli.main(["run", "--set", "method=af", "--set", "order=5",
                     "--set", "problem=advection1d", "--set", "init=sine",
                     "--set", "grids=40", "--set", "t_final=10",
                     "--out", str(tmp_path / "state.csv")])
    err = capsys.readouterr().err
    assert code != 0
    assert err.count("\n") == 1
    assert err.startswith("afdg run: error: non-finite state at t=")
    assert "(step " in err
    assert not (tmp_path / "state.csv").exists()


def test_method_ids():
    assert RunConfig(method="af", order=3, rk="ssprk3").method_id() == "AF33"
    assert RunConfig(method="dg", order=5, rk="ssprk54").method_id() == "DG54"


def test_k_derived_from_order():
    assert RunConfig(method="af", order=5).K == 3
    assert RunConfig(method="dg", order=5).K == 4
    assert RunConfig(method="dg", order=5, k=2).K == 2


def test_run_with_the_order_implied_k_is_the_same_run():
    cfg = RunConfig(method="dg", order=3, problem="advection1d", init="sine",
                    grids=(16,), t_final=0.05)
    base = driver.run_simulation(cfg)
    res = driver.run_simulation(dataclasses.replace(cfg, k=2))
    assert res.bench.method == base.bench.method == "DG33"
    assert res.errors.e_dofs == base.errors.e_dofs
    for a, b in zip(res.state.arrays(), base.state.arrays()):
        assert np.array_equal(a, b)


def test_equiv_check_takes_any_k(tmp_path):
    """``equiv-check`` reads K from ``k`` alone; the run check does not
    apply to it."""
    out = tmp_path / "equiv.csv"
    code = run_cli(["equiv-check", "--set", "problem=advection1d",
                    "--set", "order=3", "--set", "k=4", "--set", "grids=16",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6  # point_values + four moment families
    assert all(line.endswith("True") for line in lines[1:])


# ---------------------------------------------------------------------------
# error reporting and EOC


def test_eoc_definition_synthetic():
    errors = [1.0, 1.0 / 8.0, 1.0 / 64.0]
    rates = [driver.eoc(a, b) for a, b in zip(errors[:-1], errors[1:])]
    assert rates == [pytest.approx(3.0), pytest.approx(3.0)]


def test_constant_data_error_is_roundoff():
    cfg = RunConfig(method="dg", order=2, rk="ssprk3", problem="advection1d",
                    u=1.0, init="const", flux="upwind", grids=(16,),
                    t_final=0.2, boundary="periodic")
    res = driver.run_simulation(cfg)
    assert res.errors.e_dofs < 1e-12


def test_e_dofs_is_max_over_families():
    cfg = RunConfig(method="af", order=3, rk="ssprk3", problem="advection1d",
                    u=1.0, init="sine", flux="upwind", grids=(16,),
                    t_final=0.1, boundary="periodic")
    res = driver.run_simulation(cfg)
    assert res.errors.e_dofs == max(res.errors.families.values())


def test_e_dofs_decreases_under_refinement():
    cfg = RunConfig(method="dg", order=3, rk="ssprk3", problem="advection1d",
                    u=1.0, init="sine", flux="upwind", grids=(8, 16, 32),
                    t_final=0.2, boundary="periodic")
    rows = driver.run_convergence_study(cfg)
    errs = [r[2] for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_rejects_non_doubling_grids():
    cfg = RunConfig(grids=(16, 24))
    with pytest.raises(ValueError):
        driver.run_convergence_study(cfg)


def test_bench_record_sanity():
    cfg = RunConfig(method="dg", order=2, rk="ssprk3", problem="advection2d",
                    init="gauss", flux="upwind", grids=(10,), t_final=0.05,
                    boundary="periodic")
    res = driver.run_simulation(cfg)
    b = res.bench
    assert b.n_cells == 100
    assert b.tau == pytest.approx(b.tau_per_step * b.steps, rel=0.05)
    assert b.metric == pytest.approx(b.n_dofs * b.e_dofs * b.tau, rel=1e-12)


# ---------------------------------------------------------------------------
# boundary handling


def test_dirichlet_matches_periodic_for_compact_data():
    # the Gaussian never reaches the boundary at T = 0.1; exact-trace
    # ghosts and periodic wrap then differ only by the dispersive wiggles
    # radiated into the flat region, several orders below the error level
    errs = {}
    for boundary in ("periodic", "dirichlet"):
        cfg = RunConfig(method="dg", order=2, rk="ssprk3",
                        problem="advection2d", ux=1.0, uy=1.0, init="gauss",
                        flux="upwind", grids=(16,), t_final=0.05,
                        boundary=boundary)
        errs[boundary] = driver.run_simulation(cfg).errors.e_dofs
    assert errs["dirichlet"] == pytest.approx(errs["periodic"], rel=1e-6)


def test_dirichlet_af_matches_periodic_for_compact_data():
    # compare the cell-moment family: its dof count is n^2 under either
    # boundary mode, so the RMS normalizations line up (the point/edge
    # families carry an extra boundary ring when non-periodic)
    errs = {}
    for boundary in ("periodic", "dirichlet"):
        cfg = RunConfig(method="af", order=3, rk="ssprk3",
                        problem="advection2d", ux=1.0, uy=1.0, init="gauss",
                        flux="upwind", grids=(16,), t_final=0.05,
                        boundary=boundary)
        errs[boundary] = driver.run_simulation(cfg).errors.families["moments"]
    assert errs["dirichlet"] == pytest.approx(errs["periodic"], rel=1e-6)


PAD_FAMILIES = {
    "af": (lambda g, K, f, periodic: mesh.fill_af_2d(g, K, f, periodic),
           lambda s, ux, uy, ghosts: af.af_rhs_2d_tensorial(
               s, ux, uy, UPWIND.advection_partials(ux),
               UPWIND.advection_partials(uy), ghosts)),
    # a DG state has one layout for both boundaries
    "dg": (lambda g, K, f, periodic: mesh.fill_dg_2d(g, K, f),
           lambda s, ux, uy, ghosts: dg.dg_rhs_2d(
               s, ux, uy, UPWIND.advection_partials(ux),
               UPWIND.advection_partials(uy), ghosts)),
}


@pytest.mark.parametrize("inflow", ["lower", "upper"])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("family", ["af", "dg"])
def test_ghost_padding_is_exact(family, K, inflow):
    # "lower" has inflow through the left and bottom ghost blocks, "upper"
    # through the right and top ones
    ux, uy = {"lower": (1.0, 0.6), "upper": (-0.7, -1.0)}[inflow]
    fill, rhs = PAD_FAMILIES[family]
    assert_padding_exact(fill, lambda s, ghosts: rhs(s, ux, uy, ghosts), K)


@pytest.mark.parametrize("ux,uy", [(1.0, 0.6), (-0.7, -1.0)])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_af_ghost_padding_is_exact_with_downwind_weight(K, ux, uy):
    # an alpha flux weights both sides, so the AF dofs on every boundary
    # read the cells beyond them whatever the speeds' signs
    flux = NumericalFluxSpec.alpha(0.7, 0.3)
    px, py = flux.advection_partials(ux), flux.advection_partials(uy)
    fill, _ = PAD_FAMILIES["af"]
    assert_padding_exact(
        fill,
        lambda s, ghosts: af.af_rhs_2d_tensorial(s, ux, uy, px, py, ghosts),
        K)


def fields(state):
    if isinstance(state, DgState2D):
        return [state.coeffs]
    return [state.node_values, state.x_edge, state.y_edge, state.cell_moments]


def assert_padding_exact(fill, rhs, K):
    # for periodic-compatible data the ghost blocks equal the wrapped data,
    # so the non-periodic rhs must reproduce the periodic one, boundary
    # dofs included
    cfg = RunConfig(problem="advection2d", init="sine", boundary="dirichlet")
    exact = driver.exact_solution(cfg)
    q0 = lambda x, y: exact(0.0, x, y)
    sp = fill(Grid2D.square(8), K, q0, True)
    sd = fill(Grid2D.square(8), K, q0, False)
    # the ring keeps every state dof, boundary ones included, and writes
    # nothing into the state
    noisy = sd.with_tensor(sd.U + 0.1)
    kept = [a.copy() for a in fields(noisy)]
    kept_U = noisy.U.tobytes()
    driver._ghost_ring(noisy, exact)(0.0)
    for a, b in zip(kept, fields(noisy)):
        assert np.array_equal(a, b)
    assert noisy.U.tobytes() == kept_U
    dp = rhs(sp, None)
    dd = rhs(sd, driver._ghost_ring(sd, exact)(0.0))
    for p, d in zip(fields(dp), fields(dd)):
        wrapped = np.take(np.take(p, range(d.shape[0]), 0, mode="wrap"),
                          range(d.shape[1]), 1, mode="wrap")
        assert np.max(np.abs(d - wrapped)) < 1e-12 * np.max(np.abs(p))


def test_dirichlet_transports_inflow_data():
    # data entering through the inflow boundary must appear: advect a
    # non-compact profile and compare against the exact solution
    cfg = RunConfig(method="dg", order=3, rk="ssprk3", problem="advection2d",
                    ux=1.0, uy=1.0, init="sine", flux="upwind", grids=(24,),
                    t_final=0.1, boundary="dirichlet")
    res = driver.run_simulation(cfg)
    assert res.errors.e_dofs < 5e-3


@pytest.mark.parametrize("ux,uy", [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)])
@pytest.mark.parametrize("order", [3, 4])
def test_af_dirichlet_errors_are_sign_symmetric(order, ux, uy):
    # sin(2 pi x) sin(2 pi y) on the unit square is odd under x -> 1 - x
    # and y -> 1 - y, so reversing a speed mirrors the solution and must
    # leave every error and EOC unchanged, inflow from the right or top
    # included
    def study(ux, uy):
        cfg = RunConfig(method="af", order=order, problem="advection2d",
                        ux=ux, uy=uy, init="sine", boundary="dirichlet",
                        grids=(10, 20), t_final=0.1)
        return driver.run_convergence_study(cfg)

    for ref, row in zip(study(1.0, 1.0), study(ux, uy)):
        assert row[2] == pytest.approx(ref[2], rel=1e-9)
        assert math.isnan(ref[3]) or row[3] == pytest.approx(ref[3], abs=1e-6)


# ---------------------------------------------------------------------------
# dof table and planted-cost oracle


def test_dof_table_rows():
    rows = driver.emit_dof_table()
    by_key = {(r[0], r[1]): r for r in rows}
    assert by_key[("af", 6)][2:5] == (12, 23, 3)
    assert by_key[("dg", 6)][2:5] == (36, 36, 36)
    assert by_key[("af", 3)][4] == 1      # max(1, (-1)(0)/2)
    assert len(rows) == 10


def test_planted_cost_slope():
    slope = planted_cost_slope((12, 24, 48))
    assert slope == pytest.approx(1.5, abs=0.25)


# ---------------------------------------------------------------------------
# CLI


def run_cli(args):
    return cli.main(args)


def test_cli_dof_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run_cli(["dof-table", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("family,order,n_dofs")
    assert len(lines) == 11


def test_cli_equiv_check_passes(tmp_path, capsys):
    out = tmp_path / "equiv.csv"
    code = run_cli(["equiv-check", "--set", "problem=advection1d",
                    "--set", "flux=central", "--set", "k=2",
                    "--set", "grids=32", "--set", "seed=5",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,max_abs,scale,relative,pass"
    assert len(lines) == 4  # point_values + two moment families
    assert all(line.endswith("True") for line in lines[1:])


def test_cli_equiv_check_negative_control_exit_code(tmp_path):
    out = tmp_path / "equiv_fail.csv"
    code = run_cli(["equiv-check", "--variant", "classical_midpoint",
                    "--set", "problem=advection2d", "--set", "k=1",
                    "--set", "grids=12", "--out", str(out)])
    assert code == 1


def test_cli_equiv_check_refuses_the_classical_variant_in_1d(tmp_path,
                                                            capsys):
    out = tmp_path / "equiv.csv"
    code = run_cli(["equiv-check", "--variant", "classical_midpoint",
                    "--set", "problem=advection1d", "--set", "k=1",
                    "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "--variant" in err
    assert not out.exists()


def test_cli_run_writes_state_and_reports(tmp_path):
    out = tmp_path / "state.csv"
    code = run_cli(["run", "--set", "problem=advection1d",
                    "--set", "method=dg", "--set", "order=2",
                    "--set", "init=sine", "--set", "grids=16",
                    "--set", "t_final=0.05", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "state.csv.errors.csv").exists()
    assert (tmp_path / "state.csv.bench.csv").exists()


def test_cli_convergence_from_config_file(tmp_path):
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text("""
method = dg
order = 2
rk = ssprk3
problem = advection1d
init = sine
flux = upwind
grids = 8, 16
t_final = 0.1
""")
    out = tmp_path / "conv.csv"
    code = run_cli(["convergence", str(cfgfile), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,dx,e_dofs,eoc"
    assert len(lines) == 3


def test_cli_csv_byte_stability(tmp_path):
    """Deterministic outputs are byte-identical across repeated runs."""
    outs = []
    for i in (1, 2):
        out = tmp_path / f"equiv{i}.csv"
        run_cli(["equiv-check", "--set", "problem=advection1d",
                 "--set", "flux=upwind", "--set", "k=1",
                 "--set", "grids=32", "--set", "seed=42", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    for i in (1, 2):
        out = tmp_path / f"table{i}.csv"
        run_cli(["dof-table", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[2] == outs[3]


def test_console_entry_point():
    # the child imports afdg from where this process does (pytest.ini's
    # pythonpath does not reach a subprocess)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "afdg.cli", "dof-table",
                           "--out", os.devnull], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0
    assert "af, 3" in proc.stdout


def test_af_order4_1d_convergence():
    # fourth-order 1-d AF with the four-stage-order time integrator
    cfg = RunConfig(method="af", order=4, rk="ssprk54", problem="advection1d",
                    u=1.0, init="sine", flux="upwind", grids=(16, 32, 64),
                    t_final=0.5, boundary="periodic")
    rows = driver.run_convergence_study(cfg)
    assert rows[-1][3] == pytest.approx(4.0, abs=0.15)


def test_dg_order3_superconvergent_averages_1d():
    cfg = RunConfig(method="dg", order=2, rk="ssprk54", problem="advection1d",
                    u=1.0, init="sine", flux="upwind", grids=(32, 64, 128),
                    t_final=0.5, boundary="periodic")
    rows = driver.run_superconvergence_probe(cfg)
    avg_rows = [r for r in rows if r[0] == "cell_averages"]
    assert avg_rows[-1][3] == pytest.approx(3.0, abs=0.2)


@pytest.mark.parametrize("uy", [1.0, -0.5])
def test_dg_order3_crossing_points_2d(uy):
    """At K = 2 the DG error at the tensor Radau zeros of the run's K
    falls at order K + 2 (3.991 on these grids for either speed pair).
    K = 3 is still pre-asymptotic here (5.30, then 4.955), so it is not
    gated."""
    cfg = RunConfig(method="dg", order=3, rk="ssprk54", problem="advection2d",
                    ux=1.0, uy=uy, init="sine", flux="upwind",
                    grids=(16, 32, 64), t_final=0.5, boundary="periodic")
    rows = driver.run_superconvergence_probe(cfg)
    assert [r[0] for r in rows] == ["crossing_points"] * 3
    assert rows[-1][3] == pytest.approx(4.0, abs=0.3)


def test_af_2d_tensorial_orders_on_smooth_data():
    # well-resolved product-sine data: the 2-d tensorial methods converge
    # at their formal orders (the Gaussian acceptance pair sits in the
    # under-resolved regime and shows pre-asymptotic rates instead)
    cfg3 = RunConfig(method="af", order=3, rk="ssprk3", problem="advection2d",
                     ux=1.0, uy=1.0, init="sine", flux="upwind",
                     grids=(8, 16, 32), t_final=0.25, boundary="periodic")
    rows = driver.run_convergence_study(cfg3)
    assert rows[-1][3] == pytest.approx(3.0, abs=0.2)

    cfg4 = RunConfig(method="af", order=4, rk="ssprk54", problem="advection2d",
                     ux=1.0, uy=1.0, init="sine", flux="upwind",
                     grids=(8, 16, 32), t_final=0.25, boundary="periodic",
                     cfl_override=0.05)
    rows = driver.run_convergence_study(cfg4)
    assert rows[-1][3] == pytest.approx(4.0, abs=0.2)


def test_cli_run_emits_metadata(tmp_path):
    from afdg import cli
    out = tmp_path / "state.csv"
    cli.main(["run", "--set", "problem=advection1d", "--set", "method=dg",
              "--set", "order=2", "--set", "init=sine", "--set", "grids=16",
              "--set", "t_final=0.05", "--out", str(out)])
    meta = (tmp_path / "state.csv.meta.csv").read_text()
    assert "dt_rule,catalog C_CFL * dx" in meta
    assert "ghost_sides,none" in meta
    # a Dirichlet run names the ghost sides its stencils read
    cli.main(["run", "--set", "problem=advection2d", "--set", "method=af",
              "--set", "order=3", "--set", "boundary=dirichlet",
              "--set", "ux=-1", "--set", "uy=0.5", "--set", "grids=6",
              "--set", "t_final=0.02", "--out", str(out)])
    meta = (tmp_path / "state.csv.meta.csv").read_text()
    assert "ghost_sides,x_hi y_lo" in meta
    assert f"numpy,{np.__version__}" in meta
    # a periodic 2-d run records the upwind partials of each axis
    cli.main(["run", "--set", "problem=advection2d", "--set", "method=dg",
              "--set", "ux=1", "--set", "uy=-1", "--set", "grids=6",
              "--set", "t_final=0.02", "--out", str(out)])
    meta = read_meta(tmp_path / "state.csv.meta.csv")
    assert meta["ghost_sides"] == "none"
    assert meta["partials"] == "x 1 0 y 0 -1"
    # Lax-Friedrichs partials (u +- a)/2 with a = 1.1 max(|ux|, |uy|),
    # finite at every speed
    for ux, want_x in (("0.5", [0.8, -0.3]), ("0", [0.55, -0.55]),
                       ("1e-9", [0.55, -0.55])):
        cli.main(["run", "--set", "problem=advection2d", "--set", "method=dg",
                  "--set", "flux=lax_friedrichs", "--set", f"ux={ux}",
                  "--set", "uy=1", "--set", "grids=6",
                  "--set", "t_final=0.02", "--out", str(out)])
        partials = read_meta(tmp_path / "state.csv.meta.csv")[
            "partials"].split()
        assert partials[0] == "x" and partials[3] == "y"
        assert [float(d) for d in partials[1:3]] == pytest.approx(want_x)
        assert [float(d) for d in partials[4:]] == pytest.approx([1.05,
                                                                  -0.05])


def read_meta(path) -> dict:
    with open(path) as fh:
        return dict(csv.reader(fh))


@pytest.mark.parametrize("method,order", [("af", 4), ("dg", 3)])
def test_cli_run_records_periodic_mass_drift(tmp_path, method, order):
    """AF43 and DG33 conserve the cell-mean mass on a periodic grid."""
    sets = [f"method={method}", f"order={order}", "problem=advection2d",
            "ux=1", "uy=-0.6", "grids=12", "t_final=0.05"]
    out = tmp_path / "state.csv"
    assert cli.main(["run", *[a for kv in sets for a in ("--set", kv)],
                     "--out", str(out)]) == 0
    meta = read_meta(tmp_path / "state.csv.meta.csv")
    cfg = driver.parse_config("", dict(kv.split("=") for kv in sets))
    m0 = driver.cell_mass(driver.build_state(cfg, 12))
    assert abs(float(meta["mass_drift"])) <= 1e-12 * max(1.0, abs(m0))
    assert float(meta["norm_ratio"]) == pytest.approx(1.0, abs=0.05)


def test_cli_run_records_dirichlet_mass_drift_as_na(tmp_path):
    out = tmp_path / "state.csv"
    cli.main(["run", "--set", "method=dg", "--set", "boundary=dirichlet",
              "--set", "grids=6", "--set", "t_final=0.02", "--out", str(out)])
    assert read_meta(tmp_path / "state.csv.meta.csv")["mass_drift"] == "n/a"


def test_cli_run_records_the_growth_of_an_unstable_run(tmp_path):
    """AF5 under ssprk3 at the catalog CFL amplifies its highest modes;
    the run exits 0 at t = 1, and ``norm_ratio`` shows the blow-up."""
    out = tmp_path / "state.csv"
    assert cli.main(["run", "--set", "method=af", "--set", "order=5",
                     "--set", "problem=advection1d", "--set", "init=sine",
                     "--set", "grids=40", "--set", "t_final=1",
                     "--out", str(out)]) == 0
    meta = read_meta(tmp_path / "state.csv.meta.csv")
    assert float(meta["norm_ratio"]) > 1e10


@pytest.mark.parametrize("uy", [1.0, -1.0])
def test_2d_lax_friedrichs_constant_reads_both_speeds(uy):
    cfg = RunConfig(problem="advection2d", ux=0.5, uy=uy,
                    flux="lax_friedrichs")
    state = driver.build_state(cfg, 8)
    flux = driver.make_flux(cfg, driver.make_problem(cfg), state.arrays()[0])
    assert flux.a == 1.1


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("method,order", [("dg", 3), ("af", 4)])
def test_2d_lax_friedrichs_has_no_jump_at_zero_speed(method, order, boundary):
    """The partials (u +- a)/2 tend to (a/2, -a/2) as u -> 0, so a
    zero-speed axis keeps its dissipation and the run moves continuously
    with the speed."""
    e_dofs = [driver.run_simulation(RunConfig(
        method=method, order=order, problem="advection2d", ux=ux, uy=1.0,
        flux="lax_friedrichs", grids=(16,), t_final=0.05,
        boundary=boundary)).errors.e_dofs for ux in (0.0, 1e-9)]
    assert e_dofs[0] == pytest.approx(e_dofs[1], rel=1e-8, abs=0.0)


def test_cli_runs_lax_friedrichs_with_a_zero_speed_axis(tmp_path):
    code = cli.main(["run", "--set", "method=dg", "--set", "ux=0",
                     "--set", "uy=1", "--set", "flux=lax_friedrichs",
                     "--set", "grids=8", "--out", str(tmp_path / "s.csv")])
    assert code == 0


@pytest.mark.parametrize("method,order", [("dg", 3), ("af", 4)])
def test_2d_run_weighs_y_with_beta_plus(method, order):
    """A 2-d alpha run builds its y flux from beta_plus, as equiv-check
    does: the right-hand side, the Dirichlet ghost sides and the recorded
    partials all read it."""
    cfg = RunConfig(method=method, order=order, problem="advection2d",
                    flux="alpha", alpha_plus=0.7, beta_plus=0.3,
                    grids=(12,), t_final=0.05)
    problem = driver.make_problem(cfg)
    state = driver.build_state(cfg, 12)
    flux = driver.make_flux(cfg, problem, state.arrays()[0])
    px = flux_spec("alpha", 0.7).advection_partials(1.0)
    py = flux_spec("alpha", 0.3).advection_partials(1.0)
    op = dg.dg_rhs_2d if method == "dg" else af.af_rhs_2d_tensorial
    got = driver.make_rhs(cfg, problem, flux)(state, 0.0)
    assert np.array_equal(got.U, op(state, 1.0, 1.0, px, py).U)

    res = driver.run_simulation(cfg)
    assert res.partials == (px, py)
    default = driver.run_simulation(dataclasses.replace(cfg, beta_plus=1.0))
    assert default.partials == (px, (1.0, 0.0))
    assert res.errors.e_dofs != default.errors.e_dofs

    dirichlet = dataclasses.replace(cfg, boundary="dirichlet")
    assert driver.ghost_sides(dirichlet, flux) == ("x_lo", "x_hi", "y_lo",
                                                   "y_hi")
    dirichlet.beta_plus = 1.0
    assert driver.ghost_sides(dirichlet, flux) == ("x_lo", "x_hi", "y_lo")
