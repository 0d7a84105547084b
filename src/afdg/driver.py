"""Experiment driver: simulations, convergence/superconvergence studies,
runtime benchmarks and the dof table, with CSV emission.

Methods are named by family and order: ``af`` of order p uses K = p - 2
(tensorial dofs in 2-d), ``dg`` of order p uses K = p - 1.  Errors are
measured against the advected exact solution, per dof family (RMS), and
``e_dofs`` is the maximum over families.  Timing wraps the integration
loop only; everything runs single-threaded and deterministic.
"""

from __future__ import annotations

import csv
import math
import numbers
import time
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.polynomial import polynomial as npp

from . import af, dg, mesh, poly, timeint
from .mesh import (AfState1D, AfState2D, DgState1D, DgState2D, Grid1D, Grid2D,
                   dof_counts)
from .problems import (FLUX_NAMES, NumericalFluxSpec, builtin_problems,
                       flux_spec, lax_friedrichs_speed)

__all__ = [
    "ConfigError", "RunConfig", "parse_config", "ErrorReport", "BenchRecord",
    "RunResult", "run_simulation", "run_convergence_study",
    "run_superconvergence_probe", "run_benchmark", "emit_dof_table", "eoc",
    "write_csv", "fmt", "dof_norm", "cell_mass",
]


def fmt(x) -> str:
    """Floats with 17 significant digits; everything else via str."""
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])


def eoc(err_coarse: float, err_fine: float) -> float:
    """Experimental order of convergence under mesh halving."""
    if err_fine <= 0 or err_coarse <= 0:
        return float("nan")
    return math.log2(err_coarse / err_fine)


# ---------------------------------------------------------------------------
# configuration


class ConfigError(ValueError):
    """A config key with a value no run can honour."""


@dataclass
class RunConfig:
    method: str = "dg"              # af | dg
    order: int = 3
    k: int | None = None            # runs: none or the order-implied K
    rk: str = "ssprk3"
    problem: str = "advection2d"
    u: float = 1.0                  # 1-d advection speed
    ux: float = 1.0
    uy: float = 1.0
    c_sound: float = 1.0
    init: str = "gauss"
    flux: str = "upwind"
    alpha_plus: float = 1.0
    beta_plus: float = 1.0
    grids: tuple = (20, 40)
    t_final: float = 0.1
    cfl_override: float | None = None
    boundary: str = "periodic"
    seed: int = 0
    tolerance: float = 1e-11
    out: str = "out.csv"

    @property
    def K(self) -> int:
        if self.k is not None:
            return self.k
        return self.order - 2 if self.method == "af" else self.order - 1

    @property
    def speeds(self) -> tuple:
        """The advection speed of each axis: (ux, uy) in 2-d, (u,) in 1-d."""
        return (self.ux, self.uy) if self.problem.endswith("2d") else (self.u,)

    def method_id(self) -> str:
        rk_order = timeint.schemes_by_name()[self.rk].order
        return f"{self.method.upper()}{self.order}{rk_order}"

    def refuse(self, key: str, why: str):
        """Raise the ``ConfigError`` that names ``key`` and its value."""
        raise ConfigError(f"config key {key!r} {why}, got "
                          f"{getattr(self, key)!r}")

    def validate(self, command: str = "run") -> None:
        """Reject a value that ``command`` reads and cannot honour, naming
        the key: the first row of ``_REFUSALS`` for ``command`` that fails."""
        for key, commands, ok, why in _REFUSALS:
            if command in commands and not ok(self):
                self.refuse(key, why(self) if callable(why) else why)


def _real(x) -> bool:
    """A finite real number (not a bool, NaN or an infinity)."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x))


def _integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _positive(x) -> bool:
    return _real(x) and x > 0


def _in_catalog(c: RunConfig) -> bool:
    """The catalog has the run's AF quadrature rule and its step size."""
    try:
        if c.method == "af":
            dg.quad_rule_for_order("af", c.order)
        default_dt(c, 1.0)
    except (KeyError, ValueError):
        return False
    return True


def _one_of(key: str, commands: tuple, choices) -> tuple:
    """The row refusing a ``key`` outside ``choices`` (or ``choices(c)``)."""
    get = choices if callable(choices) else lambda c: choices
    return (key, commands, lambda c: getattr(c, key) in get(c),
            lambda c: "must be one of " + ", ".join(get(c)))


# The commands that check a key.  ``bench`` sets method, order and k itself,
# ``equiv-check`` reads method and order only when k is none, and
# ``dof-table`` reads only ``out``, which the command line checks.
_RUNS = ("run", "convergence", "superconvergence")
_TIMED = _RUNS + ("bench",)
_EQUIV = ("equiv-check",)
_ALL = _TIMED + _EQUIV
_SUPER = ("superconvergence",)
# the rules of ``equiv-check --variant classical_midpoint``, checked after
# those of ``equiv-check`` (``equiv`` and ``af`` keep their own guards for
# callers other than the command line)
_CLASSICAL = ("classical_midpoint",)

# Every refusal of a config value, in the order a command checks them:
# (key, commands that check it, ok(config), why or why(config)).  A row
# may read the keys of the rows above it for the same command.
_REFUSALS = [
    ("method", _SUPER, lambda c: c.method == "dg",
     "must be 'dg' for the superconvergence probe"),
    ("flux", _SUPER, lambda c: c.flux == "upwind",
     "must be 'upwind' for the superconvergence probe"),
    ("grids", ("bench",), lambda c: len(c.grids) >= 3,
     "needs at least three grids for a scaling fit"),
    ("grids", _ALL,
     lambda c: bool(c.grids) and all(_integer(g) and g > 0 for g in c.grids),
     "must list positive integer cell counts"),
    *((key, _ALL, lambda c, key=key: _real(getattr(c, key)), "must be a number")
      for key in ("u", "ux", "uy", "c_sound", "alpha_plus", "beta_plus")),
    ("seed", _ALL, lambda c: _integer(c.seed) and c.seed >= 0,
     "must be a nonnegative integer"),
    ("tolerance", _ALL, lambda c: _positive(c.tolerance),
     "must be a positive number"),
    ("k", _RUNS + _EQUIV, lambda c: c.k is None or (_integer(c.k) and c.k >= 1),
     "must be none or an integer >= 1"),
    ("method", _RUNS, lambda c: c.method in ("af", "dg"),
     "must be 'af' or 'dg'"),
    ("method", _EQUIV, lambda c: c.k is not None or c.method in ("af", "dg"),
     "must be 'af' or 'dg'"),
    ("order", _RUNS, lambda c: _integer(c.order)
     and replace(c, k=None).K >= 0,
     "must be an integer giving K >= 0"),
    ("order", _EQUIV, lambda c: c.k is not None or _integer(c.order),
     "must be an integer"),
    ("k", _RUNS, lambda c: c.k in (None, replace(c, k=None).K),
     lambda c: f"must be none or {replace(c, k=None).K}, the K of method "
     f"{c.method!r} at order {c.order}"),
    _one_of("rk", _TIMED, tuple(sorted(timeint.schemes_by_name()))),
    ("t_final", _TIMED, lambda c: _positive(c.t_final),
     "must be a positive number"),
    ("cfl_override", _TIMED,
     lambda c: c.cfl_override is None or _positive(c.cfl_override),
     "must be a positive number or none"),
    # errors are measured against the advected exact solution
    _one_of("problem", _TIMED, tuple(sorted(
        p for p in builtin_problems() if p.startswith("advection")))),
    _one_of("problem", _EQUIV, tuple(sorted(builtin_problems()))),
    _one_of("boundary", _TIMED, lambda c: ("periodic", "dirichlet")
            if c.problem.endswith("2d") else ("periodic",)),
    _one_of("init", _TIMED, lambda c: tuple(
        _INIT_2D if c.problem.endswith("2d") else _INIT_1D)),
    _one_of("flux", _ALL, FLUX_NAMES),
    ("flux", _TIMED, lambda c: c.flux != "lax_friedrichs" or any(c.speeds),
     "needs a nonzero speed for its constant"),
    ("flux", _EQUIV, lambda c: c.flux != "lax_friedrichs"
     or not c.problem.startswith("advection") or all(c.speeds),
     "must not be 'lax_friedrichs' on a zero-speed axis"),
    ("order", _EQUIV, lambda c: c.k is not None or c.K >= 1,
     "must give K >= 1"),
    ("flux", _EQUIV, lambda c: c.flux == "upwind"
     or make_problem(c).is_scalar or not make_problem(c).linear,
     lambda c: f"must be 'upwind' for the system {c.problem}"),
    ("order", _RUNS, _in_catalog,
     lambda c: f"is not in the catalog of method {c.method!r} (outside it a "
     "DG run needs cfl_override)"),
    ("grids", ("convergence",), lambda c: len(c.grids) >= 2,
     "needs at least two grids for a convergence study"),
    ("grids", ("convergence",),
     lambda c: all(b == 2 * a for a, b in zip(c.grids, c.grids[1:])),
     "must refine by factors of 2"),
    *((key, _CLASSICAL, ok, f"{why} for --variant classical_midpoint")
      for key, ok, why in (
          ("problem", lambda c: c.problem.endswith("2d"), "must be 2-d"),
          ("order", lambda c: c.k is not None or c.K == 1, "must give K = 1"),
          ("k", lambda c: c.k in (None, 1), "must give K = 1"),
          ("flux", lambda c: c.flux == "upwind", "must be 'upwind'"),
          ("ux", lambda c: c.ux >= 0, "must be >= 0"),
          ("uy", lambda c: c.uy >= 0, "must be >= 0"))),
]


_BOOL = {"true": True, "false": False, "yes": True, "no": False}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "grids":
        return tuple(_parse_value("", g) for g in raw.replace(",", " ").split())
    if raw.lower() in _BOOL:
        return _BOOL[raw.lower()]
    if raw.lower() in ("none", ""):
        return None
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Flat key=value text; '#' starts a comment; later keys win."""
    cfg = RunConfig()
    keys = {f.name for f in fields(RunConfig)}
    items: dict = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"bad config line (expected key=value): {line!r}")
        key, raw = line.split("=", 1)
        items[key.strip()] = raw
    items.update(overrides or {})
    for key, raw in items.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
        value = _parse_value(key, raw) if isinstance(raw, str) else raw
        setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# initial data and exact solutions


_INIT_2D = {
    "gauss": lambda x, y: 0.8 + np.exp(-((x - 0.5) / 0.05) ** 2
                                       - ((y - 0.5) / 0.05) ** 2),
    "sine": lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
}
_INIT_1D = {
    "sine": lambda x: np.sin(2 * np.pi * x),
    "gauss": lambda x: 0.8 + np.exp(-((x - 0.5) / 0.05) ** 2),
    "const": lambda x: np.ones_like(np.asarray(x, dtype=float)),
}


def initial_condition(cfg: RunConfig):
    inits = _INIT_2D if cfg.problem.endswith("2d") else _INIT_1D
    if cfg.init not in inits:
        cfg.refuse("init", f"must be one of {', '.join(inits)}")
    return inits[cfg.init]


def exact_solution(cfg: RunConfig):
    """Translated initial data (linear advection only)."""
    q0 = initial_condition(cfg)
    if cfg.problem.endswith("2d"):
        return lambda t, x, y: q0(x - cfg.ux * t, y - cfg.uy * t)
    return lambda t, x: q0(x - cfg.u * t)


def problem_params(cfg: RunConfig) -> dict:
    """The keyword arguments of the config's problem factory."""
    if cfg.problem == "advection1d":
        return {"u": cfg.u}
    if cfg.problem == "advection2d":
        return {"ux": cfg.ux, "uy": cfg.uy}
    if cfg.problem == "acoustics2x2":
        return {"c": cfg.c_sound}
    return {}


def make_problem(cfg: RunConfig):
    return builtin_problems()[cfg.problem](**problem_params(cfg))


def make_flux(cfg: RunConfig, problem=None, state_values=None) -> NumericalFluxSpec:
    """The config's flux; Lax-Friedrichs takes its constant from the
    problem's wave speed over ``state_values``."""
    a = (lax_friedrichs_speed(problem, state_values)
         if cfg.flux == "lax_friedrichs" else 0.0)
    return flux_spec(cfg.flux, cfg.alpha_plus, a)


def axis_partials(cfg: RunConfig, flux: NumericalFluxSpec) -> tuple:
    """The flux partials (d_L, d_R) of each axis: x from ``flux``, y from
    the same flux with ``beta_plus`` in place of ``alpha_plus`` (which only
    the alpha flux reads), as in ``equiv.EquivSetting``."""
    flux_y = flux_spec(cfg.flux, cfg.beta_plus, flux.a)
    return tuple(f.advection_partials(u)
                 for f, u in zip((flux, flux_y), cfg.speeds))


# ---------------------------------------------------------------------------
# Dirichlet ghost blocks (exact-solution traces)


_SIDES = ("x_lo", "x_hi", "y_lo", "y_hi")


def _ghost_ring(state, exact, sides: tuple = _SIDES):
    """The ghost blocks of a 2-d Dirichlet run at time t, ``ring(t)``, for
    ``kron_sum_apply``: the ``sides`` the stencils read (see
    ``ghost_sides``) are projected from the exact solution at time t by one
    ``mesh.af_cell_projector_2d`` or ``dg_cell_projector_2d``, and every
    other block is zero.  With its high side, the same projection gives the
    cells of an AF state's unused slots on that axis (see ``AfState2D``),
    which its boundary point updates read: the ring returns them after the
    four ghost blocks, (x_slot, y_slot), None where not projected.

    The ring's cells (the ``sides`` in order: columns -1 and nx, rows -1
    and ny, each high side of an AF state followed by its slots, the last
    column or row), projector, block offsets and zero blocks are bound here
    to ``state``'s family, grid and shape; the state itself is neither kept
    nor written.  The blocks of the last two stage times projected stay,
    read-only, and a call at one of those float times reuses them: SSPRK3's
    c = 1 stage is the next step's c = 0 stage, two calls later, so a run
    projects 1 + 2 steps times, not 3 steps.
    """
    g = state.grid
    nx, m, ny, _ = state.U.shape
    rows, cols = np.arange(nx), np.arange(ny)
    cells = {"x_lo": (np.full(ny, -1), cols),
             "x_hi": (np.full(ny, nx), cols),
             "y_lo": (rows, np.full(nx, -1)),
             "y_hi": (rows, np.full(nx, ny)),
             "x_slot": (np.full(ny, nx - 1), cols),
             "y_slot": (rows, np.full(nx, ny - 1))}
    af_state = isinstance(state, AfState2D)
    names = []
    for side in sides:
        names.append(side)
        if af_state and side.endswith("_hi"):
            names.append(side[0] + "_slot")
    i = np.concatenate([cells[n][0] for n in names] or [[]])
    j = np.concatenate([cells[n][1] for n in names] or [[]])
    projector = (mesh.af_cell_projector_2d if af_state
                 else mesh.dg_cell_projector_2d)
    project = projector(state.K, g.x_min + i * g.dx, g.y_min + j * g.dy,
                        g.dx, g.dy)
    offsets = np.cumsum([len(cells[n][0]) for n in names])[:-1]
    zero = {"x": poly.frozen(np.zeros((ny, m, m))),
            "y": poly.frozen(np.zeros((nx, m, m)))}
    kept = {}

    def ring(t: float) -> tuple:
        got = kept.get(t)
        if got is None:
            blocks = poly.frozen(project(lambda x, y: exact(t, x, y)))
            got = dict(zip(names, np.split(blocks, offsets)))
            if len(kept) == 2:
                del kept[next(iter(kept))]
            kept[t] = got
        return (*(got.get(side, zero[side[0]]) for side in _SIDES),
                got.get("x_slot"), got.get("y_slot"))
    return ring


def ghost_sides(cfg: RunConfig, flux: NumericalFluxSpec) -> tuple:
    """The Dirichlet ghost sides the 2-d stencils read: along each axis,
    the low side if its flux partial d_L != 0 and the high side if
    d_R != 0 (the stencil's L block carries the factor d_L, its R block
    d_R; see ``axis_partials``); none for a periodic or 1-d run."""
    if cfg.boundary != "dirichlet" or not cfg.problem.endswith("2d"):
        return ()
    return tuple(f"{axis}_{side}"
                 for axis, partials in zip("xy", axis_partials(cfg, flux))
                 for side, d in zip(("lo", "hi"), partials) if d != 0)


# ---------------------------------------------------------------------------
# state construction and rhs assembly per method


def build_state(cfg: RunConfig, n: int):
    """Initial state; AF moments are integrated with the catalog rule of
    the selected order (matching the solver's integration order), DG uses
    the plain high-accuracy projection."""
    if not cfg.problem.endswith("2d") and cfg.boundary != "periodic":
        raise ValueError("1-d runs are periodic")
    rule = dg.quad_rule_for_order("af", cfg.order) if cfg.method == "af" else None
    return _fill(cfg, n, initial_condition(cfg), rule)


def _fill(cfg: RunConfig, n: int, f, rule=None):
    """The method's state of f on the unit square or interval, n cells per
    axis; ``rule`` integrates the AF moments (default: the fill rule)."""
    if cfg.problem.endswith("2d"):
        grid = Grid2D.square(n)
        if cfg.method == "dg":
            return mesh.fill_dg_2d(grid, cfg.K, f)
        return mesh.fill_af_2d(grid, cfg.K, f, cfg.boundary == "periodic",
                               rule)
    if cfg.method == "dg":
        return mesh.fill_dg_1d(Grid1D(0.0, 1.0, n), cfg.K, f)
    return mesh.fill_af_1d(Grid1D(0.0, 1.0, n), cfg.K, f, rule=rule)


def make_rhs(cfg: RunConfig, problem, flux: NumericalFluxSpec):
    """rhs(state, t) -> state-shaped derivative, honoring the boundary mode.

    A 2-d rhs binds its apply, the ``mesh.kron_sum_applier`` of its two
    axis stencils (``mesh.axis_stencils``), on its first call, to the
    state's K, grid and tensor, and again when a state of another K or
    grid arrives.  A Dirichlet rhs builds its ``_ghost_ring`` in the same
    place, so a new grid gets a new ring, and calls it with the stage time
    alone."""
    if cfg.problem.endswith("2d"):
        args = (cfg.ux, cfg.uy, *axis_partials(cfg, flux))
        rhs, blocks = ((dg.dg_rhs_2d, dg.dg_stencil_1d) if cfg.method == "dg"
                       else (af.af_rhs_2d_tensorial, af.af_stencil_1d))
        exact = (exact_solution(cfg) if cfg.boundary == "dirichlet"
                 else None)
        sides = ghost_sides(cfg, flux)
        bound = apply = ring = None

        def rhs_2d(state, t):
            nonlocal bound, apply, ring
            if bound != (state.grid, state.K):
                bound = (state.grid, state.K)
                apply = mesh.kron_sum_applier(state.U, *mesh.axis_stencils(
                    blocks(state.K), state.grid, *args))
                if exact is not None:
                    ring = _ghost_ring(state, exact, sides)
            return rhs(state, *args, None if ring is None else ring(t), apply)
        return rhs_2d

    rhs = dg.dg_rhs_1d if cfg.method == "dg" else af.af_rhs_1d
    return lambda state, t: rhs(state, problem, flux)


# ---------------------------------------------------------------------------
# error measurement


@dataclass
class ErrorReport:
    families: dict
    e_dofs: float

    @classmethod
    def from_states(cls, state, exact_state) -> "ErrorReport":
        diff = state.with_tensor(state.U - exact_state.U)
        # the fields are views of the state tensor: sum in their own order
        fams = {name: float(np.sqrt(np.mean(np.ravel(d) ** 2)))
                for name, d in _families(diff)}
        return cls(families=fams, e_dofs=max(fams.values()))


def _families(state):
    if isinstance(state, (DgState1D, DgState2D)):
        yield "modal", state.coeffs
    elif isinstance(state, AfState1D):
        yield "point_values", state.point_values
        yield "moments", state.moments
    elif isinstance(state, AfState2D):
        yield "node_values", state.node_values
        yield "x_edge", state.x_edge
        yield "y_edge", state.y_edge
        yield "moments", state.cell_moments
    else:
        raise TypeError(type(state).__name__)


def dof_norm(state) -> float:
    """The L2 norm of all dof fields of a state."""
    return math.sqrt(sum(float(np.sum(d * d)) for _, d in _families(state)))


def cell_mass(state) -> float:
    """Sum of cell average times cell volume: DG mode 0, AF moment 0."""
    fams = dict(_families(state))
    c = fams.get("modal", fams.get("moments"))
    g = state.grid
    if isinstance(state, (DgState2D, AfState2D)):
        return float(np.sum(c[:, :, 0, 0])) * g.dx * g.dy
    return float(np.sum(c[:, 0])) * g.dx


def exact_state_at(cfg: RunConfig, n: int, t: float):
    exact = exact_solution(cfg)
    return _fill(cfg, n, lambda *x: exact(t, *x))


# ---------------------------------------------------------------------------
# experiments


@dataclass
class BenchRecord:
    method: str
    n_cells: int
    n_dofs: int
    tau: float
    steps: int
    e_dofs: float

    @property
    def tau_per_step(self) -> float:
        return self.tau / self.steps

    @property
    def metric(self) -> float:
        return self.n_dofs * self.e_dofs * self.tau

    def row(self):
        return (self.method, self.n_cells, self.n_dofs, self.tau,
                self.tau_per_step, self.steps, self.e_dofs, self.metric)


BENCH_HEADER = ["method", "n_cells", "n_dofs", "tau", "tau_per_step",
                "steps", "e_dofs", "metric"]


@dataclass
class RunResult:
    state: object
    errors: ErrorReport
    bench: BenchRecord
    ghost_sides: tuple = ()         # the Dirichlet sides projected per stage
    partials: tuple = ()            # the flux partials (d_L, d_R) of each axis
    dt: float = math.nan            # the nominal step size
    norm0: float = math.nan         # dof_norm of the initial state
    mass0: float = math.nan         # cell_mass of the initial state


def default_dt(cfg: RunConfig, dx: float) -> float:
    """CFL-coupled step size.

    2-d tensorial AF shares its spectrum with the DG method one degree
    lower (they are the same method up to a dof mapping), so its step
    limit is the DG catalog value at order K+1; the larger catalog CFL of
    the AF column belongs to the reduced-dof variant we do not evolve.
    """
    if cfg.method == "af" and cfg.problem.endswith("2d"):
        return timeint.dt_from_cfl("dg", cfg.K + 1, dx, cfg.cfl_override)
    return timeint.dt_from_cfl(cfg.method, cfg.order, dx, cfg.cfl_override)


def run_simulation(cfg: RunConfig, n: int | None = None) -> RunResult:
    """Integrate one grid to t_final; timing excludes setup and errors."""
    cfg.validate("run")
    n = n or cfg.grids[0]
    problem = make_problem(cfg)
    state0 = build_state(cfg, n)
    flux = make_flux(cfg, problem, state0.U)
    rhs = make_rhs(cfg, problem, flux)
    scheme = timeint.schemes_by_name()[cfg.rk]
    dx = state0.grid.dx
    dt = default_dt(cfg, dx)
    steps = int(np.ceil(cfg.t_final / dt - 1e-12))
    if steps < 1:
        cfg.refuse("t_final", f"must give at least one time step of {dt:.3g}")

    t0 = time.perf_counter()
    final = timeint.integrate(state0.copy(), rhs, scheme, dt, cfg.t_final)
    tau = time.perf_counter() - t0

    exact_state = exact_state_at(cfg, n, cfg.t_final)
    errors = ErrorReport.from_states(final, exact_state)
    n_cells = n ** 2 if cfg.problem.endswith("2d") else n
    bench = BenchRecord(method=cfg.method_id(), n_cells=n_cells,
                        n_dofs=dof_counts(cfg.method, cfg.order).n_dofs,
                        tau=tau, steps=steps, e_dofs=errors.e_dofs)
    return RunResult(final, errors, bench, ghost_sides(cfg, flux),
                     axis_partials(cfg, flux), dt, dof_norm(state0),
                     cell_mass(state0))


def run_convergence_study(cfg: RunConfig):
    """Rows (method, dx, e_dofs, eoc) over the config's grid list."""
    cfg.validate("convergence")
    errors = [run_simulation(cfg, n).errors.e_dofs for n in cfg.grids]
    return _eoc_rows(cfg.method_id(), cfg.grids, errors)


def _eoc_rows(label: str, grids, errors: list) -> list:
    """Rows (label, dx, error, eoc) of an error series over ``grids``."""
    rates = [float("nan")] + [eoc(a, b) for a, b in zip(errors, errors[1:])]
    return [(label, 1.0 / n, e, r) for n, e, r in zip(grids, errors, rates)]


def _dg_sample_errors_1d(state: DgState1D, exact, t, points) -> float:
    vals = np.einsum("inc,nq->iqc", state.coeffs,
                     npp.polyval(points, dg.phi_table(state.K, 0).T))[:, :, 0]
    xs = state.grid.centers()[:, None] + state.grid.dx * points[None, :]
    return float(np.sqrt(np.mean((vals - exact(t, xs)) ** 2)))


def run_superconvergence_probe(cfg: RunConfig):
    """DG error sampled at Radau/uniform/average (1-d) or crossing points
    (2-d); rows (point_set, dx, error, eoc)."""
    cfg.validate("superconvergence")
    exact = exact_solution(cfg)
    if not cfg.problem.endswith("2d"):
        radau = poly.radau_points(cfg.K, "left" if cfg.u > 0 else "right")
        uniform = np.array([-3 / 8, -1 / 8, 1 / 8, 3 / 8])
        errs = {"radau_points": [], "uniform_points": [], "cell_averages": []}
        for n in cfg.grids:
            res = run_simulation(cfg, n)
            state = res.state
            errs["radau_points"].append(
                _dg_sample_errors_1d(state, exact, cfg.t_final, radau))
            errs["uniform_points"].append(
                _dg_sample_errors_1d(state, exact, cfg.t_final, uniform))
            exact_state = exact_state_at(cfg, n, cfg.t_final)
            errs["cell_averages"].append(float(np.sqrt(np.mean(
                (state.coeffs[:, 0, :] - exact_state.coeffs[:, 0, :]) ** 2))))
    else:
        cross_x = poly.radau_points(cfg.K, "left" if cfg.ux > 0 else "right")
        cross_y = poly.radau_points(cfg.K, "left" if cfg.uy > 0 else "right")
        px = npp.polyval(cross_x, dg.phi_table(cfg.K, 0).T)
        py = npp.polyval(cross_y, dg.phi_table(cfg.K, 0).T)
        errs = {"crossing_points": []}
        for n in cfg.grids:
            state = run_simulation(cfg, n).state
            vals = np.einsum("ijmn,ma,nb->ijab", state.coeffs, px, py)
            g = state.grid
            xs = (g.gx.centers()[:, None] + g.dx * cross_x)[:, None, :, None]
            ys = (g.gy.centers()[:, None] + g.dy * cross_y)[None, :, None, :]
            errs["crossing_points"].append(float(np.sqrt(np.mean(
                (vals - exact(cfg.t_final, xs, ys)) ** 2))))
    return [row for name, es in errs.items()
            for row in _eoc_rows(name, cfg.grids, es)]


def run_benchmark(cfg: RunConfig, methods=None, min_time: float = 0.05,
                  max_repeats: int = 50):
    """BenchRecords over the grid list plus fitted log-log slopes.

    Each configuration gets one discarded warm-up run, then repeats until
    the accumulated time passes ``min_time`` (timer-resolution guard);
    tau is the mean over repeats.  Comparisons only ever pair identical
    RK schemes and grids.
    """
    cfg.validate("bench")
    methods = methods or [("af", 3), ("dg", 3)]
    records = []
    slopes = []
    for family, order in methods:
        mcfg = replace(cfg, method=family, order=order, k=None)
        taus = []
        for n in cfg.grids:
            run_simulation(mcfg, n)                       # warm-up, discarded
            reps = []
            t_acc = 0.0
            while t_acc < min_time and len(reps) < max_repeats:
                res = run_simulation(mcfg, n)
                reps.append(res)
                t_acc += res.bench.tau
            tau = float(np.mean([r.bench.tau for r in reps]))
            rec = replace(reps[-1].bench, tau=tau)
            records.append(rec)
            taus.append((rec.n_cells, tau))
        xs = np.log([t[0] for t in taus])
        ys = np.log([t[1] for t in taus])
        slope = float(np.polyfit(xs, ys, 1)[0])
        slopes.append((mcfg.method_id(), slope))
    return records, slopes


def emit_dof_table():
    """Rows for AF orders 3-7 and DG orders 2-6, catalog columns included."""
    rows = []
    for order in range(3, 8):
        c = dof_counts("af", order)
        rows.append(("af", order, c.n_dofs, c.n_tdofs, c.n_mom, c.n_edge,
                     c.n_node, mesh.AF_N_INT[order], mesh.AF_CFL[order]))
    for order in range(2, 7):
        c = dof_counts("dg", order)
        rows.append(("dg", order, c.n_dofs, c.n_tdofs, c.n_mom, "-", "-",
                     mesh.DG_N_INT[order], mesh.DG_CFL[order]))
    return rows
