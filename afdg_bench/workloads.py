"""The benchmark's workloads.

Each workload builds its cases and runs one fixed job through the public
``afdg.driver`` / ``afdg.equiv`` API, split into segments that the benchmark
times one by one, and checks every output.  A job yields one ``Outcome`` per
operation; an operation fails when it raises, returns a non-finite value or
returns a wrong one.

* ``periodic_2d`` - the 2-d right-hand sides do the work: AF43 and DG33
  (same K = 2, 9 stored values per cell, same CFL step) on 40^2, where
  per-call overhead dominates, and on 160^2.  Speeds of mixed sign run both
  upwind branches.  No ghost fill.
* ``dirichlet_study`` - the criterion-6 convergence study, where the
  Dirichlet ghost ring re-projected every RK stage takes most of the time.
* ``equiv_sweep`` - the acceptance suite's equivalence traffic: one call of
  each operator on a small random state per setting, no time loop, so
  per-call set-up shows here.  The seed drives the random states.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Outcome:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0        # time of the timed operator work
    rhs_calls: int = 0          # operator applications in ``seconds``
    values: int = 0             # stored state values per application
    size: str | None = None     # "large" / "small": which ns-per-dof metric
    family: str | None = None   # equivalence family, for the gap gauge
    measured: float = 0.0       # e_dofs, or the worst gap or residual checked
    scale: float = 1.0          # calibration factor of its segment


def _failure(name: str, exc: Exception) -> Outcome:
    return Outcome(name, False, f"{type(exc).__name__}: {exc}")


def _close(got: float, want: float, rel: float = 1e-9) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------------------
# simulations: periodic_2d and dirichlet_study


# e_dofs of each case at the seed commit (repr of the float); a change
# beyond 1e-9 relative is a method change, not roundoff reordering
E_DOFS = {
    "periodic": {
        "AF43@40": 3.8894697636161585e-05,
        "DG33@40": 0.00011936839915636494,
        "AF43@160": 3.795864393147273e-07,
        "DG33@160": 1.8250426800801618e-06,
    },
    "dirichlet": {
        "AF33@20": 0.014035088064016743,
        "AF33@40": 0.002636353825962173,
        "AF44@20": 0.0003181377015789218,
        "AF44@40": 3.217437987115581e-05,
        "DG33@20": 0.0011231913319793034,
        "DG33@40": 0.00012320598389961736,
        "DG43@20": 0.00010659087950646707,
        "DG43@40": 8.494028644177152e-06,
    },
}

# coarse-pair EOCs of the study at the seed commit, to the 4 printed digits.
# AF44 reproduces 3.3057 here, outside the criterion-6 band [3.4, 4.1]; the
# benchmark checks that the value reproduces, not the band.
EOC = {"AF33": "2.4124", "AF44": "3.3057", "DG33": "3.1885", "DG43": "3.6495"}


@dataclass(frozen=True)
class SimCase:
    key: str
    method: str
    order: int
    rk: str
    n: int
    t_final: float
    boundary: str
    ux: float
    uy: float
    size: str | None

    def config(self, driver):
        return driver.RunConfig(
            method=self.method, order=self.order, rk=self.rk,
            problem="advection2d", ux=self.ux, uy=self.uy, init="gauss",
            flux="upwind", grids=(self.n,), t_final=self.t_final,
            boundary=self.boundary)


class Workload:
    """A job split into segments; the benchmark times each segment."""

    why = ""
    # (large-array contractions, small-array operations) of the calibration
    # bracketing each segment; both kinds take about 35 ms on a quiet machine
    calibration = (3, 1000)

    def construct(self, afdg, seed: int):
        """The set-up work: what the job builds before its first step."""

    def segments(self, afdg, seed: int) -> list:
        """The job as a list of calls, each returning its outcomes."""
        raise NotImplementedError

    def finish(self, afdg, outcomes: list) -> list:
        """Checks made on the whole job's outcomes."""
        return []


class Simulations(Workload):
    """A fixed list of ``driver.run_simulation`` cases."""

    cases: tuple = ()

    def construct(self, afdg, seed: int) -> list:
        """Problem, initial state, numerical flux and RHS of every case."""
        driver = afdg.driver
        built = []
        for c in self.cases:
            cfg = c.config(driver)
            problem = driver.make_problem(cfg)
            state = driver.build_state(cfg, c.n)
            flux = driver.make_flux(cfg, problem, state.arrays()[0])
            built.append((state, driver.make_rhs(cfg, problem, flux)))
        return built

    def run_case(self, afdg, c: SimCase) -> Outcome:
        driver = afdg.driver
        cfg = c.config(driver)
        try:
            res = driver.run_simulation(cfg, c.n)
            stages = afdg.timeint.schemes_by_name()[c.rk].stages
        except Exception as exc:   # counted as a failed operation
            return _failure(c.key, exc)
        e = res.errors.e_dofs
        ok = _close(e, E_DOFS[c.boundary][c.key])
        return Outcome(c.key, ok, f"e_dofs {e!r}", seconds=res.bench.tau,
                       rhs_calls=res.bench.steps * stages,
                       values=sum(a.size for a in res.state.arrays()),
                       size=c.size, measured=e)

    def segments(self, afdg, seed: int) -> list:
        return [lambda c=c: [self.run_case(afdg, c)] for c in self.cases]


class Periodic2D(Simulations):
    why = ("periodic AF43 and DG33 on 40^2 and 160^2 with mixed-sign speeds: "
           "the 2-d right-hand sides do the work, 40^2 is the "
           "per-call-overhead regime, no ghost fill")
    cases = (
        SimCase("AF43@40", "af", 4, "ssprk3", 40, 0.1, "periodic", 1.0, -0.5,
                "small"),
        SimCase("DG33@40", "dg", 3, "ssprk3", 40, 0.1, "periodic", 1.0, -0.5,
                "small"),
        SimCase("AF43@160", "af", 4, "ssprk3", 160, 0.01, "periodic", 1.0,
                -0.5, "large"),
        SimCase("DG33@160", "dg", 3, "ssprk3", 160, 0.01, "periodic", 1.0,
                -0.5, "large"),
    )


def _study(key, method, order, rk):
    return (SimCase(f"{key}@20", method, order, rk, 20, 0.1, "dirichlet",
                    1.0, 1.0, "small"),
            SimCase(f"{key}@40", method, order, rk, 40, 0.1, "dirichlet",
                    1.0, 1.0, "large"))


class DirichletStudy(Simulations):
    why = ("criterion-6 Dirichlet study, 20^2 to 40^2, for AF33, AF44, DG33 "
           "and DG43: the ghost ring re-projected every RK stage takes most of "
           "the time")
    methods = (("AF33", "af", 3, "ssprk3"), ("AF44", "af", 4, "ssprk54"),
               ("DG33", "dg", 3, "ssprk3"), ("DG43", "dg", 4, "ssprk3"))
    cases = tuple(c for m in methods for c in _study(*m))

    def finish(self, afdg, outcomes: list) -> list:
        """The coarse-pair EOC of each method, as the study computes it."""
        by_key = {o.name: o for o in outcomes}
        out = []
        for key, *_ in self.methods:
            coarse, fine = by_key[f"{key}@20"], by_key[f"{key}@40"]
            rate = afdg.driver.eoc(coarse.measured, fine.measured)
            ok = coarse.ok and fine.ok and f"{rate:.4f}" == EOC[key]
            out.append(Outcome(f"{key} eoc", ok, f"eoc {rate:.4f}"))
        return out


# ---------------------------------------------------------------------------
# equiv_sweep


ROUNDS = 40          # seeds per job; each round runs every setting below
ROUNDS_PER_SEGMENT = 5
N_1D, N_2D = 64, 16  # the acceptance suite's sizes
SPEEDS_2D = (1.0, -0.5)
TOL_LINEAR, TOL_NONLINEAR, TOL_LEMMA = 1e-11, 1e-10, 1e-12
MIDPOINT_MIN_GAP, SIGN_FLIP_MIN_GAP = 1e-3, 1e-1


def _settings(equiv, seed: int) -> list:
    """(family, setting) pairs of one round; ``seed`` drives the states."""
    S = equiv.EquivSetting
    out = []
    for K in (1, 2, 3, 4):
        for flux, ap in (("upwind", 1.0), ("central", 0.5), ("alpha", 0.7)):
            out.append(("linear1d", S(
                dimension=1, K=K, n_cells=N_1D, seed=seed, flux=flux,
                alpha_plus=ap, problem="advection1d",
                problem_params={"u": 1.0}, tolerance=TOL_LINEAR)))
    for prob in ("burgers", "expflux"):
        for K in (1, 2):
            out.append(("nonlinear1d", S(
                dimension=1, K=K, n_cells=N_1D, seed=seed,
                flux="lax_friedrichs", problem=prob,
                tolerance=TOL_NONLINEAR)))
    ux, uy = SPEEDS_2D
    for K in (1, 2, 3):
        for flux, a, b in (("upwind", 1.0, 1.0), ("alpha", 0.8, 0.6)):
            out.append(("tensorial2d", S(
                dimension=2, K=K, n_cells=N_2D, seed=seed, flux=flux,
                alpha_plus=a, beta_plus=b, problem="advection2d",
                problem_params={"ux": ux, "uy": uy}, tolerance=TOL_LINEAR)))
    # the midpoint variant is defined for nonnegative speeds only
    out.append(("midpoint_control", S(
        dimension=2, K=1, n_cells=N_2D, seed=seed, flux="upwind",
        problem="advection2d", problem_params={"ux": 1.0, "uy": 1.0},
        variant="classical_midpoint", tolerance=TOL_LINEAR)))
    out.append(("sign_flip_control", S(
        dimension=1, K=1, n_cells=N_1D, seed=seed, flux="lax_friedrichs",
        problem="burgers", tolerance=TOL_NONLINEAR, flip_point_sign=True)))
    return out


def _values(setting) -> int:
    """Stored values of the setting's DG state (and of the mapped AF state)."""
    per_cell = (setting.K + 1) ** setting.dimension
    return setting.n_cells ** setting.dimension * per_cell


class EquivSweep(Workload):
    why = ("the equivalence verifier over the acceptance-suite settings at 40 "
           "seeds per job: one operator call per small random state, no time "
           "loop")
    calibration = (0, 3500)   # Python- and small-array-bound, like the sweep

    def rounds(self, afdg, seed: int) -> list:
        """Per round: its settings and the random state of its lemma check."""
        rng = np.random.default_rng(seed)
        out = []
        for s in rng.integers(0, 2**31, ROUNDS):
            s = int(s)
            state = afdg.mesh.DgState2D(
                afdg.mesh.Grid2D.square(N_2D), 1,
                np.random.default_rng(s).uniform(-1, 1, (N_2D, N_2D, 2, 2)))
            out.append((_settings(afdg.equiv, s), state))
        return out

    def construct(self, afdg, seed: int) -> list:
        return self.rounds(afdg, seed)

    def segments(self, afdg, seed: int) -> list:
        rounds = self.rounds(afdg, seed)
        return [lambda part=rounds[i:i + ROUNDS_PER_SEGMENT]:
                [o for settings, state in part
                 for o in self.run_round(afdg, settings, state)]
                for i in range(0, ROUNDS, ROUNDS_PER_SEGMENT)]

    def run_round(self, afdg, settings, state) -> list:
        equiv = afdg.equiv
        NFS = afdg.problems.NumericalFluxSpec
        out = []
        for family, s in settings:
            name = f"{family} K={s.K} {s.flux} seed={s.seed}"
            t0 = time.perf_counter()
            try:
                rep = equiv.verify_equivalence(s)
            except Exception as exc:   # counted as a failed operation
                out.append(_failure(name, exc))
                continue
            dt = time.perf_counter() - t0
            gaps = {f.family: f.relative for f in rep.families}
            worst = max(gaps.values())
            if family == "midpoint_control":
                ok = worst >= MIDPOINT_MIN_GAP
            elif family == "sign_flip_control":
                ok = gaps["point_values"] >= SIGN_FLIP_MIN_GAP
            else:
                ok = rep.passed and math.isfinite(worst)
            size = {"tensorial2d": "large", "linear1d": "small"}.get(family)
            out.append(Outcome(name, ok, f"worst gap {worst:.3e}",
                               seconds=dt, rhs_calls=2, values=_values(s),
                               size=size, family=family, measured=worst))
        name = f"lemma K=1 seed={settings[0][1].seed}"
        try:
            res = equiv.lemma_checks(state, *SPEEDS_2D, NFS.alpha(0.8, 0.2),
                                     NFS.alpha(0.6, 0.4))
        except Exception as exc:   # counted as a failed operation
            return out + [_failure(name, exc)]
        worst = max(res.values())
        out.append(Outcome(name, worst <= TOL_LEMMA,
                           f"worst residual {worst:.3e}", family="lemma",
                           measured=worst))
        return out


def nonlinear_gap_growth(equiv) -> float:
    """Log-log slope of the 1-d nonlinear equivalence gap under refinement.

    Burgers with Lax-Friedrichs, K = 2, seed 7: the gap grows about like
    n^2 (3.5e-13 at 64 cells, 8.9e-11 at 1024).  The cause is unverified;
    this gauge reports the growth and gates nothing.
    """
    ns = (128, 256, 512, 1024)
    gaps = []
    for n in ns:
        rep = equiv.verify_equivalence(equiv.EquivSetting(
            dimension=1, K=2, n_cells=n, seed=7, flux="lax_friedrichs",
            problem="burgers", tolerance=TOL_NONLINEAR))
        gaps.append(max(f.relative for f in rep.families))
    return float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])


WORKLOADS = {
    "periodic_2d": Periodic2D(),
    "dirichlet_study": DirichletStudy(),
    "equiv_sweep": EquivSweep(),
}
