"""SSP Runge-Kutta schemes and the CFL step size of a run."""

import math

import numpy as np
import pytest

from afdg import dg, driver, mesh, timeint
from afdg.mesh import Grid1D
from afdg.problems import NumericalFluxSpec, advection1d


class ScalarState:
    """Minimal state wrapper so the integrator can drive plain ODEs: its
    tensor U is the solution vector y."""

    def __init__(self, y):
        self.U = np.atleast_1d(np.asarray(y, dtype=float))

    y = property(lambda self: self.U)

    def with_tensor(self, U):
        return ScalarState(U)

    def copy(self):
        return ScalarState(self.U.copy())


def test_rk_step_zero_dt_is_identity():
    # identity up to roundoff of the convex-combination weights
    state = ScalarState([1.23])
    for scheme in (timeint.SSPRK3, timeint.SSPRK54):
        out = timeint.rk_step(scheme, lambda s, t: ScalarState(s.y ** 2),
                              state, 0.0)
        assert out.y[0] == pytest.approx(1.23, abs=2e-15)


def test_ssprk3_amplification_polynomial():
    # hand expansion of the three-stage recursion for y' = lambda y
    amp = timeint.SSPRK3.amplification_coefficients()
    assert np.allclose(amp, [1.0, 1.0, 0.5, 1.0 / 6.0], atol=1e-14)


def test_ssprk54_amplification_matches_taylor():
    amp = timeint.SSPRK54.amplification_coefficients()
    for k in range(5):
        assert amp[k] == pytest.approx(1.0 / math.factorial(k), abs=1e-14)


def test_ssprk54_final_stage_time_is_one():
    assert timeint.SSPRK54.c[-1] == pytest.approx(1.0, abs=1e-12)
    assert timeint.SSPRK3.c[-1] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("scheme,order", [(timeint.SSPRK3, 3),
                                          (timeint.SSPRK54, 4)])
def test_order_by_step_halving_on_nonlinear_ode(scheme, order):
    # y' = y^2, y(0) = 0.5, exact y(t) = 1/(2 - t)
    def rhs(s, t):
        return ScalarState(s.y ** 2)

    errors = []
    for n in (20, 40, 80):
        dt = 1.0 / n
        s = ScalarState([0.5])
        for _ in range(n):
            s = timeint.rk_step(scheme, rhs, s, dt)
        errors.append(abs(s.y[0] - 1.0))
    slopes = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for slope in slopes:
        assert slope == pytest.approx(order, abs=0.1)


def test_integrate_clips_final_step():
    rhs = lambda s, t: ScalarState(np.ones_like(s.y))
    out = timeint.integrate(ScalarState([0.0]), rhs, timeint.SSPRK3,
                            dt=0.3, t_final=1.0)
    assert out.y[0] == pytest.approx(1.0, abs=1e-14)


def test_integrate_detects_blowup():
    rhs = lambda s, t: ScalarState(s.y ** 2)
    with pytest.raises(timeint.UnstableRunError), \
            np.errstate(over="ignore", invalid="ignore"):
        timeint.integrate(ScalarState([1.0]), rhs, timeint.SSPRK3,
                          dt=0.5, t_final=60.0)


# ---------------------------------------------------------------------------
# the dt from the CFL catalog, ``driver.default_dt``


def run_1d(method, order, **settings):
    return driver.RunConfig(method=method, order=order,
                            problem="advection1d", **settings)


def test_dt_from_cfl_af3():
    assert driver.default_dt(run_1d("af", 3), 0.0125) == \
        pytest.approx(0.003375)


def test_dt_from_cfl_dg4():
    assert driver.default_dt(run_1d("dg", 4), 0.0125) == \
        pytest.approx(0.000625)


def test_dt_from_cfl_override():
    assert driver.default_dt(run_1d("dg", 4, cfl_override=0.1), 0.0125) == \
        pytest.approx(0.00125)


def test_dt_from_cfl_unknown_method():
    with pytest.raises(ValueError):
        driver.default_dt(run_1d("af", 9), 0.1)


def test_linear_stability_sanity_dg_k1():
    # upwind DG, K=1, catalog CFL: bounded over 10/dx steps on random data
    rng = np.random.default_rng(123)
    grid = Grid1D(0.0, 1.0, 32)
    state = mesh.DgState1D(grid, 1, rng.uniform(-1, 1, (32, 2, 1)))
    prob = advection1d(u=1.0)
    flux = NumericalFluxSpec.upwind()
    dt = driver.default_dt(run_1d("dg", 2), grid.dx)
    init_max = np.max(np.abs(state.coeffs))
    s = state
    for _ in range(int(10 / grid.dx)):
        s = timeint.rk_step(timeint.SSPRK3,
                            lambda st, t: dg.dg_rhs_1d(st, prob, flux), s, dt)
    assert np.max(np.abs(s.coeffs)) <= 2.0 * init_max


# ---------------------------------------------------------------------------
# one RHS evaluation per stage


def reference_rk_step(scheme, rhs, state, dt: float, t: float = 0.0):
    """One step of the tableau; at most ``stages`` intermediate states."""
    stages = [state]
    for s in range(scheme.stages):
        (idx0, w0), *rest = scheme.combo[s]
        U = w0 * stages[idx0].U
        for idx, w in rest:
            U += w * stages[idx].U
        for idx, w in scheme.rhs_w[s]:
            deriv = rhs(stages[idx], t + scheme.c[idx] * dt)
            U += (dt * w) * deriv.U
        stages.append(state.with_tensor(U))
    return stages[-1]


@pytest.mark.parametrize("scheme,calls", [(timeint.SSPRK3, 3),
                                          (timeint.SSPRK54, 5)])
def test_rk_step_evaluates_each_stage_once(scheme, calls):
    times = []

    def rhs(s, t):
        times.append(t)
        return ScalarState(-s.y)

    timeint.rk_step(scheme, rhs, ScalarState([1.0]), 0.1, 2.0)
    assert len(times) == calls
    assert times == [2.0 + 0.1 * c for c in scheme.c[:calls]]


@pytest.mark.parametrize("method,order,rk", [("af", 4, "ssprk54"),
                                             ("dg", 3, "ssprk54"),
                                             ("dg", 4, "ssprk3")])
def test_rk_step_equals_the_reference_bit_for_bit(method, order, rk):
    cfg = driver.RunConfig(method=method, order=order, rk=rk,
                           problem="advection2d", ux=1.0, uy=-0.5,
                           init="sine", boundary="dirichlet")
    state = driver.build_state(cfg, 8)
    problem = driver.make_problem(cfg)
    rhs = driver.make_rhs(cfg, problem,
                          driver.make_flux(cfg, problem, state.arrays()[0]))
    scheme = timeint.schemes_by_name()[rk]
    got, want = state.copy(), state.copy()
    for step in range(3):
        got = timeint.rk_step(scheme, rhs, got, 0.01, 0.01 * step)
        want = reference_rk_step(scheme, rhs, want, 0.01, 0.01 * step)
    assert np.array_equal(got.U, want.U)
    assert not np.array_equal(got.U, state.U)
