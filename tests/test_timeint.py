"""SSP Runge-Kutta schemes and the CFL step size of a run."""

import math
import tracemalloc

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


def bound_run(method, order, rk, boundary="dirichlet", n=8):
    """A 2-d state, its bound rhs and the scheme of one run."""
    cfg = driver.RunConfig(method=method, order=order, rk=rk,
                           problem="advection2d", ux=1.0, uy=-0.5,
                           init="sine", boundary=boundary)
    state = driver.build_state(cfg, n)
    problem = driver.make_problem(cfg)
    rhs = driver.make_rhs(cfg, problem,
                          driver.make_flux(cfg, problem, state.arrays()[0]))
    return state, rhs, timeint.schemes_by_name()[rk]


def assert_steps_are_the_reference(scheme, rhs, state, dt=0.01):
    got, want = state.copy(), state.copy()
    for step in range(3):
        got = timeint.rk_step(scheme, rhs, got, dt, dt * step)
        want = reference_rk_step(scheme, rhs, want, dt, dt * step)
    assert got.U.tobytes() == want.U.tobytes()
    assert not np.array_equal(got.U, state.U)


@pytest.mark.parametrize("method,order,rk", [("af", 4, "ssprk54"),
                                             ("dg", 3, "ssprk54"),
                                             ("dg", 4, "ssprk3")])
def test_rk_step_equals_the_reference_bit_for_bit(method, order, rk):
    assert_steps_are_the_reference(*reversed(bound_run(method, order, rk)))


def in_bands(U, nb, monkeypatch) -> list:
    """Force the stage band budget down to ``nb`` bands of U's leading
    axis (None: one band a row); returns the list that collects the band
    widths of every step."""
    widths = []

    def bands(n, k):
        widest, cells = mesh._bands(n, k)
        widths.append([w for _, w in cells])
        return widest, cells

    monkeypatch.setattr(mesh, "_Y_BAND_BYTES", -(-U.nbytes // (nb or len(U))))
    monkeypatch.setattr(timeint, "_bands", bands)
    return widths


@pytest.mark.parametrize("nb", [1, 2, 3, None])
@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("rk", ["ssprk3", "ssprk54"])
@pytest.mark.parametrize("method,order", [("af", 4), ("dg", 3)])
def test_rk_step_in_bands_equals_the_reference_bit_for_bit(
        method, order, rk, boundary, nb, monkeypatch):
    """The stage sums give the reference's bytes in 1, 2, 3 and one band
    a row of an 8^2 state (9 rows for a closed AF state)."""
    state, rhs, scheme = bound_run(method, order, rk, boundary)
    widths = in_bands(state.U, nb, monkeypatch)
    assert_steps_are_the_reference(scheme, rhs, state)
    assert len(widths) == 3 and len(widths[0]) == (nb or len(state.U))
    assert sum(widths[0]) == len(state.U)


@pytest.mark.parametrize("nb", [1, 2, 3, None])
@pytest.mark.parametrize("rk", ["ssprk3", "ssprk54"])
def test_1d_and_scalar_steps_in_bands_equal_the_reference(rk, nb,
                                                          monkeypatch):
    """A 1-d DG state runs in bands of cells; a one-row ODE state is one
    band whatever the budget."""
    scheme = timeint.schemes_by_name()[rk]
    rng = np.random.default_rng(7)
    grid = Grid1D(0.0, 1.0, 12)
    state = mesh.DgState1D(grid, 2, rng.uniform(-1, 1, (12, 3, 1)))
    prob, flux = advection1d(u=-0.6), NumericalFluxSpec.upwind()
    widths = in_bands(state.U, nb, monkeypatch)
    assert_steps_are_the_reference(
        scheme, lambda s, t: dg.dg_rhs_1d(s, prob, flux), state)
    assert len(widths[0]) == (nb or 12)

    row = ScalarState([0.5])
    widths = in_bands(row.U, 4, monkeypatch)
    assert_steps_are_the_reference(
        scheme, lambda s, t: ScalarState(s.y ** 2 - t), row, dt=0.1)
    assert widths[0] == [1]


def read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("nb", [1, 3])
@pytest.mark.parametrize("rk", ["ssprk3", "ssprk54"])
@pytest.mark.parametrize("method,order", [("af", 4), ("dg", 3)])
def test_rk_step_writes_neither_its_input_nor_a_derivative(
        method, order, rk, nb, monkeypatch):
    """With the input tensor and every rhs result read-only, a step still
    runs and gives the reference's bytes: it sums into arrays it owns."""
    state, rhs, scheme = bound_run(method, order, rk, "periodic")
    in_bands(state.U, nb, monkeypatch)

    def frozen_rhs(s, t):
        d = rhs(s, t)
        read_only(d.U)
        return d

    frozen = state.with_tensor(read_only(state.U.copy()))
    got = timeint.rk_step(scheme, frozen_rhs, frozen, 0.01, 0.02)
    want = reference_rk_step(scheme, rhs, state.copy(), 0.01, 0.02)
    assert got.U.tobytes() == want.U.tobytes()
    assert frozen.U.tobytes() == state.U.tobytes()


def test_a_warm_step_in_bands_allocates_at_most_3_5_states(monkeypatch):
    """A warm 48^2 SSPRK3 step in 4 bands holds one stage array, the rhs's
    result and temporaries, and one band of scratch: its traced peak is
    at most 3.5x the state."""
    state, rhs, scheme = bound_run("af", 4, "ssprk3", "periodic", n=48)
    widths = in_bands(state.U, 4, monkeypatch)
    warm = timeint.rk_step(scheme, rhs, state, 1e-4)
    assert widths == [[12] * 4]
    tracemalloc.start()
    try:
        timeint.rk_step(scheme, rhs, warm, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * state.U.nbytes
