"""Active Flux right-hand sides and reconstruction.

``reference_linear_rhs_1d`` is the update that ``af.af_rhs_1d`` used for
linear problems before it became one three-block product, kept here as
an independent reference: one-sided reconstruction derivatives weighed
by the flux partials and closed-form moment weights, with the scalar and
system branches apart.
"""

import numpy as np
import pytest
from helpers import af_reconstruct

from afdg import af, dg, mesh, poly
from afdg.mesh import AfState1D, DgState1D, Grid1D, Grid2D
from afdg.problems import (NumericalFluxSpec, acoustics2x2, advection1d,
                           burgers, flux_partials, flux_spec)

UP = NumericalFluxSpec.upwind()


def reference_linear_rhs_1d(state, problem, flux):
    """(d point_values, d moments) of a linear problem."""
    ops = af.af_ops(state.K)
    dx = state.grid.dx
    dofs = af.cell_dof_tensor_1d(state)
    d_plus = np.einsum("p,ipc->ic", ops.d_plus, dofs) / dx     # right faces
    d_minus = np.einsum("p,ipc->ic", ops.d_minus, dofs) / dx   # left faces
    dql, dqr = np.roll(d_plus, 1, axis=0), d_minus
    pts = state.point_values
    d_l, d_r = flux_partials(flux, problem, pts, pts)
    if problem.is_scalar:
        u = problem.advection_speed
        dpts = -(d_l * dql + d_r * dqr)
        return dpts, -(u / dx) * np.einsum("kp,ipc->ikc", ops.mom_w, dofs)
    dpts = -(np.einsum("...cd,...d->...c", d_l, dql)
             + np.einsum("...cd,...d->...c", d_r, dqr))
    J = problem.jacobian(None)
    contr = np.einsum("kp,ipc->ikc", ops.mom_w, dofs)
    return dpts, -(1.0 / dx) * np.einsum("cd,ikd->ikc", J, contr)


# the linear cases of the three-block product: (problem, flux)
LINEAR_CASES = [
    *((advection1d(u), flux_spec(name, ap, 1.1 * abs(u)))
      for u in (1.0, -0.6)
      for name, ap in (("upwind", 1.0), ("alpha", 0.7), ("central", 0.5),
                       ("lax_friedrichs", 1.0))),
    *((acoustics2x2(1.3), flux_spec(name, 1.0, 1.3))
      for name in ("upwind", "central", "lax_friedrichs")),
]


def linear_case_id(case):
    problem, flux = case
    return f"{problem.name}-{flux.kind}"


def smooth_state_1d(K, n=16, lo=-1.0, hi=1.0, seed=0):
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0, 2 * np.pi)
    mid, amp = 0.5 * (lo + hi), 0.35 * (hi - lo)
    init = lambda x: mid + amp * np.sin(2 * np.pi * x + phase)
    return mesh.fill_af_1d(Grid1D(0, 1, n), K, init)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_constant_partition_of_unity():
    state = mesh.fill_af_1d(Grid1D(0, 1, 4), 2, lambda x: np.ones_like(x))
    p = af_reconstruct(state, 1)[0]
    xs = np.linspace(-0.5, 0.5, 33)
    assert np.allclose(p(xs), 1.0, atol=1e-13)


def test_reconstruct_single_moment_dof_gives_s0():
    grid = Grid1D(0, 1, 3)
    state = AfState1D(grid, 1, np.zeros((3, 1)), np.zeros((3, 1, 1)))
    state.moments[1, 0, 0] = 1.0
    p = af_reconstruct(state, 1)[0]
    xs = np.linspace(-0.5, 0.5, 21)
    assert np.allclose(p(xs), 1.5 - 6.0 * xs ** 2, atol=1e-13)


def test_adjacent_cells_share_interface_value():
    # sharedness is structural (one stored dof); evaluating the two cell
    # polynomials at the face re-derives it up to basis roundoff
    state = smooth_state_1d(2, seed=3)
    left = af_reconstruct(state, 4)[0](0.5)
    right = af_reconstruct(state, 5)[0](-0.5)
    assert left == pytest.approx(right, abs=1e-14)
    assert left == pytest.approx(state.point_values[5, 0], abs=1e-14)


# ---------------------------------------------------------------------------
# 1-d right-hand side


def test_constant_state_zero_all_variants():
    prob = advection1d(u=1.2)
    state = mesh.fill_af_1d(Grid1D(0, 1, 8), 2, lambda x: np.ones_like(x))
    fluxes = [UP, NumericalFluxSpec.central(),
              NumericalFluxSpec.alpha(0.7, 0.3),
              NumericalFluxSpec.lax_friedrichs(2.0)]
    for flux in fluxes:
        d = af.af_rhs_1d(state, prob, flux)
        for arr in d.arrays():
            assert np.max(np.abs(arr)) < 1e-12


def test_k1_upwind_point_stencil():
    # d/dt Q_{i+1/2} = -(U/dx) (2 Q_{i-1/2} - 6 Q_i + 4 Q_{i+1/2})
    grid = Grid1D(0, 1, 4)
    rng = np.random.default_rng(8)
    state = AfState1D(grid, 1, rng.uniform(-1, 1, (4, 1)),
                      rng.uniform(-1, 1, (4, 1, 1)))
    u = 1.5
    d = af.af_rhs_1d(state, advection1d(u=u),
                     NumericalFluxSpec.alpha(1.0, 0.0))
    p = state.point_values[:, 0]
    mo = state.moments[:, 0, 0]
    want = -(u / grid.dx) * (2 * np.roll(p, 1) - 6 * np.roll(mo, 1) + 4 * p)
    assert np.allclose(d.point_values[:, 0], want, atol=1e-12)


def test_average_update_is_flux_difference():
    prob = burgers()
    state = smooth_state_1d(2, lo=0.5, hi=2.0, seed=4)
    d = af.af_rhs_1d(state, prob, UP)
    f = prob.flux(state.point_values[:, 0])
    want = -(np.roll(f, -1) - f) / state.grid.dx
    assert np.allclose(d.moments[:, 0, 0], want, atol=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_conservation_periodic(K):
    prob = burgers()
    state = smooth_state_1d(K, lo=0.5, hi=2.0, seed=K)
    for flux in (UP, NumericalFluxSpec.lax_friedrichs(2.5)):
        d = af.af_rhs_1d(state, prob, flux)
        total = np.sum(d.moments[:, 0, 0]) * state.grid.dx
        assert abs(total) < 1e-12 * np.max(np.abs(state.point_values))


def test_linearity():
    prob = advection1d(u=0.9)
    s1, s2 = smooth_state_1d(2, seed=5), smooth_state_1d(2, seed=6)
    a, b = 1.3, -0.4
    comb = s1.with_tensor(a * s1.U + b * s2.U)
    d = af.af_rhs_1d(comb, prob, UP)
    d1 = af.af_rhs_1d(s1, prob, UP)
    d2 = af.af_rhs_1d(s2, prob, UP)
    for got, x, y in zip(d.arrays(), d1.arrays(), d2.arrays()):
        want = a * x + b * y
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1, np.max(np.abs(want)))


@pytest.mark.parametrize("K", [1, 2, 3])
def test_point_update_exact_for_global_polynomial(K):
    # dofs filled from a degree-(K+1) polynomial: the upwind point update
    # reproduces the analytic -u q' at the interior interfaces it sees
    rng = np.random.default_rng(K + 30)
    coeffs = rng.uniform(-1, 1, K + 2)
    q = np.polynomial.polynomial.Polynomial(coeffs)
    dq = q.deriv()
    u = 1.7
    grid = Grid1D(0, 1, 8)
    state = mesh.fill_af_1d(grid, K, q)
    d = af.af_rhs_1d(state, advection1d(u=u),
                     NumericalFluxSpec.alpha(1.0, 0.0))
    xs = grid.interfaces()
    # periodic wrap breaks the polynomial at interface 0; check the rest
    want = -u * dq(xs[1:])
    assert np.allclose(d.point_values[1:, 0], want, atol=1e-10 * max(1, np.max(np.abs(want))))


def test_dg_inspired_linear_equals_alpha_weighted():
    prob = advection1d(u=1.3)
    state = smooth_state_1d(2, seed=9)
    flux = NumericalFluxSpec.alpha(0.7, 0.3)
    # the linear flux projection: u times the reconstruction
    u, n = prob.advection_speed, state.grid.n_cells
    fp = af.FluxProjection1D(F_dofs=u * af.cell_dof_tensor_1d(state),
                             A=np.full(n, u), dfdql=np.full(n, 0.7 * u),
                             dfdqr=np.full(n, 0.3 * u))
    d1 = af.af_rhs_1d(state, prob, flux, flux_projection=fp)
    d2 = af.af_rhs_1d(state, prob, flux)
    scale = np.max(np.abs(d2.point_values))
    assert np.max(np.abs(d1.point_values - d2.point_values)) <= 1e-13 * scale
    assert np.max(np.abs(d1.moments - d2.moments)) <= \
        1e-13 * np.max(np.abs(d2.moments))


def test_sonic_state_rejected():
    state = smooth_state_1d(1, seed=1)
    fp = af.FluxProjection1D(
        F_dofs=np.zeros((state.grid.n_cells, 3, 1)),
        A=np.zeros(state.grid.n_cells),
        dfdql=np.ones(state.grid.n_cells),
        dfdqr=np.ones(state.grid.n_cells))
    with pytest.raises(ZeroDivisionError):
        af.af_rhs_1d(state, burgers(), NumericalFluxSpec.lax_friedrichs(3.0),
                     flux_projection=fp)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("case", LINEAR_CASES, ids=linear_case_id)
def test_linear_block_product_matches_reference(K, case):
    problem, flux = case
    m = problem.n_components
    rng = np.random.default_rng(40 + K)
    state = AfState1D(Grid1D(0, 1, 32), K, rng.uniform(-1, 1, (32, m)),
                      rng.uniform(-1, 1, (32, K, m)))
    d = af.af_rhs_1d(state, problem, flux)
    for a, want in zip((d.point_values, d.moments),
                       reference_linear_rhs_1d(state, problem, flux)):
        assert a.shape == want.shape
        assert np.max(np.abs(a - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", LINEAR_CASES, ids=linear_case_id)
def test_linear_update_is_one_line_apply_on_the_state(case, monkeypatch):
    """The linear derivative's tensor is ``line_apply`` of the state's own
    U, bit for bit, and nothing is packed or split on the way."""
    problem, flux = case
    m = problem.n_components
    rng = np.random.default_rng(7)
    state = AfState1D(Grid1D(0, 1, 12), 3, rng.uniform(-1, 1, (12, m)),
                      rng.uniform(-1, 1, (12, 3, m)))
    want = mesh.line_apply(af.af_stencil_1d(3), problem.jacobian(0.0),
                           flux_partials(flux, problem, 0.0, 0.0),
                           state.grid.dx, state.U)

    def refuse(*args, **kwargs):
        raise AssertionError("the linear update concatenated arrays")

    monkeypatch.setattr(np, "concatenate", refuse)
    d = af.af_rhs_1d(state, problem, flux)
    assert d.arrays() == [d.U]
    assert d.U.tobytes() == want.tobytes()


def _per_field_step(rk, rhs, fields, dt):
    """One step of the tableau ``rk`` on the AF 1-d fields kept apart
    (point values, moments): each stage summed field by field."""
    stages, derivs = [fields], {}
    for s in range(rk.stages):
        (idx0, w0), *rest = rk.combo[s]
        out = [w0 * a for a in stages[idx0]]
        for idx, w in rest:
            for a, b in zip(out, stages[idx]):
                a += w * b
        for idx, w in rk.rhs_w[s]:
            if idx not in derivs:
                derivs[idx] = rhs(stages[idx])
            for a, b in zip(out, derivs[idx]):
                a += (dt * w) * b
        stages.append(out)
    return stages[-1]


@pytest.mark.parametrize("scheme", ["ssprk3", "ssprk54"])
def test_rk_step_sums_one_array_per_stage(scheme):
    """An RK step on the cell-block tensor gives the bits of the same step
    on the two separate fields."""
    from afdg import timeint
    rk = timeint.schemes_by_name()[scheme]
    problem, flux = advection1d(-0.6), flux_spec("alpha", 0.7, 0.0)
    state = smooth_state_1d(3, n=24, seed=5)
    seen = []

    def rhs(s, t):
        seen.append(len(s.arrays()))
        d = af.af_rhs_1d(s, problem, flux)
        seen.append(len(d.arrays()))
        return d

    def two_field_rhs(fields):
        d = af.af_rhs_1d(AfState1D(state.grid, 3, *fields), problem, flux)
        return [d.point_values, d.moments]

    new = timeint.rk_step(rk, rhs, state, 0.01)
    old = _per_field_step(rk, two_field_rhs, [state.point_values.copy(),
                                              state.moments.copy()], 0.01)
    assert seen == [1] * (2 * rk.stages) and new.arrays() == [new.U]
    for got, want in zip((new.point_values, new.moments), old):
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_jacobian_splitting_system():
    prob = acoustics2x2(c=1.0)
    rng = np.random.default_rng(14)
    grid = Grid1D(0, 1, 12)
    state = AfState1D(grid, 1, rng.uniform(-1, 1, (12, 2)),
                      rng.uniform(-1, 1, (12, 1, 2)))
    d = af.af_rhs_1d(state, prob, UP)
    assert d.point_values.shape == (12, 2)
    assert np.all(np.isfinite(d.point_values))
    # central variant averages the one-sided updates of the +/- splits
    d_c = af.af_rhs_1d(state, prob, NumericalFluxSpec.central())
    assert np.all(np.isfinite(d_c.point_values))


def test_lax_friedrichs_at_the_sound_speed_is_upwind_for_acoustics():
    """|J| = c I for acoustics, so LF with a = c splits J as upwind does:
    (J + c I)/2 = J+ and (J - c I)/2 = J-."""
    c = 1.3
    prob = acoustics2x2(c=c)
    rng = np.random.default_rng(15)
    grid = Grid1D(0, 1, 10)
    lf, up = NumericalFluxSpec.lax_friedrichs(c), NumericalFluxSpec.upwind()
    state = AfState1D(grid, 2, rng.uniform(-1, 1, (10, 2)),
                      rng.uniform(-1, 1, (10, 2, 2)))
    d_lf, d_up = af.af_rhs_1d(state, prob, lf), af.af_rhs_1d(state, prob, up)
    for got, want in ((d_lf.point_values, d_up.point_values),
                      (d_lf.moments, d_up.moments)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    dg_state = DgState1D(grid, 2, rng.uniform(-1, 1, (10, 3, 2)))
    got = dg.dg_rhs_1d(dg_state, prob, lf).coeffs
    want = dg.dg_rhs_1d(dg_state, prob, up).coeffs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_upwind_point_update_refuses_a_sonic_state():
    """The upwind flux has no one-sided partials where the speed changes
    sign between interfaces, so upwind AF raises as upwind DG does."""
    state = smooth_state_1d(2, lo=-1.0, hi=1.0, seed=3)
    with pytest.raises(ValueError, match="sonic"):
        af.af_rhs_1d(state, burgers(), UP)


# ---------------------------------------------------------------------------
# 2-d tensorial


def smooth_state_2d(K, n=10, seed=0):
    rng = np.random.default_rng(seed)
    ph = rng.uniform(0, 2 * np.pi, 2)
    init = lambda x, y: (np.sin(2 * np.pi * x + ph[0])
                         * np.cos(2 * np.pi * y + ph[1]) + 0.25)
    return mesh.fill_af_2d(Grid2D.square(n), K, init)


def test_2d_constant_zero():
    state = mesh.fill_af_2d(Grid2D.square(5), 2, lambda x, y: np.ones_like(x + y))
    d = af.af_rhs_2d_tensorial(state, 1.0, -0.6, (1.0, 0.0), (0.0, -0.6))
    for arr in d.arrays():
        assert np.max(np.abs(arr)) < 1e-12


@pytest.mark.parametrize("K", [1, 2])
def test_2d_zero_y_speed_reduces_to_1d(K):
    """Each x-interface row behaves like the 1-d method with edge data
    playing the role of point values."""
    state = smooth_state_2d(K, seed=K)
    d2 = af.af_rhs_2d_tensorial(state, 1.4, 0.0, (1.4, 0.0), (0.0, 0.0))
    prob = advection1d(u=1.4)
    n = state.grid.n_cells_x
    for j in range(3):
        for k in range(K):
            line = AfState1D(Grid1D(0, 1, n), K,
                             state.x_edge[:, j, k][:, None],
                             state.cell_moments[:, j, :, k][:, :, None])
            d1 = af.af_rhs_1d(line, prob, NumericalFluxSpec.alpha(1.0, 0.0))
            assert np.allclose(d2.x_edge[:, j, k], d1.point_values[:, 0],
                               atol=1e-11)
            assert np.allclose(d2.cell_moments[:, j, :, k],
                               d1.moments[:, :, 0], atol=1e-11)


def test_2d_average_update_uses_edge_averages():
    state = smooth_state_2d(1, seed=7)
    ux, uy = 1.2, -0.8
    d = af.af_rhs_2d_tensorial(state, ux, uy, (ux, 0.0), (0.0, uy))
    ex, ey = state.x_edge[:, :, 0], state.y_edge[:, :, 0]
    want = -(ux * (np.roll(ex, -1, axis=0) - ex) / state.grid.dx
             + uy * (np.roll(ey, -1, axis=1) - ey) / state.grid.dy)
    assert np.allclose(d.cell_moments[:, :, 0, 0], want, atol=1e-11)


def test_2d_edge_update_matches_simpson_form():
    """The K=1 edge-average update evaluated through the dual-basis
    contraction equals the literal Simpson combination of the three
    normal-derivative samples along the edge."""
    state = smooth_state_2d(1, seed=11)
    ux = 1.0
    d = af.af_rhs_2d_tensorial(state, ux, 0.0, (ux, 0.0), (0.0, 0.0))
    vals_eta = np.array([-0.5, 0.0, 0.5])
    # d/dx of the reconstruction at the right face of each cell
    ddx = af.af_evaluator_2d(state)(np.array([0.5]), vals_eta,
                                    dxi=1)[:, :, 0] / state.grid.dx
    simpson = (ddx[:, :, 0] + 4 * ddx[:, :, 1] + ddx[:, :, 2]) / 6.0
    want = -ux * np.roll(simpson, 1, axis=0)
    assert np.allclose(d.x_edge[:, :, 0], want, atol=1e-11)


def test_2d_conservation():
    state = smooth_state_2d(2, seed=13)
    d = af.af_rhs_2d_tensorial(
        state, 1.1, 0.7,
        NumericalFluxSpec.alpha(0.6, 0.4).advection_partials(1.1),
        NumericalFluxSpec.alpha(0.3, 0.7).advection_partials(0.7))
    total = np.sum(d.cell_moments[:, :, 0, 0])
    assert abs(total) < 1e-10


def test_2d_global_continuity_after_rk_stage():
    """Shared dofs keep the reconstruction globally continuous after a
    time step; check value agreement across every vertical interface."""
    from afdg import timeint
    state = smooth_state_2d(1, seed=17)
    rhs = lambda s, t: af.af_rhs_2d_tensorial(s, 1.0, 1.0, (1.0, 0.0),
                                              (1.0, 0.0))
    stepped = timeint.rk_step(timeint.SSPRK3, rhs, state, 0.01)
    eta = np.linspace(-0.5, 0.5, 7)
    vals = af.af_evaluator_2d(stepped)(np.array([-0.5, 0.5]), eta)
    left_of_if = np.roll(vals[:, :, 1, :], 1, axis=0)
    right_of_if = vals[:, :, 0, :]
    assert np.max(np.abs(left_of_if - right_of_if)) < 1e-13


# ---------------------------------------------------------------------------
# classical midpoint update, on tensorial K = 1 states


def test_classical_constant_zero():
    state = mesh.fill_af_2d(Grid2D.square(5), 1,
                            lambda x, y: np.ones_like(x + y))
    d = af.af_rhs_2d_classical(state, 1.0, 0.8)
    for arr in d.arrays():
        assert np.max(np.abs(arr)) < 1e-12


def test_classical_zero_speeds_zero():
    state = smooth_state_2d(1, seed=19)
    d = af.af_rhs_2d_classical(state, 0.0, 0.0)
    for arr in d.arrays():
        assert np.max(np.abs(arr)) == 0.0


def test_classical_center_value_recovery():
    # the K = 1 reconstruction sampled on the 3x3 midpoint/node grid
    # reproduces the stored cell average through the tensor-Simpson weights
    state = smooth_state_2d(1, seed=21)
    nodes = np.array([-0.5, 0.0, 0.5])
    V = af.af_evaluator_2d(state)(nodes, nodes)
    w = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
    avg = np.einsum("ijab,a,b->ij", V, w, w)
    assert np.allclose(avg, state.cell_moments[:, :, 0, 0], atol=1e-13)


def test_classical_simpson_combination_gap():
    """Simpson-combining the midpoint/node updates along an edge does not
    reproduce the edge-average update: the two dof choices genuinely
    differ as methods."""
    rng = np.random.default_rng(23)
    n = 8
    grid = Grid2D.square(n)
    tens = mesh.AfState2D(grid, 1, rng.uniform(-1, 1, (n, n)),
                          rng.uniform(-1, 1, (n, n, 1)),
                          rng.uniform(-1, 1, (n, n, 1)),
                          rng.uniform(-1, 1, (n, n, 1, 1)))
    d_tens = af.af_rhs_2d_tensorial(tens, 1.0, 1.0, (1.0, 0.0), (1.0, 0.0))
    d_cls = af.af_rhs_2d_classical(tens, 1.0, 1.0)
    gap = np.max(np.abs(d_cls.x_edge[..., 0] - d_tens.x_edge[..., 0]))
    assert gap > 1e-3 * np.max(np.abs(tens.node_values))


def test_classical_af_third_order_at_catalog_cfl():
    """The classical midpoint update is the genuine third-order method: on
    the tensorial K = 1 dofs it converges at order 3 and tolerates the
    catalog CFL number 0.27 (the tensorial update's step limit is the
    stricter one of its DG twin; the catalog value belongs to this
    method)."""
    import math
    from afdg import timeint

    def one(n):
        ph = (0.3, 1.1)
        init = lambda x, y: (np.sin(2 * np.pi * x + ph[0])
                             * np.cos(2 * np.pi * y + ph[1]) + 0.2)
        state = mesh.fill_af_2d(Grid2D.square(n), 1, init)
        rhs = lambda s, t: af.af_rhs_2d_classical(s, 1.0, 1.0)
        final = timeint.integrate(state, rhs, timeint.SSPRK3, 0.27 / n, 0.25)
        ref = mesh.fill_af_2d(Grid2D.square(n), 1,
                              lambda x, y: init(x - 0.25, y - 0.25))
        return max(np.sqrt(np.mean((a - b) ** 2))
                   for a, b in zip(final.arrays(), ref.arrays()))

    errs = [one(n) for n in (8, 16, 32)]
    assert math.log2(errs[-2] / errs[-1]) == pytest.approx(3.0, abs=0.2)


def _burgers_exact(t, x):
    # smooth pre-shock solution by fixed-point iteration on q = q0(x - q t)
    q0 = lambda y: 1.0 + 0.3 * np.sin(2 * np.pi * y)
    q = q0(x)
    for _ in range(60):
        q = q0(x - q * t)
    return q


@pytest.mark.parametrize("flux", [
    NumericalFluxSpec.upwind(),
    NumericalFluxSpec.lax_friedrichs(1.5),
], ids=["jacobian_splitting", "flux_vector_splitting"])
def test_burgers_preshock_fourth_order(flux):
    import math
    from afdg import timeint
    prob = burgers()
    T = 0.1

    def one(n):
        grid = Grid1D(0, 1, n)
        state = mesh.fill_af_1d(grid, 2, lambda x: _burgers_exact(0.0, x))
        rhs = lambda s, t: af.af_rhs_1d(s, prob, flux)
        final = timeint.integrate(state, rhs, timeint.SSPRK54,
                                  0.1 * grid.dx, T)
        ref = mesh.fill_af_1d(grid, 2, lambda x: _burgers_exact(T, x))
        return max(np.sqrt(np.mean((a - b) ** 2))
                   for a, b in zip(final.arrays(), ref.arrays()))

    errs = [one(n) for n in (16, 32, 64)]
    eocs = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert eocs[-1] == pytest.approx(4.0, abs=0.35)
