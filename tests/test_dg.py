"""DG right-hand sides: oracles, invariants, both assembly paths.

``einsum_weak_rhs_1d`` is the weak assembly that ``dg.dg_rhs_1d`` used for
linear problems before it became one three-block product, kept here as
an independent reference: the scalar volume term as it was for linear
scalar problems, the Jacobian contraction as it was for linear systems.
"""

import numpy as np
import pytest
from helpers import cell_integral, legendre_polys
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npp

from afdg import dg, mesh, poly
from afdg.mesh import DgState1D, DgState2D, Grid1D, Grid2D
from afdg.problems import (NumericalFluxSpec, acoustics2x2, advection1d,
                           builtin_problems, burgers, numerical_flux)

UP = NumericalFluxSpec.upwind()


def random_state_1d(K, n=16, m=1, seed=0):
    rng = np.random.default_rng(seed)
    return DgState1D(Grid1D(0, 1, n), K, rng.uniform(-1, 1, (n, K + 1, m)))


def einsum_weak_rhs_1d(state, problem, flux):
    basis = dg.dg_basis(state.K)
    dx = state.grid.dx
    q_minus = np.tensordot(state.coeffs, basis.value_left, axes=(1, 0))
    q_plus = np.tensordot(state.coeffs, basis.value_right, axes=(1, 0))
    q_l = np.roll(q_plus, 1, axis=0)     # q_{a-1}^+
    q_r = q_minus                        # q_a^-
    fhat = numerical_flux(flux, problem, q_l, q_r)
    fhat_r = np.roll(fhat, -1, axis=0)                        # at x_{i+1/2}
    c = state.coeffs
    if problem.is_scalar:
        u = problem.advection_speed
        vol = u * np.einsum("mn,inc->imc", basis.stiffness, c)
    else:
        vol = np.einsum("mn,ind,cd->imc", basis.stiffness, c,
                        problem.jacobian(None))
    numer = (vol
             - np.einsum("m,ic->imc", basis.value_right, fhat_r)
             + np.einsum("m,ic->imc", basis.value_left, fhat))
    return numer / (dx * basis.mass[None, :, None])


# ---------------------------------------------------------------------------
# basis


def test_mass_matrix_diagonal_values():
    basis = dg.dg_basis(4)
    assert np.allclose(basis.mass, [1 / (2 * n + 1) for n in range(5)],
                       atol=1e-14)


def test_stiffness_matches_analytic():
    # integral of phi_m' phi_n over the cell: 2 when n < m with m+n odd
    basis = dg.dg_basis(4)
    for m in range(5):
        for n in range(5):
            want = 2.0 if (n < m and (m + n) % 2 == 1) else 0.0
            assert basis.stiffness[m, n] == pytest.approx(want, abs=1e-13)


def test_endpoint_values():
    basis = dg.dg_basis(3)
    assert np.allclose(basis.value_right, 1.0)
    assert np.allclose(basis.value_left, [1, -1, 1, -1])


# ---------------------------------------------------------------------------
# traces


def test_traces_constant():
    state = mesh.fill_dg_1d(Grid1D(0, 1, 4), 2, lambda x: np.ones_like(x))
    qm, qp = dg.trace_values_1d(state)
    assert qm[2, 0] == pytest.approx(1.0) and qp[2, 0] == pytest.approx(1.0)


def test_traces_k1_endpoint_combination():
    state = random_state_1d(1, seed=5)
    c0, c1 = state.coeffs[3, 0, 0], state.coeffs[3, 1, 0]
    qm, qp = dg.trace_values_1d(state)
    assert qp[3, 0] == pytest.approx(c0 + c1, abs=1e-14)
    assert qm[3, 0] == pytest.approx(c0 - c1, abs=1e-14)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_ends_stacks_the_endpoint_values_read_only(K):
    basis = dg.dg_basis(K)
    assert np.array_equal(basis.ends,
                          np.stack([basis.value_left, basis.value_right]))
    assert not basis.ends.flags.writeable
    with pytest.raises(ValueError):
        basis.ends[0, 0] = 0.0


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2], ids=["scalar", "acoustics2x2"])
def test_trace_values_match_tensordot_bit_for_bit(K, m):
    state = random_state_1d(K, n=64, m=m, seed=10 * K + m)
    basis = dg.dg_basis(K)
    q_minus, q_plus = dg.trace_values_1d(state)
    assert np.array_equal(
        q_minus, np.tensordot(state.coeffs, basis.value_left, axes=(1, 0)))
    assert np.array_equal(
        q_plus, np.tensordot(state.coeffs, basis.value_right, axes=(1, 0)))


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2], ids=["scalar", "acoustics2x2"])
def test_roll_cells_matches_np_roll_bit_for_bit(K, m):
    state = random_state_1d(K, n=64, m=m, seed=10 * K + m)
    for a in (state.coeffs, dg.trace_values_1d(state)[1]):
        for shift in (1, -1):
            assert np.array_equal(mesh.roll_cells(a, shift),
                                  np.roll(a, shift, axis=0))
    with pytest.raises(ValueError):
        mesh.roll_cells(state.coeffs, 2)


def test_traces_2d_tensor_factorization():
    # pure-y mode: the trace along an x-face is that y-polynomial
    state = DgState2D(Grid2D.square(3), 2, np.zeros((3, 3, 3, 3)))
    state.coeffs[1, 1, 0, 2] = 1.0
    left, right = dg.dg_basis(2).ends @ state.coeffs[1, 1]
    assert np.allclose(right, [0, 0, 1.0])
    assert np.allclose(left, [0, 0, 1.0])


# ---------------------------------------------------------------------------
# 1-d right-hand side


def test_constant_state_zero_derivative():
    prob = advection1d(u=1.4)
    state = mesh.fill_dg_1d(Grid1D(0, 1, 8), 2, lambda x: np.ones_like(x))
    for spec in (UP, NumericalFluxSpec.central(), NumericalFluxSpec.alpha(0.7, 0.3)):
        d = dg.dg_rhs_1d(state, prob, spec)
        # roundoff of the constant projection is amplified by 1/dx
        assert np.max(np.abs(d.coeffs)) < 1e-12


def test_k0_reduces_to_upwind_finite_volume():
    prob = advection1d(u=2.0)
    state = random_state_1d(0, n=12, seed=1)
    d = dg.dg_rhs_1d(state, prob, UP)
    qbar = state.coeffs[:, 0, 0]
    fv = -2.0 * (qbar - np.roll(qbar, 1)) / state.grid.dx
    assert np.allclose(d.coeffs[:, 0, 0], fv, atol=1e-13)


def independent_k1_assembly(state, u):
    """Quadrature-free K=1 upwind assembly written from scratch as oracle."""
    c0 = state.coeffs[:, 0, 0]
    c1 = state.coeffs[:, 1, 0]
    dx = state.grid.dx
    q_plus = c0 + c1                      # trace at the right face
    fhat = u * q_plus                     # upwind, u > 0
    fhat_l = np.roll(fhat, 1)
    # mass 1 and 1/3; stiffness row for phi_1 against phi_0 is 2
    dc0 = (-fhat + fhat_l) / dx
    dc1 = 3.0 * (2.0 * u * c0 - fhat - fhat_l) / dx
    return dc0, dc1


def test_k1_matches_independent_assembly():
    u = 1.0
    prob = advection1d(u=u)
    state = mesh.fill_dg_1d(Grid1D(0, 1, 32), 1,
                            lambda x: np.sin(2 * np.pi * x))
    d = dg.dg_rhs_1d(state, prob, UP)
    dc0, dc1 = independent_k1_assembly(state, u)
    assert np.max(np.abs(d.coeffs[:, 0, 0] - dc0)) < 1e-13
    assert np.max(np.abs(d.coeffs[:, 1, 0] - dc1)) < 1e-13


BLOCK_PRODUCT_CASES = [
    (1.0, UP), (-0.6, UP), (0.0, UP),
    (1.0, NumericalFluxSpec.central()),
    (-0.6, NumericalFluxSpec.alpha(0.7, 0.3)),
    (1.0, NumericalFluxSpec.lax_friedrichs(1.3)),
]


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("u, spec", BLOCK_PRODUCT_CASES,
                         ids=lambda c: c if isinstance(c, float) else c.kind)
def test_block_product_matches_einsum_weak_form(K, u, spec):
    prob = advection1d(u=u)
    state = random_state_1d(K, n=64, seed=20 + K)
    dc = dg.dg_rhs_1d(state, prob, spec).coeffs
    ref = einsum_weak_rhs_1d(state, prob, spec)
    assert np.max(np.abs(dc - ref)) <= 1e-14 * np.max(np.abs(dc))


SYSTEM_FLUXES = [UP, NumericalFluxSpec.central(),
                 NumericalFluxSpec.lax_friedrichs(1.3)]


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", SYSTEM_FLUXES, ids=lambda s: s.kind)
def test_system_block_product_matches_einsum_weak_form(K, spec):
    # acoustics at c = 1.3; Lax-Friedrichs at a = c
    prob = acoustics2x2(c=1.3)
    state = random_state_1d(K, n=64, m=2, seed=30 + K)
    dc = dg.dg_rhs_1d(state, prob, spec).coeffs
    ref = einsum_weak_rhs_1d(state, prob, spec)
    assert np.max(np.abs(dc - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_linear_scalar_weak_form_evaluates_no_interface_flux(monkeypatch):
    calls = []

    def counting_flux(*args):
        calls.append(args)
        return numerical_flux(*args)

    monkeypatch.setattr(dg, "numerical_flux", counting_flux)
    state = random_state_1d(2, seed=4)
    for spec in (UP, NumericalFluxSpec.central(),
                 NumericalFluxSpec.lax_friedrichs(1.3)):
        dg.dg_rhs_1d(state, advection1d(u=1.0), spec)
    assert calls == []
    # the counter sees the flux-and-trace path, which nonlinear problems take
    dg.dg_rhs_1d(DgState1D(state.grid, 2, state.coeffs + 3.0), burgers(),
                 NumericalFluxSpec.lax_friedrichs(5.0))
    assert len(calls) == 1


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", [UP, NumericalFluxSpec.central(),
                                  NumericalFluxSpec.alpha(0.6, 0.4),
                                  NumericalFluxSpec.lax_friedrichs(1.3)],
                         ids=lambda s: s.kind)
def test_weak_and_augmented_assemblies_agree(K, spec):
    prob = advection1d(u=-0.8)
    state = random_state_1d(K, seed=K)
    d1 = dg.dg_rhs_1d(state, prob, spec, assembly="weak").coeffs
    d2 = dg.dg_rhs_1d(state, prob, spec, assembly="augmented").coeffs
    scale = np.max(np.abs(d1))
    assert np.max(np.abs(d1 - d2)) <= 1e-12 * scale


def test_weak_and_augmented_agree_for_systems():
    prob = acoustics2x2(c=1.3)
    state = random_state_1d(2, m=2, seed=8)
    d1 = dg.dg_rhs_1d(state, prob, UP, assembly="weak").coeffs
    d2 = dg.dg_rhs_1d(state, prob, UP, assembly="augmented").coeffs
    assert np.max(np.abs(d1 - d2)) <= 1e-12 * np.max(np.abs(d1))


@pytest.mark.parametrize("spec", SYSTEM_FLUXES[1:], ids=lambda s: s.kind)
def test_weak_and_augmented_agree_for_system_fluxes(spec):
    prob = acoustics2x2(c=1.3)
    state = random_state_1d(3, m=2, seed=9)
    d1 = dg.dg_rhs_1d(state, prob, spec, assembly="weak").coeffs
    d2 = dg.dg_rhs_1d(state, prob, spec, assembly="augmented").coeffs
    assert np.max(np.abs(d1 - d2)) <= 1e-12 * np.max(np.abs(d1))


@pytest.mark.parametrize("spec", [UP, NumericalFluxSpec.central(),
                                  NumericalFluxSpec.lax_friedrichs(2.5)],
                         ids=lambda s: s.kind)
def test_conservation_of_total_average(spec):
    prob = burgers()
    rng = np.random.default_rng(4)
    state = DgState1D(Grid1D(0, 1, 24), 2,
                      rng.uniform(0.6, 1.8, (24, 3, 1)))
    d = dg.dg_rhs_1d(state, prob, spec)
    total = np.sum(d.coeffs[:, 0, 0]) * state.grid.dx
    assert abs(total) <= 1e-12 * np.max(np.abs(state.coeffs))


def test_linearity_of_rhs():
    prob = advection1d(u=1.1)
    s1 = random_state_1d(2, seed=10)
    s2 = random_state_1d(2, seed=11)
    a, b = 0.3, -1.7
    combined = DgState1D(s1.grid, 2, a * s1.coeffs + b * s2.coeffs)
    d = dg.dg_rhs_1d(combined, prob, UP).coeffs
    d_lin = a * dg.dg_rhs_1d(s1, prob, UP).coeffs \
        + b * dg.dg_rhs_1d(s2, prob, UP).coeffs
    assert np.max(np.abs(d - d_lin)) <= 1e-12 * np.max(np.abs(d))


def test_nonlinear_quadrature_rule_consistency(monkeypatch):
    # richer quadrature does not change the result for polynomial flux
    # of degree 2 once the rule is exact for the integrand: the catalog
    # rule's result is a 9-point rule's
    prob = burgers()
    rng = np.random.default_rng(6)
    state = DgState1D(Grid1D(0, 1, 8), 2, rng.uniform(0.5, 2.0, (8, 3, 1)))
    flux = NumericalFluxSpec.lax_friedrichs(3.0)
    d1 = dg.dg_rhs_1d(state, prob, flux).coeffs
    rule = poly.gauss_legendre_rule(9)
    phis = [npp.polyval(rule.nodes, dg.phi_table(2, d).T) for d in (0, 1)]
    read = []
    monkeypatch.setattr(dg, "catalog_phi_values",
                        lambda K: read.append(K) or (rule, *phis))
    d2 = dg.dg_rhs_1d(state, prob, flux).coeffs
    assert read == [2]
    assert np.max(np.abs(d1 - d2)) < 1e-12 * np.max(np.abs(d1))


# ---------------------------------------------------------------------------
# Riesz endpoint functionals: the representers v_L, v_R, built here from
# the DG basis, pair against the modes exactly as ``DgBasis.ends`` does


def riesz_representers(K):
    """(v_L, v_R) in P^K whose cell-mean pairing evaluates the endpoint:
    (1/dx) integral v_R p dx = p(+dx/2) for every p in P^K."""
    basis = dg.dg_basis(K)
    v_r = v_l = Polynomial(np.zeros(K + 1))
    for n, phi in enumerate(legendre_polys(K)):
        v_r = v_r + phi * (basis.value_right[n] / basis.mass[n])
        v_l = v_l + phi * (basis.value_left[n] / basis.mass[n])
    return v_l, v_r


def riesz_weights(v, K):
    """The pairing of v against each mode of the DG basis."""
    return np.array([cell_integral(v * p) for p in legendre_polys(K)])


def test_riesz_k1_frozen():
    v_l, v_r = riesz_representers(1)
    assert np.allclose(v_r.coef, [1.0, 6.0], atol=1e-13)
    xs = np.linspace(-0.5, 0.5, 9)
    assert np.allclose(v_l(xs), v_r(-xs), atol=1e-13)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_riesz_reproduces_endpoint_values(K):
    v_l, v_r = riesz_representers(K)
    rng = np.random.default_rng(K)
    rule = poly.gauss_legendre_rule(12)
    for _ in range(5):
        coeffs = rng.uniform(-1, 1, K + 1)
        p = Polynomial(coeffs)
        got = float(np.dot(rule.weights, v_r(rule.nodes) * p(rule.nodes)))
        assert got == pytest.approx(p(0.5), abs=1e-12)
        got_l = float(np.dot(rule.weights, v_l(rule.nodes) * p(rule.nodes)))
        assert got_l == pytest.approx(p(-0.5), abs=1e-12)
    # the pairing weights are the end values, exactly 1 and (-1)^n
    ends = dg.dg_basis(K).ends
    assert np.array_equal(ends, [(-1.0) ** np.arange(K + 1),
                                 np.ones(K + 1)])
    assert np.allclose(riesz_weights(v_l, K), ends[0], rtol=0, atol=1e-13)
    assert np.allclose(riesz_weights(v_r, K), ends[1], rtol=0, atol=1e-13)


def test_riesz_k2_on_square():
    basis = dg.dg_basis(2)
    # xi^2 in modal coordinates, then the functional returns 1/4
    modal = np.linalg.solve(
        np.array([[p(x) for p in legendre_polys(2)]
                  for x in (-0.4, 0.0, 0.4)]),
        np.array([0.16, 0.0, 0.16]))
    assert modal @ riesz_weights(riesz_representers(2)[1], 2) == \
        pytest.approx(0.25, abs=1e-14)
    assert modal @ basis.ends[1] == pytest.approx(0.25, abs=1e-14)


def test_riesz_extracts_trace_of_rhs():
    # the end values applied to the rhs reproduce d/dt q^- and d/dt q^+:
    # the traces of the derivative, and the Riesz pairing of it
    prob = advection1d(u=1.0)
    state = random_state_1d(2, seed=12)
    d = dg.dg_rhs_1d(state, prob, UP)
    via_ends = np.einsum("inc,en->eic", d.coeffs, dg.dg_basis(2).ends)
    via_trace = dg.trace_values_1d(d)
    assert np.allclose(via_ends, via_trace, atol=1e-12)
    for v, via in zip(riesz_representers(2), via_ends):
        via_riesz = np.einsum("inc,n->ic", d.coeffs, riesz_weights(v, 2))
        assert np.allclose(via_riesz, via, atol=1e-12)


# ---------------------------------------------------------------------------
# 2-d


def random_state_2d(K, n=8, seed=0):
    rng = np.random.default_rng(seed)
    return DgState2D(Grid2D.square(n), K, rng.uniform(-1, 1, (n, n, K + 1, K + 1)))


def test_2d_constant_zero():
    state = mesh.fill_dg_2d(Grid2D.square(6), 2, lambda x, y: np.ones_like(x + y))
    d = dg.dg_rhs_2d(state, 1.0, 0.7, (1.0, 0.0), (0.7, 0.0))
    assert np.max(np.abs(d.coeffs)) < 1e-12


def test_2d_zero_y_speed_reduces_to_rowwise_1d():
    K = 2
    state = random_state_2d(K, seed=3)
    d2 = dg.dg_rhs_2d(state, 1.3, 0.0, (1.3, 0.0), (0.0, 0.0)).coeffs
    prob = advection1d(u=1.3)
    for j in range(state.coeffs.shape[1]):
        for n_mode in range(K + 1):
            line = DgState1D(Grid1D(0, 1, state.coeffs.shape[0]), K,
                             state.coeffs[:, j, :, n_mode][:, :, None])
            d1 = dg.dg_rhs_1d(line, prob, UP).coeffs[:, :, 0]
            assert np.allclose(d2[:, j, :, n_mode], d1, atol=1e-12)


def test_2d_transpose_symmetry():
    state = random_state_2d(1, seed=7)
    d = dg.dg_rhs_2d(state, 1.1, -0.4, (1.1, 0.0), (0.0, -0.4)).coeffs
    flipped = DgState2D(state.grid, 1,
                        np.swapaxes(np.swapaxes(state.coeffs, 0, 1), 2, 3))
    d_flip = dg.dg_rhs_2d(flipped, -0.4, 1.1, (0.0, -0.4), (1.1, 0.0)).coeffs
    back = np.swapaxes(np.swapaxes(d_flip, 0, 1), 2, 3)
    assert np.allclose(d, back, atol=1e-13)


def test_2d_conservation():
    state = random_state_2d(2, seed=9)
    d = dg.dg_rhs_2d(state, 0.9, 1.2,
                     NumericalFluxSpec.alpha(0.7, 0.3).advection_partials(0.9),
                     NumericalFluxSpec.central().advection_partials(1.2))
    d = d.coeffs
    total = np.sum(d[:, :, 0, 0])
    assert abs(total) < 1e-11
