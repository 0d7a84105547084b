"""Dof mappings and the DG/AF equivalence verifier."""

import numpy as np
import pytest
from helpers import block_circulant, legendre_polys, polynomials

from afdg import af, dg, equiv, mesh, poly
from afdg.equiv import EquivSetting, verify_equivalence
from afdg.mesh import AfState2D, DgState1D, DgState2D, Grid1D, Grid2D
from afdg.problems import (NumericalFluxSpec, acoustics2x2, advection1d,
                           builtin_problems, burgers, check_weights, flux_spec)

UP = NumericalFluxSpec.upwind()


def random_dg_1d(K, n=16, m=1, seed=0):
    rng = np.random.default_rng(seed)
    return DgState1D(Grid1D(0, 1, n), K, rng.uniform(-1, 1, (n, K + 1, m)))


def random_dg_2d(K=1, n=10, seed=0):
    rng = np.random.default_rng(seed)
    return DgState2D(Grid2D.square(n), K, rng.uniform(-1, 1, (n, n, K + 1, K + 1)))


# ---------------------------------------------------------------------------
# 1-d mapping


def test_map_constant_state():
    prob = advection1d(u=1.0)
    state = mesh.fill_dg_1d(Grid1D(0, 1, 6), 2, lambda x: 0.7 * np.ones_like(x))
    mapped = equiv.map_dg_to_af_1d(state, UP, prob)
    assert np.allclose(mapped.point_values, 0.7, atol=1e-13)
    assert np.allclose(mapped.moments[:, 0, 0], 0.7, atol=1e-13)
    assert np.allclose(mapped.moments[:, 1, 0], 0.0, atol=1e-13)


def test_map_upwind_takes_left_trace_only():
    prob = advection1d(u=2.0)
    state = random_dg_1d(2, seed=1)
    mapped = equiv.map_dg_to_af_1d(state, UP, prob)
    q_minus, q_plus = dg.trace_values_1d(state)
    # interface a holds the left cell's trace, not the right cell's
    assert np.allclose(mapped.point_values, np.roll(q_plus, 1, axis=0),
                       atol=1e-13)
    assert np.max(np.abs(mapped.point_values - q_minus)) > 1e-2


def test_map_k1_zeroth_moment_is_mean():
    prob = advection1d(u=1.0)
    state = random_dg_1d(1, seed=2)
    mapped = equiv.map_dg_to_af_1d(state, UP, prob)
    assert np.allclose(mapped.moments[:, 0, 0], state.coeffs[:, 0, 0],
                       atol=1e-14)


def test_moment_transfer_matrix_exactness():
    # oracle: high-order quadrature of (2 xi)^k phi_n
    rule = poly.gauss_legendre_rule(12)
    for K in (1, 2, 3, 4):
        T = equiv.moment_transfer_matrix(K)
        phi = legendre_polys(K)
        for k in range(K):
            for n in range(K + 1):
                w = (k + 1) * (2 * rule.nodes) ** k
                want = float(np.dot(rule.weights, w * phi[n](rule.nodes)))
                assert T[k, n] == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# augmented reconstruction (continuity identity)


@pytest.mark.parametrize("spec", [UP, NumericalFluxSpec.central(),
                                  NumericalFluxSpec.alpha(0.7, 0.3)],
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("K", [1, 2, 3])
def test_augmented_equals_af_reconstruction(K, spec):
    prob = advection1d(u=1.0)
    state = random_dg_1d(K, seed=K)
    mono = dg.augmented_coefficients_1d(state, prob, spec)
    mapped = equiv.map_dg_to_af_1d(state, spec, prob)
    xs = np.linspace(-0.5, 0.5, 50)
    powers = np.array([xs ** j for j in range(K + 2)])
    vals = np.einsum("ipc,pq->iqc", mono, powers)
    assert np.max(np.abs(vals - af.af_eval_1d(mapped, xs))) < 1e-12


def test_augmented_continuity_at_interfaces():
    prob = advection1d(u=1.0)
    state = random_dg_1d(3, seed=9)
    mono = dg.augmented_coefficients_1d(state, prob,
                                        NumericalFluxSpec.central())
    right = np.einsum("ipc,p->ic", mono, 0.5 ** np.arange(mono.shape[1]))
    left = np.einsum("ipc,p->ic", mono, (-0.5) ** np.arange(mono.shape[1]))
    assert np.max(np.abs(right - np.roll(left, -1, axis=0))) <= 1e-13


def test_upwind_uses_single_radau_term():
    # the downwind correction vanishes identically for upwind flux, u > 0
    prob = advection1d(u=1.0)
    state = random_dg_1d(2, seed=4)
    fhat = dg.interface_fluxes_1d(state, prob, UP)
    _, q_plus = dg.trace_values_1d(state)
    corr_r = np.roll(fhat, -1, axis=0) - q_plus
    assert np.max(np.abs(corr_r)) == 0.0


def test_augmented_equals_raw_dg_at_radau_zeros():
    prob = advection1d(u=1.0)
    K = 2
    state = random_dg_1d(K, seed=5)
    mono = dg.augmented_coefficients_1d(state, prob, UP)
    zeros = poly.radau_points(K, "left")
    raw = np.einsum("inc,nq->iqc", state.coeffs,
                    np.array([p(zeros) for p in legendre_polys(K)]))
    powers = np.array([zeros ** j for j in range(K + 2)])
    aug = np.einsum("ipc,pq->iqc", mono, powers)
    assert np.max(np.abs(raw - aug)) < 1e-13


def test_central_flux_keeps_both_radau_terms():
    prob = advection1d(u=1.0)
    state = random_dg_1d(2, seed=6)
    fhat = dg.interface_fluxes_1d(state, prob, NumericalFluxSpec.central())
    q_minus, q_plus = dg.trace_values_1d(state)
    corr_r = np.roll(fhat, -1, axis=0) - q_plus
    corr_l = fhat - q_minus
    jumps = np.roll(q_minus, -1, axis=0) - q_plus
    assert np.allclose(corr_r, 0.5 * jumps, atol=1e-13)
    assert np.max(np.abs(corr_l)) > 1e-3


# ---------------------------------------------------------------------------
# flux projection


def test_flux_projection_k1_dofs():
    prob = burgers()
    state = mesh.fill_dg_1d(Grid1D(0, 1, 8), 1,
                            lambda x: 1.2 + 0.5 * np.sin(2 * np.pi * x))
    flux = NumericalFluxSpec.lax_friedrichs(2.0)
    fp = equiv.project_flux_F(state, prob, flux)
    fhat = dg.interface_fluxes_1d(state, prob, flux)
    assert np.allclose(fp.F_dofs[:, 0, 0], fhat[:, 0], atol=1e-14)
    assert np.allclose(fp.F_dofs[:, -1, 0], np.roll(fhat[:, 0], -1), atol=1e-14)


def test_flux_projection_mean_burgers_linear_profile():
    # q(xi) = 1 + xi on a unit cell: cell mean of q^2/2 is 13/24
    grid = Grid1D(0, 1, 1)
    state = DgState1D(grid, 1, np.array([[[1.0], [0.5]]]))
    # modal slope 0.5 gives q = 1 + xi since phi_1 = 2 xi
    fp = equiv.project_flux_F(state, burgers(),
                              NumericalFluxSpec.lax_friedrichs(3.0))
    assert fp.F_dofs[0, 1, 0] == pytest.approx(13.0 / 24.0, abs=1e-13)


def test_flux_projection_linear_is_u_times_reconstruction():
    prob = advection1d(u=1.7)
    state = random_dg_1d(2, seed=7)
    flux = NumericalFluxSpec.alpha(0.6, 0.4)
    fp = equiv.project_flux_F(state, prob, flux)
    mapped = equiv.map_dg_to_af_1d(state, flux, prob)
    dofs = af.cell_dof_tensor_1d(mapped)
    assert np.max(np.abs(fp.F_dofs - 1.7 * dofs)) < 1e-12


# ---------------------------------------------------------------------------
# the verifier, 1-d


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("flux,ap", [("upwind", 1.0), ("central", 0.5),
                                     ("alpha", 0.7)])
def test_linear_equivalence(K, flux, ap):
    s = EquivSetting(dimension=1, K=K, n_cells=64, seed=42, flux=flux,
                     alpha_plus=ap, problem="advection1d",
                     problem_params={"u": 1.0}, tolerance=1e-11)
    report = verify_equivalence(s)
    assert report.passed, [f"{f.family}:{f.relative:.2e}"
                           for f in report.families]
    assert {f.family for f in report.families} == \
        {"point_values"} | {f"moment_{k}" for k in range(K)}


def test_linear_equivalence_negative_speed():
    s = EquivSetting(dimension=1, K=2, n_cells=32, seed=3, flux="upwind",
                     problem="advection1d", problem_params={"u": -1.4})
    assert verify_equivalence(s).passed


def test_linear_system_equivalence():
    s = EquivSetting(dimension=1, K=2, n_cells=32, seed=5, flux="upwind",
                     problem="acoustics2x2", problem_params={"c": 1.0})
    assert verify_equivalence(s).passed


@pytest.mark.parametrize("prob", ["burgers", "expflux"])
@pytest.mark.parametrize("K", [1, 2])
def test_nonlinear_equivalence(prob, K):
    s = EquivSetting(dimension=1, K=K, n_cells=64, seed=7, flux="lax_friedrichs",
                     problem=prob, tolerance=1e-10)
    report = verify_equivalence(s)
    assert report.passed
    assert report.metadata["nonlinear"]


def test_nonlinear_sign_flip_fails_loudly():
    s = EquivSetting(dimension=1, K=1, n_cells=64, seed=7,
                     flux="lax_friedrichs", problem="burgers",
                     tolerance=1e-10, flip_point_sign=True)
    report = verify_equivalence(s)
    point = next(f for f in report.families if f.family == "point_values")
    assert point.relative >= 1e-1


def test_report_is_deterministic():
    s = EquivSetting(dimension=1, K=2, n_cells=32, seed=11, flux="central",
                     problem="advection1d", problem_params={"u": 1.0})
    r1 = verify_equivalence(s)
    r2 = verify_equivalence(s)
    assert [f.max_abs for f in r1.families] == [f.max_abs for f in r2.families]


# ---------------------------------------------------------------------------
# 2-d mapping and verifier


def einsum_corner_values(c):
    """The four one-sided corner values (v_pp, v_mp, v_pm, v_mm) of every
    cell's block, + for the right/top end, as the package contracted them
    before ``DgBasis.ends``."""
    basis = dg.dg_basis(c.shape[-1] - 1)
    vr, vl = basis.value_right, basis.value_left
    return [np.einsum("ijmn,m,n->ij", c, vx, vy)
            for vx, vy in ((vr, vr), (vl, vr), (vr, vl), (vl, vl))]


def einsum_map_dg_to_af_2d(state, alpha, beta, check_consistency=True,
                           qhat=None):
    """The 2-d DG-to-AF map as the package assembled it before it became
    T (x) T of the 1-d block rows, kept unchanged as a reference: corners
    from the four one-sided corner values, edge dofs as moments of the
    weighted interface traces, interior moments by tensor-modal transfer."""
    if state.K < 1:
        raise ValueError("the 2-d identification needs K >= 1")
    check_weights(alpha)
    check_weights(beta)
    ap, am = alpha
    bp, bm = beta
    c = state.coeffs
    K = state.K

    v_pp, v_mp, v_pm, v_mm = einsum_corner_values(c)
    nodes = (ap * bp * np.roll(v_pp, (1, 1), axis=(0, 1))
             + am * bp * np.roll(v_mp, (0, 1), axis=(0, 1))
             + ap * bm * np.roll(v_pm, (1, 0), axis=(0, 1))
             + am * bm * v_mm)

    qhat_x, qhat_y = qhat or dg.qhat_interfaces_2d(state, alpha, beta)
    T = equiv.moment_transfer_matrix(K)
    x_edge = np.einsum("kn,ajn->ajk", T, qhat_x)
    y_edge = np.einsum("km,ibm->ibk", T, qhat_y)
    cell_moments = np.einsum("km,ln,ijmn->ijkl",
                             T, T, c)

    out = AfState2D(state.grid, K, nodes, x_edge, y_edge, cell_moments)
    if check_consistency:
        res = equiv.corner_consistency_residual(state, alpha, beta, nodes,
                                                (qhat_x, qhat_y))
        if res > 1e-12:
            raise RuntimeError(f"corner consistency violated: {res:.3e}")
    return out


# Lax-Friedrichs at u = -0.6, a = 1.1: weights outside [0, 1]
LF_WEIGHTS = flux_spec("lax_friedrichs", a=1.1).advection_weights(-0.6)
MAP_WEIGHTS = [((1.0, 0.0), (0.0, 1.0)), ((0.8, 0.2), (0.6, 0.4)),
               ((0.5, 0.5), (0.5, 0.5)), (LF_WEIGHTS, LF_WEIGHTS)]


@pytest.mark.parametrize("alpha,beta", MAP_WEIGHTS)
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_map_2d_matches_einsum_reference(K, alpha, beta):
    rng = np.random.default_rng(K)
    for grid in (Grid2D(0, 1, 7, 0, 1.5, 5), Grid2D(0, 1, 3, 0, 1, 4),
                 Grid2D.square(16)):
        shape = (grid.n_cells_x, grid.n_cells_y, K + 1, K + 1)
        state = DgState2D(grid, K, rng.uniform(-1, 1, shape))
        want = einsum_map_dg_to_af_2d(state, alpha, beta).U
        got = equiv.map_dg_to_af_2d(state, alpha, beta).U
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def einsum_qhat_interfaces_2d(state, alpha, beta):
    """``dg.qhat_interfaces_2d`` as the package wrote it before the end
    values became one product with ``DgBasis.ends``, kept as a reference."""
    b = dg.dg_basis(state.K)
    c, vr, vl = state.coeffs, b.value_right, b.value_left
    ap, am = alpha
    bp, bm = beta
    qhat_x = (ap * np.roll(np.einsum("ijmn,m->ijn", c, vr), 1, axis=0)
              + am * np.einsum("ijmn,m->ijn", c, vl))
    qhat_y = (bp * np.roll(np.einsum("ijmn,n->ijm", c, vr), 1, axis=1)
              + bm * np.einsum("ijmn,n->ijm", c, vl))
    return qhat_x, qhat_y


def four_formula_corners(state, qhat_x, qhat_y, nodes):
    """The reconstruction's corner constants as the package wrote them
    before the loop over ``np.ndindex(2, 2)``, one formula per corner,
    kept as a reference."""
    basis = dg.dg_basis(state.K)
    vr, vl = basis.value_right, basis.value_left
    v_pp, v_mp, v_pm, v_mm = einsum_corner_values(state.coeffs)
    qx_t = np.einsum("ajn,n->aj", qhat_x, vr)
    qx_b = np.einsum("ajn,n->aj", qhat_x, vl)
    qy_r = np.einsum("ibm,m->ib", qhat_y, vr)
    qy_l = np.einsum("ibm,m->ib", qhat_y, vl)
    corners = np.empty(state.coeffs.shape[:2] + (2, 2))
    corners[:, :, 1, 1] = (np.roll(nodes, (-1, -1), axis=(0, 1))
                           - np.roll(qx_t, -1, axis=0)
                           - np.roll(qy_r, -1, axis=1) + v_pp)
    corners[:, :, 0, 1] = (np.roll(nodes, (0, -1), axis=(0, 1))
                           - qx_t - np.roll(qy_l, -1, axis=1) + v_mp)
    corners[:, :, 1, 0] = (np.roll(nodes, (-1, 0), axis=(0, 1))
                           - np.roll(qx_b, -1, axis=0) - qy_r + v_pm)
    corners[:, :, 0, 0] = nodes - qx_b - qy_l + v_mm
    return corners


@pytest.mark.parametrize("alpha,beta", MAP_WEIGHTS)
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_qhat_2d_matches_einsum_reference(K, alpha, beta):
    state = DgState2D(Grid2D(0, 1, 7, 0, 1.5, 5), K,
                      np.random.default_rng(K).uniform(-1, 1,
                                                       (7, 5, K + 1, K + 1)))
    bound = 1e-15 * np.max(np.abs(state.coeffs))
    for got, want in zip(dg.qhat_interfaces_2d(state, alpha, beta),
                         einsum_qhat_interfaces_2d(state, alpha, beta)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("alpha,beta", MAP_WEIGHTS)
def test_reconstruction_corners_match_four_formula_reference(alpha, beta):
    for K in (1, 2, 3):
        state = DgState2D(Grid2D(0, 1, 7, 0, 1.5, 5), K,
                          np.random.default_rng(29).uniform(
                              -1, 1, (7, 5, K + 1, K + 1)))
        rec = equiv.reconstruct_af_2d_from_dg(state, alpha, beta)
        want = four_formula_corners(state, rec.qhat_x, rec.qhat_y,
                                    rec.mapped.node_values)
        # the two summation orders part by roundoff that grows with the
        # terms of a corner sum, like K^2 (3.6e-15 at K = 2, 7.1e-15 at
        # K = 3 over 40 seeds); K = 1 keeps its bound
        assert np.max(np.abs(rec.corners - want)) <= \
            1e-15 * K ** 2 * np.max(np.abs(state.coeffs)), K


@pytest.mark.parametrize("alpha,beta", MAP_WEIGHTS)
@pytest.mark.parametrize("K", [1, 2, 3])
def test_map_2d_is_the_dense_kronecker_product(K, alpha, beta):
    """mapped U = (Tx (x) Ty) U_dg with Tx, Ty the block-circulant
    matrices of the 1-d block rows, on a 4 x 3 grid."""
    grid = Grid2D(0, 1, 4, 0, 1, 3)
    state = DgState2D(grid, K, np.random.default_rng(K).uniform(
        -1, 1, (4, 3, K + 1, K + 1)))
    Tx = block_circulant(equiv.map_stencil_1d(K, alpha), 4)
    Ty = block_circulant(equiv.map_stencil_1d(K, beta), 3)
    got = equiv.map_dg_to_af_2d(state, alpha, beta).U.ravel()
    assert np.allclose(got, np.kron(Tx, Ty) @ state.U.ravel(), rtol=0,
                       atol=1e-14 * np.max(np.abs(got)))


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_map_stencil_is_cached_and_read_only(K):
    T = equiv.map_stencil_1d(K, (0.8, 0.2))
    assert T.shape == (K + 1, 3 * (K + 1))
    assert equiv.map_stencil_1d(K, (0.8, 0.2)) is T
    assert not T.flags.writeable
    # no cell i+1 block: the map reads a cell and its left neighbour
    assert not np.any(T[:, 2 * (K + 1):])


def test_map_2d_constant():
    state = mesh.fill_dg_2d(Grid2D.square(4), 1, lambda x, y: 0.4 * np.ones_like(x))
    mapped = equiv.map_dg_to_af_2d(state, (0.8, 0.2), (0.6, 0.4))
    for arr in mapped.arrays():
        assert np.allclose(arr, 0.4, atol=1e-13)


def test_map_2d_upwind_corner_is_corner_trace():
    state = random_dg_2d(seed=13)
    mapped = equiv.map_dg_to_af_2d(state, (1.0, 0.0), (1.0, 0.0))
    basis = dg.dg_basis(1)
    corner = np.einsum("ijmn,m,n->ij", state.coeffs, basis.value_right,
                       basis.value_right)
    assert np.allclose(mapped.node_values, np.roll(corner, (1, 1), axis=(0, 1)),
                       atol=1e-13)


def test_map_2d_corner_consistency_identity():
    state = random_dg_2d(seed=15)
    res = equiv.corner_consistency_residual(state, (0.8, 0.2), (0.6, 0.4))
    assert res <= 1e-13


def test_reconstruct_2d_matches_af_reconstruction():
    state = random_dg_2d(seed=17)
    rec = equiv.reconstruct_af_2d_from_dg(state, (0.8, 0.2), (0.6, 0.4))
    mapped = equiv.map_dg_to_af_2d(state, (0.8, 0.2), (0.6, 0.4))
    xi = np.linspace(-0.5, 0.5, 9)
    built = rec.evaluate(xi, xi)
    direct = af.af_evaluator_2d(mapped)(xi, xi)
    assert np.max(np.abs(built - direct)) <= 1e-12
    # and so do their first derivatives in xi and in eta
    for dxi, deta in ((1, 0), (0, 1)):
        built = rec.evaluate(xi, xi, dxi=dxi, deta=deta)
        direct = af.af_evaluator_2d(mapped)(xi, xi, dxi=dxi, deta=deta)
        assert np.max(np.abs(built - direct)) <= 1e-12 * np.max(np.abs(built))


def test_reconstruct_2d_constant_corrections_vanish():
    state = mesh.fill_dg_2d(Grid2D.square(4), 1, lambda x, y: np.ones_like(x))
    rec = equiv.reconstruct_af_2d_from_dg(state, (0.7, 0.3), (0.5, 0.5))
    assert np.max(np.abs(rec.corners)) < 1e-13


def lemma_grid(K):
    """12 cells a side at K = 1, 8 above: the update identities' roundoff
    grows like n (9.1e-13 at K = 3 on 12^2, 3.7e-13 on 8^2)."""
    return 12 if K == 1 else 8


def test_lemma_checks_pass_on_random_state():
    fx = NumericalFluxSpec.alpha(0.8, 0.2)
    fy = NumericalFluxSpec.alpha(0.6, 0.4)
    for K in (1, 2, 3):
        state = random_dg_2d(K=K, n=lemma_grid(K), seed=19)
        res = equiv.lemma_checks(state, 1.1, 0.9, fx, fy)
        for name, val in res.items():
            assert val <= 1e-12, f"K = {K}, {name}: {val:.3e}"


def test_lemma_checks_map_and_qhat_once_per_orientation(monkeypatch):
    """One DG-to-AF map and one qhat: the y identity runs on the transpose
    of the state's own reconstruction."""
    calls = {"qhat": 0, "map": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(dg, "qhat_interfaces_2d",
                        counting("qhat", dg.qhat_interfaces_2d))
    monkeypatch.setattr(equiv, "map_dg_to_af_2d",
                        counting("map", equiv.map_dg_to_af_2d))
    res = equiv.lemma_checks(random_dg_2d(n=12, seed=19), 1.1, -0.9,
                             NumericalFluxSpec.alpha(0.8, 0.2),
                             NumericalFluxSpec.alpha(0.6, 0.4))
    assert calls == {"qhat": 1, "map": 1}, calls
    for name, val in res.items():
        assert val <= 1e-12, f"{name}: {val:.3e}"


@pytest.mark.parametrize("ux,uy,axis", [(0.0, -0.5, "ux"), (1.0, 0.0, "uy"),
                                        (0.0, 0.0, "ux")])
def test_lemma_checks_refuse_zero_speed_lax_friedrichs(ux, uy, axis):
    """Lax-Friedrichs has no one-sided weights at zero speed, so the
    DG-to-AF map is undefined there: refused as by the verifier."""
    lf = NumericalFluxSpec.lax_friedrichs(1.1)
    with pytest.raises(ValueError, match=rf"zero speed.*{axis} = 0"):
        equiv.lemma_checks(random_dg_2d(n=12, seed=3), ux, uy, lf, lf)


def test_lemma_checks_hold_for_lax_friedrichs_at_nonzero_speeds():
    lf = NumericalFluxSpec.lax_friedrichs(1.1)
    for K in (1, 2, 3):
        res = equiv.lemma_checks(random_dg_2d(K=K, n=lemma_grid(K), seed=3),
                                 1.0, -0.5, lf, lf)
        for name, val in res.items():
            assert val <= 1e-12, f"K = {K}, {name}: {val:.3e}"


def test_reconstruction_keeps_its_mapped_state_and_qhat():
    state = random_dg_2d(seed=23)
    rec = equiv.reconstruct_af_2d_from_dg(state, (0.8, 0.2), (0.6, 0.4))
    mapped = equiv.map_dg_to_af_2d(state, (0.8, 0.2), (0.6, 0.4))
    qhat = dg.qhat_interfaces_2d(state, (0.8, 0.2), (0.6, 0.4))
    assert all(np.array_equal(a, b)
               for a, b in zip(rec.mapped.arrays(), mapped.arrays()))
    assert np.array_equal(rec.qhat_x, qhat[0])
    assert np.array_equal(rec.qhat_y, qhat[1])


def test_2d_map_weights_must_sum_to_one():
    # the right-hand sides take flux partials, which sum to u (to 0 for
    # Lax-Friedrichs at u = 0); the point values of the map take weights
    state = random_dg_2d(seed=25)
    equiv.map_dg_to_af_2d(state, (1.0, 0.0), (0.6, 0.4))
    with pytest.raises(ValueError, match="sum to 1"):
        equiv.map_dg_to_af_2d(state, (1.0, 0.0), (0.6, 0.5))


@pytest.mark.parametrize("block", ["qhat_x", "qhat_y", "corners"])
def test_lemma_checks_detect_perturbation(block):
    """Negative control: breaking one correction coefficient must break
    the edge-trace combination identity (a corner constant, which no
    edge trace sees, the match with the AF reconstruction)."""
    state = random_dg_2d(n=6, seed=21)
    fx = fy = NumericalFluxSpec.upwind()
    rec = equiv.reconstruct_af_2d_from_dg(state, (1.0, 0.0), (1.0, 0.0))
    mapped = equiv.map_dg_to_af_2d(state, (1.0, 0.0), (1.0, 0.0))
    xi = np.linspace(-0.5, 0.5, 7)
    if block == "qhat_x":
        bad_qhat_x = rec.qhat_x.copy()
        bad_qhat_x[2, 3, 0] += 0.1
        bad = equiv.TensorReconstruction2D(state, bad_qhat_x, rec.qhat_y,
                                           rec.corners)
        resid = equiv._edge_trace_identity_residual(
            bad, af.af_evaluator_2d(mapped), (1.0, 0.0), (1.0, 0.0), xi)
        assert resid > 1e-3
    elif block == "qhat_y":
        bad_qhat_y = rec.qhat_y.copy()
        bad_qhat_y[2, 3, 0] += 0.1
        bad = equiv.TensorReconstruction2D(state, rec.qhat_x, bad_qhat_y,
                                           rec.corners)
        resid = equiv._edge_trace_identity_residual(
            bad, af.af_evaluator_2d(mapped), (1.0, 0.0), (1.0, 0.0), xi)
        assert resid > 1e-3
    else:
        bad_corners = rec.corners.copy()
        bad_corners[2, 3, 1, 1] += 0.1
        bad = equiv.TensorReconstruction2D(state, rec.qhat_x, rec.qhat_y,
                                           bad_corners)
        gap = np.max(np.abs(bad.evaluate(xi, xi)
                            - af.af_evaluator_2d(mapped)(xi, xi)))
        assert gap > 1e-3


@pytest.mark.parametrize("flux,a_p,b_p,ux,uy", [
    ("upwind", 1.0, 1.0, 1.0, 1.0),
    ("alpha", 0.8, 0.6, 1.0, 1.0),
    ("alpha", 0.7, 0.4, 1.3, -0.6),
])
def test_2d_equivalence(flux, a_p, b_p, ux, uy):
    s = EquivSetting(dimension=2, K=1, n_cells=16, seed=3, flux=flux,
                     alpha_plus=a_p, beta_plus=b_p, problem="advection2d",
                     problem_params={"ux": ux, "uy": uy}, tolerance=1e-11)
    report = verify_equivalence(s)
    assert report.passed, [(f.family, f.relative) for f in report.families]


def test_2d_equivalence_zero_speed_axis():
    s = EquivSetting(dimension=2, K=1, n_cells=12, seed=5, flux="upwind",
                     problem="advection2d", problem_params={"ux": 1.0, "uy": 0.0})
    report = verify_equivalence(s)
    assert report.passed
    assert report.metadata["zero_speed_axis"] == "y"


def test_1d_refuses_the_classical_variant():
    s = EquivSetting(dimension=1, K=1, variant="classical_midpoint")
    with pytest.raises(ValueError, match="classical_midpoint"):
        verify_equivalence(s)


def test_2d_refuses_flip_point_sign():
    s = EquivSetting(dimension=2, K=1, n_cells=8, problem="advection2d",
                     flip_point_sign=True)
    with pytest.raises(ValueError, match="flip_point_sign"):
        verify_equivalence(s)


def test_2d_classical_negative_control():
    s = EquivSetting(dimension=2, K=1, n_cells=16, seed=3, flux="upwind",
                     problem="advection2d", problem_params={"ux": 1.0, "uy": 1.0},
                     variant="classical_midpoint")
    report = verify_equivalence(s)
    assert not report.passed
    fams = {f.family: f for f in report.families}
    # node and average updates agree; the edge families expose the gap
    assert fams["node_values"].relative <= 1e-11
    assert fams["cell_averages"].relative <= 1e-11
    assert fams["x_edge_averages"].relative >= 1e-3
    assert fams["y_edge_averages"].relative >= 1e-3


# ---------------------------------------------------------------------------
# superconvergence witness


def test_dg_equals_af_at_crossing_points_2d():
    """A one-sided map takes its traces from the side where the Radau
    polynomial of ``side`` vanishes, so at the tensor Radau zeros of every
    K the mapped AF reconstruction equals the DG polynomial."""
    for K in (1, 2, 3, 4):
        state = random_dg_2d(K=K, n=8, seed=23)
        for weights, side in (((1.0, 0.0), "left"), ((0.0, 1.0), "right")):
            mapped = equiv.map_dg_to_af_2d(state, weights, weights)
            zeros = poly.radau_points(K, side)
            pz = np.array([p(zeros) for p in legendre_polys(K)])
            raw = np.einsum("ijmn,ma,nb->ijab", state.coeffs, pz, pz)
            rec = af.af_evaluator_2d(mapped)(zeros, zeros)
            assert np.max(np.abs(raw - rec)) <= 1e-13, (K, side)


def test_flux_projection_bracket_identity_k1():
    """The K=1 point-update bracket (6 fbar - 4 f(Q_r) - 2 f(Q_l)) / dx
    equals minus the one-sided derivative of the flux projection,
    cross-checked against a polynomial-derivative oracle."""
    prob = burgers()
    state = mesh.fill_dg_1d(Grid1D(0, 1, 8), 1,
                            lambda x: 1.1 + 0.4 * np.sin(2 * np.pi * x))
    flux = NumericalFluxSpec.lax_friedrichs(2.0)
    fp = equiv.project_flux_F(state, prob, flux)
    dx = state.grid.dx
    fhat_l = fp.F_dofs[:, 0, 0]
    fbar = fp.F_dofs[:, 1, 0]
    fhat_r = fp.F_dofs[:, 2, 0]
    bracket = (6.0 * fbar - 4.0 * fhat_r - 2.0 * fhat_l) / dx

    # oracle: assemble F as a polynomial and differentiate at the face
    r_l, s_0, r_r = polynomials(poly.moment_dual_basis(1))
    for i in (0, 3, 5):
        F = fhat_l[i] * r_l + fbar[i] * s_0 + fhat_r[i] * r_r
        dF_plus = F.deriv()(0.5) / dx
        assert bracket[i] == pytest.approx(-dF_plus, rel=1e-12)


@pytest.mark.parametrize("K", [2, 3])
def test_2d_equivalence_extends_beyond_k1(K):
    """The tensor form of the dof identification keeps the update
    equations in agreement for K >= 2 as well (numerically settling a
    question the K = 1 statement leaves open)."""
    s = EquivSetting(dimension=2, K=K, n_cells=10, seed=29, flux="alpha",
                     alpha_plus=0.7, beta_plus=0.6, problem="advection2d",
                     problem_params={"ux": 1.0, "uy": 1.0}, tolerance=1e-11)
    report = verify_equivalence(s)
    assert report.passed, [(f.family, f.relative) for f in report.families]


@pytest.mark.parametrize("seed", range(10))
def test_linear_equivalence_seed_sweep(seed):
    """The identity is not seed luck: many random states, mixed K/flux."""
    K = 1 + seed % 3
    flux = ("upwind", "central", "alpha")[seed % 3]
    s = EquivSetting(dimension=1, K=K, n_cells=48, seed=100 + seed,
                     flux=flux, alpha_plus=0.65, problem="advection1d",
                     problem_params={"u": (-1.0) ** seed * (0.5 + seed / 7.0)})
    assert verify_equivalence(s).passed


def test_lax_friedrichs_is_a_linear_two_point_flux_for_advection():
    """With f = u q the LF flux is an alpha combination with weights
    (1 +- a/u)/2, so the equivalence covers it too."""
    s = EquivSetting(dimension=1, K=2, n_cells=48, seed=6,
                     flux="lax_friedrichs", lf_speed=2.0,
                     problem="advection1d", problem_params={"u": 1.25})
    assert verify_equivalence(s).passed


def test_lax_friedrichs_at_zero_speed_is_refused():
    """At u = 0 the LF flux -a (q_R - q_L) / 2 is no multiple of u, so the
    weighted point update the mapped state gets cannot mirror it."""
    s = EquivSetting(dimension=1, K=2, n_cells=16, seed=1,
                     flux="lax_friedrichs", lf_speed=2.0,
                     problem="advection1d", problem_params={"u": 0.0})
    with pytest.raises(ValueError, match="zero speed"):
        verify_equivalence(s)


def test_zero_speed_advection_gives_zero_rhs():
    from afdg import mesh as _mesh
    prob = builtin_problems()["advection1d"](u=0.0)
    state = _mesh.fill_dg_1d(Grid1D(0, 1, 8), 2,
                             lambda x: np.sin(2 * np.pi * x))
    d = dg.dg_rhs_1d(state, prob, UP)
    assert np.max(np.abs(d.coeffs)) == 0.0
    afs = _mesh.fill_af_1d(Grid1D(0, 1, 8), 2, lambda x: np.sin(2 * np.pi * x))
    da = af.af_rhs_1d(afs, prob, UP)
    assert all(np.max(np.abs(a)) == 0.0 for a in da.arrays())


def test_2d_equivalence_central_flux():
    s = EquivSetting(dimension=2, K=1, n_cells=12, seed=8, flux="central",
                     problem="advection2d", problem_params={"ux": 0.9, "uy": 1.2})
    assert verify_equivalence(s).passed


def test_2d_rejects_unsupported_flux():
    # Lax-Friedrichs on a zero-speed axis, refused as in 1-d
    s = EquivSetting(dimension=2, K=1, n_cells=8, flux="lax_friedrichs",
                     problem="advection2d", problem_params={"ux": 0.0, "uy": 1.0})
    with pytest.raises(ValueError, match=r"zero speed.*ux = 0"):
        verify_equivalence(s)


@pytest.mark.parametrize("lf_speed", [None, 2.0])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_2d_equivalence_lax_friedrichs(K, lf_speed):
    """On each axis of nonzero speed Lax-Friedrichs is the two-point flux
    with partials (u +- a)/2, a = 1.1 max(|ux|, |uy|) unless set."""
    s = EquivSetting(dimension=2, K=K, n_cells=12, seed=K,
                     flux="lax_friedrichs", lf_speed=lf_speed,
                     problem="advection2d",
                     problem_params={"ux": 1.0, "uy": -0.5}, tolerance=1e-11)
    report = verify_equivalence(s)
    assert report.passed, [(f.family, f.relative) for f in report.families]
