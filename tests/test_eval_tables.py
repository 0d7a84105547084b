"""Tabulated basis evaluation: one cached, read-only coefficient matrix per
basis, K and derivative order (``af.basis_table``, ``dg.phi_table``,
``equiv._psi``), evaluated with ``npp.polyval``.  The references are the
per-``PolySpec`` evaluations the tables replace, and the three-operand
einsum the 2-d AF evaluation (``af_evaluator_2d``) contracted with before
its two matrix products.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from afdg import af, dg, equiv, poly
from afdg.mesh import AfState2D, DgState1D, DgState2D, Grid1D, Grid2D
from afdg.problems import NumericalFluxSpec, burgers

POINT_SETS = (
    poly.gauss_legendre_rule(3).nodes,
    np.linspace(-0.5, 0.5, 7),
    np.array([-0.5, 0.5]),
    np.random.default_rng(5).uniform(-0.5, 0.5, 11),
)


def polyspec_values(polys, x, d):
    """Row p: the d-th derivative of ``polys[p]`` at x, one PolySpec at a
    time."""
    rows = []
    for p in polys:
        for _ in range(d):
            p = p.derivative()
        rows.append(p(x))
    return np.array(rows)


def tables(K, d):
    """(table, the polynomials it stacks) for the AF, DG and psi bases."""
    return (
        (af.basis_table(K, d), af.af_ops(K).basis.functions()),
        (dg.phi_table(K, d), dg.dg_basis(K).phi),
        (equiv._psi(K, d), (*dg.dg_basis(K).phi, *poly.radau_pair(K))),
    )


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_tables_are_read_only_and_match_polyspec_bit_for_bit(K, d):
    for C, polys in tables(K, d):
        assert not C.flags.writeable
        for x in POINT_SETS:
            got = npp.polyval(x, C.T)
            want = polyspec_values(polys, x, d)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    for x in POINT_SETS:
        assert (af.af_ops(K).basis_values(x, d).tobytes()
                == npp.polyval(x, af.basis_table(K, d).T).tobytes())


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("dxi, deta", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_af_eval_2d_matches_the_einsum(K, dxi, deta):
    rng = np.random.default_rng(K)
    n = 6
    r = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    state = AfState2D(Grid2D(0.0, 1.0, n, 0.0, 1.5, n + 1), K, r(n, n + 1),
                      r(n, n + 1, K), r(n, n + 1, K), r(n, n + 1, K, K))
    xi, eta = np.linspace(-0.5, 0.5, 5), poly.gauss_legendre_rule(3).nodes
    funcs = af.af_ops(K).basis.functions()
    want = np.einsum("ijpq,pa,qb->ijab", af._dof_tensor_2d(state),
                     polyspec_values(funcs, xi, dxi),
                     polyspec_values(funcs, eta, deta))
    got = af.af_evaluator_2d(state)(xi, eta, dxi=dxi, deta=deta)
    assert got.shape == want.shape == (n, n + 1, 5, 3)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_warm_evaluations_build_and_differentiate_no_polyspec(monkeypatch):
    calls = {"derivative": 0, "built": 0}
    derivative = poly.PolySpec.derivative
    post_init = poly.PolySpec.__post_init__

    def counted(name, fn):
        def wrapper(self):
            calls[name] += 1
            return fn(self)
        return wrapper

    monkeypatch.setattr(poly.PolySpec, "derivative",
                        counted("derivative", derivative))
    monkeypatch.setattr(poly.PolySpec, "__post_init__",
                        counted("built", post_init))
    rng = np.random.default_rng(2)
    af_state = AfState2D(Grid2D.square(8), 1, rng.uniform(-1, 1, (8, 8)),
                         rng.uniform(-1, 1, (8, 8, 1)),
                         rng.uniform(-1, 1, (8, 8, 1)),
                         rng.uniform(-1, 1, (8, 8, 1, 1)))
    dg_2d = DgState2D(Grid2D.square(8), 1, rng.uniform(-1, 1, (8, 8, 2, 2)))
    dg_1d = DgState1D(Grid1D(0, 1, 8), 2, rng.uniform(-1, 1, (8, 3, 1)) + 3.0)
    fx, fy = NumericalFluxSpec.alpha(0.8, 0.2), NumericalFluxSpec.upwind()
    lf = NumericalFluxSpec.lax_friedrichs(5.0)
    runs = {
        "af_evaluator_2d": lambda: af.af_evaluator_2d(af_state)(
            np.array([0.0, 0.5]), np.array([0.0, 0.5]), dxi=1),
        "lemma_checks": lambda: equiv.lemma_checks(dg_2d, 1.1, 0.9, fx, fy),
        "dg_rhs_1d": lambda: dg.dg_rhs_1d(dg_1d, burgers(), lf),
        "project_flux_F": lambda: equiv.project_flux_F(dg_1d, burgers(), lf),
    }
    for name, run in runs.items():
        run()
        calls.update(derivative=0, built=0)
        run()
        assert calls == {"derivative": 0, "built": 0}, (name, calls)
