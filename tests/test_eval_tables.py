"""Tabulated basis evaluation: one cached, read-only coefficient matrix per
basis, K and derivative order (``af.basis_table``, ``dg.phi_table``,
``equiv._psi``), evaluated with ``npp.polyval``.  That each table is its
exact value correctly rounded is checked in ``test_exact_tables.py``; the
reference here is the three-operand einsum the 2-d AF evaluation
(``af_evaluator_2d``) contracted with before its two matrix products.
"""

import numpy as np
import pytest
from helpers import polynomials
from numpy.polynomial import polynomial as npp

from afdg import af, dg, equiv, poly
from afdg.mesh import (AfState1D, AfState2D, DgState1D, DgState2D, Grid1D,
                       Grid2D)
from afdg.problems import NumericalFluxSpec, burgers

POINT_SETS = (
    poly.gauss_legendre_rule(3).nodes,
    np.linspace(-0.5, 0.5, 7),
    np.array([-0.5, 0.5]),
    np.random.default_rng(5).uniform(-0.5, 0.5, 11),
)


def polynomial_values(rows, x, d):
    """Row p: the d-th derivative of the polynomial of ``rows[p]`` at x,
    one numpy ``Polynomial`` at a time."""
    return np.array([p.deriv(d)(x) for p in polynomials(rows)])


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_tables_are_read_only_and_match_polyspec_bit_for_bit(K, d):
    """Each table is cached and read-only, and evaluating all its rows at
    once gives, bit for bit, each row evaluated alone: the one-polynomial
    evaluation (once through the ``PolySpec`` class, which the exact rows
    replaced) that the batched ``npp.polyval`` stands for."""
    for build in (af.basis_table, dg.phi_table, equiv._psi):
        C = build(K, d)
        assert build(K, d) is C
        assert not C.flags.writeable
        with pytest.raises(ValueError):
            C[0, 0] = 1.0
        for x in POINT_SETS:
            want = np.array([npp.polyval(x, row) for row in C])
            assert npp.polyval(x, C.T).tobytes() == want.tobytes()
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
    rows = af.basis_table(K, 0)
    want = np.einsum("ijpq,pa,qb->ijab", af._dof_tensor_2d(state),
                     polynomial_values(rows, xi, dxi),
                     polynomial_values(rows, eta, deta))
    got = af.af_evaluator_2d(state)(xi, eta, dxi=dxi, deta=deta)
    assert got.shape == want.shape == (n, n + 1, 5, 3)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


CONSTRUCTORS = ("_exact", "_inverse", "inner", "end_values", "rounded", "table")


def test_warm_evaluations_build_no_table(monkeypatch):
    """A second call of each evaluation calls none of ``poly``'s exact
    table constructors: every table it reads is cached.  The nonlinear 1-d
    updates, whose quadrature rule K fixes, also evaluate no table
    (``npp.polyval``): they read its values at the rule's nodes cached."""
    calls = dict.fromkeys(CONSTRUCTORS + ("polyval",), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in CONSTRUCTORS:
        monkeypatch.setattr(poly, name, counted(name, getattr(poly, name)))
    monkeypatch.setattr(npp, "polyval", counted("polyval", npp.polyval))
    rng = np.random.default_rng(2)
    af_state = AfState2D(Grid2D.square(8), 1, rng.uniform(-1, 1, (8, 8)),
                         rng.uniform(-1, 1, (8, 8, 1)),
                         rng.uniform(-1, 1, (8, 8, 1)),
                         rng.uniform(-1, 1, (8, 8, 1, 1)))
    dg_2d = DgState2D(Grid2D.square(8), 1, rng.uniform(-1, 1, (8, 8, 2, 2)))
    dg_1d = DgState1D(Grid1D(0, 1, 8), 2, rng.uniform(-1, 1, (8, 3, 1)) + 3.0)
    af_1d = AfState1D.from_tensor(Grid1D(0, 1, 8), 3,
                                  rng.uniform(-1, 1, (8, 4, 1)) + 3.0)
    fx, fy = NumericalFluxSpec.alpha(0.8, 0.2), NumericalFluxSpec.upwind()
    lf = NumericalFluxSpec.lax_friedrichs(5.0)
    runs = {
        "af_evaluator_2d": lambda: af.af_evaluator_2d(af_state)(
            np.array([0.0, 0.5]), np.array([0.0, 0.5]), dxi=1),
        "lemma_checks": lambda: equiv.lemma_checks(dg_2d, 1.1, 0.9, fx, fy),
        "dg_rhs_1d": lambda: dg.dg_rhs_1d(dg_1d, burgers(), lf),
        "project_flux_F": lambda: equiv.project_flux_F(dg_1d, burgers(), lf),
        "af_rhs_1d": lambda: af.af_rhs_1d(af_1d, burgers(), lf),
    }
    evaluating = {"af_evaluator_2d", "lemma_checks"}
    for name, run in runs.items():
        run()
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert not any(calls[c] for c in CONSTRUCTORS), (name, calls)
        assert (calls["polyval"] > 0) == (name in evaluating), (name, calls)
    # the counter sees a cold build
    af.af_ops.cache_clear()
    af.af_ops(3)
    assert calls["rounded"] and calls["inner"]
