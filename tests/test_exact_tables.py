"""Every linear operator table is its exact value, correctly rounded.

The references are built here in exact rational arithmetic from the
defining conditions of each polynomial family (orthogonality and end
values for the Legendre modes and the Radau pair, the dual conditions for
the AF basis), solved by this file's own elimination (``helpers.frac_*``),
never by ``afdg.poly``'s constructions.  ``float`` of a Fraction is correctly
rounded, so each table must equal, entry for entry, ``float`` of its
reference.
"""

from fractions import Fraction

import numpy as np
import pytest
from helpers import (frac_cell_integral, frac_derivative, frac_dual_basis,
                     frac_moment_weight, frac_polymul, frac_radau_pair,
                     frac_solve, frac_value, gram_schmidt_legendre)
from numpy.polynomial import polynomial as npp

from afdg import af, dg, equiv, poly
from afdg.mesh import _FILL_RULE, _af_moment_weights, _dg_projection_weights

HALF = Fraction(1, 2)
KS = [1, 2, 3, 4, 5]
WEIGHTS = [(1.0, 0.0), (0.0, 1.0), (0.7, 0.3), (0.5, 0.5)]


def pad(p, n):
    return list(p) + [Fraction(0)] * (n - len(p))


def derivative(p, d):
    for _ in range(d):
        p = frac_derivative(p)
    return p


def integral(p, q):
    return frac_cell_integral(frac_polymul(p, q))


def legendre(K):
    return [pad(gram_schmidt_legendre(n), K + 1) for n in range(K + 1)]


def coefficient_rows(polys, d):
    """The d-th derivatives of ``polys``, padded to a common length."""
    rows = [derivative(p, d) for p in polys]
    n = max(len(r) for r in rows)
    return [pad(r, n) for r in rows]


def dg_exact(K):
    """(mass, stiffness, value_left, value_right) of the modes."""
    phi = legendre(K)
    mass = [integral(p, p) for p in phi]
    stiffness = [[integral(frac_derivative(pm), pn) for pn in phi]
                 for pm in phi]
    return (mass, stiffness, [frac_value(p, -HALF) for p in phi],
            [frac_value(p, HALF) for p in phi])


def monomial_to_modal(K):
    """Columns j: the modal coefficients of xi^j, solved from
    sum_n a_n phi_n = xi^j."""
    phi = legendre(K)
    mat = [[phi[n][j] for n in range(K + 1)] for j in range(K + 1)]
    cols = [frac_solve(mat, [Fraction(int(i == j)) for i in range(K + 1)])
            for j in range(K + 1)]
    return [[cols[j][n] for j in range(K + 1)] for n in range(K + 1)]


def dg_stencil(K):
    mass, stiffness, vl, vr = dg_exact(K)
    m = K + 1
    S = [[[Fraction(0)] * (3 * m) for _ in range(m)] for _ in range(3)]
    for a in range(m):
        for b in range(m):
            S[0][a][m + b] = stiffness[a][b] / mass[a]
            S[1][a][b] = vl[a] * vr[b] / mass[a]
            S[1][a][m + b] = -vr[a] * vr[b] / mass[a]
            S[2][a][m + b] = vl[a] * vl[b] / mass[a]
            S[2][a][2 * m + b] = -vr[a] * vl[b] / mass[a]
    return S


def af_exact(K):
    """(d_plus, d_minus, mom_w, w_ends, dw) of the AF basis."""
    B = frac_dual_basis(K)
    w = [pad(frac_moment_weight(k), K) for k in range(K)]
    dB = [frac_derivative(b) for b in B]
    mom_w = [[frac_value(wk, HALF) * frac_value(b, HALF)
              - frac_value(wk, -HALF) * frac_value(b, -HALF)
              - integral(frac_derivative(wk), b) for b in B] for wk in w]
    w_ends = [[-frac_value(wk, -HALF), frac_value(wk, HALF)] for wk in w]
    return ([frac_value(b, HALF) for b in dB],
            [frac_value(b, -HALF) for b in dB], mom_w, w_ends,
            coefficient_rows(w, 1))


def af_stencil(K):
    d_plus, d_minus, mom_w, _, _ = af_exact(K)
    m = K + 1
    S = [[[Fraction(0)] * (3 * m) for _ in range(m)] for _ in range(3)]
    for k in range(K):
        for p in range(K + 2):
            S[0][1 + k][m + p] = -mom_w[k][p]
    for p in range(K + 2):
        S[1][0][p] = -d_plus[p]
        S[2][0][m + p] = -d_minus[p]
    return S


def moment_transfer(K):
    return [[integral(frac_moment_weight(k), p) for p in legendre(K)]
            for k in range(K)]


def map_stencil(K, weights):
    _, _, vl, vr = dg_exact(K)
    w_plus, w_minus = map(Fraction, weights)
    m = K + 1
    T = [[Fraction(0)] * (3 * m) for _ in range(m)]
    T[0][:m] = [w_plus * v for v in vr]
    T[0][m:2 * m] = [w_minus * v for v in vl]
    for k, row in enumerate(moment_transfer(K)):
        T[1 + k][m:2 * m] = row
    return T


def psi(K):
    return [pad(p, K + 2) for p in legendre(K)] + list(frac_radau_pair(K))


# name -> (the table, its exact value), both as functions of K
TABLES = {
    "dg_basis.mass": (lambda K: dg.dg_basis(K).mass,
                      lambda K: dg_exact(K)[0]),
    "dg_basis.stiffness": (lambda K: dg.dg_basis(K).stiffness,
                           lambda K: dg_exact(K)[1]),
    "dg_basis.ends": (lambda K: dg.dg_basis(K).ends,
                      lambda K: dg_exact(K)[2:]),
    "monomial_to_modal": (dg.monomial_to_modal, monomial_to_modal),
    "dg_stencil_1d": (dg.dg_stencil_1d, dg_stencil),
    "af_ops.d_plus": (lambda K: af.af_ops(K).d_plus,
                      lambda K: af_exact(K)[0]),
    "af_ops.d_minus": (lambda K: af.af_ops(K).d_minus,
                       lambda K: af_exact(K)[1]),
    "af_ops.mom_w": (lambda K: af.af_ops(K).mom_w,
                     lambda K: af_exact(K)[2]),
    "af_ops.w_ends": (lambda K: af.af_ops(K).w_ends,
                      lambda K: af_exact(K)[3]),
    "af_ops.dw": (lambda K: af.af_ops(K).dw, lambda K: af_exact(K)[4]),
    "af_stencil_1d": (af.af_stencil_1d, af_stencil),
    "moment_transfer_matrix": (equiv.moment_transfer_matrix,
                               moment_transfer),
}
for _d in (0, 1, 2):
    TABLES[f"phi_table[d={_d}]"] = (
        lambda K, d=_d: dg.phi_table(K, d),
        lambda K, d=_d: coefficient_rows(legendre(K), d))
    TABLES[f"basis_table[d={_d}]"] = (
        lambda K, d=_d: af.basis_table(K, d),
        lambda K, d=_d: coefficient_rows(frac_dual_basis(K), d))
    TABLES[f"_psi[d={_d}]"] = (lambda K, d=_d: equiv._psi(K, d),
                               lambda K, d=_d: coefficient_rows(psi(K), d))
for _w in WEIGHTS:
    TABLES[f"map_stencil_1d{_w}"] = (
        lambda K, w=_w: equiv.map_stencil_1d(K, w),
        lambda K, w=_w: map_stencil(K, w))


def correctly_rounded(exact) -> np.ndarray:
    return np.vectorize(float, otypes=[float])(np.array(exact, dtype=object))


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("K", KS)
def test_table_is_its_exact_value_correctly_rounded(K, name):
    table, exact = TABLES[name]
    got, want = table(K), correctly_rounded(exact(K))
    assert got.dtype == np.float64 and got.shape == want.shape
    assert not got.flags.writeable
    bad = np.argwhere(got != want)
    assert len(bad) == 0, (f"{len(bad)} entries off, first at "
                           f"{tuple(bad[0])}: {got[tuple(bad[0])]!r} "
                           f"!= {want[tuple(bad[0])]!r}")


@pytest.mark.parametrize("K", KS)
def test_families_are_their_exact_rows(K):
    """The exact rows themselves: the Legendre modes, the Radau pair, the
    moment weights and the AF dual basis."""
    assert [list(r) for r in poly.legendre(K)] == legendre(K)
    assert [list(r) for r in poly.radau_pair(K)] == list(frac_radau_pair(K))
    assert ([list(r) for r in poly.moment_weights(K)]
            == [pad(frac_moment_weight(k), K) for k in range(K)])
    assert [list(r) for r in poly.moment_dual_basis(K)] == frac_dual_basis(K)


@pytest.mark.parametrize("K", KS)
def test_fills_read_the_rounded_rows(K):
    """The fills' quadrature weights are the correctly rounded Legendre
    rows, mass and moment weights, evaluated at the rule's nodes."""
    nodes, weights = _FILL_RULE.nodes, _FILL_RULE.weights
    mass = correctly_rounded(dg_exact(K)[0])
    phi = correctly_rounded(legendre(K))
    want = npp.polyval(nodes, phi.T) * weights / mass[:, None]
    assert _dg_projection_weights(K).tobytes() == want.tobytes()
    w = correctly_rounded([pad(frac_moment_weight(k), K) for k in range(K)])
    want = npp.polyval(nodes, w.T) * weights
    assert _af_moment_weights(K, _FILL_RULE).tobytes() == want.tobytes()
