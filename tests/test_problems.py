"""Fluxes, Jacobian splittings and flux inversion."""

import dataclasses

import numpy as np
import pytest
from helpers import eigen_split

from afdg.problems import (FluxInversionError, NumericalFluxSpec,
                           advection1d, builtin_problems, flux_partials,
                           flux_spec, invert_flux, lax_friedrichs_speed,
                           numerical_flux)


def scalar_problems():
    cat = builtin_problems()
    return [cat["advection1d"](u=2.0), cat["burgers"](), cat["expflux"]()]


# ---------------------------------------------------------------------------
# Jacobian splittings


def test_advection_split_sign():
    prob = builtin_problems()["advection1d"](u=2.0)
    jp, jm = prob.split(np.array([0.3]))
    assert jp == pytest.approx(2.0) and jm == pytest.approx(0.0)


def test_acoustics_split_matches_eigendecomposition():
    prob = builtin_problems()["acoustics2x2"](c=1.0)
    jp, jm = prob.split(None)
    assert np.allclose(jp, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-14)
    assert np.allclose(jm, -0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-14)
    # oracle: eigendecomposition with clipped eigenvalues
    J = prob.jacobian(None)
    jp2, jm2 = eigen_split(J)
    assert np.allclose(jp, jp2, atol=1e-13) and np.allclose(jm, jm2, atol=1e-13)


@pytest.mark.parametrize("prob", scalar_problems(), ids=lambda p: p.name)
def test_split_reassembles_jacobian(prob):
    rng = np.random.default_rng(3)
    q = rng.uniform(0.5, 2.0, 1000)
    jp, jm = prob.split(q)
    assert np.max(np.abs(jp + jm - prob.jacobian(q))) < 1e-12
    assert np.all(jp >= -1e-13) and np.all(jm <= 1e-13)


def test_burgers_inverse_on_positive_branch():
    prob = builtin_problems()["burgers"]()
    q = np.linspace(0.3, 3.0, 50)
    assert np.allclose(invert_flux(prob, prob.flux(q)), q, atol=1e-13)
    assert invert_flux(prob, 2.0) == pytest.approx(2.0)


def test_burgers_inverse_rejects_negative():
    prob = builtin_problems()["burgers"]()
    with pytest.raises(FluxInversionError):
        invert_flux(prob, -0.1)


def test_expflux_inverse():
    prob = builtin_problems()["expflux"]()
    assert invert_flux(prob, 1.0) == pytest.approx(0.0)
    with pytest.raises(FluxInversionError):
        invert_flux(prob, 0.0)


# ---------------------------------------------------------------------------
# numerical fluxes


def test_upwind_advection_takes_left_state():
    prob = builtin_problems()["advection1d"](u=2.0)
    got = numerical_flux(NumericalFluxSpec.upwind(), prob,
                         np.array([[1.5]]), np.array([[-0.7]]))
    assert got == pytest.approx(2.0 * 1.5)


@pytest.mark.parametrize("prob", scalar_problems(), ids=lambda p: p.name)
@pytest.mark.parametrize("spec", [
    NumericalFluxSpec.upwind(), NumericalFluxSpec.central(),
    NumericalFluxSpec.alpha(0.7, 0.3), NumericalFluxSpec.lax_friedrichs(3.0),
], ids=lambda s: s.kind)
def test_flux_consistency(prob, spec):
    q = np.array([[0.9], [1.4]])
    got = numerical_flux(spec, prob, q, q)
    assert np.allclose(got, prob.flux(q), atol=1e-14)


def test_lax_friedrichs_value_example():
    prob = builtin_problems()["burgers"]()
    got = numerical_flux(NumericalFluxSpec.lax_friedrichs(2.0), prob,
                         np.array([[1.0]]), np.array([[2.0]]))
    assert got == pytest.approx(0.25)


def test_alpha_equals_upwind_and_central_bitwise():
    prob = builtin_problems()["advection1d"](u=1.7)
    rng = np.random.default_rng(9)
    ql = rng.uniform(-1, 1, (64, 1))
    qr = rng.uniform(-1, 1, (64, 1))
    up = numerical_flux(NumericalFluxSpec.upwind(), prob, ql, qr)
    a10 = numerical_flux(NumericalFluxSpec.alpha(1.0, 0.0), prob, ql, qr)
    assert np.array_equal(up, a10)
    ce = numerical_flux(NumericalFluxSpec.central(), prob, ql, qr)
    a55 = numerical_flux(NumericalFluxSpec.alpha(0.5, 0.5), prob, ql, qr)
    assert np.array_equal(ce, a55)


def test_alpha_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        NumericalFluxSpec.alpha(0.7, 0.4)


def test_lf_needs_positive_speed():
    with pytest.raises(ValueError):
        NumericalFluxSpec.lax_friedrichs(0.0)


@pytest.mark.parametrize("prob", scalar_problems(), ids=lambda p: p.name)
@pytest.mark.parametrize("spec", [
    NumericalFluxSpec.central(), NumericalFluxSpec.alpha(0.6, 0.4),
    NumericalFluxSpec.lax_friedrichs(3.0),
], ids=lambda s: s.kind)
def test_partials_match_finite_differences(prob, spec):
    rng = np.random.default_rng(17)
    ql = rng.uniform(0.6, 1.9, (200, 1))
    qr = rng.uniform(0.6, 1.9, (200, 1))
    dl, dr = flux_partials(spec, prob, ql, qr)
    h = 1e-6
    fd_l = (numerical_flux(spec, prob, ql + h, qr)
            - numerical_flux(spec, prob, ql - h, qr)) / (2 * h)
    fd_r = (numerical_flux(spec, prob, ql, qr + h)
            - numerical_flux(spec, prob, ql, qr - h)) / (2 * h)
    scale = np.maximum(np.abs(fd_l), 1.0)
    assert np.max(np.abs(dl - fd_l) / scale) < 1e-6
    assert np.max(np.abs(dr - fd_r) / np.maximum(np.abs(fd_r), 1.0)) < 1e-6


def test_upwind_partials_positive_branch():
    prob = builtin_problems()["burgers"]()
    ql = np.array([[1.0]])
    qr = np.array([[1.5]])
    dl, dr = flux_partials(NumericalFluxSpec.upwind(), prob, ql, qr)
    assert dl == pytest.approx(1.0) and dr == pytest.approx(0.0)


@pytest.mark.parametrize("u", [1.7, -0.6, 0.0, -0.0, 2])
@pytest.mark.parametrize("shapes", [((), ()), ((64, 1), (64, 1)),
                                    ((4, 1), (1, 3)), ((), (5,))])
def test_constant_speed_upwind_matches_the_generic_path(u, shapes):
    """Advection's upwind flux and partials skip the sonic check; without
    its ``advection_speed`` the same problem takes the generic path, and
    the two agree in shape, dtype and every bit."""
    prob = builtin_problems()["advection1d"](u=u)
    generic = dataclasses.replace(prob, advection_speed=None)
    rng = np.random.default_rng(21)
    ql, qr = (rng.uniform(-1, 1, s) if s else 0.25 for s in shapes)
    up = NumericalFluxSpec.upwind()
    pairs = [(numerical_flux(up, prob, ql, qr),
              numerical_flux(up, generic, ql, qr)),
             *zip(flux_partials(up, prob, ql, qr),
                  flux_partials(up, generic, ql, qr))]
    for got, want in pairs:
        assert type(got) is type(want)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_upwind_burgers_across_a_sonic_state_still_raises():
    prob = builtin_problems()["burgers"]()
    ql, qr = np.array([[0.8], [-0.5]]), np.array([[0.9], [-0.7]])
    with pytest.raises(ValueError, match="sonic"):
        numerical_flux(NumericalFluxSpec.upwind(), prob, ql, qr)
    with pytest.raises(ValueError, match="sonic"):
        flux_partials(NumericalFluxSpec.upwind(), prob, ql, qr)


def test_lf_partials_are_a_jacobian_splitting():
    # with a above the wave speed, d/dq_L >= 0 and d/dq_R <= 0
    prob = builtin_problems()["burgers"]()
    rng = np.random.default_rng(2)
    ql = rng.uniform(0.5, 2.0, (100, 1))
    qr = rng.uniform(0.5, 2.0, (100, 1))
    a = lax_friedrichs_speed(prob, np.concatenate([ql, qr]))
    dl, dr = flux_partials(NumericalFluxSpec.lax_friedrichs(a), prob, ql, qr)
    assert np.all(dl >= 0) and np.all(dr <= 0)
    assert np.allclose(dl + dr, 0.5 * (prob.jacobian(ql) + prob.jacobian(qr)),
                       atol=1e-13)


def test_lf_speed_safety_factor():
    prob = builtin_problems()["burgers"]()
    data = np.array([0.5, 1.0, 2.0])
    assert lax_friedrichs_speed(prob, data) == pytest.approx(2.2)


# ---------------------------------------------------------------------------
# advection weights and the flux names


@pytest.mark.parametrize("spec", [
    NumericalFluxSpec.upwind(), NumericalFluxSpec.central(),
    NumericalFluxSpec.alpha(0.7, 0.3), NumericalFluxSpec.lax_friedrichs(2.0),
], ids=lambda s: s.kind)
def test_zero_speed_weights_are_the_upwind_pair(spec):
    assert spec.advection_weights(0.0) == (1.0, 0.0)
    assert spec.advection_weights(-0.0) == (1.0, 0.0)


@pytest.mark.parametrize("spec", [
    NumericalFluxSpec.upwind(), NumericalFluxSpec.central(),
    NumericalFluxSpec.alpha(0.7, 0.3), NumericalFluxSpec.lax_friedrichs(2.0),
], ids=lambda s: s.kind)
@pytest.mark.parametrize("u", [1.7, -0.6, 0, -0.0, 2])
def test_advection_partials_are_flux_partials_bit_for_bit(spec, u):
    """The constant-speed partials, and the generic path's partials of the
    same problem without its ``advection_speed``."""
    got = spec.advection_partials(u)
    assert all(type(d) is float for d in got)
    prob = advection1d(u)
    generic = dataclasses.replace(prob, advection_speed=None)
    for p in (prob, generic):
        want = [float(d) for d in flux_partials(spec, p, 0.0, 0.0)]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_flux_spec_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown flux 'bogus'"):
        flux_spec("bogus")
