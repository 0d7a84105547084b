"""``problems.flux_spec`` is the one name -> flux table.  It replaced three
constructions: the driver's ``_FLUXES``, the verifier's
``_flux_spec_from_setting`` and the flux if-chain of its 2-d setting.  Those
are copied below verbatim as the reference; the table must give the same
spec for every name, axis and weight."""

import numpy as np
import pytest

from afdg import driver
from afdg.driver import RunConfig
from afdg.equiv import EquivSetting
from afdg.mesh import Grid1D, fill_dg_1d
from afdg.problems import (FLUX_NAMES, NumericalFluxSpec, ProblemSpec,
                           builtin_problems, flux_spec, lax_friedrichs_speed)

# ---------------------------------------------------------------------------
# the replaced constructions (reference)

_FLUXES = {
    "upwind": lambda cfg, problem, values: NumericalFluxSpec.upwind(),
    "central": lambda cfg, problem, values: NumericalFluxSpec.central(),
    "alpha": lambda cfg, problem, values: NumericalFluxSpec.alpha(
        cfg.alpha_plus, 1.0 - cfg.alpha_plus),
    "lax_friedrichs": lambda cfg, problem, values:
        NumericalFluxSpec.lax_friedrichs(lax_friedrichs_speed(problem, values)),
}


def _flux_spec_from_setting(s: EquivSetting, problem: ProblemSpec,
                            state=None) -> NumericalFluxSpec:
    if s.flux == "upwind":
        return NumericalFluxSpec.upwind()
    if s.flux == "central":
        return NumericalFluxSpec.central()
    if s.flux == "alpha":
        return NumericalFluxSpec.alpha(s.alpha_plus, 1.0 - s.alpha_plus)
    if s.flux == "lax_friedrichs":
        a = s.lf_speed
        if a is None and state is not None:
            a = lax_friedrichs_speed(problem, state.coeffs[:, 0, :])
        return NumericalFluxSpec.lax_friedrichs(a)
    raise ValueError(f"unknown flux {s.flux!r}")


def _verify_2d_fluxes(s: EquivSetting):
    if s.flux == "upwind":
        fx = fy = NumericalFluxSpec.upwind()
    elif s.flux == "central":
        fx = fy = NumericalFluxSpec.central()
    elif s.flux == "alpha":
        fx = NumericalFluxSpec.alpha(s.alpha_plus, 1.0 - s.alpha_plus)
        fy = NumericalFluxSpec.alpha(s.beta_plus, 1.0 - s.beta_plus)
    else:
        raise ValueError(f"unsupported 2-d flux {s.flux!r}")
    return fx, fy


# ---------------------------------------------------------------------------


ALPHAS = [1.0, 0.7, 0.25, 0.0]


def test_flux_names_are_the_table():
    assert FLUX_NAMES == tuple(_FLUXES)


@pytest.mark.parametrize("alpha_plus", ALPHAS)
@pytest.mark.parametrize("name", FLUX_NAMES)
@pytest.mark.parametrize("problem", ["advection1d", "advection2d"])
def test_driver_flux_matches_the_replaced_table(problem, name, alpha_plus):
    # 2-d speeds with |ux| >= |uy|, where the 2-d constant did not change
    cfg = RunConfig(problem=problem, u=-0.8, ux=1.3, uy=-0.4, flux=name,
                    alpha_plus=alpha_plus)
    prob = driver.make_problem(cfg)
    values = np.linspace(-1.0, 2.0, 7)
    want = _FLUXES[name](cfg, prob, values)
    got = driver.make_flux(cfg, prob, values)
    assert got == want
    for u in cfg.speeds:
        assert got.advection_weights(u) == want.advection_weights(u)


@pytest.mark.parametrize("lf_speed", [None, 2.5])
@pytest.mark.parametrize("alpha_plus", ALPHAS)
@pytest.mark.parametrize("name", FLUX_NAMES)
def test_1d_setting_flux_matches_the_replaced_construction(name, alpha_plus,
                                                           lf_speed):
    s = EquivSetting(flux=name, alpha_plus=alpha_plus, lf_speed=lf_speed,
                     problem="burgers")
    prob = builtin_problems()["burgers"]()
    state = fill_dg_1d(Grid1D(0.0, 1.0, 8), 2,
                       lambda x: 1.2 + 0.4 * np.sin(2 * np.pi * x))
    a = lf_speed
    if name == "lax_friedrichs" and a is None:
        a = lax_friedrichs_speed(prob, state.coeffs[:, 0, :])
    assert flux_spec(name, alpha_plus, a) == _flux_spec_from_setting(
        s, prob, state)


@pytest.mark.parametrize("beta_plus", ALPHAS)
@pytest.mark.parametrize("alpha_plus", ALPHAS)
@pytest.mark.parametrize("name", ["upwind", "central", "alpha"])
def test_2d_setting_fluxes_match_the_replaced_chain(name, alpha_plus,
                                                    beta_plus):
    s = EquivSetting(dimension=2, flux=name, alpha_plus=alpha_plus,
                     beta_plus=beta_plus)
    fx, fy = _verify_2d_fluxes(s)
    assert flux_spec(name, alpha_plus) == fx
    assert flux_spec(name, beta_plus) == fy
    for u in (1.0, -0.6):
        assert flux_spec(name, alpha_plus).advection_weights(u) == \
            fx.advection_weights(u)
