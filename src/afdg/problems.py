"""PDE definitions and two-point numerical fluxes.

A ProblemSpec bundles the flux, its Jacobian and the upwind splitting
J = J+ + J- (sign split of f' for scalars, eigenvalue clipping for
systems).  Numerical fluxes are two-point functions with analytic
partial derivatives with respect to the left/right trace; consistency
fhat(q, q) = f(q) holds for every kind.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ProblemSpec", "NumericalFluxSpec", "builtin_problems",
    "advection1d", "advection2d", "burgers", "expflux", "acoustics2x2",
    "numerical_flux", "invert_flux", "FluxInversionError", "FLUX_NAMES",
    "flux_spec", "check_weights",
]


class FluxInversionError(ValueError):
    """Raised when a flux value has no preimage on the declared branch."""


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    n_components: int
    flux: Callable
    jacobian: Callable
    split: Callable                      # q -> (J_plus, J_minus)
    flux_inverse: Callable | None = None
    max_speed: Callable | None = None    # q -> max |eigenvalue of J|
    linear: bool = False
    advection_speed: float | None = None       # scalar advection only
    advection_speed_y: float | None = None     # 2-d advection only

    @property
    def is_scalar(self) -> bool:
        return self.n_components == 1


def _scalar_problem(name, f, fprime, finv=None, linear=False, speed=None):
    def split(q):
        j = fprime(q)
        return np.maximum(j, 0.0), np.minimum(j, 0.0)

    return ProblemSpec(name=name, n_components=1, flux=f, jacobian=fprime,
                       split=split, flux_inverse=finv,
                       max_speed=lambda q: np.max(np.abs(fprime(q))),
                       linear=linear, advection_speed=speed)


def advection1d(u: float = 1.0) -> ProblemSpec:
    return _scalar_problem(f"advection1d(u={u})",
                           f=lambda q: u * q,
                           fprime=lambda q: u * np.ones_like(np.asarray(q, float)),
                           finv=(lambda y: y / u) if u != 0 else None,
                           linear=True, speed=u)


def advection2d(ux: float = 1.0, uy: float = 1.0) -> ProblemSpec:
    spec = _scalar_problem(f"advection2d(ux={ux},uy={uy})",
                           f=lambda q: ux * q,
                           fprime=lambda q: ux * np.ones_like(np.asarray(q, float)),
                           linear=True, speed=ux)
    return dataclasses.replace(spec, advection_speed_y=uy,
                               max_speed=lambda q: max(abs(ux), abs(uy)))


def burgers() -> ProblemSpec:
    def finv(y):
        y = np.asarray(y, dtype=float)
        if np.any(y < 0):
            raise FluxInversionError(
                "flux value below 0 is outside the range of q^2/2 on q > 0")
        return np.sqrt(2.0 * y)

    return _scalar_problem("burgers",
                           f=lambda q: 0.5 * np.asarray(q, float) ** 2,
                           fprime=lambda q: np.asarray(q, float),
                           finv=finv)


def expflux() -> ProblemSpec:
    def finv(y):
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0):
            raise FluxInversionError("exp flux takes positive values only")
        return np.log(y)

    return _scalar_problem("expflux",
                           f=lambda q: np.exp(np.asarray(q, float)),
                           fprime=lambda q: np.exp(np.asarray(q, float)),
                           finv=finv)


def acoustics2x2(c: float = 1.0) -> ProblemSpec:
    """Linear 2x2 system with J = [[0, c], [c, 0]], eigenvalues +-c."""
    J = np.array([[0.0, c], [c, 0.0]])
    Jp = 0.5 * c * np.array([[1.0, 1.0], [1.0, 1.0]])
    Jm = -0.5 * c * np.array([[1.0, -1.0], [-1.0, 1.0]])
    Jinv = np.linalg.inv(J)

    def flux(q):
        return np.asarray(q, float) @ J.T

    return ProblemSpec(name=f"acoustics2x2(c={c})", n_components=2,
                       flux=flux,
                       jacobian=lambda q: J,
                       split=lambda q: (Jp, Jm),
                       flux_inverse=lambda y: np.asarray(y, float) @ Jinv.T,
                       max_speed=lambda q: abs(c),
                       linear=True)


def builtin_problems() -> dict[str, Callable]:
    return {
        "advection1d": advection1d,
        "advection2d": advection2d,
        "burgers": burgers,
        "expflux": expflux,
        "acoustics2x2": acoustics2x2,
    }


# ---------------------------------------------------------------------------
# two-point numerical fluxes


@dataclass(frozen=True)
class NumericalFluxSpec:
    """Selector for fhat(q_L, q_R) plus its trace partial derivatives.

    kinds:
      upwind          sign-of-Jacobian one-sided choice
      central         arithmetic flux mean
      alpha_weighted  fhat = alpha_plus f(q_L) + alpha_minus f(q_R)
      lax_friedrichs  fhat = (f_L + f_R)/2 - a (q_R - q_L)/2, a > 0 fixed
    """

    kind: str
    alpha_plus: float = 1.0
    alpha_minus: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        if self.kind == "alpha_weighted" and \
                abs(self.alpha_plus + self.alpha_minus - 1.0) > 1e-14:
            raise ValueError("alpha weights must sum to 1")
        if self.kind == "lax_friedrichs" and not self.a > 0:
            raise ValueError("Lax-Friedrichs needs a positive speed bound")

    @staticmethod
    def upwind() -> "NumericalFluxSpec":
        return NumericalFluxSpec("upwind")

    @staticmethod
    def central() -> "NumericalFluxSpec":
        return NumericalFluxSpec("central")

    @staticmethod
    def alpha(alpha_plus: float, alpha_minus: float) -> "NumericalFluxSpec":
        return NumericalFluxSpec("alpha_weighted", alpha_plus, alpha_minus)

    @staticmethod
    def lax_friedrichs(a: float) -> "NumericalFluxSpec":
        return NumericalFluxSpec("lax_friedrichs", a=a)

    def advection_partials(self, u: float) -> tuple[float, float]:
        """(d_L, d_R) of this flux for advection at speed u, the flux weights
        of a 2-d axis: finite at every speed ((a/2, -a/2) for LF at u = 0)."""
        u = float(u)
        if self.kind == "lax_friedrichs":
            return 0.5 * (u + self.a), 0.5 * (u - self.a)
        if self.kind == "central":
            return 0.5 * u, 0.5 * u
        if self.kind == "alpha_weighted":
            return self.alpha_plus * u, self.alpha_minus * u
        if self.kind == "upwind":
            return (u, 0.0) if u >= 0 else (0.0, u)
        raise ValueError(f"unknown flux kind {self.kind!r}")

    def advection_weights(self, u: float) -> tuple[float, float]:
        """The (alpha+, alpha-) pair of the interface value the DG-to-AF map
        defines at speed u.  At u = 0, where Lax-Friedrichs has none, every
        kind takes the upwind pair (1, 0)."""
        if u == 0 or self.kind == "upwind":
            return (1.0, 0.0) if u >= 0 else (0.0, 1.0)
        if self.kind == "alpha_weighted":
            return self.alpha_plus, self.alpha_minus
        if self.kind == "central":
            return 0.5, 0.5
        if self.kind == "lax_friedrichs":
            return 0.5 * (1.0 + self.a / u), 0.5 * (1.0 - self.a / u)
        raise ValueError(f"unknown flux kind {self.kind!r}")


def check_weights(w: tuple[float, float]) -> None:
    """Reject a one-sided weight pair that does not sum to 1."""
    if abs(w[0] + w[1] - 1.0) > 1e-13:
        raise ValueError("one-sided weights must sum to 1")


FLUX_NAMES = ("upwind", "central", "alpha", "lax_friedrichs")


def flux_spec(name: str, alpha_plus: float = 1.0,
              a: float = 0.0) -> NumericalFluxSpec:
    """The flux a config or setting names: ``alpha`` weighs the sides
    (alpha_plus, 1 - alpha_plus), ``lax_friedrichs`` takes its constant a."""
    if name == "alpha":
        return NumericalFluxSpec.alpha(alpha_plus, 1.0 - alpha_plus)
    if name == "lax_friedrichs":
        return NumericalFluxSpec.lax_friedrichs(a)
    if name in ("upwind", "central"):
        return NumericalFluxSpec(name)
    raise ValueError(f"unknown flux {name!r}")


def numerical_flux(spec: NumericalFluxSpec, problem: ProblemSpec, q_l, q_r):
    """Flux value fhat(q_L, q_R); vectorized over leading axes."""
    q_l = np.asarray(q_l, dtype=float)
    q_r = np.asarray(q_r, dtype=float)
    f_l, f_r = problem.flux(q_l), problem.flux(q_r)

    if spec.kind == "central":
        return 0.5 * (f_l + f_r)
    if spec.kind == "alpha_weighted":
        return spec.alpha_plus * f_l + spec.alpha_minus * f_r
    if spec.kind == "lax_friedrichs":
        return 0.5 * (f_l + f_r) - 0.5 * spec.a * (q_r - q_l)
    if spec.kind == "upwind":
        if not problem.is_scalar:
            # constant-Jacobian systems: J+ q_L + J- q_R
            Jp, Jm = problem.split(q_l)
            return q_l @ Jp.T + q_r @ Jm.T
        if problem.advection_speed is not None:
            # a constant speed never changes sign: no sonic check
            return np.where(problem.advection_speed >= 0, f_l, f_r)
        jm = problem.jacobian(0.5 * (q_l + q_r))
        if np.any(jm > 0) and np.any(jm < 0):
            raise ValueError("upwind flux undefined across a sonic state")
        return np.where(jm >= 0, f_l, f_r)
    raise ValueError(f"unknown flux kind {spec.kind!r}")


def flux_partials(spec: NumericalFluxSpec, problem: ProblemSpec, q_l, q_r):
    """(d fhat / d q_L, d fhat / d q_R) at the given traces.

    The Lax-Friedrichs partials (f'(q_L) + a I)/2 and (f'(q_R) - a I)/2
    are a particular nonnegative/nonpositive splitting of the Jacobian
    whenever a bounds the wave speed.
    """
    q_l = np.asarray(q_l, dtype=float)
    q_r = np.asarray(q_r, dtype=float)

    if problem.advection_speed is not None:
        # a constant speed: constant partials, and no sonic check
        shape = np.broadcast(q_l, q_r).shape
        d_l, d_r = spec.advection_partials(problem.advection_speed)
        return np.full(shape, d_l), np.full(shape, d_r)
    if spec.kind == "lax_friedrichs":
        a = spec.a * (1.0 if problem.is_scalar
                      else np.eye(problem.n_components))
        return (0.5 * (problem.jacobian(q_l) + a),
                0.5 * (problem.jacobian(q_r) - a))
    if spec.kind == "central":
        return 0.5 * problem.jacobian(q_l), 0.5 * problem.jacobian(q_r)
    if spec.kind == "alpha_weighted":
        return (spec.alpha_plus * problem.jacobian(q_l),
                spec.alpha_minus * problem.jacobian(q_r))
    if spec.kind == "upwind":
        if not problem.is_scalar:
            return problem.split(q_l)
        jm = problem.jacobian(0.5 * (q_l + q_r))
        if np.any(jm > 0) and np.any(jm < 0):
            raise ValueError("upwind partials undefined across a sonic state")
        dl = np.where(jm >= 0, problem.jacobian(q_l), 0.0)
        dr = np.where(jm >= 0, 0.0, problem.jacobian(q_r))
        return dl, dr
    raise ValueError(f"unknown flux kind {spec.kind!r}")


def invert_flux(problem: ProblemSpec, fhat_value):
    """Preimage of a flux value on the problem's declared branch."""
    if problem.flux_inverse is None:
        raise FluxInversionError(
            f"problem {problem.name} does not declare an invertible flux")
    return problem.flux_inverse(fhat_value)


def lax_friedrichs_speed(problem: ProblemSpec, state_values,
                         safety: float = 1.1) -> float:
    """LF constant per run: safety x max wave speed over the given data."""
    return safety * float(problem.max_speed(np.asarray(state_values)))
