"""Strong-stability-preserving Runge-Kutta integrators and CFL step control.

Schemes are stored in convex-combination (Shu-Osher) form: every stage is
a weighted sum of earlier stages plus a scaled rhs evaluation.  States are
the one-tensor containers of :mod:`afdg.mesh`; the integrator only needs
their tensor ``U`` and ``with_tensor``, so the same code drives 1-d, 2-d,
AF and DG states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import AF_CFL, DG_CFL

__all__ = ["RkScheme", "SSPRK3", "SSPRK54", "rk_step", "dt_from_cfl",
           "integrate", "UnstableRunError", "schemes_by_name"]

CHECK_EVERY = 20     # steps between the finite-state checks of ``integrate``


@dataclass(frozen=True)
class RkScheme:
    """Shu-Osher tableau.

    Stage s (1-based) computes
        u_s = sum_j combo[s][j] * u_j + dt * rhs_w[s][j] * L(u_j, t + c[j] dt)
    over previously available u_j (u_0 is the input state); the final
    stage is the step result.
    """

    name: str
    order: int
    combo: tuple            # per stage: tuple of (index, weight)
    rhs_w: tuple            # per stage: tuple of (index, weight)

    @property
    def stages(self) -> int:
        return len(self.combo)

    @cached_property
    def c(self) -> tuple:
        """The stage times of u_0 .. u_{stages}."""
        c = [0.0]
        for s in range(self.stages):
            c.append(sum(w * c[idx] for idx, w in self.combo[s])
                     + sum(w for _, w in self.rhs_w[s]))
        return tuple(c)

    def amplification_coefficients(self) -> np.ndarray:
        """Polynomial R(z) with u+ = R(dt*lambda) u for the linear test
        equation, as ascending coefficients."""
        polys = [np.zeros(self.stages + 1)]
        polys[0][0] = 1.0
        for s in range(self.stages):
            acc = np.zeros(self.stages + 1)
            for idx, w in self.combo[s]:
                acc += w * polys[idx]
            for idx, w in self.rhs_w[s]:
                acc[1:] += w * polys[idx][:-1]
            polys.append(acc)
        return polys[-1]

    @cached_property
    def last_read(self) -> dict:
        """The last stage that reads each derivative L(u_j), by j."""
        return {j: s for s in range(self.stages) for j, _ in self.rhs_w[s]}


# three-stage third-order SSP tableau (Shu-Osher); stage times (0, 1, 1/2, 1)
SSPRK3 = RkScheme(
    "ssprk3", 3,
    combo=(((0, 1.0),),
           ((0, 0.75), (1, 0.25)),
           ((0, 1.0 / 3.0), (2, 2.0 / 3.0))),
    rhs_w=(((0, 1.0),),
           ((1, 0.25),),
           ((2, 2.0 / 3.0),)),
)

# five-stage fourth-order SSP tableau (the standard optimal coefficients)
SSPRK54 = RkScheme(
    "ssprk54", 4,
    combo=(((0, 1.0),),
           ((0, 0.444370493651235), (1, 0.555629506348765)),
           ((0, 0.620101851488403), (2, 0.379898148511597)),
           ((0, 0.178079954393132), (3, 0.821920045606868)),
           ((2, 0.517231671970585), (3, 0.096059710526147),
            (4, 0.386708617503269))),
    rhs_w=(((0, 0.391752226571890),),
           ((1, 0.368410593050371),),
           ((2, 0.251891774271694),),
           ((3, 0.544974750228521),),
           ((3, 0.063692468666290), (4, 0.226007483236906))),
)


def schemes_by_name() -> dict[str, RkScheme]:
    return {"ssprk3": SSPRK3, "ssprk54": SSPRK54}


def rk_step(scheme: RkScheme, rhs, state, dt: float, t: float = 0.0):
    """One step of the tableau; at most ``stages`` intermediate states.

    Each stage's derivative is evaluated once and kept only until the last
    stage that reads it (in SSPRK(5,4), L(u_3) serves stages 4 and 5;
    ``RkScheme.last_read``)."""
    stages, derivs = [state], {}
    for s in range(scheme.stages):
        (idx0, w0), *rest = scheme.combo[s]
        U = w0 * stages[idx0].U
        for idx, w in rest:
            U += w * stages[idx].U
        for idx, w in scheme.rhs_w[s]:
            if idx not in derivs:
                derivs[idx] = rhs(stages[idx], t + scheme.c[idx] * dt).U
            deriv = (derivs.pop(idx) if scheme.last_read[idx] == s
                     else derivs[idx])
            U += (dt * w) * deriv
        stages.append(state.with_tensor(U))
    return stages[-1]


def dt_from_cfl(family: str, order: int, dx: float,
                override: float | None = None) -> float:
    """dt = C_CFL * dx with the catalog CFL number, or an explicit override."""
    if override is not None:
        return override * dx
    table = {"af": AF_CFL, "dg": DG_CFL}.get(family)
    if table is None or order not in table:
        raise ValueError(f"no catalog CFL for {family} order {order}; "
                         "pass an override")
    return table[order] * dx


class UnstableRunError(RuntimeError):
    pass


@np.errstate(over="ignore", invalid="ignore")
def integrate(state, rhs, scheme: RkScheme, dt: float, t_final: float):
    """March from t = 0 to t_final, clipping the last step to land exactly.

    Aborts with diagnostics if the state stops being finite (CFL
    instability shows up this way, and unwarned: the check, every
    ``CHECK_EVERY`` steps and after the last, reports it).
    """
    n_steps = int(np.ceil(t_final / dt - 1e-12))
    t = 0.0
    for step in range(n_steps):
        step_dt = min(dt, t_final - t)
        state = rk_step(scheme, rhs, state, step_dt, t)
        t += step_dt
        if (step % CHECK_EVERY == CHECK_EVERY - 1 or step == n_steps - 1) and \
                not np.all(np.isfinite(state.U)):
            raise UnstableRunError(
                f"non-finite state at t={t:.6g} (step {step + 1}); "
                "reduce the CFL number")
    return state
