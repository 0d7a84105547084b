"""Strong-stability-preserving Runge-Kutta integrators.

Schemes are stored in convex-combination (Shu-Osher) form: every stage is
a weighted sum of earlier stages plus a scaled rhs evaluation.  States are
the one-tensor containers of :mod:`afdg.mesh`; the integrator only needs
their tensor ``U`` and ``with_tensor``, so the same code drives 1-d, 2-d,
AF and DG states.

A step sums each stage under three rules:

* in bands along the tensor's leading axis, of at most
  ``mesh._Y_BAND_BYTES`` each (the 2-d apply's y bands), so that the
  products and adds of a stage run on data in cache; the sum of every
  element is the same in one band and in many;
* into an array the step owns: the array of an intermediate stage that no
  later stage reads, or a fresh one, with one band of scratch per step;
* never into its input state or an array the rhs returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import mesh
from .mesh import _bands
from .poly import frozen

__all__ = ["RkScheme", "SSPRK3", "SSPRK54", "rk_step", "integrate",
           "step_count", "UnstableRunError", "schemes_by_name"]

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
    def plan(self) -> tuple:
        """What ``rk_step`` does per stage, (calls, dest, terms, drop):
        ``calls`` the (j, c_j) of the L(u_j) the stage reads first, made
        before its sum; ``dest`` the j of the intermediate u_j (j >= 1)
        whose array the sum overwrites, one whose last reader is this
        stage, or None for a fresh array; ``terms`` the (j, w, deriv) the
        stage sums, in order, w u_j or (dt w) L(u_j) where ``deriv``: the
        first is written, each next one added; ``drop`` the j whose L(u_j)
        no later stage reads (in SSPRK(5,4), L(u_3) serves stages 4 and 5).

        The terms are the tableau's, w u_j and then (dt w) L(u_j), but for
        swaps of the first add, which are exact.  A stage that is one state
        of weight 1 (stage 1 here) starts from its derivative term and adds
        the state unscaled (w None): u_0 + dt w L(u_0) is one product and
        one add.  A dying u_j among the first two state terms goes first,
        so that its array is summed into in place: a band's w u_j is the
        first thing written over it."""
        last = {j: s for s in range(self.stages)
                for j, _ in self.combo[s] + self.rhs_w[s]}
        called, plan = set(), []
        for s in range(self.stages):
            (j0, w0), *rest = self.combo[s]
            derivs = tuple((j, w, True) for j, w in self.rhs_w[s])
            if w0 == 1.0 and not rest and derivs:
                terms = derivs[:1] + ((j0, None, False),) + derivs[1:]
            else:
                terms = tuple((j, w, False) for j, w in self.combo[s]) + derivs
            dest = next((j for j, w, deriv in terms[:2] if not deriv and
                         w is not None and j > 0 and last[j] == s), None)
            if dest is not None and terms[0][0] != dest:
                terms = (terms[1], terms[0]) + terms[2:]
            calls = tuple((j, self.c[j]) for j, _ in self.rhs_w[s]
                          if j not in called)
            called.update(j for j, _ in calls)
            drop = tuple(j for j, _ in self.rhs_w[s]
                         if all(j != i for t in self.rhs_w[s + 1:]
                                for i, _ in t))
            plan.append((calls, dest, terms, drop))
        return tuple(plan)

    @cached_property
    def program(self):
        """``program(dt)``: ``plan`` as ``rk_step`` runs it, kept for the
        last few dt.  Stage s's (s, calls, dest, first, rest, drop) names
        the step's states by index, u_j at j and L(u_j) at ~j, and gives
        each term as (index, weight): w, or dt w for a derivative, as a
        float64 0-d array (a ufunc reads it faster than a Python float, to
        the same product) made read-only, or None for an unscaled add."""
        @lru_cache(maxsize=8)
        def program(dt: float) -> tuple:
            stages = []
            for s, (calls, dest, terms, drop) in enumerate(self.plan):
                terms = tuple((~j, frozen(np.array(dt * w))) if deriv else
                              (j, None if w is None else frozen(np.array(w)))
                              for j, w, deriv in terms)
                stages.append((s + 1, calls, dest, terms[0], terms[1:],
                               tuple(~j for j in drop)))
            return tuple(stages)
        return program


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
    """One step of the tableau (``RkScheme.plan``).

    Each stage first evaluates the derivatives it is the first to read,
    then sums its terms under three rules:

    * band by band, in bands of the state's leading axis of at most
      ``mesh._Y_BAND_BYTES`` each, so that a stage's products and adds
      run on data in cache;
    * into an array the step owns: the array of an intermediate stage
      whose last reader is this stage, or a fresh one; a band's products
      go into one band of scratch per step;
    * never into the input state or an array the rhs returned.

    Each derivative is kept only until the last stage that reads it.
    Every element goes through the tableau's products and adds in its
    order, so one band and many give the same bytes."""
    U = state.U
    widest, cells = _bands(len(U), -(-U.nbytes // mesh._Y_BAND_BYTES))
    scratch = np.empty((widest,) + U.shape[1:], U.dtype)
    bands = [(c, scratch[:w]) for c, w in cells]
    held = {0: state}     # u_j at j, L(u_j) at ~j
    for s, calls, dest, first, rest, drop in scheme.program(dt):
        for j, c in calls:
            held[~j] = rhs(held[j], t + c * dt)
        out = np.empty_like(U) if dest is None else held[dest].U
        _sum_bands(out, held, first, rest, bands)
        for k in drop:
            del held[k]
        held[s] = state.with_tensor(out)
    return held[s]


def _sum_bands(out, held, first, rest, bands) -> None:
    """out = w_0 a_0 + w_1 a_1 + ..., left to right, band by band, a_i the
    tensor of held[k_i] for the terms (k_i, w_i) ``first`` and ``rest``;
    a band's w a goes into its scratch (a itself is added where w is
    None).  a_0 may be out itself."""
    k0, w0 = first
    a0 = held[k0].U
    for c, scratch in bands:
        o = out[c]
        np.multiply(o if a0 is out else a0[c], w0, o)
        for k, w in rest:
            a = held[k].U[c]
            np.add(o, a if w is None else np.multiply(a, w, scratch), o)


class UnstableRunError(RuntimeError):
    pass


@np.errstate(divide="ignore", over="ignore")
def step_count(t_final: float, dt: float) -> float:
    """The steps of ``integrate`` from 0 to t_final, the last one clipped,
    as a float: a count too large for an int (inf, also where dt
    underflows to 0) can still be bounded."""
    return float(np.ceil(np.divide(t_final, dt) - 1e-12))


@np.errstate(over="ignore", invalid="ignore")
def integrate(state, rhs, scheme: RkScheme, dt: float, t_final: float):
    """March from t = 0 to t_final, clipping the last step to land exactly.

    Aborts with diagnostics if the state stops being finite (CFL
    instability shows up this way, and unwarned: the check, every
    ``CHECK_EVERY`` steps and after the last, reports it).
    """
    n_steps = int(step_count(t_final, dt))
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
