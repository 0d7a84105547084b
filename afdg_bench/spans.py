"""Span tracer that times afdg's layers by wrapping module attributes from
outside the package.

Each call of a wrapped function is a span.  A span's self time is its
duration minus the time covered by the spans it directly caused.  The job
itself is the root span ``bench``, so the self times of one traced job add
up to that job's wall time.  Spans are aggregated per group as they close;
no per-call record is kept.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

# (module, attribute, group[, group of the callable it returns]).  The
# group names the per-layer metrics; its first component is the layer, the
# afdg module that defines the function.  A function another module imports
# by name is wrapped at that binding, because that is the one its caller
# looks up.  Attributes a later version of the package no longer has are
# skipped and listed in ``Tracer.missing``.
WRAPPED = (
    ("poly", "PolySpec.__mul__", "poly.polyspec_mul"),
    ("mesh", "fill_dg_2d", "mesh.fill_dg_2d"),
    ("mesh", "fill_af_2d", "mesh.fill_af_2d"),
    ("mesh", "fill_dg_1d", "mesh.fill_1d"),
    ("mesh", "fill_af_1d", "mesh.fill_1d"),
    ("dg", "numerical_flux", "problems.numerical_flux"),
    ("equiv", "flux_partials", "problems.flux_partials"),
    ("equiv", "invert_flux", "problems.invert_flux"),
    ("equiv", "lax_friedrichs_speed", "problems.lax_friedrichs_speed"),
    ("kernels", "af_rhs_2d_kernel", "kernels.af_rhs2d"),
    ("kernels", "dg_rhs_2d_kernel", "kernels.dg_rhs2d"),
    ("dg", "dg_rhs_1d", "dg.rhs1d"),
    ("dg", "dg_rhs_2d", "dg.rhs2d"),
    ("af", "af_rhs_1d", "af.rhs1d"),
    ("af", "af_rhs_2d_tensorial", "af.rhs2d"),
    ("af", "af_rhs_2d_classical", "af.rhs2d_classical"),
    ("equiv", "verify_equivalence", "equiv.verify"),
    ("equiv", "map_dg_to_af_1d", "equiv.map"),
    ("equiv", "map_dg_to_af_2d", "equiv.map"),
    ("equiv", "reconstruct_af_2d_from_dg", "equiv.map"),
    ("equiv", "dg_induced_af_derivative_1d", "equiv.induced"),
    ("equiv", "dg_induced_af_derivative_2d", "equiv.induced"),
    ("equiv", "project_flux_F", "equiv.project_flux"),
    ("equiv", "lemma_checks", "equiv.lemma"),
    ("timeint", "integrate", "timeint.check"),
    ("timeint", "rk_step", "timeint.combine"),
    ("driver", "run_simulation", "driver.run"),
    ("driver", "build_state", "driver.setup"),
    ("driver", "make_rhs", "driver.setup", "driver.boundary"),
    ("driver", "exact_state_at", "driver.error"),
    ("driver", "ErrorReport.from_states", "driver.error"),
)

# groups whose first argument and result are states: their stored values
# are counted, and bytes are computed from those array sizes
SIZED = frozenset({"af.rhs2d", "dg.rhs2d"})

LAYERS = ("bench", "poly", "mesh", "problems", "dg", "af", "equiv",
          "timeint", "kernels", "driver")


def _state_values(state) -> int:
    return sum(a.size for a in state.arrays())


class Tracer:
    """Install timing wrappers on afdg modules and aggregate their spans."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list = []
        self.missing: list[str] = []
        self._child = [0.0]
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.values = defaultdict(int)
        self.bytes = defaultdict(int)
        # child-time accumulators of the open spans; the wrappers hold this
        # list, so it is cleared in place
        self._child[:] = [0.0]

    def span(self, group: str, fn, returns: str | None = None):
        """``fn`` wrapped so that each call is a span of ``group``."""
        child = self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[group] += dt - child.pop()
                child[-1] += dt
                self.calls[group] += 1
            if group in SIZED:
                n_in, n_out = _state_values(args[0]), _state_values(out)
                self.values[group] += n_in
                self.bytes[group] += 8 * (n_in + n_out)
            if returns is not None:
                return self.span(returns, out)
            return out
        return traced

    def run(self, job):
        """Run ``job()`` as the root span; returns (result, wall seconds)."""
        self.reset()
        t0 = time.perf_counter()
        out = job()
        wall = time.perf_counter() - t0
        self.self_s["bench"] += wall - self._child[0]
        return out, wall

    @contextlib.contextmanager
    def installed(self):
        self.missing = []
        try:
            for module, attr, group, *returns in WRAPPED:
                owner = self._modules.get(module)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                raw = (inspect.getattr_static(owner, name, None)
                       if owner is not None else None)
                if raw is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                ret = returns[0] if returns else None
                if isinstance(raw, classmethod):
                    new = classmethod(self.span(group, raw.__func__, ret))
                else:
                    new = self.span(group, raw, ret)
                setattr(owner, name, new)
                self._saved.append((owner, name, raw))
            yield self
        finally:
            while self._saved:
                owner, name, raw = self._saved.pop()
                setattr(owner, name, raw)

    def layer_self_s(self) -> dict:
        """Self time per layer (module), summed over its groups."""
        out = dict.fromkeys(LAYERS, 0.0)
        for group, s in self.self_s.items():
            layer = group.split(".")[0]
            out[layer] = out.get(layer, 0.0) + s
        return out
