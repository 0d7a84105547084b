"""Checks of the benchmark's span tracer.

    python3 -m pytest afdg_bench/test_spans.py -q
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import layer_modules  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

DELAY_S = 0.003


def small_dirichlet_job(afdg):
    """DG33 on 20^2 with a Dirichlet ring: RHS closure -> ghost fill ->
    PolySpec products, so the spans nest three deep."""
    cfg = afdg.driver.RunConfig(method="dg", order=3, rk="ssprk3",
                                problem="advection2d", ux=1.0, uy=-0.5,
                                grids=(20,), t_final=0.02,
                                boundary="dirichlet")
    return lambda: afdg.driver.run_simulation(cfg, 20)


def traced_groups(tracer, job):
    with tracer.installed():
        _, wall = tracer.run(job)
    return dict(tracer.self_s), dict(tracer.calls), wall


@pytest.fixture(scope="module")
def afdg():
    import afdg
    return afdg


def test_self_times_sum_to_traced_wall(afdg):
    tracer = Tracer(layer_modules())
    self_s, _, wall = traced_groups(tracer, small_dirichlet_job(afdg))
    assert tracer.missing == []
    assert set(tracer.layer_self_s()) == set(LAYERS)
    assert sum(tracer.layer_self_s().values()) == pytest.approx(wall, rel=1e-9)
    assert sum(self_s.values()) == pytest.approx(wall, rel=1e-9)
    assert all(s >= 0 for s in self_s.values())


def test_tracing_leaves_the_package_as_it_was(afdg):
    before = (afdg.mesh.fill_dg_2d, afdg.timeint.rk_step,
              afdg.poly.PolySpec.__mul__,
              afdg.driver.ErrorReport.__dict__["from_states"])
    tracer = Tracer(layer_modules())
    with tracer.installed():
        assert afdg.mesh.fill_dg_2d is not before[0]
    after = (afdg.mesh.fill_dg_2d, afdg.timeint.rk_step,
             afdg.poly.PolySpec.__mul__,
             afdg.driver.ErrorReport.__dict__["from_states"])
    assert after == before


def test_planted_delay_shows_in_its_own_layer_only(afdg, monkeypatch):
    job = small_dirichlet_job(afdg)
    tracer = Tracer(layer_modules())
    job()                                        # fill the per-K caches
    base, base_calls, _ = traced_groups(tracer, job)

    fill = afdg.mesh.fill_dg_2d

    def slow_fill(*args, **kwargs):
        time.sleep(DELAY_S)
        return fill(*args, **kwargs)

    monkeypatch.setattr(afdg.mesh, "fill_dg_2d", slow_fill)
    slow, slow_calls, _ = traced_groups(tracer, job)

    assert slow_calls == base_calls
    planted = DELAY_S * slow_calls["mesh.fill_dg_2d"]
    assert planted > 0.1
    grew = slow["mesh.fill_dg_2d"] - base["mesh.fill_dg_2d"]
    assert 0.95 * planted <= grew <= 1.5 * planted
    for group in set(base) | set(slow):
        if group != "mesh.fill_dg_2d":
            change = slow.get(group, 0.0) - base.get(group, 0.0)
            assert change < 0.2 * planted, group
