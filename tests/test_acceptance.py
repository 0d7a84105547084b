"""Acceptance criteria, one test per criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Criterion 6's fourth-order AF band is asserted exactly as
specified and is a known honest failure of this implementation variant
(see the README's limitations section): the method converges at fourth
order, but its coarse-pair EOC on the Gaussian falls outside the band
measured for the reduced-dof variant it was calibrated against.

That variant stores 6 dofs per cell (criterion 7's order-4 row); the
solver evolves the tensorial K = 2 variant with 9.  On the criterion-6
setup (Dirichlet, T = 0.1) the tensorial EOC series over 20^2 -> 160^2
is 3.31, 4.61, 3.73 with the catalog 2-point Gauss state preparation
and 4.54, 4.78, 4.89 with the 12-point one.  The catalog rule gets the
first moments wrong by O(h^3) (the preparation-only difference has EOC
3.00 at 320^2 -> 640^2), and upwind dissipation mostly damps that error
by T = 0.1.  The coarse-pair value is therefore pre-asymptotic and set by
the preparation quadrature, not by the order of the method; neither
reading lands in [3.4, 4.1].  The band and the state preparation stay as
they are until reference values for the tensorial variant are available
or the reduced-dof variant is implemented.
"""

import time

import numpy as np
import pytest

from afdg import driver, equiv, mesh
from afdg.driver import RunConfig
from afdg.equiv import EquivSetting, verify_equivalence
from afdg.mesh import DgState2D, Grid2D
from afdg.problems import NumericalFluxSpec


def report(criterion: str, passed: bool, detail: str):
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


# ---------------------------------------------------------------------------


def test_criterion_1_equivalence_1d_linear():
    """1-d linear: K in 1..4, three fluxes, 64 periodic cells, <= 1e-11."""
    t0 = time.perf_counter()
    worst = 0.0
    all_pass = True
    for K in (1, 2, 3, 4):
        for flux, ap in (("upwind", 1.0), ("central", 0.5), ("alpha", 0.7)):
            s = EquivSetting(dimension=1, K=K, n_cells=64, seed=42, flux=flux,
                             alpha_plus=ap, problem="advection1d",
                             problem_params={"u": 1.0}, tolerance=1e-11)
            rep = verify_equivalence(s)
            worst = max(worst, max(f.relative for f in rep.families))
            all_pass &= rep.passed
    elapsed = time.perf_counter() - t0
    ok = all_pass and elapsed < 5.0
    assert report("criterion 1: 1-d linear equivalence", ok,
                  f"worst relative mismatch {worst:.2e} (tol 1e-11), "
                  f"{elapsed:.2f}s (< 5 s)")


def test_criterion_2_equivalence_1d_nonlinear():
    """Burgers/expflux with global LF, K in {1,2}: <= 1e-10; the flipped
    point-update sign must fail by >= 1e-1 (negative control)."""
    worst = 0.0
    all_pass = True
    for prob in ("burgers", "expflux"):
        for K in (1, 2):
            s = EquivSetting(dimension=1, K=K, n_cells=64, seed=7,
                             flux="lax_friedrichs", problem=prob,
                             tolerance=1e-10)
            rep = verify_equivalence(s)
            worst = max(worst, max(f.relative for f in rep.families))
            all_pass &= rep.passed
    s_flip = EquivSetting(dimension=1, K=1, n_cells=64, seed=7,
                          flux="lax_friedrichs", problem="burgers",
                          tolerance=1e-10, flip_point_sign=True)
    flip = verify_equivalence(s_flip)
    flip_gap = next(f.relative for f in flip.families
                    if f.family == "point_values")
    ok = all_pass and flip_gap >= 1e-1
    assert report("criterion 2: 1-d nonlinear equivalence", ok,
                  f"worst {worst:.2e} (tol 1e-10); sign-flip control "
                  f"{flip_gap:.2e} (>= 1e-1)")


def test_criterion_3_equivalence_2d():
    """2-d K=1 on 16x16: upwind and (0.8, 0.6) weighted <= 1e-11; identity
    checks <= 1e-12; classical-midpoint control fails >= 1e-3 x scale."""
    worst = 0.0
    all_pass = True
    for flux, a_p, b_p in (("upwind", 1.0, 1.0), ("alpha", 0.8, 0.6)):
        s = EquivSetting(dimension=2, K=1, n_cells=16, seed=3, flux=flux,
                         alpha_plus=a_p, beta_plus=b_p, problem="advection2d",
                         problem_params={"ux": 1.0, "uy": 1.0},
                         tolerance=1e-11)
        rep = verify_equivalence(s)
        worst = max(worst, max(f.relative for f in rep.families))
        all_pass &= rep.passed

    rng = np.random.default_rng(3)
    state = DgState2D(Grid2D.square(16), 1, rng.uniform(-1, 1, (16, 16, 2, 2)))
    checks = equiv.lemma_checks(state, 1.0, 1.0,
                                NumericalFluxSpec.alpha(0.8, 0.2),
                                NumericalFluxSpec.alpha(0.6, 0.4))
    worst_id = max(checks.values())

    s_neg = EquivSetting(dimension=2, K=1, n_cells=16, seed=3, flux="upwind",
                         problem="advection2d",
                         problem_params={"ux": 1.0, "uy": 1.0},
                         variant="classical_midpoint")
    neg = verify_equivalence(s_neg)
    neg_gap = max(f.relative for f in neg.families)

    ok = all_pass and worst_id <= 1e-12 and neg_gap >= 1e-3
    assert report("criterion 3: 2-d equivalence", ok,
                  f"worst {worst:.2e}; identities {worst_id:.2e} (<= 1e-12); "
                  f"midpoint control {neg_gap:.2e} (>= 1e-3)")


def test_criterion_4_reconstruction_identity():
    """The flux-corrected DG field is continuous and equals the AF
    reconstruction at 200 random points per cell; the upwind case carries
    exactly one Radau term."""
    from afdg import af, dg
    from afdg.mesh import DgState1D, Grid1D
    from afdg.problems import advection1d
    rng = np.random.default_rng(11)
    prob = advection1d(u=1.0)
    jumps = match = corr = 0.0
    for K in (1, 2, 3):
        state = DgState1D(Grid1D(0, 1, 24), K,
                          rng.uniform(-1, 1, (24, K + 1, 1)))
        for spec in (NumericalFluxSpec.upwind(), NumericalFluxSpec.central()):
            mono = dg.augmented_coefficients_1d(state, prob, spec)
            right = np.einsum("ipc,p->ic", mono, 0.5 ** np.arange(K + 2))
            left = np.einsum("ipc,p->ic", mono, (-0.5) ** np.arange(K + 2))
            jumps = max(jumps, float(np.max(np.abs(
                right - np.roll(left, -1, axis=0)))))
            xs = rng.uniform(-0.5, 0.5, 200)
            powers = np.array([xs ** j for j in range(K + 2)])
            vals = np.einsum("ipc,pq->iqc", mono, powers)
            mapped = equiv.map_dg_to_af_1d(state, spec, prob)
            match = max(match, float(np.max(np.abs(
                vals - af.af_eval_1d(mapped, xs)))))
        fhat = dg.interface_fluxes_1d(state, prob, NumericalFluxSpec.upwind())
        _, q_plus = dg.trace_values_1d(state)
        corr = max(corr, float(np.max(np.abs(np.roll(fhat, -1, axis=0)
                                             - q_plus))))
    ok = jumps <= 1e-13 and match <= 1e-12 and corr == 0.0
    assert report("criterion 4: reconstruction identity", ok,
                  f"interface jumps {jumps:.2e} (<= 1e-13), sample match "
                  f"{match:.2e} (<= 1e-12), upwind downwind-term {corr:.1e}")


def test_criterion_5_superconvergence():
    """Radau-point, uniform-point, cell-average and crossing-point orders."""
    t0 = time.perf_counter()

    def final_eoc(rows, name):
        vals = [r for r in rows if r[0] == name]
        return vals[-1][3]

    cfg1 = RunConfig(method="dg", order=2, rk="ssprk54", problem="advection1d",
                     u=1.0, init="sine", flux="upwind",
                     grids=(32, 64, 128, 256), t_final=0.5, boundary="periodic")
    rows1 = driver.run_superconvergence_probe(cfg1)
    radau1 = final_eoc(rows1, "radau_points")
    unif1 = final_eoc(rows1, "uniform_points")
    avg1 = final_eoc(rows1, "cell_averages")

    cfg2 = RunConfig(method="dg", order=3, rk="ssprk54", problem="advection1d",
                     u=1.0, init="sine", flux="upwind",
                     grids=(32, 64, 128, 256), t_final=0.5, boundary="periodic")
    radau2 = final_eoc(driver.run_superconvergence_probe(cfg2), "radau_points")

    cfg3 = RunConfig(method="dg", order=2, rk="ssprk54", problem="advection2d",
                     ux=1.0, uy=1.0, init="sine", flux="upwind",
                     grids=(16, 32, 64), t_final=0.5, boundary="periodic")
    cross = final_eoc(driver.run_superconvergence_probe(cfg3), "crossing_points")

    elapsed = time.perf_counter() - t0
    ok = (abs(radau1 - 3.0) <= 0.2 and abs(unif1 - 2.0) <= 0.2
          and abs(avg1 - 3.0) <= 0.2 and abs(radau2 - 4.0) <= 0.3
          and abs(cross - 3.0) <= 0.3 and elapsed < 120.0)
    assert report("criterion 5: superconvergence", ok,
                  f"K=1 radau {radau1:.3f} / uniform {unif1:.3f} / averages "
                  f"{avg1:.3f}; K=2 radau {radau2:.3f}; 2-d crossing "
                  f"{cross:.3f}; {elapsed:.1f}s (< 120 s)")


BANDS = {
    "AF33": (("af", 3, "ssprk3"), 2.2, 3.1),
    "AF44": (("af", 4, "ssprk54"), 3.4, 4.1),
    "DG33": (("dg", 3, "ssprk3"), 2.8, 3.2),
    "DG43": (("dg", 4, "ssprk3"), 3.3, 4.2),
}


@pytest.mark.parametrize("method_id", list(BANDS))
def test_criterion_6_eoc_reproduction(method_id):
    """Gaussian advection at T=0.1 on 20^2/40^2 grids: the coarse-pair
    EOC lands in the band bracketing the reference values."""
    (family, order, rk), lo, hi = BANDS[method_id]
    cfg = RunConfig(method=family, order=order, rk=rk, problem="advection2d",
                    ux=1.0, uy=1.0, init="gauss", flux="upwind",
                    grids=(20, 40), t_final=0.1, boundary="dirichlet")
    t0 = time.perf_counter()
    rows = driver.run_convergence_study(cfg)
    elapsed = time.perf_counter() - t0
    rate = rows[1][3]
    ok = lo <= rate <= hi and elapsed < 300.0
    assert report(f"criterion 6: desk-scale EOC {method_id}", ok,
                  f"eoc {rate:.4f}, band [{lo}, {hi}], {elapsed:.1f}s")


def test_criterion_7_dof_table():
    """Integer-exact dof counts for AF orders 3-7 and DG orders 2-6."""
    table = {
        ("af", 3): (4, 9, 1, 4, 4), ("af", 4): (6, 13, 1, 8, 4),
        ("af", 5): (8, 17, 1, 12, 4), ("af", 6): (12, 23, 3, 16, 4),
        ("af", 7): (17, 30, 6, 20, 4),
        ("dg", 2): (4, 4, 4), ("dg", 3): (9, 9, 9), ("dg", 4): (16, 16, 16),
        ("dg", 5): (25, 25, 25), ("dg", 6): (36, 36, 36),
    }
    ok = True
    for (family, order), want in table.items():
        c = mesh.dof_counts(family, order)
        got = (c.n_dofs, c.n_tdofs, c.n_mom) + \
            ((c.n_edge, c.n_node) if family == "af" else ())
        ok &= got == want
    rows = driver.emit_dof_table()
    ok &= len(rows) == 10
    assert report("criterion 7: dof table", ok,
                  "all count rows integer-exact" if ok else "mismatch")


def test_criterion_8_runtime_scaling():
    """Fitted wall-clock slope in [1.3, 1.7] for one AF and one DG method
    over 20^2/40^2/80^2; the AF-order-3-faster-than-DG-order-3 finding is
    machine dependent and reported as a warning only."""
    cfg = RunConfig(problem="advection2d", ux=1.0, uy=1.0, init="gauss",
                    flux="upwind", grids=(20, 40, 80), t_final=0.1,
                    boundary="periodic", rk="ssprk3")
    records, slopes = driver.run_benchmark(
        cfg, methods=[("af", 3), ("af", 4), ("dg", 3)], min_time=0.2)
    by_method = dict(slopes)
    af_slope = by_method["AF43"]
    dg_slope = by_method["DG33"]
    ok = 1.3 <= af_slope <= 1.7 and 1.3 <= dg_slope <= 1.7

    af3 = {r.n_cells: r.tau for r in records if r.method == "AF33"}
    dg3 = {r.n_cells: r.tau for r in records if r.method == "DG33"}
    af_faster = all(af3[n] < dg3[n] for n in af3)
    if not af_faster:
        print("[criterion 8] WARNING: AF order 3 not faster than DG order 3 "
              "on this machine (machine-dependent finding, not a failure)")
    assert report("criterion 8: runtime scaling", ok,
                  f"slopes AF43 {af_slope:.3f}, DG33 {dg_slope:.3f} "
                  f"(band [1.3, 1.7]); shallow AF33 slope "
                  f"{by_method['AF33']:.3f} reported for context; "
                  f"AF33 faster than DG33 on every grid: {af_faster}")


def test_criterion_9_csv_stability(tmp_path):
    """Wall-clock tables are machine dependent by nature; the substituted
    check is byte-stable emission of the deterministic CSV schemas plus
    presence of the benchmark schema columns."""
    from afdg import cli
    blobs = []
    for i in (1, 2):
        out = tmp_path / f"e{i}.csv"
        cli.main(["equiv-check", "--set", "problem=advection1d",
                  "--set", "flux=upwind", "--set", "k=2",
                  "--set", "grids=64", "--set", "seed=42", "--out", str(out)])
        blobs.append(out.read_bytes())
    stable = blobs[0] == blobs[1]

    for i in (1, 2):
        out = tmp_path / f"t{i}.csv"
        cli.main(["dof-table", "--out", str(out)])
        blobs.append(out.read_bytes())
    stable &= blobs[2] == blobs[3]

    schema_ok = driver.BENCH_HEADER == ["method", "n_cells", "n_dofs", "tau",
                                        "tau_per_step", "steps", "e_dofs",
                                        "metric"]
    ok = stable and schema_ok
    assert report("criterion 9: deterministic CSV emission", ok,
                  f"byte-stable={stable}, benchmark schema columns present")
