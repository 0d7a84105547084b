"""Run one workload of the afdg benchmark and print its metrics.

    python3 afdg_bench/run.py --workload periodic_2d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
``--trace 0`` repeats the workload's job untraced for ``--seconds`` and
reports the end-to-end metrics of BENCHMARK.json from the median job.  The
times are calibrated: each segment of a job is bracketed by a fixed numpy
computation, and its time is scaled by that computation's nominal over its
measured time, which takes out the drift of the shared machine.  The raw
job time is printed too.  ``--trace 1`` alternates untraced and traced jobs
and reports the per-layer metrics (raw seconds); the traced jobs wrap
afdg's functions from outside (see spans.py), and the difference of the
calibrated medians is the tracing overhead.  Every job's outputs are
checked.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer
from workloads import WORKLOADS, nonlinear_gap_growth

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_JOBS = 3
CAL_NOMINAL_S = 0.035   # about the calibration's time on a 2-vCPU Xeon VM
GAP_FAMILIES = ("linear1d", "nonlinear1d", "tensorial2d", "lemma")


def import_afdg():
    """Import the afdg package afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m.split(".")[0] == "afdg"]:
        del sys.modules[name]
    afdg = importlib.import_module("afdg")
    if not Path(afdg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"afdg imported from {afdg.__file__}, not {SRC}")
    return afdg


def layer_modules() -> dict:
    out = {}
    for name in LAYERS:
        try:
            out[name] = importlib.import_module(f"afdg.{name}")
        except ModuleNotFoundError:
            out[name] = None
    return out


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_info(args, afdg) -> dict:
    """How the run ran; runs whose ``path`` differs are never compared."""
    kernels = sys.modules.get("afdg.kernels")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_revision": git_revision(),
        "path": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "have_numba": bool(getattr(kernels, "HAVE_NUMBA", False)),
            "afdg_version": getattr(afdg, "__version__", "unknown"),
        },
    }


class Calibration:
    """A fixed numpy computation that uses no afdg code.

    The machine is shared, and how fast it runs drifts by tens of percent
    within seconds.  Timed right before and after a segment of the job, this
    computation measures that drift.  It mixes large-array contractions and
    a loop of small-array operations in the proportion of the workload's own
    regime (``Workload.calibration``), because interference slows the two
    regimes by different amounts.
    """

    def __init__(self, big_reps: int, small_reps: int):
        self._reps = (big_reps, small_reps)
        self._big = np.linspace(-1.0, 1.0, 160 * 160 * 9).reshape(160, 160, 3, 3)
        self._mat = np.linspace(0.0, 1.0, 9).reshape(3, 3)
        self._small = np.linspace(-1.0, 1.0, 64)
        self()

    def __call__(self) -> float:
        big_reps, small_reps = self._reps
        t0 = time.perf_counter()
        for _ in range(big_reps):
            b = np.einsum("ijmn,am->ijan", self._big, self._mat)
            np.roll(b, 1, axis=0) - 0.5 * self._big
        s = self._small
        for _ in range(small_reps):
            s = np.roll(s, 1) * 0.5 + self._small
        return time.perf_counter() - t0

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor for a time measured between two calibrations."""
        return 2 * CAL_NOMINAL_S / (before + after)


def calibrated_job(workload, afdg, seed: int, cal: Calibration):
    """One untraced job.  Each segment's times are scaled by the
    calibrations bracketing it.  Returns the outcomes and the raw and
    calibrated seconds of each segment."""
    segments = workload.segments(afdg, seed)
    gc.collect()
    before = cal()
    outcomes, raw, scaled = [], [], []
    for segment in segments:
        t0 = time.perf_counter()
        out = segment()
        dt = time.perf_counter() - t0
        after = cal()
        scale = cal.scale(before, after)
        for o in out:
            o.scale = scale
        outcomes += out
        raw.append(dt)
        scaled.append(dt * scale)
        before = after
    return outcomes + workload.finish(afdg, outcomes), raw, scaled


def traced_job(workload, afdg, seed: int, tracer: Tracer, cal: Calibration):
    """One traced job; returns its outcomes, raw wall time and the
    calibration factor of the calibrations bracketing it."""
    segments = workload.segments(afdg, seed)
    gc.collect()
    before = cal()
    with tracer.installed():
        outcomes, wall = tracer.run(
            lambda: [o for segment in segments for o in segment()])
    scale = cal.scale(before, cal())
    return outcomes + workload.finish(afdg, outcomes), wall, scale


def end_to_end(jobs: list) -> dict:
    """The median job: each segment's and each operation's calibrated time
    is its median over the jobs (a job always runs the same operations)."""
    wall = sum(statistics.median(col) for col in zip(*(j[2] for j in jobs)))
    seconds = [statistics.median(o.seconds * o.scale for o in col)
               for col in zip(*(j[0] for j in jobs))]
    ops = jobs[0][0]

    def ns_per_dof(size: str) -> float:
        """Operator time over (applications x stored values), in ns."""
        idx = [i for i, o in enumerate(ops) if o.size == size]
        work = sum(ops[i].rhs_calls * ops[i].values for i in idx)
        return 1e9 * sum(seconds[i] for i in idx) / work if work else 0.0

    return {
        "wall_s": wall,
        "raw_wall_s": statistics.median(sum(j[1]) for j in jobs),
        "ns_per_dof_rhs": ns_per_dof("large"),
        "ns_per_dof_rhs_small": ns_per_dof("small"),
        "settings_per_s": len(ops) / wall,
    }


def per_layer(tracer: Tracer, wall: float, outcomes) -> dict:
    s, calls = tracer.self_s, tracer.calls
    out = {f"{layer}.self_s": v for layer, v in tracer.layer_self_s().items()}
    for group in ("af.rhs2d", "dg.rhs2d"):
        n = calls[group]
        out[f"{group}.calls"] = n
        out[f"{group}.self_s"] = s[group]
        out[f"{group}.values"] = tracer.values[group]
        out[f"{group}.ns_per_dof"] = (1e9 * s[group] / tracer.values[group]
                                      if tracer.values[group] else 0.0)
        out[f"{group}.computed_bytes_per_call"] = (
            tracer.bytes[group] / n if n else 0.0)
    for group in ("af.rhs1d", "dg.rhs1d", "timeint.combine", "mesh.fill_dg_2d",
                  "mesh.fill_af_2d"):
        out[f"{group}.calls"] = calls[group]
        out[f"{group}.self_s"] = s[group]
    for group in ("timeint.check", "driver.boundary", "driver.setup",
                  "driver.error", "driver.run", "equiv.verify", "equiv.map",
                  "equiv.induced", "equiv.project_flux", "equiv.lemma"):
        out[f"{group}.self_s"] = s[group]
    out["poly.polyspec_mul.calls"] = calls["poly.polyspec_mul"]
    for fam in GAP_FAMILIES:
        out[f"equiv.worst_rel_gap.{fam}"] = max(
            [o.measured for o in outcomes if o.family == fam], default=0.0)
    out["traced_wall_s"] = wall
    return out


def medians(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "afdg" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no afdg package under {SRC} or no {spec_path.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    # set-up: a fresh import plus state, flux and RHS construction, repeated
    cal = Calibration(*workload.calibration)
    setup = []
    before = cal()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        afdg = import_afdg()
        workload.construct(afdg, args.seed)
        dt = time.perf_counter() - t0
        after = cal()
        setup.append(dt * cal.scale(before, after))
        before = after

    info = run_info(args, afdg)
    tracer = Tracer(layer_modules())
    jobs, traced, traced_walls = [], [], []
    residual = 0.0
    outcomes = []
    deadline = time.perf_counter() + args.seconds
    while len(jobs) < MIN_JOBS or time.perf_counter() < deadline:
        jobs.append(calibrated_job(workload, afdg, args.seed, cal))
        outcomes += jobs[-1][0]
        if args.trace:
            out, wall, scale = traced_job(workload, afdg, args.seed, tracer,
                                          cal)
            outcomes += out
            traced.append(per_layer(tracer, wall, out))
            traced_walls.append(wall * scale)
            residual = max(residual, abs(
                sum(tracer.layer_self_s().values()) - wall))
    failures = [f"{o.name}: {o.detail}" for o in outcomes if not o.ok]
    attempted, failed = len(outcomes), len(failures)

    metrics = end_to_end(jobs)
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        metrics.update(medians(traced))
        metrics["tracing_overhead_s"] = (statistics.median(traced_walls)
                                         - metrics["wall_s"])
        metrics["equiv.nonlinear_gap_growth"] = nonlinear_gap_growth(
            afdg.equiv)
        info["missing_wrappers"] = tracer.missing

    declared = spec["per_layer" if args.trace else "end_to_end"]
    info["jobs"] = len(jobs)
    info["setup_repeats"] = SETUP_REPEATS
    print("run " + json.dumps(info, sort_keys=True))
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in metrics:
            print(f"{m['name']:>40} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{'raw_wall_s':>40} {metrics['raw_wall_s']:.6g} s (uncalibrated)")
    if args.trace:
        print(f"traced jobs: layer self times sum to the traced wall within "
              f"{residual:.3g} s; time outside afdg "
              f"{metrics['bench.self_s']:.6g} s, tracing overhead "
              f"{metrics['tracing_overhead_s']:.6g} s")
    print(f"attempted {attempted}, failed {failed}, "
          f"fail_frac {failed / attempted:.6g}")
    for line in failures[:20]:
        print("FAILED " + line)

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
