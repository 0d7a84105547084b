"""Run the benchmark on several seeds and report the spread of each
end-to-end metric: the distance between the first and third quartile of its
values (``statistics.quantiles(values, n=4)``) as a share of their median.

    python3 afdg_bench/spread.py --runs 10 --first-seed 1 --save a.json
    python3 afdg_bench/spread.py --runs 10 --first-seed 101 --against a.json

Runs go one after another, from the checkout root.  ``--against`` also
compares each median with the one saved earlier and flags a metric whose
median got worse by more than its bound.  Runs whose implementation path
(Python, numpy, CPU count, numba) differs are never compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "afdg_bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True).stdout.splitlines()
    info = json.loads(next(line[4:] for line in out if line.startswith("run ")))
    result = json.loads(out[-1])
    return {"path": info["path"], "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)

    saved = json.loads(args.against.read_text()) if args.against else None
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    all_runs: dict = {}
    ok = True
    for w in args.workloads.split(","):
        runs = [run_once(w, args.first_seed + i, args.seconds, 0)
                for i in range(args.runs)]
        paths = {json.dumps(r["path"], sort_keys=True) for r in runs}
        if saved and w in saved:
            paths |= {json.dumps(r["path"], sort_keys=True) for r in saved[w]}
        if len(paths) > 1:
            print(f"{w}: runs with different paths, not compared: {paths}")
            return 2
        all_runs[w] = runs
        print(f"{w}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        ok &= all(r["correct"] for r in runs)
        for name, m in bounds.items():
            vals = [r["metrics"][name] for r in runs]
            med, sp = statistics.median(vals), spread(vals)
            flag = ("" if name == "setup_s" or sp < m["bound"] / 3
                    else "  SPREAD >= bound/3")
            line = (f"  {name:>22} median {med:.6g} spread {sp:.4f} "
                    f"(bound {m['bound']}){flag}")
            if saved and w in saved:
                old = statistics.median(r["metrics"][name] for r in saved[w])
                d = worse_by(med, old, m["better"])
                line += f"  vs saved {old:.6g}: worse by {d:+.4f}"
                if d > m["bound"]:
                    line += "  REGRESSION"
                    ok = False
            print(line, flush=True)
    if args.save:
        args.save.write_text(json.dumps(all_runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
