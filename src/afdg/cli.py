"""Command-line driver.

Subcommands: run, convergence, superconvergence, equiv-check, bench,
dof-table.  Each accepts an optional flat key=value config file plus
``--set key=value`` overrides; results land in the config's ``out`` path
as CSV (floats carry 17 significant digits).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import driver, equiv, timeint
from .mesh import save_state_csv


def _load_config(args) -> driver.RunConfig:
    text = ""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val
    if args.out:
        overrides["out"] = args.out
    cfg = driver.parse_config(text, overrides)
    # refused before the run, not when its CSV is written after it
    if not (isinstance(cfg.out, str) and not os.path.isdir(cfg.out)
            and os.path.isdir(os.path.dirname(cfg.out) or ".")):
        cfg.refuse("out", "must be a file path in an existing directory")
    cfg.validate(args.command)
    return cfg


def _add_common(sub):
    sub.add_argument("config", nargs="?", default=None,
                     help="flat key=value config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config key")
    sub.add_argument("--out", default=None, help="output CSV path")


def cmd_run(args, cfg) -> int:
    res = driver.run_simulation(cfg)
    save_state_csv(res.state, cfg.out)
    err_rows = [(name, err) for name, err in sorted(res.errors.families.items())]
    err_rows.append(("e_dofs", res.errors.e_dofs))
    driver.write_csv(cfg.out + ".errors.csv", ["family", "l2_error"], err_rows)
    b = res.bench
    driver.write_csv(cfg.out + ".bench.csv", driver.BENCH_HEADER, [b.row()])
    drift = (driver.cell_mass(res.state) - res.mass0
             if cfg.boundary == "periodic" else "n/a")
    meta = [("method", b.method), ("grid", cfg.grids[0]), ("dt", res.dt),
            ("dt_rule", "cfl_override * dx" if cfg.cfl_override is not None
             else "catalog C_CFL * dx"),
            ("steps", b.steps), ("boundary", cfg.boundary),
            ("ghost_sides", " ".join(res.ghost_sides) or "none"),
            ("partials", " ".join(f"{axis} {driver.fmt(d[0])} {driver.fmt(d[1])}"
                                  for axis, d in zip("xy", res.partials))),
            ("seed", cfg.seed), ("rk", cfg.rk), ("numpy", np.__version__),
            ("norm_ratio", driver.dof_norm(res.state) / res.norm0),
            ("mass_drift", drift)]
    driver.write_csv(cfg.out + ".meta.csv", ["key", "value"], meta)
    print(f"{b.method}: e_dofs={driver.fmt(res.errors.e_dofs)} "
          f"tau={b.tau:.3g}s steps={b.steps}")
    return 0


def _table(compute, header: list):
    """The command that writes ``compute(cfg)``'s rows and prints them."""
    def cmd(args, cfg) -> int:
        rows = compute(cfg)
        driver.write_csv(cfg.out, header, rows)
        for row in rows:
            print(", ".join(driver.fmt(v) for v in row))
        return 0
    return cmd


def cmd_equiv_check(args, cfg) -> int:
    dimension = 2 if cfg.problem.endswith("2d") else 1
    if args.variant == "classical_midpoint":
        if dimension == 1:
            raise driver.ConfigError(f"--variant {args.variant!r} is a 2-d "
                                     f"comparison, got problem {cfg.problem!r}")
        k_key = "order" if cfg.k is None else "k"
        for key, ok, why in [(k_key, cfg.K == 1, "must give K = 1"),
                             ("flux", cfg.flux == "upwind", "must be 'upwind'"),
                             ("ux", cfg.ux >= 0, "must be >= 0"),
                             ("uy", cfg.uy >= 0, "must be >= 0")]:
            if not ok:
                cfg.refuse(key, f"{why} for the {args.variant} variant")
    setting = equiv.EquivSetting(
        dimension=dimension, problem=cfg.problem,
        problem_params=driver.problem_params(cfg), flux=cfg.flux,
        alpha_plus=cfg.alpha_plus, beta_plus=cfg.beta_plus,
        K=cfg.K, n_cells=cfg.grids[0], seed=cfg.seed,
        tolerance=cfg.tolerance, variant=args.variant)
    report = equiv.verify_equivalence(setting)
    driver.write_csv(cfg.out, ["family", "max_abs", "scale", "relative", "pass"],
                     report.rows())
    for fam, max_abs, scale, rel, ok in report.rows():
        print(f"{fam}: relative={rel:.3e} {'PASS' if ok else 'FAIL'}")
    if report.metadata:
        print("metadata:", ", ".join(f"{k}={v}" for k, v in
                                     sorted(report.metadata.items()) if v != ""))
    return 0 if report.passed else 1


def cmd_bench(args, cfg) -> int:
    records, slopes = driver.run_benchmark(cfg)
    driver.write_csv(cfg.out, driver.BENCH_HEADER,
                     [r.row() for r in records])
    driver.write_csv(cfg.out + ".slopes.csv", ["method", "slope"], slopes)
    for method, slope in slopes:
        print(f"{method}: tau ~ N_cells^{slope:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="afdg",
        description="Active Flux / DG solvers, equivalence checks and "
                    "benchmarks on Cartesian grids")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn in [
            ("run", cmd_run),
            ("convergence", _table(driver.run_convergence_study,
                                   ["method", "dx", "e_dofs", "eoc"])),
            ("superconvergence", _table(driver.run_superconvergence_probe,
                                        ["point_set", "dx", "error", "eoc"])),
            ("bench", cmd_bench),
            ("dof-table", _table(lambda cfg: driver.emit_dof_table(),
                                 ["family", "order", "n_dofs", "n_tdofs",
                                  "n_mom", "n_edge", "n_node", "n_int",
                                  "c_cfl"]))]:
        sub = subs.add_parser(name)
        _add_common(sub)
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("equiv-check")
    _add_common(sub)
    sub.add_argument("--variant", default="tensorial",
                     choices=["tensorial", "classical_midpoint"])
    sub.set_defaults(fn=cmd_equiv_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args, _load_config(args))
    except driver.ConfigError as exc:
        print(f"afdg {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except timeint.UnstableRunError as exc:
        print(f"afdg {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
