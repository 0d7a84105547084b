"""Bit-identity fingerprint of what the package computes.

    PYTHONPATH=src python tests/fingerprint.py

prints one sha256 per group of outputs of the ``afdg`` it imports, so a
refactor that must keep every number can be checked by running it on the
parent's ``src/`` and on the changed one and comparing the lines:

* ``runs_1d``  - 1-d runs (AF3-5, DG2-4; upwind, central, alpha and
  Lax-Friedrichs fluxes; ssprk3 and ssprk54; u = 1 and -0.6): the final
  state's family fields, ``repr`` of e_dofs, the family norms and
  ``dof_norm``;
* ``runs_2d``  - the same for 2-d runs (AF3, AF4, DG2, DG3; periodic and
  Dirichlet; upwind and alpha fluxes);
* ``equiv``    - the rows of 1-d and 2-d ``verify_equivalence`` at seeds
  0..4 (linear advection, acoustics, Burgers, expflux) and the
  nonlinear-gap series;
* ``controls`` - the rows of the two negative controls (classical
  midpoint, sign flip) at seeds 0..4, apart from ``equiv`` so that a
  change to a control can still show every equivalence row unchanged;
* ``lemma``    - the ``lemma_checks`` residuals at seeds 0..4, apart from
  ``equiv`` so that a change that moves a residual by roundoff can still
  show every verifier gap unchanged;
* ``csv``      - the state, error and meta CSVs of ``afdg run`` and the
  ``afdg equiv-check`` CSV;
* ``probe``    - the superconvergence-probe rows;
* ``tables``   - the linear operator tables at K = 1..5 (``dg_basis``,
  ``phi_table``, ``monomial_to_modal``, ``dg_stencil_1d``,
  ``basis_table``, ``af_ops``, ``af_stencil_1d``,
  ``moment_transfer_matrix``, ``map_stencil_1d``, ``equiv._psi`` and the
  fills' quadrature weights), apart from the runs, so that a move of a
  table shows on its own.

The state fields are hashed by family (point values, moments, modes,
...), not by storage layout, so a change of layout that keeps every
value keeps the hash.  It is not collected by pytest and takes no
options.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np

from afdg import af, cli, dg, driver, equiv, mesh
from afdg.problems import NumericalFluxSpec

FLUXES = (("upwind", 1.0), ("central", 0.5), ("alpha", 0.7),
          ("lax_friedrichs", 1.0))
SEEDS = range(5)


class Group:
    def __init__(self, name):
        self.name, self.items, self.sha = name, 0, hashlib.sha256()

    def add(self, *values):
        for v in values:
            if isinstance(v, np.ndarray):
                self.sha.update(repr((v.dtype.str, v.shape)).encode())
                self.sha.update(np.ascontiguousarray(v).tobytes())
            else:
                self.sha.update(repr(v).encode())
        self.items += 1

    def line(self):
        return f"{self.name:8s} {self.items:4d} {self.sha.hexdigest()}"


def fields(state):
    """The state's family fields, whatever their storage."""
    if isinstance(state, (mesh.DgState1D, mesh.DgState2D)):
        return [state.coeffs]
    if isinstance(state, mesh.AfState1D):
        return [state.point_values, state.moments]
    return [state.node_values, state.x_edge, state.y_edge, state.cell_moments]


def add_run(group, cfg):
    try:
        res = driver.run_simulation(cfg)
    except Exception as exc:     # an unstable run is an outcome too
        group.add(type(exc).__name__, str(exc))
        return
    group.add(*fields(res.state), res.errors.e_dofs,
              sorted(res.errors.families.items()),
              driver.dof_norm(res.state))


def runs_1d():
    g = Group("runs_1d")
    for method, order in (("af", 3), ("af", 4), ("af", 5), ("dg", 2),
                          ("dg", 3), ("dg", 4)):
        for flux, ap in FLUXES:
            for rk in ("ssprk3", "ssprk54"):
                for u in (1.0, -0.6):
                    add_run(g, driver.RunConfig(
                        method=method, order=order, rk=rk,
                        problem="advection1d", u=u, init="sine", flux=flux,
                        alpha_plus=ap, grids=(20,), t_final=0.1))
    return g


def runs_2d():
    g = Group("runs_2d")
    for method, order in (("af", 3), ("af", 4), ("dg", 2), ("dg", 3)):
        for boundary in ("periodic", "dirichlet"):
            for flux, ap, bp in (("upwind", 1.0, 1.0), ("alpha", 0.7, 0.6)):
                add_run(g, driver.RunConfig(
                    method=method, order=order, rk="ssprk3",
                    problem="advection2d", ux=1.0, uy=-0.5, init="gauss",
                    flux=flux, alpha_plus=ap, beta_plus=bp, grids=(8,),
                    t_final=0.05, boundary=boundary))
    return g


def _equiv_settings(seed):
    S = equiv.EquivSetting
    for K in (1, 2, 3, 4):
        for flux, ap in FLUXES[:3]:
            for u in (1.0, -0.6):
                yield S(dimension=1, K=K, seed=seed, flux=flux,
                        alpha_plus=ap, problem="advection1d",
                        problem_params={"u": u})
    for K in (1, 2, 3):
        yield S(dimension=1, K=K, seed=seed, problem="acoustics2x2")
        for prob in ("burgers", "expflux"):
            yield S(dimension=1, K=K, seed=seed, flux="lax_friedrichs",
                    problem=prob, tolerance=1e-10)
        for flux, a, b in (("upwind", 1.0, 1.0), ("alpha", 0.8, 0.6)):
            yield S(dimension=2, K=K, n_cells=16, seed=seed, flux=flux,
                    alpha_plus=a, beta_plus=b, problem="advection2d",
                    problem_params={"ux": 1.0, "uy": -0.5})


def _control_settings(seed):
    S = equiv.EquivSetting
    yield S(dimension=2, K=1, n_cells=16, seed=seed, problem="advection2d",
            problem_params={"ux": 1.0, "uy": 1.0},
            variant="classical_midpoint")
    yield S(dimension=1, K=1, seed=seed, flux="lax_friedrichs",
            problem="burgers", tolerance=1e-10, flip_point_sign=True)


def _verifier_group(name, settings):
    g = Group(name)
    for seed in SEEDS:
        for s in settings(seed):
            g.add(list(equiv.verify_equivalence(s).rows()))
    return g


def equivalence():
    g = _verifier_group("equiv", _equiv_settings)
    for n in (128, 256, 512, 1024):
        g.add(list(equiv.verify_equivalence(equiv.EquivSetting(
            dimension=1, K=2, n_cells=n, seed=7, flux="lax_friedrichs",
            problem="burgers", tolerance=1e-10)).rows()))
    return g


def controls():
    return _verifier_group("controls", _control_settings)


def lemma():
    g = Group("lemma")
    for seed in SEEDS:
        state = mesh.DgState2D(mesh.Grid2D.square(16), 1,
                               np.random.default_rng(seed).uniform(
                                   -1, 1, (16, 16, 2, 2)))
        g.add(sorted(equiv.lemma_checks(
            state, 1.0, -0.5, NumericalFluxSpec.alpha(0.8, 0.2),
            NumericalFluxSpec.alpha(0.6, 0.4)).items()))
    return g


def csvs():
    g = Group("csv")
    runs = [["problem=advection1d", f"method={m}", f"order={o}",
             f"flux={f}", "init=sine", "grids=16", "t_final=0.05"]
            for m, o in (("af", 3), ("af", 4), ("dg", 2), ("dg", 3))
            for f in ("upwind", "lax_friedrichs")]
    runs += [["problem=advection2d", f"method={m}", f"order={o}",
              f"boundary={b}", "grids=8", "t_final=0.02"]
             for m, o in (("af", 3), ("dg", 2))
             for b in ("periodic", "dirichlet")]
    checks = [["problem=advection1d", f"flux={f}", f"k={k}", "grids=32",
               "seed=5"] for f in ("upwind", "central") for k in (1, 2, 3)]
    checks += [["problem=burgers", "flux=lax_friedrichs", "k=2", "seed=3"],
               ["problem=acoustics2x2", "k=2"],
               ["problem=advection2d", "k=2", "grids=12"]]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for command, sets in [("run", r) for r in runs] + \
                [("equiv-check", c) for c in checks]:
            argv = [command] + [a for s in sets for a in ("--set", s)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(out)])
            suffixes = ("", ".errors.csv", ".meta.csv") \
                if command == "run" else ("",)
            g.add(code, *[Path(str(out) + s).read_bytes() for s in suffixes])
    return g


def probe():
    g = Group("probe")
    for order in (2, 3):
        for u in (1.0, -0.6):
            g.add(driver.run_superconvergence_probe(driver.RunConfig(
                method="dg", order=order, rk="ssprk54", problem="advection1d",
                u=u, init="sine", grids=(16, 32, 64), t_final=0.2)))
    g.add(driver.run_superconvergence_probe(driver.RunConfig(
        method="dg", order=2, rk="ssprk54", problem="advection2d", init="sine",
        grids=(8, 16), t_final=0.1)))
    return g


def arrays(obj):
    """The array fields of a table dataclass, in field order."""
    return [v for v in vars(obj).values() if isinstance(v, np.ndarray)]


def tables():
    g = Group("tables")
    for K in range(1, 6):
        g.add(*arrays(dg.dg_basis(K)), dg.monomial_to_modal(K),
              dg.dg_stencil_1d(K), *arrays(af.af_ops(K)),
              af.af_stencil_1d(K), equiv.moment_transfer_matrix(K),
              mesh._dg_projection_weights(K),
              mesh._af_moment_weights(K, mesh._FILL_RULE))
        for d in (0, 1, 2):
            g.add(dg.phi_table(K, d), af.basis_table(K, d), equiv._psi(K, d))
        for w in ((1.0, 0.0), (0.7, 0.3), (0.5, 0.5)):
            g.add(equiv.map_stencil_1d(K, w))
    return g


def main():
    with np.errstate(all="ignore"):
        for make in (runs_1d, runs_2d, equivalence, controls, lemma, csvs,
                     probe, tables):
            print(make().line(), flush=True)


if __name__ == "__main__":
    main()
