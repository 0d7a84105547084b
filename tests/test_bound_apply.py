"""The 2-d stencil apply, bound once per run with its stencils.

``reference_kron_sum_apply`` with its ``reference_axis_apply`` and
``reference_with_neighbours`` is the apply the package used before a 2-d
rhs bound its stencils (``mesh.axis_stencils`` in ``driver.make_rhs``)
and before the apply read the windows of a padded copy, kept verbatim as
an independent reference: a gather of a cached (n, 3) row index into a
contiguous 3x neighbour stack.  One call of a fresh applier
(``mesh.kron_sum_applier``), the bound apply called again and again and
a bound rhs, call after call, must give the same bytes.  The apply's slot blocks (a closed AF state's unused
slots) must give the bytes of the reference applied to a copy of the
tensor with the slots written in, outside the slots themselves.
"""

import inspect
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from afdg import af, dg, driver, mesh, timeint
from afdg.driver import RunConfig
from helpers import fresh_kron_sum_apply, with_slots


def reference_kron_sum_apply(U, sx, sy, ghosts=None):
    U = np.ascontiguousarray(U)       # one copy for a non-contiguous view
    x_lo, x_hi, y_lo, y_hi = (None,) * 4 if ghosts is None else ghosts
    # a ghost block row is (a, j, b) for the x-apply, as U[i] is, and
    # (b, i, a) for the y-apply, as the transposed U[j] is
    out = np.zeros_like(U) if sx is None else reference_axis_apply(
        U, sx, *(g if g is None else g.swapaxes(0, 1) for g in (x_lo, x_hi)))
    if sy is not None:
        out += _transposed(reference_axis_apply(
            _transposed(U), sy,
            *(g if g is None else g.transpose(2, 0, 1) for g in (y_lo, y_hi))))
    return out


def _transposed(U):
    return U.transpose(2, 3, 0, 1)


def reference_axis_apply(U, s, lo=None, hi=None):
    n, m = U.shape[:2]
    W = reference_with_neighbours(U.reshape(n, m, -1), lo, hi)
    return np.matmul(s, W).reshape(U.shape)


def reference_with_neighbours(V, lo=None, hi=None):
    if (lo is None) != (hi is None):
        raise ValueError("ghost blocks come in pairs: lo and hi, or neither")
    shape = list(V.shape)
    shape[1] *= 3
    if lo is not None:
        ghost = (1,) + V.shape[1:]
        V = np.concatenate((V, np.reshape(lo, ghost), np.reshape(hi, ghost)))
    idx = _neighbour_index(shape[0], lo is not None)
    return V.take(idx, axis=0).reshape(shape)


@lru_cache(maxsize=None)
def _neighbour_index(n, ghosts):
    idx = np.arange(n)[:, None] + np.arange(-1, 2)
    if ghosts:
        idx[0, 0], idx[-1, 2] = n, n + 1
    else:
        idx %= n
    idx.flags.writeable = False
    return idx


def operands(nx, ny, m, seed):
    """A tensor U[i, a, j, b], two stencils, the four ghost sides and the
    two slot blocks, cells (nx-1, j) and (i, ny-1)."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((nx, m, ny, m))
    sx, sy = rng.standard_normal((2, m, 3 * m))
    ghosts = tuple(rng.standard_normal((k, m, m)) for k in (ny, ny, nx, nx))
    slots = tuple(rng.standard_normal((k, m, m)) for k in (ny, nx))
    return U, sx, sy, ghosts, slots


def without_slots(U):
    """U with its slot entries zeroed, as a closed AF rhs zeroes them."""
    U[-1, 1:] = 0.0
    U[:, :, -1, 1:] = 0.0
    return U


LAYOUTS = {
    "c": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    # the same values, read through a transposed view of another tensor
    "transposed": lambda U: _transposed(
        np.ascontiguousarray(_transposed(U))),
}


def kept_arrays(fn, prefix=""):
    """The arrays the closure ``fn`` keeps, directly or in the lists and
    tuples it keeps, and those the closures it keeps keep, by dotted
    name."""
    kept = {}
    for name, a in inspect.getclosurevars(fn).nonlocals.items():
        kept.update(_kept(a, prefix + name))
    return kept


def _kept(a, name):
    if isinstance(a, np.ndarray):
        return {name: a}
    if inspect.isfunction(a):
        return kept_arrays(a, name + ".")
    kept = {}
    if isinstance(a, (list, tuple)):
        for k, item in enumerate(a):
            kept.update(_kept(item, f"{name}[{k}]"))
    return kept


def kept_windows(apply, prefix=""):
    """The window views an applier keeps, one per band and applied axis,
    those whose name starts with ``prefix``."""
    return [a for name, a in kept_arrays(apply).items()
            if name.startswith(prefix) and name.endswith("windows")]


def assert_reference_calls(apply, stencils, calls, ghosted, layout):
    """Each call of ``apply`` and of a fresh applier, on ``layout`` of
    each tensor of ``calls`` with its ghost and slot blocks as ``ghosted``
    asks, gives the reference's bytes and leaves its input as it was;
    the results, in call order."""
    returned = []
    for U, ghosts, slots in calls:
        ghosts = ghosts if ghosted else None
        view = LAYOUTS[layout](U)
        before = view.tobytes()
        if ghosted == "slots":
            # the slots stand in for U's only along their own axis, so
            # the two results agree everywhere but in the slots
            want = without_slots(reference_kron_sum_apply(
                with_slots(U, *slots), *stencils, ghosts))
            args = ghosts + slots
            finish = without_slots
        else:
            want = reference_kron_sum_apply(U, *stencils, ghosts)
            args = ghosts and ghosts + (None, None)
            finish = np.asarray
        for got in (fresh_kron_sum_apply(view, *stencils, args),
                    apply(view, args)):
            returned.append((got, got.copy()))
            got = finish(got.copy())
            assert got.shape == want.shape and got.dtype == want.dtype
            assert value_bytes(got) == value_bytes(want)
        assert view.tobytes() == before
    return returned


def value_bytes(a):
    """The bytes of the values of ``a``: those of an x87 long double
    without the padding after its 80 bits, which no arithmetic writes."""
    if a.dtype != np.longdouble:
        return a.tobytes()
    f = np.finfo(a.dtype)
    used = -(-(1 + f.nexp + f.nmant) // 8)
    bytes_ = np.ascontiguousarray(a).view(np.uint8)
    return bytes_.reshape(a.shape + (a.itemsize,))[..., :used].tobytes()


def assert_nothing_kept_returned(apply, returned):
    """The results are as they were returned, and none shares memory with
    what ``apply`` keeps or with another call's result."""
    kept = kept_arrays(apply).values()
    for got, copy in returned:
        assert got.tobytes() == copy.tobytes()
        assert not any(np.shares_memory(got, a) for a in kept)
    assert not np.shares_memory(returned[1][0], returned[3][0])


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("ghosted", [False, True, "slots"])
@pytest.mark.parametrize("nx,ny", [(4, 3), (3, 5), (1, 2), (2, 1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_apply_is_the_gather_reference(m, nx, ny, ghosted, layout):
    """Both axes and each alone, with and without ghost blocks, and with
    the slot blocks after them, on C, Fortran and transposed layouts of the
    same values.  The y-apply's padded copy is filled from the transposed
    view, its ghost blocks' too.  With one or two cells on an axis, the
    end rows of its periodic copy alias body rows: at n = 1 both copy the
    one cell, at n = 2 each copies the body row beside the other end.  The
    bound apply, called on two tensors with their own ghost blocks in
    turn, gives the reference's bytes on each call, reads read-only
    windows and returns arrays that share no memory with what it keeps."""
    seed = 10 * nx + ny + m
    _, sx, sy, _, _ = operands(nx, ny, m, seed)
    calls = [(U, ghosts, slots) for U, _, _, ghosts, slots in
             (operands(nx, ny, m, seed + k) for k in (0, 100))]
    for stencils in ((sx, sy), (sx, None), (None, sy)):
        apply = mesh.kron_sum_applier(LAYOUTS[layout](calls[0][0]),
                                      *stencils)
        windows = kept_windows(apply)
        assert len(windows) == sum(s is not None for s in stencils)
        assert not any(w.flags.writeable for w in windows)
        returned = assert_reference_calls(apply, stencils, calls, ghosted,
                                          layout)
        assert_nothing_kept_returned(apply, returned)


# the y bands of nx = 5 x-cells at each forced band count: one, an even
# and an uneven split
BANDS = {1: [5], 2: [2, 3], 3: [2, 1, 2]}
DTYPES = ["float64", "complex128", "longdouble"]


def typed(a, dtype):
    """``a`` as ``dtype``; a complex one gets an imaginary part of its
    own."""
    if np.issubdtype(dtype, np.complexfloating):
        return a + 1j * np.flip(a)
    return a.astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("ghosted", [False, True, "slots"])
@pytest.mark.parametrize("nb", sorted(BANDS))
def test_y_bands_give_the_bytes_of_one_band(nb, ghosted, layout, dtype,
                                            monkeypatch):
    """With the y band budget forced down, the applier runs its y half in
    ``nb`` bands of x-cells, each with its own read-only window view, and
    still gives the reference's bytes, periodic, with ghost blocks and
    with slot blocks, on every layout and dtype."""
    m, nx, ny = 3, 5, 4
    _, sx, sy, _, _ = operands(nx, ny, m, nb)
    calls = [(typed(U, dtype), tuple(typed(g, dtype) for g in ghosts),
              tuple(typed(s, dtype) for s in slots))
             for U, _, _, ghosts, slots in
             (operands(nx, ny, m, nb + k) for k in (10, 20))]
    U = LAYOUTS[layout](calls[0][0])
    monkeypatch.setattr(mesh, "_Y_BAND_BYTES", -(-U.nbytes // nb))
    for stencils in ((sx, sy), (None, sy)):
        apply = mesh.kron_sum_applier(U, *stencils)
        y_windows = kept_windows(apply, "bands")
        assert len(kept_windows(apply)) == len(y_windows) + 1 - (
            stencils[0] is None)
        assert [w.shape[-1] // m for w in y_windows] == BANDS[nb]
        assert not any(w.flags.writeable for w in y_windows)
        returned = assert_reference_calls(apply, stencils, calls, ghosted,
                                          layout)
        assert_nothing_kept_returned(apply, returned)


def test_an_axis_without_its_ghost_pair_wraps_and_half_a_pair_is_refused():
    """In six ghost blocks, an axis whose pair is None wraps periodically;
    a pair with one side None is refused, by the bound apply as by a
    fresh applier's one call, and the bound apply's next call is the
    reference again."""
    U, sx, sy, (x_lo, x_hi, y_lo, y_hi), _ = operands(4, 3, 2, seed=7)
    apply = mesh.kron_sum_applier(U, sx, sy)
    unbound = lambda V, g: fresh_kron_sum_apply(V, sx, sy, g)
    for ghosts in ((x_lo, x_hi, None, None), (None, None, y_lo, y_hi)):
        want = reference_kron_sum_apply(U, sx, sy, ghosts)
        for call in (apply, unbound):
            got = call(U, ghosts + (None, None))
            assert got.tobytes() == want.tobytes()
    for ghosts in ((x_lo, None, y_lo, y_hi), (x_lo, x_hi, None, y_hi)):
        for call in (apply, unbound):
            with pytest.raises(ValueError, match="pairs"):
                call(U, ghosts + (None, None))
    assert apply(U).tobytes() == reference_kron_sum_apply(U, sx, sy).tobytes()

def bound_rhs(method, order, boundary="periodic", n=8, **settings):
    cfg = RunConfig(**{**dict(method=method, order=order,
                              problem="advection2d", ux=1.0, uy=-0.5,
                              init="sine", boundary=boundary), **settings})
    problem = driver.make_problem(cfg)
    state = driver.build_state(cfg, n)
    flux = driver.make_flux(cfg, problem, state.U)
    return cfg, state, driver.make_rhs(cfg, problem, flux)


@pytest.mark.parametrize("method,order", [("af", 3), ("af", 4), ("dg", 3),
                                          ("dg", 4)])
def test_a_bound_rhs_is_the_reference_call_after_call(method, order):
    """The stencils bound on the first call serve every later state: each
    call equals the reference apply of stencils built for that call."""
    cfg, state, rhs = bound_rhs(method, order)
    blocks = (dg.dg_stencil_1d if method == "dg" else af.af_stencil_1d)(
        state.K)
    (px, py), g = driver.axis_partials(cfg, driver.make_flux(cfg)), state.grid
    rng = np.random.default_rng(order)
    for t in (0.0, 0.01, 0.02):
        U = rng.standard_normal(state.U.shape)
        want = reference_kron_sum_apply(
            U, mesh.axis_stencil(blocks, cfg.ux, px, g.dx),
            mesh.axis_stencil(blocks, cfg.uy, py, g.dy))
        assert rhs(state.with_tensor(U), t).U.tobytes() == want.tobytes()


# upwind reads one ghost side per axis (x_lo, y_hi), the alpha weights all
# four, and a zero-speed Lax-Friedrichs x axis both of its sides
FLUXES = {"upwind": {},
          "alpha": dict(flux="alpha", alpha_plus=0.7, beta_plus=0.7),
          "lax_friedrichs": dict(flux="lax_friedrichs", ux=0.0)}


@pytest.mark.parametrize("method,order,boundary,flux", [
    pytest.param(method, order, boundary, flux,
                 id="-".join((method, str(order), boundary)
                             + ((flux,) if flux != "upwind" else ())))
    for flux in FLUXES for boundary in ("periodic", "dirichlet")
    for method, order in (("af", 3), ("af", 4), ("af", 5), ("dg", 3),
                          ("dg", 4))])
def test_successive_rhs_calls_return_distinct_arrays(method, order,
                                                     boundary, flux):
    """Every rhs ``make_rhs`` returns is a pure function of its state: it
    leaves its input unchanged, and a second call leaves the first call's
    result unchanged."""
    _, state, rhs = bound_rhs(method, order, boundary, **FLUXES[flux])
    before = state.U.tobytes()
    first = rhs(state, 0.0).U
    assert state.U.tobytes() == before
    kept = first.copy()
    other = state.with_tensor(state.U * 0.5 + 1.0)
    other_before = other.U.tobytes()
    second = rhs(other, 0.01).U
    assert other.U.tobytes() == other_before
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    assert second.tobytes() != kept.tobytes()


@pytest.mark.parametrize("method,order", [("af", 4), ("dg", 3)])
def test_ssprk54_keeps_its_stage_three_derivative(method, order):
    """L(u_3) serves stages 4 and 5 of SSPRK(5,4): the call for L(u_4) in
    between must leave it as it was, so the step equals one whose every
    derivative comes from a fresh closure."""
    cfg, state, rhs = bound_rhs(method, order)
    seen = []

    def watched(s, t):
        d = rhs(s, t)
        seen.append((d.U, d.U.copy()))
        return d

    def fresh(s, t):
        return bound_rhs(cfg.method, cfg.order)[2](s, t)

    got = timeint.rk_step(timeint.SSPRK54, watched, state, 0.01)
    want = timeint.rk_step(timeint.SSPRK54, fresh, state, 0.01)
    assert len(seen) == 5
    assert all(a.tobytes() == b.tobytes() for a, b in seen)
    assert got.U.tobytes() == want.U.tobytes()


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("method,order", [("af", 3), ("af", 4), ("dg", 3)])
def test_a_closure_rebinds_its_stencils_to_another_grid(method, order,
                                                        boundary):
    cfg, big, rhs = bound_rhs(method, order, boundary)
    rhs(big, 0.0)
    small = bound_rhs(method, order, boundary, n=6)[1]
    got = rhs(small.copy(), 0.02).U
    want = bound_rhs(method, order, boundary, n=6)[2](small.copy(), 0.02).U
    assert got.shape == small.U.shape and got.tobytes() == want.tobytes()
    # and back: the 8^2 stencils, bound again, give a fresh closure's result
    again = rhs(big.copy(), 0.0).U
    assert again.tobytes() == bound_rhs(method, order, boundary)[2](
        big.copy(), 0.0).U.tobytes()


def counting(fn, calls):
    """``fn``, keeping the result of each call in ``calls``."""
    def counted(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]
    return counted


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("method,order", [("af", 4), ("dg", 3)])
def test_a_run_builds_its_stencils_once(method, order, boundary,
                                        monkeypatch):
    """Two ``axis_stencil`` calls (x and y) per run, however many steps,
    one ``kron_sum_applier`` and one ``_ghost_ring`` call per Dirichlet
    run; the run's rhs, met by another grid, makes each once more.  A
    family rhs called without an apply builds its two stencils on every
    call."""
    calls, appliers, rings, closures = [], [], [], []
    monkeypatch.setattr(mesh, "axis_stencil",
                        counting(mesh.axis_stencil, calls))
    monkeypatch.setattr(mesh, "kron_sum_applier",
                        counting(mesh.kron_sum_applier, appliers))
    monkeypatch.setattr(driver, "_ghost_ring",
                        counting(driver._ghost_ring, rings))
    monkeypatch.setattr(driver, "make_rhs",
                        counting(driver.make_rhs, closures))
    cfg = RunConfig(method=method, order=order, problem="advection2d",
                    ux=1.0, uy=-0.5, init="sine", boundary=boundary,
                    t_final=0.05)
    res = driver.run_simulation(cfg, 8)
    dirichlet = boundary == "dirichlet"
    assert res.bench.steps > 1 and len(calls) == 2 and len(appliers) == 1
    assert len(rings) == dirichlet
    small = driver.build_state(cfg, 6)
    for t in (0.0, 0.01):
        closures[0](small, t)
    assert len(calls) == 4 and len(appliers) == 2
    assert len(rings) == 2 * dirichlet
    calls.clear()
    state = driver.build_state(replace(cfg, boundary="periodic"), 4)
    rhs = dg.dg_rhs_2d if method == "dg" else af.af_rhs_2d_tensorial
    for _ in range(3):
        rhs(state, 1.0, -0.5, (1.0, 0.0), (0.0, -0.5))
    assert len(calls) == 6


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("method,order", [("af", 4), ("dg", 3)])
def test_a_warm_bound_rhs_call_allocates_about_one_state(method, order,
                                                         boundary):
    """After a warm-up call, an AF43 or DG33 rhs call at 40^2 allocates
    its result and little else: the padded copies and the y-apply's
    product are the bound apply's (at the warm-up's stage time a Dirichlet
    ring projects nothing)."""
    _, state, rhs = bound_rhs(method, order, boundary, n=40)
    rhs(state, 0.0)
    tracemalloc.start()
    try:
        rhs(state, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * state.U.nbytes


@pytest.mark.parametrize("nb", [2, 5])
@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("method,order", [("af", 4), ("dg", 3)])
def test_a_run_in_y_bands_ends_in_the_bytes_of_one_band(method, order,
                                                        boundary, nb,
                                                        monkeypatch):
    """Three steps on 12^2 with the y half of every rhs call and every
    stage sum in ``nb`` bands end in the final state of the same run in
    one band.  The applier makes its bands once a run (``mesh._bands``),
    the step once a step (``timeint``'s own binding of ``_bands``), and
    each gives ``nb`` bands."""
    cfg = RunConfig(method=method, order=order, problem="advection2d",
                    ux=1.0, uy=-0.5, init="sine", boundary=boundary)
    cfg.t_final = 3 * driver.default_dt(cfg, 1 / 12)
    one = driver.run_simulation(cfg, 12)
    U = one.state.U
    applier_bands, step_bands = [], []
    monkeypatch.setattr(mesh, "_bands", counting(mesh._bands, applier_bands))
    monkeypatch.setattr(timeint, "_bands",
                        counting(timeint._bands, step_bands))
    monkeypatch.setattr(mesh, "_Y_BAND_BYTES", -(-U.nbytes // nb))
    banded = driver.run_simulation(cfg, 12)
    assert one.bench.steps == banded.bench.steps == 3
    assert [len(cells) for _, cells in applier_bands] == [nb]
    assert [len(cells) for _, cells in step_bands] == [nb] * 3
    assert banded.state.U.tobytes() == U.tobytes()
