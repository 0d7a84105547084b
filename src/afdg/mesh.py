"""Cartesian grids, dof containers for AF and DG, dof bookkeeping, the
per-family cell projections, and the stencil applies shared by both
families: ``line_apply`` for the linear 1-d right-hand sides, the
Kronecker sum ``kron_sum_applier`` for the 2-d ones and the Kronecker
product ``kron_apply`` for the 2-d DG-to-AF map, T (x) T of its 1-d
block row.  Every apply runs along the leading axis of a tensor, as one
matmul against the neighbour windows [V_{i-1}; V_i; V_{i+1}], a read-only
view of one padded copy [V_{-1}; V_0 ... V_{n-1}; V_n] of the tensor,
periodic or with ghost blocks at its ends; a y-apply is the x-apply of
the transposed tensor.  A 2-d update's two stencils come from
``axis_stencils``, and ``kron_sum_applier`` binds them with the padded
copies to a tensor's shape, which a run's right-hand side does once
(``driver.make_rhs``).  The applier runs the y half in bands of x-cells
of at most ``_Y_BAND_BYTES`` each, so that the transposing write of its
padded copy and the add of its product back stay in cache; the bands
give the bytes of one.

States are plain value containers around one tensor U of cell blocks
(``_TensorState``): the time loop sums and wraps tensors
(``with_tensor``), and right-hand-side evaluation treats states as
immutable.  Interface point values are stored once per interface
(sharedness is structural).  A 2-d state is one tensor U[i, a, j, b]
(cell i, x-dof a, cell j, y-dof b) whose family fields are views: cell
(i, j) owns the block U[i, :, j, :]; an AF state's edge fields always
hold edge moments.  ``af_cell_projector_2d`` and ``dg_cell_projector_2d``
bind the points of any set of cells and project data onto their blocks,
for the 2-d fills and the Dirichlet ghost ring alike, and the apply of
``kron_sum_applier`` takes the ghost blocks in place of its periodic wrap
(and a closed AF state's slot cells in place of its unused slots).  A
1-d state is one tensor U[i, p, c] (cell i, dof p, component c) on a
periodic grid: an AF state's point values and moments are the views
U[:, 0] and U[:, 1:], the cell blocks that ``line_apply`` and the
DG-to-AF map act on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np
from numpy.polynomial import polynomial as npp

from . import poly

__all__ = [
    "Grid1D", "Grid2D",
    "AfState1D", "AfState2D", "DgState1D", "DgState2D",
    "DofCounts", "dof_counts", "AF_N_INT", "DG_N_INT", "AF_CFL", "DG_CFL",
    "simpson_edge_average",
    "fill_af_1d", "fill_dg_1d", "fill_af_2d", "fill_dg_2d",
    "af_cell_projector_2d", "dg_cell_projector_2d",
    "axis_stencil", "axis_stencils", "line_apply", "kron_sum_applier",
    "kron_apply", "roll_cells",
    "STATE_HEADER", "state_rows",
]

# Method catalog: quadrature exactness degree and CFL number per order,
# stored verbatim rather than re-derived (the derivation rule for the
# low orders is ambiguous).
AF_N_INT = {3: 3, 4: 3, 5: 5, 6: 7, 7: 9}
DG_N_INT = {2: 3, 3: 5, 4: 7, 5: 9, 6: 11}
AF_CFL = {3: 0.27, 4: 0.2, 5: 0.17, 6: 0.12, 7: 0.085}
DG_CFL = {2: 0.2, 3: 0.1, 4: 0.05, 5: 0.02, 6: 0.01}


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 1 or self.x_max <= self.x_min:
            raise ValueError("empty grid")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def interfaces(self, periodic: bool = True) -> np.ndarray:
        n = self.n_cells if periodic else self.n_cells + 1
        return self.x_min + np.arange(n) * self.dx


@dataclass(frozen=True)
class Grid2D:
    x_min: float
    x_max: float
    n_cells_x: int
    y_min: float
    y_max: float
    n_cells_y: int

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells_x

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.n_cells_y

    @property
    def gx(self) -> Grid1D:
        return Grid1D(self.x_min, self.x_max, self.n_cells_x)

    @property
    def gy(self) -> Grid1D:
        return Grid1D(self.y_min, self.y_max, self.n_cells_y)

    @classmethod
    def square(cls, n: int, lo: float = 0.0, hi: float = 1.0) -> "Grid2D":
        return cls(lo, hi, n, lo, hi, n)


# ---------------------------------------------------------------------------
# state containers


class _TensorState:
    """A state stored as one tensor U of cell blocks: U[i, p, c] in 1-d
    (cell i, dof p, component c), U[i, a, j, b] in 2-d (cell i, x-dof a,
    cell j, y-dof b).  ``from_tensor`` and ``with_tensor`` wrap a given
    tensor (or a view, such as the transpose of cell-major blocks) without
    copying; ``copy`` copies it.  The family fields are views of U, and
    ``families`` names them: the (name, view) pairs that error measurement
    reads, in the order of the errors CSV."""

    def __init__(self, grid, K: int, U: np.ndarray):
        self.grid, self.K, self.U = grid, K, U

    @classmethod
    def from_tensor(cls, grid, K: int, U: np.ndarray):
        state = object.__new__(cls)
        _TensorState.__init__(state, grid, K, U)
        return state

    def with_tensor(self, U: np.ndarray):
        # built directly: the time loop wraps every stage's sum and
        # derivative
        state = object.__new__(type(self))
        state.grid, state.K, state.U = self.grid, self.K, U
        return state

    def arrays(self):
        return [self.U]

    def copy(self):
        return self.with_tensor(self.U.copy())

    @property
    def n_components(self) -> int:
        """A 1-d state's component count; 2-d states are scalar."""
        return self.U.shape[2] if self.U.ndim == 3 else 1


class DgState1D(_TensorState):
    """Per-cell modal blocks: coeffs[i, n, comp], basis endpoint-normalized;
    ``coeffs`` is U itself."""

    coeffs = property(lambda self: self.U)
    families = property(lambda self: (("modal", self.coeffs),))


class AfState1D(_TensorState):
    """Cell blocks U[i, p, comp] of the periodic 1-d AF dofs: p = 0 is the
    point value at the cell's left interface, shared with cell i-1 (cell
    n-1's right interface wraps to cell 0's), and p = 1..K the moments.
    The fields are views of U: point_values[i, comp] and moments[i, k,
    comp], the k-th weighted cell integral.  The constructor packs the
    fields into a new U.
    """

    def __init__(self, grid: Grid1D, K: int, point_values, moments):
        super().__init__(grid, K, np.empty((len(point_values), K + 1,
                                            np.shape(point_values)[1])))
        self.U[:, 0], self.U[:, 1:] = point_values, moments

    point_values = property(lambda self: self.U[:, 0])
    moments = property(lambda self: self.U[:, 1:])
    families = property(lambda self: (("point_values", self.point_values),
                                      ("moments", self.moments)))


class DgState2D(_TensorState):
    """Tensor modal blocks: coeffs[i, j, m, n] with m the x-mode index, a
    view of U[i, m, j, n].  The layout does not depend on the boundary: a
    Dirichlet run's right-hand side takes the ghost blocks beside it.  The
    constructor packs ``coeffs`` into a new contiguous U."""

    def __init__(self, grid: Grid2D, K: int, coeffs):
        nx, ny = np.shape(coeffs)[:2]
        super().__init__(grid, K, np.empty((nx, K + 1, ny, K + 1)))
        self.coeffs[...] = coeffs

    @cached_property
    def coeffs(self) -> np.ndarray:
        return self.U.swapaxes(1, 2)

    families = property(lambda self: (("modal", self.coeffs),))


class AfState2D(_TensorState):
    """2-d AF dofs, one layout for the tensorial and the classical update.
    Per axis, index 0 of a cell's block is its lower-left point value and
    1..K its moments: block[0, 0] is the node, [0, 1:] the left-edge
    moments in y (x_edge; k=0 is the edge average), [1:, 0] the
    bottom-edge moments in x (y_edge), [1:, 1:] the tensor moments
    (cell_moments).  A periodic state has n cells per axis and a closed
    (non-periodic) one n+1, one per corner: ``periodic`` reads the shape.
    The moments of a closed state's last row and column, U[-1, 1:] and
    U[:, :, -1, 1:], are unused slots that the fields leave out; they stay
    zero.  The constructor packs the fields into a new contiguous U.
    """

    def __init__(self, grid: Grid2D, K: int, node_values, x_edge, y_edge,
                 cell_moments):
        nx, ny = np.shape(node_values)
        super().__init__(grid, K, np.zeros((nx, K + 1, ny, K + 1)))
        for view, values in zip(self._fields, (node_values, x_edge, y_edge,
                                               cell_moments)):
            view[...] = values

    @property
    def periodic(self) -> bool:
        return self.U.shape[0] == self.grid.n_cells_x

    @cached_property
    def _fields(self) -> tuple:
        """The family views of the cell blocks V[i, j, a, b] of U."""
        V = self.U.swapaxes(1, 2)
        nx, ny = self.grid.n_cells_x, self.grid.n_cells_y
        return (V[:, :, 0, 0], V[:, :ny, 0, 1:], V[:nx, :, 1:, 0],
                V[:nx, :ny, 1:, 1:])

    node_values = property(lambda self: self._fields[0])
    x_edge = property(lambda self: self._fields[1])
    y_edge = property(lambda self: self._fields[2])
    cell_moments = property(lambda self: self._fields[3])
    families = property(lambda self: tuple(zip(
        ("node_values", "x_edge", "y_edge", "moments"), self._fields)))


# ---------------------------------------------------------------------------
# dof counting


@dataclass(frozen=True)
class DofCounts:
    n_dofs: int
    n_tdofs: int
    n_mom: int
    n_edge: int | None
    n_node: int | None


def dof_counts(family: str, n_order: int) -> DofCounts:
    """Per-cell dof counts (exclusive and accessible) for a method order."""
    if family == "dg":
        if n_order < 1:
            raise ValueError("DG order must be >= 1")
        n = n_order ** 2
        return DofCounts(n, n, n, None, None)
    if family == "af":
        if n_order < 3:
            raise ValueError("AF order must be >= 3")
        n_node = 4
        n_edge = 4 * (n_order - 2)
        n_mom = max(1, (n_order - 4) * (n_order - 3) // 2)
        n_dofs = n_node // 4 + n_edge // 2 + n_mom
        n_tdofs = n_node + n_edge + n_mom
        return DofCounts(n_dofs, n_tdofs, n_mom, n_edge, n_node)
    raise ValueError(f"unknown method family {family!r}")


# ---------------------------------------------------------------------------
# Simpson average of an edge point triple


def simpson_edge_average(end1, mid, end2):
    """Average along an edge from its endpoint and midpoint values."""
    return (np.asarray(end1) + 4.0 * np.asarray(mid) + np.asarray(end2)) / 6.0


# ---------------------------------------------------------------------------
# filling states from smooth functions

_FILL_RULE = poly.gauss_legendre_rule(12)


def _as_components(values, m: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] != m:
        values = values[..., None]
    return values


def _af_moment_weights(K: int, rule: poly.QuadratureRule) -> np.ndarray:
    """Row k: the rule's weights of the k-th AF moment; read-only, cached
    on K and the bytes of the rule's nodes and weights (a rule is not
    hashable)."""
    return _moment_weights(K, *(np.asarray(a, dtype=float).tobytes()
                                for a in (rule.nodes, rule.weights)))


@lru_cache(maxsize=64)
def _moment_weights(K: int, nodes: bytes, weights: bytes) -> np.ndarray:
    nodes, weights = np.frombuffer(nodes), np.frombuffer(weights)
    return poly.frozen(
        npp.polyval(nodes, poly.table(poly.moment_weights(K)).T) * weights)


def fill_af_1d(grid: Grid1D, K: int, init: Callable, n_components: int = 1,
               rule: poly.QuadratureRule | None = None) -> AfState1D:
    """Point values by sampling, moments by quadrature.

    The default 12-point rule is accurate enough for reference states;
    production runs pass the method's catalog rule instead so the state
    preparation matches the solver's own integration order.
    """
    pts = _as_components(init(grid.interfaces()), n_components)
    rule = rule or _FILL_RULE
    xq = grid.centers()[:, None] + grid.dx * rule.nodes[None, :]
    fq = _as_components(init(xq), n_components)  # (n_cells, nq, m)
    return AfState1D(grid, K, pts, _af_moment_weights(K, rule) @ fq)


@lru_cache(maxsize=None)
def _dg_projection_weights(K: int) -> np.ndarray:
    """Row n: the fill rule's weights of the L2 projection onto mode n."""
    phi = poly.legendre(K)
    mass = poly.rounded(np.diag(poly.inner(phi, phi)))
    return poly.frozen(npp.polyval(_FILL_RULE.nodes, poly.table(phi).T)
                       * _FILL_RULE.weights / mass[:, None])


def fill_dg_1d(grid: Grid1D, K: int, init: Callable,
               n_components: int = 1) -> DgState1D:
    """Cell-wise L2 projection onto the endpoint-normalized Legendre basis."""
    xq = grid.centers()[:, None] + grid.dx * _FILL_RULE.nodes[None, :]
    fq = _as_components(init(xq), n_components)
    return DgState1D(grid, K, _dg_projection_weights(K) @ fq)


def _points(x0, d: float, nodes: np.ndarray) -> np.ndarray:
    """(..., q): the quadrature points of the cells that start at x0."""
    return (np.asarray(x0, dtype=float) + 0.5 * d)[..., None] + d * nodes


def _eval(f: Callable, x, y) -> np.ndarray:
    """f(x, y) broadcast to the shape of x and y (constant data may be smaller)."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.broadcast_to(np.asarray(f(x, y), dtype=float), shape)


def af_cell_projector_2d(K: int, x0, y0, dx: float, dy: float,
                         rule: poly.QuadratureRule | None = None) -> Callable:
    """``project(f, out=None)``: the (K+1, K+1) AF blocks (see
    ``AfState2D``) of f on the cells with lower-left corners (x0, y0),
    which broadcast (a grid passes a column and a row): the lower-left
    node, the left- and bottom-edge moments ``f @ B.T`` and the tensor
    moments ``B @ f @ B.T``.  The cells' points and the moment weights
    are built here, once, for a cell set projected again and again; f is
    called twice per projection, on the node and edge points and on the
    tensor points.  ``out`` may be a view of a state tensor, such as
    ``U.swapaxes(1, 2)``."""
    rule = rule or _FILL_RULE
    B = _af_moment_weights(K, rule)
    q = len(rule.nodes)
    shape = np.broadcast_shapes(np.shape(x0), np.shape(y0)) + (K + 1, K + 1)
    xq, yq = _points(x0, dx, rule.nodes), _points(y0, dy, rule.nodes)
    # the node, the left edge (x0, yq) and the bottom edge (xq, y0), side by
    # side on the last axis
    x0, y0 = np.expand_dims(x0, -1), np.expand_dims(y0, -1)
    xe = np.concatenate((x0, np.broadcast_to(x0, xq.shape), xq), axis=-1)
    ye = np.concatenate((y0, yq, np.broadcast_to(y0, yq.shape)), axis=-1)
    xt, yt = xq[..., :, None], yq[..., None, :]

    def project(f: Callable, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(shape)
        np.matmul(B @ _eval(f, xt, yt), B.T, out=out[..., 1:, 1:])
        fe = _eval(f, xe, ye)
        out[..., 0, 0] = fe[..., 0]
        np.matmul(fe[..., 1:q + 1], B.T, out=out[..., 0, 1:])
        out[..., 1:, 0] = fe[..., q + 1:] @ B.T
        return out
    return project


def dg_cell_projector_2d(K: int, x0, y0, dx: float, dy: float) -> Callable:
    """``project(f, out=None)``: ``W @ f @ W.T``, the modal blocks of f on
    the cells with lower-left corners (x0, y0), with the points bound
    once, as in ``af_cell_projector_2d``."""
    W = _dg_projection_weights(K)
    xq, yq = _points(x0, dx, _FILL_RULE.nodes), _points(y0, dy, _FILL_RULE.nodes)
    xt, yt = xq[..., :, None], yq[..., None, :]
    return lambda f, out=None: np.matmul(W @ _eval(f, xt, yt), W.T, out=out)


def fill_af_2d(grid: Grid2D, K: int, init: Callable, periodic: bool = True,
               rule: poly.QuadratureRule | None = None) -> AfState2D:
    """The tensorial blocks of every corner's cell, projected into the
    state tensor (a non-periodic grid has n+1 corners per axis, and the
    unused slots stay zero)."""
    xs_if = grid.gx.interfaces(periodic)
    ys_if = grid.gy.interfaces(periodic)
    U = np.empty((len(xs_if), K + 1, len(ys_if), K + 1))
    af_cell_projector_2d(K, xs_if[:, None], ys_if[None, :], grid.dx,
                         grid.dy, rule)(init, U.swapaxes(1, 2))
    if not periodic:
        U[-1, 1:] = 0.0
        U[:, :, -1, 1:] = 0.0
    return AfState2D.from_tensor(grid, K, U)


def fill_dg_2d(grid: Grid2D, K: int, init: Callable) -> DgState2D:
    """The modal blocks of every cell, projected into the state tensor; a
    Dirichlet run uses the same state (its ghost blocks lie outside)."""
    U = np.empty((grid.n_cells_x, K + 1, grid.n_cells_y, K + 1))
    dg_cell_projector_2d(K, grid.gx.interfaces()[:, None],
                         grid.gy.interfaces()[None, :], grid.dx,
                         grid.dy)(init, U.swapaxes(1, 2))
    return DgState2D.from_tensor(grid, K, U)


# ---------------------------------------------------------------------------
# tensor-product operators


def axis_stencil(blocks: np.ndarray, u: float, partials: tuple[float, float],
                 h: float) -> np.ndarray | None:
    """(u S_u + d_L S_L + d_R S_R) / h from a family's blocks (S_u, S_L,
    S_R): the stencil of an axis with speed u, flux partials (d_L, d_R) and
    cell width h; None (skipped) when u = d_L = d_R = 0."""
    d_l, d_r = partials
    if not (u or d_l or d_r):
        return None
    return np.dot((u / h, d_l / h, d_r / h),
                  blocks.reshape(3, -1)).reshape(blocks.shape[1:])


def axis_stencils(blocks: np.ndarray, grid: Grid2D, ux: float, uy: float,
                  partials_x: tuple, partials_y: tuple) -> tuple:
    """The (x, y) pair of ``axis_stencil`` of a family's blocks on a 2-d
    grid, from each axis' speed, flux partials and cell width: the
    stencils ``kron_sum_applier`` takes, which a time loop binds once per
    run (``driver.make_rhs``)."""
    return (axis_stencil(blocks, ux, partials_x, grid.dx),
            axis_stencil(blocks, uy, partials_y, grid.dy))


def line_apply(blocks: np.ndarray, speed, partials: tuple, h: float,
               V: np.ndarray) -> np.ndarray:
    """The periodic 1-d operator of a family's blocks (S_u, S_L, S_R) on
    cell blocks V[i, dof, component]: out_i = L V_{i-1} + D V_i + R V_{i+1}.
    A scalar speed takes the ``axis_stencil`` of (speed, partials); a
    system passes its Jacobian J as ``speed`` and matrix partials, and its
    stencil (S_u (x) J + S_L (x) d_L + S_R (x) d_R) / h acts on each
    cell's (dof, component) pairs."""
    if np.ndim(speed) == 0:
        S = axis_stencil(blocks, speed, partials, h)
        return np.zeros_like(V) if S is None else _axis_apply(V, S)
    S = sum(np.kron(b, a) for b, a in zip(blocks, (speed, *partials))) / h
    # one GEMM over all cells: the overlapping windows are copied out
    W = _with_neighbours(V).reshape(len(V), -1)
    return (W @ S.T).reshape(V.shape)


# the six ghost blocks of a periodic call
_NO_GHOSTS = (None,) * 6

# The byte budget of one y band of ``kron_sum_applier``, a slab U[i0:i1]
# of x-cells.  A band's slab, its padded y copy, its product and its part
# of the result are about the budget each, so 512 KiB keeps the four in
# a 2 MiB L2.  Untiled, the y half of a 160^2 m = 3 call (1.8 MB) spent
# most of its time in its two transposing passes, the write of the y
# copy and the add of the product back; in 4 bands the whole call took
# about 0.7x the time (2-vCPU Xeon VM).  256 KiB was no faster there,
# and 512 KiB keeps an 80^2 m = 3 tensor (450 KiB) one band.
_Y_BAND_BYTES = 512 * 1024


def kron_sum_applier(U: np.ndarray, sx: np.ndarray | None,
                     sy: np.ndarray | None) -> Callable:
    """``apply(V, ghosts=None)``: ``Sx (x) I + I (x) Sy`` applied to
    tensor-product states V of U's shape and dtype, with what a call
    writes bound here, once, as a time loop binds it once per run.

    U has shape (nx, m, ny, m): cell i, x-dof a, cell j, y-dof b.  A
    stencil is the (m, 3m) block row [L | D | R] of a block-circulant 1-d
    operator, out_i = L U_{i-1} + D U_i + R U_{i+1}.  Both axes run the
    one apply along the leading axis: the x-apply on V, the y-apply on the
    transposed view V[j, b, i, a], whose result is added back through the
    transposed view.  Each is one matmul of the stencil against the
    windows [V_{i-1}; V_i; V_{i+1}] of one padded copy of its tensor
    (``_padded``).  ``None`` skips the axis.  The bound arrays are the
    padded copy of each applied axis, in U's layout for x and the
    transposed U[j, b, i, a]'s for y, and the y-apply's product.  A call
    refills the copies, does one matmul for x and one per y band, adds
    each band's product back, and returns a new array that shares no
    memory with the bound ones.

    The neighbours wrap periodically unless ``ghosts`` gives six blocks
    (x_lo, x_hi, y_lo, y_hi, x_slot, y_slot).  The first four are the
    cells one beyond the tensor on each side, as per-cell (m, m) blocks
    like ``U.swapaxes(1, 2)``'s: x_lo[j] is cell (-1, j) and x_hi[j] cell
    (nx, j), y_lo[i] is cell (i, -1) and y_hi[i] cell (i, ny); an axis
    whose pair is None wraps, and a pair with one side None is refused.
    The slot blocks are cells (nx-1, j) and (i, ny-1), or None; their dofs
    1.. stand in for the tensor's along that axis (a closed AF state's
    unused slots), in the padded copy of that axis' apply, so V itself is
    never written.  The result in those slots is then not the operator's;
    a closed AF rhs zeroes it.

    The y half runs in bands of x-cells [i0, i1), each with a padded copy
    and a product of its own, so that a band's transposing write and add
    back stay in cache (``_Y_BAND_BYTES``): ``nb = ceil(U.nbytes /
    _Y_BAND_BYTES)`` bands (at most nx), with edges round(k nx / nb).
    The y-apply of cell i reads only cells (i, j), so a band is the
    y-apply of its slab V[i0:i1] with its slice of the y ghost and slot
    blocks, and each band's matmul keeps the (m, 3m) x (3m, w m) form of
    one band's: the bands give the bytes of one.  A tensor within the
    budget, every tensor up to 80^2 at m <= 3, is one band."""
    nx, m, ny, _ = shape = U.shape
    fill_x, bands = None, []
    if sx is not None:
        fill_x = _padded(np.empty((nx + 2, m, ny, m), U.dtype))
    if sy is not None:
        # the bands run one after the other, so they share one buffer for
        # their copies and one for their products, the widest band's size,
        # which stay in cache; each band's are the first bytes of them
        widest, cells_widths = _bands(nx, -(-U.nbytes // _Y_BAND_BYTES))
        copies = np.empty((ny + 2) * m * widest * m, U.dtype)
        prods = np.empty(ny * m * widest * m, np.result_type(sy, U))
        for cells, w in cells_widths:
            copy = copies[:(ny + 2) * m * w * m].reshape(ny + 2, m, w, m)
            prod = prods[:ny * m * w * m].reshape(ny, m, w * m)
            bands.append((cells, _padded(copy, False, cells), prod,
                          _transposed(prod.reshape(ny, m, w, m))))

    def apply(V: np.ndarray, ghosts=None) -> np.ndarray:
        x_lo, x_hi, y_lo, y_hi, x_slot, y_slot = ghosts or _NO_GHOSTS
        if sx is None:
            out = np.zeros(shape, V.dtype)
        else:
            W = fill_x(V, x_lo, x_hi, x_slot)
            out = np.matmul(sx, W).reshape(shape)
        for cells, fill_y, prod, back in bands:
            np.matmul(sy, fill_y(V, y_lo, y_hi, y_slot), out=prod)
            band = out[cells]
            band += back
        return out
    return apply


@lru_cache(maxsize=None)
def _bands(n: int, nb: int) -> tuple:
    """(widest, ((cells, width), ...)) of min(nb, n) bands of n cells,
    cells the slice [round(k n / nb), round((k + 1) n / nb))."""
    nb = min(nb, n)
    edges = [round(k * n / nb) for k in range(nb + 1)]
    widths = [b - a for a, b in zip(edges, edges[1:])]
    return max(widths), tuple(zip(map(slice, edges, edges[1:]), widths))


def kron_apply(U: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Apply ``Sx (x) Sy`` = (Sx (x) I)(I (x) Sy) to a periodic
    tensor-product state U[i, a, j, b], with stencils as in
    ``kron_sum_applier``: the y-apply on the transposed view of U, then the
    x-apply on the transposed view of its result."""
    return _axis_apply(_transposed(_axis_apply(_transposed(U), sy)), sx)


def _transposed(U: np.ndarray) -> np.ndarray:
    """U[i, a, j, b] as the transposed view U[j, b, i, a]."""
    return U.transpose(2, 3, 0, 1)


def _axis_apply(U: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The stencil s along the leading axis of the tensor U[i, a, ...],
    periodic, as one matmul against the windows of one padded copy."""
    return np.matmul(s, _with_neighbours(U)).reshape(U.shape)


def roll_cells(a: np.ndarray, shift: int, axis: int = 0) -> np.ndarray:
    """``np.roll(a, shift, axis)`` for a shift of -1, 0 (``a`` itself) or +1
    along an axis >= 0, without np.roll's per-call set-up."""
    if shift == 0:
        return a
    if shift not in (1, -1) or axis < 0:
        raise ValueError("roll_cells shifts by one cell along an axis >= 0")
    lead = (slice(None),) * axis
    return np.concatenate((a[lead + (slice(-shift, None),)],
                           a[lead + (slice(None, -shift),)]), axis=axis)


def _with_neighbours(V: np.ndarray) -> np.ndarray:
    """The periodic windows [V_{i-1}; V_i; V_{i+1}] of V[i, a, ...] along
    its leading axis, in a padded copy of their own (``_padded``)."""
    return _padded(np.empty((len(V) + 2,) + V.shape[1:], V.dtype),
                   V.flags.c_contiguous)(V)


def _padded(P: np.ndarray, gather: bool = True,
            cells: slice | None = None) -> Callable:
    """``fill(V, lo=None, hi=None, slot=None)``: the windows [V_{i-1}; V_i;
    V_{i+1}] of V[i, a, ...], n cells, as the read-only view (n, 3m, r)
    (``_windows``) of the C-contiguous padded copy P = [V_{-1}; V_0 ...
    V_{n-1}; V_n] of n + 2 cells, bound here and refilled by each call.
    Without ``cells``, P is an x copy: V's rows are its cells V[i], and
    ``lo`` and ``hi``, V_{-1} and V_n, are per-cell blocks b whose
    ``transpose(1, 0, 2)`` is a row.  With ``cells``, P is a y band's
    copy: V is a tensor U[i, a, j, b] in its own layout, the rows are
    those of the transposed slab U[cells] (written through the transposed
    view of P), and a block b's row is ``b[cells].transpose(2, 0, 1)``.
    Without ``lo`` and ``hi`` the copy wraps periodically: with
    ``gather``, by one gather of the cached padded index, else by a write
    of V and a copy of each of the two ends (a gather would first copy a
    non-contiguous V whole).  ``slot``'s dofs 1.. stand in for V_{n-1}'s."""
    n, windows, body = len(P) - 2, _windows(P), P[1:-1]
    # a ghost block (cell, a, b) is a row (a, j, b) of an x copy, as U[i]
    # is, and its band's cells (b, i, a) of a y band's copy, as a row j of
    # the transposed slab U[cells] is
    if cells is None:
        row = lambda b: b.transpose(1, 0, 2)
    else:
        body = _transposed(body)
        row = lambda b: b[cells].transpose(2, 0, 1)
    # a gather reads the cached padded index; a write of V fills the
    # periodic ends, rows 0 and n + 1, from rows n and 1
    index = first = last = wrap_first = wrap_last = None
    if gather:
        index = _padded_index(n)
    else:
        first, last, wrap_first, wrap_last = P[0], P[n + 1], P[n], P[1]

    def fill(V: np.ndarray, lo=None, hi=None, slot=None) -> np.ndarray:
        if cells is not None:
            V = V[cells]
        if lo is None and hi is None:
            if gather:
                V.take(index, 0, P, "clip")
            else:
                body[...] = V
                first[...] = wrap_first
                last[...] = wrap_last
        elif lo is None or hi is None:
            raise ValueError(
                "ghost blocks come in pairs: lo and hi, or neither")
        else:
            body[...] = V
            P[0], P[-1] = row(lo), row(hi)
        if slot is not None:
            P[n, 1:] = row(slot)[1:]
        return windows
    return fill


def _windows(P: np.ndarray) -> np.ndarray:
    """The read-only view (n, 3m, r) of the C-contiguous padded copy
    P[i, a, ...] of n + 2 cells: window i is P's rows i, i+1 and i+2, the
    cells (i-1, i, i+1), one after the other in P's memory."""
    n, m = len(P) - 2, P.shape[1]
    r, s = P.size // (len(P) * m), P.itemsize
    # positional: keyword arguments cost np.ndarray about 0.4 us a view
    W = np.ndarray((n, 3 * m, r), P.dtype, P, 0, (m * r * s, r * s, s))
    W.setflags(write=False)
    return W


@lru_cache(maxsize=None)
def _padded_index(n: int) -> np.ndarray:
    """Read-only rows (n-1, 0, 1, ..., n-1, 0) of the periodic padded copy
    of n cells."""
    return poly.frozen(np.arange(-1, n + 1) % n)


# ---------------------------------------------------------------------------
# CSV snapshots: one row per dof, with the columns of STATE_HEADER


STATE_HEADER = ["family", "i", "j", "component", "value"]


def state_rows(state) -> Iterator[tuple]:
    if isinstance(state, DgState1D):
        for i in range(state.coeffs.shape[0]):
            for n in range(state.coeffs.shape[1]):
                for c in range(state.coeffs.shape[2]):
                    yield (f"mode_{n}", i, 0, c, state.coeffs[i, n, c])
    elif isinstance(state, DgState2D):
        for i, j, m, n in np.ndindex(state.coeffs.shape):
            yield (f"mode_{m}_{n}", i, j, 0, state.coeffs[i, j, m, n])
    elif isinstance(state, AfState1D):
        for a in range(state.point_values.shape[0]):
            for c in range(state.n_components):
                yield ("point_values", a, 0, c, state.point_values[a, c])
        for i in range(state.moments.shape[0]):
            for k in range(state.K):
                for c in range(state.n_components):
                    yield (f"moment_{k}", i, 0, c, state.moments[i, k, c])
    elif isinstance(state, AfState2D):
        # family by family, dof index by dof index, then cell by cell
        for name, a in (("node_values", state.node_values),
                        ("x_edge", state.x_edge), ("y_edge", state.y_edge),
                        ("moment", state.cell_moments)):
            for dof in np.ndindex(a.shape[2:]):
                label = "_".join([name, *map(str, dof)])
                for i, j in np.ndindex(a.shape[:2]):
                    yield (label, i, j, 0, a[(i, j) + dof])
    else:
        raise TypeError(f"unknown state type {type(state).__name__}")
