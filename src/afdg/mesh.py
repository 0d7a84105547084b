"""Cartesian grids, dof containers for AF and DG, dof bookkeeping, the
per-family cell projections, and the periodic tensor-product apply shared
by both 2-d right-hand sides.

States are plain value containers around numpy arrays; right-hand-side
evaluation treats them as immutable.  Interface point values are stored
once per interface (sharedness is structural): in 2-d, cell (i, j) owns
entry [i, j] of every state array, and ``af_cell_dofs_2d`` and
``dg_cell_dofs_2d`` project data onto the dofs of any set of cells, for
the 2-d fills and the Dirichlet ghost ring alike.  Component-major
layouts keep per-family norms and timing loops cache friendly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from . import poly

__all__ = [
    "Grid1D", "Grid2D",
    "AfState1D", "AfState2D", "DgState1D", "DgState2D",
    "DofCounts", "dof_counts", "AF_N_INT", "DG_N_INT", "AF_CFL", "DG_CFL",
    "simpson_edge_average", "simpson_midpoint",
    "fill_af_1d", "fill_dg_1d", "fill_af_2d", "fill_dg_2d",
    "af_cell_dofs_2d", "dg_cell_dofs_2d",
    "kron_sum_apply", "state_rows", "save_state_csv",
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


@dataclass
class DgState1D:
    """Per-cell modal blocks: coeffs[i, n, comp], basis endpoint-normalized."""

    grid: Grid1D
    K: int
    coeffs: np.ndarray
    periodic: bool = True

    @property
    def n_components(self) -> int:
        return self.coeffs.shape[2]

    def copy(self) -> "DgState1D":
        return replace(self, coeffs=self.coeffs.copy())

    def arrays(self):
        return [self.coeffs]

    def with_arrays(self, arrays) -> "DgState1D":
        return DgState1D(self.grid, self.K, arrays[0], self.periodic)


@dataclass
class DgState2D:
    """Tensor modal blocks: coeffs[i, j, m, n] with m the x-mode index."""

    grid: Grid2D
    K: int
    coeffs: np.ndarray
    periodic: bool = True

    def copy(self) -> "DgState2D":
        return replace(self, coeffs=self.coeffs.copy())

    def arrays(self):
        return [self.coeffs]

    def with_arrays(self, arrays) -> "DgState2D":
        return DgState2D(self.grid, self.K, arrays[0], self.periodic)


@dataclass
class AfState1D:
    """Shared interface point values plus per-cell moments.

    point_values[a, comp] sits at interface a, the left edge of cell a
    (interface n_cells wraps to 0 on periodic grids); moments[i, k, comp]
    is the k-th weighted cell integral.
    """

    grid: Grid1D
    K: int
    point_values: np.ndarray
    moments: np.ndarray
    periodic: bool = True

    @property
    def n_components(self) -> int:
        return self.point_values.shape[1]

    def copy(self) -> "AfState1D":
        return replace(self, point_values=self.point_values.copy(),
                       moments=self.moments.copy())

    def arrays(self):
        return [self.point_values, self.moments]

    def with_arrays(self, arrays) -> "AfState1D":
        return AfState1D(self.grid, self.K, arrays[0], arrays[1],
                         self.periodic)


@dataclass
class AfState2D:
    """2-d AF dofs: node values, edge data, interior moments.

    For the ``tensorial`` variant, x_edge[a, j, k] holds the k-th
    moment-in-y along vertical interface a (k=0 is the edge average) and
    cell_moments[i, j, m, n] the tensor moments (0,0 is the cell average).
    The ``classical_midpoint`` variant reuses the containers with K=1 and
    stores edge midpoint values in x_edge[..., 0] / y_edge[..., 0].
    """

    grid: Grid2D
    K: int
    node_values: np.ndarray
    x_edge: np.ndarray
    y_edge: np.ndarray
    cell_moments: np.ndarray
    variant: str = "tensorial"
    periodic: bool = True

    def copy(self) -> "AfState2D":
        return replace(self, node_values=self.node_values.copy(),
                       x_edge=self.x_edge.copy(), y_edge=self.y_edge.copy(),
                       cell_moments=self.cell_moments.copy())

    def arrays(self):
        return [self.node_values, self.x_edge, self.y_edge, self.cell_moments]

    def with_arrays(self, arrays) -> "AfState2D":
        return AfState2D(self.grid, self.K, arrays[0], arrays[1], arrays[2],
                         arrays[3], self.variant, self.periodic)


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
# Simpson conversion between edge point triples and edge averages


def simpson_edge_average(end1, mid, end2):
    """Average along an edge from its endpoint and midpoint values."""
    return (np.asarray(end1) + 4.0 * np.asarray(mid) + np.asarray(end2)) / 6.0


def simpson_midpoint(average, end1, end2):
    """Inverse of ``simpson_edge_average`` for the midpoint value."""
    return (6.0 * np.asarray(average) - np.asarray(end1) - np.asarray(end2)) / 4.0


# ---------------------------------------------------------------------------
# filling states from smooth functions

_FILL_RULE = poly.gauss_legendre_rule(12)


def _as_components(values, m: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] != m:
        values = values[..., None]
    return values


def _af_moment_weights(K: int, rule: poly.QuadratureRule) -> np.ndarray:
    """Row k: the rule's weights of the k-th AF moment."""
    return np.array([poly.moment_normalization(k) * poly.moment_weight(k)(rule.nodes)
                     * rule.weights for k in range(K)])


def fill_af_1d(grid: Grid1D, K: int, init: Callable, n_components: int = 1,
               periodic: bool = True,
               rule: poly.QuadratureRule | None = None) -> AfState1D:
    """Point values by sampling, moments by quadrature.

    The default 12-point rule is accurate enough for reference states;
    production runs pass the method's catalog rule instead so the state
    preparation matches the solver's own integration order.
    """
    pts = _as_components(init(grid.interfaces(periodic)), n_components)
    rule = rule or _FILL_RULE
    xq = grid.centers()[:, None] + grid.dx * rule.nodes[None, :]
    fq = _as_components(init(xq), n_components)  # (n_cells, nq, m)
    return AfState1D(grid, K, pts, _af_moment_weights(K, rule) @ fq, periodic)


@lru_cache(maxsize=None)
def _dg_projection_weights(K: int) -> np.ndarray:
    """Row n: the fill rule's weights of the L2 projection onto mode n."""
    nodes, weights = _FILL_RULE.nodes, _FILL_RULE.weights
    rows = []
    for n in range(K + 1):
        phi = poly.legendre(n)
        rows.append(phi(nodes) * weights / (phi * phi).cell_integral())
    w = np.array(rows)
    w.flags.writeable = False
    return w


def fill_dg_1d(grid: Grid1D, K: int, init: Callable, n_components: int = 1,
               periodic: bool = True) -> DgState1D:
    """Cell-wise L2 projection onto the endpoint-normalized Legendre basis."""
    xq = grid.centers()[:, None] + grid.dx * _FILL_RULE.nodes[None, :]
    fq = _as_components(init(xq), n_components)
    return DgState1D(grid, K, _dg_projection_weights(K) @ fq, periodic)


def _points(x0, d: float, nodes: np.ndarray) -> np.ndarray:
    """(..., q): the quadrature points of the cells that start at x0."""
    return (np.asarray(x0, dtype=float) + 0.5 * d)[..., None] + d * nodes


def _eval(f: Callable, x, y) -> np.ndarray:
    """f(x, y) broadcast to the shape of x and y (constant data may be smaller)."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.broadcast_to(np.asarray(f(x, y), dtype=float), shape)


def af_cell_dofs_2d(K: int, f: Callable, x0, y0, dx: float, dy: float,
                    rule: poly.QuadratureRule | None = None) -> list:
    """In ``AfState2D.arrays()`` order, the lower-left node, left-edge and
    bottom-edge moments and tensor moments of the cells with lower-left
    corners (x0, y0), which broadcast (a grid passes a column and a row).
    Edge moments are ``f @ B.T``, cell moments ``B @ f @ B.T``."""
    rule = rule or _FILL_RULE
    B = _af_moment_weights(K, rule)
    xq, yq = _points(x0, dx, rule.nodes), _points(y0, dy, rule.nodes)
    return [np.array(_eval(f, x0, y0)),
            _eval(f, np.expand_dims(x0, -1), yq) @ B.T,
            _eval(f, xq, np.expand_dims(y0, -1)) @ B.T,
            B @ _eval(f, xq[..., :, None], yq[..., None, :]) @ B.T]


def dg_cell_dofs_2d(K: int, f: Callable, x0, y0, dx: float,
                    dy: float) -> list:
    """``[W @ f @ W.T]``: the modes of the cells with lower-left corners
    (x0, y0), as in ``af_cell_dofs_2d``."""
    W = _dg_projection_weights(K)
    xq, yq = _points(x0, dx, _FILL_RULE.nodes), _points(y0, dy, _FILL_RULE.nodes)
    return [W @ _eval(f, xq[..., :, None], yq[..., None, :]) @ W.T]


def fill_af_2d(grid: Grid2D, K: int, init: Callable,
               variant: str = "tensorial", periodic: bool = True,
               rule: poly.QuadratureRule | None = None) -> AfState2D:
    """The tensorial dofs of every corner's cell, cut to the state's shapes
    (a non-periodic grid has n+1 corners per axis), or sampled nodes and
    edge midpoints and quadrature cell averages (classical variant)."""
    xs_if = grid.gx.interfaces(periodic)
    ys_if = grid.gy.interfaces(periodic)
    if variant == "classical_midpoint":
        if K != 1:
            raise ValueError("classical variant is third order only (K=1)")
        xc, yc = grid.gx.centers(), grid.gy.centers()
        node_values = np.asarray(init(xs_if[:, None], ys_if[None, :]), dtype=float)
        x_edge = np.asarray(init(xs_if[:, None], yc[None, :]), dtype=float)[..., None]
        y_edge = np.asarray(init(xc[:, None], ys_if[None, :]), dtype=float)[..., None]
        return AfState2D(grid, 1, node_values, x_edge, y_edge,
                         fill_dg_2d(grid, 0, init).coeffs, variant, periodic)

    if variant != "tensorial":
        raise ValueError(f"unknown AF 2-d variant {variant!r}")
    nx, ny = grid.n_cells_x, grid.n_cells_y
    node_values, x_edge, y_edge, cell_moments = af_cell_dofs_2d(
        K, init, xs_if[:, None], ys_if[None, :], grid.dx, grid.dy, rule)
    return AfState2D(grid, K, node_values, x_edge[:, :ny], y_edge[:nx],
                     cell_moments[:nx, :ny], variant, periodic)


def fill_dg_2d(grid: Grid2D, K: int, init: Callable,
               periodic: bool = True) -> DgState2D:
    coeffs, = dg_cell_dofs_2d(K, init, grid.gx.interfaces()[:, None],
                              grid.gy.interfaces()[None, :], grid.dx, grid.dy)
    return DgState2D(grid, K, coeffs, periodic)


# ---------------------------------------------------------------------------
# tensor-product operators on periodic grids


def kron_sum_apply(U: np.ndarray, sx: np.ndarray | None,
                   sy: np.ndarray | None) -> np.ndarray:
    """Apply ``Sx (x) I + I (x) Sy`` to a periodic tensor-product state.

    U has shape (nx, m, ny, m): cell i, x-dof a, cell j, y-dof b.  A
    stencil is the (m, 3m) block row [L | D | R] of a block-circulant 1-d
    operator, out_i = L U_{i-1} + D U_i + R U_{i+1}; it acts along its
    axis as one matmul against the stacked neighbours.  ``None`` skips the
    axis.  Both matmuls are batches of small products (one per x-cell, or
    per x-cell and x-dof), so BLAS runs them on the calling thread.
    """
    nx, m, ny, _ = U.shape
    if sx is None:
        out = np.zeros_like(U)
    else:
        W = _with_neighbours(U.reshape(nx, m, ny * m), 0)
        out = np.matmul(sx, W).reshape(U.shape)
    if sy is not None:
        W = _with_neighbours(U.reshape(nx * m, ny, m), 1)
        out += np.matmul(W, sy.T).reshape(U.shape)
    return out


def _with_neighbours(V: np.ndarray, axis: int) -> np.ndarray:
    """[V_{i-1}; V_i; V_{i+1}], periodic in i along ``axis``, stacked on
    the axis after it (which grows from m to 3m)."""
    W = np.empty(V.shape[:axis + 1] + (3,) + V.shape[axis + 1:])
    src = np.moveaxis(V, axis, 0)
    dst = np.moveaxis(W, (axis, axis + 1), (0, 1))
    dst[1:, 0], dst[0, 0] = src[:-1], src[-1]
    dst[:, 1] = src
    dst[:-1, 2], dst[-1, 2] = src[1:], src[0]
    shape = list(V.shape)
    shape[axis + 1] *= 3
    return W.reshape(shape)


# ---------------------------------------------------------------------------
# CSV snapshots: one row per dof, columns (family, i, j, component, value)


def state_rows(state) -> Iterator[tuple]:
    if isinstance(state, DgState1D):
        for i in range(state.coeffs.shape[0]):
            for n in range(state.coeffs.shape[1]):
                for c in range(state.coeffs.shape[2]):
                    yield (f"mode_{n}", i, 0, c, state.coeffs[i, n, c])
    elif isinstance(state, DgState2D):
        nx, ny, km, kn = state.coeffs.shape
        for i in range(nx):
            for j in range(ny):
                for m in range(km):
                    for n in range(kn):
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
        for a in range(state.node_values.shape[0]):
            for b in range(state.node_values.shape[1]):
                yield ("node_values", a, b, 0, state.node_values[a, b])
        for k in range(state.x_edge.shape[2]):
            for a in range(state.x_edge.shape[0]):
                for j in range(state.x_edge.shape[1]):
                    yield (f"x_edge_{k}", a, j, 0, state.x_edge[a, j, k])
        for k in range(state.y_edge.shape[2]):
            for i in range(state.y_edge.shape[0]):
                for b in range(state.y_edge.shape[1]):
                    yield (f"y_edge_{k}", i, b, 0, state.y_edge[i, b, k])
        km, kn = state.cell_moments.shape[2:]
        for m in range(km):
            for n in range(kn):
                for i in range(state.cell_moments.shape[0]):
                    for j in range(state.cell_moments.shape[1]):
                        yield (f"moment_{m}_{n}", i, j, 0,
                               state.cell_moments[i, j, m, n])
    else:
        raise TypeError(f"unknown state type {type(state).__name__}")


def save_state_csv(state, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "i", "j", "component", "value"])
        for family, i, j, comp, value in state_rows(state):
            writer.writerow([family, i, j, comp, f"{value:.17g}"])
