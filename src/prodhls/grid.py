"""Cell-centered product grids, sampled functions, and quadrature norms.

The computational domain is the box [-L, L]^(m+n), viewed as the product
of an x-block of dimension ``m`` and a y-block of dimension ``n``.  All
integrals are midpoint sums over the N^(m+n) cells, and functions are
treated as compactly supported in the box, so box sums stand in for
whole-space integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ProductGrid",
    "GridFunction",
    "TensorProduct",
    "lp_norm",
    "slice_lp_norms_x",
    "slice_lp_norms_y",
    "dilate",
    "sample_function",
]


@dataclass(frozen=True)
class ProductGrid:
    """Uniform cell-centered discretization of [-L, L]^(m+n).

    Cell centers along every axis sit at ``-L + (i + 1/2) h`` with
    ``h = 2 L / N``.  ``N`` must be even so that no center lies on the
    coordinate origin of either block; power-law kernels evaluated at
    cell centers are therefore always finite.  No field may be a boolean.

    Attributes
    ----------
    m, n : int
        Dimensions of the x-block and the y-block (1 or 2 each).
    half_width : float
        L, half the side length of the box.
    points_per_axis : int
        N, the number of cells per axis (even).
    """

    m: int
    n: int
    half_width: float
    points_per_axis: int

    def __post_init__(self) -> None:
        _reject_booleans(self, "grid")
        if self.m not in (1, 2):
            raise ValueError(f"x-block dimension m must be 1 or 2, got {self.m}")
        if self.n not in (1, 2):
            raise ValueError(f"y-block dimension n must be 1 or 2, got {self.n}")
        if not (isinstance(self.half_width, (int, float)) and math.isfinite(self.half_width)
                and self.half_width > 0):
            raise ValueError(f"half_width must be a positive finite number, got {self.half_width}")
        N = self.points_per_axis
        if not isinstance(N, int) or N < 2 or N % 2 != 0:
            raise ValueError(f"points_per_axis must be an even integer >= 2, got {N}")

    @property
    def spacing(self) -> float:
        """Cell width h = 2 L / N."""
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def rank(self) -> int:
        return self.m + self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.rank

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.rank

    def axis_centers(self) -> np.ndarray:
        """Coordinates of the cell centers along one axis, ascending.

        Written as the half-integer cell offsets from the box center
        times h, so ``c == -c[::-1]`` holds exactly: mirrored offsets
        have equal norms and fall in one shell.
        """
        N = self.points_per_axis
        return (np.arange(N) - (N - 1) / 2) * self.spacing

    def x_norms(self) -> np.ndarray:
        """Euclidean norm |x| at the cell centers of the x-block, shape (N,)*m."""
        return _block_norms(self.axis_centers(), self.m)

    def y_norms(self) -> np.ndarray:
        """Euclidean norm |y| at the cell centers of the y-block, shape (N,)*n."""
        return _block_norms(self.axis_centers(), self.n)


def _reject_booleans(record, what: str) -> None:
    """Reject a boolean field of the dataclass ``record``: True == 1 passes as a number."""
    for name, value in vars(record).items():
        if isinstance(value, bool):
            raise ValueError(f"{what} {name} must not be a boolean, got {value!r}")


def _block_norms(centers: np.ndarray, dim: int) -> np.ndarray:
    if dim == 1:
        return np.abs(centers)
    return np.hypot(centers[:, None], centers[None, :])


def check_positive(**named) -> None:
    """Raise ``ValueError`` for the first named value that is not positive
    and finite: a number, or an array checked entry by entry."""
    for name, value in named.items():
        if isinstance(value, np.ndarray):
            # the least entry decides, or the largest if the least is positive
            least = value.min(initial=1.0)
            value = least if not least > 0 else value.max(initial=1.0)
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def normalize_points(points, rank: int, points_per_axis: int) -> np.ndarray:
    """Validate grid-node multi-indices given one per row: an integer
    array of shape (K, rank), K >= 0, or an empty sequence for no nodes."""
    idx = np.asarray(points)
    if idx.shape == (0,):
        idx = np.empty((0, rank), dtype=np.intp)
    if idx.ndim != 2 or idx.shape[1] != rank or idx.dtype.kind not in "iu":
        raise ValueError(f"points of shape {idx.shape} and dtype {idx.dtype} do not "
                         f"address rank-{rank} grid nodes one per row")
    if len(idx) and not 0 <= idx.min() <= idx.max() < points_per_axis:
        outside = np.any((idx < 0) | (idx >= points_per_axis), axis=1)
        raise ValueError(f"index {tuple(idx[outside][0].tolist())!r} lies outside the grid")
    return idx


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nonnegative finite samples on a :class:`ProductGrid`, one per cell.

    The value array is copied to contiguous float64 storage and frozen,
    so instances are safe to share between threads.
    """

    grid: ProductGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self._freeze(np.array(self.values, dtype=np.float64, order="C"))

    @classmethod
    def _adopt(cls, grid: ProductGrid, vals: np.ndarray) -> GridFunction:
        """Wrap a contiguous float64 array that the library has just built
        and no caller holds, without the copy: validated and frozen as
        ``GridFunction(grid, vals)`` would be."""
        self = object.__new__(cls)
        object.__setattr__(self, "grid", grid)
        self._freeze(vals)
        return self

    def _freeze(self, vals: np.ndarray) -> None:
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}")
        # one min/max pair decides the common case (NaN fails both
        # comparisons, -0.0 passes); the slower checks only word the error
        if not (vals.min() >= 0.0 and vals.max() < math.inf):
            if not np.all(np.isfinite(vals)):
                raise ValueError("values must all be finite")
            raise ValueError("values must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class TensorProduct:
    """The tensor product ``f(x, y) = x(x) y(y)`` on a :class:`ProductGrid`,
    held as its two block factors alone: ``x`` of shape (N,)*m and ``y``
    of shape (N,)*n, whose outer product is the N^rank field, which is
    never built.  Each factor is copied to contiguous float64 storage,
    checked like the values of a :class:`GridFunction` and frozen."""

    grid: ProductGrid
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        N = self.grid.points_per_axis
        for name, dim in (("x", self.grid.m), ("y", self.grid.n)):
            vals = np.array(getattr(self, name), dtype=np.float64, order="C")
            if vals.shape != (N,) * dim:
                raise ValueError(f"{name} factor shape {vals.shape} does not match the "
                                 f"{name}-block shape {(N,) * dim}")
            if not (vals.min() >= 0.0 and vals.max() < math.inf):
                raise ValueError(f"{name} factor values must be finite and nonnegative")
            vals.setflags(write=False)
            object.__setattr__(self, name, vals)

    def block_norms(self, p: float) -> tuple[float, float]:
        """``||x||_p`` over the x-block and ``||y||_p`` over the y-block, with
        cells of volume h^m and h^n: ``||f||_p`` is their product."""
        h = self.grid.spacing
        return (_lp_norm(self.x[None], p, h ** self.grid.m)[0],
                _lp_norm(self.y[None], p, h ** self.grid.n)[0])


def _one_grid(fs) -> ProductGrid:
    """The grid that the functions ``fs``, at least one, all live on."""
    if not fs:
        raise ValueError("no functions given")
    grid = fs[0].grid
    if any(f.grid != grid for f in fs):
        raise ValueError("the functions must live on one grid")
    return grid


def sample_function(grid: ProductGrid, fn: Callable[..., np.ndarray]) -> GridFunction:
    """Sample ``fn`` at the cell centers.

    ``fn`` receives one broadcastable coordinate array per axis (x-block
    axes first) and must return nonnegative values.
    """
    centers = grid.axis_centers()
    mesh = np.meshgrid(*([centers] * grid.rank), indexing="ij", sparse=True)
    vals = np.broadcast_to(np.asarray(fn(*mesh), dtype=np.float64), grid.shape)
    return GridFunction(grid, vals)


def _check_exponent(p: float) -> None:
    if not 1.0 <= p < math.inf:  # NaN fails too; p = inf would give x ** 0 = 1
        raise ValueError(f"p must be finite and >= 1, got {p}")


def lp_norm(f: GridFunction, p: float) -> float:
    """Discrete L^p norm: (sum of f^p times the cell volume) ** (1/p).

    Exact for cell-constant functions; zero iff ``f`` vanishes identically.
    """
    return _lp_norm(f.values[None], p, f.grid.cell_volume)[0]


def _lp_norm(stack: np.ndarray, p: float, cell_volume: float) -> list[float]:
    """The body of :func:`lp_norm` on each row of ``stack``, an array whose
    leading axis runs over rows of any rank with cells of ``cell_volume``:
    one norm per row, a list of floats.  Each row is summed whole, the
    pairwise sum :func:`numpy.sum` gives on that row alone.  The sweeps
    take the norms of a stack of block factors of a tensor-product family,
    and of their convolutions, with it."""
    _check_exponent(p)
    totals = np.sum(np.power(stack, p).reshape(len(stack), -1), axis=1)
    return np.float_power(totals * cell_volume, 1.0 / p).tolist()


def slice_lp_norms_x(g: GridFunction, p: float) -> np.ndarray:
    """L^p norms in the y-variables of the slices at every x-node, shape (N,)*m.

    Realizes the norm-as-a-function-of-x construction: the y-block is
    integrated out by midpoint quadrature while x stays frozen.
    """
    return _slice_lp_norms(g, p, tuple(range(g.grid.m, g.grid.rank)))


def slice_lp_norms_y(g: GridFunction, p: float) -> np.ndarray:
    """Mirror of :func:`slice_lp_norms_x`: x-slice norms at every y-node, shape (N,)*n."""
    return _slice_lp_norms(g, p, tuple(range(g.grid.m)))


def _slice_lp_norms(g: GridFunction, p: float, summed_axes: tuple[int, ...]) -> np.ndarray:
    _check_exponent(p)
    total = np.sum(g.values ** p, axis=summed_axes)
    return (total * g.grid.spacing ** len(summed_axes)) ** (1.0 / p)


def dilate(f: GridFunction, s: float, t: float) -> GridFunction:
    """Resample ``f(s x, t y)`` on the same grid.

    Nearest-cell lookup (the cell containing the scaled coordinate) with
    zero extension outside the box.  Deterministic; ``s = t = 1`` is the
    identity.
    """
    check_positive(**{"x-dilation": s, "y-dilation": t})
    grid = f.grid
    out = f.values
    scales = (s,) * grid.m + (t,) * grid.n
    for axis, scale in enumerate(scales):
        out = _resample_axis(out, axis, scale, grid)
    return GridFunction._adopt(grid, out)  # the last resample's fresh array


def _resample_axis(vals: np.ndarray, axis: int, scale: float, grid: ProductGrid) -> np.ndarray:
    N = grid.points_per_axis
    target = scale * grid.axis_centers()
    idx = np.floor((target + grid.half_width) / grid.spacing).astype(np.int64)
    valid = (idx >= 0) & (idx < N)
    out = np.take(vals, np.clip(idx, 0, N - 1), axis=axis)
    out[(slice(None),) * axis + (~valid,)] = 0.0  # zero extension outside the box
    return out
