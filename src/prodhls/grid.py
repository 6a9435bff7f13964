"""Cell-centered product grids, sampled functions, and quadrature norms.

The computational domain is the box [-L, L]^(m+n), viewed as the product
of an x-block of dimension ``m`` and a y-block of dimension ``n``.  All
integrals are midpoint sums over the N^(m+n) cells, and functions are
treated as compactly supported in the box, so box sums stand in for
whole-space integrals.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ProductGrid",
    "GridFunction",
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
    cell centers are therefore always finite.

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


def sample_function(grid: ProductGrid, fn: Callable[..., np.ndarray]) -> GridFunction:
    """Sample ``fn`` at the cell centers.

    ``fn`` receives one broadcastable coordinate array per axis (x-block
    axes first) and must return nonnegative values.
    """
    centers = grid.axis_centers()
    mesh = np.meshgrid(*([centers] * grid.rank), indexing="ij", sparse=True)
    vals = np.broadcast_to(np.asarray(fn(*mesh), dtype=np.float64), grid.shape)
    return GridFunction(grid, vals)


# CPUs this process may run on: _split cuts its work into this many pieces
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# Work on fewer array elements than this runs in one piece, in the calling
# thread: the measured crossover table is in prodhls.convolution's docstring
_SPLIT_FLOOR = 1 << 17

# One pool for the process, started on the first split; its threads idle
# between splits
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="prodhls")
        return _POOL


def _forget_pool() -> None:
    # a forked child has none of the pool's threads, and would wait forever
    # on work queued for them: it starts its own pool on its first split
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split(fn: Callable[[int, int], object], count: int, size: int) -> None:
    """Run ``fn(start, stop)`` over ``range(count)`` in one contiguous
    piece per CPU, the first in the calling thread and the others in a
    thread pool started on the first split.  Work on fewer than
    ``_SPLIT_FLOOR`` elements runs as ``fn(0, count)`` in the calling
    thread, and so does all work on one CPU.

    ``fn`` must compute each index of its range the same way whichever
    piece holds it: numpy transforms and ufuncs writing with ``out=`` into
    arrays the calling thread allocated, so no worker grows its own
    malloc arena.  It must call no name in a prodhls ``__all__``:
    perfbench's layer tracer keeps one span stack, not one per thread.
    """
    pieces = min(_WORKERS, count) if size >= _SPLIT_FLOOR else 1
    if pieces <= 1:
        fn(0, count)
        return
    bounds = [count * i // pieces for i in range(pieces + 1)]
    pool = _pool()
    futures = [pool.submit(fn, start, stop) for start, stop in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(bounds[0], bounds[1])
    finally:
        for future in futures:
            future.exception()  # wait for every piece, even if this one raised
    for future in futures:
        future.result()


def _check_exponent(p: float) -> None:
    if not 1.0 <= p < math.inf:  # NaN fails too; p = inf would give x ** 0 = 1
        raise ValueError(f"p must be finite and >= 1, got {p}")


def lp_norm(f: GridFunction, p: float) -> float:
    """Discrete L^p norm: (sum of f^p times the cell volume) ** (1/p).

    Exact for cell-constant functions; zero iff ``f`` vanishes identically.
    The powers are written into one array, from 2^17 cells up in one piece
    of leading rows per CPU, and summed by one ``np.sum``: the bytes of
    ``np.sum(f.values ** p)`` on any number of CPUs.
    """
    _check_exponent(p)
    values = f.values
    powers = np.empty_like(values)
    _split(lambda start, stop: np.power(values[start:stop], p, out=powers[start:stop]),
           len(values), values.size)
    total = float(np.sum(powers))
    return (total * f.grid.cell_volume) ** (1.0 / p)


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
