"""Strong and partial maximal averages over dyadic product windows.

A window is a product of discrete balls, one per block: along each block
the cells whose centers lie strictly within radius delta of the
evaluated cell's center.  Averages divide by the full window cell count
with zero extension outside the box, so boundary windows systematically
under-estimate the average (which only weakens the domination
inequalities verified elsewhere, never falsifies them).  The smallest
dyadic window is the cell itself, hence every maximal output dominates
the pointwise value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, ProductGrid, lp_norm, slice_lp_norms_x, slice_lp_norms_y
from .kernel import Exponents

__all__ = [
    "WindowFamily",
    "strong_maximal",
    "partial_maximal_x",
    "partial_maximal_y",
    "composition_check",
    "CompositionReport",
    "g_function",
    "g_norm_bound",
    "GNormReport",
]


@dataclass(frozen=True)
class WindowFamily:
    """Finite family of window radii shared by both blocks.

    The canonical family is dyadic: radii ``h * 2^k`` for
    ``k = 0 .. ceil(log2 N)``, i.e. from the single cell up to a window
    that covers the whole box from any center.
    """

    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.radii:
            raise ValueError("a window family needs at least one radius")
        if any(not (r > 0 and math.isfinite(r)) for r in self.radii):
            raise ValueError("window radii must be positive and finite")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("window radii must be strictly increasing")

    @classmethod
    def dyadic(cls, grid: ProductGrid) -> "WindowFamily":
        levels = math.ceil(math.log2(grid.points_per_axis))
        h = grid.spacing
        return cls(tuple(h * 2.0 ** k for k in range(levels + 1)))

    def cell_radii(self, grid: ProductGrid) -> tuple[int, ...]:
        """Radii in units of cells; each family radius must be a whole
        number of cells and at least one cell wide."""
        out = []
        h = grid.spacing
        for r in self.radii:
            rc = int(round(r / h))
            if rc < 1 or abs(rc - r / h) > 1e-9 * max(rc, 1):
                raise ValueError(
                    f"window radius {r} is not a whole positive number of cells (h = {h})")
            out.append(rc)
        return tuple(out)


def _box_window_sum(vals: np.ndarray, axis: int, half: int) -> np.ndarray:
    """Sliding sum over cells within ``half`` cells along ``axis``, zero-extended."""
    if half == 0:  # single cell: keep exact, no cumsum rounding
        return np.asarray(vals, dtype=np.float64)
    N = vals.shape[axis]
    csum = np.cumsum(vals, axis=axis)
    zero_shape = list(vals.shape)
    zero_shape[axis] = 1
    csum = np.concatenate([np.zeros(zero_shape), csum], axis=axis)
    hi = np.minimum(np.arange(N) + half + 1, N)
    lo = np.maximum(np.arange(N) - half, 0)
    return np.take(csum, hi, axis=axis) - np.take(csum, lo, axis=axis)


def _shift_zero(arr: np.ndarray, axis: int, d: int) -> np.ndarray:
    """out[i] = arr[i - d] along ``axis``, zero-filled at the ends."""
    if d == 0:
        return arr
    out = np.zeros_like(arr)
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    if d > 0:
        dst[axis] = slice(d, None)
        src[axis] = slice(0, -d)
    else:
        dst[axis] = slice(0, d)
        src[axis] = slice(-d, None)
    out[tuple(dst)] = arr[tuple(src)]
    return out


def _group_window_sum(vals: np.ndarray, axes: tuple[int, ...], rc: int) -> np.ndarray:
    """Sum over the block window of strict radius ``rc`` cells."""
    if len(axes) == 1:
        return _box_window_sum(vals, axes[0], rc - 1)
    a1, a2 = axes
    out = np.zeros_like(vals, dtype=np.float64)
    for dy in range(-(rc - 1), rc):
        w = math.isqrt(rc * rc - dy * dy - 1)
        out += _shift_zero(_box_window_sum(vals, a2, w), a1, dy)
    return out


def _group_window_count(dim: int, rc: int) -> int:
    """Full cell count of the block window (clipping ignored)."""
    if dim == 1:
        return 2 * rc - 1
    return sum(2 * math.isqrt(rc * rc - dy * dy - 1) + 1 for dy in range(-(rc - 1), rc))


def strong_maximal(f: GridFunction, w: WindowFamily) -> GridFunction:
    """Supremum of product-window averages of ``f`` at every cell."""
    grid = f.grid
    x_axes = tuple(range(grid.m))
    y_axes = tuple(range(grid.m, grid.rank))
    radii = w.cell_radii(grid)
    best = np.zeros(grid.shape)
    for rc_y in radii:
        y_sum = _group_window_sum(f.values, y_axes, rc_y)
        count_y = _group_window_count(grid.n, rc_y)
        for rc_x in radii:
            total = _group_window_sum(y_sum, x_axes, rc_x)
            count = _group_window_count(grid.m, rc_x) * count_y
            np.maximum(best, total / count, out=best)
    return GridFunction(grid, best)


def _partial_maximal(f: GridFunction, w: WindowFamily,
                     axes: tuple[int, ...]) -> GridFunction:
    """Maximal averages over windows on the block spanned by ``axes``."""
    best = np.zeros(f.grid.shape)
    for rc in w.cell_radii(f.grid):
        avg = _group_window_sum(f.values, axes, rc) / _group_window_count(len(axes), rc)
        np.maximum(best, avg, out=best)
    return GridFunction(f.grid, best)


def partial_maximal_x(f: GridFunction, w: WindowFamily) -> GridFunction:
    """Maximal averages over x-block windows with the y-variables frozen."""
    return _partial_maximal(f, w, tuple(range(f.grid.m)))


def partial_maximal_y(f: GridFunction, w: WindowFamily) -> GridFunction:
    """Maximal averages over y-block windows with the x-variables frozen."""
    return _partial_maximal(f, w, tuple(range(f.grid.m, f.grid.rank)))


@dataclass(frozen=True)
class CompositionReport:
    """Outcome of the pointwise comparison of M f against M1(M2 f)."""

    max_ratio: float
    worst_point: tuple[int, ...]

    @property
    def dominated(self) -> bool:
        return self.max_ratio <= 1.0 + 1e-12


def composition_check(f: GridFunction, w: WindowFamily) -> CompositionReport:
    """Verify pointwise domination of the strong maximal by the composition.

    Because every product window is the product of its per-block
    windows, the domination constant here is exactly 1, which the
    returned maximal ratio makes observable.
    """
    strong = strong_maximal(f, w).values
    composed = partial_maximal_x(partial_maximal_y(f, w), w).values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(composed > 0.0, strong / composed,
                         np.where(strong == 0.0, 1.0, np.inf))
    flat = int(np.argmax(ratio))
    worst = tuple(int(i) for i in np.unravel_index(flat, ratio.shape))
    return CompositionReport(max_ratio=float(ratio.flat[flat]), worst_point=worst)


def g_function(f: GridFunction, exps: Exponents, w: WindowFamily) -> GridFunction:
    """Mixed-norm field: y-slice norm of M1 f times x-slice norm of M2 f.

    The output factors exactly as the outer product of an x-block grid
    and a y-block grid.
    """
    p = exps.p
    n1 = slice_lp_norms_x(partial_maximal_x(f, w), p)
    n2 = slice_lp_norms_y(partial_maximal_y(f, w), p)
    return GridFunction(f.grid, np.multiply.outer(n1, n2))


@dataclass(frozen=True)
class GNormReport:
    """Norm comparison of the mixed-norm field against the input norm."""

    g_norm: float
    f_norm: float
    m1_norm: float
    m2_norm: float

    @property
    def f_norm_squared(self) -> float:
        return self.f_norm ** 2

    @property
    def ratio(self) -> float:
        return self.g_norm / self.f_norm_squared if self.f_norm > 0.0 else 0.0


def g_norm_bound(f: GridFunction, exps: Exponents,
                 w: WindowFamily | None = None) -> GNormReport:
    """Compute the norm of the mixed-norm field and its ratio to ||f||^2.

    The full norm of the field equals the product of the full norms of
    the two partial maximal functions (a discrete Fubini identity); the
    ratio to ||f||^2 is then controlled by the one-block maximal bounds
    and stays stable across dilation families.
    """
    if w is None:
        w = WindowFamily.dyadic(f.grid)
    p = exps.p
    g = g_function(f, exps, w)
    return GNormReport(
        g_norm=lp_norm(g, p),
        f_norm=lp_norm(f, p),
        m1_norm=lp_norm(partial_maximal_x(f, w), p),
        m2_norm=lp_norm(partial_maximal_y(f, w), p),
    )
