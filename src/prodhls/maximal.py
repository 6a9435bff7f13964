"""Strong and partial maximal averages over dyadic product windows.

A window is a product of discrete balls, one per block: along each block
the cells whose centers lie strictly within radius delta of the
evaluated cell's center.  Averages divide by the full window cell count
with zero extension outside the box, so boundary windows systematically
under-estimate the average (which only weakens the domination
inequalities verified elsewhere, never falsifies them).  The smallest
dyadic window is the cell itself, hence every maximal output dominates
the pointwise value.

One pass over the product windows, :func:`maximal_fields`, gives the
strong maximal M f and the partial maximals M1 f and M2 f; the
composition check and the mixed-norm field G read theirs from it.
Window sums are read from one prefix sum per block pass: each window row
is the difference of two slices of it, written into one reused buffer,
with no gather and no padded copy.  In the product pass the block with
more window rows (x when ``m > n``) is summed once and the other block's
pass runs once per outer radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, ProductGrid, lp_norm, slice_lp_norms_x, slice_lp_norms_y
from .kernel import Exponents

__all__ = [
    "maximal_fields",
    "composition_check",
    "CompositionReport",
    "g_function",
    "g_norm_bound",
    "GNormReport",
]


def _dyadic_radii(grid: ProductGrid) -> tuple[int, ...]:
    """Window radii in cells, ``2^k`` for ``k = 0 .. ceil(log2 N)``: from
    the single cell up to a window that covers the whole box from any
    center."""
    return tuple(2 ** k for k in range(math.ceil(math.log2(grid.points_per_axis)) + 1))


def _window_rows(dim: int, rc: int) -> list[tuple[int, int]]:
    """Rows of the block window of strict radius ``rc`` cells: each row is
    an offset along the block's first axis and a half-width along its
    last axis.  A 1-d block is the one row ``(0, rc - 1)``."""
    offsets = range(1 - rc, rc) if dim == 2 else (0,)
    return [(d, math.isqrt(rc * rc - d * d - 1)) for d in offsets]


def _window_sums(vals: np.ndarray, axes: tuple[int, ...], radii: tuple[int, ...]):
    """Yield ``(window sum, full cell count)`` over the block on ``axes``
    for each radius, zero-extended: one prefix sum along the block's last
    axis, each row added into place in ascending offset order.  Rows lying
    wholly outside the box add nothing but still count.

    A row of half-width ``w`` at cell ``i`` is ``csum[min(i + w + 1, N)] -
    csum[max(i - w, 0)]``, read as two slices of the prefix sum into one
    reused buffer: ``csum[w + 1:]`` fills cells ``0 .. N - w - 1``, the
    total ``csum[N]`` the last ``w`` cells, and ``csum[:N - w]`` is
    subtracted from cells ``w ..``; cells below ``w`` would subtract
    ``csum[0] = 0.0``, which leaves them unchanged, so they are skipped."""
    first, last = axes[0], axes[-1]
    N = vals.shape[last]
    csum = np.cumsum(np.insert(vals, 0, 0.0, axis=last), axis=last)  # csum[k]: first k cells
    buf = np.empty(vals.shape)
    lead = (slice(None),) * last  # index prefix: the next slice is on the last axis
    for rc in radii:
        rows = _window_rows(len(axes), rc)
        total = np.zeros(vals.shape)
        for d, w in rows:
            if abs(d) >= N:
                continue
            src, dst = [slice(None)] * vals.ndim, [slice(None)] * vals.ndim
            if d:  # out[i] = row[i - d] along the first axis
                src[first] = slice(max(-d, 0), N - max(d, 0))
                dst[first] = slice(max(d, 0), N - max(-d, 0))
            if w == 0:  # single cell: keep exact, no cumsum rounding
                row = vals[tuple(src)]
            else:
                w = min(w, N)  # a row wider than the box spans all of it
                row, part = buf[tuple(dst)], csum[tuple(src)]
                row[(*lead, slice(None, N - w))] = part[(*lead, slice(w + 1, None))]
                row[(*lead, slice(N - w, None))] = part[(*lead, slice(N, None))]
                row[(*lead, slice(w, None))] -= part[(*lead, slice(None, N - w))]
            total[tuple(dst)] += row
        yield total, sum(2 * w + 1 for _, w in rows)


def maximal_fields(f: GridFunction) -> tuple[GridFunction, GridFunction, GridFunction]:
    """Strong maximal M f and the partial maximals M1 f (x-block windows)
    and M2 f (y-block windows) of ``f``, from one pass over the product
    windows.  The smallest window on a block is the cell itself, so the
    windows with a one-cell y-factor give M1 f and those with a one-cell
    x-factor give M2 f.

    The block with more window rows (x when ``m > n``) is the outer pass
    and is summed once; the other block's pass runs once per outer
    radius.  M1 f and M2 f do not depend on this order, since a one-cell
    factor copies its input exactly; M f moves only by rounding."""
    grid = f.grid
    radii = _dyadic_radii(grid)
    mf, m1, m2 = (np.zeros(grid.shape) for _ in range(3))
    x_axes, y_axes = tuple(range(grid.m)), tuple(range(grid.m, grid.rank))
    x_first = grid.m > grid.n
    outer, inner = (x_axes, y_axes) if x_first else (y_axes, x_axes)
    for ko, (outer_sum, count_o) in enumerate(_window_sums(f.values, outer, radii)):
        for ki, (total, count_i) in enumerate(_window_sums(outer_sum, inner, radii)):
            total /= count_i * count_o
            kx, ky = (ko, ki) if x_first else (ki, ko)
            np.maximum(mf, total, out=mf)
            if ky == 0:
                np.maximum(m1, total, out=m1)
            if kx == 0:
                np.maximum(m2, total, out=m2)
    return GridFunction(grid, mf), GridFunction(grid, m1), GridFunction(grid, m2)


@dataclass(frozen=True)
class CompositionReport:
    """Outcome of the pointwise comparison of M f against M1(M2 f)."""

    max_ratio: float
    worst_point: tuple[int, ...]


def composition_check(f: GridFunction) -> CompositionReport:
    """Verify pointwise domination of the strong maximal by the composition.

    Because every product window is the product of its per-block
    windows, the domination constant here is exactly 1, which the
    returned maximal ratio makes observable.  M1(M2 f) is the M1 field of
    a second pass over M2 f.
    """
    mf, _, m2 = maximal_fields(f)
    strong, composed = mf.values, maximal_fields(m2)[1].values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(composed > 0.0, strong / composed,
                         np.where(strong == 0.0, 1.0, np.inf))
    flat = int(np.argmax(ratio))
    worst = tuple(int(i) for i in np.unravel_index(flat, ratio.shape))
    return CompositionReport(max_ratio=float(ratio.flat[flat]), worst_point=worst)


def g_function(f: GridFunction, exps: Exponents) -> GridFunction:
    """Mixed-norm field: y-slice norm of M1 f times x-slice norm of M2 f.

    The output factors exactly as the outer product of an x-block grid
    and a y-block grid.
    """
    _, m1, m2 = maximal_fields(f)
    return _g_field(m1, m2, exps.p)


def _g_field(m1: GridFunction, m2: GridFunction, p: float) -> GridFunction:
    n1 = slice_lp_norms_x(m1, p)
    n2 = slice_lp_norms_y(m2, p)
    return GridFunction(m1.grid, np.multiply.outer(n1, n2))


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


def g_norm_bound(f: GridFunction, exps: Exponents) -> GNormReport:
    """Compute the norm of the mixed-norm field and its ratio to ||f||^2.

    The full norm of the field equals the product of the full norms of
    the two partial maximal functions (a discrete Fubini identity); the
    ratio to ||f||^2 is then controlled by the one-block maximal bounds
    and stays stable across dilation families.
    """
    p = exps.p
    _, m1, m2 = maximal_fields(f)
    return GNormReport(
        g_norm=lp_norm(_g_field(m1, m2, p), p),
        f_norm=lp_norm(f, p),
        m1_norm=lp_norm(m1, p),
        m2_norm=lp_norm(m2, p),
    )
