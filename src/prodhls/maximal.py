"""Strong and partial maximal averages over dyadic product windows.

A window is a product of discrete balls, one per block: along each block
the cells whose centers lie strictly within radius delta of the
evaluated cell's center.  Averages divide by the full window cell count
with zero extension outside the box, so boundary windows systematically
under-estimate the average (which only weakens the domination
inequalities verified elsewhere, never falsifies them).  The smallest
dyadic window is the cell itself, hence every maximal output dominates
the pointwise value.

One pass over the dyadic windows, :func:`slab_maximal_fields`, gives the
partial maximals M1 f and M2 f on the whole grid and the strong maximal
M f on the slabs that hold a given set of nodes, where a slab is the set
of cells that share an outer-block index.  M1 f and M2 f come from two
single-block passes, and M f is the largest of them and of the product
windows, whose factors are both larger than one cell; those are summed
on the nodes' slabs only.  :func:`maximal_fields` is the view with every
node, which the composition check and the mixed-norm field G read.
Window sums are read from one prefix sum per block pass: each window row
is the difference of two slices of it, with no gather and no padded copy.
A disc's consecutive rows of one half-width share that difference,
shifted, so it is built once per run of them into one reused buffer.  The
block with more window rows (x when ``m > n``) is the outer pass, summed
once over the grid; the other block's pass runs over f and over the
slabs of the outer sums.  Each pass runs with its block's axes leading,
so every slice it reads or adds is a run of whole contiguous sub-arrays
rather than strided rows of N values.  Every sum is added in the same
order as row by row into zeros, and every operation is elementwise along
the other block's axes, so the fields are the same bytes in any layout
and on any set of slabs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (GridFunction, ProductGrid, lp_norm, normalize_points, slice_lp_norms_x,
                   slice_lp_norms_y)
from .kernel import Exponents

__all__ = [
    "SlabMaximal",
    "slab_maximal_fields",
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


def _window_sums(vals: np.ndarray, dim: int, radii: tuple[int, ...]):
    """Yield ``(window sum, full cell count)`` over the block on the leading
    ``dim`` axes of ``vals`` for each radius, zero-extended: one prefix sum
    along the block's last axis, each row added into place in ascending
    offset order.  Rows lying wholly outside the box add nothing but still
    count.

    A row of half-width ``w`` at cell ``i`` is ``H_w[i] = csum[min(i + w +
    1, N)] - csum[max(i - w, 0)]``, read as two slices of the prefix sum:
    ``csum[w + 1:]`` fills cells ``0 .. N - w - 1``, the total ``csum[N]``
    the last ``w`` cells, and ``csum[:N - w]`` is subtracted from cells
    ``w ..``; cells below ``w`` would subtract ``csum[0] = 0.0``, which
    leaves them unchanged, so they are skipped.  Consecutive offsets of a
    disc that share a half-width read the same ``H_w`` shifted along the
    block's first axis, so ``H_w`` is built once per run of them, into one
    reused buffer over the rows the run reads.  A 1-d block's one row is
    built straight into the yielded array.

    Each sum is, bit for bit, the one the rows added one by one into zeros
    give: the additions and their order are the same, ``csum`` starts from
    ``0.0`` so it holds no ``-0.0`` (nor does a row, so ``0.0 + row`` is the
    row), and the one-cell window is ``vals + 0.0``.  Only that window
    reads ``vals``; the pass drops it after that, and keeps no yielded
    sum alive."""
    shape, N, last = vals.shape, vals.shape[0], dim - 1
    lead = (slice(None),) * last  # index prefix: the next slice is on the block's last axis
    csum = np.empty(shape[:last] + (N + 1,) + shape[dim:])
    csum[(*lead, 0)] = 0.0
    csum[(*lead, slice(1, None))] = vals
    np.cumsum(csum, axis=last, out=csum)  # csum[k]: the first k cells
    buf = np.empty(shape) if dim == 2 else None

    def build(row, part, w):  # H_w from the prefix sums ``part`` into ``row``
        w = min(w, N)  # a row wider than the box spans all of it
        row[(*lead, slice(None, N - w))] = part[(*lead, slice(w + 1, None))]
        row[(*lead, slice(N - w, None))] = part[(*lead, slice(N, None))]
        row[(*lead, slice(w, None))] -= part[(*lead, slice(None, N - w))]

    def window_sum(rows):
        if dim == 1:
            total = np.empty(shape)
            build(total, csum, rows[0][1])
            return total
        total = np.zeros(shape)
        inside = [(d, w) for d, w in rows if abs(d) < N]
        for w, run in itertools.groupby(inside, key=lambda dw: dw[1]):
            ds = [d for d, _ in run]
            # the run reads source rows max(-d, 0) .. N - max(d, 0) - 1
            union = slice(max(-ds[-1], 0), N - max(ds[0], 0))
            build(buf[union], csum[union], w)
            for d in ds:  # out[i] = H_w[i - d] along the first axis
                total[max(d, 0):N - max(-d, 0)] += buf[max(-d, 0):N - max(d, 0)]
        return total

    for rc in radii:
        rows = _window_rows(dim, rc)
        count = sum(2 * w + 1 for _, w in rows)
        if rc == 1:  # the cell itself, added to 0.0 as into zeros: -0.0 becomes 0.0
            yield vals + 0.0, count
            vals = None  # the last read of the input
        else:  # no local keeps the yielded sum: the caller owns it
            yield window_sum(rows), count


def _lead(vals: np.ndarray, k: int) -> np.ndarray:
    """A contiguous copy of ``vals`` with its last ``k`` axes moved to the front."""
    return np.ascontiguousarray(np.moveaxis(vals, range(vals.ndim - k, vals.ndim), range(k)))


def _blocks(grid: ProductGrid) -> tuple[int, int]:
    """The dimensions of the outer and the inner block: the block with more
    window rows (x when ``m > n``) is the outer pass."""
    return (grid.m, grid.n) if grid.m > grid.n else (grid.n, grid.m)


def _slab_keys(grid: ProductGrid, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat outer-block index (the slab) of each node of ``idx`` and
    its inner-block multi-indices."""
    outer_idx, inner_idx = ((idx[:, :grid.m], idx[:, grid.m:]) if grid.m > grid.n
                            else (idx[:, grid.m:], idx[:, :grid.m]))
    key = np.ravel_multi_index(tuple(outer_idx.T), (grid.points_per_axis,) * _blocks(grid)[0])
    return key, inner_idx


def _grid_layout(grid: ProductGrid, vals: np.ndarray) -> GridFunction:
    """A field kept with the inner block's axes leading, back on ``grid``:
    at ``m > n`` the fields hold y first, and GridFunction's C-order copy
    moves x back."""
    if grid.m > grid.n:
        vals = np.moveaxis(vals, range(grid.n), range(grid.m, grid.rank))
    return GridFunction(grid, vals)


@dataclass(frozen=True)
class SlabMaximal:
    """M f on the slabs that hold the prepared nodes.  A slab is the set of
    cells that share an outer-block index (the outer block is x when
    ``m > n``).  ``slabs`` holds their flat outer-block indices, ascending,
    and ``values`` M f with the inner block's axes leading and one slab per
    entry of the last axis."""

    grid: ProductGrid
    slabs: np.ndarray
    values: np.ndarray

    def at(self, idx: np.ndarray) -> np.ndarray:
        """M f at the nodes ``idx``, one multi-index per row; raise
        ``ValueError`` naming the first node outside the prepared slabs."""
        key, inner_idx = _slab_keys(self.grid, idx)
        missing = ~np.isin(key, self.slabs)
        if missing.any():
            node = tuple(idx[np.argmax(missing)].tolist())
            raise ValueError(f"node {node} lies outside the slabs M f was prepared on")
        return self.values[(*inner_idx.T, np.searchsorted(self.slabs, key))]

    def field(self) -> GridFunction:
        """M f on the whole grid; raise ``ValueError`` unless every slab is
        prepared."""
        grid, outer = self.grid, _blocks(self.grid)[0]
        shape = (grid.points_per_axis,) * outer
        if len(self.slabs) != math.prod(shape):
            raise ValueError(f"M f was prepared on {len(self.slabs)} of {math.prod(shape)} "
                             "slabs, not on the whole grid")
        return _grid_layout(grid, self.values.reshape(self.values.shape[:-1] + shape))


def _fold_products(mf: np.ndarray, gathered: np.ndarray, inner: int,
                   radii: tuple[int, ...], counts_o: list[int]) -> None:
    """Fold into ``mf`` the averages over the inner windows of ``radii`` of
    the slab outer sums ``gathered``, whose second-last axis runs over the
    outer radii of cell counts ``counts_o``: each part divided by its own
    ``count_i * count_o``."""
    for total, count_i in _window_sums(gathered, inner, radii):
        for j, count_o in enumerate(counts_o):
            part = total[..., j, :]
            part /= count_i * count_o
            np.maximum(mf, part, out=mf)
        del total, part  # freed before the next sum is built


def slab_maximal_fields(f: GridFunction, points=None
                        ) -> tuple[SlabMaximal, GridFunction, GridFunction]:
    """M f on the slabs that hold the nodes ``points`` (one multi-index per
    row; every node when None), and the partial maximals M1 f (x-block
    windows) and M2 f (y-block windows) on the whole grid.

    The smallest window on a block is the cell itself (the one window of
    full cell count 1).  So M1 f and M2 f come from two single-block
    passes: the outer-block pass, whose sums are the windows with a
    one-cell inner factor, and the inner-block pass over f, the one-cell
    outer window.  The product windows, with both factors larger than one
    cell, feed M f alone, the largest of M1 f, M2 f and their averages.
    Their inner pass runs only on the slabs that hold a node: the slabs of
    every outer radius are gathered into one array, at most a field's
    cells at a time, with the inner block's axes leading.  Every operation
    is elementwise along the slab axes, so M f on a slab is the same bytes
    whichever slabs are prepared.

    The outer block is summed once.  Each pass runs with its block's axes
    leading: f is transposed once when y is the outer block, and each
    outer sum once so that the inner block leads; the fields are kept in
    that layout and moved back to x first at the end.  Transposing moves
    values, not sums, so the fields are the same bytes in either layout.
    """
    grid = f.grid
    N, radii = grid.points_per_axis, _dyadic_radii(grid)
    outer, inner = _blocks(grid)
    width, inner_shape = N ** outer, (N,) * inner
    held = np.ones(width, dtype=bool)
    if points is not None:
        held[:] = False
        held[_slab_keys(grid, normalize_points(points, grid.rank, N))[0]] = True
    slabs = np.flatnonzero(held)  # ascending, each once
    cols = slice(None) if len(slabs) == width else slabs  # every slab: no index gather
    per_gather = width // max(len(slabs), 1)  # outer radii per gather: a field's cells
    x_outer = grid.m > grid.n
    # the inner-block pass over f: the windows with a one-cell outer factor
    m_in = np.zeros(grid.shape)
    for total, count_i in _window_sums(_lead(f.values, grid.n) if x_outer else f.values,
                                       inner, radii):
        total /= count_i
        np.maximum(m_in, total, out=m_in)
        del total  # freed before the next sum is built
    # the outer-block pass: the windows with a one-cell inner factor, and the
    # slabs of each outer sum for the product windows
    m_out, mf = np.zeros(grid.shape), np.zeros(inner_shape + (len(slabs),))
    gathered, counts_o, left = None, [], len(radii) - 1  # left: outer radii to gather
    for outer_sum, count_o in _window_sums(f.values if x_outer else _lead(f.values, grid.n),
                                           outer, radii):
        lead = _lead(outer_sum, inner)
        del outer_sum  # only its transposed copy is read
        if count_o > 1:
            if gathered is None:
                gathered = np.empty(inner_shape + (min(per_gather, left), len(slabs)))
            gathered[..., len(counts_o), :] = lead.reshape(inner_shape + (width,))[..., cols]
            counts_o.append(count_o)
            left -= 1
        lead /= count_o
        np.maximum(m_out, lead, out=m_out)
        del lead
        if gathered is not None and len(counts_o) == gathered.shape[-2]:
            _fold_products(mf, gathered, inner, radii[1:], counts_o)
            gathered, counts_o = None, []
    for field in (m_out, m_in):
        np.maximum(mf, field.reshape(inner_shape + (width,))[..., cols], out=mf)
    m1, m2 = (m_out, m_in) if x_outer else (m_in, m_out)
    return SlabMaximal(grid, slabs, mf), _grid_layout(grid, m1), _grid_layout(grid, m2)


def maximal_fields(f: GridFunction) -> tuple[GridFunction, GridFunction, GridFunction]:
    """Strong maximal M f and the partial maximals M1 f (x-block windows)
    and M2 f (y-block windows) of ``f`` on the whole grid: the view of
    :func:`slab_maximal_fields` with every slab prepared."""
    mf, m1, m2 = slab_maximal_fields(f)
    return mf.field(), m1, m2


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
