"""Strong and partial maximal averages over dyadic product windows.

A window is a product of discrete balls, one per block: along each block
the cells whose centers lie strictly within radius delta of the
evaluated cell's center.  Averages divide by the full window cell count
with zero extension outside the box, so boundary windows systematically
under-estimate the average (which only weakens the domination
inequalities verified elsewhere, never falsifies them).  The smallest
dyadic window is the cell itself, hence every maximal output dominates
the pointwise value.

One pass over the dyadic windows, :func:`slab_maximal_fields`, gives
each maximal only where a set of nodes reads it: the strong maximal M f
on the slabs that hold a node, where a slab is the set of cells that
share an outer-block index, and the partial maximals M1 f and M2 f on the
nodes' x-slices and y-slices, the slices whose L^p norms n1 and n2 the
Hedberg bound reads (:class:`SliceValues`).  M1 f and M2 f come from two
single-block passes, and M f is the largest of the outer pass's averages
and of the product windows, summed on the nodes' slabs only.
:func:`maximal_fields` is the view with every node, which the
composition check and the mixed-norm field G read.  Window sums are read
from one prefix sum per block pass: each window row is the difference of
two slices of it, or of two gathers at the positions a set of slices
takes on the block's last axis.  A disc's consecutive rows of one
half-width share that difference, shifted, so it is built once per run
of them into one reused buffer.  The block with more window rows (x when
``m > n``) is the outer pass, summed once; the other block's pass runs
over f and over the slabs of the outer sums.  Each pass runs with its
block's axes leading, so every slice it reads or adds is a run of whole
contiguous sub-arrays rather than strided rows of N values.  Every sum
is added in the same order as row by row into zeros, and every operation
is elementwise along the other block's axes, so the fields are the same
bytes in any layout and on any set of slices.
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
    "SliceValues",
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


def _window_sums(vals: np.ndarray, dim: int, radii: tuple[int, ...],
                 positions=slice(None)):
    """Yield ``(window sum, full cell count)`` over the block on the leading
    ``dim`` axes of ``vals`` for each radius, zero-extended, at the cells
    whose index on the block's last axis is in ``positions`` (ascending
    indices; every index by default): one prefix sum along that axis, each
    row added into place in ascending offset order.  The sums keep the
    shape of ``vals`` with that axis cut to ``positions``, in C order
    whatever the layout of ``vals``, which may be a transposed view.  Rows
    lying wholly outside the box add nothing but still count.

    A row of half-width ``w`` at cell ``i`` is ``H_w[i] = csum[min(i + w +
    1, N)] - csum[max(i - w, 0)]``.  At every position it is read as two
    slices of the prefix sum: ``csum[w + 1:]`` fills cells ``0 .. N - w -
    1``, the total ``csum[N]`` the last ``w`` cells, and ``csum[:N - w]`` is
    subtracted from cells ``w ..``; cells below ``w`` would subtract
    ``csum[0] = 0.0``, which leaves them unchanged, so they are skipped.  At
    a set of positions both reads are gathers at the clipped indices, and
    the cells below ``w`` subtract that ``0.0``.  Consecutive offsets of a
    disc that share a half-width read the same ``H_w`` shifted along the
    block's first axis, so ``H_w`` is built once per run of them, into one
    reused buffer over the rows the run reads.  A 1-d block's one row is
    built straight into the yielded array.

    Each sum is, bit for bit, the one the rows added one by one into zeros
    give, at any set of positions: the additions and their order are the
    same, ``csum`` starts from ``0.0`` so it holds no ``-0.0`` (nor does a
    row, so ``0.0 + row`` is the row), and the one-cell window is ``vals +
    0.0``.  Only that window reads ``vals``; the pass drops it after that,
    and keeps no yielded sum alive."""
    shape, N, last = vals.shape, vals.shape[0], dim - 1
    lead = (slice(None),) * last  # index prefix: the next index is on the block's last axis
    every = isinstance(positions, slice)
    out_shape = shape if every else shape[:last] + (len(positions),) + shape[dim:]
    csum = np.empty(shape[:last] + (N + 1,) + shape[dim:])
    csum[(*lead, 0)] = 0.0
    csum[(*lead, slice(1, None))] = vals
    np.cumsum(csum, axis=last, out=csum)  # csum[k]: the first k cells
    buf = np.empty(out_shape) if dim == 2 else None

    def build(row, part, w):  # H_w from the prefix sums ``part`` into ``row``
        w = min(w, N)  # a row wider than the box spans all of it
        if not every:
            np.subtract(part[(*lead, np.minimum(positions + w + 1, N))],
                        part[(*lead, np.maximum(positions - w, 0))], out=row)
            return
        row[(*lead, slice(None, N - w))] = part[(*lead, slice(w + 1, None))]
        row[(*lead, slice(N - w, None))] = part[(*lead, slice(N, None))]
        row[(*lead, slice(w, None))] -= part[(*lead, slice(None, N - w))]

    def window_sum(rows):
        if dim == 1:
            total = np.empty(out_shape)
            build(total, csum, rows[0][1])
            return total
        total = np.zeros(out_shape)
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
            yield np.add(vals[(*lead, positions)], 0.0, order="C"), count
            vals = None  # the last read of the input
        else:  # no local keeps the yielded sum: the caller owns it
            yield window_sum(rows), count


def _block_keys(grid: ProductGrid, idx: np.ndarray, block: str) -> np.ndarray:
    """The flat index of each node's ``block`` ("x" or "y") multi-index."""
    own = idx[:, :grid.m] if block == "x" else idx[:, grid.m:]
    return np.ravel_multi_index(tuple(own.T), (grid.points_per_axis,) * own.shape[1])


def _block_reads(slices: np.ndarray, dim: int, N: int):
    """The positions a block pass reads on the block's last axis for the
    ``slices`` (flat block indices, ascending), and the row of each slice
    in the pass's sums with the block's axes flattened: slices rather than
    index arrays at every position and for every slice, so the full pass
    gathers nothing."""
    held = np.zeros(N, dtype=bool)
    held[slices % N] = True
    positions = np.flatnonzero(held)
    rows = slices // N * len(positions) + np.searchsorted(positions, slices % N)
    return (slice(None) if len(positions) == N else positions,
            slice(None) if len(slices) == N ** dim else rows)


@dataclass(frozen=True)
class SliceValues:
    """A field, or one value per slice, on the prepared slices of one block
    of ``grid``.  A slice is the set of cells that share an index of
    ``block`` ("x" or "y"); the outer block's slices are the slabs (the
    outer block is x when ``m > n``).  ``slices`` holds the prepared
    slices' flat block indices, ascending.  ``values`` is indexed like the
    grid with each block's axes flattened and ``block``'s cut to
    ``slices``: ``values[k, y]`` on x-slice k or ``values[x, k]`` on
    y-slice k for a field, and ``values[k]`` for one value per slice.
    ``name`` names the values in errors."""

    grid: ProductGrid
    block: str
    slices: np.ndarray
    values: np.ndarray
    name: str

    def _noun(self) -> str:
        outer = "x" if self.grid.m > self.grid.n else "y"
        return "slabs" if self.block == outer else f"{self.block}-slices"

    def at(self, idx: np.ndarray) -> np.ndarray:
        """The values at the nodes ``idx``, one multi-index per row; raise
        ``ValueError`` naming the first node outside the prepared slices."""
        key = _block_keys(self.grid, idx, self.block)
        missing = ~np.isin(key, self.slices)
        if missing.any():
            node = tuple(idx[np.argmax(missing)].tolist())
            raise ValueError(f"node {node} lies outside the {self._noun()} {self.name} "
                             "was prepared on")
        at = np.searchsorted(self.slices, key)
        if self.values.ndim == 1:
            return self.values[at]
        if self.block == "x":
            return self.values[at, _block_keys(self.grid, idx, "y")]
        return self.values[_block_keys(self.grid, idx, "x"), at]

    def full(self) -> np.ndarray:
        """The values on every slice, in the grid's shape (the block's, for
        one value per slice); raise ``ValueError`` unless every slice is
        prepared."""
        N = self.grid.points_per_axis
        block_shape = (N,) * (self.grid.m if self.block == "x" else self.grid.n)
        if len(self.slices) != math.prod(block_shape):
            raise ValueError(f"{self.name} was prepared on {len(self.slices)} of "
                             f"{math.prod(block_shape)} {self._noun()}, not on the whole grid")
        return self.values.reshape(self.grid.shape if self.values.ndim == 2 else block_shape)

    def norms(self, p: float) -> "SliceValues":
        """The L^p norms of the field over the other block, one per
        prepared slice: n1 for M1 f on x-slices, n2 for M2 f on y-slices,
        the bytes :func:`~prodhls.grid.slice_lp_norms_x` and ``_y`` give on
        the full field."""
        # numpy sums each contiguous row pairwise, as over the full field's
        # trailing axes; it adds the rows of several columns one after
        # another, as over the full field's leading axes, but sums a lone
        # column pairwise, so that one is accumulated row after row
        powered, grid = np.ascontiguousarray(self.values) ** p, self.grid
        if self.block == "x":
            total, dim = np.sum(powered, axis=1), grid.n
        else:
            total = (np.sum(powered, axis=0) if powered.shape[1] > 1
                     else np.add.accumulate(powered)[-1])
            dim = grid.m
        return SliceValues(grid, self.block, self.slices,
                           (total * grid.spacing ** dim) ** (1.0 / p),
                           "n1" if self.block == "x" else "n2")


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
                        ) -> tuple[SliceValues, SliceValues, SliceValues]:
    """M f on the slabs that hold the nodes ``points`` (one multi-index per
    row; every node when None), M1 f (x-block windows) on the nodes'
    x-slices and M2 f (y-block windows) on their y-slices.

    The smallest window on a block is the cell itself (the one window of
    full cell count 1).  So M1 f and M2 f come from two single-block
    passes: the outer-block pass, whose sums are the windows with a
    one-cell inner factor, and the inner-block pass over f, the one-cell
    outer window.  Each runs only where its field is read: at the
    positions its block's slices take on the block's last axis, where the
    prefix sum is read, kept on those slices alone.  The outer pass's
    slabs also feed M f, the largest of the outer pass's averages there
    and of the product windows.  Those are the inner windows larger than
    one cell over the slabs of every outer sum, gathered into one array at
    most a field's cells at a time, with the inner block's axes leading.
    The one-cell outer window, f on the slabs, is gathered with them
    unless the inner pass ran on every inner slice, whose M_inner then
    gives it on the whole grid.  Every operation is elementwise along the
    other block's axes, so the fields on a slice are the same bytes
    whichever slices are prepared.

    The outer block is summed once.  Each pass runs with its block's axes
    leading: the pass of the block that is not x reads f through a
    transposed view, which its prefix sum copies in the pass's order, and
    the slabs of each outer sum are transposed once so that the inner
    block leads.
    Each field is kept one slice per row, or one slab per column, and
    returned in the grid's order, a transposed view where that differs.
    Transposing moves values, not sums, so the fields are the same bytes in
    either layout.
    """
    grid = f.grid
    N, radii = grid.points_per_axis, _dyadic_radii(grid)
    x_outer = grid.m > grid.n
    (outer, o_block), (inner, i_block) = (((grid.m, "x"), (grid.n, "y")) if x_outer
                                          else ((grid.n, "y"), (grid.m, "x")))
    width_o, width_i, inner_shape = N ** outer, N ** inner, (N,) * inner
    nodes = None if points is None else normalize_points(points, grid.rank, N)
    y_leading = np.moveaxis(f.values, range(grid.m, grid.rank), range(grid.n))

    def prepared(block, width):  # the block's slices that hold a node, ascending
        held = np.ones(width, dtype=bool)
        if nodes is not None:
            held[:] = False
            held[_block_keys(grid, nodes, block)] = True
        return np.flatnonzero(held)

    slabs, inner_slices = prepared(o_block, width_o), prepared(i_block, width_i)
    every_inner = len(inner_slices) == width_i
    # the inner-block pass over f, on the inner slices
    positions, rows = _block_reads(inner_slices, inner, N)
    # each field starts as its first average, the one-cell window: the
    # maximum with zeros would be the same bytes, since no average is -0.0
    m_in = None
    for total, count_i in _window_sums(y_leading if x_outer else f.values,
                                       inner, radii, positions):
        part = total.reshape(-1, width_o)[rows]
        part /= count_i
        if m_in is None:
            m_in = part
        else:
            np.maximum(m_in, part, out=m_in)
        del total, part  # freed before the next sum is built
    # the outer-block pass on the slabs, which it gathers for the product windows
    positions, rows = _block_reads(slabs, outer, N)
    m_out, mf = None, np.zeros((width_i, len(slabs)))
    per_gather = width_o // max(len(slabs), 1)  # outer radii per gather: a field's cells
    gathered, counts_o = None, []
    left = len(radii) - every_inner  # outer radii left to gather
    for outer_sum, count_o in _window_sums(f.values if x_outer else y_leading,
                                           outer, radii, positions):
        slab = outer_sum.reshape(-1, width_i)[rows]
        del outer_sum  # read through ``slab`` only
        if count_o > 1 or not every_inner:
            if gathered is None:  # one buffer, reused by each gather
                gathered = np.empty((width_i, min(per_gather, left), len(slabs)))
            gathered[:, len(counts_o)] = slab.T
            counts_o.append(count_o)
            left -= 1
        slab /= count_o
        if m_out is None:
            m_out = slab
        else:
            np.maximum(m_out, slab, out=m_out)
        del slab
        if counts_o and (len(counts_o) == gathered.shape[1] or not left):
            batch = gathered[:, :len(counts_o)]
            _fold_products(mf.reshape(inner_shape + (len(slabs),)),
                           batch.reshape(inner_shape + batch.shape[1:]), inner, radii[1:],
                           counts_o)
            counts_o = []
    np.maximum(mf, m_out.T, out=mf)
    if every_inner:
        np.maximum(mf, m_in[:, slice(None) if len(slabs) == width_o else slabs], out=mf)

    def values(block, slices, field, name):  # ``field`` holds one slice per row
        return SliceValues(grid, block, slices, field.T if block == "y" else field, name)

    m_outer = values(o_block, slabs, m_out, f"M{'1' if x_outer else '2'} f")
    m_inner = values(i_block, inner_slices, m_in, f"M{'2' if x_outer else '1'} f")
    mf = values(o_block, slabs, mf.T, "M f")
    return (mf, m_outer, m_inner) if x_outer else (mf, m_inner, m_outer)


def maximal_fields(f: GridFunction) -> tuple[GridFunction, GridFunction, GridFunction]:
    """Strong maximal M f and the partial maximals M1 f (x-block windows)
    and M2 f (y-block windows) of ``f`` on the whole grid: the view of
    :func:`slab_maximal_fields` with every node prepared."""
    return tuple(GridFunction(f.grid, field.full()) for field in slab_maximal_fields(f))


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
