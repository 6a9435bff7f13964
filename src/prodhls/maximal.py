"""Strong and partial maximal averages over dyadic product windows.

A window is a product of discrete balls, one per block: along each block
the cells whose centers lie strictly within radius delta of the
evaluated cell's center.  Averages divide by the full window cell count
with zero extension outside the box, so boundary windows systematically
under-estimate the average (which only weakens the domination
inequalities verified elsewhere, never falsifies them).  The smallest
dyadic window is the cell itself, hence every maximal output dominates
the pointwise value.

One pass over the dyadic windows gives each maximal only where a set of
nodes reads it.  :func:`node_maximals` returns the three numbers the
Hedberg bound reads at each node: the strong maximal M f there, and the
L^p norms n1 and n2 of the partial maximals M1 f and M2 f over the
node's x-slice and y-slice (a slice is the set of cells that share an
index of one block).  M1 f and M2 f come from two single-block passes on
the nodes' slices, and M f at a node is the largest of the two partial
maximals there and of the product windows larger than one cell on both
blocks, summed at the nodes' slice centres only.  :func:`maximal_fields`
is the same pass at every node, which the composition check and the
mixed-norm field G read.  For a tensor product ``a(x) b(y)`` every
product window average factors, and :func:`block_maximals` gives M a and
M b at the nodes from one single-block pass over each block, with the
factors of several tensor products stacked along a trailing axis, from
which M f, n1 and n2 follow with no N^rank array.

Window sums are read from one prefix sum per block pass.  A block pass
reads them at its centres, the block cells of the slices that hold a
node: per radius it gathers both prefix-sum ends of every disc row at
every centre, subtracts them and adds the rows in one reduce, in chunks
of centres whose two gathers hold at most half the cells of the pass's
input.  When every slice of a block holds a node, and for
:func:`maximal_fields`, the pass reads densely instead: each window row
is the difference of two slices of the prefix sum, and a disc's
consecutive rows of one half-width share that difference, shifted, so
it is built once per run of them into one reused buffer.  The block with
more window rows (x when ``m > n``) is the outer pass, summed once; its
slices are the slabs, and the other block's pass runs over f and over
the slabs of the outer sums.  Each pass runs with its block's axes
leading, so every slice it reads or adds is a run of whole contiguous
sub-arrays rather than strided rows of N values.  Every sum is added in
the same order as row by row into zeros, and every operation is
elementwise along the other block's axes, so the values are the same
bytes in any layout, in either read and on any set of slices.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (GridFunction, ProductGrid, TensorProduct, _check_exponent, _node_cells,
                   _one_grid, lp_norm, normalize_points, slice_lp_norms_x, slice_lp_norms_y)
from .kernel import Exponents

__all__ = [
    "node_maximals",
    "block_maximals",
    "maximal_fields",
    "composition_check",
    "CompositionReport",
    "g_norm_bound",
    "GNormReport",
]


def _dyadic_radii(grid: ProductGrid) -> tuple[int, ...]:
    """Window radii in cells, ``2^k`` for ``k = 0 .. ceil(log2 N)``: from
    the single cell up to a window that covers the whole box from any
    center."""
    return tuple(2 ** k for k in range(math.ceil(math.log2(grid.points_per_axis)) + 1))


@functools.cache
def _window_rows(dim: int, rc: int) -> tuple[tuple[int, int], ...]:
    """Rows of the block window of strict radius ``rc`` cells, which holds
    exactly the cell offsets ``(d, e)`` with ``d^2 + e^2 < rc^2``: each row
    is an offset d along the block's first axis and the half-width
    ``isqrt(rc^2 - d^2 - 1)`` of its offsets e along the last axis.  A 1-d
    block is the one row ``(0, rc - 1)``.  Built once per (dim, rc)."""
    offsets = range(1 - rc, rc) if dim == 2 else (0,)
    return tuple((d, math.isqrt(rc * rc - d * d - 1)) for d in offsets)


@functools.cache
def _window_cells(dim: int, rc: int) -> int:
    """Full cell count of the block window of strict radius ``rc``, the
    divisor of its average."""
    return sum(2 * w + 1 for _, w in _window_rows(dim, rc))


def _window_sums(vals: np.ndarray, dim: int, radii: tuple[int, ...], centres=None):
    """Yield ``(window sum, full cell count)`` over the block on the leading
    ``dim`` axes of ``vals`` for each radius, zero-extended: at every cell
    of the block by default (the dense read), in the shape of ``vals``, or
    at the block cells ``centres`` alone (ascending flat block indices),
    with the block's axes cut to one axis of them.  The sums are in C order
    whatever the layout of ``vals``, which may be a transposed view.  Rows
    lying wholly outside the box add nothing but still count.

    Both reads start from one prefix sum along the block's last axis.  When
    a prefix row holds at least ``N^2`` values (every pass over f but at
    rank (1,1)) it is built row by row, each row the last plus a row of
    ``vals``; else ``vals`` is copied in and summed by one ``np.cumsum``,
    whose strided loop is the faster on short rows.  Both add in the same
    order, from ``csum[0] = 0.0``.

    A row of half-width ``w`` at cell ``i`` is ``H_w[i] = csum[min(i + w +
    1, N)] - csum[max(i - w, 0)]``.  The dense read takes it as two slices
    of the prefix sum: ``csum[w + 1:]`` fills cells ``0 .. N - w - 1``, the
    total ``csum[N]`` the last ``w`` cells, and ``csum[:N - w]`` is
    subtracted from cells ``w ..``; cells below ``w`` would subtract
    ``csum[0] = 0.0``, which leaves them unchanged, so they are skipped.
    Consecutive offsets of a disc that share a half-width read the same
    ``H_w`` shifted along the block's first axis, so ``H_w`` is built once
    per run of them, into one reused buffer, and added into place in
    ascending offset order.  A 1-d block's one row is built straight into
    the yielded array.

    The centre read gathers both ends of every disc row at every centre,
    two arrays of (rows, centres, rest), subtracts them and adds the rows
    in ascending offset order with one ``np.add.reduce``; a 1-d block's one
    row is the difference itself.  A row that misses the box at a centre
    reads ``csum[0] - csum[0] = 0.0``.  The chunk rule: the centres go in
    chunks of ``N^dim // (4 * rows)`` (one at the least), so that the two
    gathers of a chunk hold at most half the cells of ``vals``.

    Each sum is, bit for bit, the one the rows added one by one into zeros
    give, in either read: the additions and their order are the same,
    ``csum`` starts from ``0.0`` so it holds no ``-0.0`` (nor does a row or
    a sum of rows, so a ``0.0`` row added to a sum, or a sum started from
    the first row instead of ``0.0``, changes nothing), and the one-cell
    window is ``vals + 0.0``.  A reduce over the leading axis adds one row
    after another.  numpy would sum a lone column pairwise, but a chunk is
    one only at N = 2 (one slab, one outer radius, one centre), where one
    of a disc's three rows misses the box: two numbers and a ``0.0`` add
    up to the same bytes in any order.  Only the one-cell window reads
    ``vals``; the pass drops it after that, and keeps no yielded sum
    alive."""
    shape, N, last = vals.shape, vals.shape[0], dim - 1
    lead = (slice(None),) * last  # index prefix: the next index is on the block's last axis
    csum = np.empty(shape[:last] + (N + 1,) + shape[dim:])
    csum[(*lead, 0)] = 0.0  # csum[k]: the first k cells
    if csum[(*lead, 0)].size >= N * N:  # long rows: csum[k + 1] = csum[k] + vals[k]
        for k in range(N):
            np.add(csum[(*lead, k)], vals[(*lead, k)], out=csum[(*lead, k + 1)])
    else:
        csum[(*lead, slice(1, None))] = vals
        np.cumsum(csum, axis=last, out=csum)
    inside = [[(d, w) for d, w in _window_rows(dim, rc) if abs(d) < N] for rc in radii]
    if centres is None:
        buf = np.empty(shape) if dim == 2 else None
    else:  # both ends of every disc row inside the box at every centre, as rows of ``flat``
        # (row r * (N + 1) + k is csum[r, k], r = 0 in 1-d), each radius's rows after the last's
        width = math.prod(shape[dim:])
        flat = csum.reshape(N ** last * (N + 1), width)
        first, col = divmod(centres, N)
        offset, half = (np.array(v)[:, None] for v in zip(*itertools.chain(*inside)))
        hi, lo = np.minimum(col + half + 1, N), np.maximum(col - half, 0)
        if dim == 2:  # as in the dense read, the row at offset d reads H_w[i - d]
            r = first - offset
            on = (r >= 0) & (r < N)  # off the box, both ends read csum[0] = 0.0
            r *= N + 1
            hi, lo = np.where(on, hi + r, 0), np.where(on, lo + r, 0)
        spans = itertools.pairwise(itertools.accumulate(map(len, inside), initial=0))

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
        for w, run in itertools.groupby(rows, key=lambda dw: dw[1]):
            ds = [d for d, _ in run]
            # the run reads source rows max(-d, 0) .. N - max(d, 0) - 1
            union = slice(max(-ds[-1], 0), N - max(ds[0], 0))
            build(buf[union], csum[union], w)
            for d in ds:  # out[i] = H_w[i - d] along the first axis
                total[max(d, 0):N - max(-d, 0)] += buf[max(-d, 0):N - max(d, 0)]
        return total

    def centre_sum(span):  # the rows of ``hi`` and ``lo`` in ``span``: one radius
        his, los = hi[span], lo[span]
        total = np.empty((len(centres), width))
        step = max(N ** dim // (4 * len(his)), 1)  # centres per chunk
        for part in (slice(k, k + step) for k in range(0, len(centres), step)):
            if len(his) == 1:  # one row: its difference is the sum
                np.subtract(flat[his[0, part]], flat[los[0, part]], out=total[part])
                continue
            rows = flat[his[:, part]]
            rows -= flat[los[:, part]]
            np.add.reduce(rows, axis=0, out=total[part])
            del rows
        return total.reshape((len(centres),) + shape[dim:])

    for rc, kept in zip(radii, inside):
        count = _window_cells(dim, rc)
        span = None if centres is None else slice(*next(spans))
        if rc == 1:  # the cell itself, added to 0.0 as into zeros: -0.0 becomes 0.0
            cell = vals if centres is None else vals[np.unravel_index(centres, (N,) * dim)]
            yield np.add(cell, 0.0, order="C"), count
            vals = cell = None  # the last read of the input
        else:  # no local keeps the yielded sum: the caller owns it
            yield (window_sum(kept) if centres is None else centre_sum(span)), count


def _block_keys(grid: ProductGrid, idx: np.ndarray, block: str) -> np.ndarray:
    """The flat index of each node's ``block`` ("x" or "y") multi-index."""
    own = idx[:, :grid.m] if block == "x" else idx[:, grid.m:]
    return np.ravel_multi_index(tuple(own.T), (grid.points_per_axis,) * own.shape[1])


def _block_reads(keys, dim: int, N: int):
    """The cells of a block that hold a node and each node's position among
    them (:func:`~prodhls.grid._node_cells`, for the nodes' flat block
    indices ``keys``), and the centres the block's passes read their window
    sums at: those cells, or ``None``, the dense read, when every cell of
    the block holds a node."""
    cells, at = _node_cells(keys, N ** dim)
    return cells, at, (None if len(cells) == N ** dim else cells)


def _largest_average(sums, width: int) -> np.ndarray:
    """The largest of the window averages of the ``(window sum, full cell
    count)`` pairs ``sums``, each sum a fresh array read as rows of
    ``width`` values and divided in place.  The first average is the
    start: the maximum with zeros would be the same bytes, since no average
    is -0.0.  Each sum is freed before the next one is built."""
    best = None
    for total, count in sums:
        average = total.reshape(-1, width)
        average /= count
        best = average if best is None else np.maximum(best, average, out=best)
        del total, average
    return best


def _maximal_pass(f: GridFunction, x_keys, y_keys):
    """M f at the nodes whose x-block and y-block flat indices are
    ``x_keys`` and ``y_keys``, and each partial maximal on the slices that
    hold a node: ``(at_x, M1 f)`` and ``(at_y, M2 f)``, the field one row
    per slice in ascending flat block index and the row of each node's
    slice.  Given ``slice(None)`` for both, every node, M f is the whole
    field with each block's axes flattened, read with no gather.

    The smallest window on a block is the cell itself (the one window of
    full cell count 1).  So M1 f and M2 f come from two single-block
    passes over f, and M f at a node is the largest of three values: the
    outer block's maximal there, the inner block's there, and the product
    windows whose two factors are both larger than one cell.  Each pass
    reads its window sums only at its block's slices, the centres (see
    :func:`_window_sums`).  The outer sums larger than one cell at the
    outer centres are gathered into one array, at most a field's cells at
    a time, with the inner block's axes leading, and the inner windows
    larger than one cell are summed over them at the inner centres only,
    one row per inner slice.  Every operation is elementwise along the
    other block's axes, so a node's values are the same bytes whichever
    other nodes are read.

    The outer block is summed once.  Each pass runs with its block's axes
    leading: the pass of the block that is not x reads f through a
    transposed view, which its prefix sum copies in the pass's order, and
    the outer sums are transposed once so that the inner block leads.
    Transposing moves values, not sums.
    """
    grid = f.grid
    N, radii = grid.points_per_axis, _dyadic_radii(grid)
    y_leading = np.moveaxis(f.values, range(grid.m, grid.rank), range(grid.n))
    x_outer = grid.m > grid.n
    (outer, o_keys, o_vals), (inner, i_keys, i_vals) = (
        ((grid.m, x_keys, f.values), (grid.n, y_keys, y_leading)) if x_outer
        else ((grid.n, y_keys, y_leading), (grid.m, x_keys, f.values)))
    width_o, width_i = N ** outer, N ** inner
    i_slices, at_i, i_centres = _block_reads(i_keys, inner, N)
    m_in = _largest_average(_window_sums(i_vals, inner, radii, i_centres), width_o)
    slabs, at_o, o_centres = _block_reads(o_keys, outer, N)
    # the product windows, one row per inner slice and one column per slab
    products = np.zeros((len(i_slices), len(slabs)))
    per_gather = width_o // max(len(slabs), 1)  # outer radii per gather: a field's cells

    def product_batch(counts):  # the inner windows over the gathered outer sums
        batch = gathered[:, :len(counts)]
        for total, count_i in _window_sums(batch.reshape((N,) * inner + batch.shape[1:]),
                                           inner, radii[1:], i_centres):
            total = total.reshape(len(products), len(counts), len(slabs))
            for j, count_j in enumerate(counts):
                part = total[:, j]
                part /= count_i * count_j
                np.maximum(products, part, out=products)
            del total, part  # freed before the next sum is built

    m_out, gathered, counts_o = None, None, []
    left = len(radii) - 1  # outer radii larger than one cell left to gather
    for outer_sum, count_o in _window_sums(o_vals, outer, radii, o_centres):
        slab = outer_sum.reshape(-1, width_i)
        del outer_sum  # read through ``slab`` only
        if count_o > 1:
            if gathered is None:  # one buffer, reused by each gather
                gathered = np.empty((width_i, min(per_gather, left), len(slabs)))
            gathered[:, len(counts_o)] = slab.T
            counts_o.append(count_o)
            left -= 1
        slab /= count_o
        m_out = slab if m_out is None else np.maximum(m_out, slab, out=m_out)
        del slab
        if counts_o and left and len(counts_o) == gathered.shape[1]:
            product_batch(counts_o)
            counts_o = []
    # the last batch runs once the outer pass has ended and freed its prefix sum
    if counts_o:
        product_batch(counts_o)
    if isinstance(o_keys, slice):  # every node: the fields are read whole
        mf = np.maximum(products, m_out.T, out=products)
        np.maximum(mf, m_in, out=mf)
        mf = mf.T if x_outer else mf
    else:
        mf = np.maximum(products[at_i, at_o], m_out[at_o, i_keys])
        np.maximum(mf, m_in[at_i, o_keys], out=mf)
    return (mf, (at_o, m_out), (at_i, m_in)) if x_outer else (mf, (at_i, m_in), (at_o, m_out))


def node_maximals(f: GridFunction, p: float, points
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M f, n1 = ``||M1 f(x, .)||_p`` and n2 = ``||M2 f(., y)||_p`` at the
    nodes ``points`` (one multi-index per row): three float64 arrays of
    shape (K,), in input order, the bytes :func:`maximal_fields` and
    :func:`~prodhls.grid.slice_lp_norms_x` and ``_y`` give there.  M1 f
    and M2 f are computed on the nodes' x-slices and y-slices alone, and
    M f at the nodes alone: each block pass reads its window sums only at
    the nodes' slice centres (one gather of every disc row's two prefix-sum
    ends per radius, in chunks whose gathers hold at most half a pass
    input's cells), and densely on a block whose every slice holds a
    node.  No nodes give three empty arrays."""
    _check_exponent(p)
    grid = f.grid
    idx = normalize_points(points, grid.rank, grid.points_per_axis)
    mf, (at_x, m1), (at_y, m2) = _maximal_pass(
        f, _block_keys(grid, idx, "x"), _block_keys(grid, idx, "y"))
    # numpy sums each contiguous row pairwise, as over the full field's
    # trailing axes; it adds the rows of several columns one after
    # another, as over the full field's leading axes, but sums a lone
    # column pairwise, so that one is accumulated row after row
    n1 = np.sum(m1 ** p, axis=1)
    powered = np.ascontiguousarray(m2.T) ** p
    n2 = np.sum(powered, axis=0) if len(m2) > 1 else np.add.accumulate(powered)[-1]
    n1, n2 = ((total * grid.spacing ** dim) ** (1.0 / p)
              for total, dim in ((n1, grid.n), (n2, grid.m)))
    return mf, n1[at_x], n2[at_y]


def block_maximals(fs: list[TensorProduct], points) -> tuple[np.ndarray, np.ndarray]:
    """M a at each node's x-block cell and M b at its y-block cell, for
    each tensor product ``f(x, y) = a(x) b(y)`` of ``fs``, all on one grid,
    and the nodes ``points`` (one multi-index per row): two float64 arrays
    of shape (R, K), one row per instance, each node in input order.

    Every product window average of f is the product of its two block
    averages, and the one-cell window is among each block's windows, so
    M f = M a M b, M1 f = M a b and M2 f = a M b cell by cell, and the
    slice norms are n1 = M a ``||b||_p`` and n2 = ``||a||_p`` M b.  Each
    block takes one single-block pass of :func:`_window_sums` over the
    dyadic windows of :func:`node_maximals`, with the instances' factors
    stacked along a trailing axis, which every operation of the pass
    treats elementwise; it reads the block cells that hold a node (densely
    when every one does), and no N^rank array is built.  An instance's
    values are the bytes a call on it alone gives.
    """
    grid = _one_grid(fs)
    idx = normalize_points(points, grid.rank, grid.points_per_axis)
    N, radii = grid.points_per_axis, _dyadic_radii(grid)
    maximals = []
    for block, dim in (("x", grid.m), ("y", grid.n)):
        _, at, centres = _block_reads(_block_keys(grid, idx, block), dim, N)
        stack = np.stack([getattr(f, block) for f in fs], axis=-1)
        maximals.append(_largest_average(_window_sums(stack, dim, radii, centres), len(fs))[at].T)
    return tuple(maximals)


def maximal_fields(f: GridFunction) -> tuple[GridFunction, GridFunction, GridFunction]:
    """Strong maximal M f and the partial maximals M1 f (x-block windows)
    and M2 f (y-block windows) of ``f`` on the whole grid: the pass of
    :func:`node_maximals` at every node, without the slice norms."""
    grid = f.grid
    mf, (_, m1), (_, m2) = _maximal_pass(f, slice(None), slice(None))
    return tuple(GridFunction(grid, field.reshape(grid.shape)) for field in (mf, m1, m2.T))


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
    """Compute the norm of the mixed-norm field G, the outer product of the
    slice norms of M1 f and of M2 f, and its ratio to ||f||^2.

    The full norm of the field equals the product of the full norms of
    the two partial maximal functions (a discrete Fubini identity); the
    ratio to ||f||^2 is then controlled by the one-block maximal bounds
    and stays stable across dilation families.
    """
    p = exps.p
    _, m1, m2 = maximal_fields(f)
    g = np.multiply.outer(slice_lp_norms_x(m1, p), slice_lp_norms_y(m2, p))
    return GNormReport(
        g_norm=lp_norm(GridFunction(f.grid, g), p),
        f_norm=lp_norm(f, p),
        m1_norm=lp_norm(m1, p),
        m2_norm=lp_norm(m2, p),
    )
