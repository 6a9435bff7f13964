"""Convolution against materialized kernels and its four-region split.

The discrete convolution is the index-space sum

    (f * k)[i] = sum_j f[i - j + N/2] k[j] h^rank        (per axis)

with ``f`` extended by zero outside the box.  Relative to the half-cell
shifted evaluation point ``x_i + h/2`` the sampled f-cells sit exactly
at the kernel-grid cell centers, so a power-law kernel is never
evaluated at its singularity; the price is that fixed half-cell offset
between the discrete result and the continuum convolution, immaterial
for norms and scaling fits.

:func:`convolve_fast` zero-pads each axis to 3N/2, the least circular
length that holds the box without wrap-around: the full linear
convolution has 2N-1 entries per axis, of which the box keeps
``[N/2, 3N/2)``, and its top N/2-1 entries wrap onto ``0 .. N/2-2``,
below the box.  Each convolution lives in one zero-padded spectrum: the
last-axis transform of f is written straight into its first N rows, and
the leading axes are transformed in place in ``rfftn``'s order, each over
only the rows that are not all zero.  It transforms each kernel once, the
same way: the padded spectrum is cached on the kernel object, so a sweep
convolving many dilates of f against one kernel pays for one kernel
transform.  The inverse computes only the rows that land in the box, and
its last axis runs a block of rows at a time, straight into the result.
The values are those of the full ``irfftn(rfftn(f) * rfftn(k))``
formula, bit for bit.

Every pass takes a stack: its leading axis runs over the arrays
convolved, and no transform runs along it, so each row is the bytes a
stack of that row alone gives; :func:`convolve_fast` is a stack of one.
The sweeps measure a tensor-product family block by block, convolving
the block factors at all their dilations with the kernel's factor
through :func:`_convolve_block`, one stack of (N,) or (N, N) blocks per
block.

:func:`region_sums` reads the kernel as x-factor times y-factor, so the
four region sums at a node come from one two-sided block contraction of
the node's window with the inner and outer rows of each factor; it
builds those rows for a chunk of nodes at a time, and
:func:`region_split` is its view of one node.  For a tensor product ``a(x) b(y)`` the
contraction factors into an x-block sum and a y-block sum, and
:func:`block_region_sums` reads each from the block factor alone, for a
stack of tensor products at once.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .grid import (GridFunction, ProductGrid, TensorProduct, _one_grid, check_positive,
                   normalize_points)
from .kernel import Exponents, block_factors

__all__ = [
    "RegionBounds",
    "convolve_direct",
    "convolve_fast",
    "region_split",
    "region_sums",
    "block_region_sums",
]


@dataclass(frozen=True)
class RegionBounds:
    """The four partial convolution sums at one point.

    Offsets are classified by (|u| <= r1 versus |u| > r1) times
    (|v| <= r2 versus |v| > r2); boundary offsets go to the closed inner
    region.  The four entries partition the convolution lattice, so
    their total equals the full convolution value at the point.
    """

    t11: float
    t12: float
    t21: float
    t22: float

    @property
    def total(self) -> float:
        return self.t11 + self.t12 + self.t21 + self.t22


def _require_same_grid(f: GridFunction, k: GridFunction) -> None:
    if f.grid != k.grid:
        raise ValueError("operands must live on the same grid")


def convolve_direct(f: GridFunction, k: GridFunction) -> GridFunction:
    """Convolution by direct summation, in a fixed kernel-major order.

    Implemented as a sliding-window contraction over the zero-padded
    samples; intended for modest grids (the work is N^(2 rank)).
    """
    _require_same_grid(f, k)
    grid = f.grid
    N = grid.points_per_axis
    rank = grid.rank
    reverse = (slice(None, None, -1),) * rank
    k_rev = np.ascontiguousarray(k.values[reverse])
    padded = np.pad(f.values, [(N // 2 - 1, N // 2)] * rank)
    windows = np.lib.stride_tricks.sliding_window_view(padded, f.values.shape)
    out = np.empty(grid.shape)
    for i in range(N):  # chunk along the first axis to bound temporaries
        out[i] = np.tensordot(windows[i], k_rev, axes=rank)
    out *= grid.cell_volume
    return GridFunction(grid, out)


# Zero-padded spectrum of each kernel given to convolve_fast.  A
# GridFunction is frozen, holds a read-only array and compares by
# identity, so the kernel object is a sound key; weak keys let an entry
# go with its kernel.
_KERNEL_SPECTRA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# The last-axis inverse runs in this many blocks of leading rows, through
# one line buffer of a block's size.
_INVERSE_BLOCKS = 8


def convolve_fast(f: GridFunction, k: GridFunction) -> GridFunction:
    """Same contract as :func:`convolve_direct` via zero-padded FFT.

    Each axis is padded to ``L = 3N/2``.  Of the 2N-1 entries of the full
    linear convolution per axis the box keeps ``[N/2, 3N/2)``; the top
    N/2-1 entries wrap onto ``0 .. N/2-2``, below the box, and any
    wrapped term of a multi-axis grid is below the box on at least one
    axis, so no periodic wrap-around reaches the box.  At any shorter L
    the last box entry ``3N/2 - 1`` would share its residue mod L with
    the entry ``3N/2 - 1 - L >= 0``.

    The spectrum of f is built in one zero-padded array: the last-axis
    ``rfft`` of f writes straight into its first N rows, and the leading
    axes are transformed in place in ``rfftn``'s order, last to first,
    each over only the rows that are not all zero.  The kernel's spectrum
    is built the same way on the first call with that kernel and reused
    for as long as the kernel object lives.  The product is inverted in
    place one leading axis at a time as ``irfftn`` does, keeping after
    each axis only the N rows of the box; the last-axis ``irfft`` then
    runs on the box rows alone, a block of rows at a time through one
    line buffer, and each block is scaled and clipped straight into the
    result, which the returned field takes without a copy.  Every value
    is the same 1-D transform of the same data as in
    ``irfftn(rfftn(f) * rfftn(k))``, so the result matches that formula
    bit for bit.  Tiny negative rounding residues are clipped to keep
    the result a valid sample field.
    """
    _require_same_grid(f, k)
    grid = f.grid
    N = grid.points_per_axis
    L = 3 * N // 2
    kernel_spectrum = _KERNEL_SPECTRA.get(k)
    if kernel_spectrum is None:
        kernel_spectrum = _KERNEL_SPECTRA[k] = _padded_spectrum(k.values[None], L)
    return GridFunction._adopt(
        grid, _convolved(f.values[None], kernel_spectrum, grid.cell_volume)[0])


def _convolve_block(stack: np.ndarray, kernel: np.ndarray, scale: float) -> np.ndarray:
    """Convolve each row of ``stack``, of shape (R,) + (N,)*dim, with the
    (N,)*dim ``kernel`` as :func:`convolve_fast` convolves a field with
    its kernel, the results scaled by ``scale`` (h^dim for a block of
    dimension dim): the stack of the R convolutions.  The sweeps convolve
    the block factors of a tensor-product family at all their dilations
    with the kernel's this way, one call per block, at dim 1 or 2.  Each
    row is the bytes a stack of that row alone gives: no transform runs
    along the stack axis."""
    return _convolved(stack, _padded_spectrum(kernel[None], 3 * len(kernel) // 2), scale)


def _convolved(stack: np.ndarray, kernel_spectrum: np.ndarray, scale: float) -> np.ndarray:
    """The box of the padded convolution of each row of ``stack`` with the
    kernel whose padded spectrum (a stack of one) is given, times
    ``scale`` and clipped at 0, as a fresh stack; the products are formed
    in place in the spectrum of ``stack``."""
    N = stack.shape[1]
    spectrum = _padded_spectrum(stack, 3 * N // 2)
    spectrum *= kernel_spectrum
    return _box_inverse(spectrum, N, scale)


def _rows(a: np.ndarray) -> np.ndarray:
    """The stack ``a`` as rows for a line pass over its last axis, taken in
    blocks along their first axis: the rows of the stack, or for a stack of
    one the rows along the first axis of its one entry (a 1-d entry is one
    row of its own)."""
    return a if len(a) > 1 or a.ndim == 2 else a[0]


def _padded_spectrum(stack: np.ndarray, L: int) -> np.ndarray:
    """``np.fft.rfftn(row, (L,) * rank)`` of each (N,)*rank row of
    ``stack``, bit for bit, without numpy's padded copies: a stack of
    spectra, with no transform along the stack axis.  Before the pass
    over a leading axis only the first N rows of the axes ahead of it
    hold data; the rows it skips are lines of zeros, whose transform is
    zero up to the sign of zero, and no nonzero value depends on that
    sign."""
    N, rank = stack.shape[1], stack.ndim - 1
    spectrum = np.zeros((len(stack),) + (L,) * (rank - 1) + (L // 2 + 1,), dtype=np.complex128)
    np.fft.rfft(stack, L, axis=-1, out=spectrum[(slice(None),) + (slice(N),) * (rank - 1)])
    for axis in reversed(range(1, rank)):
        lines = spectrum[(slice(None),) + (slice(N),) * (axis - 1)]
        np.fft.fft(lines, axis=axis, out=lines)
    return spectrum


def _box_inverse(spectrum: np.ndarray, N: int, scale: float) -> np.ndarray:
    """The box ``[N/2, 3N/2)`` of ``irfftn(row)`` per axis of each row of
    the stack ``spectrum``, times ``scale`` and clipped at 0, as a fresh
    stack of (N,)*rank arrays; the leading axes of each row are inverted
    in place in ``spectrum``."""
    rank, L = spectrum.ndim - 1, 3 * N // 2
    box = slice(N // 2, N // 2 + N)
    for axis in range(1, rank):
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
        spectrum = spectrum[(slice(None),) * axis + (box,)]
    out = np.empty((len(spectrum),) + (N,) * rank)
    box_rows, spectrum = _rows(out), _rows(spectrum)
    rows = -(-len(box_rows) // _INVERSE_BLOCKS)
    lines = np.empty((rows,) + box_rows.shape[1:-1] + (L,))
    for row in range(0, len(box_rows), rows):
        block = box_rows[row:row + rows]
        buffer = lines[:len(block)]
        np.fft.irfft(spectrum[row:row + len(block)], L, axis=-1, out=buffer)
        np.multiply(buffer[..., box], scale, out=block)
        np.maximum(block, 0.0, out=block)
    return out


# values per chunk of one block's factor rows in region_sums
_BLOCK_CHUNK = 1 << 16


def region_sums(f: GridFunction, exps: Exponents, points, r1, r2) -> np.ndarray:
    """Split the convolution sum at each node of ``points`` (one
    multi-index per row) by that node's radii ``r1[k]``, ``r2[k]``: an
    array of shape (K, 4) whose columns are t11, t12, t21, t22.

    The kernel is the product of an x-factor and a y-factor (from
    :func:`~prodhls.kernel.block_factors`), so each region sum is a
    bilinear form: the x-factor on the region's x-offsets, the node's
    window, and the y-factor on its y-offsets.  All four come from one
    two-sided block contraction

        t = Kx (2 x X) @ window (X x Y) @ Ky^T (Y x 2) * h^rank

    whose rows of Kx (columns of Ky^T) are the factor on the inner
    offsets ``|x| <= r1`` (``|y| <= r2``) and on the outer ones, so
    ``t[0, 0], t[0, 1], t[1, 0], t[1, 1]`` are t11, t12, t21, t22.  The
    inner and outer factor rows are built for a chunk of nodes at a time,
    at most 2^16 values of each block's rows; the contraction runs node
    by node.  The window ``f[i - j + N/2]`` is read only over the run of
    offsets j whose samples land in the box, so a radius beyond the box
    only puts every offset in the inner region.
    The two products are einsum passes that call no BLAS routine, so the
    BLAS thread count cannot change the sums.
    """
    grid = f.grid
    N = grid.points_per_axis
    idx, r1, r2 = _nodes_and_radii(grid, points, r1, r2)
    x_norm, y_norm, x_factor, y_factor = block_factors(grid, exps)

    def factor_rows(norm, factor, r, dim):
        # each node's factor on the inner offsets (row 0) and on the outer ones
        rows = np.empty((len(r), 2, norm.size))
        np.multiply(norm <= r[:, None], factor, out=rows[:, 0])
        np.subtract(factor, rows[:, 0], out=rows[:, 1])
        return rows.reshape((len(r), 2) + (N,) * dim)

    reverse = (slice(None, None, -1),) * grid.rank
    # per axis the offsets j and the sample indices i - j + N/2 that land in
    # the box span the same run, traversed in opposite directions
    starts = np.maximum(idx - N // 2 + 1, 0).tolist()
    stops = np.minimum(idx + N // 2 + 1, N).tolist()
    sums = np.empty((len(idx), 2, 2))
    step = max(_BLOCK_CHUNK // (2 * N ** max(grid.m, grid.n)), 1)
    for first in range(0, len(idx), step):
        chunk = slice(first, first + step)
        x_rows = factor_rows(x_norm, x_factor, r1[chunk], grid.m)
        y_rows = factor_rows(y_norm, y_factor, r2[chunk], grid.n)
        for k, (start, stop) in enumerate(zip(starts[chunk], stops[chunk])):
            run = tuple(map(slice, start, stop))
            window = f.values[run][reverse]
            kx = np.ascontiguousarray(x_rows[(k, slice(None)) + run[:grid.m]]).reshape(2, -1)
            ky = np.ascontiguousarray(y_rows[(k, slice(None)) + run[grid.m:]]).reshape(2, -1)
            # einsum, not matmul: the first BLAS call of a process maps about
            # 0.4 MB of buffers, a measured rise in the pointwise runs' peak
            # RSS.  The reshape copies the reversed window, and the copy
            # stays: it gives each einsum a contiguous inner loop.  Read in
            # place with one subscript per axis, the same bytes came up to
            # 14% slower at the 2-d ranks (9% faster at rank (1,1))
            rows = np.einsum("ax,xy->ay", kx, window.reshape(kx.shape[1], ky.shape[1]))
            sums[first + k] = np.einsum("ay,by->ab", rows, ky)
    return sums.reshape(len(idx), 4) * grid.cell_volume


def _nodes_and_radii(grid, points, r1, r2, rows=None):
    """The validated nodes and their radii as float64 arrays, one per node,
    or given ``rows``, that many rows of one per node."""
    idx = normalize_points(points, grid.rank, grid.points_per_axis)
    r1, r2 = np.asarray(r1, dtype=np.float64), np.asarray(r2, dtype=np.float64)
    shape = idx.shape[:1] if rows is None else (rows, len(idx))
    if r1.shape != r2.shape or r1.shape != shape:
        per_row = "" if rows is None else f" in each of {rows} rows"
        raise ValueError(f"{len(idx)} points need as many radii{per_row}, got shapes "
                         f"{r1.shape} and {r2.shape}")
    check_positive(r1=r1, r2=r2)
    return idx, r1, r2


@functools.lru_cache(maxsize=8)
def _shell_order(grid: ProductGrid, exps: Exponents) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per block (x, then y): the kernel-offset norms in ascending order,
    the kernel factor in that order, and for each offset j in that order
    the flat index of ``N - j`` in an array of shape (2N,)*dim; built once
    per (grid, exponents) pair, read-only."""
    N = grid.points_per_axis
    x_norm, y_norm, x_factor, y_factor = block_factors(grid, exps)
    blocks = []
    for dim, norm, factor in ((grid.m, x_norm, x_factor), (grid.n, y_norm, y_factor)):
        order = np.argsort(norm, kind="stable")
        offsets = np.ravel_multi_index(tuple(N - np.indices((N,) * dim).reshape(dim, -1)),
                                       (2 * N,) * dim)[order]
        arrays = (norm[order], factor[order], offsets)
        for a in arrays:
            a.setflags(write=False)
        blocks.append(arrays)
    return tuple(blocks)


def block_region_sums(fs: list[TensorProduct], exps: Exponents, points, r1, r2
                      ) -> np.ndarray:
    """:func:`region_sums` of each tensor product ``f(x, y) = a(x) b(y)`` of
    ``fs``, all on one grid, at the same nodes ``points``, read from their
    block arrays: ``r1`` and ``r2`` hold one row of radii per instance, and
    the result has shape (R, K, 4), columns t11, t12, t21, t22.

    The kernel is the product ``k_x (x) k_y`` of its block factors, and a
    node's window of f is the product of its windows of a and of b, so
    the two-sided contraction of :func:`region_sums` factors::

        t = (Kx @ a-window) (Ky @ b-window)^T * h^rank        (2 x 2)

    with the same inner and outer factor rows ``Kx`` and ``Ky``.  A block
    sum depends on the node only through its block cell and its radius,
    so each block of each instance is contracted once per block cell that
    holds a node: the window times the kernel factor, with the offsets in
    ascending norm, is summed from each end by one ``np.cumsum``, and a
    node reads its inner sum (offsets of norm at most its radius) from the
    first and its outer sum from the second.  Both are sums of nonnegative
    terms, with no cancellation.  The (instance, cell) pairs of a block go
    in chunks whose windows hold at most 2^14 values; no N^rank array is
    built.  An instance's sums are the bytes a call on it alone gives.
    """
    grid = _one_grid(fs)
    idx, r1, r2 = _nodes_and_radii(grid, points, r1, r2, rows=len(fs))
    x_layout, y_layout = _shell_order(grid, exps)
    u = _block_sums(np.stack([f.x for f in fs]), x_layout, idx[:, :grid.m], r1)
    v = _block_sums(np.stack([f.y for f in fs]), y_layout, idx[:, grid.m:], r2)
    return (u[..., None] * v[..., None, :]).reshape(len(fs), len(idx), 4) * grid.cell_volume


# window values per chunk of block_region_sums' (instance, cell) pairs
_PAIR_CHUNK = 1 << 14


def _block_sums(stack: np.ndarray, layout, nodes: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Each node's block sums of the kernel factor against its window
    ``values[i - j + N/2]`` (zero outside the box) of each block array
    ``values`` of ``stack``, over the offsets j of norm at most ``r[row,
    k]`` (column 0) and over the others (column 1): shape (R, K, 2)."""
    norm, factor, offsets = layout
    R, N, dim = len(stack), stack.shape[1], stack.ndim - 1
    size, padded_size = N ** dim, (2 * N) ** dim
    keys = np.ravel_multi_index(tuple(nodes.T), (N,) * dim)
    held = np.zeros(size, dtype=bool)
    held[keys] = True
    cells = np.flatnonzero(held)
    # pair p is (row p // C, cell p % C), the C cells of each row in turn;
    # node k of a row reads the pair of its cell
    C = len(cells)
    at = np.arange(R)[:, None] * C + np.searchsorted(cells, keys)
    inner = np.searchsorted(norm, r, side="right")
    # padded by N/2 cells per side, values[i - j + N/2] is padded[i + N - j];
    # each pair's window starts at its cell in its row's padded array
    starts = np.ravel_multi_index(np.unravel_index(cells, (N,) * dim), (2 * N,) * dim)
    starts = (np.arange(R)[:, None] * padded_size + starts).reshape(-1)
    box = (slice(None),) + (slice(N // 2, N // 2 + N),) * dim
    sums = np.empty((R, len(keys), 2))
    step = max(_PAIR_CHUNK // size, 1)
    # the partial sums of each pair's terms from the first offset (row 0)
    # and from the last (row 1), each after a 0.0
    ends = np.zeros((2, min(step, len(starts)), size + 1))
    for start in range(0, len(starts), step):
        stop = min(start + step, len(starts))
        # the rows the chunk reads, padded
        first, last = start // C, -(-stop // C)
        padded = np.zeros((last - first,) + (2 * N,) * dim)
        padded[box] = stack[first:last]
        terms = padded.reshape(-1)[starts[start:stop, None] - first * padded_size + offsets]
        del padded
        terms *= factor
        count = len(terms)
        np.cumsum(terms, axis=1, out=ends[0, :count, 1:])
        np.cumsum(terms[:, ::-1], axis=1, out=ends[1, :count, 1:])
        mine = (at >= start) & (at < stop)
        pair, k = at[mine] - start, inner[mine]
        sums[mine, 0], sums[mine, 1] = ends[0, pair, k], ends[1, pair, size - k]
    return sums


def region_split(f: GridFunction, exps: Exponents, point, r1: float,
                 r2: float) -> RegionBounds:
    """Split the convolution sum at ``point`` by the radii (r1, r2): the
    one-node view of :func:`region_sums`."""
    t11, t12, t21, t22 = region_sums(f, exps, [point], [r1], [r2])[0].tolist()
    return RegionBounds(t11=t11, t12=t12, t21=t21, t22=t22)
