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

Each of the four line passes (the forward last-axis ``rfft`` and
leading-axis ``fft``, the inverse leading-axis ``ifft`` and row-block
``irfft``) and the spectrum product run in one contiguous piece per CPU
through :func:`prodhls.grid._split`, cut along the outermost axis that
the pass does not transform: the leading rows, or the second axis for a
pass over axis 0 (the last axis at rank 2).  A line or element is the
same numpy call on the same data whichever piece holds it, so the bytes
do not depend on the CPU count.  A spectrum of fewer than 2^17 elements
runs in one piece in the calling thread.  The floor comes from this
crossover: split over serial time of one call on a shared 2-vCPU host,
the range of three runs, each the median of 20 or 40 pairs alternating
in one process; ``lp_norm`` (p = 4/3, split the same way) on the same
grid in the last two columns:

    (m, n) N     spectrum  convolve_fast    cells   lp_norm
    (1, 1) 128      18624  1.59 - 2.44      16384  1.34 - 1.94
    (1, 1) 256      74112  0.85 - 1.20      65536  0.88 - 1.10
    (1, 1) 384     166464  0.65 - 0.82     147456  0.75 - 0.90
    (1, 1) 512     295680  0.59            262144  0.73 - 0.88
    (1, 1) 1024   1181184  0.55 - 0.62    1048576  0.63 - 0.73
    (2, 1) 32       57600  1.56 - 1.91      32768  1.14 - 1.41
    (2, 1) 48      191808  0.76 - 0.95     110592  0.80 - 0.82
    (2, 1) 64      451584  0.57 - 0.66     262144  0.66 - 0.77
    (2, 2) 16      179712  0.73 - 0.92      65536  0.77 - 0.95
    (2, 2) 24      886464  0.59 - 0.77     331776  0.70 - 0.84

The floor counts spectrum elements for a convolution and cells for a
norm.  It splits every entry from 147456 up, each faster split, and none
at 74112 or below, where a split can be slower; the 110592-cell norm
stays in one piece.  It keeps the N = 128 ``normcheck`` sweep and the
pointwise campaigns' norms (32^3 and 16^4 cells) in one piece, so they
start no thread.

:func:`region_sums` reads the kernel as x-factor times y-factor, so the
four region sums at a node come from one two-sided block contraction of
the node's window with the inner and outer rows of each factor; it
builds those rows for all its nodes at once, and :func:`region_split` is
its view of one node.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, _split, check_positive, normalize_points
from .kernel import Exponents, block_factors

__all__ = [
    "RegionBounds",
    "convolve_direct",
    "convolve_fast",
    "region_split",
    "region_sums",
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
# one line buffer of a block's size; split, each piece takes its share of
# the buffer's rows and of the box rows, and runs in as many blocks.
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

    From a spectrum of 2^17 elements up, each line pass and the product
    run in one piece per CPU, cut along an axis the pass does not
    transform; the pieces of the last-axis inverse share the one line
    buffer.  Each line and element is computed as in one piece, so the
    bytes are the same on any number of CPUs.
    """
    _require_same_grid(f, k)
    grid = f.grid
    N = grid.points_per_axis
    L = 3 * N // 2
    kernel_spectrum = _KERNEL_SPECTRA.get(k)
    if kernel_spectrum is None:
        kernel_spectrum = _KERNEL_SPECTRA[k] = _padded_spectrum(k.values, L)
    spectrum = _padded_spectrum(f.values, L)
    _split(lambda start, stop: np.multiply(spectrum[start:stop], kernel_spectrum[start:stop],
                                           out=spectrum[start:stop]),
           L, spectrum.size)
    return GridFunction._adopt(grid, _box_inverse(spectrum, N, grid.cell_volume))


def _padded_spectrum(values: np.ndarray, L: int) -> np.ndarray:
    """``np.fft.rfftn(values, (L,) * values.ndim)`` of an (N,)*rank
    array, bit for bit, without numpy's padded copies.  Before the pass
    over a leading axis only the first N rows of the axes ahead of it
    hold data; the rows it skips are lines of zeros, whose transform is
    zero up to the sign of zero, and no nonzero value depends on that
    sign."""
    N, rank = values.shape[0], values.ndim
    spectrum = np.zeros((L,) * (rank - 1) + (L // 2 + 1,), dtype=np.complex128)
    head = spectrum[(slice(N),) * (rank - 1)]
    _split(lambda start, stop: np.fft.rfft(values[start:stop], L, axis=-1,
                                           out=head[start:stop]),
           N, spectrum.size)
    for axis in reversed(range(rank - 1)):
        _transform_lines(np.fft.fft, spectrum[(slice(N),) * axis], axis, spectrum.size)
    return spectrum


def _transform_lines(transform, lines: np.ndarray, axis: int, size: int) -> None:
    """``transform(lines, axis=axis, out=lines)``, split along the
    outermost axis that it does not transform."""
    outer = 1 if axis == 0 else 0
    lead = (slice(None),) * outer

    def piece(start, stop):
        part = lines[lead + (slice(start, stop),)]
        transform(part, axis=axis, out=part)

    _split(piece, lines.shape[outer], size)


def _box_inverse(spectrum: np.ndarray, N: int, scale: float) -> np.ndarray:
    """The box ``[N/2, 3N/2)`` of ``irfftn(spectrum)`` per axis, times
    ``scale`` and clipped at 0, as a fresh (N,)*rank array; the leading
    axes are inverted in place in ``spectrum``."""
    rank, L = spectrum.ndim, spectrum.shape[0]
    box = slice(N // 2, N // 2 + N)
    size = spectrum.size
    for axis in range(rank - 1):
        _transform_lines(np.fft.ifft, spectrum, axis, size)
        spectrum = spectrum[(slice(None),) * axis + (box,)]
    out = np.empty((N,) * rank)
    rows = -(-N // _INVERSE_BLOCKS)
    lines = np.empty((rows,) + (N,) * (rank - 2) + (L,))

    def inverse_rows(start, stop):
        # the buffer's rows [start, stop) carry the box rows [first, last),
        # that many at a time
        first, last = start * N // rows, stop * N // rows
        for row in range(first, last, stop - start):
            block = out[row:min(row + stop - start, last)]
            buffer = lines[start:start + len(block)]
            np.fft.irfft(spectrum[row:row + len(block)], L, axis=-1, out=buffer)
            np.multiply(buffer[..., box], scale, out=block)
            np.maximum(block, 0.0, out=block)

    _split(inverse_rows, rows, size)
    return out


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
    inner and outer factor rows of every node are built at once; the
    contraction runs node by node.  The window ``f[i - j + N/2]`` is read
    only over the run of offsets j whose samples land in the box, so a
    radius beyond the box only puts every offset in the inner region.
    The two products are einsum passes that call no BLAS routine, so the
    BLAS thread count cannot change the sums.
    """
    grid = f.grid
    N = grid.points_per_axis
    idx = normalize_points(points, grid.rank, N)
    r1, r2 = np.asarray(r1, dtype=np.float64), np.asarray(r2, dtype=np.float64)
    if r1.shape != r2.shape or r1.shape != idx.shape[:1]:
        raise ValueError(f"{len(idx)} points need as many radii, got shapes {r1.shape} "
                         f"and {r2.shape}")
    check_positive(r1=r1, r2=r2)
    x_norm, y_norm, x_factor, y_factor = block_factors(grid, exps)

    def factor_rows(norm, factor, r, dim):
        # each node's factor on the inner offsets (row 0) and on the outer ones
        rows = np.empty((len(r), 2, norm.size))
        np.multiply(norm <= r[:, None], factor, out=rows[:, 0])
        np.subtract(factor, rows[:, 0], out=rows[:, 1])
        return rows.reshape((len(r), 2) + (N,) * dim)

    x_rows = factor_rows(x_norm, x_factor, r1, grid.m)
    y_rows = factor_rows(y_norm, y_factor, r2, grid.n)
    reverse = (slice(None, None, -1),) * grid.rank
    # per axis the offsets j and the sample indices i - j + N/2 that land in
    # the box span the same run, traversed in opposite directions
    starts = np.maximum(idx - N // 2 + 1, 0).tolist()
    stops = np.minimum(idx + N // 2 + 1, N).tolist()
    sums = []
    for k, (start, stop) in enumerate(zip(starts, stops)):
        run = tuple(map(slice, start, stop))
        window = f.values[run][reverse]
        kx = np.ascontiguousarray(x_rows[(k, slice(None)) + run[:grid.m]]).reshape(2, -1)
        ky = np.ascontiguousarray(y_rows[(k, slice(None)) + run[grid.m:]]).reshape(2, -1)
        # einsum, not matmul: the first BLAS call of a process maps about 0.4 MB
        # of buffers, a measured rise in the pointwise runs' peak RSS
        rows = np.einsum("ax,xy->ay", kx, window.reshape(kx.shape[1], ky.shape[1]))
        sums.append(np.einsum("ay,by->ab", rows, ky))
    return np.array(sums).reshape(len(idx), 4) * grid.cell_volume


def region_split(f: GridFunction, exps: Exponents, point, r1: float,
                 r2: float) -> RegionBounds:
    """Split the convolution sum at ``point`` by the radii (r1, r2): the
    one-node view of :func:`region_sums`."""
    t11, t12, t21, t22 = region_sums(f, exps, [point], [r1], [r2])[0].tolist()
    return RegionBounds(t11=t11, t12=t12, t21=t21, t22=t22)
