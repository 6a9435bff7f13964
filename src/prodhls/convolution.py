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

from .grid import GridFunction, check_positive, normalize_points
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
        kernel_spectrum = _KERNEL_SPECTRA[k] = _padded_spectrum(k.values, L)
    spectrum = _padded_spectrum(f.values, L)
    spectrum *= kernel_spectrum
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
    np.fft.rfft(values, L, axis=-1, out=spectrum[(slice(N),) * (rank - 1)])
    for axis in reversed(range(rank - 1)):
        lines = spectrum[(slice(N),) * axis]
        np.fft.fft(lines, axis=axis, out=lines)
    return spectrum


def _box_inverse(spectrum: np.ndarray, N: int, scale: float) -> np.ndarray:
    """The box ``[N/2, 3N/2)`` of ``irfftn(spectrum)`` per axis, times
    ``scale`` and clipped at 0, as a fresh (N,)*rank array; the leading
    axes are inverted in place in ``spectrum``."""
    rank, L = spectrum.ndim, spectrum.shape[0]
    box = slice(N // 2, N // 2 + N)
    for axis in range(rank - 1):
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
        spectrum = spectrum[(slice(None),) * axis + (box,)]
    out = np.empty((N,) * rank)
    rows = -(-N // _INVERSE_BLOCKS)
    lines = np.empty((rows,) + (N,) * (rank - 2) + (L,))
    for start in range(0, N, rows):
        block = out[start:start + rows]
        buffer = lines[:len(block)]
        np.fft.irfft(spectrum[start:start + rows], L, axis=-1, out=buffer)
        np.multiply(buffer[..., box], scale, out=block)
        np.maximum(block, 0.0, out=block)
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
