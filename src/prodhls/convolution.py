"""Convolution against materialized kernels and its four-region split.

The discrete convolution is the index-space sum

    (f * k)[i] = sum_j f[i - j + N/2] k[j] h^rank        (per axis)

with ``f`` extended by zero outside the box.  Relative to the half-cell
shifted evaluation point ``x_i + h/2`` the sampled f-cells sit exactly
at the kernel-grid cell centers, so a power-law kernel is never
evaluated at its singularity; the price is that fixed half-cell offset
between the discrete result and the continuum convolution, immaterial
for norms and scaling fits.

:func:`convolve_fast` transforms each kernel once: its zero-padded
spectrum is cached on the kernel object, so a sweep convolving many
dilates of f against one kernel pays for one kernel transform.  The
inverse transform computes only the rows that land in the box.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, check_positive, normalize_point
from .kernel import Exponents, check_blocks

__all__ = [
    "RegionBounds",
    "convolve_direct",
    "convolve_fast",
    "region_split",
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


def convolve_fast(f: GridFunction, k: GridFunction) -> GridFunction:
    """Same contract as :func:`convolve_direct` via zero-padded FFT.

    Each axis is padded to 2N, which covers the 2N-1 full linear
    convolution, so no periodic wrap-around contaminates the box.  The
    kernel's spectrum is computed on the first call with that kernel and
    reused for as long as the kernel object lives.  The spectrum of f is
    multiplied and inverted in place, one axis at a time as ``irfftn``
    does, keeping after each leading axis only the N rows of the box, so
    the last-axis ``irfft`` runs on the box rows alone; every kept value
    is computed exactly as by the full inverse.  Tiny negative rounding
    residues are clipped to keep the result a valid sample field.
    """
    _require_same_grid(f, k)
    grid = f.grid
    N = grid.points_per_axis
    axes = tuple(range(grid.rank))
    shape = (2 * N,) * grid.rank
    kernel_spectrum = _KERNEL_SPECTRA.get(k)
    if kernel_spectrum is None:
        kernel_spectrum = _KERNEL_SPECTRA[k] = np.fft.rfftn(k.values, shape, axes=axes)
    spectrum = np.fft.rfftn(f.values, shape, axes=axes)
    spectrum *= kernel_spectrum
    box = slice(N // 2, N // 2 + N)
    for axis in axes[:-1]:
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
        spectrum = spectrum[(slice(None),) * axis + (box,)]
    out = np.fft.irfft(spectrum, 2 * N, axis=-1)[..., box] * grid.cell_volume
    return GridFunction(grid, np.maximum(out, 0.0, out=out))


def region_split(f: GridFunction, exps: Exponents, point, r1: float,
                 r2: float) -> RegionBounds:
    """Split the convolution sum at ``point`` by the radii (r1, r2).

    The kernel factor is evaluated analytically per offset (not read
    from a materialized kernel grid), so radii larger than the box stay
    meaningful.  Summation order within each region is row-major.
    """
    check_positive(r1=r1, r2=r2)
    grid = f.grid
    check_blocks(grid, exps)
    N = grid.points_per_axis
    idx = normalize_point(point, grid.rank, N)

    # f[i - j + N/2] per axis, with zero extension outside the box
    gather_axes = []
    valid_axes = []
    for p_i in idx:
        t = p_i - np.arange(N) + N // 2
        valid_axes.append((t >= 0) & (t < N))
        gather_axes.append(np.clip(t, 0, N - 1))
    gathered = f.values[np.ix_(*gather_axes)].astype(np.float64)
    for axis, valid in enumerate(valid_axes):
        shape = [1] * grid.rank
        shape[axis] = N
        gathered = gathered * valid.reshape(shape)

    x_norm = grid.x_norms().reshape(-1)
    y_norm = grid.y_norms().reshape(-1)
    weights = (gathered.reshape(x_norm.size, y_norm.size)
               * (x_norm ** (exps.alpha - exps.m))[:, None]
               * (y_norm ** (exps.beta - exps.n))[None, :]
               * grid.cell_volume)

    in_x = x_norm <= r1
    in_y = y_norm <= r2
    out_x = ~in_x
    out_y = ~in_y
    return RegionBounds(
        t11=float(weights[np.ix_(in_x, in_y)].sum()),
        t12=float(weights[np.ix_(in_x, out_y)].sum()),
        t21=float(weights[np.ix_(out_x, in_y)].sum()),
        t22=float(weights[np.ix_(out_x, out_y)].sum()),
    )
