"""Convolution contracts: delta identity, oracles, fast path, region split."""

import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodhls import (Exponents, GridFunction, ProductGrid, convolve_direct,
                     convolve_fast, region_split, riesz_kernel, sample_function)
from prodhls import convolution

STD = Exponents.from_balance(1, 1, 0.5, 0.5, 4 / 3)


def grid_1x1(N=16, L=1.0):
    return ProductGrid(m=1, n=1, half_width=L, points_per_axis=N)


def random_function(grid, seed=0, low=0.0):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.uniform(low, 1.0, size=grid.shape))


def loop_convolve(f, k):
    """Quadruple-loop reference: out[i,j] = sum f[i-a+N/2, j-b+N/2] k[a,b] h^2."""
    g = f.grid
    N = g.points_per_axis
    out = np.zeros(g.shape)
    for i in range(N):
        for j in range(N):
            acc = 0.0
            for a in range(N):
                for b in range(N):
                    ii = i - a + N // 2
                    jj = j - b + N // 2
                    if 0 <= ii < N and 0 <= jj < N:
                        acc += f.values[ii, jj] * k.values[a, b]
            out[i, j] = acc * g.cell_volume
    return out


# ------------------------------------------------------------ convolve_direct

def test_spike_recovers_translated_kernel():
    g = grid_1x1(N=16)
    N = 16
    spike_cell = (5, 9)
    vals = np.zeros(g.shape)
    vals[spike_cell] = 1.0 / g.cell_volume  # unit mass
    f = GridFunction(g, vals)
    k = riesz_kernel(g, STD)
    out = convolve_direct(f, k)
    expected = np.zeros(g.shape)
    for i in range(N):
        for j in range(N):
            ii, jj = i - spike_cell[0] + N // 2, j - spike_cell[1] + N // 2
            if 0 <= ii < N and 0 <= jj < N:
                expected[i, j] = k.values[ii, jj]
    assert np.max(np.abs(out.values - expected)) <= 1e-12


def test_linearity():
    g = grid_1x1(N=12)
    f1 = random_function(g, seed=1)
    f2 = random_function(g, seed=2)
    k = random_function(g, seed=3)
    a, b = 0.7, 2.5
    combo = GridFunction(g, a * f1.values + b * f2.values)
    lhs = convolve_direct(combo, k).values
    rhs = a * convolve_direct(f1, k).values + b * convolve_direct(f2, k).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_direct_matches_loop_oracle():
    g = grid_1x1(N=8)
    f = random_function(g, seed=4)
    k = random_function(g, seed=5)
    expected = loop_convolve(f, k)
    out = convolve_direct(f, k).values
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(expected)


def test_direct_matches_loop_oracle_singular_kernel():
    g = grid_1x1(N=8)
    f = random_function(g, seed=6)
    k = riesz_kernel(g, STD)
    expected = loop_convolve(f, k)
    out = convolve_direct(f, k).values
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(expected)


def test_grid_mismatch_rejected():
    f = random_function(grid_1x1(N=8))
    k = random_function(grid_1x1(N=16))
    with pytest.raises(ValueError):
        convolve_direct(f, k)
    with pytest.raises(ValueError):
        convolve_fast(f, k)


# ------------------------------------------------------------ convolve_fast

def test_fast_zero_kernel():
    g = grid_1x1(N=16)
    f = random_function(g, seed=7)
    k = GridFunction(g, np.zeros(g.shape))
    assert np.all(convolve_fast(f, k).values == 0.0)


def test_fast_matches_direct_random():
    # the inverse slices each leading axis in turn, so every block layout
    # of the axes is its own case
    for m, n, N in [(1, 1, 32), (2, 1, 8), (1, 2, 8), (2, 2, 8)]:
        g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
        f = random_function(g, seed=8)
        k = riesz_kernel(g, Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3))
        d = convolve_direct(f, k).values
        fa = convolve_fast(f, k).values
        assert np.max(np.abs(d - fa)) <= 1e-10 * np.max(np.abs(d)), (m, n)


def three_transform_convolve(f, k):
    """The padded-FFT formula with full forward and inverse transforms."""
    g = f.grid
    N = g.points_per_axis
    axes = tuple(range(g.rank))
    shape = (2 * N,) * g.rank
    spectrum = (np.fft.rfftn(f.values, shape, axes=axes)
                * np.fft.rfftn(k.values, shape, axes=axes))
    full = np.fft.irfftn(spectrum, shape, axes=axes)
    out = full[(slice(N // 2, N // 2 + N),) * g.rank] * g.cell_volume
    return np.maximum(out, 0.0)


@pytest.mark.parametrize("m, n, N", [(1, 1, 32), (2, 1, 8), (1, 2, 8), (2, 2, 8)])
def test_fast_bytes_match_three_transform_formula(m, n, N):
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    k = riesz_kernel(g, Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3))
    # the first input fills the kernel's cached spectrum, the others read it
    inputs = {
        "random": random_function(g, seed=10),
        "gaussian": sample_function(g, lambda *cs: np.exp(-sum(c ** 2 for c in cs) / 0.1)),
        "box": sample_function(g, lambda *cs: (sum(c ** 2 for c in cs) <= 0.25) * 1.0),
        "zero": GridFunction(g, np.zeros(g.shape)),
    }
    for name, f in inputs.items():
        out = convolve_fast(f, k).values
        assert out.tobytes() == three_transform_convolve(f, k).tobytes(), name


def test_kernel_spectrum_cache_lets_the_kernel_go():
    gc.collect()
    before = len(convolution._KERNEL_SPECTRA)
    g = grid_1x1(N=16)
    k = riesz_kernel(g, STD)
    convolve_fast(random_function(g), k)
    assert k in convolution._KERNEL_SPECTRA
    del k
    gc.collect()
    assert len(convolution._KERNEL_SPECTRA) == before == 0


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 2)])
def test_fast_emits_no_warning(m, n):
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=8)
    f = random_function(g, seed=9)
    k = riesz_kernel(g, Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        convolve_fast(f, k)


def test_fast_spike_identity():
    g = grid_1x1(N=16)
    vals = np.zeros(g.shape)
    vals[8, 8] = 1.0 / g.cell_volume
    f = GridFunction(g, vals)
    k = riesz_kernel(g, STD)
    d = convolve_direct(f, k).values
    fa = convolve_fast(f, k).values
    assert np.max(np.abs(d - fa)) <= 1e-10 * np.max(np.abs(d))


def test_direct_rank3_small():
    # an m=2 block exercises the multi-axis window path
    g = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=4)
    rng = np.random.default_rng(9)
    f = GridFunction(g, rng.uniform(0, 1, g.shape))
    k = GridFunction(g, rng.uniform(0, 1, g.shape))
    d = convolve_direct(f, k).values
    fa = convolve_fast(f, k).values
    N = 4
    # spot-check one output entry against an explicit six-fold loop
    i = (2, 1, 3)
    acc = 0.0
    for a in range(N):
        for b in range(N):
            for c in range(N):
                ii, jj, kk = i[0] - a + 2, i[1] - b + 2, i[2] - c + 2
                if 0 <= ii < N and 0 <= jj < N and 0 <= kk < N:
                    acc += f.values[ii, jj, kk] * k.values[a, b, c]
    acc *= g.cell_volume
    assert d[i] == pytest.approx(acc, rel=1e-12)
    assert np.max(np.abs(d - fa)) <= 1e-10 * np.max(np.abs(d))


# ------------------------------------------------------------ region_split

def test_region_split_all_inside():
    g = grid_1x1(N=16)
    f = random_function(g, seed=10)
    pt = (7, 9)
    rb = region_split(f, STD, pt, 10.0, 10.0)  # radii beyond the box diameter
    full = convolve_direct(f, riesz_kernel(g, STD)).values[pt]
    assert rb.t12 == rb.t21 == rb.t22 == 0.0
    assert rb.t11 == pytest.approx(full, rel=1e-12)


def test_region_split_all_outside():
    g = grid_1x1(N=16)
    f = random_function(g, seed=11)
    pt = (3, 4)
    tiny = g.spacing / 4  # below the smallest offset norm h/2
    rb = region_split(f, STD, pt, tiny, tiny)
    full = convolve_direct(f, riesz_kernel(g, STD)).values[pt]
    assert rb.t11 == rb.t12 == rb.t21 == 0.0
    assert rb.t22 == pytest.approx(full, rel=1e-12)


def test_region_split_partition_identity():
    g = grid_1x1(N=16)
    f = random_function(g, seed=12)
    conv = convolve_direct(f, riesz_kernel(g, STD)).values
    rng = np.random.default_rng(13)
    for _ in range(50):
        pt = tuple(rng.integers(0, 16, 2))
        r1, r2 = rng.uniform(0.01, 3.0, 2)
        rb = region_split(f, STD, pt, r1, r2)
        assert rb.total == pytest.approx(conv[pt], rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(r1=st.floats(min_value=1e-3, max_value=4.0),
       r2=st.floats(min_value=1e-3, max_value=4.0),
       i=st.integers(min_value=0, max_value=11),
       j=st.integers(min_value=0, max_value=11))
def test_region_split_partition_property(r1, r2, i, j):
    g = grid_1x1(N=12)
    f = random_function(g, seed=14)
    conv = convolve_direct(f, riesz_kernel(g, STD)).values
    rb = region_split(f, STD, (i, j), r1, r2)
    assert rb.total == pytest.approx(conv[i, j], rel=1e-12)


def test_region_split_monotonicity():
    g = grid_1x1(N=16)
    f = random_function(g, seed=15)
    pt = (8, 8)
    radii = [0.05, 0.2, 0.5, 1.0, 2.0]
    prev11, prev22 = -1.0, np.inf
    for r in radii:
        rb = region_split(f, STD, pt, r, r)
        assert rb.t11 >= prev11 - 1e-15
        assert rb.t22 <= prev22 + 1e-15
        prev11, prev22 = rb.t11, rb.t22


def test_region_split_boundary_offsets_go_inside():
    # an offset with |u| exactly r1 belongs to the closed inner region
    g = grid_1x1(N=8)
    f = GridFunction(g, np.ones(g.shape))
    h = g.spacing
    pt = (4, 4)
    at = region_split(f, STD, pt, h / 2, h / 2)       # boundary hit: |u| = h/2
    below = region_split(f, STD, pt, h / 2 * (1 - 1e-12), h / 2 * (1 - 1e-12))
    assert at.t11 > 0.0
    assert below.t11 == 0.0


def test_region_split_rejects_bad_inputs():
    g = grid_1x1(N=8)
    f = random_function(g, seed=16)
    with pytest.raises(ValueError):
        region_split(f, STD, (0, 0), -1.0, 1.0)
    with pytest.raises(ValueError):
        region_split(f, STD, (0, 0), 1.0, 0.0)
    with pytest.raises(ValueError):
        region_split(f, STD, (8, 0), 1.0, 1.0)


def test_region_split_rank3():
    g = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=6)
    e = Exponents.from_balance(2, 1, 1.0, 0.5, 1.5)
    rng = np.random.default_rng(17)
    f = GridFunction(g, rng.uniform(0, 1, g.shape))
    k = riesz_kernel(g, e)
    conv = convolve_direct(f, k).values
    pt = (2, 3, 1)
    for r1, r2 in ((0.3, 0.4), (1.0, 0.2), (5.0, 5.0)):
        rb = region_split(f, e, pt, r1, r2)
        assert rb.total == pytest.approx(conv[pt], rel=1e-12)
