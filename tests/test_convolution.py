"""Convolution contracts: delta identity, oracles, fast path, region split."""

import gc
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodhls import (Exponents, GridFunction, ProductGrid, convolve_direct,
                     convolve_fast, region_split, region_sums, riesz_kernel, sample_function)
from prodhls import convolution
from prodhls import grid as grid_module

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
    # of the axes is its own case; at N = 6 the padded length 3N/2 is odd
    for m, n, N in [(1, 1, 32), (2, 1, 8), (1, 2, 8), (2, 2, 8),
                    (1, 1, 6), (2, 1, 6), (1, 2, 6), (2, 2, 6)]:
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
    shape = (3 * N // 2,) * g.rank
    spectrum = (np.fft.rfftn(f.values, shape, axes=axes)
                * np.fft.rfftn(k.values, shape, axes=axes))
    full = np.fft.irfftn(spectrum, shape, axes=axes)
    out = full[(slice(N // 2, N // 2 + N),) * g.rank] * g.cell_volume
    return np.maximum(out, 0.0)


@pytest.mark.parametrize("m, n, N", [(1, 1, 32), (2, 1, 8), (1, 2, 8), (2, 2, 8),
                                     (1, 1, 2), (1, 1, 6), (1, 1, 512)])
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


@pytest.mark.parametrize("N", [2, 6, 8])
@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_fast_matches_direct_where_the_padding_wraps(m, n, N):
    # f lives on the corner cells and the kernel is heaviest there, so the
    # top entries of the full linear convolution, which the circular
    # length 3N/2 wraps onto indices 0 .. N/2-2, are far from zero
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    rng = np.random.default_rng(19)
    corners = np.ix_(*[[0, N - 1]] * g.rank)
    f_vals = np.zeros(g.shape)
    f_vals[corners] = rng.uniform(1.0, 2.0, (2,) * g.rank)
    k_vals = rng.uniform(0.5, 1.0, g.shape)
    k_vals[corners] += rng.uniform(1.0, 2.0, (2,) * g.rank)
    f, k = GridFunction(g, f_vals), GridFunction(g, k_vals)
    d = convolve_direct(f, k).values
    assert np.all(np.abs(convolve_fast(f, k).values - d) <= 1e-12 * d)

    # the input really wraps: below the box the circular result differs
    # from the linear one by the wrapped mass (at N = 2, 3N/2 = 2N-1 and
    # nothing wraps)
    if N > 2:
        axes = tuple(range(g.rank))

        def padded(length):
            shape = (length,) * g.rank
            return np.fft.irfftn(np.fft.rfftn(f_vals, shape, axes=axes)
                                 * np.fft.rfftn(k_vals, shape, axes=axes), shape, axes=axes)

        low = (slice(0, N // 2 - 1),) * g.rank
        assert padded(3 * N // 2)[low].sum() - padded(2 * N)[low].sum() >= 1.0


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


@pytest.mark.parametrize("m, n, N", [(1, 1, 128), (2, 1, 32), (1, 2, 32), (2, 2, 16),
                                     (1, 1, 512)])
def test_fast_peak_memory(m, n, N):
    # with the kernel's spectrum cached, one call holds f's zero-padded
    # spectrum, the result and line buffers of an eighth of the box rows
    # in all: traced peaks of 3.60, 4.84, 4.84, 6.80 and 3.48 fields,
    # against 2.27, 3.52, 3.52, 5.48 and 2.26 for the spectrum.  One more
    # full-size array, such as a copy of the result or full-width inverse
    # lines, breaks the bound; at N = 512 the passes are split, and the
    # pieces' line buffers share the eighth
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    f = random_function(g, seed=12)
    k = riesz_kernel(g, Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3))
    convolve_fast(f, k)
    L = 3 * N // 2
    spectrum_bytes = L ** (g.rank - 1) * (L // 2 + 1) * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        convolve_fast(f, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spectrum_bytes + 1.5 * f.values.nbytes


@pytest.mark.parametrize("m, n, N", [(1, 1, 512), (2, 1, 48)])
def test_fast_bytes_do_not_depend_on_the_worker_count(monkeypatch, m, n, N):
    # both shapes are above the split floor: every line pass and the
    # product run in one piece per worker, the kernel's spectrum too
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    f = random_function(g, seed=23)
    k = riesz_kernel(g, Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3))
    L = 3 * N // 2
    assert L ** (g.rank - 1) * (L // 2 + 1) >= grid_module._SPLIT_FLOOR
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(grid_module, "_WORKERS", workers)
        monkeypatch.setattr(convolution, "_KERNEL_SPECTRA", weakref.WeakKeyDictionary())
        results.append(convolve_fast(f, k).values.tobytes())
    assert results[1] == results[0] and results[2] == results[0]


def test_fast_result_is_not_copied(monkeypatch):
    # the returned field holds the array the inverse wrote, not a copy of it
    g = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=8)
    f = random_function(g, seed=13)
    k = riesz_kernel(g, Exponents.from_balance(2, 1, 1.0, 0.5, 4 / 3))
    written = []
    box_inverse = convolution._box_inverse

    def record_box_inverse(*args):
        written.append(box_inverse(*args))
        return written[-1]

    monkeypatch.setattr(convolution, "_box_inverse", record_box_inverse)
    out = convolve_fast(f, k)
    assert out.values is written[-1]
    assert not out.values.flags.writeable


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 2)])
def test_fast_emits_no_warning(m, n):
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=8)
    f = random_function(g, seed=9)
    k = riesz_kernel(g, Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        convolve_fast(f, k)


def test_fast_spike_identity():
    for m, n, N in [(1, 1, 16), (1, 1, 6), (2, 1, 6), (1, 2, 6), (2, 2, 6)]:
        g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
        vals = np.zeros(g.shape)
        vals[(N // 2,) * g.rank] = 1.0 / g.cell_volume
        f = GridFunction(g, vals)
        k = riesz_kernel(g, Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3))
        d = convolve_direct(f, k).values
        fa = convolve_fast(f, k).values
        assert np.max(np.abs(d - fa)) <= 1e-10 * np.max(np.abs(d)), (m, n, N)


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


@pytest.mark.parametrize("m, n, N", [(1, 1, 16), (2, 1, 8), (1, 2, 8), (2, 2, 6)])
def test_region_sums_match_the_one_node_views(m, n, N):
    # many nodes at once, each with its own radii, in a shuffled order: each
    # row is the one-node split of its node, bit for bit
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    f = random_function(g, seed=19)
    rng = np.random.default_rng(20)
    points = rng.permutation(np.array(list(np.ndindex(g.shape))))
    r1, r2 = rng.uniform(0.01, 3.0, (2, len(points)))
    sums = region_sums(f, e, points, r1, r2)
    assert sums.shape == (len(points), 4)
    for point, a, b, row in zip(points.tolist(), r1, r2, sums):
        rb = region_split(f, e, point, a, b)
        assert row.tolist() == [rb.t11, rb.t12, rb.t21, rb.t22]


def test_region_sums_reject_bad_inputs():
    g = grid_1x1(N=8)
    f = random_function(g, seed=16)
    points = [(0, 0), (3, 5)]
    with pytest.raises(ValueError, match="2 points need as many radii"):
        region_sums(f, STD, points, [1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="r2 must be positive and finite, got nan"):
        region_sums(f, STD, points, [1.0, 1.0], [1.0, np.nan])
    with pytest.raises(ValueError, match="r1 must be positive and finite, got inf"):
        region_sums(f, STD, points, [1.0, np.inf], [1.0, 1.0])
    with pytest.raises(ValueError, match="do not address rank-2 grid nodes"):
        region_sums(f, STD, [(0, 0, 0), (1, 1, 1)], [1.0, 1.0], [1.0, 1.0])
    # the one-node view of the empty multi-index is one malformed node, not no nodes
    with pytest.raises(ValueError, match=r"points of shape \(1, 0\) .* do not address rank-2"):
        region_split(f, STD, (), 1.0, 1.0)
    assert region_sums(f, STD, [], [], []).shape == (0, 4)


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


def index_gather_split(f, exps, point, r1, r2):
    """The split's terms, gathered with per-axis index arrays and validity
    masks: for each region the (sample, x-factor, y-factor, cell volume)
    tuple of every offset in it, zero samples for offsets outside the box."""
    g = f.grid
    N = g.points_per_axis
    gather, valid = [], []
    for i in point:
        t = i - np.arange(N) + N // 2
        valid.append((t >= 0) & (t < N))
        gather.append(np.clip(t, 0, N - 1))
    window = f.values[np.ix_(*gather)].astype(np.float64)
    for axis, mask in enumerate(valid):
        shape = [1] * g.rank
        shape[axis] = N
        window = window * mask.reshape(shape)
    x_norm = g.x_norms().reshape(-1)
    y_norm = g.y_norms().reshape(-1)
    window = window.reshape(x_norm.size, y_norm.size)
    x_factor = x_norm ** (exps.alpha - exps.m)
    y_factor = y_norm ** (exps.beta - exps.n)
    in_x, in_y = x_norm <= r1, y_norm <= r2
    return [[(window[a, b], x_factor[a], y_factor[b], g.cell_volume)
             for a in np.flatnonzero(xs) for b in np.flatnonzero(ys)]
            for xs, ys in ((in_x, in_y), (in_x, ~in_y), (~in_x, in_y), (~in_x, ~in_y))]


def exact_sum_of_products(terms):
    """The sum of the products of each tuple of floats, in exact rationals."""
    parts = []
    for factors in terms:
        num, exp = 1, 0
        for v in factors:
            a, b = float(v).as_integer_ratio()  # b is a power of two
            num *= a
            exp -= b.bit_length() - 1
        parts.append((num, exp))
    low = min((exp for _, exp in parts), default=0)
    return Fraction(sum(num << (exp - low) for num, exp in parts), 1 << -low)


def shell_radii(g):
    """Radii that sit exactly on an offset-norm shell of each block."""
    x_shells, y_shells = np.unique(g.x_norms()), np.unique(g.y_norms())
    return [(float(x_shells[1]), float(y_shells[2])), (float(x_shells[3]), float(y_shells[0]))]


@pytest.mark.parametrize("m, n, N", [(1, 1, 16), (2, 1, 8), (1, 2, 8), (2, 2, 6)])
@pytest.mark.parametrize("family", ["random", "gaussian", "box", "zero"])
def test_region_split_bytes_match_index_gather(m, n, N, family):
    # each region sum is within gamma(K + 2) of the exact sum of its K
    # index-gather terms: the contraction takes a term through one x-factor
    # product, at most |in_x| - 1 row additions, one y-factor product, at
    # most |in_y| - 1 additions and the cell-volume product, so through
    # |in_x| + |in_y| + 1 <= K + 2 roundings of nonnegative values, in
    # whatever order they are summed
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    if family == "random":
        f = random_function(g, seed=18)
    elif family == "gaussian":
        f = sample_function(g, lambda *cs: np.exp(-sum(c ** 2 for c in cs) / 0.18))
    elif family == "box":
        f = sample_function(g, lambda *cs: reduce(np.multiply, [np.abs(c) <= 0.4 for c in cs]))
    else:
        f = GridFunction(g, np.zeros(g.shape))
    rank = m + n
    nodes = [(0,) * rank, (N - 1,) * rank,                  # corners
             (0,) + (N // 2,) * (rank - 1), (N // 2 - 1,) * (rank - 1) + (N - 1,),  # edges
             (N // 2 - 1,) * rank, (N // 2,) * rank,        # interior
             tuple(range(1, rank + 1))]
    for point in nodes:
        for r1, r2 in [(0.3, 0.5), (0.05, 2.0), (10.0, 10.0), *shell_radii(g)]:
            rb = region_split(f, e, point, r1, r2)
            got = (rb.t11, rb.t12, rb.t21, rb.t22)
            for value, terms in zip(got, index_gather_split(f, e, point, r1, r2)):
                exact = exact_sum_of_products(terms)
                gamma = Fraction(len(terms) + 2, 2 ** 53 - len(terms) - 2)
                assert abs(Fraction(value) - exact) <= gamma * exact, (point, r1, r2)
