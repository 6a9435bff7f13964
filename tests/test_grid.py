"""Grid geometry, quadrature norms, slice norms, dilation."""

import math
import multiprocessing
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodhls import (Exponents, GridFunction, ProductGrid, convolve_fast, dilate,
                     lp_norm, riesz_kernel, sample_function, slice_lp_norms_x,
                     slice_lp_norms_y)
from prodhls import grid as grid_module


def grid_1x1(N=16, L=1.0):
    return ProductGrid(m=1, n=1, half_width=L, points_per_axis=N)


def random_function(grid, seed=0):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.uniform(0.0, 1.0, size=grid.shape))


# ---------------------------------------------------------------- geometry

def test_spacing_definition():
    g = grid_1x1(N=12, L=1.5)
    assert g.spacing == 2.0 * g.half_width / g.points_per_axis


def test_centers_avoid_origin():
    for N in (2, 4, 16, 128):
        g = grid_1x1(N=N)
        assert np.all(np.abs(g.axis_centers()) >= g.spacing / 2 - 1e-15)


@pytest.mark.parametrize("L", [0.5, 1.0, 1.5, 3.7, 10.0])
def test_centers_mirror_exactly(L):
    # mirrored offsets must share one norm, so that each distance is one shell
    for N in range(2, 129, 2):
        c = grid_1x1(N=N, L=L).axis_centers()
        assert np.array_equal(c, -c[::-1]), N


def test_odd_point_count_rejected():
    with pytest.raises(ValueError):
        ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=15)


def test_block_dimension_capped():
    with pytest.raises(ValueError):
        ProductGrid(m=3, n=1, half_width=1.0, points_per_axis=8)


def test_gridfunction_rejects_bad_values():
    g = grid_1x1(N=4)
    with pytest.raises(ValueError):
        GridFunction(g, np.full(g.shape, np.nan))
    with pytest.raises(ValueError):
        GridFunction(g, -np.ones(g.shape))
    with pytest.raises(ValueError):
        GridFunction(g, np.ones((4, 5)))


@pytest.mark.parametrize("bad, message", [
    (np.nan, "values must all be finite"),
    (np.inf, "values must all be finite"),
    (-np.inf, "values must all be finite"),
    (-1e-300, "values must be nonnegative"),
], ids=["nan", "+inf", "-inf", "negative"])
def test_gridfunction_names_the_bad_value(bad, message):
    # one bad cell among valid ones, then beside a negative cell: a
    # non-finite value is named before a negative one
    g = grid_1x1(N=4)
    vals = np.ones(g.shape)
    vals[1, 2] = bad
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridFunction(g, vals)
    vals[3, 0] = -1.0
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridFunction(g, vals)


def test_gridfunction_accepts_negative_zero():
    g = grid_1x1(N=4)
    vals = np.ones(g.shape)
    vals[0, 0] = -0.0
    assert np.signbit(GridFunction(g, vals).values[0, 0])
    assert np.all(GridFunction(g, np.full(g.shape, -0.0)).values == 0.0)


def test_gridfunction_values_immutable():
    f = random_function(grid_1x1())
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_gridfunction_owns_its_values():
    # the caller's array stays writable and changing it reaches neither the
    # kernel's values nor a convolution served from its cached spectrum
    g = grid_1x1(N=8)
    f = random_function(g, seed=3)
    values = riesz_kernel(g, Exponents.from_balance(1, 1, 0.5, 0.5, 1.5)).values.copy()
    k = GridFunction(g, values)
    before_values = k.values.copy()
    before_conv = convolve_fast(f, k).values.copy()
    values.setflags(write=True)  # a no-op unless the field froze the caller's array
    values *= 2.0
    assert k.values.tobytes() == before_values.tobytes()
    assert convolve_fast(f, k).values.tobytes() == before_conv.tobytes()


def test_caller_arrays_are_copied():
    # GridFunction and sample_function take arrays a caller may hold (fn may
    # return its own), so they copy: the caller's array stays writable and
    # is not the field's values
    g = grid_1x1(N=8)
    held = np.random.default_rng(4).uniform(0.0, 1.0, g.shape)
    for field in (GridFunction(g, held), sample_function(g, lambda x, y: held)):
        assert held.flags.writeable
        assert field.values is not held
        assert not np.shares_memory(field.values, held)
        assert field.values.tobytes() == held.tobytes()


def test_dilate_result_is_not_copied(monkeypatch):
    # dilate returns the array its last axis resample built, not a copy of it
    f = random_function(grid_1x1(N=8), seed=5)
    built = []
    resample_axis = grid_module._resample_axis

    def record_resample_axis(*args):
        built.append(resample_axis(*args))
        return built[-1]

    monkeypatch.setattr(grid_module, "_resample_axis", record_resample_axis)
    out = dilate(f, 2.0, 0.5)
    assert out.values is built[-1]
    assert not out.values.flags.writeable


# ---------------------------------------------------------------- lp_norm

def test_lp_norm_constant_exact():
    # f = 1 on [-1,1]^2: volume 4, so the L^2 norm is exactly 2
    g = grid_1x1(N=16)
    f = GridFunction(g, np.ones(g.shape))
    assert lp_norm(f, 2.0) == pytest.approx(2.0, rel=1e-13)


def test_lp_norm_zero():
    g = grid_1x1(N=8)
    f = GridFunction(g, np.zeros(g.shape))
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(f, p) == 0.0


def test_lp_norm_matches_loop_oracle():
    g = grid_1x1(N=16)
    f = random_function(g, seed=3)
    p = 3.0
    # brute-force quadrature: explicit accumulation cell by cell
    total = 0.0
    for i in range(16):
        for j in range(16):
            total += f.values[i, j] ** p * g.spacing ** 2
    expected = total ** (1.0 / p)
    assert lp_norm(f, p) == pytest.approx(expected, rel=1e-12)


def test_lp_norm_rejects_bad_p():
    f = random_function(grid_1x1(N=4))
    for p in (0.5, 0.0, -1.0, float("nan"), math.inf):
        for norm in (lp_norm, slice_lp_norms_x, slice_lp_norms_y):
            with pytest.raises(ValueError):
                norm(f, p)


@settings(max_examples=30, deadline=None)
@given(c=st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=1e8)),
       p=st.floats(min_value=1.0, max_value=8.0))
def test_lp_norm_homogeneous(c, p):
    g = grid_1x1(N=8)
    f = random_function(g, seed=11)
    scaled = GridFunction(g, c * f.values)
    assert lp_norm(scaled, p) == pytest.approx(c * lp_norm(f, p), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_lp_norm_bytes_do_not_depend_on_the_worker_count(monkeypatch, workers, p):
    # at 512^2 the powers are split into one piece per worker; every piece
    # must give the bytes of the one-array formula
    monkeypatch.setattr(grid_module, "_WORKERS", workers)
    g = grid_1x1(N=512)
    f = random_function(g, seed=21)
    assert f.values.size >= grid_module._SPLIT_FLOOR
    expected = (float(np.sum(f.values ** p)) * g.cell_volume) ** (1.0 / p)
    assert lp_norm(f, p).hex() == expected.hex()


def test_lp_norm_peak_memory():
    # the powers live in one array that the pieces write into, so a split
    # call holds one field beyond f: a second full array breaks the bound
    f = random_function(grid_1x1(N=512), seed=22)
    lp_norm(f, 4 / 3)
    tracemalloc.start()
    try:
        lp_norm(f, 4 / 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * f.values.nbytes


# ---------------------------------------------------------------- the split

@pytest.mark.parametrize("workers, count", [(1, 10), (2, 10), (3, 10), (3, 2), (4, 7)])
def test_split_tiles_the_range_in_one_piece_per_worker(monkeypatch, workers, count):
    monkeypatch.setattr(grid_module, "_WORKERS", workers)
    pieces = []
    grid_module._split(lambda start, stop: pieces.append((start, stop)), count,
                       grid_module._SPLIT_FLOOR)
    pieces.sort()
    assert len(pieces) == min(workers, count)
    assert pieces[0][0] == 0 and pieces[-1][1] == count
    assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(pieces, pieces[1:]))


def test_split_below_the_floor_runs_once_inline(monkeypatch):
    monkeypatch.setattr(grid_module, "_WORKERS", 3)
    calls = []
    grid_module._split(lambda start, stop: calls.append((start, stop)), 10,
                       grid_module._SPLIT_FLOOR - 1)
    assert calls == [(0, 10)]


def test_split_raises_a_workers_error_after_every_piece_ran(monkeypatch):
    monkeypatch.setattr(grid_module, "_WORKERS", 3)
    done = []

    def piece(start, stop):
        if start == 3:
            raise ArithmeticError("piece 2")
        done.append(start)

    with pytest.raises(ArithmeticError, match="piece 2"):
        grid_module._split(piece, 9, grid_module._SPLIT_FLOOR)
    assert sorted(done) == [0, 6]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_split_in_a_forked_child_starts_its_own_pool(monkeypatch):
    # the child of a fork has none of the parent's pool threads; work
    # queued for them would wait forever
    monkeypatch.setattr(grid_module, "_WORKERS", 2)
    f = random_function(grid_1x1(N=512), seed=24)
    expected = lp_norm(f, 4 / 3)  # the parent's pool is running from here on

    def child():
        if lp_norm(f, 4 / 3) != expected:
            raise AssertionError("the child's norm differs")

    process = multiprocessing.get_context("fork").Process(target=child)
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        process.start()
    process.join(timeout=60)
    alive = process.is_alive()
    if alive:
        process.kill()
    assert not alive and process.exitcode == 0


# ---------------------------------------------------------------- slice norms

def test_slice_norm_constant():
    # g = 1, n = 1, L = 1, p = 1: length of the y-interval
    g = grid_1x1(N=10)
    f = GridFunction(g, np.ones(g.shape))
    assert slice_lp_norms_x(f, 1.0)[3] == pytest.approx(2.0, rel=1e-13)
    # a 2-d x-block: the y-slices have length 2, the x-slices area 4
    g21 = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=6)
    f21 = GridFunction(g21, np.ones(g21.shape))
    assert slice_lp_norms_x(f21, 1.0) == pytest.approx(np.full((6, 6), 2.0), rel=1e-13)
    assert slice_lp_norms_y(f21, 1.0) == pytest.approx(np.full(6, 4.0), rel=1e-13)


def test_slice_norm_tensor_factorization():
    g = grid_1x1(N=16)
    rng = np.random.default_rng(5)
    a = rng.uniform(0.1, 1.0, 16)
    b = rng.uniform(0.1, 1.0, 16)
    f = GridFunction(g, np.outer(a, b))
    p = 2.5
    b_norm = (np.sum(b ** p) * g.spacing) ** (1 / p)
    for i in (0, 7, 15):
        assert slice_lp_norms_x(f, p)[i] == pytest.approx(a[i] * b_norm, rel=1e-12)
    a_norm = (np.sum(a ** p) * g.spacing) ** (1 / p)
    for j in (0, 8):
        assert slice_lp_norms_y(f, p)[j] == pytest.approx(b[j] * a_norm, rel=1e-12)


def loop_slice_norms_x(f, p):
    """Hand-loop oracle: y-slice norms of a rank-2 function at every x-node."""
    g = f.grid
    N = g.points_per_axis
    return [sum(f.values[i, j] ** p * g.spacing for j in range(N)) ** (1 / p)
            for i in range(N)]


def test_slice_norm_matches_loop_oracle():
    f = random_function(grid_1x1(N=12), seed=9)
    assert slice_lp_norms_x(f, 1.7) == pytest.approx(loop_slice_norms_x(f, 1.7), rel=1e-12)


def test_slice_consistency_recovers_full_norm():
    # summing slice norms^p over x with the x-cell measure gives the norm
    g = grid_1x1(N=16)
    f = random_function(g, seed=21)
    for p in (1.0, 4 / 3, 2.0, 3.0):
        slices = slice_lp_norms_x(f, p)
        recovered = (np.sum(slices ** p) * g.spacing) ** (1 / p)
        assert recovered == pytest.approx(lp_norm(f, p), rel=1e-12)
        slices_y = slice_lp_norms_y(f, p)
        recovered_y = (np.sum(slices_y ** p) * g.spacing) ** (1 / p)
        assert recovered_y == pytest.approx(lp_norm(f, p), rel=1e-12)


def test_slice_norms_match_pointwise_api():
    # both mirrors against the hand loop; the y-mirror via the transpose
    f = random_function(grid_1x1(N=8), seed=2)
    ft = GridFunction(f.grid, f.values.T)
    for p in (1.0, 2.0):
        assert slice_lp_norms_x(f, p) == pytest.approx(loop_slice_norms_x(f, p), rel=1e-14)
        assert slice_lp_norms_y(f, p) == pytest.approx(loop_slice_norms_x(ft, p), rel=1e-14)


# ---------------------------------------------------------------- dilate

def test_dilate_identity():
    f = random_function(grid_1x1(N=16), seed=1)
    out = dilate(f, 1.0, 1.0)
    assert np.array_equal(out.values, f.values)


def test_dilate_box_rescaling():
    g = grid_1x1(N=64)
    f = sample_function(g, lambda x, y: ((np.abs(x) <= 0.5) & (np.abs(y) <= 0.5)).astype(float))
    out = dilate(f, 2.0, 1.0)
    expected = sample_function(
        g, lambda x, y: ((np.abs(x) <= 0.25) & (np.abs(y) <= 0.5)).astype(float))
    # agreement up to a one-cell boundary layer
    diff = np.abs(out.values - expected.values)
    rows_with_mismatch = np.where(diff.any(axis=1))[0]
    interior = np.abs(g.axis_centers()) < 0.25 - g.spacing
    assert not np.any(diff[interior][:, np.abs(g.axis_centers()) < 0.5 - g.spacing])
    assert len(rows_with_mismatch) <= 4


def test_dilate_gaussian_norm_scaling():
    # change of variables: ||f(s.)||_p = s^(-m/p) ||f||_p, within 2%
    g = grid_1x1(N=128)
    f = sample_function(g, lambda x, y: np.exp(-(x ** 2 + y ** 2) / (2 * 0.2 ** 2)))
    p = 2.0
    out = dilate(f, 2.0, 1.0)
    assert lp_norm(out, p) == pytest.approx(2 ** (-1 / p) * lp_norm(f, p), rel=0.02)


def test_dilate_rejects_nonpositive():
    f = random_function(grid_1x1(N=8))
    for s, t in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            dilate(f, s, t)
