"""Maximal operators against exhaustive window oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

import prodhls.maximal as maximal
from prodhls import (Exponents, GridFunction, ProductGrid, TensorProduct, block_maximals,
                     composition_check, g_norm_bound, lp_norm, maximal_fields,
                     node_maximals,
                     sample_function, slice_lp_norms_x, slice_lp_norms_y)
from prodhls.maximal import _dyadic_radii, _window_rows, _window_sums

STD = Exponents.from_balance(1, 1, 0.5, 0.5, 4 / 3)


def grid_1x1(N=16, L=1.0):
    return ProductGrid(m=1, n=1, half_width=L, points_per_axis=N)


def random_function(grid, seed=0):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.uniform(0.0, 1.0, size=grid.shape))


def strong_field(f):
    return maximal_fields(f)[0].values


def partial_fields(f):
    """M1 f and M2 f, as read from the one product pass."""
    _, m1, m2 = maximal_fields(f)
    return m1.values, m2.values


def brute_strong(f):
    """Exhaustive enumeration over all window pairs, 1-d blocks."""
    g = f.grid
    N = g.points_per_axis
    radii = _dyadic_radii(g)
    out = np.zeros(g.shape)
    for i in range(N):
        for j in range(N):
            best = 0.0
            for rx in radii:
                for ry in radii:
                    xs = slice(max(i - rx + 1, 0), min(i + rx, N))
                    ys = slice(max(j - ry + 1, 0), min(j + ry, N))
                    total = float(f.values[xs, ys].sum())
                    best = max(best, total / ((2 * rx - 1) * (2 * ry - 1)))
            out[i, j] = best
    return out


def brute_partial_x(f):
    g = f.grid
    N = g.points_per_axis
    radii = _dyadic_radii(g)
    out = np.zeros(g.shape)
    for i in range(N):
        for j in range(N):
            best = 0.0
            for rx in radii:
                xs = slice(max(i - rx + 1, 0), min(i + rx, N))
                best = max(best, float(f.values[xs, j].sum()) / (2 * rx - 1))
            out[i, j] = best
    return out


# ---------------------------------------------------------------- window family

def test_dyadic_family_shape():
    # radii in cells from the single cell up to a window over the whole box
    assert _dyadic_radii(grid_1x1(N=128)) == (1, 2, 4, 8, 16, 32, 64, 128)
    assert _dyadic_radii(grid_1x1(N=6)) == (1, 2, 4, 8)
    assert _dyadic_radii(grid_1x1(N=48)) == (1, 2, 4, 8, 16, 32, 64)


# ---------------------------------------------------------------- strong maximal

def test_constant_function_center_value():
    # away from clipping, averages of a constant are the constant
    g = grid_1x1(N=32)
    f = GridFunction(g, np.full(g.shape, 3.25))
    M = strong_field(f)
    center = (16, 16)
    assert M[center] == pytest.approx(3.25, rel=1e-13)
    # boundary clipping can only lower the sup below the constant
    assert np.all(M <= 3.25 * (1 + 1e-13))


def test_strong_field_spike_matches_brute_force():
    g = grid_1x1(N=12)
    vals = np.zeros(g.shape)
    vals[4, 7] = 1.0
    f = GridFunction(g, vals)
    assert np.allclose(strong_field(f), brute_strong(f), rtol=1e-12, atol=0.0)


def test_strong_field_random_matches_brute_force():
    for N in (12, 16):
        g = grid_1x1(N=N)
        f = random_function(g, seed=1)
        brute = brute_strong(f)
        assert np.max(np.abs(strong_field(f) - brute) / brute) <= 1e-12


def test_reflection_symmetry():
    g = grid_1x1(N=16)
    rng = np.random.default_rng(2)
    half = rng.uniform(0, 1, (8, 16))
    vals = np.concatenate([half, half[::-1, ::-1]], axis=0)
    vals = vals + vals[::-1, ::-1]  # symmetric under (x, y) -> (-x, -y)
    f = GridFunction(g, vals)
    M = strong_field(f)
    assert np.allclose(M, M[::-1, ::-1], rtol=1e-13)


def test_dominates_pointwise_value():
    # the single-cell window is in the family, so domination is exact
    g = grid_1x1(N=16)
    f = random_function(g, seed=3)
    assert np.all(strong_field(f) >= f.values)


def test_positive_homogeneity():
    g = grid_1x1(N=16)
    f = random_function(g, seed=4)
    c = 3.7
    scaled = GridFunction(g, c * f.values)
    assert np.allclose(strong_field(scaled), c * strong_field(f), rtol=1e-13)


def test_strong_field_2d_block_matches_brute_force():
    # m = 2, n = 1: x-windows are Euclidean discs of cells
    g = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=6)
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.uniform(0, 1, g.shape))
    radii = _dyadic_radii(g)
    N = 6
    out = np.zeros(g.shape)
    for i1 in range(N):
        for i2 in range(N):
            for j in range(N):
                best = 0.0
                for rx in radii:
                    disc = [(d1, d2) for d1 in range(-rx + 1, rx)
                            for d2 in range(-rx + 1, rx) if d1 * d1 + d2 * d2 < rx * rx]
                    for ry in radii:
                        total = 0.0
                        for d1, d2 in disc:
                            a, b = i1 - d1, i2 - d2
                            if 0 <= a < N and 0 <= b < N:
                                ys = slice(max(j - ry + 1, 0), min(j + ry, N))
                                total += float(f.values[a, b, ys].sum())
                        best = max(best, total / (len(disc) * (2 * ry - 1)))
                out[i1, i2, j] = best
    assert np.max(np.abs(strong_field(f) - out) / out) <= 1e-12


def window_sums_on(vals, axes, radii):
    """``_window_sums`` over the block on ``axes`` of ``vals``: the block is
    moved to the front for the pass and each sum moved back, which moves
    values only."""
    front = tuple(range(len(axes)))
    for total, count in _window_sums(np.moveaxis(vals, axes, front), len(axes), radii):
        yield np.moveaxis(total, front, axes), count


def block_windows(dim, N, rc):
    """Exhaustive block window of strict radius rc cells: W[i, j] = 1 when
    block cell j lies within rc of block cell i, and the full cell count
    of the unclipped window."""
    cells = np.array(list(np.ndindex(*(N,) * dim)))
    dist2 = ((cells[:, None, :] - cells[None, :, :]) ** 2).sum(axis=-1)
    full = sum(1 for d in itertools.product(range(1 - rc, rc), repeat=dim)
               if sum(x * x for x in d) < rc * rc)
    return (dist2 < rc * rc).astype(float), full


@pytest.mark.parametrize("m, n", [(2, 1), (1, 2), (2, 2)])
def test_disc_windows_match_brute_force(m, n):
    # N = 6: the largest dyadic radius (8 cells) puts whole disc rows
    # outside the box, which add nothing but still count; each radius pair
    # is also checked alone, since the largest window rarely attains the sup
    N = 6
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    f = GridFunction(g, np.random.default_rng(10 * m + n).uniform(0, 1, g.shape))
    radii = _dyadic_radii(g)
    assert radii[-1] > N
    F = f.values.reshape(N ** m, N ** n)
    x_windows = [block_windows(m, N, rc) for rc in radii]
    y_windows = [block_windows(n, N, rc) for rc in radii]
    products = []
    y_sums = window_sums_on(f.values, tuple(range(m, m + n)), radii)
    for (y_sum, count_y), (Wy, cy) in zip(y_sums, y_windows, strict=True):
        x_sums = window_sums_on(y_sum, tuple(range(m)), radii)
        for (total, count_x), (Wx, cx) in zip(x_sums, x_windows, strict=True):
            assert (count_x, count_y) == (cx, cy)
            products.append(Wx @ F @ Wy.T / (cx * cy))
            got = total.reshape(F.shape) / (count_x * count_y)
            assert np.max(np.abs(got - products[-1]) / products[-1]) <= 1e-12
    strong = np.max(products, axis=0)
    m1 = np.max([Wx @ F / cx for Wx, cx in x_windows], axis=0)
    m2 = np.max([F @ Wy.T / cy for Wy, cy in y_windows], axis=0)
    for got, brute in zip(maximal_fields(f), (strong, m1, m2)):
        assert np.max(np.abs(got.values.reshape(F.shape) - brute) / brute) <= 1e-12


def separate_strong_pass(f, x_first):
    """M f from a double loop of its own over the window sums, apart from
    the partial maximals, with the x-block pass outer when ``x_first``."""
    g = f.grid
    radii = _dyadic_radii(g)
    x_axes, y_axes = tuple(range(g.m)), tuple(range(g.m, g.rank))
    outer, inner = (x_axes, y_axes) if x_first else (y_axes, x_axes)
    best = np.zeros(g.shape)
    for outer_sum, count_o in window_sums_on(f.values, outer, radii):
        for total, count_i in window_sums_on(outer_sum, inner, radii):
            np.maximum(best, total / (count_i * count_o), out=best)
    return best


def sampled_input(g, kind):
    rng = np.random.default_rng(g.rank * 100 + g.points_per_axis)
    if kind == "uniform":
        return GridFunction(g, rng.uniform(0, 1, g.shape))
    if kind == "sparse":  # about 80% of the cells are zero
        return GridFunction(g, rng.uniform(0, 1, g.shape) * (rng.uniform(0, 1, g.shape) < 0.2))
    if kind == "signed-zero":  # about 80% of the cells are -0.0, which sums make 0.0
        return GridFunction(g, np.where(rng.uniform(0, 1, g.shape) < 0.2,
                                        rng.uniform(0, 1, g.shape), -0.0))
    return sample_function(g, lambda *xs: np.exp(
        -sum((k + 1) * x ** 2 for k, x in enumerate(xs)) / (2 * 0.3 ** 2)))


@pytest.mark.parametrize("kind", ["uniform", "sparse", "gaussian", "signed-zero"])
@pytest.mark.parametrize("N", [6, 8, 12, 16])
@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_maximal_fields_match_the_separate_passes(m, n, N, kind):
    # N = 6: the largest window reaches past the box on every side
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    f = sampled_input(g, kind)
    mf, m1, m2 = maximal_fields(f)
    # the block with more window rows is the outer pass: x first iff m > n
    assert mf.values.tobytes() == separate_strong_pass(f, m > n).tobytes()
    if (m, n) == (2, 1):  # the other order moves M f by rounding only
        assert np.allclose(separate_strong_pass(f, False), mf.values, rtol=1e-14, atol=0.0)
    # all three fields against exhaustive block windows
    F = f.values.reshape(N ** m, N ** n)
    x_windows = [block_windows(m, N, rc) for rc in _dyadic_radii(g)]
    y_windows = [block_windows(n, N, rc) for rc in _dyadic_radii(g)]
    brute = np.max([Wx @ F @ Wy.T / (cx * cy)
                    for Wx, cx in x_windows for Wy, cy in y_windows], axis=0)
    assert np.allclose(mf.values.reshape(F.shape), brute, rtol=1e-12, atol=0.0)
    brute_m1 = np.max([Wx @ F / cx for Wx, cx in x_windows], axis=0)
    brute_m2 = np.max([F @ Wy.T / cy for Wy, cy in y_windows], axis=0)
    assert np.allclose(m1.values.reshape(F.shape), brute_m1, rtol=1e-12, atol=0.0)
    assert np.allclose(m2.values.reshape(F.shape), brute_m2, rtol=1e-12, atol=0.0)


def gathered_window_sums(vals, axes, radii):
    """Reference window sums: each row gathered from the prefix sum with
    clipped indices, ``csum[min(i + w + 1, N)] - csum[max(i - w, 0)]``."""
    first, last = axes[0], axes[-1]
    N = vals.shape[last]
    idx = np.arange(N)
    csum = np.cumsum(np.insert(vals, 0, 0.0, axis=last), axis=last)
    for rc in radii:
        rows = _window_rows(len(axes), rc)
        total = np.zeros(vals.shape)
        for d, w in rows:
            if abs(d) >= N:
                continue
            src, dst = [slice(None)] * vals.ndim, [slice(None)] * vals.ndim
            if d:
                src[first] = slice(max(-d, 0), N - max(d, 0))
                dst[first] = slice(max(d, 0), N - max(-d, 0))
            if w == 0:
                row = vals[tuple(src)]
            else:
                part = csum[tuple(src)]
                row = (np.take(part, idx + w + 1, axis=last, mode="clip")
                       - np.take(part, idx - w, axis=last, mode="clip"))
            total[tuple(dst)] += row
        yield total, sum(2 * w + 1 for _, w in rows)


@pytest.mark.parametrize("kind", ["uniform", "sparse", "gaussian", "signed-zero"])
@pytest.mark.parametrize("N", [6, 8, 12, 16])
@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_window_sums_match_the_gather(m, n, N, kind):
    # the slice reads of the prefix sum against the clipped gather, byte
    # for byte, on both blocks and on a block pass over the other's sums;
    # N = 6 puts disc rows past the box (|d| >= N) and half-widths >= N
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    f = sampled_input(g, kind)
    radii = _dyadic_radii(g)
    x_axes, y_axes = tuple(range(m)), tuple(range(m, m + n))
    for outer, inner in ((x_axes, y_axes), (y_axes, x_axes)):
        got = list(window_sums_on(f.values, outer, radii))
        want = list(gathered_window_sums(f.values, outer, radii))
        assert [c for _, c in got] == [c for _, c in want]
        for (a, _), (b, _) in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()
        inner_got = window_sums_on(got[-2][0], inner, radii)
        inner_want = gathered_window_sums(want[-2][0], inner, radii)
        for (a, ca), (b, cb) in zip(inner_got, inner_want, strict=True):
            assert ca == cb and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["uniform", "signed-zero"])
@pytest.mark.parametrize("N", [6, 16])
@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_centre_reads_match_the_dense_read(m, n, N, kind):
    # the sums read at a set of centres are, byte for byte, the dense
    # sums at those block cells, one row per centre, on both blocks of a
    # transposed view: the first cell, the last, every other cell, and
    # every cell but one, which takes several chunks at each radius
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    f = sampled_input(g, kind)
    radii = _dyadic_radii(g)
    for axes in (tuple(range(m)), tuple(range(m, m + n))):
        dim, cells = len(axes), N ** len(axes)
        vals = np.moveaxis(f.values, axes, tuple(range(dim)))
        dense = [total.reshape(cells, -1) for total, _ in _window_sums(vals, dim, radii)]
        for centres in (np.array([0]), np.array([cells - 1]), np.arange(0, cells, 2),
                        np.delete(np.arange(cells), cells // 2)):
            got = _window_sums(vals, dim, radii, centres)
            for (total, _), want in zip(got, dense, strict=True):
                assert total.shape == (len(centres),) + vals.shape[dim:]
                assert total.tobytes() == want[centres].tobytes()


def stride_nodes(g, stride):
    """The nodes whose every index is a multiple of ``stride``, one per row."""
    axis = np.arange(0, g.points_per_axis, stride)
    return np.stack(np.meshgrid(*[axis] * g.rank, indexing="ij"), axis=-1).reshape(-1, g.rank)


def node_sets(g):
    """The node sets the node path is checked on, by name."""
    rng = np.random.default_rng(g.rank * 1000 + g.points_per_axis)
    N = g.points_per_axis
    sample = stride_nodes(g, 8)
    shuffled = np.concatenate([sample, sample[:3], stride_nodes(g, 3)[::5]])
    # every slice of one block holds a node, each paired with one of the
    # other block's stride-8 slices, which leave some of its slices empty:
    # one call reads one block densely and the other at its centres
    x_all, y_all = (np.array(list(np.ndindex(*(N,) * dim))) for dim in (g.m, g.n))
    x_some, y_some = np.unique(sample[:, :g.m], axis=0), np.unique(sample[:, g.m:], axis=0)
    every_x = np.hstack([x_all, y_some[np.arange(len(x_all)) % len(y_some)]])
    every_y = np.hstack([x_some[np.arange(len(y_all)) % len(x_some)], y_all])
    return {"stride-8": sample, "corner": np.full((1, g.rank), N - 1),
            "shuffled-with-duplicates": shuffled[rng.permutation(len(shuffled))],
            "every-x-slice": every_x, "every-y-slice": every_y,
            # (N/2)^dim slices per block, more centres than the N^dim // (4 *
            # rows) of one chunk at every radius but the cell's, from N = 4
            "stride-2": stride_nodes(g, 2),
            "every-node": stride_nodes(g, 1)}


def separate_partial_passes(f):
    """M1 f and M2 f, each from one single-block pass of its own over f."""
    g = f.grid
    radii = _dyadic_radii(g)
    fields = []
    for axes in (tuple(range(g.m)), tuple(range(g.m, g.rank))):
        best = np.zeros(g.shape)
        for total, count in window_sums_on(f.values, axes, radii):
            np.maximum(best, total / count, out=best)
        fields.append(best)
    return fields


@pytest.mark.parametrize("kind", ["uniform", "sparse", "signed-zero"])
@pytest.mark.parametrize("m, n, N", [(1, 1, 6), (2, 1, 6), (1, 2, 6), (2, 2, 6), (1, 1, 128),
                                     (2, 1, 32), (1, 2, 32), (2, 2, 16), (2, 2, 2)])
def test_slab_fields_match_the_full_pass(m, n, N, kind):
    # node_maximals on every node set, in input order: M f is, byte for
    # byte, the full double loop's at the nodes, and n1 and n2 are those of
    # slice_lp_norms_x and _y on the single-block passes' full fields, at
    # the nodes' x- and y-indices.  The corner node and the stride-8 nodes
    # at N = 6 read one slice of each block.  At N = 2 (radii 1 and 2) the
    # corner node's product pass reads one column at one centre
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    f = sampled_input(g, kind)
    full = separate_strong_pass(f, m > n)
    m1, m2 = separate_partial_passes(f)
    norms = {p: (slice_lp_norms_x(GridFunction(g, m1), p).reshape(N ** m),
                 slice_lp_norms_y(GridFunction(g, m2), p).reshape(N ** n)) for p in (4 / 3, 3.0)}
    for name, nodes in node_sets(g).items():
        xs = np.ravel_multi_index(tuple(nodes[:, :m].T), (N,) * m)
        ys = np.ravel_multi_index(tuple(nodes[:, m:].T), (N,) * n)
        for p, (n1, n2) in norms.items():
            got = node_maximals(f, p, nodes)
            assert [a.shape for a in got] == [(len(nodes),)] * 3, name
            assert got[0].tobytes() == full[tuple(nodes.T)].tobytes(), (name, p)
            assert got[1].tobytes() == n1[xs].tobytes(), (name, p)
            assert got[2].tobytes() == n2[ys].tobytes(), (name, p)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_node_maximals_of_no_nodes(m, n):
    # no nodes, as an empty sequence or a (0, rank) array: three empty
    # float64 arrays; the product pass then runs on no slabs at no centres
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=6)
    f = sampled_input(g, "uniform")
    for points in ([], np.empty((0, g.rank), dtype=np.intp)):
        got = node_maximals(f, 4 / 3, points)
        assert [(a.shape, a.dtype) for a in got] == [((0,), np.float64)] * 3


@pytest.mark.parametrize("m, n, N", [(1, 1, 16), (2, 1, 8), (1, 2, 8), (2, 2, 6)])
def test_block_maximals_give_the_node_values(m, n, N):
    # M a M b, M a ||b||_p and ||a||_p M b against node_maximals of the
    # outer product, at every node, at a stride-4 sample and at no nodes
    # for each of three stacked tensor products; each instance's values are
    # the bytes of a call on it alone
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    rng = np.random.default_rng(26)
    tensors = []
    for _ in range(3):
        x, y = (rng.uniform(0.0, 1.0, (N,) * dim) for dim in (m, n))
        x[x < 0.3] = 0.0
        tensors.append(TensorProduct(g, x, y))
    every = np.array(list(np.ndindex(g.shape)))
    for points in (every, every[np.all(every % 4 == 0, axis=1)]):
        stacked = block_maximals(tensors, points)
        assert [a.shape for a in stacked] == [(3, len(points))] * 2
        for row, tensor in enumerate(tensors):
            m_x, m_y = (a[row] for a in stacked)
            norm_x, norm_y = tensor.block_norms(4 / 3)
            got = np.array([m_x * m_y, m_x * norm_y, norm_x * m_y])
            f = GridFunction(g, np.multiply.outer(tensor.x, tensor.y))
            want = np.array(node_maximals(f, 4 / 3, points))
            assert np.all(np.abs(got - want) <= 1e-13 * want)
            assert np.array_equal(got == 0.0, want == 0.0)
            alone = block_maximals([tensor], points)
            assert [a[0].tobytes() for a in alone] == [m_x.tobytes(), m_y.tobytes()]
    got = block_maximals(tensors, np.empty((0, g.rank), dtype=np.intp))
    assert [(a.shape, a.dtype) for a in got] == [((3, 0), np.float64)] * 2


def recorded_passes(monkeypatch):
    """Record the array, the radii and the centres of every
    ``_window_sums`` call, and the shape of each sum it yields."""
    calls = []

    def record(vals, dim, radii, centres=None, real=maximal._window_sums):
        shapes = []
        calls.append((vals.copy(), radii, centres, shapes))
        for total, count in real(vals, dim, radii, centres):
            shapes.append(total.shape)
            yield total, count

    monkeypatch.setattr(maximal, "_window_sums", record)
    return calls


@pytest.mark.parametrize("stride, slabs", [(8, 4), (1, 256)])
def test_product_pass_sees_only_the_node_slabs(monkeypatch, stride, slabs):
    # (2,2) N=16: y is the outer block, so a slab is a y-slice.  Every block
    # pass reads its window sums only at the centres, the flat block indices
    # of the slices that hold a node: 4 of 256 at stride 8, so each sum has
    # one row per centre; at stride 1 every slice holds a node and the sums
    # are read densely, one per block cell.  The product windows, both
    # factors larger than one cell, are summed on the node slabs of each
    # outer sum and read at the x centres only.  The one-cell outer window
    # is never gathered, at either stride: M1 f at the nodes holds it
    g = ProductGrid(m=2, n=2, half_width=1.0, points_per_axis=16)
    f = sampled_input(g, "uniform")
    nodes = stride_nodes(g, stride)
    calls = recorded_passes(monkeypatch)
    node_maximals(f, 4 / 3, nodes)
    radii = _dyadic_radii(g)
    x_centres = np.unique(nodes[:, 0] * 16 + nodes[:, 1])
    y_centres = np.unique(nodes[:, 2] * 16 + nodes[:, 3])
    (x_vals, x_radii, x_at, x_shapes), (y_vals, y_radii, y_at, y_shapes), *products = calls
    assert x_vals.tobytes() == f.values.tobytes()
    assert y_vals.tobytes() == np.moveaxis(f.values, (2, 3), (0, 1)).tobytes()
    assert x_radii == y_radii == radii
    assert products and all(r == radii[1:] for _, r, _, _ in products)
    for at, centres in ((x_at, x_centres), (y_at, y_centres),
                        *((p[2], x_centres) for p in products)):
        if stride == 1:
            assert at is None
        else:
            assert at.tolist() == centres.tolist() == [0, 8, 128, 136]
    lead = (16, 16) if stride == 1 else (4,)
    assert set(x_shapes) == set(y_shapes) == {lead + (16, 16)}
    for vals, _, _, shapes in products:
        assert set(shapes) == {lead + vals.shape[2:]}
    gathered = np.concatenate([vals for vals, _, _, _ in products], axis=-2)
    # x leads, then the outer radius, then the slab
    assert gathered.shape == (16, 16, len(radii) - 1, slabs)
    # the slab columns are the y-block outer sums at the nodes' y-indices
    y_slabs = np.unique(nodes[:, 2:], axis=0)
    outer_sums = [total for total, _ in window_sums_on(f.values, (2, 3), radii)]
    want = np.stack([s[:, :, y_slabs[:, 0], y_slabs[:, 1]] for s in outer_sums[1:]], axis=-2)
    assert gathered.tobytes() == want.tobytes()


@pytest.mark.parametrize("m, n, N", [(2, 2, 16), (2, 1, 32), (1, 1, 128)])
def test_maximal_fields_peak_memory(m, n, N):
    # the traced peak of one pass, in field-sized arrays.  The full pass
    # holds the three fields, a prefix sum and a buffer per 2-d block pass
    # and the sums in flight; the pointwise runs' peak RSS rises with it.
    # At the stride-8 nodes (node_maximals) every pass reads a few
    # centres, and what is left is one block pass's prefix sum, which reads
    # a transposed input through a view, and the two gathers of one chunk
    # of centres, at most half a field (1.69 fields at (2,2) N=16, 2.02 at
    # (2,1) N=32).  Chunks twice as large read 2.18 and 2.51, a single
    # chunk 2.18 and 3.48, and a contiguous copy of the transposed input
    # would pass 2.25 too.  At (1,1) N=128 the product pass gathers up to
    # a field of outer sums and sums it (2.66 fields); run while the outer
    # pass still held its prefix sum, its last batch read 3.54
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    f = sampled_input(g, "uniform")
    nodes = stride_nodes(g, 8)
    for run, fields in ((lambda: maximal_fields(f), 11),
                        (lambda: node_maximals(f, 4 / 3, nodes), 3.0 if m + n == 2 else 2.25)):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fields * f.values.nbytes


# ---------------------------------------------------------------- partial maximal

def test_partial_tensor_factorization():
    g = grid_1x1(N=16)
    rng = np.random.default_rng(6)
    a = rng.uniform(0.1, 1.0, 16)
    b = rng.uniform(0.1, 1.0, 16)
    f = GridFunction(g, np.outer(a, b))
    m1, _ = partial_fields(f)
    # one-dimensional maximal of the x-profile, computed by enumeration
    m1a = np.zeros(16)
    for i in range(16):
        best = 0.0
        for rx in _dyadic_radii(g):
            xs = slice(max(i - rx + 1, 0), min(i + rx, 16))
            best = max(best, a[xs].sum() / (2 * rx - 1))
        m1a[i] = best
    assert np.allclose(m1, np.outer(m1a, b), rtol=1e-12)


def test_partial_constant_center():
    g = grid_1x1(N=32)
    f = GridFunction(g, np.ones(g.shape))
    m1, m2 = partial_fields(f)
    assert m1[16, 16] == pytest.approx(1.0, rel=1e-13)
    assert m2[16, 16] == pytest.approx(1.0, rel=1e-13)


def test_partial_matches_brute_force():
    g = grid_1x1(N=16)
    f = random_function(g, seed=7)
    brute = brute_partial_x(f)
    m1, m2 = partial_fields(f)
    assert np.max(np.abs(m1 - brute) / brute) <= 1e-12
    # the y-direction mirrors the x-direction on the transpose
    ft = GridFunction(g, f.values.T.copy())
    assert np.allclose(m2, partial_fields(ft)[0].T, rtol=1e-13)


# ---------------------------------------------------------------- composition

def test_composition_constant():
    g = grid_1x1(N=16)
    f = GridFunction(g, np.full(g.shape, 2.0))
    rep = composition_check(f)
    assert rep.max_ratio <= 1 + 1e-12
    # both sides equal the constant at the box center
    strong = strong_field(f)[8, 8]
    comp = partial_fields(maximal_fields(f)[2])[0][8, 8]
    assert strong == pytest.approx(comp, rel=1e-13)


def test_composition_spike_and_random():
    g = grid_1x1(N=16)
    vals = np.zeros(g.shape)
    vals[3, 12] = 5.0
    for f in (GridFunction(g, vals), random_function(g, seed=8),
              random_function(g, seed=9)):
        rep = composition_check(f)
        assert rep.max_ratio <= 1 + 1e-12


def test_composition_brute_force_both_sides():
    g = grid_1x1(N=10)
    f = random_function(g, seed=10)
    strong = brute_strong(f)
    m2 = maximal_fields(f)[2]
    comp = brute_partial_x(m2)
    assert np.all(strong <= comp * (1 + 1e-12))


# ---------------------------------------------------------------- G function

def g_field(f, p=STD.p):
    """The mixed-norm field G: the y-slice norms of M1 f times the x-slice
    norms of M2 f, one factor per block."""
    _, m1, m2 = maximal_fields(f)
    return np.multiply.outer(slice_lp_norms_x(m1, p), slice_lp_norms_y(m2, p))


def test_g_zero():
    g = grid_1x1(N=8)
    f = GridFunction(g, np.zeros(g.shape))
    assert np.all(g_field(f) == 0.0)


def test_g_tensor_factorization():
    g = grid_1x1(N=16)
    rng = np.random.default_rng(11)
    a = rng.uniform(0.1, 1.0, 16)
    b = rng.uniform(0.1, 1.0, 16)
    f = GridFunction(g, np.outer(a, b))
    p = STD.p
    _, m1, m2 = maximal_fields(f)
    n1 = slice_lp_norms_x(m1, p)
    n2 = slice_lp_norms_y(m2, p)
    assert np.array_equal(g_field(f), np.outer(n1, n2))
    # tensor structure: n1(x) = (M1 a)(x) ||b||_p and n2(y) = (M2 b)(y) ||a||_p
    h = g.spacing
    b_norm = (np.sum(b ** p) * h) ** (1 / p)
    m1a = brute_partial_x(f)[:, 0] / b[0]
    assert np.allclose(n1, m1a * b_norm, rtol=1e-12)


def test_g_matches_oracle_composition():
    g = grid_1x1(N=12)
    f = random_function(g, seed=12)
    p = STD.p
    G = g_field(f)
    m1 = brute_partial_x(f)
    ft = GridFunction(g, f.values.T.copy())
    m2 = brute_partial_x(ft).T
    h = g.spacing
    n1 = (np.sum(m1 ** p, axis=1) * h) ** (1 / p)
    n2 = (np.sum(m2 ** p, axis=0) * h) ** (1 / p)
    assert np.allclose(G, np.outer(n1, n2), rtol=1e-12)


def test_g_quadratic_homogeneity():
    g = grid_1x1(N=16)
    f = random_function(g, seed=13)
    c = 2.5
    scaled = GridFunction(g, c * f.values)
    assert np.allclose(g_field(scaled), c ** 2 * g_field(f), rtol=1e-12)


# ---------------------------------------------------------------- G norm bound

def test_g_norm_zero_function():
    g = grid_1x1(N=8)
    f = GridFunction(g, np.zeros(g.shape))
    rep = g_norm_bound(f, STD)
    assert rep.g_norm == 0.0 and rep.f_norm == 0.0 and rep.ratio == 0.0


def test_g_norm_bound_computes_each_partial_maximal_once(monkeypatch):
    import prodhls.maximal as maximal
    g = grid_1x1(N=16)
    f = random_function(g, seed=3)
    passes = []

    def counted(h, _inner=maximal.maximal_fields):
        passes.append(h)
        return _inner(h)

    monkeypatch.setattr(maximal, "maximal_fields", counted)
    rep = g_norm_bound(f, STD)
    assert len(passes) == 1 and passes[0] is f
    composition_check(f)  # one pass on f, one on M2 f
    assert len(passes) == 3 and passes[1] is f
    monkeypatch.undo()
    _, m1, m2 = maximal_fields(f)
    assert passes[2].values.tobytes() == m2.values.tobytes()
    # the same values as the field and the norms computed separately
    p = STD.p
    assert rep.g_norm == lp_norm(GridFunction(g, g_field(f, p)), p)
    assert rep.f_norm == lp_norm(f, p)
    assert rep.m1_norm == lp_norm(m1, p)
    assert rep.m2_norm == lp_norm(m2, p)


def test_g_norm_factorization_identity():
    # ||G f||_p = ||M1 f||_p ||M2 f||_p by the discrete Fubini step
    g = grid_1x1(N=32)
    f = random_function(g, seed=14)
    rep = g_norm_bound(f, STD)
    assert rep.g_norm == pytest.approx(rep.m1_norm * rep.m2_norm, rel=1e-10)


def test_g_norm_gaussian_dilation_stability():
    g = grid_1x1(N=64)
    ratios = []
    for s in (0.5, 1.0, 2.0):
        f = sample_function(
            g, lambda x, y: np.exp(-(s * x) ** 2 / (2 * 0.15 ** 2)
                                   - (s * y) ** 2 / (2 * 0.15 ** 2)))
        ratios.append(g_norm_bound(f, STD).ratio)
    assert max(ratios) / min(ratios) < 2.0


def test_g_norm_tensor_indicator_pinned():
    # tensor indicator: the ratio is the product of the two one-block
    # maximal norm ratios; with equal factors it is that ratio squared
    g = grid_1x1(N=64)
    f = sample_function(g, lambda x, y: ((np.abs(x) <= 0.5) & (np.abs(y) <= 0.5)).astype(float))
    rep = g_norm_bound(f, STD)
    r1 = rep.m1_norm / rep.f_norm
    r2 = rep.m2_norm / rep.f_norm
    assert rep.ratio == pytest.approx(r1 * r2, rel=1e-10)
    assert r1 == pytest.approx(r2, rel=1e-12)
    # measured once on this configuration and pinned
    assert rep.ratio == pytest.approx(1.43262, abs=2e-3)
