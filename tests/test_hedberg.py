"""Certification engine: admissibility, constants, radii, certificates."""

import dataclasses
import gc
import inspect
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import prodhls
from prodhls import convolution, harness, hedberg
from prodhls import (CertificateTable, CertificateViolation, Exponents, ExponentError, GridFunction,
                     HedbergCertificate, ProductGrid, TensorProduct, balanced_radii,
                     certify_instances, certify_points, convolve_direct, final_bound, lp_norm,
                     maximal_fields, profile_ball_integral, region_limits, region_tables,
                     riesz_kernel, sample_function, slice_lp_norms_x, slice_lp_norms_y,
                     tail_integral_constant)
from prodhls.cli import main as cli_main
from prodhls.harness import (ExperimentConfig, InstanceResult, PointwiseReport, _sample_points,
                             make_family, run_pointwise_campaign, write_certificates_json)
from test_maximal import block_windows

STD = Exponents.from_balance(1, 1, 0.5, 0.5, 4 / 3)

positive = st.floats(min_value=1e-4, max_value=1e4)


def grid_1x1(N=16, L=1.0):
    return ProductGrid(m=1, n=1, half_width=L, points_per_axis=N)


def tensor_instance(fam, s, t):
    """The instance fam(s, t) of a family with block factors, held as them."""
    grid = fam(s, t).grid
    return TensorProduct(grid, fam.blocks[0](s), fam.blocks[1](t))


# ---------------------------------------------------------------- admissibility

def test_balanced_example_accepted():
    assert STD.violation is None
    assert STD.q == pytest.approx(4.0, rel=1e-12)


def test_balanced_example_m2():
    e = Exponents.from_balance(2, 1, 1.0, 0.5, 1.5)
    assert e.violation is None
    assert e.q == pytest.approx(6.0, rel=1e-12)


def test_mismatched_balance_rejected():
    e = Exponents(m=1, n=1, alpha=0.5, beta=1 / 3, p=4 / 3, q=4.0)
    assert e.violation == "balance_beta"


def test_tail_condition_flagged():
    # alpha above m/p and beta above n/p kill both tails; the tuple is not
    # balanced (1/p - 1/q = 1/2, not 0.9), so balance_alpha is named first
    e = Exponents(m=1, n=1, alpha=0.9, beta=0.9, p=4 / 3, q=4.0)
    assert not e.tail_exponent_x > e.m and not e.tail_exponent_y > e.n
    assert e.violation == "balance_alpha"


def test_tail_exponents_reported():
    assert STD.tail_exponent_x == pytest.approx(2.0, rel=1e-12)
    assert STD.tail_exponent_y == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------- constants

def limit(region, value, r1, r2, exps, grid=None):
    """One region's bound with ``value`` in its own row and 1.0 in the others,
    from the tables of ``grid`` (by default the 16-cell grid of the blocks)."""
    grid = grid or ProductGrid(m=exps.m, n=exps.n, half_width=1.0, points_per_axis=16)
    values = dict(m_value=1.0, n1=1.0, n2=1.0, f_norm=1.0)
    values[{"region11": "m_value", "region12": "n1", "region21": "n2",
            "region22": "f_norm"}[region]] = value
    return region_limits(**values, r1=r1, r2=r2, tables=region_tables(grid, exps))[region]


# N = 2, h = 1: each block has the two offsets at |x| = 1/2, one shell;
# K(1/2) = sqrt(2), the offsets sit 0 and 1 cells from the node, so the
# smallest dyadic window holding both has radius 2 cells and 3 cells in all
TWO_CELL = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=2)
TWO_CELL_INNER = 3.0 * 2.0 ** 0.5                    # A = h K(1/2) |W|
TWO_CELL_TAIL = (2.0 * 0.5 ** -2.0) ** 0.25           # T = (h 2 (1/2)^((a-d)p'))^(1/p')


def test_unit_ball_profile_integral_quad_oracle():
    # each 1-d factor with exponent 1/2: 2 * integral_0^1 r^(-1/2) dr = 4
    val, _ = quad(lambda r: 2.0 * r ** (-0.5), 0, 1)
    assert profile_ball_integral(1, 0.5, 1.0) == pytest.approx(val, rel=1e-10)
    assert (profile_ball_integral(1, 0.5, 1.0) * profile_ball_integral(1, 0.5, 1.0)
            == pytest.approx(16.0))
    val2, _ = quad(lambda r: 2 * math.pi * r * r ** (-1.0), 0, 1)
    assert profile_ball_integral(2, 1.0, 1.0) == pytest.approx(val2, rel=1e-10)


def test_tail_constant_quad_oracle():
    # 1-d tail with decay 2: 2 * integral_1^inf r^(-2) dr = 2
    val, _ = quad(lambda r: 2.0 * r ** (-2.0), 1, np.inf)
    assert tail_integral_constant(1, 2.0) == pytest.approx(val, rel=1e-10)


def test_tail_constant_rejects_slow_decay_without_naming_a_block():
    # the constant does not know which block it serves; the region tables
    # name the failing tail condition
    with pytest.raises(ValueError) as info:
        tail_integral_constant(2, 1.5)
    assert not isinstance(info.value, ExponentError)


def test_region22_constant_value():
    # below the one shell both blocks are all tail: T_x T_y ||f||
    assert limit("region22", 1.0, 0.25, 0.25, STD, TWO_CELL) == pytest.approx(
        TWO_CELL_TAIL ** 2, rel=1e-12)
    assert limit("region22", 1.0, 0.5, 0.25, STD, TWO_CELL) == 0.0


def test_region12_constant_value():
    # inner x-block against the y-tail: A_x T_y n1
    assert limit("region12", 1.0, 0.5, 0.25, STD, TWO_CELL) == pytest.approx(
        TWO_CELL_INNER * TWO_CELL_TAIL, rel=1e-12)
    assert limit("region12", 1.0, 0.25, 0.25, STD, TWO_CELL) == 0.0


def test_region11_scaling_and_value():
    # A_x A_y M f: linear in M f, constant between shells, 0 below the first
    assert limit("region11", 1.0, 0.5, 0.5, STD, TWO_CELL) == pytest.approx(
        TWO_CELL_INNER ** 2, rel=1e-12)
    assert limit("region11", 2.5, 7.0, 0.5, STD, TWO_CELL) == 2.5 * limit(
        "region11", 1.0, 0.5, 0.5, STD, TWO_CELL)
    assert limit("region11", 1.0, 0.49, 0.5, STD, TWO_CELL) == 0.0
    tables = region_tables(grid_1x1(N=32), STD)
    for table in tables:
        assert np.all(np.diff(table.shells) > 0.0)
        assert np.all(np.diff(table.inner) >= 0.0) and np.all(np.diff(table.tail) <= 0.0)
        assert table.inner[0] == 0.0 < table.inner[1] and table.tail[-2] > 0.0 == table.tail[-1]


def test_region12_21_symmetry():
    # swapping (m, alpha, r1, n1) with (n, beta, r2, n2) exchanges the bounds
    for m, n in ((1, 1), (1, 2)):
        e = Exponents(m=m, n=n, alpha=0.4 * m, beta=0.6 * n, p=1.6, q=4.0)
        swapped = Exponents(m=n, n=m, alpha=0.6 * n, beta=0.4 * m, p=1.6, q=4.0)
        grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=16)
        grid_swapped = ProductGrid(m=n, n=m, half_width=1.0, points_per_axis=16)
        bounds = [(limit("region12", 1.3, r1, r2, e, grid),
                   limit("region21", 1.3, r2, r1, swapped, grid_swapped))
                  for r1, r2 in ((0.7, 0.9), (0.1, 0.3), (0.3, 0.1), (0.3, 3.0))]
        assert all(b12 == b21 for b12, b21 in bounds)
        assert sum(b12 > 0.0 for b12, _ in bounds) == 3


def test_mixed_regions_name_the_failing_tail():
    grid = grid_1x1()
    y_fails = Exponents(m=1, n=1, alpha=0.5, beta=0.9, p=4 / 3, q=4.0)
    with pytest.raises(ExponentError) as info:
        region_tables(grid, y_fails)
    assert info.value.condition == "tail_y"
    x_fails = Exponents(m=1, n=1, alpha=0.9, beta=0.5, p=4 / 3, q=4.0)
    with pytest.raises(ExponentError) as info:
        region_tables(grid, x_fails)
    assert info.value.condition == "tail_x"


def test_region22_rejects_failed_tail():
    # both tails fail: the x-block is named first, at any grid size
    e = Exponents(m=1, n=1, alpha=0.9, beta=0.9, p=4 / 3, q=4.0)
    for grid in (TWO_CELL, grid_1x1(N=32)):
        with pytest.raises(ExponentError) as info:
            limit("region22", 1.0, 1.0, 1.0, e, grid)
        assert info.value.condition == "tail_x"


def test_region11_constant_function_ratio_flat():
    # for constant f the observed region-11 sum tracks the bound across radii
    g = grid_1x1(N=32)
    f = GridFunction(g, np.ones(g.shape))
    from prodhls import region_split
    ratios = []
    for r in (0.25, 0.5, 1.0):
        rb = region_split(f, STD, (16, 16), r, r)
        ratios.append(rb.t11 / limit("region11", 1.0, r, r, STD, g))
    assert max(ratios) / min(ratios) < 1.25


# ---------------------------------------------------------------- radii

def test_radii_case1_unit():
    r1, r2 = balanced_radii(1.0, 1.0, 1.0, STD)
    assert r1 == pytest.approx(1.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, rel=1e-12)


def test_radii_case1_worked_example():
    # Mf/||f|| = 4, n1 = n2: r1^(-m/p) = 2, so r1 = 2^(-4/3)
    r1, r2 = balanced_radii(4.0, 1.0, 1.0, STD)
    assert r1 == pytest.approx(2.0 ** (-4.0 / 3.0), rel=1e-12)
    assert r2 == pytest.approx(2.0 ** (-4.0 / 3.0), rel=1e-12)


def test_radii_case1_root_solve_oracle():
    # independent root solve of the two balancing equations
    rng = np.random.default_rng(0)
    e = STD
    for _ in range(20):
        mf, n1, n2, fn = rng.uniform(0.05, 20.0, 4)
        r1, r2 = balanced_radii(mf / fn, n1, n2, e)

        # eliminate r2 using the second equation, then solve the first
        def second(rr1, rr2):
            return rr1 ** (-e.m / e.p) / rr2 ** (-e.n / e.p) - n1 / n2

        def first(rr1):
            rr2 = ((n2 / n1) * rr1 ** (-e.m / e.p)) ** (-e.p / e.n)
            return rr1 ** (-e.m / e.p) * rr2 ** (-e.n / e.p) - mf / fn

        sol = brentq(first, 1e-12, 1e12, xtol=1e-15, rtol=1e-14)
        assert r1 == pytest.approx(sol, rel=1e-10)
        assert abs(second(r1, r2)) <= 1e-10 * (n1 / n2)


def test_radii_case2_root_solve_oracle():
    rng = np.random.default_rng(1)
    e = STD
    for _ in range(20):
        gv, n1, n2, fn = rng.uniform(0.05, 20.0, 4)
        r1, r2 = balanced_radii(gv / fn ** 2, n1, n2, e)

        def first(rr1):
            rr2 = ((n2 / n1) * rr1 ** (-e.m / e.p)) ** (-e.p / e.n)
            return rr1 ** (-e.m / e.p) * rr2 ** (-e.n / e.p) - gv / fn ** 2

        sol = brentq(first, 1e-12, 1e12, xtol=1e-15, rtol=1e-14)
        assert r1 == pytest.approx(sol, rel=1e-10)


def test_radii_case2_unit():
    # g = ||f||^2 with equal slice norms pins both radii at 1
    r1, r2 = balanced_radii(2.25 / 1.5 ** 2, 1.0, 1.0, STD)
    assert r1 == pytest.approx(1.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, rel=1e-12)


def test_region12_bound_vanishes_under_support_exhaustion():
    # a radius past the box diameter empties the mixed region, and the
    # lattice tail constant, which sums the same offsets, vanishes with it
    from prodhls import region_split
    g = grid_1x1(N=16)
    f = gaussian(g)
    rb = region_split(f, STD, (8, 8), 0.5, 10.0)
    assert rb.t12 == 0.0
    assert limit("region12", 1.0, 0.5, 10.0, STD, g) == 0.0
    assert limit("region11", 1.0, 0.5, 10.0, STD, g) > 0.0


def test_radii_case2_swap_symmetry():
    gv, fn = 3.0, 1.4
    r1, r2 = balanced_radii(gv / fn ** 2, 2.0, 5.0, STD)
    s1, s2 = balanced_radii(gv / fn ** 2, 5.0, 2.0, STD)
    # swapping n1 and n2 swaps the roles of r1^(-m/p) and r2^(-n/p)
    assert r1 ** (-STD.m / STD.p) == pytest.approx(s2 ** (-STD.n / STD.p), rel=1e-12)
    assert r2 ** (-STD.n / STD.p) == pytest.approx(s1 ** (-STD.m / STD.p), rel=1e-12)


def test_radii_reject_degenerate_inputs():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            balanced_radii(bad, 1.0, 1.0, STD)
        with pytest.raises(ValueError):
            balanced_radii(1.0, bad, 1.0, STD)


@settings(max_examples=80, deadline=None)
@given(mf=positive, n1=positive, n2=positive, fn=positive)
def test_case1_balancing_identities(mf, n1, n2, fn):
    e = STD
    r1, r2 = balanced_radii(mf / fn, n1, n2, e)
    assert r1 ** (-e.m / e.p) * r2 ** (-e.n / e.p) == pytest.approx(mf / fn, rel=1e-12)
    assert r1 ** (-e.m / e.p) / r2 ** (-e.n / e.p) == pytest.approx(n1 / n2, rel=1e-12)
    # both sides of the balancing equation agree and collapse
    lhs = mf * r1 ** e.alpha * r2 ** e.beta
    rhs = fn * r1 ** (e.alpha - e.m / e.p) * r2 ** (e.beta - e.n / e.p)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert lhs == pytest.approx(final_bound(mf, fn, 1, e), rel=1e-12)
    # mixed-bound common value in terms of the computed quantities
    g = n1 * n2
    mixed = n1 * r1 ** e.alpha * r2 ** (e.beta - e.n / e.p)
    expected = (mf / fn) ** (e.p / e.q) * (g / (mf * fn)) ** 0.5 * fn
    assert mixed == pytest.approx(expected, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(gv=positive, n1=positive, n2=positive, fn=positive)
def test_case2_balancing_identities(gv, n1, n2, fn):
    e = STD
    r1, r2 = balanced_radii(gv / fn ** 2, n1, n2, e)
    assert r1 ** (-e.m / e.p) * r2 ** (-e.n / e.p) == pytest.approx(gv / fn ** 2, rel=1e-12)
    lhs = (gv / fn) * r1 ** e.alpha * r2 ** e.beta
    rhs = fn * r1 ** (e.alpha - e.m / e.p) * r2 ** (e.beta - e.n / e.p)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert lhs == pytest.approx(final_bound(gv, fn, 2, e), rel=1e-12)


def test_substituted_radii_make_est_ratio_one():
    r1, r2 = balanced_radii(2.0 / 1.25, 3.0, 0.5, STD)
    lhs = 2.0 * r1 ** STD.alpha * r2 ** STD.beta
    rhs = 1.25 * r1 ** (STD.alpha - 1 / STD.p) * r2 ** (STD.beta - 1 / STD.p)
    assert lhs / rhs == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------- one closed form per step

# balanced exponents alpha = m/2, beta = n/2 at every block-rank pair
BALANCED = [Exponents.from_balance(m, n, m / 2, n / 2, p)
            for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)) for p in (4 / 3, 1.5)]


@pytest.mark.parametrize("e", BALANCED, ids=lambda e: f"m{e.m}-n{e.n}-p{e.p:.3f}")
def test_closed_forms_equal_the_per_case_formulas(e):
    # the per-region and per-case formulas, written out, against the one
    # closed form of each step, bit for bit; the region limits read each
    # block's table at the number of shells inside its radius
    rng = np.random.default_rng(10 * e.m + e.n)
    grid = ProductGrid(m=e.m, n=e.n, half_width=1.0, points_per_axis=8)
    tables = region_tables(grid, e)

    def read(table, r):
        k = int(np.sum(table.shells <= r))
        return table.inner[k], table.tail[k]

    pq = e.p / e.q
    for _ in range(50):
        mf, gv, n1, n2, fn = 10.0 ** rng.uniform(-3, 3, 5)
        for case_id, value, ratio, final in ((1, mf, mf / fn, mf ** pq * fn ** (1.0 - pq)),
                                             (2, gv, gv / fn ** 2,
                                              gv ** pq * fn ** (1.0 - 2.0 * pq))):
            b = n1 / n2
            r1 = (ratio * b) ** (-e.p / (2.0 * e.m))
            r2 = (ratio / b) ** (-e.p / (2.0 * e.n))
            assert balanced_radii(value / fn ** case_id, n1, n2, e) == (r1, r2)
            assert final_bound(value, fn, case_id, e) == final
            (a_x, t_x), (a_y, t_y) = read(tables[0], r1), read(tables[1], r2)
            assert region_limits(mf, n1, n2, fn, r1, r2, tables) == {
                "region11": a_x * a_y * mf, "region12": a_x * t_y * n1,
                "region21": a_y * t_x * n2, "region22": t_x * t_y * fn}


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 2)])
def test_float_power_is_the_python_power(m, n):
    # the closed forms and the L^p roots take their powers with
    # np.float_power on arrays, and the reports pin the bytes of x ** e on
    # Python floats: both call the C library's pow, at every power the chain
    # takes with the reference exponents, over positive x from 1e-300 to
    # 1e300 (narrowed where x ** e would overflow)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    pq = e.p / e.q
    rng = np.random.default_rng(20 * m + n)
    for power in (-e.p / (2.0 * e.m), -e.p / (2.0 * e.n), -e.m / e.p, -e.n / e.p, e.alpha,
                  e.beta - e.n / e.p, pq, 1.0 - pq, 1.0 - 2.0 * pq, 1.0 / e.p, 2.0):
        span = 300.0 / max(1.0, abs(power))
        x = 10.0 ** rng.uniform(-span, span, 20_000)
        want = np.array([v ** power for v in x.tolist()])
        assert np.float_power(x, power).tobytes() == want.tobytes(), power


def test_closed_forms_take_arrays():
    # each closed form on arrays of nodes against its formula on Python
    # floats at each node, bit for bit
    e = Exponents.from_balance(2, 1, 1.0, 0.5, 4 / 3)
    pq = e.p / e.q
    rng = np.random.default_rng(3)
    ratio, n1, n2, value, f_norm = 10.0 ** rng.uniform(-3, 3, (5, 40))
    case_id = rng.integers(1, 3, 40)
    r1, r2 = balanced_radii(ratio, n1, n2, e)
    final = final_bound(value, f_norm, case_id, e)
    for k, (node_ratio, u, v, x, norm, cid) in enumerate(zip(
            *(a.tolist() for a in (ratio, n1, n2, value, f_norm, case_id)))):
        assert r1[k] == (node_ratio * (u / v)) ** (-e.p / (2.0 * e.m))
        assert r2[k] == (node_ratio / (u / v)) ** (-e.p / (2.0 * e.n))
        assert final[k] == x ** pq * norm ** (1.0 - cid * pq)
    with pytest.raises(ValueError, match="case_id must be 1 or 2, got 0"):
        final_bound(value, f_norm, np.where(np.arange(40) == 7, 0, case_id), e)


def test_final_bound_rejects_unknown_case():
    with pytest.raises(ValueError, match="case_id"):
        final_bound(1.0, 1.0, 3, STD)


def test_region_limits_reject_degenerate_inputs():
    tables = region_tables(grid_1x1(), STD)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            region_limits(1.0, 1.0, 1.0, 1.0, bad, 1.0, tables)
        with pytest.raises(ValueError):
            region_limits(1.0, 1.0, 1.0, bad, 1.0, 1.0, tables)


# ---------------------------------------------------------------- certificates

def gaussian(grid, sigma=0.2):
    return sample_function(
        grid, lambda x, y: np.exp(-(x ** 2 + y ** 2) / (2 * sigma ** 2)))


def test_certificate_gaussian_origin_cell():
    g = grid_1x1(N=64)
    f = gaussian(g)
    cert = certify_points(f, STD, [(32, 32)])[0]
    assert cert.case_id in (1, 2)
    assert math.isfinite(cert.ratio)
    assert 0 < cert.ratio < 16.0  # suite constant is O(10)
    assert cert.lhs <= 16.0 * cert.final_bound


def test_campaign_makes_one_maximal_call_per_instance_on_its_nodes(monkeypatch):
    # a campaign is one certify_instances call.  Each nonzero random instance
    # takes its maximal values in one node_maximals call on exactly the
    # campaign's sampled nodes and splits the whole field (region_sums) when
    # it is read; the nonzero gaussian and box instances have block factors
    # and take one block_maximals call and one block_region_sums call over
    # all four of them, on the same nodes, at the end.  No other maximal
    # function runs.  The dilations (20, 20) have ||f||_p = 0 on the grid:
    # the gaussian's p-th powers underflow although its values do not, and
    # the box and the random field hold no cell center; none reaches a
    # maximal pass
    import prodhls.harness as harness
    import prodhls.maximal as maximal
    events, received, stacked = [], [], []

    def counted(name, inner):
        def call(*args, **kwargs):
            events.append(name)
            if name in ("node_maximals", "block_maximals"):
                received.append(np.array(args[-1]))
            if name.startswith("block_"):
                stacked.append(len(args[0]))
            return inner(*args, **kwargs)
        return call

    for name in [*maximal.__all__, "region_sums", "block_region_sums"]:
        fn = getattr(maximal, name, None) or getattr(hedberg, name)
        if inspect.isfunction(fn):  # every binding of it, inside maximal too
            for module in (maximal, hedberg):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(name, fn))
    monkeypatch.setattr(harness, "certify_instances",
                        counted("certify", harness.certify_instances))
    cfg = ExperimentConfig.from_dict({
        "grid": {"m": 2, "n": 1, "half_width": 1.0, "points_per_axis": 8},
        "exponents": {"alpha": 1.0, "beta": 0.5, "p": 4 / 3},
        "families": ["gaussian", "box", "random"],
        "dilations": [[1.0, 1.0], [2.0, 2.0], [20.0, 20.0]], "points_stride": 4})
    report = harness.run_pointwise_campaign(cfg)
    assert [r.n_points for r in report.instances] == [8, 8, 0] * 3
    assert events == ["certify", *["node_maximals", "region_sums"] * 2, "block_maximals",
                      "block_region_sums"]
    assert stacked == [4, 4]
    nodes = [list(node) for node in itertools.product((0, 4), repeat=3)]
    assert [points.tolist() for points in received] == [nodes] * 3


def campaign_instances(grid, empty=20.0):
    """A gaussian, the gaussian dilated ``empty``-fold (empty on the grid:
    its largest cell's p-th power underflows), a random field and a box, as
    a campaign builds them."""
    gaussian, box = make_family("gaussian", grid), make_family("box", grid)
    return [tensor_instance(gaussian, 1.0, 1.0), tensor_instance(gaussian, empty, empty),
            make_family("random", grid, seed=4)(1.0, 1.0), tensor_instance(box, 0.5, 2.0)]


@pytest.mark.parametrize("m, n, N, empty", [(1, 1, 8, 24.0), (2, 1, 8, 20.0), (1, 2, 8, 20.0),
                                             (2, 2, 8, 20.0)])
def test_instances_certified_together_are_certified_alone(m, n, N, empty):
    # every column of each instance's table, and its ||f||_p, is the bytes
    # certify_points gives for the instance alone
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    fs = campaign_instances(grid, empty)
    points = _sample_points(grid, 2)
    together = certify_instances(iter(fs), e, points)
    assert [len(table) for table in together] == [len(points), 0, len(points), len(points)]
    for f, table in zip(fs, together):
        alone = certify_points(f, e, points)
        for name in (*(c.name for c in dataclasses.fields(alone)), "g_value", "lhs", "ratio"):
            assert np.asarray(getattr(table, name)).tobytes() == \
                np.asarray(getattr(alone, name)).tobytes(), name


@pytest.mark.parametrize("order", [(0, 3, 2), (0, 2, 3)], ids=["tensor-then-sampled",
                                                               "sampled-then-tensor"])
def test_first_failing_instance_is_reported(monkeypatch, order):
    # the limits of the third and the fourth instance are cut a millionfold,
    # so that both fail; the call raises the third's violation, the one it
    # raises alone, whether the sampled field comes third (certified as it
    # is read) or fourth (after it, the tensor products at the end)
    grid = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=8)
    e = Exponents.from_balance(2, 1, 1.0, 0.5, 4 / 3)
    fs = [campaign_instances(grid)[i] for i in (1, *order)]
    points = _sample_points(grid, 2)
    failing = {certify_points(f, e, points).f_norm for f in fs[2:]}
    real = hedberg.region_limits

    def cut(m_value, n1, n2, f_norm, *args):
        limits = real(m_value, n1, n2, f_norm, *args)
        return {k: v * 1e-6 for k, v in limits.items()} if f_norm in failing else limits

    monkeypatch.setattr(hedberg, "region_limits", cut)
    violations = []
    for f in fs[2:]:
        with pytest.raises(CertificateViolation) as alone:
            certify_points(f, e, points)
        violations.append((str(alone.value), alone.value.diagnostics))
    assert violations[0] != violations[1]
    with pytest.raises(CertificateViolation) as together:
        certify_instances(fs, e, points)
    assert (str(together.value), together.value.diagnostics) == violations[0]


def test_certify_instances_takes_one_grid():
    # instances on two grids are refused; no instances give no tables
    e = Exponents.from_balance(2, 1, 1.0, 0.5, 4 / 3)
    fs = [make_family("gaussian", ProductGrid(m=2, n=1, half_width=L, points_per_axis=8))(1.0, 1.0)
          for L in (1.0, 2.0)]
    with pytest.raises(ValueError, match="the instances must live on one grid"):
        certify_instances(fs, e, [(0, 0, 0)])
    assert certify_instances([], e, [(0, 0, 0)]) == []
    assert certify_instances(iter(()), e, [(0, 0, 0)]) == []


def test_closed_forms_run_once_per_bound_chain(monkeypatch):
    # two sampled fields and two nonempty tensor products make three bound
    # chains, one per sampled field and one stacked over the tensor
    # products: each closed form is called once per chain, on its columns
    grid = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=8)
    e = Exponents.from_balance(2, 1, 1.0, 0.5, 4 / 3)
    fs = [*campaign_instances(grid), make_family("random", grid, seed=5)(1.0, 1.0)]
    points = _sample_points(grid, 2)
    sizes = {"balanced_radii": [], "final_bound": []}
    for name, seen in sizes.items():
        def spy(first, *args, real=getattr(hedberg, name), seen=seen):
            seen.append(np.shape(first))
            return real(first, *args)
        monkeypatch.setattr(hedberg, name, spy)
    tables = certify_instances(fs, e, points)
    K = len(points)
    assert [len(table) for table in tables] == [K, 0, K, K, K]
    assert sizes == {"balanced_radii": [(K,), (K,), (2 * K,)],
                     "final_bound": [(K,), (K,), (2 * K,)]}


def test_certificates_do_not_depend_on_the_other_nodes():
    # (2,1): x is the outer block.  A call computes M f and n1 on its
    # nodes' x-slabs and n2 on their y-slices alone; every node's
    # certificate, in input order, is the one a call over every node gives
    grid = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=8)
    e = Exponents.from_balance(2, 1, 1.0, 0.5, 4 / 3)
    f = make_family("gaussian", grid)(1.0, 1.0)
    every = {c.point: c.to_json_dict()
             for c in certify_points(f, e, list(itertools.product(range(8), repeat=3)))}
    for nodes in ([(4, 4, 5), (0, 0, 5)], [(4, 4, 0), (0, 0, 4)], [(1, 1, 1)]):
        assert [c.to_json_dict() for c in certify_points(f, e, nodes)] == [
            every[node] for node in nodes]


@pytest.mark.parametrize("m, n, N, stride", [(2, 2, 8, 4), (2, 1, 16, 8)])
def test_sampled_certificates_match_every_node(m, n, N, stride):
    # a campaign on the stride sample prepares only the sample's slabs; its
    # certificates are the every-node campaign's at the shared nodes
    def campaign(points_stride):
        cfg = ExperimentConfig.from_dict({
            "grid": {"m": m, "n": n, "half_width": 1.0, "points_per_axis": N},
            "exponents": {"alpha": m / 2, "beta": n / 2, "p": 4 / 3},
            "families": ["gaussian", "random"], "dilations": [[1.0, 1.0]],
            "points_stride": points_stride, "seed": 3})
        return run_pointwise_campaign(cfg).instances

    for every, sampled in zip(campaign(1), campaign(stride), strict=True):
        by_point = {c.point: c.to_json_dict() for c in every.certificates}
        assert len(by_point) == N ** (m + n)
        assert len(sampled.certificates) == (N // stride) ** (m + n)
        for cert in sampled.certificates:
            assert cert.to_json_dict() == by_point[cert.point]


def test_campaign_computes_each_norm_once(monkeypatch):
    # certify_points takes ||f||_p once per instance, and the harness takes
    # none of its own: lp_norm of the sampled field for a random instance,
    # the two block norms for a gaussian or box instance, which takes no
    # lp_norm
    import prodhls.harness as harness
    calls, block_calls = [], []
    for module in (harness, hedberg):
        monkeypatch.setattr(module, "lp_norm", lambda f, p, real=lp_norm: (
            calls.append(f) or real(f, p)))
    real_block_norms = TensorProduct.block_norms
    monkeypatch.setattr(TensorProduct, "block_norms", lambda f, p: (
        block_calls.append(f) or real_block_norms(f, p)))
    cfg = ExperimentConfig.from_dict({
        "grid": {"m": 2, "n": 1, "half_width": 1.0, "points_per_axis": 8},
        "exponents": {"alpha": 1.0, "beta": 0.5, "p": 4 / 3},
        "families": ["gaussian", "box", "random"], "dilations": [[1.0, 1.0], [2.0, 2.0]]})
    harness.run_pointwise_campaign(cfg)
    assert len(calls) == len({id(f) for f in calls}) == 2
    assert all(isinstance(f, GridFunction) for f in calls)
    assert len(block_calls) == len({id(f) for f in block_calls}) == 4


@pytest.mark.parametrize("m, n, N", [(1, 1, 16), (2, 1, 8), (1, 2, 8), (2, 2, 6)])
@pytest.mark.parametrize("family", ["gaussian", "random"])
def test_certify_points_match_the_one_node_views(m, n, N, family):
    # the instance pass over every node, in a shuffled order, gives each
    # node the certificate its one-node view gives, bit for bit, with the
    # radii and final bound of the scalar closed forms on Python floats
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    f = make_family(family, grid, seed=9)(1.0, 1.0)
    points = np.array(list(itertools.product(range(N), repeat=m + n)))
    points = points[np.random.default_rng(4).permutation(len(points))]
    certs = certify_points(f, e, points)
    assert [c.point for c in certs] == [tuple(p) for p in points.tolist()]
    for cert in certs:
        value = cert.m_value if cert.case_id == 1 else cert.g_value
        assert (cert.r1, cert.r2) == balanced_radii(
            value / cert.f_norm ** cert.case_id, cert.n1, cert.n2, e)
        assert cert.final_bound == final_bound(value, cert.f_norm, cert.case_id, e)
        alone = certify_points(f, e, [cert.point])[0]
        # the JSON text also tells a -0.0 from a 0.0
        assert cert == alone and json.dumps(cert.to_json_dict()) == json.dumps(
            alone.to_json_dict())
    assert certify_points(f, e, np.empty((0, m + n), dtype=int)) == []


def test_certify_points_rejects_malformed_nodes():
    # no nodes is an empty sequence or a (0, 2) integer array; any other
    # empty array addresses no rank-2 node, and neither does the one-node
    # view of the empty multi-index
    f = gaussian(grid_1x1(N=8))
    for points, message in (([(1, 2, 3)], "do not address rank-2"),
                            ([(1.0, 2.0)], "do not address rank-2"),
                            (np.zeros((3, 0), dtype=int), r"shape \(3, 0\) .* do not address"),
                            ([[]], r"shape \(1, 0\) .* do not address"),
                            (np.zeros((0, 5), dtype=int), r"shape \(0, 5\) .* do not address"),
                            (np.zeros((2, 0, 3)), r"shape \(2, 0, 3\) .* do not address"),
                            (np.zeros((0, 2)), "dtype float64 do not address rank-2"),
                            ([(1, 2), (8, 0)], r"index \(8, 0\) lies outside"),
                            ([(1, 2), (0, -1)], r"index \(0, -1\) lies outside")):
        with pytest.raises(ValueError, match=message):
            certify_points(f, STD, points)
    with pytest.raises(ValueError, match=r"shape \(1, 0\) .* do not address rank-2"):
        certify_points(f, STD, [()])
    for points in ([], (), np.zeros((0, 2), dtype=np.int32)):
        assert certify_points(f, STD, points) == []


def test_certificate_case_rule():
    g = grid_1x1(N=32)
    f = gaussian(g)
    for cert in certify_points(f, STD, [(16, 16), (0, 0), (5, 28)]):
        case1 = cert.g_value <= cert.m_value * cert.f_norm
        assert cert.case_id == (1 if case1 else 2)
        if cert.case_id == 1:
            expected = final_bound(cert.m_value, cert.f_norm, 1, STD)
        else:
            expected = final_bound(cert.g_value, cert.f_norm, 2, STD)
        assert cert.final_bound == pytest.approx(expected, rel=1e-12)


def test_certificate_lhs_is_convolution_value():
    g = grid_1x1(N=32)
    f = gaussian(g)
    conv = convolve_direct(f, riesz_kernel(g, STD)).values
    for cert in certify_points(f, STD, [(16, 16), (3, 29), (10, 10)]):
        assert cert.lhs == pytest.approx(conv[cert.point], rel=1e-10)


def test_certificate_spike_degenerates_gracefully():
    g = grid_1x1(N=32)
    vals = np.zeros(g.shape)
    vals[16, 16] = 1.0 / g.cell_volume
    f = GridFunction(g, vals)
    for cert in certify_points(f, STD, [(16, 16), (15, 16), (0, 31)]):
        assert math.isfinite(cert.final_bound) and cert.final_bound > 0
        assert cert.lhs <= sum(cert.region_limits.values())


def test_certificate_homogeneity():
    g = grid_1x1(N=32)
    f = gaussian(g)
    c = 3.5
    scaled = GridFunction(g, c * f.values)
    points = [(16, 16), (4, 20), (10, 24)]
    for base, big in zip(certify_points(f, STD, points), certify_points(scaled, STD, points),
                         strict=True):
        # both sides of the case comparison scale as c^2; the label can
        # only flip when the comparison is an exact tie, where the two
        # cases produce the same radii and bound anyway
        tie_margin = abs(base.g_value - base.m_value * base.f_norm)
        if tie_margin > 1e-9 * base.m_value * base.f_norm:
            assert big.case_id == base.case_id
        assert big.lhs == pytest.approx(c * base.lhs, rel=1e-12)
        assert big.final_bound == pytest.approx(c * base.final_bound, rel=1e-12)
        assert big.r1 == pytest.approx(base.r1, rel=1e-12)
        assert big.r2 == pytest.approx(base.r2, rel=1e-12)


def test_zero_norm_has_no_certificates(monkeypatch):
    # the zero function, and a gaussian dilated until its p-th powers
    # underflow although its values do not: both have ||f||_p = 0 on the
    # grid, so no node gets a certificate, the one-node view raises, and
    # neither reaches the maximal pass
    monkeypatch.setattr(hedberg, "node_maximals", None)
    g = grid_1x1(N=128)
    narrow = make_family("gaussian", g, {"sigma": 0.125})(400.0, 400.0)
    assert np.any(narrow.values)
    for f in (GridFunction(g, np.zeros(g.shape)), narrow):
        assert certify_points(f, STD, [(64, 64), (0, 127)]) == []


def test_tensor_emptiness_rule_at_the_underflow_edge(monkeypatch):
    # a tensor product a(x) b(y) is empty when its largest cell's share of
    # ||f||_p^p, (max a max b)^p h^rank, is 0.0.  The 400-fold gaussian is,
    # although its block norms multiply to 2.0e-274: no certificates, the
    # one-node view raises, and no block maximal runs
    g = grid_1x1(N=128)
    fam = make_family("gaussian", g, {"sigma": 0.125})
    narrow = tensor_instance(fam, 400.0, 400.0)
    assert math.prod(narrow.block_norms(STD.p)) == pytest.approx(2.0e-274, rel=0.01)
    with monkeypatch.context() as patched:
        patched.setattr(hedberg, "block_maximals", None)
        assert certify_points(narrow, STD, [(64, 64), (0, 127)]) == []
    # over the edge the rule and the sampled field's ||f||_p = 0 agree,
    # except where every cell's share of ||f||_p^p is subnormal, so that
    # the sampled field sums subnormal shares
    empty = []
    for s in np.arange(360.0, 400.0, 0.25):
        f = fam(s, s)
        tensor_empty = not certify_points(tensor_instance(fam, s, s), STD, [(64, 64)])
        shares = f.values ** STD.p * g.cell_volume
        assert tensor_empty == (lp_norm(f, STD.p) == 0.0) or shares.max() < np.finfo(float).tiny
        empty.append(tensor_empty)
    assert empty[0] is False and empty[-1] is True


def test_tensor_product_rejects_malformed_factors():
    g = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=4)
    ones = np.ones((4, 4)), np.ones(4)
    tensor = TensorProduct(g, *ones)
    assert not tensor.x.flags.writeable and tensor.y.dtype == np.float64
    for x, y, message in ((np.ones(4), np.ones(4), r"x factor shape \(4,\)"),
                          (ones[0], np.ones((4, 4)), r"y factor shape \(4, 4\)"),
                          (-ones[0], ones[1], "x factor values must be finite and nonnegative"),
                          (ones[0], np.full(4, np.nan), "y factor values must be finite")):
        with pytest.raises(ValueError, match=message):
            TensorProduct(g, x, y)


def test_certificate_region_checks_recorded():
    g = grid_1x1(N=32)
    f = gaussian(g)
    cert = certify_points(f, STD, [(16, 16)])[0]
    assert set(cert.region_limits) == {"region11", "region12", "region21", "region22"}
    rb = cert.regions
    for name, value in (("region11", rb.t11), ("region12", rb.t12),
                        ("region21", rb.t21), ("region22", rb.t22)):
        assert value <= cert.region_limits[name] * (1 + 1e-9)


def brute_force_regions(f, exps, point, r1, r2):
    """The four region sums at ``point`` by a loop over every kernel offset."""
    grid = f.grid
    N = grid.points_per_axis
    centers = (np.arange(N) + 0.5) * grid.spacing - grid.half_width
    sums = {"t11": 0.0, "t12": 0.0, "t21": 0.0, "t22": 0.0}
    for offset in itertools.product(range(N), repeat=grid.rank):
        sample = tuple(i - j + N // 2 for i, j in zip(point, offset))
        if not all(0 <= t < N for t in sample):
            continue
        u = math.hypot(*centers[list(offset[:grid.m])])
        v = math.hypot(*centers[list(offset[grid.m:])])
        term = (f.values[sample] * u ** (exps.alpha - exps.m) * v ** (exps.beta - exps.n)
                * grid.cell_volume)
        sums[f"t{1 if u <= r1 else 2}{1 if v <= r2 else 2}"] += term
    return sums


def test_certificate_regions_and_radii_match_a_brute_force_split():
    # every recorded region sum is the split at the recorded radii, and the
    # recorded radii satisfy the balancing identities of their case; nodes
    # with both radii past the box put every offset in region 11, so only
    # nodes with a radius inside the box are checked
    cases = set()
    for m, n, N in ((1, 1, 16), (2, 1, 8)):
        grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
        e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
        f = make_family("tensor-box", grid)(1.0, 1.0)
        certs = certify_points(f, e, list(itertools.product(range(0, N, 2), repeat=m + n)))
        certs = [c for c in certs if min(c.r1, c.r2) < grid.half_width]
        assert len(certs) >= 16
        for cert in certs:
            cases.add(cert.case_id)
            for name, want in brute_force_regions(f, e, cert.point, cert.r1, cert.r2).items():
                assert abs(getattr(cert.regions, name) - want) <= 1e-12 * want, (cert.point, name)
            inner_x, inner_y = cert.r1 ** (-e.m / e.p), cert.r2 ** (-e.n / e.p)
            ratio = (cert.m_value / cert.f_norm if cert.case_id == 1
                     else cert.g_value / cert.f_norm ** 2)
            assert inner_x * inner_y == pytest.approx(ratio, rel=1e-12, abs=0.0)
            assert inner_x / inner_y == pytest.approx(cert.n1 / cert.n2, rel=1e-12, abs=0.0)
    assert cases == {1, 2}


def exhaustive_node_values(f, p):
    """M f from every dyadic product window, and the L^p slice norms of the
    M1 f and M2 f built from every dyadic block window, each indexed by the
    flattened x- and y-cells."""
    grid = f.grid
    N = grid.points_per_axis
    F = f.values.reshape(N ** grid.m, N ** grid.n)
    radii = [2 ** k for k in range(math.ceil(math.log2(N)) + 1)]
    x_windows = [block_windows(grid.m, N, rc) for rc in radii]
    y_windows = [block_windows(grid.n, N, rc) for rc in radii]
    mf = np.max([Wx @ F @ Wy.T / (cx * cy) for Wx, cx in x_windows for Wy, cy in y_windows],
                axis=0)
    m1 = np.max([Wx @ F / cx for Wx, cx in x_windows], axis=0)
    m2 = np.max([F @ Wy.T / cy for Wy, cy in y_windows], axis=0)
    n1 = (np.sum(m1 ** p, axis=1) * grid.spacing ** grid.n) ** (1.0 / p)
    n2 = (np.sum(m2 ** p, axis=0) * grid.spacing ** grid.m) ** (1.0 / p)
    return mf, n1, n2


@pytest.mark.parametrize("m, n, N", [(1, 1, 16), (2, 1, 8)])
@pytest.mark.parametrize("family", ["gaussian", "tensor-box", "random"])
def test_certificate_node_values_match_exhaustive_windows(m, n, N, family):
    # m_value, n1 and n2 of every node's certificate (so of each instance's
    # worst node) against maximal fields enumerated window by window
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    f = make_family(family, grid, seed=5)(1.0, 1.0)
    mf, n1, n2 = exhaustive_node_values(f, e.p)
    for cert in certify_points(f, e, list(itertools.product(range(N), repeat=m + n))):
        point = cert.point
        ix = np.ravel_multi_index(point[:m], (N,) * m)
        iy = np.ravel_multi_index(point[m:], (N,) * n)
        for name, want in (("m_value", mf[ix, iy]), ("n1", n1[ix]), ("n2", n2[iy])):
            got = getattr(cert, name)
            assert abs(got - want) <= 1e-12 * want, (point, name, got, want)


class BruteBlock:
    """A(r) and T(r) of one block by a loop over every kernel offset and
    every dyadic window of ``block_windows``."""

    def __init__(self, grid, dim, a, p):
        N = grid.points_per_axis
        self.dim, self.a, self.pc, self.cell = dim, a, p / (p - 1.0), grid.spacing ** dim
        centers = (np.arange(N) + 0.5) * grid.spacing - grid.half_width
        self.norms = {j: math.hypot(*centers[list(j)])
                      for j in itertools.product(range(N), repeat=dim)}
        self.shells = sorted(set(self.norms.values()))
        # seen from the block node N/2 - 1 on each axis, offset j lies on the
        # box cell N - 1 - j (N/2 - j cells away)
        node = np.ravel_multi_index((N // 2 - 1,) * dim, (N,) * dim)
        cell = {j: np.ravel_multi_index(tuple(N - 1 - i for i in j), (N,) * dim)
                for j in self.norms}
        windows = [block_windows(dim, N, 2 ** k) for k in range(math.ceil(math.log2(N)) + 1)]
        self.count = {}
        for s in self.shells:  # full count of the smallest window holding the ball
            ball = [cell[j] for j, u in self.norms.items() if u <= s]
            self.count[s] = next(full for W, full in windows if all(W[node, c] for c in ball))

    def inner(self, r):
        inside = [s for s in self.shells if s <= r]
        kern = [s ** (self.a - self.dim) for s in inside] + [0.0]
        return self.cell * sum((kern[k] - kern[k + 1]) * self.count[s]
                               for k, s in enumerate(inside))

    def tail(self, r):
        mass = sum(u ** ((self.a - self.dim) * self.pc) for u in self.norms.values() if u > r)
        return (self.cell * mass) ** (1.0 / self.pc)


LATTICE_RANKS = [(1, 1, 16), (2, 1, 8), (1, 2, 8), (2, 2, 6)]


# at N = 10 a later shell can need a smaller window than an earlier one,
# so the covering window must hold every shell up to its own
@pytest.mark.parametrize("m, n, N", LATTICE_RANKS + [(1, 1, 10), (2, 2, 10)])
def test_region_tables_match_a_brute_force_lattice_sum(m, n, N):
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    for table, brute in zip(region_tables(grid, e), (BruteBlock(grid, m, e.alpha, e.p),
                                                     BruteBlock(grid, n, e.beta, e.p))):
        levels = sorted(set(np.round(brute.shells, 12)))
        radii = [levels[0] / 2, *((a + b) / 2 for a, b in zip(levels, levels[1:])),
                 2 * levels[-1]]
        for r in radii:
            a_r, t_r = table.at(r)
            assert a_r == pytest.approx(brute.inner(r), rel=1e-12, abs=0.0), r
            assert t_r == pytest.approx(brute.tail(r), rel=1e-12, abs=0.0), r
        assert table.at(radii[0])[0] == 0.0 and table.at(radii[-1])[1] == 0.0


def test_region_tables_hold_one_shell_per_distance():
    # at N = 10 the five distances (k + 1/2) h of a 1-d block are five shells
    grid = grid_1x1(N=10)
    for table in region_tables(grid, STD):
        assert table.shells.size == 5
        assert table.shells == pytest.approx((np.arange(5) + 0.5) * grid.spacing, rel=1e-15)


@pytest.mark.parametrize("m, n, N", LATTICE_RANKS)
@pytest.mark.parametrize("family", ["gaussian", "random"])
def test_every_region_sum_within_its_brute_force_limit(m, n, N, family):
    # at every node, the recorded limits against ones built from the
    # brute-force A and T and the exhaustive-window node values, and every
    # region sum within them
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    f = make_family(family, grid, seed=7)(1.0, 1.0)
    mf, n1, n2 = exhaustive_node_values(f, e.p)
    bx, by = BruteBlock(grid, m, e.alpha, e.p), BruteBlock(grid, n, e.beta, e.p)
    utilization = dict.fromkeys(REGIONS, 0.0)
    for cert in certify_points(f, e, list(itertools.product(range(N), repeat=m + n))):
        point = cert.point
        ix = np.ravel_multi_index(point[:m], (N,) * m)
        iy = np.ravel_multi_index(point[m:], (N,) * n)
        a_x, t_x, a_y, t_y = (bx.inner(cert.r1), bx.tail(cert.r1),
                              by.inner(cert.r2), by.tail(cert.r2))
        limits = {"region11": a_x * a_y * mf[ix, iy], "region12": a_x * t_y * n1[ix],
                  "region21": a_y * t_x * n2[iy], "region22": t_x * t_y * cert.f_norm}
        for name, want in limits.items():
            assert cert.region_limits[name] == pytest.approx(want, rel=1e-11, abs=0.0)
            value = getattr(cert.regions, "t" + name[-2:])
            assert value <= want * (1.0 + 1e-9), (point, name, value, want)
            if want > 0.0:
                utilization[name] = max(utilization[name], value / want)
    assert max(utilization.values()) > 0.05  # the limits are not vacuous


def kernel_exponent_scaled(factor):
    """A ``region_sums`` mutation: the kernel exponents a - d scaled by ``factor``."""
    def mutate(real, f_norm):
        def sums(f, exps, points, r1, r2):
            scaled = dataclasses.replace(exps, alpha=exps.m + factor * (exps.alpha - exps.m),
                                         beta=exps.n + factor * (exps.beta - exps.n))
            return real(f, scaled, points, r1, r2)
        return sums
    return mutate


def region_column_scaled(column, factor):
    """A ``region_sums`` mutation: one region's column of the sums scaled by ``factor``."""
    def mutate(real, f_norm):
        def sums(*args):
            out = real(*args)
            out[:, column] *= factor
            return out
        return sums
    return mutate


def t11_nan(real, _):
    """A ``region_sums`` or ``block_region_sums`` mutation: every t11 reads
    NaN, which no comparison with its bound lets through."""
    def sums(*args):
        out = real(*args)
        out[..., 0] = math.nan
        return out
    return sums


def case2_ratio_over_f_norm(real, f_norm):
    """A ``balanced_radii`` mutation: the case-2 ratio G f / ||f||^2 passed
    as G f / ||f||, node by node of the arrays.  A case-2 ratio is exactly
    n1 n2 / ||f||^2; the random family has no case-1 node where the case-1
    ratio takes that value."""
    def radii(ratio, n1, n2, exps):
        return real(np.where(ratio == n1 * n2 / f_norm ** 2, ratio * f_norm, ratio), n1, n2,
                    exps)
    return radii


# id: (family, patched hedberg binding, mutation of the real binding given
# ||f||_p, the checks that fire).  A check is "violation:<region>" for a
# CertificateViolation, "lhs" for the lhs-versus-convolve_direct oracle,
# "node" for the node-value oracle, and "radii" for the balancing
# identities of the recorded case, which certify_points also checks.
MUTATIONS = {
    "unmutated": ("gaussian", "region_sums", lambda real, f_norm: real, set()),
    "swapped-radii": ("gaussian", "region_sums",
                      lambda real, f_norm: lambda f, e, pts, r1, r2: real(f, e, pts, r2, r1),
                      {"violation:region12", "violation:region21"}),
    "kernel-exponent-x0.9": ("gaussian", "region_sums", kernel_exponent_scaled(0.9), {"lhs"}),
    "kernel-exponent-x1.1": ("gaussian", "region_sums", kernel_exponent_scaled(1.1), {"lhs"}),
    "t11-doubled": ("gaussian", "region_sums", region_column_scaled(0, 2.0), {"lhs"}),
    "t22-dropped": ("gaussian", "region_sums", region_column_scaled(3, 0.0), {"lhs"}),
    "t11-nan": ("gaussian", "region_sums", t11_nan, {"violation:region11"}),
    "m-value-halved": ("gaussian", "node_maximals", lambda real, f_norm: lambda f, p, points: (
        lambda mf, n1, n2: (0.5 * mf, n1, n2))(*real(f, p, points)), {"node"}),
    # every region limit holds at any radii, and case 2 has no collapse
    # check: only the radius balance of the recorded case sees them
    "case2-ratio-over-f-norm": ("random", "balanced_radii", case2_ratio_over_f_norm,
                                {"violation:radii_balance"}),
}


def certify_each(f, exps, points, chunk=64):
    """Each node's certificate or the CertificateViolation it raises, in
    node order: the instance pass over each chunk of nodes, split where a
    pass is rejected (:func:`certify_run`)."""
    for start in range(0, len(points), chunk):
        yield from certify_run(f, exps, points[start:start + chunk])


def certify_run(f, exps, nodes):
    """The certificates or violations of ``nodes``, a list of multi-index
    tuples, from passes over runs of them.  A rejected pass names its first
    failing node: the nodes before it are certified in one pass, it yields
    the violation, which is the one a pass over it alone raises, and the
    next run is one node, doubled after each run that passes.  A chunk
    whose every node fails pays one pass a node, one that rarely fails a
    few passes a failing node."""
    size = len(nodes)
    while nodes:
        run = nodes[:size]
        try:
            yield from certify_points(f, exps, run)
            nodes, size = nodes[size:], 2 * size
        except CertificateViolation as exc:
            k = run.index(tuple(exc.diagnostics["point"]))
            yield from certify_run(f, exps, run[:k])
            yield exc
            nodes, size = nodes[k + 1:], 1


def checks_fired(f, certified, e):
    """The checks that fire when every node of the sampled field ``f`` is
    certified through ``certified``: f itself, or its block factors."""
    grid = f.grid
    m, n, N = grid.m, grid.n, grid.points_per_axis
    conv = convolve_direct(f, riesz_kernel(grid, e)).values
    mf, n1, n2 = exhaustive_node_values(f, e.p)
    fired = set()
    points = list(itertools.product(range(N), repeat=m + n))
    for point, cert in zip(points, certify_each(certified, e, points), strict=True):
        if isinstance(cert, CertificateViolation):
            fired.add("violation:" + cert.diagnostics["region"])
            continue
        if abs(cert.lhs - conv[point]) > 1e-10 * conv[point]:
            fired.add("lhs")
        ix = np.ravel_multi_index(point[:m], (N,) * m)
        iy = np.ravel_multi_index(point[m:], (N,) * n)
        if any(abs(getattr(cert, name) - want) > 1e-12 * want
               for name, want in (("m_value", mf[ix, iy]), ("n1", n1[ix]), ("n2", n2[iy]))):
            fired.add("node")
        ratio = (cert.m_value / cert.f_norm if cert.case_id == 1
                 else cert.g_value / cert.f_norm ** 2)
        if abs(cert.r1 ** (-e.m / e.p) * cert.r2 ** (-e.n / e.p) / ratio - 1.0) > 1e-12:
            fired.add("radii")
    return fired


@pytest.mark.parametrize("m, n, N", [(1, 1, 16), (2, 1, 8), (2, 2, 8)])
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_mutation_is_caught(monkeypatch, mutation, m, n, N):
    # every node of the family at each rank, certified under the mutation:
    # the set of checks that fire is exactly the expected one
    family, binding, mutate, expected = MUTATIONS[mutation]
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    f = make_family(family, grid, seed=5)(1.0, 1.0)
    # each call reads its nodes' values from one pass over every node and
    # its slice norms, the bytes a pass over its own nodes gives
    full, m1, m2 = maximal_fields(f)
    norms = slice_lp_norms_x(m1, e.p), slice_lp_norms_y(m2, e.p)
    monkeypatch.setattr(hedberg, "node_maximals", lambda f, p, points: (
        full.values[tuple(points.T)], norms[0][tuple(points[:, :m].T)],
        norms[1][tuple(points[:, m:].T)]))
    monkeypatch.setattr(hedberg, binding, mutate(getattr(hedberg, binding), lp_norm(f, e.p)))
    assert checks_fired(f, f, e) == expected


def x_outer_column_dropped(real, tensor):
    """A ``convolution._block_sums`` mutation: the x-block's sums over its
    outer offsets read 0.0, so t21 and t22 do.  ``block_region_sums`` sums
    the x-block first, then the y-block: the x-block call is every even
    one."""
    calls = itertools.count()

    def sums(stack, layout, nodes, r):
        out = real(stack, layout, nodes, r)
        if next(calls) % 2 == 0:
            assert stack.shape[1:] == tensor.x.shape
            out[..., 1] = 0.0
        return out
    return sums


# id: (module, patched binding, mutation of the real binding given the
# certified TensorProduct, the checks that fire), as in MUTATIONS, on the
# gaussian certified from its block factors
BLOCK_MUTATIONS = {
    "unmutated": (hedberg, "block_region_sums", lambda real, tensor: real, set()),
    "block-maximal-halved": (hedberg, "block_maximals", lambda real, tensor: (
        lambda f, points: (lambda m_x, m_y: (0.5 * m_x, m_y))(*real(f, points))), {"node"}),
    "block-radii-swapped": (hedberg, "block_region_sums", lambda real, tensor: (
        lambda f, e, pts, r1, r2: real(f, e, pts, r2, r1)),
        {"violation:region12", "violation:region21"}),
    "block-column-dropped": (convolution, "_block_sums", x_outer_column_dropped, {"lhs"}),
    "block-t11-nan": (hedberg, "block_region_sums", t11_nan, {"violation:region11"}),
}


@pytest.mark.parametrize("m, n, N", [(1, 1, 16), (2, 1, 8), (2, 2, 8)])
@pytest.mark.parametrize("mutation", list(BLOCK_MUTATIONS))
def test_block_mutation_is_caught(monkeypatch, mutation, m, n, N):
    # every node of the gaussian, certified from its block factors under the
    # mutation, against the oracles of the sampled field
    module, binding, mutate, expected = BLOCK_MUTATIONS[mutation]
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    fam = make_family("gaussian", grid)
    tensor = tensor_instance(fam, 1.0, 1.0)
    monkeypatch.setattr(module, binding, mutate(getattr(module, binding), tensor))
    assert checks_fired(fam(1.0, 1.0), tensor, e) == expected


def float_fields(table):
    """Every float field of each certificate of ``table``, one row per
    certificate: the coordinates, radii, node values, norm, final bound,
    region sums and region limits, read from the columns (the row views
    hold the same values)."""
    return np.column_stack([table.point_coordinates, table.r1, table.r2, table.m_value,
                            table.n1, table.n2, np.full(len(table), table.f_norm),
                            table.final_bound, table.regions, table.region_limits])


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("m, n, N", [(1, 1, 32), (2, 1, 16), (1, 2, 16), (2, 2, 8)])
def test_tensor_certificates_match_the_sampled_field(m, n, N, stride):
    # the campaign certifies each analytic family from its block factors;
    # at every node each float of the record is within 1e-12 of the record
    # certify_points gives for the sampled field f = fam(s, t), a region
    # sum is 0.0 on one path exactly when it is on the other, and case_id
    # differs only at a tie G f = M f ||f|| (see
    # test_tensor_inputs_tie_the_two_cases)
    cfg = ExperimentConfig.from_dict({
        "grid": {"m": m, "n": n, "half_width": 1.0, "points_per_axis": N},
        "exponents": {"alpha": m / 2, "beta": n / 2, "p": 4 / 3},
        "families": ["gaussian", "box", "tensor-box", "spike"],
        "dilations": [[0.5, 0.5], [1.0, 1.0], [2.0, 2.0]], "points_stride": stride})
    points = _sample_points(cfg.grid, stride)
    instances = run_pointwise_campaign(cfg).instances
    assert len(instances) == 12 and all(r.certificates for r in instances)
    for inst in instances:
        f = make_family(inst.family, cfg.grid)(inst.s, inst.t)
        sampled = certify_points(f, cfg.exponents, points)
        assert np.array_equal(inst.certificates.point, sampled.point)
        got, want = float_fields(inst.certificates), float_fields(sampled)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert np.array_equal(got == 0.0, want == 0.0)
        m_norm = sampled.m_value * sampled.f_norm
        ties = np.abs(sampled.g_value - m_norm) <= 1e-14 * sampled.m_value * sampled.f_norm
        flipped = inst.certificates.case_id != sampled.case_id
        assert not np.any(flipped & ~ties)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1)])
@pytest.mark.parametrize("family", ["gaussian", "tensor-box"])
def test_tensor_inputs_tie_the_two_cases(m, n, family):
    # for f(x, y) = a(x) b(y) every product window average factors, so
    # G f = M f ||f|| exactly and rounding alone picks case_id; both
    # branches then give the same radii and final bound
    N = 16
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    f = make_family(family, grid)(1.0, 1.0)
    mf, m1, m2 = maximal_fields(f)
    n1_field, n2_field = slice_lp_norms_x(m1, e.p), slice_lp_norms_y(m2, e.p)
    f_norm = lp_norm(f, e.p)
    g_field = np.multiply.outer(n1_field, n2_field)
    mf = mf.values
    m_norm = mf * f_norm
    assert np.all(np.abs(g_field - m_norm) <= 1e-14 * m_norm)
    for point in itertools.product(range(N), repeat=m + n):
        m_value = float(mf[point])
        n1, n2 = float(n1_field[point[:m]]), float(n2_field[point[m:]])
        case1 = (*balanced_radii(m_value / f_norm, n1, n2, e),
                 final_bound(m_value, f_norm, 1, e))
        case2 = (*balanced_radii(n1 * n2 / f_norm ** 2, n1, n2, e),
                 final_bound(n1 * n2, f_norm, 2, e))
        for a, b in zip(case1, case2, strict=True):
            assert abs(a - b) <= 1e-14 * abs(a), (point, case1, case2)


def violation_setup(case_id):
    """A function and its unpatched certificate at a node of the requested
    case whose four region sums are all positive."""
    g = grid_1x1(N=32)
    f = GridFunction(g, np.random.default_rng(21).uniform(0.1, 1.0, g.shape) * gaussian(g).values)
    for cert in certify_points(f, STD, [(12, 12), (12, 18), (15, 12), (15, 15)]):
        rb = cert.regions
        if cert.case_id == case_id and min(rb.t11, rb.t12, rb.t21, rb.t22) > 0.0:
            return f, cert
    raise AssertionError(f"no sampled node is in case {case_id} with four nonzero regions")


TINY_LIMIT = 1e-300


def shrink_limit(monkeypatch, name):
    """Make ``hedberg.region_limits`` return TINY_LIMIT for one region."""
    real = hedberg.region_limits
    monkeypatch.setattr(hedberg, "region_limits",
                        lambda *args: {**real(*args), name: TINY_LIMIT})


REGIONS = ("region11", "region12", "region21", "region22")


@pytest.mark.parametrize("case_id", [1, 2])
# the ids keep the test names the suite has always reported
@pytest.mark.parametrize("name", REGIONS, ids=[f"{r}-bound_{r}" for r in REGIONS])
def test_region_violation_diagnostics(monkeypatch, case_id, name):
    f, cert = violation_setup(case_id)
    shrink_limit(monkeypatch, name)
    with pytest.raises(CertificateViolation) as info:
        certify_points(f, STD, [cert.point])
    value = getattr(cert.regions, "t" + name[-2:])
    assert info.value.diagnostics == {
        "point": list(cert.point), "region": name, "value": value, "limit": TINY_LIMIT,
        "r1": cert.r1, "r2": cert.r2, "case_id": case_id}


def tiny_final_bound(value, *args):
    """A ``final_bound`` that returns TINY_LIMIT at every node of ``value``."""
    return np.full(np.shape(value), TINY_LIMIT)


def test_mixed_collapse_violation_diagnostics(monkeypatch):
    f, cert = violation_setup(1)
    monkeypatch.setattr(hedberg, "final_bound", tiny_final_bound)
    with pytest.raises(CertificateViolation) as info:
        certify_points(f, STD, [cert.point])
    mixed = cert.n1 * cert.r1 ** STD.alpha * cert.r2 ** (STD.beta - STD.n / STD.p)
    assert info.value.diagnostics == {
        "point": list(cert.point), "region": "mixed_collapse", "value": mixed,
        "limit": TINY_LIMIT, "r1": cert.r1, "r2": cert.r2, "case_id": 1}


def test_violation_checks_run_in_order(monkeypatch):
    # the region checks run in the order 11, 12, 21, 22, then the mixed collapse
    f, cert = violation_setup(1)
    monkeypatch.setattr(hedberg, "final_bound", tiny_final_bound)
    for name in ("region22", "region21", "region12", "region11"):
        shrink_limit(monkeypatch, name)  # each patch wraps the previous one
        with pytest.raises(CertificateViolation) as info:
            certify_points(f, STD, [cert.point])
        assert info.value.diagnostics["region"] == name


def force_limits(monkeypatch, forced):
    """Make ``hedberg.region_limits`` return TINY_LIMIT at each (position,
    region) of ``forced``: the position of a node in the pass's input."""
    real = hedberg.region_limits

    def limits(*args):
        out = {name: np.array(v, dtype=float) for name, v in real(*args).items()}
        for position, name in forced:
            out[name][position] = TINY_LIMIT
        return out
    monkeypatch.setattr(hedberg, "region_limits", limits)


def expected_violation(cert, name):
    """The diagnostics of ``cert``'s node failing ``name`` against TINY_LIMIT."""
    return {"point": list(cert.point), "region": name,
            "value": getattr(cert.regions, "t" + name[-2:]), "limit": TINY_LIMIT,
            "r1": cert.r1, "r2": cert.r2, "case_id": cert.case_id}


def test_violation_is_the_first_failing_node_in_input_order(monkeypatch):
    # two nodes fail; the one given first fails although it sorts after the
    # other, and it reports its first failing check in certify_points' order,
    # although the other node fails an earlier check
    g = grid_1x1(N=32)
    f = GridFunction(g, np.random.default_rng(21).uniform(0.1, 1.0, g.shape) * gaussian(g).values)
    points = [(20, 4), (16, 16), (2, 6), (12, 12), (8, 0)]
    certs = certify_points(f, STD, points)
    assert min(certs[1].regions.t12, certs[1].regions.t22, certs[3].regions.t11) > 0.0
    force_limits(monkeypatch, [(3, "region11"), (1, "region22"), (1, "region12")])
    with pytest.raises(CertificateViolation) as info:
        certify_points(f, STD, points)
    assert info.value.diagnostics == expected_violation(certs[1], "region12")
    assert str(info.value).endswith("at point (16, 16)")


def test_cli_violation_json_is_the_first_failing_node(monkeypatch, tmp_path):
    # the campaign certifies the stride-4 nodes in row-major order; the
    # violation.json of a run failing at two of them names the earlier one,
    # with the keys and values of its diagnostics
    raw = {"grid": {"m": 1, "n": 1, "half_width": 1.0, "points_per_axis": 16},
           "exponents": {"alpha": 0.5, "beta": 0.5, "p": 4 / 3}, "families": ["gaussian"],
           "points_stride": 4}
    certs = run_pointwise_campaign(ExperimentConfig.from_dict(raw)).instances[0].certificates
    assert [certs[10].point, certs[13].point] == [(8, 8), (12, 4)]
    assert min(certs[10].regions.t21, certs[10].regions.t22, certs[13].regions.t11) > 0.0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    force_limits(monkeypatch, [(13, "region11"), (10, "region22"), (10, "region21")])
    assert cli_main(["pointwise", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["violation.json"]
    written = json.loads((tmp_path / "out" / "violation.json").read_text())
    assert written == expected_violation(certs[10], "region21")


@pytest.mark.parametrize("case_id", [1, 2])
def test_unbalanced_radii_violation_diagnostics(monkeypatch, case_id):
    # r1 off by 1e-9 relative no longer balances the recorded case; that
    # check runs before the region checks, so a failing region11 is not seen
    f, cert = violation_setup(case_id)
    real = hedberg.balanced_radii
    monkeypatch.setattr(hedberg, "balanced_radii", lambda *args: (
        lambda r1, r2: (r1 * (1.0 + 1e-9), r2))(*real(*args)))
    shrink_limit(monkeypatch, "region11")
    with pytest.raises(CertificateViolation) as info:
        certify_points(f, STD, [cert.point])
    diagnostics = info.value.diagnostics
    # both residuals are about (m/p) 1e-9, from r1^(-m/p)
    assert diagnostics.pop("value") == pytest.approx(STD.m / STD.p * 1e-9, rel=1e-3)
    assert diagnostics == {
        "point": list(cert.point), "region": "radii_balance", "limit": 1e-12,
        "r1": cert.r1 * (1.0 + 1e-9), "r2": cert.r2, "case_id": case_id}


def test_certificate_rejects_inadmissible_exponents():
    g = grid_1x1(N=16)
    f = gaussian(g)
    bad = Exponents(m=1, n=1, alpha=0.7, beta=0.5, p=4 / 3, q=4.0)
    with pytest.raises(ExponentError):
        certify_points(f, bad, [(8, 8)])


def test_certificate_json_round_trip(tmp_path):
    g = grid_1x1(N=32)
    f = gaussian(g)
    table = certify_points(f, STD, [(16, 16)])
    [cert] = table
    d = cert.to_json_dict()
    assert d["schema_version"] == 1
    assert HedbergCertificate.from_json_dict(json.loads(json.dumps(d))) == cert
    instance = InstanceResult(family="gaussian", s=1.0, t=1.0, certificates=table)
    report = PointwiseReport(instances=[instance], max_ratio=cert.ratio,
                             family_stability={"gaussian": None},
                             stability_factor=2.0, suite_constant=None,
                             passed=True)
    cfg = ExperimentConfig(grid=g, exponents=STD)
    path = write_certificates_json(tmp_path / "certs.json", report, cfg)
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    [written] = payload["instances"][0]["certificates"]
    assert HedbergCertificate.from_json_dict(written).to_json_dict() == d


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2)])
def test_certificates_json_holds_the_report_records(monkeypatch, tmp_path, m, n):
    # the compact file parses to exactly the records of the report: every
    # float equal, and each record reads back as its certificate; the
    # writer builds 5 records at a time, so most instances end in a part chunk
    monkeypatch.setattr(harness, "_WRITE_ROWS", 5)
    cfg = ExperimentConfig.from_dict({
        "grid": {"m": m, "n": n, "half_width": 1.0, "points_per_axis": 8},
        "exponents": {"alpha": m / 2, "beta": n / 2, "p": 4 / 3},
        "families": ["gaussian", "random"], "dilations": [[1.0, 1.0], [2.0, 0.5]],
        "seed": 5, "points_stride": 2})
    report = run_pointwise_campaign(cfg)
    text = write_certificates_json(tmp_path / "certificates.json", report, cfg).read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert len(payload["instances"]) == len(report.instances) == 4
    for entry, inst in zip(payload["instances"], report.instances):
        assert (entry["family"], entry["s"], entry["t"]) == (inst.family, inst.s, inst.t)
        assert len(entry["certificates"]) == inst.n_points == 4 ** (m + n)
        for record, cert in zip(entry["certificates"], inst.certificates, strict=True):
            assert record == cert.to_json_dict()
            assert HedbergCertificate.from_json_dict(record) == cert


REFERENCE_POINTWISE = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "pointwise.json").read_text())


def pointwise_2d_config(m, n, N):
    """A pointwise config with a 2-d block, as the benchmark builds it: the
    reference families and family parameters, alpha = m/2, beta = n/2."""
    return dict(REFERENCE_POINTWISE, grid={"m": m, "n": n, "half_width": 1.0,
                                           "points_per_axis": N},
                exponents={"alpha": m / 2, "beta": n / 2, "p": 4 / 3},
                dilations=[[0.5, 0.5], [1.0, 1.0], [2.0, 2.0]])


def assert_written_as_json_dumps(path, report, cfg, read_back=True):
    """certificates.json holds the bytes json.dumps writes for the row
    views' records, and every view reads back from its record (unless
    ``read_back`` is false: a record that is not finite does not)."""
    text = write_certificates_json(path, report, cfg).read_text()
    assert text == json.dumps({
        "config_sha256": cfg.sha256(), "library_version": prodhls.__version__,
        "schema_version": 1, "instances": [{
            "family": r.family, "s": r.s, "t": r.t,
            "certificates": [view.to_json_dict() for view in r.certificates],
        } for r in report.instances]}, sort_keys=True, separators=(",", ":")) + "\n"
    for r in report.instances if read_back else ():
        for view in r.certificates:
            assert HedbergCertificate.from_json_dict(view.to_json_dict()) == view


@pytest.mark.parametrize("raw, empty", [
    pytest.param(REFERENCE_POINTWISE, 0, id="reference"),
    pytest.param(pointwise_2d_config(2, 1, 32), 0, id="pointwise-21"),
    pytest.param(pointwise_2d_config(2, 2, 16), 0, id="pointwise-22"),
    # the gaussian dilated 400-fold has no certificates at N=128
    pytest.param(dict(REFERENCE_POINTWISE, families=["gaussian"],
                      dilations=[[400.0, 400.0], [1.0, 1.0]]), 1, id="empty-instance"),
])
def test_certificates_json_is_json_dumps_of_the_row_views(tmp_path, raw, empty):
    cfg = ExperimentConfig.from_dict(raw)
    report = run_pointwise_campaign(cfg)
    assert sum(r.n_points == 0 for r in report.instances) == empty
    assert_written_as_json_dumps(tmp_path / "certificates.json", report, cfg)


def test_certificates_json_writes_each_float_as_json_does(tmp_path):
    # a hand-built table: signed zeros, the least subnormal, the floats where
    # repr switches to exponent notation, and a float repr writes in 17 digits
    values = np.array([0.0, -0.0, 5e-324, 1e-5, 1e16, 1e22, 0.1 + 0.2])
    positive = values[2:]

    def cycle(column, shift):
        return np.resize(np.roll(column, -shift), len(values))

    table = CertificateTable(
        point=np.arange(2 * len(values)).reshape(-1, 2),
        point_coordinates=np.column_stack([values, cycle(values, 3)]),
        case_id=cycle([1, 2], 0), r1=cycle(positive, 0), r2=cycle(positive, 1),
        regions=np.column_stack([cycle(values, j) for j in range(4)]),
        m_value=cycle(positive, 2), n1=cycle(positive, 3), n2=cycle(positive, 4),
        final_bound=cycle(positive[1:], 0),
        region_limits=np.column_stack([cycle(values, j) for j in range(4, 8)]),
        f_norm=0.1 + 0.2)
    views = list(table)
    for column in ("g_value", "lhs", "ratio"):
        assert getattr(table, column).tolist() == [getattr(v, column) for v in views]
    assert table == views and table[-1] == views[-1] and table != views[:-1]
    cfg = ExperimentConfig(grid=grid_1x1(N=16), exponents=STD)
    report = PointwiseReport(instances=[InstanceResult("gaussian", 1.0, -0.0, table)] * 2,
                             max_ratio=0.0, family_stability={}, stability_factor=2.0,
                             suite_constant=None, passed=True)
    assert_written_as_json_dumps(tmp_path / "certificates.json", report, cfg)
    # json writes a float that is not finite as a bare constant, not by repr
    wild = np.array([math.inf, -math.inf, math.nan])
    table = dataclasses.replace(
        table, regions=np.column_stack([cycle(wild, 0)] + [cycle(values, j) for j in range(1, 4)]),
        region_limits=np.column_stack([cycle(values, j) for j in range(4, 7)] + [cycle(wild, 1)]))
    report.instances[:] = [InstanceResult("gaussian", 1.0, -0.0, table)]
    assert_written_as_json_dumps(tmp_path / "wild.json", report, cfg, read_back=False)
    assert all(word in (tmp_path / "wild.json").read_text()
               for word in ("Infinity", "-Infinity", "NaN"))


@pytest.mark.parametrize("m, n, N", [(1, 1, 64), (2, 2, 8)])
def test_certificate_table_holds_at_most_200_bytes_a_node(m, n, N):
    # every node of a 4096-node grid: the table is its columns and no more
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    e = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    fam = make_family("gaussian", grid)
    f = tensor_instance(fam, 1.0, 1.0)
    points = list(itertools.product(range(N), repeat=m + n))
    certify_points(f, e, points[:1])  # the tables and kernel factors are built once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = certify_points(f, e, points)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table) == 4096 and held <= 200 * len(table)


def test_certify_and_write_peak_memory(tmp_path):
    # certifying and writing every node of a (1,1) N=64 gaussian from its
    # blocks peaked at 6.96 MB traced (15.1 MB with one record object per
    # node); 8 MiB allows for other Python and numpy releases
    grid = grid_1x1(N=64)
    fam = make_family("gaussian", grid)
    f = tensor_instance(fam, 1.0, 1.0)
    points = list(itertools.product(range(64), repeat=2))
    cfg = ExperimentConfig(grid=grid, exponents=STD)
    certify_points(f, STD, points[:1])
    gc.collect()
    tracemalloc.start()
    try:
        report = PointwiseReport(instances=[InstanceResult(
            "gaussian", 1.0, 1.0, certify_points(f, STD, points))], max_ratio=0.0,
            family_stability={}, stability_factor=2.0, suite_constant=None, passed=True)
        write_certificates_json(tmp_path / "certificates.json", report, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.instances[0].n_points == 4096 and peak < 8 * 2 ** 20


def test_certificate_writer_peak_memory(tmp_path):
    # the writer builds the records of a few thousand rows at a time: writing
    # every node of a (2,1) N=32 gaussian (32,768 records, 20.6 MB) peaked at
    # 0.60 times the file traced, and at 2.54 times with each instance's
    # records built at once
    cfg = ExperimentConfig.from_dict({
        "grid": {"m": 2, "n": 1, "half_width": 1.0, "points_per_axis": 32},
        "exponents": {"alpha": 1.0, "beta": 0.5, "p": 4 / 3},
        "families": ["gaussian"], "points_stride": 1})
    report = run_pointwise_campaign(cfg)
    gc.collect()
    tracemalloc.start()
    try:
        path = write_certificates_json(tmp_path / "certificates.json", report, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.instances[0].n_points == 32 ** 3
    assert peak < 0.75 * path.stat().st_size


def test_certificate_json_keys_are_schema_1():
    g = grid_1x1(N=32)
    cert = certify_points(gaussian(g), STD, [(16, 16)])[0]
    d = cert.to_json_dict()
    assert set(d) == {"schema_version", "point", "point_coordinates", "case_id", "r1", "r2",
                      "regions", "m_value", "g_value", "n1", "n2", "f_norm", "final_bound",
                      "lhs", "ratio", "region_limits", "slack_factors"}
    assert set(d["regions"]) == {"t11", "t12", "t21", "t22"}
    regions = {"region11", "region12", "region21", "region22"}
    assert set(d["region_limits"]) == set(d["slack_factors"]) == regions
    assert json.loads(json.dumps(d)) == d  # JSON data only: lists, not tuples
    assert d["lhs"] == cert.regions.total and d["ratio"] == d["lhs"] / d["final_bound"]


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d.pop("n1"), r"missing keys \['n1'\]", id="missing-key"),
    pytest.param(lambda d: d.update(extra=1.0), r"unknown keys \['extra'\]", id="unknown-key"),
    pytest.param(lambda d: d["regions"].pop("t22"), r"regions: missing keys \['t22'\]",
                 id="missing-region"),
    pytest.param(lambda d: d["regions"].update(t33=0.0), r"regions: .*unknown keys \['t33'\]",
                 id="unknown-region"),
    pytest.param(lambda d: d.update(lhs=d["lhs"] * (1.0 + 1e-9)), "certificate lhs",
                 id="edited-lhs"),
    pytest.param(lambda d: d.update(ratio=2.0 * d["ratio"]), "certificate ratio",
                 id="edited-ratio"),
    pytest.param(lambda d: d["regions"].update(t11=str(d["regions"]["t11"])),
                 "t11 must be a number", id="string-region"),
    pytest.param(lambda d: d.update(region_limits={"bogus": "x"}),
                 r"region map: missing keys \['region11', .*unknown keys \['bogus'\]",
                 id="unknown-limit"),
    pytest.param(lambda d: d.update(region_limits={"region11": "1e9"}),
                 r"region map: missing keys \['region12', 'region21', 'region22'\]",
                 id="partial-limits"),
    pytest.param(lambda d: d["region_limits"].update(region11="1e9"),
                 "region11 must be a number", id="string-limit"),
    pytest.param(lambda d: d["slack_factors"].update(region22=True),
                 "region22 must be a number", id="boolean-slack"),
    pytest.param(lambda d: d.update(slack_factors={}),
                 r"slack_factors: missing keys \['region11', ", id="empty-slacks"),
    pytest.param(lambda d: d.update(region_limits={}),
                 r"region map: missing keys \['region11', ", id="empty-limits"),
    pytest.param(lambda d: d["slack_factors"].update(region22=2.0),
                 "slack_factors .* must be 1.0", id="inflated-slack"),
    pytest.param(lambda d: d["slack_factors"].update(region22=0.5),
                 "slack_factors .* must be 1.0", id="shrunk-slack"),
    pytest.param(lambda d: d.update(g_value=2.0 * d["g_value"]), "certificate g_value",
                 id="doubled-g"),
    # with n1 = n2 = 1 the derived g_value is 1.0, which a JSON true equals
    pytest.param(lambda d: d.update(n1=1.0, n2=1.0, g_value=True),
                 "g_value must be a number", id="boolean-g"),
    pytest.param(lambda d: d.update(r1=math.inf), "r1 must be finite", id="inf-radius"),
    pytest.param(lambda d: d.update(r2=-0.5), "r2 must be positive", id="negative-radius"),
    pytest.param(lambda d: d.update(m_value=math.nan), "m_value must be finite",
                 id="nan-m-value"),
    pytest.param(lambda d: d.update(n1=0.0), "n1 must be positive", id="zero-n1"),
    pytest.param(lambda d: d.update(n2=-1.0), "n2 must be positive", id="negative-n2"),
    pytest.param(lambda d: d.update(f_norm=-1.0), "f_norm must be positive",
                 id="negative-norm"),
    pytest.param(lambda d: d.update(final_bound=0.0), "final_bound must be positive",
                 id="zero-final-bound"),
    pytest.param(lambda d: d["regions"].update(t12=-1e-3), "t12 must be >= 0",
                 id="negative-region"),
    pytest.param(lambda d: d["regions"].update(t21=math.nan), "t21 must be finite",
                 id="nan-region"),
    pytest.param(lambda d: d["region_limits"].update(region12=-1.0), "region12 must be >= 0",
                 id="negative-limit"),
    pytest.param(lambda d: d["region_limits"].update(region21=math.inf),
                 "region21 must be finite", id="inf-limit"),
    pytest.param(lambda d: d.update(point_coordinates=[math.inf, 0.0]),
                 "point_coordinates must be finite", id="inf-coordinate"),
    pytest.param(lambda d: d.update(point=["8", 8.9]), "point must be an integer",
                 id="string-float-point"),
    pytest.param(lambda d: d.update(point=[16, 16.0]), "point must be an integer",
                 id="float-point"),
    pytest.param(lambda d: d.update(point=[True, 16]), "point must be an integer",
                 id="boolean-point"),
    pytest.param(lambda d: d.update(point="88"), "point must be a list", id="string-point"),
    pytest.param(lambda d: d.update(point=[16, 16, 16]),
                 r"point \[16, 16, 16\] does not match its 2 point_coordinates",
                 id="rank-3-point"),
    pytest.param(lambda d: d.update(case_id="1"), "case_id must be an integer",
                 id="string-case"),
    pytest.param(lambda d: d.update(case_id=True), "case_id must be an integer",
                 id="boolean-case"),
    pytest.param(lambda d: d.update(case_id=1.0), "case_id must be an integer",
                 id="float-case"),
    pytest.param(lambda d: d.update(case_id=7), "case_id must be 1 or 2", id="case-7"),
    pytest.param(lambda d: d.update(r1="0.5"), "r1 must be a number", id="string-radius"),
    pytest.param(lambda d: d.update(f_norm=True), "f_norm must be a number",
                 id="boolean-norm"),
    pytest.param(lambda d: d.update(point_coordinates=["0.0", 0.0]),
                 "point_coordinates must be a number", id="string-coordinate"),
])
def test_certificate_json_rejects_malformed(edit, message):
    g = grid_1x1(N=32)
    cert = certify_points(gaussian(g), STD, [(16, 16)])[0]
    d = json.loads(json.dumps(cert.to_json_dict()))
    edit(d)
    with pytest.raises(ValueError, match=message):
        HedbergCertificate.from_json_dict(d)


def test_slack_factors_positive_and_stable():
    # the limits are lattice sums, so the record keeps no slack and schema 1
    # writes 1.0 for every region at every node
    g = grid_1x1(N=16)
    certs = certify_points(gaussian(g), STD, list(itertools.product(range(16), repeat=2)))
    assert len(certs) == 256
    for cert in certs:
        d = cert.to_json_dict()
        assert d["slack_factors"] == dict.fromkeys(REGIONS, 1.0)
