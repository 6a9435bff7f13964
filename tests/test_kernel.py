"""Exponent admissibility data, kernel values, layer-cake envelopes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from prodhls import (Exponents, ProductGrid, ball_volume, layer_cake,
                     profile_ball_integral, riesz_kernel, sphere_surface)


# ---------------------------------------------------------------- exponents

def test_balanced_constructor_derives_q():
    e = Exponents.from_balance(1, 1, 0.5, 0.5, 4 / 3)
    assert e.q == pytest.approx(4.0, rel=1e-12)
    assert e.violation is None


def test_balanced_constructor_m2():
    e = Exponents.from_balance(2, 1, 1.0, 0.5, 1.5)
    assert e.q == pytest.approx(6.0, rel=1e-12)
    assert e.violation is None


def test_unbalanced_flag():
    e = Exponents(m=1, n=1, alpha=0.7, beta=0.5, p=4 / 3, q=4.0)
    assert e.violation == "balance_alpha"


@pytest.mark.parametrize("e, condition", [
    (Exponents(m=1, n=1, alpha=0.75 + 5e-13, beta=0.75, p=4 / 3, q=1e13), "tail_x"),
    (Exponents(m=1, n=1, alpha=0.75 - 5e-13, beta=0.75 + 5e-13, p=4 / 3, q=1e13), "tail_y"),
], ids=["tail_x", "tail_y"])
def test_tolerance_balanced_tuple_can_fail_a_tail(e, condition):
    # balanced to BALANCE_TOL with 1/q = 1e-13, yet alpha/m (or beta/n)
    # sits above 1/p, so that block's kernel tail is not integrable
    assert e.violation == condition


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2)])
@settings(max_examples=200, deadline=None)
@given(p=st.floats(min_value=1.0 + 1e-6, max_value=1e3),
       u=st.floats(min_value=1e-6, max_value=1.0))
def test_balance_with_finite_q_is_admissible(m, n, p, u):
    # alpha/m = 1/p - 1/q < 1/p is (m - alpha) p' > m, so a balanced tuple
    # with a finite q meets both tail conditions
    t = u * (1.0 / p - 1e-6)
    e = Exponents.from_balance(m, n, m * t, n * t, p)
    assume(e.q <= 1e6)
    assert e.violation is None


def test_mismatched_ratios_rejected():
    with pytest.raises(ValueError):
        Exponents.from_balance(1, 1, 0.5, 1 / 3, 4 / 3)


def test_range_validation():
    with pytest.raises(ValueError):
        Exponents(m=1, n=1, alpha=1.0, beta=0.5, p=4 / 3, q=4.0)
    with pytest.raises(ValueError):
        Exponents(m=1, n=1, alpha=0.5, beta=0.5, p=1.0, q=4.0)
    with pytest.raises(ValueError):
        Exponents(m=1, n=1, alpha=0.5, beta=0.5, p=4.0, q=2.0)
    with pytest.raises(ValueError):
        Exponents(m=1, n=1, alpha=0.5, beta=0.5, p=4 / 3, q=math.inf)


# ---------------------------------------------------------------- kernel values

def test_kernel_value_at_quarter_points():
    # centers of the N=4, L=1 grid include 1/4; (1/4)^(-1/2) * (1/4)^(-1/2) = 4
    g = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=4)
    e = Exponents.from_balance(1, 1, 0.5, 0.5, 4 / 3)
    k = riesz_kernel(g, e)
    centers = g.axis_centers()
    i = int(np.argmin(np.abs(centers - 0.25)))
    assert centers[i] == pytest.approx(0.25, abs=1e-15)
    assert k.values[i, i] == pytest.approx(4.0, rel=1e-13)


def test_kernel_value_at_unit_radius():
    # centers sit at odd multiples of h/2; N = 6, L = 2 puts nodes at 1
    g = ProductGrid(m=1, n=1, half_width=2.0, points_per_axis=6)
    centers = g.axis_centers()
    i = int(np.argmin(np.abs(centers - 1.0)))
    assert centers[i] == pytest.approx(1.0, abs=1e-15)
    for alpha in (0.25, 0.5, 0.75):
        e = Exponents.from_balance(1, 1, alpha, alpha, 1.2)
        k = riesz_kernel(g, e)
        assert k.values[i, i] == pytest.approx(1.0, rel=1e-13)


def test_kernel_power_law_homogeneity():
    # the x-factor satisfies a(2 r) = 2^(alpha - m) a(r) exactly as a power law
    e = Exponents.from_balance(1, 1, 0.5, 0.5, 4 / 3)
    r = np.linspace(0.1, 1.0, 17)
    factor = lambda rr: rr ** (e.alpha - e.m)
    assert np.allclose(factor(2 * r), 2.0 ** (e.alpha - e.m) * factor(r), rtol=1e-14)


def test_kernel_separability_exact():
    g = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=16)
    e = Exponents.from_balance(1, 1, 0.5, 0.5, 4 / 3)
    k = riesz_kernel(g, e)
    xf = np.abs(g.axis_centers()) ** (e.alpha - 1)
    yf = np.abs(g.axis_centers()) ** (e.beta - 1)
    assert np.array_equal(k.values, np.outer(xf, yf))


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_kernel_bytes_match_outer_of_block_factors(m, n):
    g = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=6)
    e = Exponents.from_balance(m, n, 0.4 * m, 0.4 * n, 1.5)
    xf = g.x_norms() ** (e.alpha - m)
    yf = g.y_norms() ** (e.beta - n)
    k = riesz_kernel(g, e)
    assert k.values.shape == g.shape
    assert k.values.tobytes() == np.multiply.outer(xf, yf).tobytes()


def test_kernel_finite_everywhere():
    g = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=8)
    e = Exponents.from_balance(2, 1, 1.0, 0.5, 1.5)
    k = riesz_kernel(g, e)
    assert np.all(np.isfinite(k.values))


# ---------------------------------------------------------------- layer cake

def quad_profile_integral(dim, exponent, R):
    """Independent quadrature oracle for the kernel mass over a ball."""
    if dim == 1:
        val, _ = quad(lambda r: 2.0 * r ** (exponent - 1.0), 0.0, R)
    else:
        val, _ = quad(lambda r: 2.0 * math.pi * r * r ** (exponent - 2.0), 0.0, R)
    return val


def test_layer_cake_rejects_degenerate_profiles():
    with pytest.raises(ValueError):
        layer_cake(1.0, 1, 1.0, 10)  # constant profile: exponent == dim
    with pytest.raises(ValueError):
        layer_cake(0.0, 1, 1.0, 10)
    with pytest.raises(ValueError):
        layer_cake(2.5, 2, 1.0, 10)


def test_layer_cake_level_sum_vs_integral_oracle():
    # dim 1, profile r^(-1/2), R = 1: the ball integral is 4; sum in [2, 8]
    cake = layer_cake(0.5, 1, 1.0, 40)
    oracle = quad_profile_integral(1, 0.5, 1.0)
    assert oracle == pytest.approx(4.0, rel=1e-10)
    assert 2.0 <= cake.level_sum() <= 8.0
    assert oracle == pytest.approx(profile_ball_integral(1, 0.5, 1.0), rel=1e-10)


def test_layer_cake_scaling_in_truncation_radius():
    for dim, a in ((1, 0.5), (1, 0.25), (2, 1.0)):
        c1 = layer_cake(a, dim, 1.0, 40)
        c2 = layer_cake(a, dim, 2.0, 40)
        assert c2.level_sum() == pytest.approx(2.0 ** a * c1.level_sum(), rel=1e-10)
        ratio1 = c1.level_sum() / quad_profile_integral(dim, a, 1.0)
        ratio2 = c2.level_sum() / quad_profile_integral(dim, a, 2.0)
        assert ratio2 == pytest.approx(ratio1, rel=1e-10)


def test_layer_cake_envelope():
    for dim, a in ((1, 0.5), (1, 0.25), (2, 1.0)):
        cake = layer_cake(a, dim, 1.0, 40)
        radii = np.logspace(math.log10(1.0 * 2.0 ** -40) + 1e-9, 0.0, 400)
        step = cake.step(radii)
        prof = cake.profile(radii)
        slack = 2.0 ** (dim - a)
        assert np.all(step >= prof * (1 - 1e-12))
        assert np.all(prof >= step / slack * (1 - 1e-12))


def test_layer_cake_level_sum_ratio_pinned():
    # infinite-depth closed form is (1 + sqrt(2))/2; depth 40 sits within
    # ~1e-6 of it (geometric tail), measured once and pinned
    cake = layer_cake(0.5, 1, 1.0, 40)
    ratio = cake.level_sum() / quad_profile_integral(1, 0.5, 1.0)
    assert ratio == pytest.approx((1 + math.sqrt(2)) / 2, rel=1e-5)
    assert 1.0 <= ratio <= 2.0 ** (1 - 0.5)


def test_layer_cake_radii_halve():
    cake = layer_cake(0.5, 1, 1.0, 12)
    radii = [r for _, r in cake.levels]
    assert radii[0] == 1.0
    for a, b in zip(radii, radii[1:]):
        assert b == pytest.approx(a / 2, rel=1e-14)
    assert all(c > 0 for c, _ in cake.levels)


def test_layer_cake_deep_core_negligible():
    # depth 40 leaves less than 1e-6 of the ball integral uncovered at a = 1/2
    cake = layer_cake(0.5, 1, 1.0, 40)
    core = quad_profile_integral(1, 0.5, 2.0 ** -40)
    assert core / quad_profile_integral(1, 0.5, 1.0) < 1e-6


def test_geometry_constants():
    assert sphere_surface(1) == 2.0
    assert sphere_surface(2) == pytest.approx(2 * math.pi)
    assert ball_volume(1, 3.0) == 6.0
    assert ball_volume(2, 2.0) == pytest.approx(4 * math.pi)
