"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``).
Constants marked "pinned" were measured once on the shipped
configurations and frozen here with a small margin.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from prodhls import (Exponents, GridFunction, ProductGrid, composition_check,
                     convolve_direct, convolve_fast, g_norm_bound, layer_cake, make_family,
                     region_split, riesz_kernel, balanced_radii, final_bound)
from prodhls.harness import (ExperimentConfig, run_necessity_sweep,
                             run_norm_check, run_pointwise_campaign,
                             write_summary_json)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

STD = Exponents.from_balance(1, 1, 0.5, 0.5, 4 / 3)

# pinned on the shipped 128-point standard configuration
SUITE_CONSTANT = 8.0
NORM_CONSTANT = 8.0


def load_config(name: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(json.loads((CONFIG_DIR / name).read_text()))


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _random_instances():
    rng = np.random.default_rng(424242)
    sizes = [8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 64, 64, 32, 16, 8]
    for N in sizes:
        grid = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=N)
        yield GridFunction(grid, rng.uniform(0.0, 1.0, grid.shape))


def _suite_instances():
    cfg = load_config("pointwise.json")
    for family in cfg.families:
        fam = make_family(family, cfg.grid, cfg.family_params.get(family), cfg.seed)
        for s, t in cfg.dilations:
            yield family, s, t, fam(s, t)


def test_criterion_1_fast_vs_direct():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for f in _random_instances():
        k = riesz_kernel(f.grid, STD)
        direct = convolve_direct(f, k).values
        fast = convolve_fast(f, k).values
        worst = max(worst, np.max(np.abs(direct - fast)) / np.max(np.abs(direct)))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0 and count == 20
    report(1, ok, f"fast/direct relative deviation {worst:.3e} over {count} "
                  f"instances in {elapsed:.2f} s")


def test_criterion_2_partition_identity():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for f in _random_instances():
        N = f.grid.points_per_axis
        conv = convolve_direct(f, riesz_kernel(f.grid, STD)).values
        for _ in range(100):
            pt = tuple(rng.integers(0, N, 2))
            r1, r2 = rng.uniform(0.01, 3.0, 2)
            rb = region_split(f, STD, pt, r1, r2)
            worst = max(worst, abs(rb.total - conv[pt]) / abs(conv[pt]))
    report(2, worst <= 1e-10, f"partition-sum relative error {worst:.3e} "
                              f"over 2000 random (point, r1, r2) triples")


def test_criterion_3_maximal_composition():
    worst = 0.0
    for _family, _s, _t, f in _suite_instances():
        if not np.any(f.values):
            continue
        rep = composition_check(f)
        worst = max(worst, rep.max_ratio)
    report(3, worst <= 1.0 + 1e-12,
           f"strong maximal vs composed partial maximals: max ratio {worst:.15f}")


def test_criterion_4_mixed_norm_identity():
    cfg = load_config("pointwise.json")
    worst_residual = 0.0
    spreads = {}
    for family in cfg.families:
        fam = make_family(family, cfg.grid, cfg.family_params.get(family), cfg.seed)
        ratios = []
        for s in (0.5, 1.0, 2.0):
            f = fam(s, s)
            rep = g_norm_bound(f, cfg.exponents)
            residual = abs(rep.g_norm - rep.m1_norm * rep.m2_norm) / rep.g_norm
            worst_residual = max(worst_residual, residual)
            ratios.append(rep.ratio)
        spreads[family] = max(ratios) / min(ratios)
    worst_spread = max(spreads.values())
    ok = worst_residual <= 1e-10 and worst_spread < 2.0
    report(4, ok, f"norm-factorization residual {worst_residual:.3e}; "
                  f"ratio spread across dilations {worst_spread:.3f} (limit 2)")


def test_criterion_5_balancing_identities():
    rng = np.random.default_rng(9001)
    start = time.perf_counter()
    worst = 0.0
    e = STD
    for _ in range(1000):
        mf, n1, n2, fn = 10.0 ** rng.uniform(-3, 3, 4)
        r1, r2 = balanced_radii(mf / fn, n1, n2, e)
        worst = max(
            worst,
            abs(r1 ** (-e.m / e.p) * r2 ** (-e.n / e.p) / (mf / fn) - 1.0),
            abs((r1 ** (-e.m / e.p) / r2 ** (-e.n / e.p)) / (n1 / n2) - 1.0),
            abs(mf * r1 ** e.alpha * r2 ** e.beta / final_bound(mf, fn, 1, e) - 1.0))
        gv = n1 * n2
        r1, r2 = balanced_radii(gv / fn ** 2, n1, n2, e)
        worst = max(
            worst,
            abs(r1 ** (-e.m / e.p) * r2 ** (-e.n / e.p) / (gv / fn ** 2) - 1.0),
            abs((r1 ** (-e.m / e.p) / r2 ** (-e.n / e.p)) / (n1 / n2) - 1.0),
            abs((gv / fn) * r1 ** e.alpha * r2 ** e.beta
                / final_bound(gv, fn, 2, e) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(5, ok, f"balancing and collapse residual {worst:.3e} over 1000 "
                  f"tuples in {elapsed:.3f} s")


def test_criterion_6_pointwise_domination(tmp_path):
    cfg = load_config("pointwise.json")
    rep = run_pointwise_campaign(cfg)
    summary = write_summary_json(tmp_path / "summary.json", rep.summary_dict(), cfg)
    payload = json.loads(summary.read_text())
    spreads = {k: v for k, v in rep.family_stability.items() if v is not None}
    ok = (math.isfinite(rep.max_ratio)
          and rep.max_ratio <= SUITE_CONSTANT
          and all(v < 2.0 for v in spreads.values())
          and payload["suite_constant"] == SUITE_CONSTANT
          and rep.passed)
    detail = (f"max lhs/bound {rep.max_ratio:.4f} <= pinned {SUITE_CONSTANT}; "
              f"spreads {', '.join(f'{k}={v:.3f}' for k, v in spreads.items())}")
    report(6, ok, detail)


def test_criterion_7_necessity_slopes():
    results = []
    for name in ("necessity_balanced.json", "necessity_unbalanced.json"):
        cfg = load_config(name)
        start = time.perf_counter()
        rep = run_necessity_sweep(cfg)
        elapsed = time.perf_counter() - start
        results.append((name, rep, elapsed))
    ok = all(rep.passed and elapsed < 60.0 for _, rep, elapsed in results)
    detail = "; ".join(
        f"{name.split('_')[1].split('.')[0]}: slope_s {rep.slope_s:+.4f} "
        f"(theory {rep.theoretical_slope_s:+.2f}, tol {rep.slope_tolerance}) "
        f"in {elapsed:.1f} s"
        for name, rep, elapsed in results)
    report(7, ok, detail)


def test_criterion_8_norm_level_inequality():
    cfg = load_config("normcheck.json")
    rep = run_norm_check(cfg)
    ok = rep.passed and rep.max_ratio <= NORM_CONSTANT
    report(8, ok, f"max ||f*kernel||_q / ||f||_p = {rep.max_ratio:.4f} "
                  f"<= pinned {NORM_CONSTANT} across "
                  f"{len(rep.rows)} suite instances")


def test_criterion_9_layer_cake_envelope():
    worst = 0.0
    for dim, exponent in ((1, 0.5), (1, 0.25), (2, 1.0)):
        cake = layer_cake(exponent, dim, 1.0, 40)
        radii = np.logspace(-40 * math.log10(2.0) + 1e-9, 0.0, 500)
        step = cake.step(radii)
        prof = cake.profile(radii)
        slack = 2.0 ** (dim - exponent)
        assert np.all(step >= prof * (1 - 1e-12))
        assert np.all(prof >= step / slack * (1 - 1e-12))
        worst = max(worst, float(np.max(step / prof)))
    report(9, worst <= 2.0 ** 1.5 * (1 + 1e-12),
           f"two-sided dyadic envelope holds; max step/profile {worst:.4f}")
