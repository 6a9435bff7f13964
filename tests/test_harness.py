"""Experiment configs, campaign reports, CLI wiring, determinism."""

import functools
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import prodhls
import prodhls.harness
from prodhls import (ConfigError, Exponents, ExperimentConfig, convolve_fast, lp_norm,
                     make_family, riesz_kernel)
from prodhls.cli import main as cli_main
from prodhls.grid import ProductGrid
from prodhls.harness import (_sample_points, _sweep_rows, run_necessity_sweep, run_norm_check,
                             run_pointwise_campaign, write_slopes_csv, write_summary_json)


def small_config(**overrides):
    raw = {
        "grid": {"m": 1, "n": 1, "half_width": 1.0, "points_per_axis": 32},
        "exponents": {"alpha": 0.5, "beta": 0.5, "p": 1.3333333333333333},
        "families": ["gaussian", "box"],
        "family_params": {"gaussian": {"sigma": 0.2}},
        "dilations": [[1.0, 1.0], [2.0, 2.0]],
        "seed": 7,
        "points_stride": 8,
    }
    raw.update(overrides)
    return raw


def ladder_pairs(lad):
    """The (s, 1) and (1, t) ladders over ``lad``, (1, 1) listed once."""
    return [[s, 1.0] for s in lad] + [[1.0, t] for t in lad if t != 1.0]


def ladder_config(**overrides):
    """An (s, 1) and a (1, t) ladder of five points over a decade."""
    lad = [float(s) for s in np.logspace(-0.5, 0.5, 5)]
    return small_config(dilations=ladder_pairs(lad), families=["gaussian"], **overrides)


NECESSITY_DROPS = {  # name: (config, what its error message names)
    "two-families": ({**ladder_config(), "families": ["gaussian", "box"]}, "box"),
    "off-ladder-pair": ({**ladder_config(), "dilations": ladder_config()["dilations"]
                         + [[2.0, 2.0]]}, "(2.0, 2.0)"),
}


def vanishing_box_ladder(half_extent):
    """A box ladder on the 32-point grid, whose nearest cell centers sit at
    +-1/32: with half-extent 0.01 every dilated box misses every center,
    with 0.05 only the most contracted ones do."""
    raw = ladder_config(tolerances={"slope_tolerance": 1.0})
    raw.update(families=["box"], family_params={"box": {"half_extent": half_extent}})
    return raw


# ---------------------------------------------------------------- config

def test_config_round_trip_and_hash():
    cfg = ExperimentConfig.from_dict(small_config())
    assert cfg.exponents.q == pytest.approx(4.0, rel=1e-12)
    h1 = cfg.sha256()
    h2 = ExperimentConfig.from_dict(small_config()).sha256()
    assert h1 == h2
    h3 = ExperimentConfig.from_dict(small_config(seed=8)).sha256()
    assert h1 != h3


def test_config_rejects_unknown_family():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(small_config(families=["glockenspiel"]))


def test_config_rejects_bad_dilations():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(small_config(dilations=[[0.0, 1.0]]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(small_config(dilations=[]))


def test_config_rejects_missing_q_when_unbalanced():
    raw = small_config()
    raw["exponents"] = {"alpha": 0.7, "beta": 0.5, "p": 1.3333333333333333}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw.update(bogus_key=1), "unknown config key"),
    (lambda raw: raw["grid"].update(points=8), "unknown grid key"),
    (lambda raw: raw["exponents"].update(gamma=0.5), "unknown exponents key"),
    (lambda raw: raw.update(tolerances={"norm_constnat": 1e-3}), "unknown tolerances key"),
    (lambda raw: raw.update(family_params={"gaussian": {"sigmma": 0.5}}),
     "unknown gaussian parameter key"),
    (lambda raw: raw.update(family_params={"gausian": {"sigma": 0.5}}),
     "unknown family_params key"),
    (lambda raw: raw.update(family_params={"tensor-box": {"half_extent": 0.5}}),
     "unknown tensor-box parameter key"),
    (lambda raw: raw.update(family_params={"gaussian": [0.5]}),
     "gaussian parameter must be a JSON object"),
    (lambda raw: raw.update(family_params={"gaussian": None}),
     "gaussian parameter must be a JSON object"),
    (lambda raw: raw.update(family_params={"gaussian": False}),
     "gaussian parameter must be a JSON object"),
    (lambda raw: raw.update(family_params={"gaussian": 0}),
     "gaussian parameter must be a JSON object"),
    (lambda raw: raw.update(family_params={"gaussian": ""}),
     "gaussian parameter must be a JSON object"),
    (lambda raw: raw.update(family_params={"gaussian": []}),
     "gaussian parameter must be a JSON object"),
    (lambda raw: raw.update(tolerances={"stability_factor": math.inf}),
     "tolerances stability_factor"),
    (lambda raw: raw.update(tolerances={"suite_constant": math.nan}), "tolerances suite_constant"),
    (lambda raw: raw.update(tolerances={"slope_tolerance": "0.05"}),
     "tolerances slope_tolerance"),
    (lambda raw: raw.update(family_params={"gaussian": {"sigma": math.inf}}),
     "gaussian parameter sigma"),
    (lambda raw: raw.update(family_params={"gaussian": {"sigma": 0.0}}),
     "gaussian parameter sigma"),
    (lambda raw: raw.update(family_params={"spike": {"half_extent": 0}}),
     "spike parameter half_extent"),
    (lambda raw: raw.update(family_params={"box": {"half_extent": -0.5}}),
     "box parameter half_extent"),
    (lambda raw: raw.update(dilations=[[math.inf, 1.0]]), "dilation s"),
    (lambda raw: raw["grid"].update(points_per_axis=32.0), "grid points_per_axis"),
    (lambda raw: raw["grid"].update(m=1.5), "grid m"),
    (lambda raw: raw.update(seed=7.5), "seed"),
    (lambda raw: raw.update(seed=math.inf), "seed"),
    (lambda raw: raw.update(seed=-5), "seed"),
    (lambda raw: raw.update(points_stride=8.5), "points_stride"),
    (lambda raw: raw.update(points_stride=True), "points_stride"),
    (lambda raw: raw.update(families=[]), "families"),
    (lambda raw: raw["grid"].update(half_width=True), "grid half_width"),
    (lambda raw: raw["grid"].update(half_width="1.0"), "grid half_width"),
    (lambda raw: raw["exponents"].update(alpha="0.5"), "exponents alpha"),
    (lambda raw: raw["exponents"].update(p="1.3333333333333333"), "exponents p"),
    (lambda raw: raw["exponents"].update(q="4.0"), "exponents q"),
    (lambda raw: raw.update(dilations=[[True, 1.0]]), "dilation s"),
    (lambda raw: raw.update(dilations=[[1.0, "2.0"]]), "dilation t"),
    (lambda raw: raw.update(families="gaussian"), "families must be a list of strings"),
    (lambda raw: raw.update(families=[["gaussian"]]), "families must be a list of strings"),
    (lambda raw: (raw.pop("families"), raw.update(family=["gaussian"])),
     r"unknown config key\(s\): family$"),
    (lambda raw: raw.update(family="spike"), r"unknown config key\(s\): family$"),
    (lambda raw: raw.update(families=["gaussian", "box", "gaussian"]),
     "repeated family: gaussian$"),
    (lambda raw: raw.update(dilations=[[1.0, 1.0], [2.0, 2.0], [1, 1.0]]),
     r"repeated dilation pair: \(1.0, 1.0\)$"),
    (lambda raw: raw.update(tolerances={"stability_factor": 1.0}),
     "tolerances stability_factor must be > 1.0"),
    (lambda raw: raw.update(tolerances={"stability_factor": 0.5}),
     "tolerances stability_factor must be > 1.0"),
    (lambda raw: raw.update(tolerances={"stability_factor": 0.0}),
     "tolerances stability_factor must be > 1.0"),
    (lambda raw: raw.update(tolerances={"suite_constant": 0.0}),
     "tolerances suite_constant must be > 0.0"),
    (lambda raw: raw.update(tolerances={"norm_constant": -1}),
     "tolerances norm_constant must be > 0.0"),
    (lambda raw: raw.update(tolerances={"slope_tolerance": -0.01}),
     "tolerances slope_tolerance must be > 0.0"),
    # null is a wrong value, not an omitted key: no default stands in for it
    (lambda raw: raw.update(families=None), "families must be a list of strings, got None"),
    (lambda raw: raw["exponents"].update(q=None), "exponents q must be a finite number"),
    (lambda raw: raw.update(tolerances=[["slope_tolerance", 0.05]]),
     "tolerances must be a JSON object"),
    (lambda raw: raw.update(family_params=[["gaussian", {"sigma": 0.2}]]),
     "family_params must be a JSON object"),
], ids=["top-level", "grid", "exponents", "tolerance-key", "family-param-key",
        "family-params-family", "family-param-of-other-family", "family-params-list",
        "family-params-null", "family-params-false", "family-params-zero",
        "family-params-empty-string", "family-params-empty-list",
        "inf-tolerance", "nan-tolerance", "string-tolerance", "inf-family-param",
        "zero-sigma", "zero-spike", "negative-box",
        "inf-dilation", "float-points", "float-m", "float-seed", "inf-seed", "negative-seed",
        "float-stride", "bool-stride", "empty-families", "bool-half-width",
        "string-half-width", "string-alpha", "string-p", "string-q", "bool-dilation",
        "string-dilation", "string-families", "nested-families", "list-family",
        "family-and-families", "repeated-family", "repeated-dilation",
        "unit-stability-factor", "half-stability-factor", "zero-stability-factor",
        "zero-suite-constant", "negative-norm-constant", "negative-slope-tolerance",
        "null-families", "null-q", "tolerance-pairs", "family-params-pairs"])
def test_config_rejects_malformed(edit, message):
    raw = small_config()
    edit(raw)
    # the message names the offending key
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("field, value, message", [
    ("seed", True, "seed must be an integer"),
    ("seed", 1.5, "seed must be an integer"),
    ("points_stride", 2.5, "points_stride must be an integer"),
    ("dilations", (("2.0", 1.0),), "dilation s must be a finite number"),
    ("exponents", None, "exponents must be of type Exponents, got None"),
    ("grid", small_config()["grid"], "grid must be of type ProductGrid, got {"),
    ("exponents", Exponents.from_balance(m=2, n=1, alpha=1.0, beta=0.5, p=4 / 3),
     r"grid blocks \(1, 1\) do not match exponents \(2, 1\)"),
    # true == 1 in Python, as JSON's true is not an integer
    ("grid", functools.partial(ProductGrid, m=True, n=1, half_width=True, points_per_axis=16),
     "grid m must not be a boolean, got True"),
    ("grid", functools.partial(ProductGrid, m=1, n=1, half_width=True, points_per_axis=16),
     "grid half_width must not be a boolean, got True"),
    ("grid", functools.partial(ProductGrid, m=1, n=1, half_width=1.0, points_per_axis=True),
     "grid points_per_axis must not be a boolean, got True"),
    ("exponents", functools.partial(Exponents, m=2, n=2, alpha=True, beta=1.0, p=4 / 3, q=4.0),
     "exponents alpha must not be a boolean, got True"),
], ids=["bool-seed", "float-seed", "float-stride", "string-dilation", "null-exponents",
        "dict-grid", "exponents-of-other-blocks", "bool-grid-m", "bool-half-width",
        "bool-points", "bool-alpha"])
def test_config_built_in_python_obeys_the_json_rules(field, value, message):
    # a grid or exponents given as a callable is built in the check: its own
    # class raises the ValueError, as ExperimentConfig raises ConfigError
    cfg = ExperimentConfig.from_dict(small_config())
    with pytest.raises(ValueError, match=message) as info:
        ExperimentConfig(**{"grid": cfg.grid, "exponents": cfg.exponents,
                            field: value() if callable(value) else value})
    assert callable(value) or info.type is ConfigError


def test_config_accepts_every_documented_key():
    raw = small_config(
        families=["gaussian", "box", "tensor-box", "spike", "random"],
        family_params={"gaussian": {"sigma": 0.2}, "box": {"half_extent": 0.4},
                       "tensor-box": {"half_extent_x": 0.5, "half_extent_y": 0.2},
                       "spike": {"half_extent": 0.1}, "random": {}},
        tolerances={"stability_factor": 2, "suite_constant": 12.0,
                    "norm_constant": 8.0, "slope_tolerance": 0.05})
    raw["exponents"]["q"] = 4.0
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.stability_factor() == 2.0


# ---------------------------------------------------------------- families

def test_family_dilation_is_exact_for_analytic_families():
    grid = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=64)
    fam = make_family("gaussian", grid, {"sigma": 0.2})
    f1 = fam(2.0, 1.0)
    centers = grid.axis_centers()
    expected = np.exp(-np.add.outer((2 * centers) ** 2, centers ** 2) / (2 * 0.04))
    assert np.allclose(f1.values, expected, rtol=1e-13)


def test_spike_family_keeps_cells_at_strong_dilation():
    grid = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=128)
    fam = make_family("spike", grid, {"half_extent": 0.125})
    f = fam(4.0, 4.0)
    assert np.any(f.values > 0)


@pytest.mark.parametrize("m, n, N", [(1, 1, 128), (2, 1, 32)])
def test_spike_family_has_unit_mass(m, n, N):
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    f = make_family("spike", grid, {"half_extent": 0.125})(1.0, 1.0)
    assert f.values.sum() * grid.cell_volume == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("s, t", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
def test_indicator_families_support_on_2d_x_block(s, t):
    grid = ProductGrid(m=2, n=1, half_width=1.0, points_per_axis=32)

    def cells(w):
        # cells per axis whose center c has |c| <= w: 2 floor(w/h + 1/2)
        return 2 * math.floor(w / grid.spacing + 0.5)

    box = make_family("box", grid, {"half_extent": 0.5})(s, t)
    assert np.count_nonzero(box.values) == cells(0.5 / s) ** 2 * cells(0.5 / t)
    tensor = make_family("tensor-box", grid)(s, t)  # defaults 0.5 and 0.25
    assert np.count_nonzero(tensor.values) == cells(0.5 / s) ** 2 * cells(0.25 / t)
    assert set(np.unique(box.values)) | set(np.unique(tensor.values)) == {0.0, 1.0}


ANALYTIC_FAMILIES = ["gaussian", "box", "tensor-box", "spike"]


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("family", ANALYTIC_FAMILIES)
def test_analytic_family_is_the_outer_product_of_its_factors(family, m, n):
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=8)
    fam = make_family(family, grid)
    for s, t in [(1.0, 1.0), (0.5, 2.0)]:
        fx, fy = fam.blocks[0](s), fam.blocks[1](t)
        assert fx.shape == (8,) * m and fy.shape == (8,) * n
        assert fam(s, t).values.tobytes() == np.multiply.outer(fx, fy).tobytes()


# at (64, 1) the indicator families vanish on each grid below, and so does
# the gaussian at N = 8: zero rows on both paths
AGREEMENT_DILATIONS = [(1.0, 1.0), (0.5, 2.0), (3.0, 0.75), (1.0, 0.3), (64.0, 1.0)]


@pytest.mark.parametrize("m, n, N", [(1, 1, 64), (2, 1, 16), (1, 2, 16), (2, 2, 8)])
@pytest.mark.parametrize("family", ANALYTIC_FAMILIES)
def test_tensor_rows_match_the_full_path(family, m, n, N):
    # the block-by-block norms against lp_norm and convolve_fast of the
    # whole field and kernel
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    exps = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    fam = make_family(family, grid)
    kernel = riesz_kernel(grid, exps)

    def no_kernel():
        raise AssertionError("a tensor row asked for the N^rank kernel")

    zero_rows = 0
    rows = _sweep_rows(fam, grid, exps, no_kernel, AGREEMENT_DILATIONS)
    assert [(row.s, row.t) for row in rows] == AGREEMENT_DILATIONS
    for (s, t), row in zip(AGREEMENT_DILATIONS, rows):
        f = fam(s, t)
        norm_p = lp_norm(f, exps.p)
        norm_q = lp_norm(convolve_fast(f, kernel), exps.q)
        if norm_p == 0.0:
            zero_rows += 1
            assert (row.norm_p, row.norm_q, norm_q) == (0.0, 0.0, 0.0)
        else:
            assert row.norm_p == pytest.approx(norm_p, rel=1e-12, abs=0.0)
            assert row.norm_q == pytest.approx(norm_q, rel=1e-12, abs=0.0)
    assert zero_rows or family == "gaussian"


@pytest.mark.parametrize("m, n, N", [(1, 1, 32), (2, 1, 16), (1, 2, 16), (2, 2, 8)])
@pytest.mark.parametrize("family", ANALYTIC_FAMILIES)
def test_stacked_sweep_rows_are_the_rows_of_one_pair(family, m, n, N):
    # one _sweep_rows call over every pair, which stacks each block's distinct
    # dilations, against each pair alone (a stack of one per block), field
    # for field and bit for bit; (64, 1) vanishes for the indicator families
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    exps = Exponents.from_balance(m, n, m / 2, n / 2, 4 / 3)
    fam = make_family(family, grid)
    pairs = [(1.0, 1.0), (0.5, 1.0), (2.0, 1.0), (1.0, 0.5), (1.0, 3.0), (0.5, 0.5),
             (64.0, 1.0), (2.0, 1.0)]
    stacked = _sweep_rows(fam, grid, exps, None, pairs)
    alone = [_sweep_rows(fam, grid, exps, None, [pair])[0] for pair in pairs]
    # repr tells every two floats of different bits apart, -0.0 from 0.0 too
    assert [repr(vars(row)) for row in stacked] == [repr(vars(row)) for row in alone]
    assert any(row.norm_p == 0.0 for row in stacked) or family == "gaussian"


def test_tensor_box_asymmetric():
    grid = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=64)
    fam = make_family("tensor-box", grid)
    f = fam(1.0, 1.0)
    marg_x = f.values.sum(axis=1)
    marg_y = f.values.sum(axis=0)
    assert (marg_x > 0).sum() > (marg_y > 0).sum()


# ---------------------------------------------------------------- campaigns

def test_pointwise_campaign_small():
    cfg = ExperimentConfig.from_dict(small_config())
    rep = run_pointwise_campaign(cfg)
    assert rep.passed
    assert math.isfinite(rep.max_ratio) and rep.max_ratio > 0
    assert sum(r.n_points for r in rep.instances) == len(cfg.dilations) * 2 * 16


def test_instance_results_derive_from_certificates():
    # the spike is narrower than a cell at every dilation: an all-zero instance
    raw = small_config(families=["gaussian", "spike"], dilations=[[1.0, 1.0]],
                       family_params={"gaussian": {"sigma": 0.2},
                                      "spike": {"half_extent": 0.001}})
    rep = run_pointwise_campaign(ExperimentConfig.from_dict(raw))
    gauss, spike = rep.instances
    assert spike.certificates == []
    assert (spike.n_points, spike.max_ratio, spike.worst_point, spike.case_counts) == \
        (0, 0.0, None, {})
    ratios = [c.ratio for c in gauss.certificates]
    cases = [str(c.case_id) for c in gauss.certificates]
    assert gauss.n_points == len(ratios) == 16
    assert gauss.max_ratio == max(ratios) > 0.0
    assert gauss.worst_point == gauss.certificates[ratios.index(max(ratios))].point
    assert gauss.case_counts == {k: cases.count(k) for k in set(cases)}
    entries = rep.summary_dict()["instances"]
    assert [(e["points"], e["max_ratio"], e["worst_point"], e["case_counts"]) for e in entries] \
        == [(16, gauss.max_ratio, list(gauss.worst_point), gauss.case_counts), (0, 0.0, None, {})]


def test_pointwise_campaign_zero_function_trivial_pass():
    # a spike family dilated so hard no cell survives produces empty
    # instances, and so does a gaussian whose values survive but whose
    # p-th powers underflow: its L^p norm is 0 on the grid
    raw = small_config(families=["spike"],
                       family_params={"spike": {"half_extent": 0.001}},
                       dilations=[[32.0, 32.0]])
    rep = run_pointwise_campaign(ExperimentConfig.from_dict(raw))
    assert rep.passed and rep.max_ratio == 0.0
    raw = small_config(families=["gaussian"], family_params={"gaussian": {"sigma": 0.125}},
                       dilations=[[1.0, 1.0], [400.0, 400.0]])
    raw["grid"]["points_per_axis"] = 128
    cfg = ExperimentConfig.from_dict(raw)
    assert np.any(make_family("gaussian", cfg.grid, {"sigma": 0.125})(400.0, 400.0).values)
    rep = run_pointwise_campaign(cfg)
    assert rep.passed and [r.n_points for r in rep.instances] == [256, 0]


def test_pointwise_rejects_inadmissible_exponents():
    raw = small_config()
    raw["exponents"] = {"alpha": 0.7, "beta": 0.5, "p": 1.3333333333333333, "q": 4.0}
    with pytest.raises(ConfigError):
        run_pointwise_campaign(ExperimentConfig.from_dict(raw))


def test_necessity_ladder_validation(monkeypatch):
    def no_convolution(*args):
        raise AssertionError("a convolution ran")

    monkeypatch.setattr(prodhls.harness, "convolve_fast", no_convolution)
    raw = small_config(dilations=[[1.0, 1.0]], families=["gaussian"])
    with pytest.raises(ConfigError, match="s-ladder has 1 points"):
        run_necessity_sweep(ExperimentConfig.from_dict(raw))
    # five points but under a decade of span
    raw = small_config(dilations=ladder_pairs([0.5, 0.7, 1.0, 1.4, 2.0]),
                       families=["gaussian"])
    with pytest.raises(ConfigError, match="needs at least a decade"):
        run_necessity_sweep(ExperimentConfig.from_dict(raw))
    # a second family or a pair on neither ladder would be silently dropped
    for raw, named in NECESSITY_DROPS.values():
        with pytest.raises(ConfigError, match=re.escape(named)):
            run_necessity_sweep(ExperimentConfig.from_dict(raw))


def test_necessity_small_grid_structure():
    raw = ladder_config(tolerances={"slope_tolerance": 1.0})
    rep = run_necessity_sweep(ExperimentConfig.from_dict(raw))
    assert rep.theoretical_slope_s == pytest.approx(0.0, abs=1e-12)
    assert len(rep.rows) == 10
    assert rep.passed  # loose tolerance: structure only


def test_necessity_convolves_the_shared_pair_once(monkeypatch):
    # (1, 1) sits on both five-point ladders: nine convolutions, ten rows.
    # The random family has no block factors: each row takes the full path
    calls = []
    real = prodhls.harness.convolve_fast

    def counted(f, k):
        calls.append(f)
        return real(f, k)

    monkeypatch.setattr(prodhls.harness, "convolve_fast", counted)
    cfg = ExperimentConfig.from_dict(
        {**ladder_config(tolerances={"slope_tolerance": 1.0}), "families": ["random"]})
    assert make_family("random", cfg.grid, seed=cfg.seed).blocks is None
    rep = run_necessity_sweep(cfg)
    assert len(calls) == 9 and len(rep.rows) == 10
    first, second = [r for r in rep.rows if r.s == r.t == 1.0]
    assert first == second


def test_tensor_necessity_measures_block_by_block(monkeypatch):
    # a gaussian sweep builds no N^rank kernel and convolves no N^rank
    # field; it convolves each block factor at each of its distinct
    # dilations, the ladder's five s and five t values (1 among them), in
    # one stacked call per block
    def refused(*args):
        raise AssertionError("a tensor row took the full path")

    blocks = []
    real = prodhls.harness._convolve_block

    def counted(values, kernel, scale):
        blocks.append(values.shape)
        return real(values, kernel, scale)

    monkeypatch.setattr(prodhls.harness, "convolve_fast", refused)
    monkeypatch.setattr(prodhls.harness, "riesz_kernel", refused)
    monkeypatch.setattr(prodhls.harness, "_convolve_block", counted)
    rep = run_necessity_sweep(ExperimentConfig.from_dict(
        ladder_config(tolerances={"slope_tolerance": 1.0})))
    assert blocks == [(5, 32)] * 2 and len(rep.rows) == 10
    first, second = [r for r in rep.rows if r.s == r.t == 1.0]
    assert first is second


def test_tensor_necessity_peak_memory():
    # the balanced reference sweep, a gaussian on a 512^2 grid, measures
    # its rows block by block: no 512^2 array is alive at any time
    cfg_path = Path(__file__).resolve().parents[1] / "configs" / "necessity_balanced.json"
    cfg = ExperimentConfig.from_dict(json.loads(cfg_path.read_text()))
    tracemalloc.start()
    try:
        run_necessity_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 ** 2 * np.dtype(np.float64).itemsize


def test_tensor_instance_peak_memory():
    # a gaussian instance at (2, 2), N = 16, certified by a campaign at the
    # stride-8 nodes from its block factors: no 16^4 array is alive at any time
    cfg = ExperimentConfig.from_dict(small_config(
        grid={"m": 2, "n": 2, "half_width": 1.0, "points_per_axis": 16},
        exponents={"alpha": 1.0, "beta": 1.0, "p": 4 / 3}, families=["gaussian"],
        dilations=[[1.0, 1.0]]))
    tracemalloc.start()
    try:
        [result] = run_pointwise_campaign(cfg).instances
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_points == 16
    assert peak < 16 ** 4 * np.dtype(np.float64).itemsize


@pytest.mark.parametrize("half_extent", [0.01, 0.05])
def test_necessity_rejects_vanishing_instance(half_extent):
    raw = vanishing_box_ladder(half_extent)
    with pytest.raises(ConfigError, match=r"box instance at \(s, t\) = \(.+\) vanishes"):
        run_necessity_sweep(ExperimentConfig.from_dict(raw))


@pytest.mark.parametrize("run, raw", [
    (run_necessity_sweep, {**ladder_config(tolerances={"slope_tolerance": 1.0}),
                           "families": ["random"]}),
    (run_norm_check, small_config(families=["random"])),
], ids=["necessity", "normcheck"])
def test_sweep_transforms_its_kernel_once(monkeypatch, run, raw):
    # on the random family, which goes through convolve_fast
    kernels, transformed = [], []

    def record_kernel(*args):
        kernels.append(prodhls.riesz_kernel(*args))
        return kernels[-1]

    padded_spectrum = prodhls.convolution._padded_spectrum

    def record_padded_spectrum(a, *args):
        transformed.append(a)
        return padded_spectrum(a, *args)

    monkeypatch.setattr(prodhls.harness, "riesz_kernel", record_kernel)
    monkeypatch.setattr(prodhls.convolution, "_padded_spectrum", record_padded_spectrum)
    run(ExperimentConfig.from_dict(raw))
    [kernel] = kernels
    # each transform takes a stack: the kernel's is a stack of one, a view of it
    assert sum(a.base is kernel.values for a in transformed) == 1
    assert len(transformed) > 2  # the kernel served several convolutions


def test_norm_check_small():
    cfg = ExperimentConfig.from_dict(small_config())
    rep = run_norm_check(cfg)
    assert rep.passed
    assert rep.max_ratio > 0
    assert len(rep.rows) == 4


def test_norm_check_zero_instance_passes():
    raw = small_config(families=["spike"],
                       family_params={"spike": {"half_extent": 0.001}},
                       dilations=[[32.0, 32.0]])
    rep = run_norm_check(ExperimentConfig.from_dict(raw))
    assert rep.passed
    assert rep.rows[0]["ratio"] == 0.0


# ---------------------------------------------------------------- writers / CLI

def test_summary_embeds_hash_and_version(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config())
    rep = run_norm_check(cfg)
    path = write_summary_json(tmp_path / "summary.json", rep.summary_dict(), cfg)
    payload = json.loads(path.read_text())
    assert payload["config_sha256"] == cfg.sha256()
    assert payload["library_version"]


def test_slopes_csv_columns(tmp_path):
    raw = ladder_config(tolerances={"slope_tolerance": 1.0})
    rep = run_necessity_sweep(ExperimentConfig.from_dict(raw))
    path = write_slopes_csv(tmp_path / "slopes.csv", rep)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,t,norm_q,norm_p,ratio,log_s,log_ratio"
    assert len(lines) == 11


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("m, n, N, stride", [(1, 1, 32, 8), (2, 1, 16, 5), (2, 2, 8, 3),
                                              (1, 2, 6, 1)])
def test_sample_points_are_row_major(m, n, N, stride):
    # the multiples of the stride on every axis, the last index running
    # fastest: the order the certificates are written in
    grid = ProductGrid(m=m, n=n, half_width=1.0, points_per_axis=N)
    axis = range(0, N, stride)
    expected = [()]
    for _ in range(m + n):
        expected = [p + (i,) for p in expected for i in axis]
    assert [tuple(p) for p in _sample_points(grid, stride).tolist()] == expected


def test_cli_pointwise_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["pointwise", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["pointwise", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    for name in ("summary.json", "certificates.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_necessity_writes_outputs(tmp_path):
    raw = ladder_config(tolerances={"slope_tolerance": 1.0})
    cfg_path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli_main(["necessity", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "slopes.csv").is_file()
    assert (out / "summary.json").is_file()
    again = tmp_path / "again"
    cli_main(["necessity", "--config", str(cfg_path), "--out", str(again)])
    assert (out / "slopes.csv").read_bytes() == (again / "slopes.csv").read_bytes()


def test_cli_normcheck(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    assert cli_main(["normcheck", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["experiment"] == "normcheck"


def test_cli_config_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert cli_main(["pointwise", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    bad = write_config(tmp_path, {"grid": {"m": 9}}, "bad.json")
    assert cli_main(["pointwise", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # a misspelled pin is rejected, not ignored
    typo = write_config(tmp_path, small_config(tolerances={"norm_constnat": 1e-3}), "typo.json")
    assert cli_main(["normcheck", "--config", str(typo), "--out", str(tmp_path / "o")]) == 2
    # a negative seed is rejected from the config and from --seed alike
    negative = write_config(tmp_path, small_config(seed=-5), "negative.json")
    assert cli_main(["normcheck", "--config", str(negative), "--out", str(tmp_path / "o")]) == 2
    ok = write_config(tmp_path, small_config(), "ok.json")
    assert cli_main(["normcheck", "--config", str(ok), "--out", str(tmp_path / "o"),
                     "--seed", "-5"]) == 2
    # ladder too short is also a config error
    cfg_path = write_config(tmp_path, small_config(families=["gaussian"],
                                                   dilations=[[1.0, 1.0], [2.0, 1.0]]),
                            "short.json")
    assert cli_main(["necessity", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    # a config that is not a JSON object is rejected with and without --seed
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for seed in ([], ["--seed", "3"]):
        assert cli_main(["normcheck", "--config", str(listed), "--out", str(tmp_path / "o"),
                         *seed]) == 2
    # a repeated family would run twice, and a factor below 1 could never pass;
    # null families or a null q are errors, not the gaussian or the balanced q
    null_q = small_config()
    null_q["exponents"]["q"] = None
    for name, raw in (("twice.json", small_config(families=["gaussian", "gaussian"])),
                      ("never.json", small_config(tolerances={"stability_factor": 0.5})),
                      ("no-families.json", small_config(families=None)),
                      ("no-q.json", null_q)):
        cfg_path = write_config(tmp_path, raw, name)
        assert cli_main(["normcheck", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", sorted(NECESSITY_DROPS))
def test_cli_necessity_rejects_what_it_would_not_run(tmp_path, capsys, case):
    raw, named = NECESSITY_DROPS[case]
    out = tmp_path / "out"
    assert cli_main(["necessity", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("half_extent", [0.01, 0.05])
def test_cli_necessity_vanishing_instance_is_config_error(tmp_path, capsys, half_extent):
    cfg_path = write_config(tmp_path, vanishing_box_ladder(half_extent))
    out = tmp_path / "out"
    assert cli_main(["necessity", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "box instance at (s, t)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pointwise", "necessity", "normcheck"])
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_cli_rejects_out_under_a_file_before_the_run(tmp_path, capsys, monkeypatch, command, out):
    import prodhls.cli as cli_module

    def no_run(cfg):
        raise AssertionError("the run started")

    for run in ("run_pointwise_campaign", "run_necessity_sweep", "run_norm_check"):
        monkeypatch.setattr(cli_module, run, no_run)
    cfg_path = write_config(tmp_path, small_config())
    afile = tmp_path / "afile"
    afile.write_text("keep")
    assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out") and "Traceback" not in err
    assert afile.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]


@pytest.mark.parametrize("command", ["pointwise", "necessity", "normcheck"])
def test_cli_rejects_empty_families(tmp_path, command):
    cfg_path = write_config(tmp_path, small_config(families=[]))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command, reads, foreign", [
    ("pointwise", {"suite_constant": 100.0, "stability_factor": 2.0}, "norm_constant"),
    ("necessity", {"slope_tolerance": 1.0}, "stability_factor"),
    ("normcheck", {"norm_constant": 100.0, "stability_factor": 2.0}, "suite_constant"),
])
def test_cli_rejects_tolerance_the_command_does_not_read(tmp_path, capsys, command, reads,
                                                         foreign):
    make = ladder_config if command == "necessity" else small_config
    good = write_config(tmp_path, make(tolerances=reads), "good.json")
    assert cli_main([command, "--config", str(good), "--out", str(tmp_path / "good")]) == 0
    # a pin under another command's key would be ignored, so it is an error
    bad = write_config(tmp_path, make(tolerances={**reads, foreign: 1e-6}), "bad.json")
    out = tmp_path / "bad"
    assert cli_main([command, "--config", str(bad), "--out", str(out)]) == 2
    assert foreign in capsys.readouterr().err
    assert not out.exists()


def test_repeated_cli_calls_leave_no_cyclic_garbage(tmp_path):
    # the CLI builds its argument parser once per process.  A parser built
    # per call left about 150 objects in reference cycles, which only the
    # cyclic collector frees, so in-process runs grew between collections
    missing = ["pointwise", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    run = ["normcheck", "--config", str(write_config(tmp_path, small_config())),
           "--out", str(tmp_path / "o")]
    for argv in (missing, run):
        cli_main(argv)  # warm-up
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert cli_main(missing) == 2
        assert gc.collect() == 0
        # a run writes summary.json through json's indenting encoder, whose
        # closures are a cycle of their own; none of its garbage is argparse's
        gc.set_debug(gc.DEBUG_SAVEALL)
        for _ in range(3):
            assert cli_main(run) == 0
        gc.collect()
        assert not [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_cli_assertion_failure_exit_code(tmp_path):
    # an impossibly small pinned constant forces a norm-check failure
    raw = small_config(tolerances={"norm_constant": 1e-6})
    cfg_path = write_config(tmp_path, raw)
    assert cli_main(["normcheck", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1


def test_cli_seed_override_changes_hash(tmp_path):
    cfg_path = write_config(tmp_path, small_config(families=["random"]))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli_main(["normcheck", "--config", str(cfg_path), "--out", str(out_a)])
    cli_main(["normcheck", "--config", str(cfg_path), "--out", str(out_b), "--seed", "99"])
    pa = json.loads((out_a / "summary.json").read_text())
    pb = json.loads((out_b / "summary.json").read_text())
    assert pa["config_sha256"] != pb["config_sha256"]


def test_config_caps_2d_block_grids():
    raw = small_config()
    raw["grid"] = {"m": 2, "n": 1, "half_width": 1.0, "points_per_axis": 64}
    raw["exponents"] = {"alpha": 1.0, "beta": 0.5, "p": 1.5}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_cli_violation_dump(tmp_path, monkeypatch):
    # a region-bound violation aborts the campaign with a diagnostic dump
    from prodhls.hedberg import CertificateViolation
    import prodhls.cli as cli_module

    def boom(cfg):
        raise CertificateViolation("synthetic violation",
                                   {"point": [0, 0], "region": "region11"})

    monkeypatch.setattr(cli_module, "run_pointwise_campaign", boom)
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    assert cli_main(["pointwise", "--config", str(cfg_path), "--out", str(out)]) == 1
    payload = json.loads((out / "violation.json").read_text())
    assert payload["region"] == "region11"


def fresh_interpreter(code):
    """The stdout lines of ``python -c code`` in a fresh interpreter that
    imports this checkout's prodhls."""
    src = str(Path(prodhls.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.splitlines()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; the CLI must not pull it in.  Nor
    # concurrent.futures: every pass runs in the calling thread
    code = ("import sys, prodhls.cli; "
            "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)")
    assert fresh_interpreter(code) == ["False False"]


def cli_run_in_fresh_interpreter(argv):
    """Run the CLI on ``argv`` in a fresh interpreter; its exit code, whether
    numpy.ma was loaded and the count of live threads, as one line."""
    return fresh_interpreter(
        "import sys, threading; from prodhls.cli import main; "
        f"code = main({argv!r}); "
        "print(code, 'numpy.ma' in sys.modules, threading.active_count())")[-1]


def test_cli_pointwise_leaves_numpy_ma_unloaded(tmp_path):
    # plain np.unique imports numpy.ma, whose module state stays on the
    # heap: about 0.5 MB live and 1.3 MB more peak RSS in the pointwise
    # runs.  A 2-d pointwise run in a fresh interpreter must not load it,
    # and every pass runs in the calling thread, so it starts no thread
    cfg_path = write_config(tmp_path, small_config(
        grid={"m": 2, "n": 1, "half_width": 1.0, "points_per_axis": 8},
        exponents={"alpha": 1.0, "beta": 0.5, "p": 4 / 3}, families=["gaussian", "random"],
        points_stride=4))
    argv = ["pointwise", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert cli_run_in_fresh_interpreter(argv) == "0 False 1"
    assert (tmp_path / "out" / "certificates.json").exists()


def test_cli_normcheck_starts_no_thread(tmp_path):
    # normcheck's N = 128 convolutions and norms run in the calling thread
    cfg_path = Path(__file__).resolve().parents[1] / "configs" / "normcheck.json"
    argv = ["normcheck", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    code, _, threads = cli_run_in_fresh_interpreter(argv).split()
    assert (code, threads) == ("0", "1")
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("argv", [["bench-maximal"],
                                  ["pointwise", "--parallel", "2"]])
def test_cli_rejects_removed_options(tmp_path, argv):
    cfg_path = write_config(tmp_path, small_config())
    with pytest.raises(SystemExit) as info:
        cli_main(argv + ["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert info.value.code == 2
