"""Self-tests of the benchmark's tracer and correctness gate."""

import copy
import itertools
import json

import numpy as np
import pytest

import prodhls.convolution
import prodhls.harness
from gate import Gate, check_certificates, check_verdict, direct_sums
from layertrace import LayerTracer, covered_length
from prodhls import (Exponents, ProductGrid, convolve_direct, make_family,
                     riesz_kernel)
from prodhls.cli import main


def test_self_time_of_nested_calls():
    ticks = itertools.count()
    tracer = LayerTracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("b", "leaf", lambda: None)

    def body():
        leaf()
        leaf()

    tracer.wrap("a", "outer", body)()
    # outer spans ticks 0..5 and its two children 1..2 and 3..4
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, -1), ("leaf", 1.0, 2.0, 0), ("leaf", 3.0, 4.0, 0)]
    assert tracer.self_times() == [3.0, 1.0, 1.0]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 4), (6, 9)], 0, 8) == 5


def test_install_wraps_only_cross_module_bindings():
    original = prodhls.convolution.convolve_fast
    grid = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=8)
    f = make_family("gaussian", grid)(1.0, 1.0)
    tracer = LayerTracer()
    tracer.install()
    try:
        assert prodhls.harness.convolve_fast is not original
        assert prodhls.convolution.convolve_fast is original
        prodhls.harness.convolve_fast(f, f)
    finally:
        tracer.uninstall()
    assert prodhls.harness.convolve_fast is original
    assert [(s.layer, s.name) for s in tracer.spans] == [("convolution", "convolve_fast")]


def test_direct_sum_matches_convolve_direct():
    grid = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=12)
    exps = Exponents.from_balance(m=1, n=1, alpha=0.5, beta=0.5, p=4 / 3)
    f = make_family("random", grid, seed=3)(1.0, 1.0)
    k = riesz_kernel(grid, exps)
    full = convolve_direct(f, k).values
    nodes = list(itertools.product(range(12), repeat=2))
    direct = direct_sums(f.values, k.values, nodes, grid.cell_volume)
    assert direct == pytest.approx([full[node] for node in nodes], rel=1e-12)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    config = {"grid": {"m": 1, "n": 1, "half_width": 1.0, "points_per_axis": 16},
              "exponents": {"alpha": 0.5, "beta": 0.5, "p": 4 / 3},
              "families": ["gaussian"], "dilations": [[1.0, 1.0], [2.0, 2.0]],
              "points_stride": 4, "seed": 1}
    (base / "config.json").write_text(json.dumps(config))
    code = main(["pointwise", "--config", str(base / "config.json"),
                 "--out", str(base / "out")])
    cfg = prodhls.harness.ExperimentConfig.from_dict(config)
    kernel = riesz_kernel(cfg.grid, cfg.exponents).values

    def inputs(family, s, t):
        return (make_family(family, cfg.grid, None, cfg.seed)(s, t).values,
                kernel, cfg.grid.cell_volume)

    return (code, json.loads((base / "out" / "certificates.json").read_text()),
            json.loads((base / "out" / "summary.json").read_text()), inputs)


def _check(document, summary, inputs) -> Gate:
    gate = Gate()
    check_certificates(gate, "tiny", document, summary, inputs, np.random.default_rng(0))
    return gate


def test_gate_accepts_the_program_output(tiny_run):
    _, document, summary, inputs = tiny_run
    gate = _check(document, summary, inputs)
    assert gate.failed == 0 and gate.attempted > 32


@pytest.mark.parametrize("with_regions", [False, True])
def test_gate_rejects_scaled_lhs(tiny_run, with_regions):
    # lhs alone breaks the region sum; lhs with its regions only the oracle sees
    _, document, summary, inputs = tiny_run
    document = copy.deepcopy(document)
    for entry in document["instances"]:
        for cert in entry["certificates"]:
            cert["lhs"] *= 1.01
            if with_regions:
                cert["regions"] = {k: v * 1.01 for k, v in cert["regions"].items()}
    gate = _check(document, summary, inputs)
    assert any("direct sum" in message for message in gate.failures)
    assert any("do not add up" in message for message in gate.failures) != with_regions


def test_gate_rejects_flipped_verdict(tiny_run):
    code, _, summary, _ = tiny_run
    expected = {"exit_code": code, "passed": summary["passed"], "unstable_families": []}
    gate = Gate()
    check_verdict(gate, "tiny", code, summary, expected)
    flipped = dict(summary, passed=not summary["passed"])
    check_verdict(gate, "tiny", code, flipped, expected)
    check_verdict(gate, "tiny", 1 - code, summary, expected)
    assert gate.attempted == 3 and gate.failed == 2
