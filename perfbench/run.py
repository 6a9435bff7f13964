"""Benchmark of the prodhls command line on three workloads.

    python3 perfbench/run.py --workload pointwise-2d --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports ``prodhls`` from
``src/``.  A workload is a list of CLI commands that one closed-loop client
runs in this process through ``prodhls.cli.main``, each after the previous
one returned (no ``--parallel``):

* ``pointwise-1d``: ``pointwise`` on ``configs/pointwise.json``, rank (1,1),
  6400 certificates; the time goes to the per-point region split and the
  certificate writer.
* ``pointwise-2d``: ``pointwise`` on two configs generated from the seed,
  ranks (2,1) at N=32 and (2,2) at N=16, 1200 certificates; the time goes
  to the 2-d maximal window sums.
* ``sweeps``: ``necessity`` on both necessity configs, then ``normcheck``;
  69 FFT convolutions and no maximal or certification work.

BENCHMARK.json lists ``pointwise-2d`` and ``sweeps``; ``pointwise-1d`` is
too unsteady on a shared host to gate on (see README.md).

The seed is written into the generated configs and passed with ``--seed``
to the reference configs.  With ``--trace 0`` the end-to-end metrics are
measured; with ``--trace 1`` untraced and traced passes alternate, and the
traced ones give the per-layer metrics (see ``layertrace.py``).  Every run
checks the outputs with ``gate.py`` outside the timed region.  Outputs go
to ``perfbench/work/<workload>/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# cap the numeric libraries' thread pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

import numpy as np  # noqa: E402

from gate import Gate, check_certificates, check_headline, check_verdict, digests  # noqa: E402
from layertrace import LayerTracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pointwise-1d", "pointwise-2d", "sweeps")
DEFAULT_SEED = 20260810  # the seed of the reference configs
SETUP_REPS = 4  # least fresh-interpreter set-ups per run, one after each pass
MIN_PASSES = 3  # timed passes per run, traced and untraced together
EXPECTED = json.loads((BENCH / "expected.json").read_text())

# interpreter start to CLI-ready: import the CLI, parse the workload's configs
SETUP_CHILD = """\
import json, sys, time
start = time.perf_counter()
import prodhls.cli
from prodhls.harness import ExperimentConfig
ready = time.perf_counter()
for path, seed in json.loads(sys.argv[1]):
    raw = json.loads(open(path).read())
    if seed is not None:
        raw["seed"] = seed
    ExperimentConfig.from_dict(raw)
print(json.dumps({"import_s": ready - start}))
"""


@dataclass
class Command:
    label: str
    kind: str  # pointwise, necessity or normcheck
    config: Path
    out: Path
    seed: int | None  # passed with --seed; None when the config holds it

    def argv(self) -> list[str]:
        argv = [self.kind, "--config", str(self.config), "--out", str(self.out)]
        return argv + ([] if self.seed is None else ["--seed", str(self.seed)])


def pointwise_2d_config(base: dict, m: int, n: int, points: int, seed: int) -> dict:
    """A pointwise config with a 2-d block: the reference families and
    family params, balanced exponents alpha = m/2, beta = n/2, p = 4/3."""
    return {"grid": {"m": m, "n": n, "half_width": base["grid"]["half_width"],
                     "points_per_axis": points},
            "exponents": {"alpha": m / 2, "beta": n / 2, "p": 4 / 3},
            "families": base["families"], "family_params": base["family_params"],
            "dilations": [[0.5, 0.5], [1.0, 1.0], [2.0, 2.0]],
            "points_stride": 8, "seed": seed, "tolerances": base["tolerances"]}


def build_commands(workload: str, seed: int, work: Path) -> list[Command]:
    configs = ROOT / "configs"
    if workload == "pointwise-1d":
        return [Command("pointwise", "pointwise", configs / "pointwise.json",
                        work / "pointwise", seed)]
    if workload == "pointwise-2d":
        base = json.loads((configs / "pointwise.json").read_text())
        (work / "configs").mkdir(parents=True, exist_ok=True)
        cmds = []
        for m, n, points in ((2, 1, 32), (2, 2, 16)):
            label = f"pointwise-{m}{n}"
            path = work / "configs" / f"{label}.json"
            path.write_text(json.dumps(pointwise_2d_config(base, m, n, points, seed),
                                       indent=2) + "\n")
            cmds.append(Command(label, "pointwise", path, work / label, None))
        return cmds
    return [Command(f"necessity-{kind}", "necessity", configs / f"necessity_{kind}.json",
                    work / f"necessity-{kind}", seed) for kind in ("balanced", "unbalanced")
            ] + [Command("normcheck", "normcheck", configs / "normcheck.json",
                         work / "normcheck", seed)]


def measure_setup(cmds: list[Command]) -> tuple[float, float]:
    """Wall time of a fresh interpreter importing the CLI and parsing the
    configs, and the import time the child measured itself."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users run from cached bytecode
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    jobs = json.dumps([[str(c.config), c.seed] for c in cmds])
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", SETUP_CHILD, jobs], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    wall = time.perf_counter() - start
    return wall, json.loads(child.stdout)["import_s"]


def run_pass(main, cmds: list[Command]) -> tuple[float, list]:
    """Run the command list once; returns its wall time and exit codes."""
    for c in cmds:
        shutil.rmtree(c.out, ignore_errors=True)
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        for c in cmds:
            try:
                codes.append(main(c.argv()))
            except Exception as exc:  # a crash is a failed check, not a lost run
                codes.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return elapsed, codes


def read_summary(cmd: Command) -> dict:
    path = cmd.out / "summary.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def result_count(cmd: Command, summary: dict) -> int:
    """Certificates delivered (pointwise) or norm-ratio rows (sweeps)."""
    if cmd.kind == "pointwise":
        return sum(inst["points"] for inst in summary.get("instances", []))
    rows = summary.get("rows", 0)
    return rows if cmd.kind == "necessity" else len(rows)


class Passes:
    """Runs passes of a workload and checks each one's verdicts and bytes."""

    def __init__(self, cmds: list[Command], gate: Gate):
        self.cmds = cmds
        self.gate = gate
        self.reference: dict[str, dict] | None = None
        self.results = 0

    def run(self, main) -> float:
        elapsed, codes = run_pass(main, self.cmds)
        outputs = {}
        results = 0
        for cmd, code in zip(self.cmds, codes):
            summary = read_summary(cmd)
            check_verdict(self.gate, cmd.label, code, summary,
                          EXPECTED["verdicts"][cmd.label])
            outputs[cmd.label] = digests(cmd.out) if cmd.out.is_dir() else {}
            results += result_count(cmd, summary)
        if self.reference is None:
            self.reference = outputs
            self.results = results
        else:
            for label, files in outputs.items():
                self.gate.check(files == self.reference[label],
                                f"{label}: outputs differ from the first pass")
        return elapsed


def check_outputs(gate: Gate, cmds: list[Command], seed: int) -> dict:
    """Re-check the last pass's certificates, and the headline numbers
    against the seed-commit references.  The headline maxima come from
    the deterministic families, so they do not depend on the seed; the
    seeded random family stays 15-20% below them."""
    from prodhls.harness import ExperimentConfig, make_family
    from prodhls.kernel import riesz_kernel

    rng = np.random.default_rng(seed)
    stats = {"certificates": 0, "case2": 0, "max_utilization": 0.0}
    for cmd in cmds:
        summary = read_summary(cmd)
        check_headline(gate, cmd.label, summary, EXPECTED["headline"][cmd.label])
        if cmd.kind != "pointwise":
            continue
        raw = json.loads(cmd.config.read_text())
        if cmd.seed is not None:
            raw["seed"] = cmd.seed
        cfg = ExperimentConfig.from_dict(raw)
        kernel = riesz_kernel(cfg.grid, cfg.exponents).values

        def instance_inputs(family, s, t, cfg=cfg, kernel=kernel):
            fam = make_family(family, cfg.grid, cfg.family_params.get(family), cfg.seed)
            return fam(s, t).values, kernel, cfg.grid.cell_volume

        path = cmd.out / "certificates.json"
        if not gate.check(path.is_file(), f"{cmd.label}: no certificates.json"):
            continue
        document = json.loads(path.read_text())
        got = check_certificates(gate, cmd.label, document, summary, instance_inputs, rng)
        stats["certificates"] += got["certificates"]
        stats["case2"] += got["case2"]
        stats["max_utilization"] = max(stats["max_utilization"], got["max_utilization"])
    return stats


def percentile_us(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e6 if durations else 0.0


def layer_metrics(tracer: LayerTracer, first: int, stop: int) -> dict:
    """Per-layer totals of one traced pass, from ``spans[first:stop]``."""
    spans = tracer.spans[first:stop]
    own = tracer.self_times(first, stop)
    length = [s.end - s.start for s in spans]

    def named(layer, *names):
        return lambda s: s.layer == layer and s.name in names

    def on_layer(layer):
        return lambda s: s.layer == layer

    def total(values, keep):
        return sum(v for s, v in zip(spans, values) if keep(s))

    def calls(keep):
        return sum(1 for s in spans if keep(s))

    work = [s.work for s in spans]
    split = named("convolution", "region_split")
    fft = named("convolution", "convolve_fast")
    strong = named("maximal", "strong_maximal")
    partial = named("maximal", "partial_maximal_x", "partial_maximal_y")
    prepare = named("hedberg", "prepare_certification")
    certify = named("hedberg", "certify_point")
    maximal_s = total(own, strong) + total(own, partial)
    cell_windows = total(work, strong) + total(work, partial)
    return {
        "harness.config_s": total(length, named("harness", "ExperimentConfig.from_dict")),
        "harness.self_s": total(own, on_layer("harness")),
        "harness.write_s": total(length, lambda s: s.layer == "harness"
                                 and s.name.startswith("write_")),
        "convolution.split_s": total(own, split),
        "convolution.split_calls": calls(split),
        "convolution.fft_s": total(own, fft),
        "convolution.fft_calls": calls(fft),
        "convolution.fft_bytes_computed": total(work, fft),
        "maximal.strong_s": total(own, strong),
        "maximal.strong_calls": calls(strong),
        "maximal.partial_s": total(own, partial),
        "maximal.partial_calls": calls(partial),
        "maximal.ns_per_cell_window": maximal_s * 1e9 / cell_windows if cell_windows else 0.0,
        "hedberg.prepare_self_s": total(own, prepare),
        "hedberg.prepare_calls": calls(prepare),
        "hedberg.certify_self_s": total(own, certify),
        "hedberg.certify_calls": calls(certify),
        "grid.self_s": total(own, on_layer("grid")),
        "grid.calls": calls(on_layer("grid")),
        "kernel.self_s": total(own, on_layer("kernel")),
        "kernel.calls": calls(on_layer("kernel")),
    }


PROBES = {
    # bytes computed from the shapes: float64 operands and full linear convolution
    ("convolution", "convolve_fast"): lambda f, k: 8 * (
        f.values.size + k.values.size + int(np.prod([2 * n - 1 for n in f.values.shape]))),
    # one cell-window is one window average evaluated at one cell
    ("maximal", "strong_maximal"): lambda f, w: f.values.size * len(w.radii) ** 2,
    ("maximal", "partial_maximal_x"): lambda f, w: f.values.size * len(w.radii),
    ("maximal", "partial_maximal_y"): lambda f, w: f.values.size * len(w.radii),
}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Gate, dict]:
    import prodhls.cli as cli

    work = BENCH / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmds = build_commands(workload, seed, work)

    gate = Gate()
    passes = Passes(cmds, gate)
    passes.run(cli.main)  # warm-up; its outputs are the byte reference
    # set-ups are spread between the passes, so that a spell of host load
    # slows some of them rather than all
    setups = [measure_setup(cmds)]
    tracer = LayerTracer(probes=PROBES)
    traced_main = tracer.wrap("cli", "main", cli.main)
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    start = time.perf_counter()
    while (len(plain) + len(traced) < MIN_PASSES or len(setups) < SETUP_REPS
           or time.perf_counter() - start < seconds):
        if trace and len(traced) < len(plain):
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(passes.run(traced_main))
            finally:
                tracer.uninstall()
            per_pass.append(layer_metrics(tracer, first, len(tracer.spans)))
        else:
            plain.append(passes.run(cli.main))
        setups.append(measure_setup(cmds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = check_outputs(gate, cmds, seed)

    # the host's speed drifts over seconds to minutes; a run's fastest pass
    # or set-up is no steadier than its median (see README.md)
    run_s = statistics.median(plain)
    print("passes (s): " + " ".join(f"{t:.3f}" for t in plain)
          + (" | traced: " + " ".join(f"{t:.3f}" for t in traced) if trace else ""))
    print("set-ups (s): " + " ".join(f"{t:.3f}" for t, _ in setups))
    if not trace:
        return gate, {
            "setup_s": statistics.median(s for s, _ in setups),
            "run_s": run_s,
            "results_per_s": passes.results / run_s,
            "peak_rss_mb": peak_rss_mb,
        }
    tracer.dump(work / "spans.json")
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    for key, layer, name in (("convolution.split", "convolution", "region_split"),
                             ("hedberg.certify", "hedberg", "certify_point")):
        durations = [s.end - s.start for s in tracer.spans
                     if (s.layer, s.name) == (layer, name)]
        metrics[f"{key}_p50_us"] = percentile_us(durations, 50)
        metrics[f"{key}_p99_us"] = percentile_us(durations, 99)
    metrics["harness.write_bytes"] = sum(p.stat().st_size for c in cmds
                                         for p in c.out.iterdir())
    metrics["hedberg.case2_frac"] = (stats["case2"] / stats["certificates"]
                                     if stats["certificates"] else 0.0)
    metrics["hedberg.max_region_utilization"] = stats["max_utilization"]
    metrics["cli.import_s"] = statistics.median(i for _, i in setups)
    metrics["trace.run_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
    return gate, metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prodhls" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no prodhls source tree (src/prodhls, configs) at {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    gate, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")
    for message in gate.failures[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    attempted = gate.attempted
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':34s} {gate.failed / attempted:>16.6g} ratio "
          f"({gate.failed} of {attempted} checks failed)")
    print(json.dumps({
        "correct": gate.failed == 0, "attempted": attempted, "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
