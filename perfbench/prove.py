"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/prove.py --runs 10 [--workload sweeps ...] [--trace 1]
        [--record perfbench/trajectory.json --label "seed commit"]

For each workload it runs ``run.py`` once per seed (seeds 1..runs), then
prints every metric's median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread
as a share of the median, next to the metric's bound in BENCHMARK.json.
A call count or ``convolution.fft_bytes_computed`` that differs between
runs marks the runs as unsteady, and the exit code is 1.
``--record`` appends the medians and quartiles, with the machine they were
measured on, as one point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(out.stderr)
    return result


def is_repeatable(name: str) -> bool:
    """Counts that must read the same on every run, whatever the seed."""
    return name.endswith("calls") or name == "convolution.fft_bytes_computed"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    unsteady = []

    point = {"label": args.label, "machine": machine(), "runs": args.runs,
             "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {args.runs} runs, {failed} failed checks of "
              f"{sum(r['attempted'] for r in results)}")
        summary = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": first["unit"],
                             "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"bound {bound:.2f}" + ("  SPREAD > bound/3" if spread > bound / 3 else ""))
            if is_repeatable(name) and len(set(values)) > 1:
                flag += "  NOT REPEATABLE"
                unsteady.append(f"{workload} {name}")
            print(f"  {name:34s} median {median:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} "
                  f"{first['unit']:6s} spread {spread:7.2%}  {flag}")
        point["workloads"][workload] = summary
    if args.record:
        trajectory = json.loads(args.record.read_text()) if args.record.is_file() else []
        trajectory.append(point)
        args.record.write_text(json.dumps(trajectory, indent=2) + "\n")
    if unsteady:
        print("unsteady: counts differ between runs: " + ", ".join(unsteady))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
