"""Command-line harness.

Subcommands: ``pointwise``, ``necessity``, ``normcheck``.  Exit codes:
0 all assertions pass, 1 assertion failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .harness import (ConfigError, ExperimentConfig, run_necessity_sweep,
                      run_norm_check, run_pointwise_campaign,
                      write_certificates_json, write_slopes_csv,
                      write_summary_json)
from .hedberg import CertificateViolation


@functools.cache  # one parser per process: each one built is a garbage cycle
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodhls",
        description="Product-space fractional-integral verification harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("pointwise", "certify the pointwise bound over a point sample"),
            ("necessity", "fit norm-ratio scaling slopes under dilation"),
            ("normcheck", "measure the norm inequality across a family suite")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def _load_config(args) -> ExperimentConfig:
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if args.seed is not None and isinstance(raw, dict):  # from_dict rejects a non-object
        raw["seed"] = args.seed
    return ExperimentConfig.from_dict(raw)


def _check_out_dir(out_dir: Path) -> None:
    """Reject an output path under which no directory can be created."""
    existing = out_dir
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError(f"--out {out_dir}: {existing} exists and is not a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the report writers create the directory, so a configuration error
    # raised during the run leaves nothing behind
    out_dir = Path(args.out)
    try:
        cfg = _load_config(args)
        _check_out_dir(out_dir)
        if args.command == "pointwise":
            return _run_pointwise(cfg, out_dir)
        if args.command == "necessity":
            return _run_necessity(cfg, out_dir)
        if args.command == "normcheck":
            return _run_normcheck(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def _run_pointwise(cfg: ExperimentConfig, out_dir: Path) -> int:
    try:
        report = run_pointwise_campaign(cfg)
    except CertificateViolation as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        dump = out_dir / "violation.json"
        dump.write_text(json.dumps(exc.diagnostics, sort_keys=True, indent=2) + "\n")
        print(f"FAIL region bound violation: {exc} (diagnostics in {dump})",
              file=sys.stderr)
        return 1
    write_certificates_json(out_dir / "certificates.json", report, cfg)
    write_summary_json(out_dir / "summary.json", report.summary_dict(), cfg)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} pointwise: max lhs/bound = {report.max_ratio:.6g} "
          f"over {sum(r.n_points for r in report.instances)} certificates")
    for family, spread in report.family_stability.items():
        spread_text = "n/a" if spread is None else f"{spread:.4g}"
        print(f"  {family}: dilation spread {spread_text} "
              f"(required < {report.stability_factor})")
    return 0 if report.passed else 1


def _run_necessity(cfg: ExperimentConfig, out_dir: Path) -> int:
    report = run_necessity_sweep(cfg)
    write_slopes_csv(out_dir / "slopes.csv", report)
    write_summary_json(out_dir / "summary.json", report.summary_dict(), cfg)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} necessity: slope_s = {report.slope_s:.4f} "
          f"(theory {report.theoretical_slope_s:.4f}), "
          f"slope_t = {report.slope_t:.4f} "
          f"(theory {report.theoretical_slope_t:.4f}), "
          f"tolerance {report.slope_tolerance}")
    return 0 if report.passed else 1


def _run_normcheck(cfg: ExperimentConfig, out_dir: Path) -> int:
    report = run_norm_check(cfg)
    write_summary_json(out_dir / "summary.json", report.summary_dict(), cfg)
    status = "PASS" if report.passed else "FAIL"
    pinned = "unpinned" if report.pinned_constant is None else repr(report.pinned_constant)
    print(f"{status} normcheck: max ||f*k||_q/||f||_p = {report.max_ratio:.6g} "
          f"(pinned constant: {pinned})")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
