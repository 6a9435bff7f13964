"""Experiment orchestration: pointwise campaigns, dilation sweeps, norm checks.

Configurations are plain JSON; identical configuration and seed produce
byte-identical CSV/JSON reports.  Every summary embeds the sha256 of the
canonical configuration and the library version.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .convolution import convolve_fast
from .grid import GridFunction, ProductGrid, dilate, lp_norm, sample_function
from .hedberg import (CERTIFICATE_SCHEMA_VERSION, HedbergCertificate,
                      certify_point, check_exponents, prepare_certification)
from .kernel import Exponents, riesz_kernel

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "make_family",
    "FAMILY_NAMES",
    "run_pointwise_campaign",
    "PointwiseReport",
    "InstanceResult",
    "run_necessity_sweep",
    "SlopeReport",
    "SweepRow",
    "run_norm_check",
    "NormCheckReport",
    "write_summary_json",
    "write_certificates_json",
    "write_slopes_csv",
]

# Parameter keys and defaults of each family, read by make_family and by
# config validation; the spike's default half extent (None) is 8 cells.
_FAMILY_PARAMS = {
    "gaussian": {"sigma": 0.125},
    "box": {"half_extent": 0.5},
    "tensor-box": {"half_extent_x": 0.5, "half_extent_y": 0.25},
    "spike": {"half_extent": None},
    "random": {},
}
FAMILY_NAMES = tuple(_FAMILY_PARAMS)
_CONFIG_KEYS = ("grid", "exponents", "families", "family", "family_params",
                "dilations", "seed", "points_stride", "tolerances")
# The tolerance keys each experiment reads; it rejects every other key.
_TOLERANCE_READERS = {"pointwise": ("suite_constant", "stability_factor"),
                      "necessity": ("slope_tolerance",),
                      "normcheck": ("norm_constant", "stability_factor")}
_TOLERANCE_KEYS = {k for keys in _TOLERANCE_READERS.values() for k in keys}

DEFAULT_STABILITY_FACTOR = 2.0
DEFAULT_SLOPE_TOLERANCE = 0.05
MIN_LADDER_POINTS = 5
MIN_LADDER_SPAN = 10.0


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    grid: ProductGrid
    exponents: Exponents
    families: tuple[str, ...] = ("gaussian",)
    family_params: dict = field(default_factory=dict)
    dilations: tuple[tuple[float, float], ...] = ((1.0, 1.0),)
    seed: int = 0
    points_stride: int = 8
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.families:
            raise ConfigError("families must be nonempty")
        for name in self.families:
            _family_params(name, None)
        for name, params in _check_keys(self.family_params, FAMILY_NAMES + ("random-seeded",),
                                        "family_params").items():
            _family_params(name, params)
        for key, value in _check_keys(self.tolerances, _TOLERANCE_KEYS, "tolerances").items():
            _number(value, f"tolerances {key}")
        if not self.dilations:
            raise ConfigError("dilation ladder must be nonempty")
        for s, t in self.dilations:
            if not (0.0 < s < math.inf and 0.0 < t < math.inf):
                raise ConfigError(f"dilations must be positive and finite, got ({s}, {t})")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.points_stride < 1:
            raise ConfigError(f"points_stride must be >= 1, got {self.points_stride}")
        if max(self.grid.m, self.grid.n) == 2 and self.grid.points_per_axis > 48:
            raise ConfigError(
                "grids with a 2-d block are capped at 48 points per axis "
                "(keeps the direct-sum oracle runnable)")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Parse a JSON config; unknown keys, non-finite numbers and
        non-integer counts raise :class:`ConfigError`."""
        try:
            _check_keys(raw, _CONFIG_KEYS, "config")
            g = _check_keys(raw["grid"], ("m", "n", "half_width", "points_per_axis"), "grid")
            seed, stride = raw.get("seed", 0), raw.get("points_stride", 8)
            for where, value in (("grid m", g["m"]), ("grid n", g["n"]),
                                 ("grid points_per_axis", g["points_per_axis"]),
                                 ("seed", seed), ("points_stride", stride)):
                _number(value, where, integer=True)
            grid = ProductGrid(m=g["m"], n=g["n"], half_width=float(g["half_width"]),
                               points_per_axis=g["points_per_axis"])
            e = _check_keys(raw["exponents"], ("alpha", "beta", "p", "q"), "exponents")
            if e.get("q") is not None:
                exps = Exponents(m=grid.m, n=grid.n, alpha=float(e["alpha"]),
                                 beta=float(e["beta"]), p=float(e["p"]), q=float(e["q"]))
            else:
                exps = Exponents.from_balance(m=grid.m, n=grid.n, alpha=float(e["alpha"]),
                                              beta=float(e["beta"]), p=float(e["p"]))
            families = raw.get("families")
            if families is None:
                families = [raw["family"]] if "family" in raw else ["gaussian"]
            dil = tuple((float(s), float(t)) for s, t in raw.get("dilations", [(1.0, 1.0)]))
            return cls(grid=grid, exponents=exps, families=tuple(families),
                       family_params=dict(raw.get("family_params", {})),
                       dilations=dil, seed=seed, points_stride=stride,
                       tolerances=dict(raw.get("tolerances", {})))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad configuration: {exc}") from exc

    def to_canonical_dict(self) -> dict:
        return {
            "grid": {"m": self.grid.m, "n": self.grid.n,
                     "half_width": self.grid.half_width,
                     "points_per_axis": self.grid.points_per_axis},
            "exponents": {"alpha": self.exponents.alpha, "beta": self.exponents.beta,
                          "p": self.exponents.p, "q": self.exponents.q},
            "families": list(self.families),
            "family_params": self.family_params,
            "dilations": [[s, t] for s, t in self.dilations],
            "seed": self.seed,
            "points_stride": self.points_stride,
            "tolerances": self.tolerances,
        }

    def sha256(self) -> str:
        canon = json.dumps(self.to_canonical_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def stability_factor(self) -> float:
        return float(self.tolerances.get("stability_factor", DEFAULT_STABILITY_FACTOR))

    def slope_tolerance(self) -> float:
        return float(self.tolerances.get("slope_tolerance", DEFAULT_SLOPE_TOLERANCE))


def _canonical_family(name: str) -> str:
    return "random" if name == "random-seeded" else name


def _check_keys(section, allowed, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = sorted(str(k) for k in section if k not in allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")
    return section


def _number(value, where: str, integer: bool = False):
    ok = (isinstance(value, int) if integer
          else isinstance(value, (int, float)) and math.isfinite(value))
    if isinstance(value, bool) or not ok:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return value


def _family_params(name: str, params: dict | None) -> dict:
    """The family's default parameters overridden by ``params``."""
    kind = _canonical_family(name)
    if kind not in _FAMILY_PARAMS:
        raise ConfigError(f"unknown function family {name!r}")
    params = _check_keys(params or {}, _FAMILY_PARAMS[kind], f"{name} parameter")
    for key, value in params.items():  # every family parameter is a length
        if not _number(value, f"{name} parameter {key}") > 0:
            raise ConfigError(f"{name} parameter {key} must be positive, got {value!r}")
    return {**_FAMILY_PARAMS[kind], **params}


def make_family(name: str, grid: ProductGrid, params: dict | None = None,
                seed: int = 0):
    """Build a dilation family: a callable (s, t) -> GridFunction.

    The analytic families (gaussian, box, tensor-box, spike) are
    evaluated directly at the scaled coordinates, which is the exact
    dilation f(s x, t y); the seeded random family resamples a fixed
    noise field through :func:`prodhls.grid.dilate`.  Unknown names or
    parameter keys and non-positive parameters raise :class:`ConfigError`.
    """
    kind = _canonical_family(name)
    params = _family_params(name, params)
    m = grid.m

    if kind == "gaussian":
        sigma = float(params["sigma"])

        def fam(s, t):
            def values(*cs):
                # one expression: numpy reuses the unnamed temporaries in place
                return np.exp(-(sum((s * c) ** 2 for c in cs[:m])
                                + sum((t * c) ** 2 for c in cs[m:])) / (2.0 * sigma ** 2))
            return sample_function(grid, values)
        return fam
    if kind == "random":
        rng = np.random.default_rng(seed)
        base = GridFunction(grid, rng.uniform(0.0, 1.0, size=grid.shape))
        return lambda s, t: dilate(base, s, t)

    # box, tensor-box and spike: amp times the indicator of the box
    # |s x_i| <= wx (x-block axes), |t y_j| <= wy (y-block axes)
    if kind == "tensor-box":
        wx, wy, amp = float(params["half_extent_x"]), float(params["half_extent_y"]), 1.0
    else:
        # the spike is a near-delta: a unit-mass box a few cells wide at
        # unit dilation, wide enough that a 4x shrink still covers cells
        w = params["half_extent"]
        w = float(8.0 * grid.spacing if w is None else w)
        wx, wy, amp = w, w, ((2.0 * w) ** (-grid.rank) if kind == "spike" else 1.0)

    def fam(s, t):
        def values(*cs):
            inside = 1.0
            for i, c in enumerate(cs):
                scale, half = (s, wx) if i < m else (t, wy)
                inside = inside * (np.abs(scale * c) <= half)
            return amp * inside  # float64: the first factor is 1.0 * bool
        return sample_function(grid, values)

    return fam


def _sample_points(grid: ProductGrid, stride: int) -> list[tuple[int, ...]]:
    axis = range(0, grid.points_per_axis, stride)
    pts: list[tuple[int, ...]] = [()]
    for _ in range(grid.rank):
        pts = [p + (i,) for p in pts for i in axis]
    return pts


@dataclass
class InstanceResult:
    """Certification outcome for one (family, s, t) instance; an all-zero
    instance has no certificates."""

    family: str
    s: float
    t: float
    certificates: list[HedbergCertificate]

    @property
    def n_points(self) -> int:
        return len(self.certificates)

    @property
    def max_ratio(self) -> float:
        return max((c.ratio for c in self.certificates), default=0.0)

    @property
    def worst_point(self) -> tuple[int, ...] | None:
        """The first node with the largest ratio."""
        worst = max(self.certificates, key=lambda c: c.ratio, default=None)
        return None if worst is None else worst.point

    @property
    def case_counts(self) -> dict:
        return dict(Counter(str(c.case_id) for c in self.certificates))


@dataclass
class PointwiseReport:
    instances: list[InstanceResult]
    max_ratio: float
    family_stability: dict
    stability_factor: float
    suite_constant: float | None
    passed: bool

    def summary_dict(self) -> dict:
        return {
            "experiment": "pointwise",
            "max_lhs_over_bound": self.max_ratio,
            "suite_constant": self.suite_constant,
            "stability_factor_required": self.stability_factor,
            "family_stability": self.family_stability,
            "instances": [{
                "family": r.family, "s": r.s, "t": r.t, "points": r.n_points,
                "max_ratio": r.max_ratio,
                "worst_point": list(r.worst_point) if r.worst_point else None,
                "case_counts": r.case_counts,
            } for r in self.instances],
            "passed": self.passed,
        }


def _certify_instance(cfg: ExperimentConfig, family: str, s: float, t: float,
                      points) -> InstanceResult:
    f = make_family(family, cfg.grid, cfg.family_params.get(family), cfg.seed)(s, t)
    certs = []
    if np.any(f.values):
        ctx = prepare_certification(f, cfg.exponents)
        certs = [certify_point(ctx, pt) for pt in points]
    return InstanceResult(family=family, s=s, t=t, certificates=certs)


def _require_admissible(cfg: ExperimentConfig, experiment: str) -> None:
    report = check_exponents(cfg.exponents)
    if not report.ok:
        raise ConfigError(
            f"{experiment} needs admissible exponents "
            f"(violated: {report.first_violation})")


def _verdict(cfg: ExperimentConfig, results: list[tuple[str, float]],
             pinned: float | None) -> tuple[float, dict, float, bool]:
    """Max ratio, per-family dilation spread, stability factor and verdict
    of ``(family, ratio)`` pairs.  A spread is the max/min of a family's
    positive ratios (None if none); the run passes when every spread is
    below the factor and the max ratio is finite and at most ``pinned``."""
    max_ratio = max((r for _, r in results), default=0.0)
    spread: dict[str, float | None] = {}
    for family in cfg.families:
        ratios = [r for fam, r in results if fam == family and r > 0.0]
        spread[family] = (max(ratios) / min(ratios)) if ratios else None
    factor = cfg.stability_factor()
    stable = all(v is None or v < factor for v in spread.values())
    within = pinned is None or max_ratio <= float(pinned)
    return max_ratio, spread, factor, bool(stable and within and math.isfinite(max_ratio))


def run_pointwise_campaign(cfg: ExperimentConfig) -> PointwiseReport:
    """Certify every configured instance on a sublattice of grid nodes.

    Raises :class:`prodhls.hedberg.CertificateViolation` if any region
    check fails anywhere; the CLI turns that into a diagnostic dump.
    """
    _check_keys(cfg.tolerances, _TOLERANCE_READERS["pointwise"], "pointwise tolerances")
    _require_admissible(cfg, "pointwise campaign")
    points = _sample_points(cfg.grid, cfg.points_stride)
    instances = [_certify_instance(cfg, family, s, t, points)
                 for family in cfg.families for s, t in cfg.dilations]
    suite_constant = cfg.tolerances.get("suite_constant")
    max_ratio, stability, factor, passed = _verdict(
        cfg, [(r.family, r.max_ratio) for r in instances], suite_constant)
    return PointwiseReport(instances=instances, max_ratio=max_ratio,
                           family_stability=stability, stability_factor=factor,
                           suite_constant=suite_constant, passed=passed)


@dataclass
class SweepRow:
    s: float
    t: float
    norm_q: float
    norm_p: float

    @property
    def ratio(self) -> float:
        return self.norm_q / self.norm_p if self.norm_p > 0.0 else 0.0


@dataclass
class SlopeReport:
    """Log-log slopes of the norm ratio under per-block dilation.

    The change-of-variables prediction is ``m (1/p - 1/q) - alpha`` for
    the x-dilation slope and ``n (1/p - 1/q) - beta`` for the
    y-dilation slope; both vanish exactly on balanced exponents.
    """

    rows: list[SweepRow]
    slope_s: float
    slope_t: float
    theoretical_slope_s: float
    theoretical_slope_t: float
    slope_tolerance: float
    passed: bool

    def summary_dict(self) -> dict:
        return {
            "experiment": "necessity",
            "slope_s": self.slope_s,
            "slope_t": self.slope_t,
            "theoretical_slope_s": self.theoretical_slope_s,
            "theoretical_slope_t": self.theoretical_slope_t,
            "slope_tolerance": self.slope_tolerance,
            "rows": len(self.rows),
            "passed": self.passed,
        }


def _validate_ladder(values: list[float], label: str) -> None:
    if len(values) < MIN_LADDER_POINTS:
        raise ConfigError(
            f"{label}-ladder has {len(values)} points; needs at least "
            f"{MIN_LADDER_POINTS}")
    span = max(values) / min(values)
    if span < MIN_LADDER_SPAN * (1.0 - 1e-9):
        raise ConfigError(
            f"{label}-ladder spans a factor {span:.3g}; needs at least a decade")


def run_necessity_sweep(cfg: ExperimentConfig) -> SlopeReport:
    """Fit the norm-ratio scaling exponents under anisotropic dilation.

    The configured dilation pairs must contain an (s, 1) ladder and a
    (1, t) ladder, each with at least five points spanning a decade, and
    no dilated instance may vanish on the grid; otherwise
    :class:`ConfigError` is raised.
    """
    _check_keys(cfg.tolerances, _TOLERANCE_READERS["necessity"], "necessity tolerances")
    family = cfg.families[0]
    fam = make_family(family, cfg.grid, cfg.family_params.get(family), cfg.seed)
    s_ladder = sorted({s for s, t in cfg.dilations if t == 1.0})
    t_ladder = sorted({t for s, t in cfg.dilations if s == 1.0})
    _validate_ladder(s_ladder, "s")
    _validate_ladder(t_ladder, "t")

    exps = cfg.exponents
    kernel = riesz_kernel(cfg.grid, exps)

    def measure(s: float, t: float) -> SweepRow:
        f = fam(s, t)
        row = SweepRow(s=s, t=t, norm_q=lp_norm(convolve_fast(f, kernel), exps.q),
                       norm_p=lp_norm(f, exps.p))
        if not row.ratio > 0.0:
            # log(0) would make both fitted slopes NaN
            raise ConfigError(f"{family} instance at (s, t) = ({s!r}, {t!r}) vanishes "
                              "on the grid; its norm ratio has no logarithm")
        return row

    rows = [measure(s, 1.0) for s in s_ladder]
    rows += [measure(1.0, t) for t in t_ladder]

    def fit(points: list[SweepRow], key) -> float:
        xs = np.log([key(r) for r in points])
        ys = np.log([r.ratio for r in points])
        return float(np.polyfit(xs, ys, 1)[0])

    slope_s = fit([r for r in rows if r.t == 1.0], lambda r: r.s)
    slope_t = fit([r for r in rows if r.s == 1.0], lambda r: r.t)
    gap = 1.0 / exps.p - 1.0 / exps.q
    theo_s = exps.m * gap - exps.alpha
    theo_t = exps.n * gap - exps.beta
    tol = cfg.slope_tolerance()
    passed = abs(slope_s - theo_s) <= tol and abs(slope_t - theo_t) <= tol
    return SlopeReport(rows=rows, slope_s=slope_s, slope_t=slope_t,
                       theoretical_slope_s=theo_s, theoretical_slope_t=theo_t,
                       slope_tolerance=tol, passed=passed)


@dataclass
class NormCheckReport:
    """Norm-inequality ratios across families and dilations."""

    rows: list[dict]
    max_ratio: float
    family_stability: dict
    stability_factor: float
    pinned_constant: float | None
    passed: bool

    def summary_dict(self) -> dict:
        return {
            "experiment": "normcheck",
            "max_ratio": self.max_ratio,
            "pinned_constant": self.pinned_constant,
            "stability_factor_required": self.stability_factor,
            "family_stability": self.family_stability,
            "rows": self.rows,
            "passed": self.passed,
        }


def run_norm_check(cfg: ExperimentConfig) -> NormCheckReport:
    """Measure ||f * kernel||_q / ||f||_p over every configured instance."""
    _check_keys(cfg.tolerances, _TOLERANCE_READERS["normcheck"], "normcheck tolerances")
    _require_admissible(cfg, "norm check")
    exps = cfg.exponents
    kernel = riesz_kernel(cfg.grid, exps)
    rows = []
    for family in cfg.families:
        fam = make_family(family, cfg.grid, cfg.family_params.get(family), cfg.seed)
        for s, t in cfg.dilations:
            f = fam(s, t)
            norm_p = lp_norm(f, exps.p)
            norm_q = lp_norm(convolve_fast(f, kernel), exps.q) if norm_p > 0.0 else 0.0
            rows.append({"family": family, "s": s, "t": t, "norm_q": norm_q,
                         "norm_p": norm_p,
                         "ratio": norm_q / norm_p if norm_p > 0.0 else 0.0})
    pinned = cfg.tolerances.get("norm_constant")
    max_ratio, stability, factor, passed = _verdict(
        cfg, [(r["family"], r["ratio"]) for r in rows], pinned)
    return NormCheckReport(rows=rows, max_ratio=max_ratio, family_stability=stability,
                           stability_factor=factor, pinned_constant=pinned,
                           passed=passed)


def write_summary_json(path, payload: dict, cfg: ExperimentConfig) -> Path:
    """Write ``payload`` as sorted JSON with the config sha256 and the
    library version embedded."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(payload, config_sha256=cfg.sha256(), library_version=__version__)
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return out


def write_certificates_json(path, report: PointwiseReport,
                            cfg: ExperimentConfig) -> Path:
    return write_summary_json(path, {
        "schema_version": CERTIFICATE_SCHEMA_VERSION,
        "instances": [{
            "family": r.family, "s": r.s, "t": r.t,
            "certificates": [c.to_json_dict() for c in r.certificates],
        } for r in report.instances],
    }, cfg)


def write_slopes_csv(path, report: SlopeReport) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["s,t,norm_q,norm_p,ratio,log_s,log_ratio"]
    for r in report.rows:
        log_ratio = math.log(r.ratio) if r.ratio > 0.0 else math.nan
        lines.append(",".join(repr(v) for v in
                              (r.s, r.t, r.norm_q, r.norm_p, r.ratio,
                               math.log(r.s), log_ratio)))
    out.write_text("\n".join(lines) + "\n")
    return out
