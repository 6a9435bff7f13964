"""Experiment orchestration: pointwise campaigns, dilation sweeps, norm checks.

Configurations are plain JSON; identical configuration and seed produce
byte-identical CSV/JSON reports.  Every summary embeds the sha256 of the
canonical configuration and the library version.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .convolution import _convolve_block, convolve_fast
from .grid import GridFunction, ProductGrid, TensorProduct, _lp_norm, dilate, lp_norm
from .hedberg import CERTIFICATE_SCHEMA_VERSION, CertificateTable, certify_instances
from .kernel import Exponents, block_factors, check_blocks, riesz_kernel

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
    """Declarative description of one experiment run.  :meth:`from_dict` and
    direct construction share one rule set, checked here once per field;
    ``None`` (JSON ``null``) is a wrong value, never a default."""

    grid: ProductGrid
    exponents: Exponents
    families: tuple[str, ...] = ("gaussian",)
    family_params: dict = field(default_factory=dict)
    dilations: tuple[tuple[float, float], ...] = ((1.0, 1.0),)
    seed: int = 0
    points_stride: int = 8
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value, kind in (("grid", self.grid, ProductGrid),
                                  ("exponents", self.exponents, Exponents)):
            if not isinstance(value, kind):
                raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
        try:
            check_blocks(self.grid, self.exponents)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not (isinstance(self.families, (list, tuple))
                and all(isinstance(f, str) for f in self.families)):
            raise ConfigError(f"families must be a list of strings, got {self.families!r}")
        self.families = tuple(self.families)
        if not self.families:
            raise ConfigError("families must be nonempty")
        for name in self.families:
            _family_params(name, {})
        for name, params in _check_keys(self.family_params, FAMILY_NAMES, "family_params").items():
            _family_params(name, params)
        for key, value in _check_keys(self.tolerances, _TOLERANCE_KEYS, "tolerances").items():
            # a dilation spread is max/min >= 1, and the verdict needs spread < factor
            floor = 1.0 if key == "stability_factor" else 0.0
            if not _number(value, f"tolerances {key}") > floor:
                raise ConfigError(f"tolerances {key} must be > {floor}, got {value!r}")
        if not (isinstance(self.dilations, (list, tuple)) and all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in self.dilations)):
            raise ConfigError(f"dilations must be a list of [s, t] pairs, got {self.dilations!r}")
        self.dilations = tuple((float(_number(s, "dilation s")), float(_number(t, "dilation t")))
                               for s, t in self.dilations)
        for what, items in (("family", self.families), ("dilation pair", self.dilations)):
            if repeated := sorted({str(x) for x in items if items.count(x) > 1}):
                raise ConfigError(f"repeated {what}: {', '.join(repeated)}")
        if not self.dilations:
            raise ConfigError("dilation ladder must be nonempty")
        for s, t in self.dilations:
            if not (0.0 < s < math.inf and 0.0 < t < math.inf):
                raise ConfigError(f"dilations must be positive and finite, got ({s}, {t})")
        if _number(self.seed, "seed", integer=True) < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if _number(self.points_stride, "points_stride", integer=True) < 1:
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
            _check_keys(raw, {f.name for f in fields(cls)}, "config")
            g = _check_keys(raw["grid"], ("m", "n", "half_width", "points_per_axis"), "grid")
            for key in ("m", "n", "points_per_axis"):
                _number(g[key], f"grid {key}", integer=True)
            grid = ProductGrid(m=g["m"], n=g["n"],
                               half_width=float(_number(g["half_width"], "grid half_width")),
                               points_per_axis=g["points_per_axis"])
            e = _check_keys(raw["exponents"], ("alpha", "beta", "p", "q"), "exponents")
            e = {k: float(_number(v, f"exponents {k}")) for k, v in e.items()}
            exps = (Exponents if "q" in e else Exponents.from_balance)(m=grid.m, n=grid.n, **e)
            return cls(**dict(raw, grid=grid, exponents=exps))
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad configuration: {exc}") from exc

    def to_canonical_dict(self) -> dict:
        """Every field, as hashed by :meth:`sha256`; the exponents' block
        dimensions are the grid's."""
        canon = asdict(self)
        del canon["exponents"]["m"], canon["exponents"]["n"]
        return canon

    def sha256(self) -> str:
        canon = json.dumps(self.to_canonical_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def stability_factor(self) -> float:
        return float(self.tolerances.get("stability_factor", DEFAULT_STABILITY_FACTOR))

    def slope_tolerance(self) -> float:
        return float(self.tolerances.get("slope_tolerance", DEFAULT_SLOPE_TOLERANCE))


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


def _family_params(name: str, params: dict) -> dict:
    """The family's default parameters overridden by ``params``, which
    must be a JSON object."""
    if name not in _FAMILY_PARAMS:
        raise ConfigError(f"unknown function family {name!r}")
    params = _check_keys(params, _FAMILY_PARAMS[name], f"{name} parameter")
    for key, value in params.items():  # every family parameter is a length
        if not _number(value, f"{name} parameter {key}") > 0:
            raise ConfigError(f"{name} parameter {key} must be positive, got {value!r}")
    params = {**_FAMILY_PARAMS[name], **params}
    if name == "gaussian":  # the gaussian divides by 2 sigma^2
        try:
            width = 2.0 * float(params["sigma"]) ** 2
        except OverflowError:
            width = math.inf
        if not 0.0 < width < math.inf:
            raise ConfigError(f"gaussian parameter sigma {params['sigma']!r} gives "
                              f"2 sigma^2 = {width}, not positive and finite")
    return params


def make_family(name: str, grid: ProductGrid, params: dict | None = None,
                seed: int = 0):
    """Build a dilation family: a callable (s, t) -> GridFunction.

    The analytic families (gaussian, box, tensor-box, spike) are outer
    products of block factors, each of which depends on its own dilation
    alone: ``fam.blocks`` is a pair of one-argument callables, the first
    giving the x-block array at s, shape (N,)*m, and the second the
    y-block array at t, shape (N,)*n, each evaluated directly at the
    scaled coordinates, which is the exact dilation f(s x, t y); the
    spike's amplitude is a constant on the x factor.  ``fam(s, t)`` is
    their outer product, so the field a pointwise run certifies is the
    one a sweep measures block by block, and a sweep measures each block
    once per distinct dilation of it.  The seeded random family resamples
    a fixed noise field through :func:`prodhls.grid.dilate`, and its
    ``fam.blocks`` is None.  Unknown names or parameter keys and
    non-positive parameters raise :class:`ConfigError`.
    """
    params = _family_params(name, {} if params is None else params)
    if name == "random":
        rng = np.random.default_rng(seed)
        base = GridFunction(grid, rng.uniform(0.0, 1.0, size=grid.shape))

        def fam(s, t):
            return dilate(base, s, t)
        fam.blocks = None
        return fam

    centers = grid.axis_centers()
    x_axes, y_axes = (np.meshgrid(*[centers] * dim, indexing="ij", sparse=True)
                      for dim in (grid.m, grid.n))
    if name == "gaussian":
        sigma = float(params["sigma"])

        def block(scale, axes):
            return np.exp(-sum((scale * c) ** 2 for c in axes) / (2.0 * sigma ** 2))

        blocks = (lambda s: block(s, x_axes)), (lambda t: block(t, y_axes))
    else:
        # box, tensor-box and spike: amp times the indicator of the box
        # |s x_i| <= wx (x-block axes), |t y_j| <= wy (y-block axes)
        if name == "tensor-box":
            wx, wy, amp = float(params["half_extent_x"]), float(params["half_extent_y"]), 1.0
        else:
            # the spike is a near-delta: a unit-mass box a few cells wide at
            # unit dilation, wide enough that a 4x shrink still covers cells
            w = params["half_extent"]
            w = float(8.0 * grid.spacing if w is None else w)
            wx, wy, amp = w, w, ((2.0 * w) ** (-grid.rank) if name == "spike" else 1.0)

        def block(scale, half, axes):
            inside = 1.0
            for c in axes:
                inside = inside * (np.abs(scale * c) <= half)
            return inside  # float64: the first factor is 1.0 * bool

        blocks = (lambda s: amp * block(s, wx, x_axes)), (lambda t: block(t, wy, y_axes))

    def fam(s, t):
        return GridFunction._adopt(grid, np.multiply.outer(blocks[0](s), blocks[1](t)))
    fam.blocks = blocks
    return fam


def _sample_points(grid: ProductGrid, stride: int) -> np.ndarray:
    """The nodes whose every index is a multiple of ``stride``, one per
    row in row-major order (the last index runs fastest)."""
    axis = np.arange(0, grid.points_per_axis, stride)
    mesh = np.meshgrid(*[axis] * grid.rank, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, grid.rank)


@dataclass
class InstanceResult:
    """Certification outcome for one (family, s, t) instance, read from its
    certificate table; an instance whose L^p norm is 0 on the grid has no
    certificates."""

    family: str
    s: float
    t: float
    certificates: CertificateTable

    @property
    def n_points(self) -> int:
        return len(self.certificates)

    @property
    def max_ratio(self) -> float:
        return float(self.certificates.ratio.max(initial=0.0))

    @property
    def worst_point(self) -> tuple[int, ...] | None:
        """The first node with the largest ratio."""
        if not self.n_points:
            return None
        return tuple(self.certificates.point[np.argmax(self.certificates.ratio)].tolist())

    @property
    def case_counts(self) -> dict:
        return dict(Counter(map(str, self.certificates.case_id.tolist())))


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


def _require_admissible(cfg: ExperimentConfig, experiment: str) -> None:
    if (violation := cfg.exponents.violation) is not None:
        raise ConfigError(f"{experiment} needs admissible exponents (violated: {violation})")


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
    """Certify every configured instance on a sublattice of grid nodes, in
    one :func:`~prodhls.hedberg.certify_instances` call.  An instance of a
    family with block factors is certified from its two block arrays, as a
    :class:`~prodhls.grid.TensorProduct`, with no N^rank array; the random
    family is sampled whole.

    Raises :class:`prodhls.hedberg.CertificateViolation` if any region
    check fails anywhere; the CLI turns that into a diagnostic dump.
    """
    _check_keys(cfg.tolerances, _TOLERANCE_READERS["pointwise"], "pointwise tolerances")
    _require_admissible(cfg, "pointwise campaign")

    def built():  # as read: certify_instances keeps no sampled field once read
        for family in cfg.families:  # each family is built once, for all its dilations
            fam = make_family(family, cfg.grid, cfg.family_params.get(family), cfg.seed)
            for s, t in cfg.dilations:
                yield fam(s, t) if fam.blocks is None else TensorProduct(
                    cfg.grid, fam.blocks[0](s), fam.blocks[1](t))

    tables = certify_instances(built(), cfg.exponents, _sample_points(cfg.grid, cfg.points_stride))
    instances = [InstanceResult(family=family, s=s, t=t, certificates=table)
                 for (family, (s, t)), table in zip(
                     itertools.product(cfg.families, cfg.dilations), tables)]
    suite_constant = cfg.tolerances.get("suite_constant")
    max_ratio, stability, factor, passed = _verdict(
        cfg, [(r.family, r.max_ratio) for r in instances], suite_constant)
    return PointwiseReport(instances=instances, max_ratio=max_ratio,
                           family_stability=stability, stability_factor=factor,
                           suite_constant=suite_constant, passed=passed)


@dataclass(frozen=True)  # one (1, 1) row sits on both ladders
class SweepRow:
    s: float
    t: float
    norm_q: float
    norm_p: float

    @property
    def ratio(self) -> float:
        return self.norm_q / self.norm_p if self.norm_p > 0.0 else 0.0


def _sweep_rows(fam, grid: ProductGrid, exps: Exponents, pairs) -> list[SweepRow]:
    """The row ||f||_p, ||f * K||_q of f = fam(s, t) for each (s, t) of
    ``pairs``, in order; ||f * K||_q is 0.0 where ||f||_p is.

    A family with block factors, f = f_x (x) f_y, is measured block by
    block: the kernel is the product k_x (x) k_y of its block factors,
    so ||f||_p = ||f_x||_p ||f_y||_p and ||f * K||_q = ||f_x * k_x||_q
    ||f_y * k_y||_q, and no N^rank array is built.  A block factor depends
    on its own dilation alone, so each block is built at each of its
    distinct dilations once, and the stack is convolved with the kernel's
    factor in one call and normed in one call.  A family without factors
    is sampled and convolved with the N^rank kernel, built once per call,
    pair by pair, unconvolved where ||f||_p is 0.
    """
    if fam.blocks is None:
        kernel, rows = riesz_kernel(grid, exps), []
        for s, t in pairs:
            f = fam(s, t)
            norm_p = lp_norm(f, exps.p)
            norm_q = lp_norm(convolve_fast(f, kernel), exps.q) if norm_p > 0.0 else 0.0
            rows.append(SweepRow(s=s, t=t, norm_q=norm_q, norm_p=norm_p))
        return rows
    # per block, {dilation: (||f_block||_p, ||f_block * k_block||_q)}
    measured = []
    for block, kernel_factor, dilations in zip(
            fam.blocks, block_factors(grid, exps)[2:], zip(*pairs)):
        dilations = list(dict.fromkeys(dilations))
        stack = np.stack([block(v) for v in dilations])
        volume = grid.spacing ** (stack.ndim - 1)
        convolved = _convolve_block(stack, kernel_factor.reshape(stack.shape[1:]), volume)
        norms = zip(_lp_norm(stack, exps.p, volume), _lp_norm(convolved, exps.q, volume))
        measured.append(dict(zip(dilations, norms)))
    rows = []
    for s, t in pairs:
        (px, qx), (py, qy) = measured[0][s], measured[1][t]
        norm_p = px * py
        rows.append(SweepRow(s=s, t=t, norm_q=qx * qy if norm_p > 0.0 else 0.0, norm_p=norm_p))
    return rows


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

    The config must name one family, and every dilation pair must lie on
    the (s, 1) ladder or the (1, t) ladder, each with at least five points
    spanning a decade; no dilated instance may vanish on the grid.
    Otherwise :class:`ConfigError` is raised; every rule but the last is
    checked before any convolution.
    """
    _check_keys(cfg.tolerances, _TOLERANCE_READERS["necessity"], "necessity tolerances")
    family, *extra = cfg.families
    if extra:
        raise ConfigError(f"necessity measures one family; {', '.join(extra)} would not run")
    off_ladder = [(s, t) for s, t in cfg.dilations if s != 1.0 and t != 1.0]
    if off_ladder:
        raise ConfigError(f"dilation pair(s) {', '.join(map(str, off_ladder))} lie on "
                          "neither the (s, 1) nor the (1, t) ladder and would not run")
    fam = make_family(family, cfg.grid, cfg.family_params.get(family), cfg.seed)
    s_ladder = sorted({s for s, t in cfg.dilations if t == 1.0})
    t_ladder = sorted({t for s, t in cfg.dilations if s == 1.0})
    _validate_ladder(s_ladder, "s")
    _validate_ladder(t_ladder, "t")

    exps = cfg.exponents
    # (1, 1) sits on both ladders: it is measured once, one row on both
    ladder = [(s, 1.0) for s in s_ladder] + [(1.0, t) for t in t_ladder]
    pairs = list(dict.fromkeys(ladder))
    measured = dict(zip(pairs, _sweep_rows(fam, cfg.grid, exps, pairs)))
    rows = [measured[pair] for pair in ladder]
    for row in rows:
        if not row.ratio > 0.0:
            # log(0) would make both fitted slopes NaN
            raise ConfigError(f"{family} instance at (s, t) = ({row.s!r}, {row.t!r}) vanishes "
                              "on the grid; its norm ratio has no logarithm")

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
    rows = []
    for family in cfg.families:
        fam = make_family(family, cfg.grid, cfg.family_params.get(family), cfg.seed)
        rows += [{"family": family, **vars(row), "ratio": row.ratio}
                 for row in _sweep_rows(fam, cfg.grid, exps, cfg.dilations)]
    pinned = cfg.tolerances.get("norm_constant")
    max_ratio, stability, factor, passed = _verdict(
        cfg, [(r["family"], r["ratio"]) for r in rows], pinned)
    return NormCheckReport(rows=rows, max_ratio=max_ratio, family_stability=stability,
                           stability_factor=factor, pinned_constant=pinned,
                           passed=passed)


def write_summary_json(path, payload: dict, cfg: ExperimentConfig) -> Path:
    """Write ``payload`` as sorted JSON, indented by 2, with the config
    sha256 and the library version embedded."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(payload, config_sha256=cfg.sha256(), library_version=__version__)
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return out


# certificate records built at a time: bounds the writer's memory by a chunk
_WRITE_ROWS = 4096


def write_certificates_json(path, report: PointwiseReport,
                            cfg: ExperimentConfig) -> Path:
    """Write every certificate of ``report`` in schema 1, with the config
    sha256 and the library version embedded: the bytes of sorted compact
    JSON, ``json.dumps(sort_keys=True, separators=(",", ":"))``, written
    from the certificate tables (:meth:`CertificateTable.json_records`),
    ``_WRITE_ROWS`` rows at a time.  The node text is built once for the
    instances that share their nodes, as every instance of a campaign does."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    key = nodes = None
    with out.open("w") as fh:
        fh.write('{"config_sha256":%s,"instances":[' % json.dumps(cfg.sha256()))
        for i, r in enumerate(report.instances):
            table = r.certificates
            table_key = (table.point.shape, table.point.tobytes(),
                         table.point_coordinates.tobytes())
            if table_key != key:
                key, nodes = table_key, table.json_nodes()
            fh.write('%s{"certificates":[' % ("," if i else ""))
            for start in range(0, len(table), _WRITE_ROWS):
                fh.write(("," if start else "") + ",".join(
                    table.json_records(nodes, slice(start, start + _WRITE_ROWS))))
            fh.write('],"family":%s,"s":%s,"t":%s}' % tuple(map(json.dumps, (r.family, r.s, r.t))))
        fh.write('],"library_version":%s,"schema_version":%d}\n'
                 % (json.dumps(__version__), CERTIFICATE_SCHEMA_VERSION))
    return out


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
