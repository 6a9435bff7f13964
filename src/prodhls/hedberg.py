"""Pointwise certification engine for the product fractional integral.

Given balanced, tail-admissible exponents, the convolution value at a
grid node is bounded by splitting the sum at radii (r1, r2) into four
regions:

* both offsets inside: controlled by the strong maximal value times
  the kernel mass over the inner product ball;
* both outside: Hoelder's inequality against the full L^p norm and the
  closed-form kernel tail integrals;
* mixed: the inner block contributes a ball constant against a partial
  maximal function, the outer block a tail constant against a slice
  norm.

Choosing the radii so that the inner and outer bounds coincide (and the
two mixed bounds coincide) collapses everything, via the balance
relation ``alpha/m = beta/n = 1/p - 1/q``, into

    case 1 (G f <= M f * ||f||):   M f^(p/q) * ||f||^(1 - p/q)
    case 2 (G f >  M f * ||f||):   G f^(p/q) * ||f||^(1 - 2 p/q)

Every inequality in the chain is checked numerically with explicit
constants; a violation beyond the documented discretization slack is a
hard failure, not a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .convolution import RegionBounds, region_split
from .grid import (GridFunction, check_positive, lp_norm, normalize_point, slice_lp_norms_x,
                   slice_lp_norms_y)
from .kernel import Exponents, check_blocks, profile_ball_integral, sphere_surface
from .maximal import maximal_fields

__all__ = [
    "ExponentError",
    "CertificateViolation",
    "tail_integral_constant",
    "region_limits",
    "region_slack_factors",
    "balanced_radii",
    "final_bound",
    "HedbergContext",
    "prepare_certification",
    "HedbergCertificate",
    "certify_point",
]

CERTIFICATE_SCHEMA_VERSION = 1

# relative tolerance of the radius balancing identities in balanced_radii
_IDENTITY_TOL = 1e-12


class ExponentError(ValueError):
    """An exponent tuple fails an admissibility condition."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


class CertificateViolation(RuntimeError):
    """A region sum exceeded its analytic bound beyond the allowed slack."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def _require_admissible(exps: Exponents) -> None:
    if (violation := exps.violation) is not None:
        raise ExponentError(violation, f"exponents fail condition '{violation}'")


def tail_integral_constant(dim: int, decay: float) -> float:
    """Integral of |u|^(-decay) over the complement of the unit ball."""
    if not decay > dim:
        raise ValueError(f"tail decay {decay} must exceed the dimension {dim}")
    return sphere_surface(dim) / (decay - dim)


def _tail_constant(exps: Exponents, side: str) -> float:
    """Tail integral of one block at its dual-power decay, if integrable."""
    dim, decay = ((exps.m, exps.tail_exponent_x) if side == "x"
                  else (exps.n, exps.tail_exponent_y))
    if not decay > dim:
        raise ExponentError(f"tail_{side}",
                            f"{side}-block tail (d - a) p' = {decay} must exceed d = {dim}")
    return tail_integral_constant(dim, decay)


def region_limits(m_value: float, n1: float, n2: float, f_norm: float,
                  r1: float, r2: float, exps: Exponents) -> dict[str, float]:
    """The analytic bounds of the four region sums at radii (r1, r2).

    Region ij is bounded by ``c * value * r1^ex * r2^ey`` with::

        region    c                        value    ex             ey
        region11  ball_x ball_y            M f      alpha          beta
        region12  ball_x tail_y^(1/p')     n1       alpha          beta - n/p
        region21  ball_y tail_x^(1/p')     n2       alpha - m/p    beta
        region22  (tail_x tail_y)^(1/p')   ||f||    alpha - m/p    beta - n/p

    ``ball`` is the exact kernel mass over a block's unit ball, scaled to
    the radius by power-law homogeneity, and ``tail`` the closed-form
    integral of the block's kernel tail at its dual power p', raised to
    1/p' per the Hoelder step.  Requires both tail conditions.
    """
    check_positive(m_value=m_value, n1=n1, n2=n2, f_norm=f_norm, r1=r1, r2=r2)
    ball_x = profile_ball_integral(exps.m, exps.alpha, 1.0)
    ball_y = profile_ball_integral(exps.n, exps.beta, 1.0)
    tail_x, tail_y = _tail_constant(exps, "x"), _tail_constant(exps, "y")
    inv_pc = 1.0 / exps.p_conjugate
    out_x, out_y = exps.alpha - exps.m / exps.p, exps.beta - exps.n / exps.p
    rows = (("region11", ball_x * ball_y, m_value, exps.alpha, exps.beta),
            ("region12", ball_x * tail_y ** inv_pc, n1, exps.alpha, out_y),
            ("region21", ball_y * tail_x ** inv_pc, n2, out_x, exps.beta),
            ("region22", (tail_x * tail_y) ** inv_pc, f_norm, out_x, out_y))
    return {name: c * value * r1 ** ex * r2 ** ey for name, c, value, ex, ey in rows}


def _window_cover_slack(dim: int) -> float:
    # smallest strict dyadic cell-window covering a ball of arbitrary
    # radius, including the half-cell offset of the convolution lattice
    return 4.0 if dim == 1 else 26.0


def _shell_sum_slack(dim: int, exponent: float) -> float:
    # dyadic shells instead of the radial integral, one block
    return (_window_cover_slack(dim) * 2.0 ** dim * exponent
            / (dim * (2.0 ** exponent - 1.0)))


def _tail_sum_slack(dim: int, decay: float) -> float:
    # lattice tail sum of r^-decay against the tail integral
    if dim == 1:
        return 2.0 * decay - 1.0
    return (decay - 1.0) * 4.0 ** decay


def region_slack_factors(exps: Exponents) -> dict[str, float]:
    """Discretization safety factors for the four region checks.

    The analytic region bounds are continuum statements; on the lattice
    three gaps open up, each with a worst-case factor:

    * covering a ball of arbitrary radius by the smallest strictly
      larger dyadic cell window, absorbing the half-cell offset between
      the convolution lattice and the window centers (4 for a 1-d
      block, 26 for a 2-d block);
    * bounding the singular kernel factor over dyadic shells instead of
      integrating it (``2^d g / (d (2^g - 1))`` per block with profile
      exponent g);
    * comparing the lattice tail sum of a decreasing power ``r^-g``
      with the tail integral (``2g - 1`` for a 1-d block; a generous
      ``(g - 1) 4^g`` margin for a 2-d block).

    Inner blocks take the first two factors, tail blocks the third
    raised to 1/p' (it enters through the Hoelder step).  The factors
    are deliberately conservative: a region sum exceeding its analytic
    bound times the slack indicates a bug, not discretization noise.
    """
    inv_pc = 1.0 / exps.p_conjugate
    inner_x = _shell_sum_slack(exps.m, exps.alpha)
    inner_y = _shell_sum_slack(exps.n, exps.beta)
    tail_x = _tail_sum_slack(exps.m, exps.tail_exponent_x) ** inv_pc
    tail_y = _tail_sum_slack(exps.n, exps.tail_exponent_y) ** inv_pc
    return {
        "region11": inner_x * inner_y,
        "region12": inner_x * tail_y,
        "region21": inner_y * tail_x,
        "region22": tail_x * tail_y,
    }


def balanced_radii(ratio: float, n1: float, n2: float, exps: Exponents) -> tuple[float, float]:
    """Radii equalizing the inner bound with the outer bound and the two
    mixed bounds with each other.

    ``ratio`` is ``Mf/||f||`` in case 1 and ``Gf/||f||^2`` in case 2.
    Closed forms::

        r1 = [ ratio (n1/n2) ]^(-p/2m)
        r2 = [ ratio (n2/n1) ]^(-p/2n)

    Postconditions (verified): r1^(-m/p) r2^(-n/p) = ratio and
    r1^(-m/p) / r2^(-n/p) = n1/n2, both to 1e-12 relative.
    """
    check_positive(ratio=ratio, n1=n1, n2=n2)
    b = n1 / n2
    r1 = (ratio * b) ** (-exps.p / (2.0 * exps.m))
    r2 = (ratio / b) ** (-exps.p / (2.0 * exps.n))
    # balancing identities the closed forms must reproduce
    res1 = r1 ** (-exps.m / exps.p) * r2 ** (-exps.n / exps.p) / ratio - 1.0
    res2 = (r1 ** (-exps.m / exps.p) / r2 ** (-exps.n / exps.p)) / b - 1.0
    if abs(res1) > _IDENTITY_TOL or abs(res2) > _IDENTITY_TOL:
        raise RuntimeError(
            f"radius balancing identities violated: residuals {res1}, {res2}")
    return r1, r2


def final_bound(value: float, f_norm: float, case_id: int, exps: Exponents) -> float:
    """Collapsed pointwise bound ``value^(p/q) ||f||^(1 - case_id p/q)``:
    ``value`` is M f in case 1 and G f in case 2."""
    if case_id not in (1, 2):
        raise ValueError(f"case_id must be 1 or 2, got {case_id!r}")
    e = exps.p / exps.q
    return value ** e * f_norm ** (1.0 - case_id * e)


@dataclass
class HedbergContext:
    """Shared read-only precomputation for certifying many points of ``f``."""

    f: GridFunction
    exps: Exponents
    mf: GridFunction
    n1: np.ndarray
    n2: np.ndarray
    f_norm: float
    slack_factors: dict


def prepare_certification(f: GridFunction, exps: Exponents) -> HedbergContext:
    """Precompute the maximal fields (one pass over the dyadic windows, the
    family the slack factors reported by :func:`region_slack_factors` are
    derived for) and the slice norms for a function.
    """
    _require_admissible(exps)
    check_blocks(f.grid, exps)
    mf, m1, m2 = maximal_fields(f)
    p = exps.p
    return HedbergContext(
        f=f,
        exps=exps,
        mf=mf,
        n1=slice_lp_norms_x(m1, p),
        n2=slice_lp_norms_y(m2, p),
        f_norm=lp_norm(f, p),
        slack_factors=region_slack_factors(exps),
    )


def _check_json_keys(d, expected, where: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    missing, unknown = sorted(set(expected) - set(d)), sorted(set(d) - set(expected))
    if missing or unknown:
        raise ValueError(f"{where}: missing keys {missing}, unknown keys {unknown}")


def _read_regions(d) -> RegionBounds:
    _check_json_keys(d, [f.name for f in fields(RegionBounds)], "certificate regions")
    return RegionBounds(**{k: float(v) for k, v in d.items()})


# JSON value -> field value, by the field's annotation
_READERS = {"tuple[int, ...]": lambda v: tuple(map(int, v)),
            "tuple[float, ...]": lambda v: tuple(map(float, v)),
            "int": int, "float": float, "dict": dict, "RegionBounds": _read_regions}


@dataclass(frozen=True)
class HedbergCertificate:
    """Machine-checkable record of the pointwise bound at one grid node.

    ``case_id`` is 1 exactly when ``g_value <= m_value * f_norm``.  The
    final bound is ``m_value^(p/q) f_norm^(1-p/q)`` in case 1 and
    ``g_value^(p/q) f_norm^(1-2p/q)`` in case 2.  ``regions`` holds the
    four region sums at the radii ``(r1, r2)``; their total ``lhs`` is the
    actual convolution value.  ``region_limits`` holds the analytic
    per-region bound values and ``slack_factors`` the discretization
    slacks they were checked with.  The JSON record (schema 1) holds every
    field plus ``lhs``, ``ratio`` and ``schema_version``.
    """

    point: tuple[int, ...]
    point_coordinates: tuple[float, ...]
    case_id: int
    r1: float
    r2: float
    regions: RegionBounds
    m_value: float
    g_value: float
    n1: float
    n2: float
    f_norm: float
    final_bound: float
    region_limits: dict = field(default_factory=dict)
    slack_factors: dict = field(default_factory=dict)

    @property
    def lhs(self) -> float:
        """The convolution value at the node: the total of the region sums."""
        return self.regions.total

    @property
    def ratio(self) -> float:
        """Observed lhs / final_bound (0 for the empty-function record)."""
        return self.lhs / self.final_bound if self.final_bound > 0.0 else 0.0

    def to_json_dict(self) -> dict:
        d = dict(vars(self), regions=vars(self.regions), schema_version=CERTIFICATE_SCHEMA_VERSION,
                 lhs=self.lhs, ratio=self.ratio)
        # tuples become lists; the region sums and the mappings become new dicts
        return {k: list(v) if isinstance(v, tuple) else dict(v) if isinstance(v, dict) else v
                for k, v in d.items()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "HedbergCertificate":
        """Parse a schema-1 record; missing or unknown keys, and an ``lhs`` or
        ``ratio`` other than the one the fields give, raise ``ValueError``."""
        if d.get("schema_version") != CERTIFICATE_SCHEMA_VERSION:
            raise ValueError(f"unsupported certificate schema: {d.get('schema_version')}")
        _check_json_keys(d, ["schema_version", *(f.name for f in fields(cls)), "lhs", "ratio"],
                         "certificate")
        cert = cls(**{f.name: _READERS[f.type](d[f.name]) for f in fields(cls)})
        for key in ("lhs", "ratio"):
            if d[key] != getattr(cert, key):
                raise ValueError(f"certificate {key} {d[key]!r} differs from the "
                                 f"{getattr(cert, key)!r} its fields give")
        return cert


# relative headroom for pure floating-point noise in the hard checks
_CHECK_REL = 1e-9


def certify_point(ctx: HedbergContext, point) -> HedbergCertificate:
    """Run the full pointwise bound chain at one grid node of ``ctx.f``.

    Selects the case from the computed maximal and mixed-norm values,
    picks the balancing radii in closed form, splits the convolution at
    those radii, and verifies every region sum against its analytic
    bound times the documented slack, and in case 1 the collapse of the
    mixed bound.  Raises :class:`CertificateViolation` at the first
    check that fails.

    For a tensor product ``f(x, y) = a(x) b(y)`` (the gaussian, box,
    tensor-box and spike families) ``G f = M f ||f||`` holds in exact
    arithmetic, so at such nodes rounding decides ``case_id``; both
    branches then give the same radii and final bound to rounding.
    """
    f, exps = ctx.f, ctx.exps
    grid = f.grid
    idx = normalize_point(point, grid.rank, grid.points_per_axis)
    coords = grid.point_coordinates(idx)
    slacks = dict(ctx.slack_factors)

    if ctx.f_norm == 0.0:
        return HedbergCertificate(
            point=idx, point_coordinates=coords, case_id=1, r1=0.0, r2=0.0,
            regions=RegionBounds(0.0, 0.0, 0.0, 0.0),
            m_value=0.0, g_value=0.0, n1=0.0, n2=0.0, f_norm=0.0,
            final_bound=0.0, region_limits={}, slack_factors=slacks)

    m_value = float(ctx.mf.values[idx])
    n1_val = float(ctx.n1[idx[:grid.m]])
    n2_val = float(ctx.n2[idx[grid.m:]])
    g_value = n1_val * n2_val
    f_norm = ctx.f_norm

    case_id = 1 if g_value <= m_value * f_norm else 2
    case_value = m_value if case_id == 1 else g_value
    r1, r2 = balanced_radii(case_value / f_norm ** case_id, n1_val, n2_val, exps)
    final = final_bound(case_value, f_norm, case_id, exps)

    regions = region_split(f, exps, idx, r1, r2)
    limits = region_limits(m_value, n1_val, n2_val, f_norm, r1, r2, exps)
    checks = [(name, value, limits[name], slacks[name]) for name, value in
              zip(limits, (regions.t11, regions.t12, regions.t21, regions.t22))]
    if case_id == 1:
        # the mixed-bound common value must itself collapse under the
        # case hypothesis: n1 r1^a r2^(b - n/p) <= Mf^(p/q) ||f||^(1-p/q)
        checks.append(("mixed_collapse",
                       n1_val * r1 ** exps.alpha * r2 ** (exps.beta - exps.n / exps.p),
                       final, 1.0))
    for name, value, limit, slack in checks:
        if value > slack * limit * (1.0 + _CHECK_REL):
            raise CertificateViolation(
                f"{name} value {value} exceeds its bound {limit} times slack {slack} "
                f"at point {idx}",
                diagnostics={"point": list(idx), "region": name, "value": value,
                             "limit": limit, "slack": slack,
                             "r1": r1, "r2": r2, "case_id": case_id})

    return HedbergCertificate(
        point=idx, point_coordinates=coords, case_id=case_id,
        r1=r1, r2=r2, regions=regions, m_value=m_value, g_value=g_value,
        n1=n1_val, n2=n2_val, f_norm=f_norm, final_bound=final,
        region_limits=limits, slack_factors=slacks)
