"""Product power-law kernels and dyadic layer-cake envelopes.

The kernel on the product box is separable: one radial power profile
``r -> r^(a - d)`` per block, singular at the block origin and locally
integrable there whenever ``0 < a < d``.  A layer cake replaces such a
profile by a finite positive combination of origin-centered ball
indicators with dyadically shrinking radii; the resulting step function
dominates the profile from above and is itself at most ``2^(d - a)``
times the profile on the covered range of radii.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, ProductGrid

__all__ = [
    "BALANCE_TOL",
    "Exponents",
    "riesz_kernel",
    "LayerCake",
    "layer_cake",
    "sphere_surface",
    "profile_ball_integral",
]

BALANCE_TOL = 1e-12

# Surface measure of the unit sphere, d = 1, 2.
_SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi}


def sphere_surface(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim (dim = 1 or 2)."""
    try:
        return _SPHERE_SURFACE[dim]
    except KeyError:
        raise ValueError(f"dimension must be 1 or 2, got {dim}") from None


def profile_ball_integral(dim: int, exponent: float, radius: float) -> float:
    """Closed form of the integral of |u|^(exponent - dim) over |u| <= radius."""
    if not 0.0 < exponent < dim:
        raise ValueError(f"profile exponent must lie in (0, {dim}), got {exponent}")
    return sphere_surface(dim) * radius ** exponent / exponent


@dataclass(frozen=True)
class Exponents:
    """The exponent tuple (m, n, alpha, beta, p, q).

    Constraints enforced at construction: ``0 < alpha < m``,
    ``0 < beta < n`` and ``1 < p < q < inf``.  :attr:`violation` names
    the first admissibility condition the tuple fails; the pointwise
    certification engine requires admissibility, while the dilation
    experiments deliberately violate balance.
    """

    m: int
    n: int
    alpha: float
    beta: float
    p: float
    q: float

    def __post_init__(self) -> None:
        if self.m not in (1, 2):
            raise ValueError(f"m must be 1 or 2, got {self.m}")
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if not 0.0 < self.alpha < self.m:
            raise ValueError(f"alpha must lie in (0, m) = (0, {self.m}), got {self.alpha}")
        if not 0.0 < self.beta < self.n:
            raise ValueError(f"beta must lie in (0, n) = (0, {self.n}), got {self.beta}")
        if not (1.0 < self.p < self.q and math.isfinite(self.q)):
            raise ValueError(f"need 1 < p < q < inf, got p={self.p}, q={self.q}")

    @classmethod
    def from_balance(cls, m: int, n: int, alpha: float, beta: float, p: float) -> "Exponents":
        """Build a balanced tuple, deriving q from ``1/q = 1/p - alpha/m``.

        Accepting only (p, alpha, beta) and deriving q removes the
        possibility of an inconsistent parameter state.
        """
        if abs(alpha / m - beta / n) > BALANCE_TOL:
            raise ValueError(
                f"alpha/m = {alpha / m} and beta/n = {beta / n} differ; cannot balance")
        inv_q = 1.0 / p - alpha / m
        if inv_q <= 0.0:
            raise ValueError(
                f"alpha/m = {alpha / m} must be below 1/p = {1.0 / p} for a finite q")
        return cls(m=m, n=n, alpha=alpha, beta=beta, p=p, q=1.0 / inv_q)

    @property
    def p_conjugate(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def tail_exponent_x(self) -> float:
        """Decay rate (m - alpha) p' of the x-factor raised to the dual power."""
        return (self.m - self.alpha) * self.p_conjugate

    @property
    def tail_exponent_y(self) -> float:
        return (self.n - self.beta) * self.p_conjugate

    @property
    def violation(self) -> str | None:
        """The first admissibility condition the tuple fails, or None.

        In order: ``balance_alpha`` (1/p - 1/q = alpha/m) and
        ``balance_beta`` (1/p - 1/q = beta/n), each to ``BALANCE_TOL``;
        then ``tail_x`` ((m - alpha) p' > m) and ``tail_y``
        ((n - beta) p' > n), the integrability of the kernel tails at the
        dual power p'.  Balance with a finite q implies both tail
        conditions, since alpha/m = 1/p - 1/q < 1/p is equivalent to
        (m - alpha) p' > m; a tuple balanced only to the tolerance can
        still fail one when 1/q <= ``BALANCE_TOL``.
        """
        gap = 1.0 / self.p - 1.0 / self.q
        for name, holds in (("balance_alpha", abs(gap - self.alpha / self.m) <= BALANCE_TOL),
                            ("balance_beta", abs(gap - self.beta / self.n) <= BALANCE_TOL),
                            ("tail_x", self.tail_exponent_x > self.m),
                            ("tail_y", self.tail_exponent_y > self.n)):
            if not holds:
                return name
        return None


def check_blocks(grid: ProductGrid, exps: Exponents) -> None:
    """Raise ``ValueError`` unless the grid's blocks (m, n) are the exponents'."""
    if (grid.m, grid.n) != (exps.m, exps.n):
        raise ValueError(
            f"grid blocks ({grid.m}, {grid.n}) do not match exponents ({exps.m}, {exps.n})")


@functools.lru_cache(maxsize=8)
def block_factors(grid: ProductGrid, exps: Exponents) -> tuple[np.ndarray, ...]:
    """Flattened block norms |x|, |y| and kernel factors |x|^(alpha-m), |y|^(beta-n).

    The one place the kernel formula is evaluated; each array is
    ordered as the block's cells in row-major order.  The arrays depend
    only on the grid and the exponents, both frozen, so they are built
    once per pair (the last few pairs are kept) and are read-only.
    """
    check_blocks(grid, exps)
    x_norm = grid.x_norms().reshape(-1)
    y_norm = grid.y_norms().reshape(-1)
    arrays = (x_norm, y_norm, x_norm ** (exps.alpha - exps.m), y_norm ** (exps.beta - exps.n))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def riesz_kernel(grid: ProductGrid, exps: Exponents) -> GridFunction:
    """Materialize |x|^(alpha-m) |y|^(beta-n) at the cell centers.

    The array is built as the outer product of the x-block factor and
    the y-block factor, so separability holds exactly.  Every value is
    finite because no cell center sits at either block origin.
    """
    _, _, x_factor, y_factor = block_factors(grid, exps)
    return GridFunction(grid, np.multiply.outer(x_factor, y_factor).reshape(grid.shape))


@dataclass(frozen=True)
class LayerCake:
    """Dyadic step-function envelope of a radial power profile.

    ``levels`` holds (coefficient, ball_radius) pairs, radii halving
    from ``truncation_radius`` downward.  The induced step function

        step(r) = sum of coefficients of levels with ball_radius >= r

    satisfies, for every r in ``(truncation_radius * 2^-len(levels),
    truncation_radius]``,

        step(r) >= profile(r) >= step(r) * 2^-(dim - exponent)

    with ``profile(r) = r^(exponent - dim)``.
    """

    levels: tuple[tuple[float, float], ...]
    truncation_radius: float
    dim: int
    exponent: float

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a layer cake needs at least one level")
        radii = [r for _, r in self.levels]
        if abs(radii[0] - self.truncation_radius) > 1e-12 * self.truncation_radius:
            raise ValueError("the first level must sit at the truncation radius")
        for (a, r), (_, r_next) in zip(self.levels, self.levels[1:]):
            if abs(r_next - 0.5 * r) > 1e-12 * r:
                raise ValueError("level radii must halve dyadically")
        if any(a <= 0.0 for a, _ in self.levels):
            raise ValueError("level coefficients must be positive")

    def profile(self, r):
        """The approximated profile r^(exponent - dim)."""
        return np.asarray(r, dtype=np.float64) ** (self.exponent - self.dim)

    def step(self, r):
        """Evaluate the step function at radii ``r`` (scalar or array)."""
        r = np.asarray(r, dtype=np.float64)
        coeffs = np.array([a for a, _ in self.levels])
        radii_desc = np.array([rad for _, rad in self.levels])
        csum = np.concatenate([[0.0], np.cumsum(coeffs)])
        # number of levels whose ball still contains radius r
        count = len(radii_desc) - np.searchsorted(radii_desc[::-1], r, side="left")
        return csum[count]


def layer_cake(profile_exponent: float, dim: int, truncation_radius: float,
               depth: int) -> LayerCake:
    """Dyadic layer-cake approximation of ``r -> r^(profile_exponent - dim)``.

    Level j (j = 1..depth) attaches to the ball of radius
    ``R * 2^(1-j)`` the increment of the profile between successive
    half-radii, so on each dyadic annulus the step equals the profile at
    the annulus' inner edge.  That makes the step an upper envelope of
    the profile, tight to within the factor ``2^(dim - profile_exponent)``
    down to radius ``R * 2^-depth``.
    """
    if not 0.0 < profile_exponent < dim:
        raise ValueError(
            f"profile exponent must lie in (0, dim) = (0, {dim}), got {profile_exponent}")
    if not (truncation_radius > 0 and math.isfinite(truncation_radius)):
        raise ValueError(f"truncation radius must be positive, got {truncation_radius}")
    if not (isinstance(depth, int) and depth >= 1):
        raise ValueError(f"depth must be a positive integer, got {depth}")
    radii = truncation_radius * 2.0 ** (-np.arange(depth, dtype=np.float64))
    eval_radii = radii / 2.0
    prof = eval_radii ** (profile_exponent - dim)
    coeffs = np.empty(depth)
    coeffs[0] = prof[0]
    coeffs[1:] = prof[1:] - prof[:-1]
    levels = tuple((float(a), float(r)) for a, r in zip(coeffs, radii))
    return LayerCake(levels=levels, truncation_radius=truncation_radius,
                     dim=dim, exponent=profile_exponent)
