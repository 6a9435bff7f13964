#!/usr/bin/env python3
"""Strong and partial maximal averages, and the mixed-norm field.

Shows the pointwise domination of the strong maximal function by the
composition of the two partial ones (constant exactly 1 for product
windows) and the exact factorization of the mixed-norm field's norm.
"""

import math

import numpy as np

from prodhls import (Exponents, ProductGrid, composition_check, g_norm_bound,
                     maximal_fields, sample_function)

grid = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=64)
exps = Exponents.from_balance(1, 1, alpha=0.5, beta=0.5, p=4 / 3)
levels = math.ceil(math.log2(grid.points_per_axis))
print(f"dyadic window radii (cells): {[2 ** k for k in range(levels + 1)]}")

f = sample_function(grid, lambda x, y: np.exp(-(x ** 2 + 4 * y ** 2) / (2 * 0.15 ** 2)))
M, M1, _ = maximal_fields(f)
print(f"\nanisotropic Gaussian: peak f = {f.values.max():.3f}, "
      f"peak M f = {M.values.max():.3f}, peak M1 f = {M1.values.max():.3f}")

rep = composition_check(f)
print(f"composition check: max M f / M1(M2 f) = {rep.max_ratio:.15f} "
      f"(must not exceed 1)")

g_rep = g_norm_bound(f, exps)
residual = abs(g_rep.g_norm - g_rep.m1_norm * g_rep.m2_norm) / g_rep.g_norm
print(f"\nmixed-norm field G f:")
print(f"  ||G f||_p                 = {g_rep.g_norm:.6f}")
print(f"  ||M1 f||_p . ||M2 f||_p   = {g_rep.m1_norm * g_rep.m2_norm:.6f} "
      f"(factorization residual {residual:.1e})")
print(f"  ||G f||_p / ||f||_p^2     = {g_rep.ratio:.4f}")

print("\nthe ratio stays stable across dilations of the same bump:")
for s in (0.5, 1.0, 2.0):
    fs = sample_function(grid, lambda x, y: np.exp(
        -((s * x) ** 2 + 4 * (s * y) ** 2) / (2 * 0.15 ** 2)))
    print(f"  s = {s}: ratio = {g_norm_bound(fs, exps).ratio:.4f}")
