#!/usr/bin/env python3
"""Certify the pointwise bound at a handful of grid nodes.

One pass over the nodes picks each node's case, solves for its balancing
radii in closed form, splits the convolution there, and checks every
region sum against its analytic bound.  The printed ratio lhs/bound is the
observable the campaign-level suite constant pins.
"""

import numpy as np

from prodhls import Exponents, ProductGrid, certify_points, lp_norm, sample_function

grid = ProductGrid(m=1, n=1, half_width=1.0, points_per_axis=64)
exps = Exponents.from_balance(1, 1, alpha=0.5, beta=0.5, p=4 / 3)
f = sample_function(grid, lambda x, y: np.exp(-(x ** 2 + y ** 2) / (2 * 0.2 ** 2)))

print(f"||f||_p = {lp_norm(f, exps.p):.6f}\n")

for cert in certify_points(f, exps, [(32, 32), (22, 40), (8, 8), (1, 62)]):
    coords = ", ".join(f"{c:+.3f}" for c in cert.point_coordinates)
    rb = cert.regions
    print(f"node {cert.point} at ({coords}):")
    print(f"  case {cert.case_id}  (G f = {cert.g_value:.4f} vs "
          f"M f . ||f|| = {cert.m_value * cert.f_norm:.4f})")
    print(f"  balancing radii      r1 = {cert.r1:.4f}, r2 = {cert.r2:.4f}")
    print(f"  region sums          {rb.t11:.4f} + {rb.t12:.4f} + "
          f"{rb.t21:.4f} + {rb.t22:.4f} = {cert.lhs:.4f}")
    print(f"  final bound          {cert.final_bound:.4f}")
    print(f"  lhs / bound          {cert.ratio:.4f}\n")
