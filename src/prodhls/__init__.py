"""Fractional integration and maximal-function machinery on product grids.

The library discretizes the box [-L, L]^(m+n) = x-block times y-block,
materializes the separable power-law kernel |x|^(alpha-m) |y|^(beta-n),
and provides:

* quadrature norms, slice norms, and anisotropic dilation of sampled
  functions, and tensor products held as their two block factors
  (:mod:`prodhls.grid`);
* the exponent tuple with its admissibility rule, the kernel, and
  dyadic layer-cake envelopes (:mod:`prodhls.kernel`);
* direct and FFT convolution plus the four-region split of the
  convolution sum at each of many nodes, of a sampled field or, block by
  block, of a tensor product (:mod:`prodhls.convolution`);
* one pass over dyadic product windows that gives the strong maximal
  M f and the slice norms n1, n2 of the partial maximals M1 f, M2 f at a
  set of nodes, which the certificates read, or all three fields on the
  whole grid, which the composition check and the mixed-norm field G
  read, and the block maximals that give all three for a tensor product
  (:mod:`prodhls.maximal`);
* the pointwise certification engine: lattice region bounds from
  per-block tables, closed-form balancing radii, and per-point
  certificates from one call per set of nodes, which computes what the
  nodes read, runs one array pass over them and returns one table of
  columns (:mod:`prodhls.hedberg`);
* experiment campaigns and the CLI harness (:mod:`prodhls.harness`,
  :mod:`prodhls.cli`).
"""

__version__ = "0.1.0"

from .grid import (GridFunction, ProductGrid, TensorProduct, dilate, lp_norm,
                   sample_function, slice_lp_norms_x, slice_lp_norms_y)
from .kernel import (Exponents, LayerCake, layer_cake, profile_ball_integral, riesz_kernel,
                     sphere_surface)
from .convolution import (RegionBounds, block_region_sums, convolve_direct, convolve_fast,
                          region_split, region_sums)
from .maximal import (CompositionReport, GNormReport, block_maximals, composition_check,
                      g_norm_bound, maximal_fields, node_maximals)
from .hedberg import (BlockTable, CertificateTable, CertificateViolation, ExponentError,
                      HedbergCertificate, balanced_radii, certify_instances, certify_points,
                      final_bound, region_limits, region_tables, tail_integral_constant)
from .harness import (ConfigError, ExperimentConfig, make_family,
                      run_necessity_sweep, run_norm_check,
                      run_pointwise_campaign)

__all__ = [
    "__version__",
    "ProductGrid", "GridFunction", "TensorProduct", "lp_norm", "slice_lp_norms_x",
    "slice_lp_norms_y", "dilate",
    "sample_function",
    "Exponents", "riesz_kernel", "LayerCake", "layer_cake",
    "sphere_surface", "profile_ball_integral",
    "RegionBounds", "convolve_direct", "convolve_fast", "region_split", "region_sums",
    "block_region_sums", "node_maximals", "block_maximals", "maximal_fields", "composition_check",
    "CompositionReport",
    "g_norm_bound", "GNormReport",
    "ExponentError", "CertificateViolation", "tail_integral_constant",
    "BlockTable", "region_tables", "region_limits", "balanced_radii", "final_bound",
    "HedbergCertificate", "CertificateTable", "certify_points", "certify_instances",
    "ConfigError", "ExperimentConfig", "make_family",
    "run_pointwise_campaign", "run_necessity_sweep", "run_norm_check",
]
