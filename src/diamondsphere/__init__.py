"""Equal-area diamond point ensembles on the unit sphere.

Deterministic point families built from piecewise-linear parallel
counts, the companion equal-area partition with its point matching, and
quality metrics: separation, covering, energies, and spherical-cap
discrepancy in exact, randomized, and L2 forms.
"""

from .ensemble import (DiamondModel, ModelConstants, ModelError, ModelSpec, generate,
                       model_constants, resolve_thetas, simple_model, validate)
from .geometry import (BOUNDARY_TOL, NORTH_POLE, SOUTH_POLE, DuplicatePointError, PointSet,
                       SphericalCap, UnitVec, count_in_cap, spiral_points)
from .metrics import (MEAN_CHORD, STOLARSKY_CONSTANT, MetricsReport, SupDiscrepancy,
                      compute_metrics, covering_radius, equatorial_discrepancy,
                      l2_discrepancy_quadrature, l2_discrepancy_stolarsky, log_energy,
                      polar_cap_profile, riesz_energy, separation, sum_distances,
                      sup_discrepancy_estimate, sup_discrepancy_exact)
from .partition import (Partition, Region, SideLengths, VerificationFailure,
                        build_partition, certify, covering_upper_bound, partition_records,
                        polar_cap_radius, region_area, region_area_fraction_exact,
                        side_lengths, verify_matching)

__version__ = "0.1.0"

# The public names, without the submodules that `dir()` would add.
__all__ = ["DiamondModel", "ModelConstants", "ModelError", "ModelSpec", "generate",
           "model_constants", "resolve_thetas", "simple_model", "validate",
           "BOUNDARY_TOL", "NORTH_POLE", "SOUTH_POLE", "DuplicatePointError", "PointSet",
           "SphericalCap", "UnitVec", "count_in_cap", "spiral_points", "MEAN_CHORD",
           "STOLARSKY_CONSTANT", "MetricsReport", "SupDiscrepancy",
           "compute_metrics", "covering_radius", "equatorial_discrepancy",
           "l2_discrepancy_quadrature", "l2_discrepancy_stolarsky", "log_energy",
           "polar_cap_profile", "riesz_energy", "separation", "sum_distances",
           "sup_discrepancy_estimate", "sup_discrepancy_exact", "Partition", "Region",
           "SideLengths", "VerificationFailure", "build_partition",
           "certify", "covering_upper_bound", "partition_records", "polar_cap_radius",
           "region_area", "region_area_fraction_exact", "side_lengths", "verify_matching"]
