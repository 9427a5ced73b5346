"""Algebra of Lorenz hulls (zonoids) of finite signed vector measures."""

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it: start it with
# one thread unless the caller chose a count or loaded numpy already.  Every
# matrix product here is a matrix-vector product or has n as one size, and
# a spinning OpenBLAS worker takes a CPU from the product kernel's threads
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    DeltaOutOfRange,
    DimensionGuard,
    DimensionMismatch,
    DuplicateLabel,
    Exact2dOnPlaneOnly,
    InvalidTransform,
    LorenzError,
    NegativeAtom,
    NonFiniteValue,
    NotInHull,
    ParseError,
    SizeGuard,
    TooManyAtoms,
    ZeroAtom,
    ZeroTotal,
)
from .measures import (
    ComplexVectorMeasure,
    PiecewiseDensityMeasure,
    VectorMeasure,
    complex_coordinate_product,
    complex_embed,
    coordinate_product,
    direct_sum,
    interleaved_product,
    measure_from_json_dict,
    measure_to_json_dict,
    rn_direction,
    total_variation_mass,
    validate,
    validate_complex,
)
from .hulls import (
    Containment,
    HausdorffResult,
    InclusionResult,
    SkeletonPointSet,
    ZonogonSupport,
    Zonotope,
    area_2d,
    contains_point,
    hausdorff_convex,
    hausdorff_points,
    hull_of,
    includes,
    reach,
    reach_many,
    separating_direction,
    shoelace_area,
    skeleton_points,
    within_tolerance,
    zonogon_vertices,
)
from .ops import (
    HullTransformSpec,
    InsertZeroAtom,
    LorenzCurve,
    MergeColinear,
    Permute,
    SplitAtom,
    apply_transform,
    gini,
    hull_equal,
    identity_hull,
    lorenz_curve,
    lorenz_product,
    minkowski_sum,
    product_reach_many,
    skeleton_product,
)
from .discretization import (
    DiscretizationParams,
    SpherePartition,
    discretize,
    partition_sphere,
    product_error_bound,
    product_params,
    skeleton_bound,
)
from .zonoid import (
    AchievementCertificate,
    achieve,
    certificate_to_json_dict,
    density_reach_many,
    interval_realization,
    to_density,
)
from .sampling import case_rng, sign_vectors, unit_directions

__version__ = "0.1.0"
