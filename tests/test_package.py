"""The public surface of the package: every name a caller can import."""

import types

import lorenz_hulls

# the sorted public non-module names of ``lorenz_hulls``: 79 in all;
# adding or deleting one means changing this list on purpose
PUBLIC_NAMES = [
    "AchievementCertificate", "ComplexVectorMeasure", "Containment",
    "DeltaOutOfRange", "DimensionGuard", "DimensionMismatch",
    "DiscretizationParams", "DuplicateLabel", "Exact2dOnPlaneOnly",
    "HausdorffResult", "HullTransformSpec", "InclusionResult", "InsertZeroAtom",
    "InvalidTransform", "LorenzCurve", "LorenzError", "MergeColinear",
    "NegativeAtom", "NonFiniteValue", "NotInHull", "ParseError", "Permute",
    "PiecewiseDensityMeasure", "SizeGuard", "SkeletonPointSet", "SpherePartition",
    "SplitAtom", "TooManyAtoms", "VectorMeasure", "ZeroAtom", "ZeroTotal",
    "ZonogonSupport", "Zonotope", "achieve", "apply_transform", "area_2d",
    "case_rng", "certificate_to_json_dict", "complex_coordinate_product",
    "complex_embed", "contains_point", "coordinate_product", "density_reach_many",
    "direct_sum", "discretize", "gini", "hausdorff_convex", "hausdorff_points",
    "hull_equal", "hull_of", "identity_hull", "includes", "interleaved_product",
    "interval_realization", "lorenz_curve", "lorenz_product",
    "measure_from_json_dict", "measure_to_json_dict", "minkowski_sum",
    "partition_sphere", "product_error_bound", "product_params",
    "product_reach_many", "reach", "reach_many", "rn_direction",
    "separating_direction", "shoelace_area", "sign_vectors", "skeleton_bound",
    "skeleton_points", "skeleton_product", "to_density", "total_variation_mass",
    "unit_directions", "validate", "validate_complex", "within_tolerance",
    "zonogon_vertices",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(lorenz_hulls).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 79
