"""Approximation pipeline: partition the 1-norm unit sphere into small
cells, bucket a fine measure by atom direction, replicate per-cell atoms,
and expose the quantitative Hausdorff error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

import numpy as np

from .errors import DeltaOutOfRange, DimensionGuard, DimensionMismatch, SizeGuard
from .hulls import _stable_order
from .measures import VectorMeasure, _rows, _same_dimension
from .sampling import DIRECTION_COORDINATE_LIMIT

PARTITION_DIMENSION_LIMIT = 6

CellKey = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SpherePartition:
    """Disjoint cover of the 1-norm unit sphere by cells of small diameter.

    Each sign orthant face of the cross-polytope boundary is a simplex; it
    is subdivided by bucketing the first n-1 barycentric coordinates on a
    grid of ``resolution`` bins.  A cell key is the sign pattern plus the
    bucket tuple.  Any two points of one cell are within
    min(delta, 2 (n - 1) / resolution) of each other in 1-norm (0 for
    n = 1), and within ``delta`` of the cell representative.
    """

    dimension: int
    delta: float
    resolution: int

    @property
    def cell_count(self) -> int:
        # bucket tuples in {0..r-1}^d with sum <= r: all nonnegative ones
        # with sum <= r, less the d that put r in one entry
        d, r = self.dimension - 1, self.resolution
        return (2 ** self.dimension) * (comb(r + d, d) - d)

    def cell_of(self, points: np.ndarray) -> list[CellKey]:
        """Cell keys of unit (or any nonzero) vectors, one per row."""
        signs, buckets = self._cell_rows(points)
        return list(zip(map(tuple, signs.tolist()), map(tuple, buckets.tolist())))

    def _cell_rows(self, points, norms=None) -> tuple[np.ndarray, np.ndarray]:
        """The two parts of the cell keys of ``points`` as integer arrays;
        ``norms``, when given, are the points' 1-norms."""
        x = _rows(np.atleast_2d(points), self.dimension, "points")
        if norms is None:
            norms = np.abs(x).sum(axis=1)
        if (norms == 0).any():
            raise DimensionMismatch("zero vectors have no partition cell")
        signs = np.where(x >= 0, 1, -1)
        y = np.abs(x) / norms[:, None]
        r = self.resolution
        buckets = np.minimum(np.floor(r * y[:, :-1]).astype(int), r - 1)
        return signs, buckets

    def representative_rows(self, signs, buckets) -> np.ndarray:
        """Representatives of the cells keyed by the rows of ``signs``
        (k, n) and ``buckets`` (k, n - 1), as returned by ``_cell_rows``."""
        head = (np.asarray(buckets, dtype=np.float64) + 0.5) / self.resolution
        tail = np.maximum(0.0, 1.0 - head.sum(axis=1, keepdims=True))
        y = np.hstack([head, tail])
        return np.asarray(signs, dtype=np.float64) * (y / y.sum(axis=1, keepdims=True))


def partition_sphere(n: int, delta: float) -> SpherePartition:
    """Partition with per-face grid resolution ``ceil(2 n / delta)``, which
    must not exceed 2**53 so that the bucket integers stay exact."""
    if not 1 <= n <= PARTITION_DIMENSION_LIMIT:
        raise DimensionGuard(
            f"sphere partition supports 1 <= n <= {PARTITION_DIMENSION_LIMIT}, got {n}"
        )
    if not 0.0 < delta <= 2.0:
        raise DeltaOutOfRange(f"delta must lie in (0, 2], got {delta}")
    if 2.0 * n / delta > 2.0 ** 53:
        raise DeltaOutOfRange(f"delta {delta} puts 2n/delta above 2**53")
    resolution = int(np.ceil(2.0 * n / delta))
    return SpherePartition(n, float(delta), resolution)


@dataclass(frozen=True)
class DiscretizationParams:
    """Quantities of the approximation pipeline with their derived bounds.

    delta: cell diameter of the sphere partition;
    reps: atom replication count N per nonempty cell;
    epsilon: the target approximation error.
    """

    delta: float
    reps: int
    epsilon: float

    def satisfies_reps_constraint(self, n: int, mass1: float, mass2: float) -> bool:
        """N^2 > 2 n mass1 mass2 / epsilon, the product replication regime,
        compared exactly (integer against float)."""
        return self.reps ** 2 > _reps_squared(n, mass1, mass2, self.epsilon)


def _reps_squared(n: int, mass1: float, mass2: float, epsilon: float) -> float:
    """2 n mass1 mass2 / epsilon in Python floats (numpy scalars warn on
    overflow), left to right or divide-first where that overflows; inf if both do."""
    n, mass1, mass2, epsilon = float(n), float(mass1), float(mass2), float(epsilon)
    ratio = 2.0 * n * mass1 * mass2 / epsilon
    return ratio if ratio < np.inf else 2.0 * n * (mass1 / epsilon) * mass2


def product_params(n: int, mass1: float, mass2: float, epsilon: float) -> DiscretizationParams:
    """Smallest convenient parameters meeting the product constraints."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    for name, mass in (("mass1", mass1), ("mass2", mass2)):
        if not 0 <= mass < np.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {mass}")
    n, mass1, mass2, epsilon = float(n), float(mass1), float(mass2), float(epsilon)
    masses = max(mass1 * mass2, np.finfo(float).tiny)
    delta = min(2.0, epsilon / (8.0 * masses))
    if not (2.0 * n * mass1 * mass2 / epsilon < np.inf and 8.0 * masses < np.inf):
        delta = min(2.0, (epsilon / mass1) / (8.0 * mass2))  # a product overflowed
    reps_squared = _reps_squared(n, mass1, mass2, epsilon)
    if not reps_squared < np.inf:
        raise ValueError(f"epsilon must be large enough that 2 n mass1 mass2 / epsilon "
                         f"is finite, got {epsilon} for masses {mass1} and {mass2}")
    reps = int(np.floor(np.sqrt(reps_squared))) + 1
    if reps ** 2 <= reps_squared:  # past 2**106 the float root can round down
        reps = isqrt(int(reps_squared)) + 1
    return DiscretizationParams(delta, reps, epsilon)


def discretize(m: VectorMeasure, part: SpherePartition, reps: int) -> VectorMeasure:
    """Bucket atoms by direction cell and replicate per-cell mass.

    Every nonempty cell k with total 1-norm mass w_k contributes ``reps``
    atoms, each ``(w_k / reps) * u_k`` along the cell representative, so the
    total variation is preserved.  Empty buckets contribute nothing; zero
    atoms are ignored.  Cells come out in lexicographic order of their
    integer key rows, signs then buckets (one sort of n - 1 keys, the first
    folding the signs and first bucket: ``hulls._stable_order`` of the one
    key for n <= 2, else ``np.lexsort``; then a neighbour compare);
    each cell's mass is summed in atom order.  Raises ``SizeGuard`` before
    the output is allocated when its cells x reps x n coordinates exceed
    ``sampling.DIRECTION_COORDINATE_LIMIT``.
    """
    _same_dimension("measure and partition of dimensions", m.dimension, part.dimension)
    if reps < 1:
        raise ValueError("replication count must be a positive integer")
    norms = np.abs(m.atoms).sum(axis=1)
    keep = norms > 0.0
    if not keep.any():
        return VectorMeasure(m.dimension, np.zeros((0, m.dimension)))
    x, norms = (m.atoms, norms) if keep.all() else (m.atoms[keep], norms[keep])
    signs, buckets = part._cell_rows(x, norms)
    n = m.dimension
    # the sign columns as one code, first column highest, which keeps the
    # lex order of the +-1 rows; code * r + b_0 < 2^n r <= 2^59
    code = (signs > 0) @ (1 << np.arange(n - 1, -1, -1))
    keys = np.vstack([code * part.resolution + buckets[:, 0], buckets[:, 1:].T]
                     if n > 1 else [code])
    order = _stable_order(keys[0]) if n <= 2 else np.lexsort(keys[::-1])
    keys = keys[:, order]
    fresh = np.concatenate([[True], (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
    cell = np.empty(order.shape[0], dtype=np.intp)
    cell[order] = np.cumsum(fresh) - 1
    first = order[fresh]
    if first.shape[0] * reps * n > DIRECTION_COORDINATE_LIMIT:
        raise SizeGuard(
            f"discretized measures capped at {DIRECTION_COORDINATE_LIMIT} coordinates, "
            f"got {first.shape[0]} cells x {reps} reps x {n}"
        )
    masses = np.bincount(cell, weights=norms)
    atoms = (masses / reps)[:, None] * part.representative_rows(signs[first], buckets[first])
    return VectorMeasure(m.dimension, np.repeat(atoms, reps, axis=0))


def product_error_bound(
    p: DiscretizationParams, mass1: float, mass2: float, n: int
) -> float:
    """Hull error bound for discretized products: (n/N^2 + 2 delta) m1 m2."""
    return (n / p.reps ** 2 + 2.0 * p.delta) * mass1 * mass2


def skeleton_bound(n: int, bound_constant: float, delta: float) -> float:
    """Skeleton-product stability bound 4 n M delta."""
    if n < 1:
        raise ValueError(f"skeleton bound needs n >= 1, got {n}")
    for name, value in (("bound_constant", bound_constant), ("delta", delta)):
        if not value >= 0:
            raise ValueError(f"skeleton bound needs a nonnegative {name}, got {value}")
    return 4.0 * n * bound_constant * delta
