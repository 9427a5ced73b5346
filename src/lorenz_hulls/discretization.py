"""Approximation pipeline: partition the 1-norm unit sphere into small
cells, bucket a fine measure by atom direction, replicate per-cell atoms,
and expose the quantitative Hausdorff error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

import numpy as np

from .errors import DeltaOutOfRange, DimensionGuard, DimensionMismatch
from .measures import VectorMeasure

PARTITION_DIMENSION_LIMIT = 6

CellKey = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SpherePartition:
    """Disjoint cover of the 1-norm unit sphere by cells of small diameter.

    Each sign orthant face of the cross-polytope boundary is a simplex; it
    is subdivided by bucketing the first n-1 barycentric coordinates on a
    grid of ``resolution`` bins.  A cell key is the sign pattern plus the
    bucket tuple.  Any two points of one cell are within ``diameter_bound``
    of each other in 1-norm, and within ``delta`` of the cell
    representative.
    """

    dimension: int
    delta: float
    resolution: int

    @property
    def diameter_bound(self) -> float:
        if self.dimension == 1:
            return 0.0
        return min(self.delta, 2.0 * (self.dimension - 1) / self.resolution)

    @property
    def cell_count(self) -> int:
        return (2 ** self.dimension) * _simplex_bucket_count(
            self.dimension - 1, self.resolution
        )

    def cell_of(self, points: np.ndarray) -> list[CellKey]:
        """Cell keys of unit (or any nonzero) vectors, one per row."""
        signs, buckets = self._cell_rows(points)
        return list(zip(map(tuple, signs.tolist()), map(tuple, buckets.tolist())))

    def _cell_rows(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The two parts of the cell keys of ``points`` as integer arrays."""
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if x.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"points of length {x.shape[1]} against dimension {self.dimension}"
            )
        norms = np.abs(x).sum(axis=1, keepdims=True)
        if (norms == 0).any():
            raise DimensionMismatch("zero vectors have no partition cell")
        signs = np.where(x >= 0, 1, -1)
        y = np.abs(x) / norms
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

    def cells(self) -> Iterator[tuple[CellKey, np.ndarray]]:
        """Materialize every (key, representative) pair."""
        for signs in np.ndindex(*(2,) * self.dimension):
            sign_tuple = tuple(1 if s else -1 for s in signs)
            for buckets in _feasible_buckets(self.dimension - 1, self.resolution):
                rep = self.representative_rows([sign_tuple], [buckets])[0]
                yield (sign_tuple, buckets), rep


def _feasible_buckets(d: int, r: int) -> Iterator[tuple[int, ...]]:
    if d == 0:
        yield ()
        return
    stack = [((), 0)]
    while stack:
        prefix, total = stack.pop()
        if len(prefix) == d:
            yield prefix
            continue
        for k in range(min(r - 1, r - total), -1, -1):
            stack.append((prefix + (k,), total + k))


@lru_cache(maxsize=None)
def _simplex_bucket_count(d: int, r: int) -> int:
    """Count bucket tuples k in {0..r-1}^d with sum(k) <= r."""
    if d == 0:
        return 1
    ways = [0] * (r + 1)
    ways[0] = 1
    for _ in range(d):
        prefix = list(accumulate(ways))
        nxt = [0] * (r + 1)
        for j in range(r + 1):
            lo = j - (r - 1)
            nxt[j] = prefix[j] - (prefix[lo - 1] if lo >= 1 else 0)
        ways = nxt
    return sum(ways)


def partition_sphere(n: int, delta: float) -> SpherePartition:
    """Partition with per-face grid resolution ``ceil(2 n / delta)``."""
    if not 1 <= n <= PARTITION_DIMENSION_LIMIT:
        raise DimensionGuard(
            f"sphere partition supports 1 <= n <= {PARTITION_DIMENSION_LIMIT}, got {n}"
        )
    if not 0.0 < delta <= 2.0:
        raise DeltaOutOfRange(f"delta must lie in (0, 2], got {delta}")
    resolution = int(np.ceil(2.0 * n / delta))
    return SpherePartition(n, float(delta), resolution)


@dataclass(frozen=True)
class DiscretizationParams:
    """Quantities of the approximation pipeline with their derived bounds.

    delta: cell diameter of the sphere partition;
    reps: atom replication count N per nonempty cell;
    bound_constant: cube half-width M containing every relevant skeleton;
    epsilon: the target approximation error.
    """

    delta: float
    reps: int
    bound_constant: float
    epsilon: float

    def satisfies_skeleton_constraint(self, n: int) -> bool:
        """delta < epsilon / (4 n M), the skeleton-product stability regime."""
        return self.delta < self.epsilon / (4.0 * n * self.bound_constant)

    def satisfies_reps_constraint(self, n: int, mass1: float, mass2: float) -> bool:
        """N^2 > 2 n mass1 mass2 / epsilon, the product replication regime."""
        return self.reps ** 2 > 2.0 * n * mass1 * mass2 / self.epsilon


def product_params(
    n: int, mass1: float, mass2: float, epsilon: float, bound_constant: float = 1.0
) -> DiscretizationParams:
    """Smallest convenient parameters meeting the product constraints."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    masses = max(mass1 * mass2, np.finfo(float).tiny)
    delta = min(2.0, epsilon / (8.0 * masses))
    reps = int(np.floor(np.sqrt(2.0 * n * mass1 * mass2 / epsilon))) + 1
    return DiscretizationParams(delta, reps, bound_constant, epsilon)


def discretize(m: VectorMeasure, part: SpherePartition, reps: int) -> VectorMeasure:
    """Bucket atoms by direction cell and replicate per-cell mass.

    Every nonempty cell k with total 1-norm mass w_k contributes ``reps``
    atoms, each ``(w_k / reps) * u_k`` along the cell representative, so the
    total variation is preserved.  Empty buckets contribute nothing; zero
    atoms are ignored.  Cells come out in lexicographic order of their
    integer key rows (one ``np.lexsort`` and a neighbour compare); each
    cell's mass is summed in atom order.
    """
    if m.dimension != part.dimension:
        raise DimensionMismatch(
            f"measure dimension {m.dimension} against partition dimension "
            f"{part.dimension}"
        )
    if reps < 1:
        raise ValueError("replication count must be a positive integer")
    norms = np.abs(m.atoms).sum(axis=1)
    keep = norms > 0.0
    if not keep.any():
        return VectorMeasure(m.dimension, np.zeros((0, m.dimension)))
    signs, buckets = part._cell_rows(m.atoms[keep])
    rows = np.hstack([signs, buckets])
    order = np.lexsort(rows.T[::-1])
    fresh = np.concatenate([[True], (rows[order[1:]] != rows[order[:-1]]).any(axis=1)])
    cell = np.empty(order.shape[0], dtype=np.intp)
    cell[order] = np.cumsum(fresh) - 1
    cells = rows[order[fresh]]
    masses = np.bincount(cell, weights=norms[keep])
    n = m.dimension
    atoms = (masses / reps)[:, None] * part.representative_rows(cells[:, :n], cells[:, n:])
    return VectorMeasure(m.dimension, np.repeat(atoms, reps, axis=0))


def product_error_bound(
    p: DiscretizationParams, mass1: float, mass2: float, n: int
) -> float:
    """Hull error bound for discretized products: (n/N^2 + 2 delta) m1 m2."""
    return (n / p.reps ** 2 + 2.0 * p.delta) * mass1 * mass2


def skeleton_bound(n: int, bound_constant: float, delta: float) -> float:
    """Skeleton-product stability bound 4 n M delta."""
    if n < 1 or bound_constant < 0 or delta < 0:
        raise ValueError("skeleton bound needs n >= 1 and nonnegative M, delta")
    return 4.0 * n * bound_constant * delta


def slice_density(pd, slices_per_unit: int = 16) -> VectorMeasure:
    """Uniformly slice a piecewise density into a fine discrete measure.

    Each piece of length L becomes ceil(L * slices_per_unit) equal atoms
    (L / count) * direction; the slicing is exact because the density is
    constant on each piece.
    """
    if slices_per_unit < 1:
        raise ValueError("slices_per_unit must be a positive integer")
    rows = []
    for length, direction in zip(pd.lengths, pd.directions):
        count = max(1, int(np.ceil(length * slices_per_unit)))
        rows.extend([(length / count) * direction] * count)
    atoms = np.array(rows) if rows else np.zeros((0, pd.dimension))
    return VectorMeasure(pd.dimension, atoms)
