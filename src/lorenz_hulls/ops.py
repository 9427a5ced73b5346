"""The hull algebra: Lorenz product, Minkowski sum, identity, hull equality,
hull-preserving transforms, skeleton products, Lorenz curves and Gini.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    Exact2dOnPlaneOnly,
    InvalidTransform,
    NegativeAtom,
    TooManyAtoms,
    ZeroTotal,
)
from .hulls import (
    _BLOCK,
    SKELETON_ATOM_LIMIT,
    SkeletonPointSet,
    Zonotope,
    ZonogonSupport,
    _check_tol,
    _sorted_generators_2d,
    _stable_order,
    area_2d,
    hausdorff_convex,
    reach_many,
    skeleton_points,
    within_tolerance,
)
from .measures import VectorMeasure, _nonzero_rows, _rows, _same_dimension, coordinate_product
from .sampling import _probe_directions


# ---------------------------------------------------------------------------
# product, sum, identity


def lorenz_product(h1: Zonotope, h2: Zonotope) -> Zonotope:
    """Hull of the coordinate-wise product measure.

    Generators are all pairwise componentwise products of the factors'
    generators in (i, j) lexicographic order, zero products dropped.  The
    result depends only on the two hulls, not on which measures generated
    them.
    """
    _same_dimension("product of dimensions", h1.dimension, h2.dimension)
    prod = (h1.generators[:, None, :] * h2.generators[None, :, :]).reshape(
        -1, h1.dimension
    )
    prod = prod[_nonzero_rows(prod)]
    return Zonotope(h1.dimension, prod)


def minkowski_sum(h1: Zonotope, h2: Zonotope) -> Zonotope:
    """Minkowski sum: generator concatenation."""
    _same_dimension("Minkowski sum of dimensions", h1.dimension, h2.dimension)
    return Zonotope(h1.dimension, np.vstack([h1.generators, h2.generators]))


def identity_hull(n: int) -> Zonotope:
    """Multiplicative identity: the segment from the origin to all-ones."""
    if n < 1:
        raise DimensionMismatch("dimension must be a positive integer")
    return Zonotope(n, np.ones((1, n)))


# ---------------------------------------------------------------------------
# hull equality


def hull_equal(
    h1: Zonotope,
    h2: Zonotope,
    mode: str = "exact2d",
    *,
    dirs: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> bool:
    """Set equality of two hulls.

    exact2d: the exact planar 1-norm Hausdorff distance is at most
    2 (tol scale + tol), scale the larger of 1 and either hull's largest
    |vertex coordinate|; the 2 keeps vertex walks within tol scale + tol in
    each coordinate equal.  sampled (n < 20) compares reach on the probes of
    :func:`sampling._probe_directions` within ``tol`` (absolute plus relative).
    """
    _same_dimension("hull equality across dimensions", h1.dimension, h2.dimension)
    _check_tol(tol)
    n = h1.dimension
    if mode == "exact2d":
        if n != 2:
            raise Exact2dOnPlaneOnly("exact2d hull equality needs dimension 2")
        # a hull's largest |vertex coordinate| is its support at some +-e_j
        parts = [f(h.generators, 0.0).sum(axis=0) for h in (h1, h2) for f in (np.maximum, np.minimum)]
        scale = max(1.0, float(np.abs(parts).max()))
        return hausdorff_convex(h1, h2).distance <= 2 * (tol * scale + tol)
    if mode == "sampled":
        directions = _probe_directions(n, seed, "hull_equal.sampled", dirs)
        r1 = reach_many(h1, directions)
        r2 = reach_many(h2, directions)
        return within_tolerance(r1, r2, atol=tol, rtol=tol)
    raise ValueError(f"unknown hull equality mode {mode!r}")


# ---------------------------------------------------------------------------
# hull-preserving transforms


@dataclass(frozen=True)
class SplitAtom:
    """Replace atom ``index`` by the pair (fraction * a, (1-fraction) * a)."""

    index: int
    fraction: float


@dataclass(frozen=True)
class MergeColinear:
    """Replace two positively proportional atoms by their sum."""

    first: int
    second: int


@dataclass(frozen=True)
class Permute:
    order: tuple[int, ...]


@dataclass(frozen=True)
class InsertZeroAtom:
    position: int = 0


TransformStep = Union[SplitAtom, MergeColinear, Permute, InsertZeroAtom]
HullTransformSpec = Sequence[TransformStep]


def _apply_step(atoms: np.ndarray, step: TransformStep) -> np.ndarray:
    m = atoms.shape[0]
    if isinstance(step, SplitAtom):
        if not 0 <= step.index < m:
            raise InvalidTransform(f"split index {step.index} out of range")
        if not 0.0 < step.fraction < 1.0:
            raise InvalidTransform("split fraction must lie strictly inside (0, 1)")
        a = atoms[step.index]
        return np.vstack(
            [atoms[: step.index], [step.fraction * a, (1.0 - step.fraction) * a],
             atoms[step.index + 1 :]]
        )
    if isinstance(step, MergeColinear):
        i, j = step.first, step.second
        if i == j or not (0 <= i < m and 0 <= j < m):
            raise InvalidTransform(f"merge indices ({i}, {j}) out of range")
        a, b = atoms[i], atoms[j]
        na, nb = np.abs(a).sum(), np.abs(b).sum()
        if na == 0.0 or nb == 0.0:
            raise InvalidTransform("cannot merge a zero atom")
        if np.abs(a / na - b / nb).max() > 1e-9:
            raise InvalidTransform("atoms are not positively proportional")
        lo, hi = min(i, j), max(i, j)
        merged = a + b
        return np.vstack(
            [atoms[:lo], [merged], atoms[lo + 1 : hi], atoms[hi + 1 :]]
        )
    if isinstance(step, Permute):
        if sorted(step.order) != list(range(m)):
            raise InvalidTransform(f"order {step.order} is not a permutation of {m}")
        return atoms[list(step.order)]
    if isinstance(step, InsertZeroAtom):
        if not 0 <= step.position <= m:
            raise InvalidTransform(f"insert position {step.position} out of range")
        zero = np.zeros((1, atoms.shape[1]))
        return np.vstack([atoms[: step.position], zero, atoms[step.position :]])
    raise InvalidTransform(f"unknown transform step {step!r}")


def apply_transform(m: VectorMeasure, steps: HullTransformSpec) -> VectorMeasure:
    """Apply hull-preserving steps in order; the result has the same hull."""
    atoms = np.array(m.atoms)
    for step in steps:
        atoms = _apply_step(atoms, step)
    return VectorMeasure(m.dimension, atoms)


# ---------------------------------------------------------------------------
# skeleton product


def skeleton_product(m1: VectorMeasure, m2: VectorMeasure) -> SkeletonPointSet:
    """Skeleton of the coordinate-wise product (all product subset sums)."""
    _same_dimension("skeleton product of dimensions", m1.dimension, m2.dimension)
    # skeleton_points' cap on the m1 m2 product atoms, checked before they are built
    if m1.atom_count * m2.atom_count > SKELETON_ATOM_LIMIT:
        raise TooManyAtoms(
            f"skeleton product capped at {SKELETON_ATOM_LIMIT} product atoms, "
            f"got {m1.atom_count * m2.atom_count}"
        )
    return skeleton_points(coordinate_product(m1, m2))


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# direction-atom pairs from which product_reach_many splits its rows across
# threads: on 2 CPUs a threaded call measured faster from 2^16 pairs (128
# atoms on 512 directions) on; on ~100 discretized atoms both took as long
_THREAD_GATE = _BLOCK


def product_reach_many(
    factor_atoms: np.ndarray, other_support: ZonogonSupport, directions: np.ndarray
) -> np.ndarray:
    """Reach of a 2-D product hull evaluated through its factors.

    For direction u the product support is sum_i h_B(u * a_i) over the
    atoms a_i of the first factor (componentwise scaling), so the product's
    generators are never materialized.  The atoms are sorted once by
    rho = a_2 / a_1 (+-inf where a_1 = +-0, NaN for the zero atom) with
    ``hulls._stable_order`` and split, keeping that order, by the sign bit
    of a_1: the permutation of a stable ``lexsort`` at a fifth of its cost
    for 10^4 distinct keys.  The query u * a_i has slope (u_2 / u_1) * rho_i,
    which is +-0, +-inf or NaN exactly where its q_2 / q_1 is, and q_1 has
    its sign bit set where those of u_1 and a_i1 differ.  So one
    ``searchsorted`` of these slopes into the slope keys of
    ``other_support`` finds every extreme vertex
    (``ZonogonSupport.extreme_vertices``), axis directions and a zero query
    included, and the sum is u_1 * sum_i a_i1 x_j + u_2 * sum_i a_i2 y_j
    over those vertices.

    Cost O(dirs * m_a * log m_b) after O(m_a log m_a) sorting, with no
    ``arctan2``.  Every direction's value depends on that direction alone:
    its row sums are plain numpy reductions, whatever the batch.

    From ``_THREAD_GATE`` direction-atom pairs on, the direction rows are
    cut into one share per CPU the process may run on (``taskset`` limits
    them); the caller computes share 0 and plain threads started for this
    call the others, in blocks of ``_BLOCK // threads`` pairs, so memory
    stays flat.  ``searchsorted`` and ``take`` release the GIL.  The threads
    are joined before the call returns or raises, and the first failed
    share's exception reaches the caller.  Since each row is computed
    alone, the result has the same bytes at any thread count.
    """
    atoms = _rows(factor_atoms, 2, "factor atoms")
    D = _rows(np.atleast_2d(directions), 2, "directions")
    u1, u2 = D[:, 0], D[:, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = u2 / u1
        rho = atoms[:, 1] / atoms[:, 0]
    # sign bit of a_1 clear first, then set, each part by rho
    order = _stable_order(rho)
    sign = np.signbit(atoms[order, 0])
    order = np.concatenate([order[~sign], order[sign]])
    rho = rho[order]
    ax, ay = atoms[order, 0], atoms[order, 1]
    split = int(np.count_nonzero(~sign))
    m = rho.shape[0]
    out = np.zeros(D.shape[0])
    threads = min(_cpu_count(), D.shape[0]) if D.shape[0] * m >= _THREAD_GATE else 1
    step = max(1, _BLOCK // threads // max(m, 1))
    # the flipped columns: those whose a_1 sign bit differs from u_1's
    negative = np.signbit(u1)
    shares = [
        (flipped, np.array_split(np.flatnonzero(rows), threads))
        for flipped, rows in ((slice(split, None), ~negative), (slice(split), negative))
    ]

    def run_share(k: int) -> None:
        for flipped, parts in shares:
            rows = parts[k]
            for i in range(0, rows.shape[0], step):
                r = rows[i : i + step]
                with np.errstate(invalid="ignore", over="ignore"):
                    x, y = other_support.extreme_vertices(slope[r, None] * rho, flipped)
                h = u1[r] * (x * ax).sum(axis=1) + u2[r] * (y * ay).sum(axis=1)
                out[r] += np.maximum(h, 0.0)  # the hull holds 0, as in ZonogonSupport.eval

    if threads == 1:
        run_share(0)
        return out
    import threading

    errors = [None] * threads

    def guarded(k: int) -> None:
        try:
            run_share(k)
        except BaseException as error:  # raised in the caller below
            errors[k] = error

    started = []
    try:  # joins every started thread, also when a start or share 0 fails
        for k in range(1, threads):
            thread = threading.Thread(target=guarded, args=(k,))
            thread.start()
            started.append(thread)
        run_share(0)
    finally:
        for thread in started:
            thread.join()
    for error in filter(None, errors):
        raise error
    return out


# ---------------------------------------------------------------------------
# Lorenz curves and Gini


@dataclass(frozen=True)
class LorenzCurve:
    """Vertex polyline of the lower hull boundary, from (0,0) to (1,1)."""

    points: np.ndarray

    def slopes(self) -> np.ndarray:
        d = np.diff(self.points, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d[:, 0] > 0, d[:, 1] / d[:, 0], np.inf)


def _normalized_nonneg_atoms(m: VectorMeasure) -> np.ndarray:
    if m.dimension != 2:
        raise DimensionMismatch("Lorenz curves are defined for dimension 2")
    atoms = m.atoms
    if atoms.size and atoms.min() < 0:
        raise NegativeAtom("Lorenz curve atoms must be componentwise nonnegative")
    totals = atoms.sum(axis=0)
    if not (totals > 0).all():
        raise ZeroTotal("both coordinate totals must be positive")
    return atoms / totals


def lorenz_curve(m: VectorMeasure) -> LorenzCurve:
    """Lower boundary of the normalized 2-D hull.

    Atoms are scaled so each coordinate totals one and accumulated in the
    planar normal form's order: the nonzero atoms by ascending angle, which
    on [0, pi/2] is the order of ascending slope (zero-first-coordinate
    atoms last, ties by original index), then the zero atoms, so there is
    one point per atom.  The polyline is convex and matches the lower chain
    of the zonogon vertex walk.
    """
    atoms = _normalized_nonneg_atoms(m)
    g = _sorted_generators_2d(atoms)[0]
    steps = np.vstack([g, np.zeros((atoms.shape[0] - g.shape[0], 2))])
    cum = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
    cum[-1] = (1.0, 1.0)
    return LorenzCurve(cum)


def gini(m: VectorMeasure) -> float:
    """Gini coefficient: the area of the normalized 2-D hull.

    Zero exactly when all atoms are colinear with the diagonal (the hull
    degenerates to the segment from (0,0) to (1,1)).
    """
    atoms = _normalized_nonneg_atoms(m)
    return area_2d(Zonotope(2, atoms))
