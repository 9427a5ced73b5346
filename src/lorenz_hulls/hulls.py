"""Zonotope geometry: reach functions, skeletons, vertices, containment,
inclusion, and 1-norm Hausdorff distances.

A zonotope is the set ``{sum_i t_i g_i : t_i in [0, 1]}`` spanned by its
generator list; it always contains the origin and the generator total and is
centrally symmetric about half the total.  The reach (support) function of a
zonotope evaluates in closed form as ``sum_i max(0, <d, g_i>)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    Exact2dOnPlaneOnly,
    SizeGuard,
    TooManyAtoms,
)
from .measures import VectorMeasure, _frozen_rows
from .sampling import case_rng, sign_vectors, unit_directions

SKELETON_ATOM_LIMIT = 20
POINT_SET_LIMIT = 1 << 20
HAUSDORFF_DIMENSION_LIMIT = 20
# cap of the exact n >= 3 routes; n >= 4 solves one LP per subset sum
_LP_EXACT_MAX_GENERATORS = 10

# float64 elements per temporary block of the dense kernels (512 KB), so a
# block and its reductions stay in cache
_BLOCK = 1 << 16


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call (slow import)."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def within_tolerance(lhs, rhs, atol: float = 1e-9, rtol: float = 1e-9) -> bool:
    """Tolerance policy: |lhs - rhs| <= atol + rtol * max(|lhs|, |rhs|)."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    gap = np.abs(lhs - rhs)
    return bool(np.all(gap <= atol + rtol * np.maximum(np.abs(lhs), np.abs(rhs))))


@dataclass(frozen=True)
class Zonotope:
    """Generator representation of a Lorenz hull."""

    dimension: int
    generators: np.ndarray

    def __post_init__(self) -> None:
        g = _frozen_rows(self.generators, self.dimension, "generator array")
        object.__setattr__(self, "generators", g)

    @property
    def generator_count(self) -> int:
        return self.generators.shape[0]

    def total(self) -> np.ndarray:
        if self.generator_count == 0:
            return np.zeros(self.dimension)
        return self.generators.sum(axis=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Zonotope):
            return NotImplemented
        return self.dimension == other.dimension and np.array_equal(
            self.generators, other.generators
        )

    def __hash__(self):
        return hash((self.dimension, self.generators.tobytes()))


@dataclass(frozen=True)
class SkeletonPointSet:
    """All subset sums of a measure's atoms, duplicates collapsed."""

    dimension: int
    points: np.ndarray
    total: np.ndarray

    @property
    def point_count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class HausdorffResult:
    """1-norm Hausdorff distance with the argument attaining it.

    ``mode`` is "exact" when the value is the true distance and "sampled"
    when it is a maximum over finitely many probe directions (a certified
    lower bound).  Exact n = 3 (closed form, no LP) and n >= 4 (LPs) results
    carry a farthest subset sum as ``witness_point``.
    """

    distance: float
    mode: str
    witness_direction: Optional[np.ndarray] = None
    witness_point: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Containment:
    """Point-membership verdict with a certificate either way."""

    inside: bool
    coefficients: Optional[np.ndarray]
    witness: Optional[np.ndarray]
    distance: float


@dataclass(frozen=True)
class InclusionResult:
    verdict: str  # "included" | "excluded" | "no_violation_found"
    witness: Optional[np.ndarray]
    max_violation: float


# ---------------------------------------------------------------------------
# hulls and reach


def hull_of(m: VectorMeasure) -> Zonotope:
    """Hull of a discrete measure: generators are its nonzero atoms."""
    keep = np.abs(m.atoms).sum(axis=1) > 0.0
    return Zonotope(m.dimension, m.atoms[keep])


def reach(z: Zonotope, direction) -> float:
    """Support value sup{<d, x> : x in hull} = sum_i max(0, <d, g_i>)."""
    d = np.asarray(direction, dtype=np.float64).reshape(-1)
    if d.shape[0] != z.dimension:
        raise DimensionMismatch(
            f"direction of length {d.shape[0]} against dimension {z.dimension}"
        )
    if z.generator_count == 0:
        return 0.0
    return float(np.maximum(z.generators @ d, 0.0).sum())


def reach_many(z: Zonotope, directions) -> np.ndarray:
    """Reach values for all direction rows.

    In the plane the k rows are answered by :class:`ZonogonSupport` in
    O((m + k) log m), each row on its own.  Other dimensions evaluate the
    closed form in blocks of ~``_BLOCK`` dot products, O(k m).
    """
    D = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if D.shape[1] != z.dimension:
        raise DimensionMismatch(
            f"directions of length {D.shape[1]} against dimension {z.dimension}"
        )
    m = z.generator_count
    if m == 0:
        return np.zeros(D.shape[0])
    if z.dimension == 2:
        return ZonogonSupport(z.generators).eval(D)
    out = np.empty(D.shape[0])
    step = max(1, _BLOCK // m)
    for i in range(0, D.shape[0], step):
        block = D[i : i + step] @ z.generators.T
        out[i : i + step] = np.maximum(block, 0.0, out=block).sum(axis=1)
    return out


def skeleton_points(m: VectorMeasure) -> SkeletonPointSet:
    """Enumerate the 2^m subset sums of the measure's atoms."""
    if m.atom_count > SKELETON_ATOM_LIMIT:
        raise TooManyAtoms(
            f"skeleton enumeration capped at {SKELETON_ATOM_LIMIT} atoms, "
            f"got {m.atom_count}"
        )
    sums = np.zeros((1, m.dimension))
    for atom in m.atoms:
        sums = np.vstack([sums, sums + atom])
    points = np.unique(sums, axis=0)
    return SkeletonPointSet(m.dimension, points, m.total())


# ---------------------------------------------------------------------------
# planar realization


def _sorted_generators_2d(generators: np.ndarray):
    """Upper-half-plane form of a 2-D generator list, sorted by polar angle.

    Drops zero rows, flips generators into {y > 0} union {y = 0, x > 0}
    (accumulating the flip offset) and sorts them stably by angle.  Returns
    ``(g, angles, offset)`` with ``angles`` nondecreasing in [0, pi).
    """
    g = np.asarray(generators, dtype=np.float64).reshape(-1, 2)
    g = g[np.abs(g).sum(axis=1) > 0.0]
    flip = (g[:, 1] < 0) | ((g[:, 1] == 0) & (g[:, 0] < 0))
    offset = g[flip].sum(axis=0) if flip.any() else np.zeros(2)
    g = np.where(flip[:, None], -g, g)
    ang = np.arctan2(g[:, 1], g[:, 0])
    order = np.argsort(ang, kind="stable")
    return g[order], ang[order], offset


def _merge_sorted_2d(g: np.ndarray, ang: np.ndarray):
    """Sum the runs of sorted generators whose successive angles differ by at
    most 1e-12; the merged angles are strictly increasing."""
    if g.shape[0] == 0:
        return np.zeros((0, 2))
    starts = np.concatenate([[0], np.nonzero(np.diff(ang) > 1e-12)[0] + 1])
    merged = np.add.reduceat(g, starts, axis=0)
    # merging exactly opposite rounding noise could produce a zero group
    return merged[np.abs(merged).sum(axis=1) > 0.0]


def _merged_generators_2d(generators: np.ndarray):
    """``(merged, offset)``: the sorted generators with equal-angle runs summed."""
    g, ang, offset = _sorted_generators_2d(generators)
    return _merge_sorted_2d(g, ang), offset


def zonogon_vertices(z: Zonotope) -> np.ndarray:
    """Counterclockwise vertex list of a 2-D zonotope.

    Degenerate results are a two-point segment or the single point at the
    origin.  The support function of the returned polygon equals the reach
    of ``z`` in every direction.
    """
    if z.dimension != 2:
        raise Exact2dOnPlaneOnly("vertex enumeration is planar only")
    return ZonogonSupport(z.generators).vertices


def area_2d(z: Zonotope) -> float:
    """Area of a 2-D zonotope: sum over generator pairs of |g_i x g_j|.

    Evaluated in O(m log m) after the upper-half-plane sort, where every
    pairwise cross product of the merged list is nonnegative.
    """
    if z.dimension != 2:
        raise Exact2dOnPlaneOnly("area is planar only")
    merged, _ = _merged_generators_2d(z.generators)
    if merged.shape[0] < 2:
        return 0.0
    cum = np.cumsum(merged, axis=0)
    prev = cum[:-1]
    cur = merged[1:]
    return float((prev[:, 0] * cur[:, 1] - prev[:, 1] * cur[:, 0]).sum())


def shoelace_area(vertices: np.ndarray) -> float:
    """Polygon area by the shoelace formula (oracle for :func:`area_2d`)."""
    v = np.asarray(vertices, dtype=np.float64).reshape(-1, 2)
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return float(np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def _walk_2d(offset: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Counterclockwise walk from ``offset`` through the prefix sums of the
    sorted upper-half-plane ``steps`` and back through the total minus them."""
    # slices, not indices: no step leaves the walk [offset] and one step
    # leaves the two-point segment
    cum = np.cumsum(steps, axis=0)
    top = offset + cum[-1:]
    return np.vstack([offset[None, :], offset + cum[:-1], top, top - cum[:-1]])


class ZonogonSupport:
    """Planar normal form of a 2-D zonotope, for repeated support queries.

    The nonzero generators are flipped into the upper half-plane and sorted
    by angle once.  Two counterclockwise walks share that order:

    - ``vertices``, the polygon: runs of generators whose angles differ by
      at most 1e-12 are merged, so collinear edges give one vertex pair;
    - the query walk, over every nonzero generator unmerged.  Its edge
      angles are the sorted angles followed by the same angles plus pi, so
      one ``searchsorted`` finds the extreme vertex of a query, and the
      support agrees with sum_i max(0, <q, g_i>) to within rounding even on
      chains of nearly parallel generators that the merge joins.

    Construction costs O(m log m) and a batch of k queries O(k log m).
    ``reach_many`` in the plane, the exact planar Hausdorff distance and
    ``product_reach_many`` all evaluate support through this class.
    """

    def __init__(self, generators) -> None:
        g, angles, offset = _sorted_generators_2d(generators)
        self.vertices = _walk_2d(offset, _merge_sorted_2d(g, angles))
        self._walk = _walk_2d(offset, g)
        self._edge_angles = np.concatenate([angles, angles + np.pi])

    def eval(self, queries) -> np.ndarray:
        """Support values for query direction rows (k, 2)."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        # vertex j is extreme while the query's angle + pi/2 lies between
        # the angles of the edges entering and leaving it; updates are in
        # place, so a batch allocates one array each of angles, indices and
        # gathered vertices
        t = np.arctan2(q[:, 1], q[:, 0])
        t += 0.5 * np.pi
        np.add(t, 2.0 * np.pi, out=t, where=t < 0.0)
        j = np.searchsorted(self._edge_angles, t)
        j %= self._walk.shape[0]
        w = self._walk[j]
        w *= q
        return w.sum(axis=1)


# ---------------------------------------------------------------------------
# containment (linear feasibility)


def _lp_exponent(z: Zonotope, p: np.ndarray) -> int:
    """Binary exponent e of the largest |coordinate| of ``z`` and ``p``; the
    LPs run on data times 2**-e (exact), as HiGHS fails near 1e100."""
    peak = max(np.abs(z.generators).max(initial=0.0), np.abs(p).max(initial=0.0))
    return int(np.frexp(peak)[1])


def _lp_point_distance(z: Zonotope, p: np.ndarray):
    """1-norm distance from ``p`` to the zonotope, with coefficients.

    Solves  min sum(s+ + s-)  s.t.  G^T t + s+ - s- = p,  t in [0,1]^m.
    """
    m, n = z.generator_count, z.dimension
    e = _lp_exponent(z, p)
    c = np.concatenate([np.zeros(m), np.ones(2 * n)])
    a_eq = np.hstack([np.ldexp(z.generators.T, -e), np.eye(n), -np.eye(n)])
    bounds = [(0.0, 1.0)] * m + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=a_eq, b_eq=np.ldexp(p, -e), bounds=bounds, method="highs")
    if res.status != 0:  # pragma: no cover - the program is always feasible
        raise RuntimeError(f"distance LP failed: {res.message}")
    return float(np.ldexp(res.fun, e)), np.clip(res.x[:m], 0.0, 1.0)


def separating_direction(z: Zonotope, p: np.ndarray):
    """Best separating direction in the infinity-ball.

    Maximizes <d, p> - reach(z, d) over ||d||_inf <= 1; the optimum equals
    the 1-norm distance from ``p`` to the zonotope.
    """
    m, n = z.generator_count, z.dimension
    e = _lp_exponent(z, p)
    c = np.concatenate([-np.ldexp(p, -e), np.ones(m)])
    if m:
        a_ub = np.hstack([np.ldexp(z.generators, -e), -np.eye(m)])
        b_ub = np.zeros(m)
    else:
        a_ub = None
        b_ub = None
    bounds = [(-1.0, 1.0)] * n + [(0.0, None)] * m
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:  # pragma: no cover
        raise RuntimeError(f"separation LP failed: {res.message}")
    return res.x[:n], float(np.ldexp(-res.fun, e))


def contains_point(z: Zonotope, point, tol: float = 1e-9) -> Containment:
    """Decide membership of a point in the hull.

    Inside verdicts return coefficients t in [0,1]^m reconstructing the
    point within ``tol`` in 1-norm; outside verdicts return a direction d
    with <d, p> > reach(z, d) + tol.  Indeterminate cases within ``tol``
    resolve to inside.
    """
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if p.shape[0] != z.dimension:
        raise DimensionMismatch(
            f"point of length {p.shape[0]} against dimension {z.dimension}"
        )
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = z.generator_count
    # 0 and the generator total are always in the hull; keep their canonical
    # certificates instead of whatever vertex the solver would report.
    if np.abs(p).sum() <= tol:
        return Containment(True, np.zeros(m), None, float(np.abs(p).sum()))
    gap_total = np.abs(p - z.total()).sum()
    if gap_total <= tol:
        return Containment(True, np.ones(m), None, float(gap_total))
    dist, lam = _lp_point_distance(z, p)
    if dist <= tol:
        return Containment(True, lam, None, dist)
    witness, _ = separating_direction(z, p)
    return Containment(False, None, witness, dist)


def includes(
    inner: Zonotope,
    outer: Zonotope,
    mode: str = "exact2d",
    *,
    dirs: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> InclusionResult:
    """Zonotope-in-zonotope inclusion test.

    exact2d (n = 2): compares reach at the perpendiculars of every outer
    generator (plus the end caps of a segment), which decides inclusion
    exactly since the outer polygon is the intersection of those
    halfplanes.  Both reach batches go through the planar normal form, so
    the test costs O((m1 + m2) log(m1 + m2)).  Verdicts are definitive.

    sampled (any n): compares reach on all sign vectors plus ``dirs`` seeded
    directions.  A violating direction certifies exclusion; otherwise the
    verdict is only "no_violation_found".
    """
    if inner.dimension != outer.dimension:
        raise DimensionMismatch(
            f"inclusion across dimensions {inner.dimension} and {outer.dimension}"
        )
    n = inner.dimension
    if mode == "exact2d":
        if n != 2:
            raise Exact2dOnPlaneOnly("exact2d inclusion needs dimension 2")
        directions = _outer_normals_2d(outer)
        definitive = True
    elif mode == "sampled":
        rng = case_rng(seed, "includes.sampled")
        directions = np.vstack(
            [sign_vectors(n), unit_directions(rng, dirs, n)]
        )
        definitive = False
    else:
        raise ValueError(f"unknown inclusion mode {mode!r}")
    gap = reach_many(inner, directions) - reach_many(outer, directions)
    worst = int(np.argmax(gap))
    max_violation = float(gap[worst])
    if max_violation > tol:
        return InclusionResult("excluded", directions[worst], max_violation)
    verdict = "included" if definitive else "no_violation_found"
    return InclusionResult(verdict, None, max_violation)


def _outer_normals_2d(outer: Zonotope) -> np.ndarray:
    """Outward halfplane normals whose intersection is the outer zonogon:
    the perpendiculars of every nonzero generator, so that the short edges
    of a chain of nearly parallel generators keep their own normals."""
    g, angles, _ = _sorted_generators_2d(outer.generators)
    merged = _merge_sorted_2d(g, angles)
    if merged.shape[0] == 0:
        d = np.array([[1.0, 0.0], [0.0, 1.0]])
        return np.vstack([d, -d])
    d = np.column_stack([-g[:, 1], g[:, 0]])
    if merged.shape[0] == 1:
        # a segment needs its side normals and the end caps
        d = np.vstack([d, merged])
    d = np.vstack([d, -d])
    return d / np.abs(d).sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Hausdorff distances (1-norm)


def hausdorff_convex(
    z1: Zonotope,
    z2: Zonotope,
    *,
    seed: int = 0,
    dirs: int = 4096,
) -> HausdorffResult:
    """1-norm Hausdorff distance between two zonotopes.

    The distance equals the maximum of |reach(z1, u) - reach(z2, u)| over
    the dual unit ball ||u||_inf <= 1.  The maximizer need not be a sign
    vector (the support difference is only a difference of convex
    functions), so:

    - n <= 2: exact, by enumerating the boundary breakpoints of the
      piecewise-linear support difference (generator normals scaled to the
      box boundary, plus the corners), evaluated on the unmerged walk of
      the planar normal form :class:`ZonogonSupport` in O(m log m);
    - n = 3 with at most 10 generators per side: exact in closed form (no
      LP) at the vertices that the planes <g, u> = 0 cut out of the cube
      surface: its corners, plane/edge crossings and +-(g_i x g_j) scaled;
    - 4 <= n <= 20 with at most 10 generators per side: exact, as the larger
      of the two directed distances, each a maximum of point-to-zonotope LP
      distances over the opposite subset sums;
    - otherwise: sampled over sign vectors plus seeded directions, reported
      as mode "sampled" (a lower bound).
    """
    if z1.dimension != z2.dimension:
        raise DimensionMismatch(
            f"Hausdorff across dimensions {z1.dimension} and {z2.dimension}"
        )
    n = z1.dimension
    if n > HAUSDORFF_DIMENSION_LIMIT:
        raise DimensionTooLarge(
            f"Hausdorff computation capped at n <= {HAUSDORFF_DIMENSION_LIMIT}"
        )
    if n <= 2:
        return _hausdorff_2d_exact(z1, z2)
    if max(z1.generator_count, z2.generator_count) <= _LP_EXACT_MAX_GENERATORS:
        if n == 3:
            return _hausdorff_3d_exact(z1, z2)
        return _hausdorff_lp_exact(z1, z2)
    probes = [sign_vectors(n)] if n <= 16 else []
    probes.append(unit_directions(case_rng(seed, "hausdorff.sampled"), dirs, n))
    directions = np.vstack(probes)
    gap = np.abs(reach_many(z1, directions) - reach_many(z2, directions))
    # scale-free comparison: homogeneity degree one in the direction
    scale = np.abs(directions).max(axis=1)
    gap = gap / scale
    worst = int(np.argmax(gap))
    return HausdorffResult(
        float(gap[worst]), "sampled", witness_direction=directions[worst] / scale[worst]
    )


def _hausdorff_2d_exact(z1: Zonotope, z2: Zonotope) -> HausdorffResult:
    if z1.dimension == 1:
        cands = np.array([[1.0], [-1.0]])
        h1, h2 = reach_many(z1, cands), reach_many(z2, cands)
    else:
        gens = np.vstack([z1.generators, z2.generators])
        gens = gens[np.abs(gens).sum(axis=1) > 0.0]
        corner = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        if gens.shape[0]:
            perp = np.column_stack([-gens[:, 1], gens[:, 0]])
            perp = perp / np.abs(perp).max(axis=1, keepdims=True)
            cands = np.vstack([corner, perp, -perp])
        else:
            cands = corner
        h1 = ZonogonSupport(z1.generators).eval(cands)
        h2 = ZonogonSupport(z2.generators).eval(cands)
    gap = np.abs(h1 - h2)
    worst = int(np.argmax(gap))
    return HausdorffResult(float(gap[worst]), "exact", witness_direction=cands[worst])


def _hausdorff_3d_exact(z1: Zonotope, z2: Zonotope) -> HausdorffResult:
    # The support gap is linear on each cell of the arrangement of the planes
    # <g, u> = 0, so on the cube surface it peaks at a cube corner, where a
    # plane crosses a cube edge, or where two planes meet (+-g_i x g_j).
    gens = np.vstack([z1.generators, z2.generators])
    gens = gens[np.abs(gens).sum(axis=1) > 0.0]
    # only the planes matter; unit rows keep the products below from
    # overflowing or underflowing at extreme scales
    gens = gens / np.abs(gens).max(axis=1, keepdims=True)
    corners = sign_vectors(3)
    cands = [corners]
    for k in range(3):
        ends = corners[corners[:, k] > 0]  # one end of each edge along axis k
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (gens[:, k : k + 1] - gens @ ends.T) / gens[:, k : k + 1]
        i, e = np.nonzero(np.abs(t) <= 1.0)
        crossing = ends[e]
        crossing[:, k] = t[i, e]
        cands.append(crossing)
    i, j = np.triu_indices(gens.shape[0], 1)
    c = np.cross(gens[i], gens[j])
    c = c[np.abs(c).max(axis=1) > 0.0]
    c = c / np.abs(c).max(axis=1, keepdims=True)
    cands = np.vstack(cands + [c, -c])
    gap = reach_many(z1, cands) - reach_many(z2, cands)
    worst = int(np.argmax(np.abs(gap)))
    # the side with the larger support at the best direction is farthest there
    g = (z1 if gap[worst] >= 0.0 else z2).generators
    far = g[g @ cands[worst] > 0.0].sum(axis=0)
    return HausdorffResult(float(abs(gap[worst])), "exact", witness_point=far)


def _hausdorff_lp_exact(z1: Zonotope, z2: Zonotope) -> HausdorffResult:
    best = -1.0
    best_point = None
    for source, target in ((z1, z2), (z2, z1)):
        skel = skeleton_points(VectorMeasure(source.dimension, source.generators))
        for point in skel.points:
            dist, _ = _lp_point_distance(target, point)
            if dist > best:
                best = dist
                best_point = point
    return HausdorffResult(float(best), "exact", witness_point=best_point)


def _directed_points_1norm(a: np.ndarray, b: np.ndarray):
    """sup over rows of ``a`` of the 1-norm distance to the set ``b``."""
    if a.shape[0] == 0:
        return 0.0, None
    if b.shape[0] == 0:
        raise SizeGuard("Hausdorff distance against an empty point set")
    pairs = a.shape[0] * b.shape[0]
    if pairs > 1 << 22:
        from scipy.spatial import cKDTree

        dist, _ = cKDTree(b).query(a, k=1, p=1)
    else:
        dist = np.empty(a.shape[0])
        step = max(1, _BLOCK // b.size)
        for i in range(0, a.shape[0], step):
            block = np.abs(a[i : i + step, None, :] - b[None, :, :]).sum(axis=2)
            dist[i : i + step] = block.min(axis=1)
    worst = int(np.argmax(dist))
    return float(dist[worst]), a[worst]


def hausdorff_points(p1: SkeletonPointSet, p2: SkeletonPointSet) -> HausdorffResult:
    """Exact 1-norm Hausdorff distance between finite point sets."""
    if p1.dimension != p2.dimension:
        raise DimensionMismatch(
            f"Hausdorff across dimensions {p1.dimension} and {p2.dimension}"
        )
    if max(p1.point_count, p2.point_count) > POINT_SET_LIMIT:
        raise SizeGuard(f"point sets capped at {POINT_SET_LIMIT} points")
    d12, w12 = _directed_points_1norm(p1.points, p2.points)
    d21, w21 = _directed_points_1norm(p2.points, p1.points)
    if d12 >= d21:
        return HausdorffResult(d12, "exact", witness_point=w12)
    return HausdorffResult(d21, "exact", witness_point=w21)
