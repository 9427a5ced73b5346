"""Zonotope geometry: reach functions, skeletons, vertices, containment,
inclusion, and 1-norm Hausdorff distances.

A zonotope is the set ``{sum_i t_i g_i : t_i in [0, 1]}`` spanned by its
generator list; it always contains the origin and the generator total and is
centrally symmetric about half the total.  The reach (support) function of a
zonotope evaluates in closed form as ``sum_i max(0, <d, g_i>)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
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
from .sampling import DIRECTION_COORDINATE_LIMIT, case_rng, sign_vectors, unit_directions

SKELETON_ATOM_LIMIT = 20
POINT_SET_LIMIT = 1 << 20
HAUSDORFF_DIMENSION_LIMIT = 20

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
    lower bound).  Exact n >= 3 results (closed form, no LP) carry a
    farthest subset sum as ``witness_point``.
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
    """``(merged, offset)``: the sorted generators with equal-angle runs summed.
    No package caller; ``perfbench/tests/test_tracer.py`` pins the binding."""
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
    pairwise cross product is nonnegative.  Only runs of one exact angle,
    which add no area, are summed first (so equal atoms give exactly 0.0).
    """
    if z.dimension != 2:
        raise Exact2dOnPlaneOnly("area is planar only")
    g, ang, _ = _sorted_generators_2d(z.generators)
    g = np.add.reduceat(g, np.flatnonzero(np.diff(ang, prepend=-1.0) > 0.0), axis=0)
    if g.shape[0] < 2:
        return 0.0
    cum = np.cumsum(g, axis=0)
    prev = cum[:-1]
    cur = g[1:]
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
    - n >= 3: exact in closed form (no LP) at the vertices that the
      hyperplanes <g, u> = 0 of both sides' M nonzero generators cut out of
      the cube surface ||u||_inf = 1, at most
      sum_{k < n} C(M, k) C(n, k) 2^(n - k) of them;
    - past ``sampling.DIRECTION_COORDINATE_LIMIT`` coordinates of those
      (checked before allocating): sampled over sign vectors plus seeded
      directions, reported as mode "sampled" (a lower bound).
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
    gens = np.vstack([z1.generators, z2.generators])
    gens = gens[np.abs(gens).sum(axis=1) > 0.0]
    if n <= 2:
        return _hausdorff_2d_exact(z1, z2, gens)
    # facet-vertex count, bounded before any allocation like a direction set
    bound = sum(comb(len(gens), k) * comb(n, k) << (n - k) for k in range(min(n, len(gens) + 1)))
    if bound * n <= DIRECTION_COORDINATE_LIMIT:
        return _hausdorff_arrangement(z1, z2, gens)
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


def _hausdorff_2d_exact(z1: Zonotope, z2: Zonotope, gens: np.ndarray) -> HausdorffResult:
    if z1.dimension == 1:
        cands = np.array([[1.0], [-1.0]])
        h1, h2 = reach_many(z1, cands), reach_many(z2, cands)
    else:
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


def _hausdorff_arrangement(z1: Zonotope, z2: Zonotope, gens: np.ndarray) -> HausdorffResult:
    # The support gap is linear on each cell of the hyperplane arrangement
    # <g, u> = 0, so on the cube surface it peaks where n independent ones of
    # them and of the facets u_j = +-1 hold.  Unit rows keep solves in range.
    m, n = gens.shape
    gens = gens / np.abs(gens).max(axis=1, keepdims=True)
    cands = [sign_vectors(n)]
    for k in range(1, min(n - 1, m) + 1):
        subsets = combinations(range(m), k)
        # blocks of subsets whose systems span about _BLOCK coordinates
        step = max(1, _BLOCK // ((n * comb(n, k)) << (n - k)))
        while block := list(islice(subsets, step)):
            cands.append(_facet_vertices(gens[np.array(block)]))
    cands = np.vstack(cands)
    gap = reach_many(z1, cands) - reach_many(z2, cands)
    worst = int(np.argmax(np.abs(gap)))
    # the side with the larger support at the best direction is farthest there
    g = (z1 if gap[worst] >= 0.0 else z2).generators
    far = g[g @ cands[worst] > 0.0].sum(axis=0)
    return HausdorffResult(float(abs(gap[worst])), "exact", witness_point=far)


def _facet_vertices(rows: np.ndarray) -> np.ndarray:
    """Cube-surface points where k hyperplanes meet n - k facets: for each
    k-subset A in ``rows`` (subsets, k, n), k free coordinates R (``order``
    lists R, then the rest F) and signs s, u_F = s and A_R u_R = -A_F s,
    kept when ||u_R||_inf <= 1; ordered by R, subset, s; none if singular."""
    _, k, n = rows.shape
    signs = sign_vectors(n - k)
    order = np.array([r + tuple(j for j in range(n) if j not in r)
                      for r in combinations(range(n), k)])
    # (R, subset, k, .) blocks, one batched solve for all of them
    a_r, a_f = np.split(rows[:, :, order].transpose(2, 0, 1, 3), [k], axis=3)
    x = np.full(a_f.shape, np.nan)
    ok = np.linalg.det(a_r) != 0.0
    x[ok] = np.linalg.solve(a_r[ok], -a_f[ok])
    u_r = x @ signs.T
    r, c, p = np.nonzero(np.abs(u_r).max(axis=2) <= 1.0)
    # rows come out in R, F order; argsort(order) puts coordinates back
    return np.take_along_axis(np.hstack([u_r[r, c, :, p], signs[p]]), np.argsort(order)[r], axis=1)


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
