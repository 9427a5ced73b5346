"""Zonotope geometry: reach functions, skeletons, vertices, containment,
inclusion, and 1-norm Hausdorff distances.

A zonotope is the set ``{sum_i t_i g_i : t_i in [0, 1]}`` spanned by its
generator list; it always contains the origin and the generator total and is
centrally symmetric about half the total.  The reach (support) function of a
zonotope evaluates in closed form as ``sum_i max(0, <d, g_i>)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations, islice
from math import comb
from typing import Optional

import numpy as np

from .errors import Exact2dOnPlaneOnly, SizeGuard, TooManyAtoms
from .measures import VectorMeasure, _frozen_rows, _nonzero_rows, _rows, _same_dimension, _Value
from .sampling import DIRECTION_COORDINATE_LIMIT, _probe_directions, sign_vectors

SKELETON_ATOM_LIMIT = 20
POINT_SET_LIMIT = 1 << 20

# float64 elements per temporary block of the dense kernels (512 KB), so a
# block and its reductions stay in cache
_BLOCK = 1 << 16
_ASCENT_PIVOTS = 2  # steps of _ascent_distance per row of [I; G], a fixed cap
# rows per block of the point-set kd-tree pass, of which only the first is
# queried before its nearest point bounds the others; also the first block
# of a paired window scan
_LEAD_BLOCK = 64
# the first block of an unpaired window scan: 64 rows of the hausdorff
# suite's 10 000-point segment passes open windows past the budget, and the
# unpaired passes of small verify at seeds 0-9 scan in 109 ms at 8 rows,
# 113-136 ms at 4, 16 and 32 (warm, 2 vCPUs)
_UNPAIRED_LEAD_BLOCK = 8
# scanned pairs per point of both sets, for each directed pass: a pair takes
# 11 ns in n = 3 and the kd-tree route 220-830 ns a point (2^14 points,
# 2 vCPUs), and a paired first block whose windows average half the other
# set is refused.  Unpaired sets get 2^18 more pairs a pass, and scan only
# while N1 + N2 < 2^15: above it, random clouds in n = 2, 3 scan 4-42 ms
# slower than the kd-trees, whose scipy import (0.18 s cold) the scan saves
_SCAN_BUDGET = 16
_UNPAIRED_SCAN_LIMIT, _UNPAIRED_SCAN = 1 << 15, 1 << 18


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call (slow import)."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def _check_tol(tol) -> None:
    """The one tolerance check: ValueError unless ``tol`` is finite and > 0."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def within_tolerance(lhs, rhs, atol: float = 1e-9, rtol: float = 1e-9) -> bool:
    """Tolerance policy: |lhs - rhs| <= atol + rtol * max(|lhs|, |rhs|)."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    gap = np.abs(lhs - rhs)
    return bool(np.all(gap <= atol + rtol * np.maximum(np.abs(lhs), np.abs(rhs))))


@dataclass(frozen=True, eq=False)
class Zonotope(_Value):
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
        return self.generators.sum(axis=0)


@dataclass(frozen=True, eq=False)
class SkeletonPointSet(_Value):
    """All subset sums of a measure's atoms, duplicates collapsed; they and
    the total are frozen like generator rows.  ``_subset_rows`` is no field."""

    dimension: int
    points: np.ndarray
    total: np.ndarray
    _subset_rows = None

    def __post_init__(self) -> None:
        points = _frozen_rows(self.points, self.dimension, "point array")
        total = _frozen_rows(np.reshape(self.total, (1, -1)), self.dimension, "total")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "total", total[0])

    @property
    def point_count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class HausdorffResult:
    """1-norm Hausdorff distance with the argument attaining it.

    ``mode`` is "exact" when the value is the true distance and "sampled"
    when it is a maximum over finitely many probe directions (a certified
    lower bound).  Exact n >= 3 results (closed form, no LP) carry a
    farthest subset sum as ``witness_point``; :func:`hausdorff_points`
    carries the point of either set farthest from the other.
    """

    distance: float
    mode: str
    witness_direction: Optional[np.ndarray] = None
    witness_point: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Containment:
    """Point-membership verdict with a certificate either way: inside,
    coefficients and their residual; outside, a witness d and the distance,
    the closed-form margin <d, p> - reach(z, d) unless the LP decided."""

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
    return Zonotope(m.dimension, m.atoms[_nonzero_rows(m.atoms)])


def reach(z: Zonotope, direction) -> float:
    """Support value sup{<d, x> : x in hull} = sum_i max(0, <d, g_i>)."""
    d = _rows(np.reshape(direction, (1, -1)), z.dimension, "direction")[0]
    return float(np.maximum(z.generators @ d, 0.0).sum())


def reach_many(z: Zonotope, directions) -> np.ndarray:
    """Reach values for all direction rows.

    In the plane the k rows are answered by :class:`ZonogonSupport` in
    O((m + k) log m), each row on its own.  Other dimensions evaluate the
    closed form in blocks of ~``_BLOCK`` dot products, O(k m), whose BLAS
    kernel depends on the batch shape, and so may a row's last bits.
    """
    D = _rows(np.atleast_2d(directions), z.dimension, "directions")
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
    """Enumerate the 2^m subset sums of the measure's atoms, lexicographic
    and without duplicates, so sorted on the first coordinate for the window
    scan of :func:`hausdorff_points`; both guards fire before the 2^m x n
    sums are allocated.  Subset S (atom j in S iff bit j of S is set) sums
    to point ``_subset_rows[S]`` (read-only int32)."""
    if m.atom_count > SKELETON_ATOM_LIMIT:
        raise TooManyAtoms(
            f"skeleton enumeration capped at {SKELETON_ATOM_LIMIT} atoms, "
            f"got {m.atom_count}"
        )
    if (1 << m.atom_count) * m.dimension > DIRECTION_COORDINATE_LIMIT:
        raise SizeGuard(
            f"skeletons capped at {DIRECTION_COORDINATE_LIMIT} coordinates, "
            f"got 2^{m.atom_count} x {m.dimension}"
        )
    # rows 2^j ... 2^(j+1) - 1 are the first 2^j plus atom j; from +0.0 no -0.0 arises
    sums = np.zeros((1 << m.atom_count, m.dimension))
    for j, atom in enumerate(m.atoms):
        np.add(sums[: 1 << j], atom, out=sums[1 << j : 2 << j])
    # one lexsort for at most 2^8 sums, or when the first 2^8 tie on the first
    # coordinate (dyadic atoms); else one key, and a lexsort in subset order,
    # whose runs it keeps, where that key ties
    if sums.shape[0] <= 256 or np.unique(sums[:256, 0]).size < 256:
        order = np.lexsort(sums.T[::-1])
    else:
        order = np.argsort(sums[:, 0])
        if (tied := np.diff(sums[order, 0]) == 0.0).any():
            at = np.flatnonzero(np.append(tied, False) | np.insert(tied, 0, False))
            sub = np.sort(order[at])
            order[at] = sub[np.lexsort(sums[sub].T[::-1])]
    sums = sums[order]
    fresh = np.concatenate([[True], (sums[1:] != sums[:-1]).any(axis=1)])
    rows = np.empty(order.shape[0], dtype=np.int32)
    rows[order] = np.cumsum(fresh, dtype=np.int32) - 1
    rows.flags.writeable = False
    skeleton = SkeletonPointSet(m.dimension, sums[fresh], m.total())
    object.__setattr__(skeleton, "_subset_rows", rows)
    return skeleton


# ---------------------------------------------------------------------------
# planar realization


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``: that merge sort below 128 keys,
    where it wins on any keys; else numpy's default argsort, a SIMD
    quicksort where the CPU has one and several times faster than the merge
    sort from about 150 distinct or 1 000 tied keys on: each run of equal
    keys (the NaNs, sorted last, are one run) is put back in index order by
    one int64 sort of run * m + index."""
    if keys.shape[0] < 128:
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys)
    s = keys[order]
    tie = s[1:] == s[:-1]
    tie |= np.isnan(s[:-1])  # only NaNs follow a NaN
    if tie.any():
        run = np.concatenate([[0], np.cumsum(~tie)]) * keys.shape[0]
        order = np.sort(run + order) - run
    return order


def _sorted_generators_2d(generators: np.ndarray):
    """Upper-half-plane form of a 2-D generator list, sorted by polar angle.

    Drops zero rows, flips generators into {y > 0} union {y = 0, x > 0}
    (accumulating the flip offset) and sorts them stably by angle with
    :func:`_stable_order`.  Returns ``(g, angles, offset)`` with ``angles``
    nondecreasing in [0, pi).
    """
    keep = _nonzero_rows(generators)
    g = generators if keep.all() else generators[keep]
    flip = (g[:, 1] < 0) | ((g[:, 1] == 0) & (g[:, 0] < 0))
    offset = g[flip].sum(axis=0) if flip.any() else np.zeros(2)
    g = np.where(flip[:, None], -g, g)
    ang = np.arctan2(g[:, 1], g[:, 0])
    order = _stable_order(ang)
    return g[order], ang[order], offset


def _merged_generators_2d(g: np.ndarray, ang: np.ndarray):
    """Sum the runs of sorted generators whose successive angles differ by at
    most 1e-12; the merged angles are strictly increasing."""
    return np.add.reduceat(g, np.flatnonzero(np.diff(ang, prepend=-1.0) > 1e-12), axis=0)


def zonogon_vertices(z: Zonotope) -> np.ndarray:
    """Counterclockwise vertex list of a 2-D zonotope.

    Degenerate results are a two-point segment or the single point at the
    origin.  The support function of the returned polygon equals the reach
    of ``z`` in every direction.
    """
    if z.dimension != 2:
        raise Exact2dOnPlaneOnly("vertex enumeration is planar only")
    g, ang, offset = _sorted_generators_2d(z.generators)
    return _walk_2d(offset, _merged_generators_2d(g, ang))


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
    v = _rows(vertices, 2, "vertices")
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
    by angle once.  Queries read the counterclockwise walk over every
    nonzero generator unmerged, so that the support agrees with
    sum_i max(0, <q, g_i>) to within rounding even on chains of nearly
    parallel generators that :func:`zonogon_vertices` merges into one edge.

    Queries search slope keys: ``slope_keys[k] = -g_k1 / g_k2`` over the
    same M sorted generators (-inf on the x axis), made nondecreasing where
    the angle sort and the division disagree in the last ulp.  A query q is
    given by its slope q_2 / q_1 and the sign bit of q_1, which need no
    ``arctan2`` and keep their order when both coordinates are scaled
    (:meth:`extreme_vertices`).

    Construction costs O(m log m) and a batch of k queries O(k log m).
    ``reach_many`` in the plane (so the exact planar inclusion), the exact
    planar Hausdorff distance and ``product_reach_many`` all evaluate support
    through this class, axis queries included, by :meth:`extreme_vertices`.
    """

    def __init__(self, generators) -> None:
        g, _, offset = _sorted_generators_2d(_rows(generators, 2, "generators"))
        self._generators = g  # the exact planar Hausdorff route probes their normals
        keys = np.full(g.shape[0], -np.inf)
        with np.errstate(over="ignore"):
            np.divide(-g[:, 0], g[:, 1], out=keys, where=g[:, 1] > 0.0)
        self.slope_keys = np.maximum.accumulate(keys)
        # the query walk closed by its first vertex, one array per coordinate
        self._walk_x, self._walk_y = (np.append(c, c[0]) for c in _walk_2d(offset, g).T)

    def eval(self, queries) -> np.ndarray:
        """Support values for query direction rows (k, 2).

        Each row takes the vertex of :meth:`extreme_vertices`, the one M
        further on when q_1 has its sign bit set.  The sign bit settles
        q_1 = +-0.0 (slopes +-inf, or NaN for the zero query, which any
        vertex answers with 0) and subnormal q_1 without a special case.
        Where q_2 / q_1 over- or underflows, 0 clamps a rounding below it.
        """
        (h,) = _supports_2d([self], _rows(np.atleast_2d(queries), 2, "queries"))
        return h

    def extreme_vertices(self, slopes: np.ndarray, flipped):
        """Coordinates ``(x, y)`` of an extreme vertex for each query q in
        the array of slopes q_2 / q_1, where q_1 has its sign bit clear
        except at ``flipped``, a slice or mask of the last axis.

        The generators before ``searchsorted(slope_keys, q_2 / q_1)`` are
        those with <q, g> > 0 when q_1 > 0, so that vertex is extreme; when
        q_1 < 0 they are the ones with <q, g> < 0, and the extreme vertex is
        the one M further on, on the return half of the walk.
        """
        j = np.searchsorted(self.slope_keys, slopes)
        j[..., flipped] += self.slope_keys.shape[0]
        return np.take(self._walk_x, j), np.take(self._walk_y, j)


def _supports_2d(supports, q: np.ndarray):
    """:meth:`ZonogonSupport.eval` of each of ``supports`` at the validated
    query rows ``q``, whose slopes and sign bits are computed once."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slopes, flipped = q[:, 1] / q[:, 0], np.signbit(q[:, 0])
    for s in supports:
        x, y = s.extreme_vertices(slopes, flipped)
        h = x * q[:, 0] + y * q[:, 1]
        yield np.where(h < 0.0, 0.0, h)


# ---------------------------------------------------------------------------
# containment (linear feasibility)


def _scaled(z: Zonotope, p: np.ndarray):
    """(G times 2**-e, p times 2**-e, e), exact, for e the binary exponent of
    the largest |coordinate| of ``z`` and ``p``: the LP and the closed forms
    run on this data, as HiGHS fails near 1e100; one scaling per point."""
    peak = max(np.abs(z.generators).max(initial=0.0), np.abs(p).max(initial=0.0))
    e = int(np.frexp(peak)[1])
    return np.ldexp(z.generators, -e), np.ldexp(p, -e), e


def _lp_point_distance(z: Zonotope, p: np.ndarray):
    """1-norm distance from ``p`` to the zonotope, coefficients and duals,
    where :func:`_ascent_distance` does not certify.

    Solves  min sum(s+ + s-)  s.t.  G^T t + s+ - s- = p,  t in [0,1]^m.
    Its equality duals, clipped to [-1, 1], maximize <y, p> - reach(z, y).
    """
    m, n = z.generator_count, z.dimension
    g, q, e = _scaled(z, p)
    c = np.concatenate([np.zeros(m), np.ones(2 * n)])
    a_eq = np.hstack([g.T, np.eye(n), -np.eye(n)])
    bounds = [(0.0, 1.0)] * m + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=a_eq, b_eq=q, bounds=bounds, method="highs")
    if res.status != 0:  # pragma: no cover - the program is always feasible
        raise RuntimeError(f"distance LP failed: {res.message}")
    dual = np.clip(res.eqlin.marginals, -1.0, 1.0)
    return float(np.ldexp(res.fun, e)), np.clip(res.x[:m], 0.0, 1.0), dual


def _ascent_distance(g: np.ndarray, q: np.ndarray, e: int):
    """Maximize phi(d) = <d, q> - reach(g, d), the 1-norm distance, over
    ||d||_inf <= 1 by a piecewise-linear simplex walk (Fourer 1985) on the
    :func:`_scaled` data, from the corner sign(q - sum g / 2).  A vertex d
    solves its n active rows B of [I; G], facets d_i = s_i and hyperplanes
    <g_j, d> = 0; other g_j take t_j = 1 above, 0 below, and y B = q -
    sum t_j g_j.  A row with y_j outside [0, 1], or y_i s_i < 0, leaves
    (largest gain first, the smallest index once phi stalls: Bland 1977);
    the step ends at a facet or where phi's slope, less |<g_j, v>| per
    hyperplane crossed, turns <= 0.  lo = phi(d) and hi = ||t^T G - q||_1,
    t_j = y_j clipped to [0, 1] on the active hyperplanes, bound the
    distance (weak duality); each sums at most m + n + 1 terms no larger
    than mass + ||q||_1 (|d_i| <= 1), so rounds by E = (m + n + 2) u (mass +
    ||q||_1) at most, u = 2**-53.  *Certified*: hi - lo <= 2E, with lo
    within 3E of the distance; returns (d, t, lo, hi), lo and hi times 2**e.
    None (for the LP) if no row can leave first, or after
    ``_ASCENT_PIVOTS * (m + n)`` steps.  A step: one n x n inverse, five
    products, one lexsort and the n-sized pivot choice on Python floats."""
    m, n = g.shape
    rows = np.vstack([np.eye(n), g])  # the facets are rows 0 ... n - 1
    # |<row, x>| up to this times ||x||_inf is rounding: the row is on x's hyperplane
    noise = 2.0**-40 * np.abs(rows).sum(axis=1)
    # the right-hand sides s_i of the active rows, in act's order (0 on a hyperplane)
    rhs = np.where(q >= 0.5 * g.sum(axis=0), 1.0, -1.0).tolist()
    act, t, best = np.arange(n), np.zeros(n + m), -np.inf
    slack = 2 * (m + n + 2) * 2.0**-53 * (np.abs(g).sum() + np.abs(q).sum())
    with np.errstate(all="ignore"):
        for _ in range(_ASCENT_PIVOTS * (m + n)):
            try:
                inv = np.linalg.inv(rows[act])
            except np.linalg.LinAlgError:
                return None
            # np.clip's bits, -0.0 and NaN included, with the bound first
            d = np.minimum(np.maximum(-1.0, inv @ rhs), 1.0)
            a = rows @ d
            a[np.abs(a) <= noise] = 0.0
            # t_j = 1 above the hyperplane, 0 below; through d, t_j keeps its side
            t = np.where(a != 0.0, a > 0.0, t > 0.5) * 1.0
            t[act] = 0.0
            y = (q - t[n:] @ g) @ inv
            t[act] = np.minimum(np.maximum(0.0, y), 1.0)
            lo, hi = d @ q - np.maximum(g @ d, 0.0).sum(), np.abs(t[n:] @ g - q).sum()
            if hi - lo <= slack:
                return d, t[n:], float(np.ldexp(lo, e)), float(np.ldexp(hi, e))
            ids, ys = act.tolist(), y.tolist()
            gain = [max(v - 1.0, -v) if i >= n else -s * v for i, s, v in zip(ids, rhs, ys)]
            if not (rise := [k for k, v in enumerate(gain) if v > 2.0**-40]):
                return None
            if lo > best:  # np.argmax(gain): the first NaN, else the first largest
                k = max(range(n), key=lambda i: (gain[i] != gain[i], gain[i]))
            else:  # Bland: the rising row of least index
                k = min(rise, key=ids.__getitem__)
            best, leave = max(best, lo), ids[k]
            sigma = -rhs[k] if leave < n else (1.0 if ys[k] > 1.0 else -1.0)
            t[leave] = sigma > 0.0
            b = sigma * (rows @ (col := inv[:, k]))
            b[np.abs(b) <= noise * np.abs(col).max()] = 0.0
            cross = np.where(t > 0.5, b < 0.0, b > 0.0)
            cross[:n] = b[:n] != 0.0
            # of the active rows, only the leaving one may cross
            keep, cross[act] = cross[leave], False
            cross[leave] = keep
            idx = cross.nonzero()[0]
            a, b, side = a[idx], b[idx], idx < n
            tau = np.where(side, (np.sign(b) - a) / b, np.maximum(-a / b, 0.0))
            order = np.lexsort((idx, tau))
            drop = np.where(side, np.inf, np.abs(b))[order]
            # np.argmax(np.cumsum(drop) >= gain[k]): the cumsum adds in order
            j = next((j for j, s in enumerate(accumulate(drop.tolist())) if s >= gain[k]), 0)
            t[idx[order[:j]]] = 1.0 - t[idx[order[:j]]]
            act[k] = idx[order[j]]
            rhs[k] = float(np.sign(b[order[j]])) if act[k] < n else 0.0
    return None


def separating_direction(z: Zonotope, p: np.ndarray):
    """(d, distance): d maximizes <d, p> - reach(z, d) over ||d||_inf <= 1,
    and the optimum is the 1-norm distance from ``p`` to the zonotope.  The
    certified :func:`_ascent_distance` gives d and its closed-form margin;
    else the clipped duals and objective of :func:`_lp_point_distance`."""
    p = _rows(np.reshape(p, (1, -1)), z.dimension, "point", mass=True)[0]
    if (ascent := _ascent_distance(*_scaled(z, p))) is not None:
        return ascent[0], ascent[2]
    dist, _, witness = _lp_point_distance(z, p)
    return witness, dist


def _central_containment(z: Zonotope, p: np.ndarray, tol: float, scaled) -> Optional[Containment]:
    """Inside certificate from the centre, on the data ``scaled`` (g, q, e)
    of :func:`_scaled`: the minimum-norm step t = 1/2 + g solve(g^T g,
    q - g^T 1/2) has t^T g = q.  Containment(True, t, None, residual) when t
    lies in [0, 1]^m and misses p by at most ``tol``; None (for the ascent)
    otherwise, also for a singular Gram matrix (a flat hull, or m < n).  A
    proof of inside, never of outside."""
    g, q, _ = scaled
    try:
        # a nearly singular Gram matrix can overflow the step; t then fails the box
        with np.errstate(over="ignore", invalid="ignore"):
            t = 0.5 + g @ np.linalg.solve(g.T @ g, q - 0.5 * g.sum(axis=0))
    except np.linalg.LinAlgError:
        return None
    if not (t.min() >= 0.0 and t.max() <= 1.0):
        return None
    residual = float(np.abs(t @ z.generators - p).sum())
    return Containment(True, t, None, residual) if residual <= tol else None


def contains_point(z: Zonotope, point, tol: float = 1e-9) -> Containment:
    """Decide membership of a point in the hull.

    Within ``tol`` of the hull is inside, with coefficients t in [0,1]^m
    and their residual ||t^T G - p||_1 as ``distance``; else the distance
    and a witness d, <d, p> > reach(z, d) + tol.  The routes, the same at
    every size, in order: :func:`_central_containment`, which proves inside
    only; :func:`_ascent_distance`, outside by a certified margin over
    ``tol`` or inside by a residual up to it; else the distance LP
    :func:`_lp_point_distance`, its t or its clipped dual.  So an outside
    witness is the direction of :func:`separating_direction`.
    """
    p = _rows(np.reshape(point, (1, -1)), z.dimension, "point", mass=True)[0]
    _check_tol(tol)
    m = z.generator_count
    # 0 and the generator total are always in the hull; keep their canonical
    # certificates instead of whatever vertex the solver would report.
    if np.abs(p).sum() <= tol:
        return Containment(True, np.zeros(m), None, float(np.abs(p).sum()))
    gap_total = np.abs(p - z.total()).sum()
    if gap_total <= tol:
        return Containment(True, np.ones(m), None, float(gap_total))
    if (verdict := _central_containment(z, p, tol, scaled := _scaled(z, p))) is not None:
        return verdict
    if (ascent := _ascent_distance(*scaled)) is not None:
        d, t, lo, hi = ascent
        if lo > tol:
            return Containment(False, None, d, lo)
        if hi <= tol:
            return Containment(True, t, None, hi)
    dist, lam, witness = _lp_point_distance(z, p)
    if dist <= tol:
        return Containment(True, lam, None, float(np.abs(lam @ z.generators - p).sum()))
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

    sampled (n < 20): compares reach on :func:`sampling._probe_directions`,
    all sign vectors plus ``dirs`` seeded ones.  A violating direction
    certifies exclusion; otherwise the verdict is only "no_violation_found".
    """
    _same_dimension("inclusion across dimensions", inner.dimension, outer.dimension)
    _check_tol(tol)
    n = inner.dimension
    if mode == "exact2d":
        if n != 2:
            raise Exact2dOnPlaneOnly("exact2d inclusion needs dimension 2")
        directions = _outer_normals_2d(outer)
    elif mode == "sampled":
        directions = _probe_directions(n, seed, "includes.sampled", dirs)
    else:
        raise ValueError(f"unknown inclusion mode {mode!r}")
    gap = reach_many(inner, directions) - reach_many(outer, directions)
    worst = int(np.argmax(gap))
    max_violation = float(gap[worst])
    if max_violation > tol:
        return InclusionResult("excluded", directions[worst], max_violation)
    verdict = "included" if mode == "exact2d" else "no_violation_found"
    return InclusionResult(verdict, None, max_violation)


def _outer_normals_2d(outer: Zonotope) -> np.ndarray:
    """Outward halfplane normals whose intersection is the outer zonogon:
    the perpendiculars of every nonzero generator, so that the short edges
    of a chain of nearly parallel generators keep their own normals."""
    g, angles, _ = _sorted_generators_2d(outer.generators)
    merged = _merged_generators_2d(g, angles)
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
      each side's planar normal form :class:`ZonogonSupport` in O(m log m);
    - n >= 3: exact in closed form (no LP) at the cube-surface vertices of
      each side's own arrangement (:func:`_arrangement_directions`);
    - past ``sampling.DIRECTION_COORDINATE_LIMIT`` coordinates of the
      arrangement of both sides' M nonzero generators together, at most
      sum_{k < n} C(M, k) C(n, k) 2^(n - k) (checked before allocating):
      sampled over the probes of :func:`sampling._probe_directions`
      (n < 20), reported as mode "sampled" (a lower bound).
    """
    _same_dimension("Hausdorff across dimensions", z1.dimension, z2.dimension)
    n = z1.dimension
    if n <= 2:
        return _hausdorff_2d_exact(z1, z2)
    a, b = (z.generators[_nonzero_rows(z.generators)] for z in (z1, z2))
    # facet-vertex count, bounded before any allocation like a direction set
    if _arrangement_size(len(a) + len(b), n) * n <= DIRECTION_COORDINATE_LIMIT:
        return _hausdorff_arrangement(z1, z2, a, b)
    directions = _probe_directions(n, seed, "hausdorff.sampled", dirs)
    gap = np.abs(reach_many(z1, directions) - reach_many(z2, directions))
    # scale-free comparison: homogeneity degree one in the direction
    scale = np.abs(directions).max(axis=1)
    gap = gap / scale
    worst = int(np.argmax(gap))
    return HausdorffResult(
        float(gap[worst]), "sampled", witness_direction=directions[worst] / scale[worst]
    )


def _hausdorff_2d_exact(z1: Zonotope, z2: Zonotope) -> HausdorffResult:
    """Probes +-1 in n = 1; in the plane the box corners, then perp/max of
    the generators each side's :class:`ZonogonSupport` holds, z1's then
    z2's, in angle order, so the searches meet sorted runs, then negated;
    their slopes and sign bits are computed once for both sides."""
    if z1.dimension == 1:
        cands = np.array([[1.0], [-1.0]])
        gap = np.abs(reach_many(z1, cands) - reach_many(z2, cands))
    else:
        s1, s2 = ZonogonSupport(z1.generators), ZonogonSupport(z2.generators)
        g = np.vstack([s1._generators, s2._generators])
        box = np.maximum(np.abs(g[:, 0]), np.abs(g[:, 1]))
        perp = np.column_stack([-g[:, 1] / box, g[:, 0] / box])
        cands = np.vstack([[[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], perp, -perp])
        h1, h2 = _supports_2d((s1, s2), cands)
        gap = np.abs(h1 - h2)
    worst = int(np.argmax(gap))
    return HausdorffResult(float(gap[worst]), "exact", witness_direction=cands[worst])


def _arrangement_size(m: int, n: int) -> int:
    """Bound sum_{k < n} C(m, k) C(n, k) 2^(n - k) on the directions of m
    generators, each 2^(n - k) capped at 2^32 as in :func:`sampling.sign_vectors`:
    past the limit for any n, so a huge n decides alike with no huge integer."""
    return sum(comb(m, k) * comb(n, k) << min(n - k, 32) for k in range(min(n, m + 1)))


def _arrangement_directions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sign vectors, then the cube-surface vertices where k < n
    hyperplanes <g, u> = 0 of one side's nonzero rows, ``a`` or ``b``, meet
    n - k facets u_j = +-1: C(m1, k) + C(m2, k) systems, not C(m1 + m2, k).
    On a cone of one side's fan its support is linear and the other's
    convex, so their gap peaks at one.  Unit rows keep the solves in range."""
    m, n = a.shape
    gens = np.vstack([a, b])
    gens = gens / np.abs(gens).max(axis=1, keepdims=True)
    cands = [sign_vectors(n)]
    for k in range(1, n):
        subsets = chain(combinations(range(m), k), combinations(range(m, len(gens)), k))
        # blocks of subsets whose systems span about _BLOCK coordinates
        step = max(1, _BLOCK // ((n * comb(n, k)) << (n - k)))
        while block := list(islice(subsets, step)):
            cands.append(_facet_vertices(gens[np.array(block)]))
    return np.vstack(cands)


def _hausdorff_arrangement(z1: Zonotope, z2: Zonotope, a, b) -> HausdorffResult:
    """Exact distance at :func:`_arrangement_directions` of the nonzero ``a``
    of z1 and ``b`` of z2, with a witness subset sum of the farther side."""
    cands = _arrangement_directions(a, b)
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


def _breakpoint_bounds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's least computed 1-norm to the 2n points of ``b``, sorted on
    its first coordinate, next to it in b's order on each coordinate (on a
    segment, a nearest point lies at such a breakpoint)."""
    bound = np.full(a.shape[0], np.inf)
    last = b.shape[0] - 1
    at = np.empty(a.shape[0], dtype=np.intp)
    for k, (column, x) in enumerate(zip(b.T, a.T)):
        # b is in order on its first coordinate; sorted needles search faster
        order, lead = np.argsort(column) if k else np.arange(last + 1), np.argsort(x)
        at[lead] = np.searchsorted(column[order], x[lead])
        for j in (order[np.maximum(at - 1, 0)], order[np.minimum(at, last)]):
            np.minimum(bound, sum(np.abs(y - c[j]) for y, c in zip(a.T, b.T)), out=bound)
    return bound


def _scanned_points_1norm(a, b, bound, block: int, budget: int, dist: np.ndarray, floor):
    """Fill ``dist`` as :func:`_directed_points_1norm` does, by window scans
    of ``b``, sorted on its first coordinate; return the budget left, or
    None once a block's pairs would pass it, counted before any of its
    distances.  ``bound`` u_i is a computed 1-norm from a_i to some b, or
    inf, so only rows with u_i at or above ``floor`` and the largest
    distance found can attain the maximum: blocks of the largest u_i,
    doubling from ``block`` rows.  Row i scans the b with |a_i0 - b_0| <= u_i
    (ends rounded): a float sum of nonnegative terms is at least each term,
    and rounding skips no float, so the window holds every b nearer than u_i.
    It sums |a_i0 - b_0| + |a_i1 - b_1| + ... in coordinate order, as
    ``cKDTree(b).query(a_i, p=1)`` does, so the least of u_i and its sums is
    that query's value."""
    rows = np.flatnonzero(bound >= floor)
    while rows.size:
        if rows.size > block:
            rows = rows[np.argpartition(bound[rows], -block)[-block:]]
        lo = np.searchsorted(b[:, 0], a[rows, 0] - bound[rows], "left")
        width = np.searchsorted(b[:, 0], a[rows, 0] + bound[rows], "right") - lo
        ends = np.cumsum(width)
        if ends[-1] > budget:
            return None
        budget, block = budget - ends[-1], 2 * block
        dist[rows] = bound[rows]
        # whole rows in blocks of about _BLOCK pairs
        cuts = np.searchsorted(ends, np.arange(_BLOCK, ends[-1], _BLOCK))
        for r in np.split(np.arange(rows.size), np.unique(cuts[cuts > 0])):
            w = width[r]
            start = np.cumsum(w) - w
            j = np.arange(start[-1] + w[-1]) + np.repeat(lo[r] - start, w)
            sums = sum(np.abs(column[j] - np.repeat(x, w)) for x, column in zip(a[rows[r]].T, b.T))
            i, start = rows[r[w > 0]], start[w > 0]  # an empty window leaves u_i
            dist[i] = np.minimum(dist[i], np.minimum.reduceat(sums, start))
        rows = np.flatnonzero((dist == -np.inf) & (bound >= max(dist.max(), floor)))
    return int(budget)


def _directed_points_1norm(a: np.ndarray, tree_b, order: np.ndarray, bound, dist, floor):
    """Fill ``dist`` with ``tree_b.query(a, p=1)``'s 1-norm distances, byte
    for byte, at every row of ``a`` that can attain their maximum, if that
    is at least ``floor``, and is still -inf (a window scan may have set
    some), and -inf at the others.  ``order`` (the leaf order of a kd-tree
    over ``a``) is cut into blocks of ``_LEAD_BLOCK``; the first row of each
    is queried, and its nearest point of B (any point, if none lies at a
    finite distance) bounds every row of the block by their computed 1-norm.
    The rows whose bound is below ``best``, the larger of ``floor`` and the
    largest distance known, are settled; the others are queried within
    radius ``best``, and in full where nothing lies within it."""
    first = order[::_LEAD_BLOCK]
    dist[first], near = tree_b.query(a[first], p=1)
    anchor = np.empty(len(a), dtype=np.intp)
    anchor[order] = np.repeat(np.minimum(near, tree_b.n - 1), _LEAD_BLOCK)[: len(a)]
    bound = np.minimum(bound, sum(np.abs(x - y[anchor]) for x, y in zip(a.T, tree_b.data.T)))
    best = max(dist.max(), floor)
    rest = np.flatnonzero((dist == -np.inf) & (bound >= best))
    d_rest = tree_b.query(a[rest], p=1, distance_upper_bound=best)[0]
    far = np.isinf(d_rest)
    d_rest[far] = tree_b.query(a[rest[far]], p=1)[0]
    dist[rest] = d_rest


@np.errstate(over="ignore")  # a distance may overflow to inf
def hausdorff_points(p1: SkeletonPointSet, p2: SkeletonPointSet) -> HausdorffResult:
    """Exact 1-norm Hausdorff distance between finite point sets.

    A directed pass settles the rows whose bound u_i, a computed 1-norm to
    some point of the other set, is below the largest distance found.  For
    two skeletons of 2^m subsets, paired by subset S (:func:`skeleton_points`),
    u_i is the least d_S = ||x_S - y_S||_1 over the subsets of row i; other
    sets take :func:`_breakpoint_bounds` in a pass that scans, else inf.
    Passes scan windows of the other set (:func:`_scanned_points_1norm`)
    within ``_SCAN_BUDGET`` pairs per point of both sets, unpaired sets
    ``_UNPAIRED_SCAN`` more and only while N1 + N2 < ``_UNPAIRED_SCAN_LIMIT``.
    A pass the budget stops, or that does not scan, and every pass after it
    take one unbalanced kd-tree per set (:func:`_directed_points_1norm`),
    the only importers of ``scipy.spatial``.  Each pass's floor is
    ``dist[0].max()``, -inf before the first pass and its maximum after: no
    row below it is the farthest, as ties go to the first pass.  Distance and ``witness_point`` are those of a full kd-tree
    query of every row, the witness being the first row in input order
    attaining it.
    """
    _same_dimension("Hausdorff across dimensions", p1.dimension, p2.dimension)
    if max(p1.point_count, p2.point_count) > POINT_SET_LIMIT:
        raise SizeGuard(f"point sets capped at {POINT_SET_LIMIT} points")
    if p1.point_count == 0 or p2.point_count == 0:
        if p1.point_count or p2.point_count:
            raise SizeGuard("Hausdorff distance against an empty point set")
        return HausdorffResult(0.0, "exact")
    a, (r1, r2) = (p1.points, p2.points), (p1._subset_rows, p2._subset_rows)
    dist = [np.full(len(x), -np.inf) for x in a]
    bound = [np.full(len(x), np.inf) for x in a]
    # b: each set as the other set's pass scans it, sorted on its first
    # coordinate (skeletons already are), or None where no pass scans
    size = len(a[0]) + len(a[1])
    b, budget = None, _SCAN_BUDGET * size
    paired = r1 is not None and r2 is not None and r1.shape == r2.shape
    if paired:
        pair = sum(np.abs(x[r1] - y[r2]) for x, y in zip(a[0].T, a[1].T))
        for u, rows in zip(bound, (r1, r2)):
            np.minimum.at(u, rows, pair)
        b, block = a, _LEAD_BLOCK
    elif size < _UNPAIRED_SCAN_LIMIT:
        b, block = [p[np.argsort(p[:, 0])] for p in a], _UNPAIRED_LEAD_BLOCK
        budget += _UNPAIRED_SCAN
    # directed passes the window scan finished; the kd-trees, built for both
    # sets, take the rest
    scanned = 0
    while scanned < 2 and b is not None:
        if not paired:
            bound[scanned] = _breakpoint_bounds(a[scanned], b[1 - scanned])
        if _scanned_points_1norm(a[scanned], b[1 - scanned], bound[scanned], block,
                                 budget, dist[scanned], dist[0].max()) is None:
            break
        scanned += 1
    if scanned < 2:
        from scipy.spatial import cKDTree

        # scipy's default balanced, compact trees took 8-22 % longer on the
        # point-set calls of a small verify that build them (BENCH_30.json)
        trees = [cKDTree(p, balanced_tree=False, compact_nodes=False) for p in a]
        for k in range(scanned, 2):
            _directed_points_1norm(a[k], trees[1 - k], trees[k].indices, bound[k], dist[k],
                                   dist[0].max())
    worst = [int(np.argmax(d)) for d in dist]
    k = 0 if dist[0][worst[0]] >= dist[1][worst[1]] else 1
    return HausdorffResult(float(dist[k][worst[k]]), "exact", witness_point=a[k][worst[k]])
