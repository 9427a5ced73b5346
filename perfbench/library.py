"""The two library workloads, ``planar`` and ``spatial``.

Each tier instance is a job set of four jobs.  A job is a ``timed``
callable that does only the library calls being measured and returns
their outputs, plus a ``check`` that inspects those outputs outside the
timed region and returns a list of problems (empty when correct).  The
checks recompute what they can with plain numpy, from the closed-form
support function sum_i max(0, <d, g_i>), rather than through the code
being timed.

Inputs come from ``numpy.random.SeedSequence([seed, workload, tier,
instance])``; the program under test never sees the seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lorenz_hulls as lh
from lorenz_hulls import discretization as disc

PLANAR_TIERS = (1000, 3162, 10000)
SPATIAL_TIERS = (4, 7, 10)
# instances per tier in one timed pass: every tier costs several seconds, and
# the cheap tiers take their median over many inputs
INSTANCES = (10, 4, 1)
PRODUCT_GRID = 512
PRODUCT_LEVELS = 3
SAMPLED_DIRS = 1000
SKELETON_EXTRA_ATOMS = 4
# the warm-up job set draws its inputs from an instance index no pass uses
WARM_UP_INDEX = 1000


@dataclass
class Job:
    name: str
    timed: Callable[[], object]
    check: Callable[[object], list]


def rng_for(seed: int, workload: str, tier: int, index: int) -> np.random.Generator:
    key = zlib.crc32(workload.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, key, tier, index]))


def closed_reach(generators: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Support values sum_i max(0, <d, g_i>), chunked to bound memory."""
    g = np.asarray(generators, dtype=np.float64)
    d = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    out = np.empty(d.shape[0])
    step = max(1, 2_000_000 // max(g.shape[0], 1))
    for i in range(0, d.shape[0], step):
        out[i : i + step] = np.maximum(d[i : i + step] @ g.T, 0.0).sum(axis=1)
    return out


def classical_gini(incomes: np.ndarray) -> float:
    """Gini index as the pairwise mean difference sum_ij |x_i - x_j| / (2 k^2 mean).

    Computed through the sorted-rank identity
    sum_ij |x_i - x_j| = 2 sum_i (2i - k - 1) x_(i).
    """
    s = np.sort(incomes)
    k = s.shape[0]
    pairwise = 2.0 * np.dot(2.0 * np.arange(1, k + 1) - k - 1.0, s)
    return float(pairwise / (2.0 * k * k * s.mean()))


def lorenz_points(incomes: np.ndarray) -> np.ndarray:
    """Lorenz curve of equal-weight incomes: (i/k, cumulative share of the i smallest)."""
    s = np.sort(incomes)
    k = s.shape[0]
    return np.column_stack([np.arange(k + 1) / k, np.concatenate([[0.0], np.cumsum(s)]) / s.sum()])


def mass(generators: np.ndarray) -> float:
    return float(np.abs(generators).sum())


def inf_sphere_net(n: int, per_edge: int) -> tuple[np.ndarray, float]:
    """Grid on the boundary of the cube [-1, 1]^n and its covering radius.

    Every boundary point lies within the returned radius, in the max norm,
    of some grid point (the faces' grids include their edges).
    """
    ticks = np.linspace(-1.0, 1.0, per_edge + 1)
    rows = []
    for axis in range(n):
        face = np.stack(np.meshgrid(*([ticks] * (n - 1)), indexing="ij"), -1)
        face = face.reshape(-1, n - 1)
        for sign in (-1.0, 1.0):
            rows.append(np.insert(face, axis, sign, axis=1))
    return np.unique(np.vstack(rows), axis=0), 1.0 / per_edge


def support_gap_bounds(g1, g2, net: np.ndarray, radius: float) -> tuple[float, float]:
    """Lower and upper bounds of the 1-norm Hausdorff distance.

    The distance is the maximum of |h1(u) - h2(u)| over ||u||_inf = 1.  The
    maximum over the net is a lower bound.  Support functions are Lipschitz,
    |h(u) - h(v)| <= ||u - v||_inf * mass, so adding radius * (mass1 +
    mass2) gives an upper bound.
    """
    gap = np.abs(closed_reach(g1, net) - closed_reach(g2, net)).max()
    return float(gap), float(gap + radius * (mass(g1) + mass(g2)))


def near(got: float, want: float, rel: float = 1e-9) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(got), abs(want))


# ---------------------------------------------------------------------------
# planar


def clustered_fine_measure(rng, atoms: int, total_mass: float) -> lh.VectorMeasure:
    """Many small 2-D atoms in 40 clusters just inside grid rays.

    The shape of the product-bound acceptance criterion: each cluster sits
    half a partition cell away from every refinement level's
    representative, so the discretization error halves per level.
    """
    clusters, grid = 40, 32
    rays = rng.integers(1, grid, clusters)
    quadrant = np.where(rng.uniform(size=(clusters, 2)) < 0.5, 1.0, -1.0)
    assign = rng.integers(clusters, size=atoms)
    y1 = rays[assign] / grid + rng.uniform(1e-6, 5e-4, atoms)
    dirs = quadrant[assign] * np.column_stack([y1, 1.0 - y1])
    weights = rng.uniform(0.2, 1.0, atoms)
    weights *= total_mass / weights.sum()
    return lh.VectorMeasure(2, dirs * weights[:, None])


def _product_grid() -> np.ndarray:
    angles = (np.arange(PRODUCT_GRID) + 0.5) * (2.0 * np.pi / PRODUCT_GRID)
    grid = np.column_stack([np.cos(angles), np.sin(angles)])
    return grid / np.abs(grid).max(axis=1, keepdims=True)


def _product_bound_job(rng, m: int) -> Job:
    a = clustered_fine_measure(rng, m, float(rng.uniform(0.8, 2.0)))
    b = clustered_fine_measure(rng, m, float(rng.uniform(0.8, 2.0)))
    grid = _product_grid()
    mass1, mass2 = mass(a.atoms), mass(b.atoms)

    def timed():
        orig = lh.product_reach_many(a.atoms, lh.ZonogonSupport(lh.hull_of(b).generators), grid)
        levels = []
        for level in range(PRODUCT_LEVELS):
            params = disc.product_params(2, mass1, mass2, mass1 * mass2 / 2 ** level)
            part = disc.partition_sphere(2, params.delta)
            da = disc.discretize(a, part, params.reps)
            db = disc.discretize(b, part, params.reps)
            approx = lh.product_reach_many(
                da.atoms, lh.ZonogonSupport(lh.hull_of(db).generators), grid
            )
            levels.append((params, float(np.abs(orig - approx).max())))
        return levels

    def check(levels):
        problems = []
        previous = np.inf
        for level, (params, measured) in enumerate(levels):
            bound = (2 / params.reps ** 2 + 2 * params.delta) * mass1 * mass2
            if not measured <= bound:
                problems.append(f"level {level}: measured {measured!r} > bound {bound!r}")
            if not measured < previous:
                problems.append(f"level {level}: measured {measured!r} did not decrease")
            previous = measured
        return problems

    return Job("product_bound", timed, check)


def _random_zonogon(rng, m: int) -> lh.Zonotope:
    return lh.Zonotope(2, rng.uniform(-1.0, 1.0, (m, 2)))


def _hausdorff2d_job(rng, m: int) -> Job:
    z1, z2 = _random_zonogon(rng, m), _random_zonogon(rng, m)

    def timed():
        return lh.hausdorff_convex(z1, z2)

    def check(result):
        problems = []
        if result.mode != "exact":
            problems.append(f"mode {result.mode!r}, expected exact")
        net, radius = inf_sphere_net(2, 1024)
        lower, upper = support_gap_bounds(z1.generators, z2.generators, net, radius)
        if not lower - 1e-9 * lower <= result.distance <= upper:
            problems.append(f"distance {result.distance!r} outside [{lower!r}, {upper!r}]")
        w = np.asarray(result.witness_direction, dtype=np.float64)
        at_witness = abs(closed_reach(z1.generators, w)[0] - closed_reach(z2.generators, w)[0])
        if np.abs(w).max() > 1.0 + 1e-12 or not near(at_witness, result.distance):
            problems.append(f"witness gap {at_witness!r} != distance {result.distance!r}")
        return problems

    return Job("hausdorff2d", timed, check)


def _shrunk(rng, generators: np.ndarray) -> np.ndarray:
    """t_i g_i with t_i in [0.3, 0.9], shuffled: a hull inside the original."""
    t = rng.uniform(0.3, 0.9, generators.shape[0])
    return (t[:, None] * generators)[rng.permutation(generators.shape[0])]


def _include2d_job(rng, m: int) -> Job:
    outer = _random_zonogon(rng, m)
    inner = lh.Zonotope(2, _shrunk(rng, outer.generators))

    def timed():
        return (
            lh.includes(inner, outer, "exact2d"),
            lh.includes(outer, inner, "exact2d"),
        )

    def check(results):
        nested, swapped = results
        problems = []
        if nested.verdict != "included":
            problems.append(f"nested pair verdict {nested.verdict!r}")
        if swapped.verdict != "excluded" or swapped.witness is None:
            problems.append(f"swapped pair verdict {swapped.verdict!r}")
        else:
            d = swapped.witness
            excess = closed_reach(outer.generators, d)[0] - closed_reach(inner.generators, d)[0]
            if not excess > 1e-9:
                problems.append(f"swapped witness violates support by only {excess!r}")
        return problems

    return Job("include2d", timed, check)


def _split_and_permute(rng, atoms: np.ndarray) -> np.ndarray:
    """Split every other atom in two positive parts and shuffle all rows."""
    split = np.arange(atoms.shape[0]) % 2 == 0
    frac = rng.uniform(0.1, 0.9, int(split.sum()))[:, None]
    parts = np.vstack([atoms[~split], frac * atoms[split], (1.0 - frac) * atoms[split]])
    return parts[rng.permutation(parts.shape[0])]


def _shape2d_job(rng, m: int) -> Job:
    z = _random_zonogon(rng, m)
    reshaped = lh.Zonotope(2, _split_and_permute(rng, z.generators))
    incomes = rng.lognormal(0.0, 1.0, m)
    income = lh.VectorMeasure(2, np.column_stack([np.full(m, 1.0 / m), incomes / incomes.sum()]))

    def timed():
        return (
            lh.zonogon_vertices(z),
            lh.area_2d(z),
            lh.hull_equal(z, reshaped, "exact2d"),
            lh.gini(income),
            lh.lorenz_curve(income),
        )

    def check(results):
        vertices, area, equal, gini, curve = results
        problems = []
        x, y = vertices[:, 0], vertices[:, 1]
        shoelace = abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0
        if not near(area, shoelace, 1e-9):
            problems.append(f"area {area!r} vs shoelace {shoelace!r}")
        if not equal:
            problems.append("split/permuted reshaping reported unequal")
        classical = classical_gini(incomes)
        if not abs(gini - classical) <= 1e-9:
            problems.append(f"gini {gini!r} vs pairwise formula {classical!r}")
        want = lorenz_points(incomes)
        if curve.points.shape != want.shape or np.abs(curve.points - want).max() > 1e-9:
            problems.append("Lorenz curve differs from cumulative sorted incomes")
        return problems

    return Job("shape2d", timed, check)


def planar_instance(seed: int, tier: int, index: int) -> list[Job]:
    m = PLANAR_TIERS[tier]
    rng = rng_for(seed, "planar", tier, index)
    return [
        _product_bound_job(rng, m),
        _hausdorff2d_job(rng, m),
        _include2d_job(rng, m),
        _shape2d_job(rng, m),
    ]


# ---------------------------------------------------------------------------
# spatial


def _random_zonotope(rng, m: int, n: int) -> lh.Zonotope:
    return lh.Zonotope(n, rng.uniform(-1.0, 1.0, (m, n)))


def _hausdorff_lp_job(rng, m: int) -> Job:
    z1, z2 = _random_zonotope(rng, m, 3), _random_zonotope(rng, m, 3)
    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * 3), indexing="ij")).reshape(3, -1).T
    probes = rng.standard_normal((2000, 3))
    probes = np.vstack([signs, probes / np.abs(probes).max(axis=1, keepdims=True)])
    swapped = []

    def timed():
        return lh.hausdorff_convex(z1, z2)

    def check(result):
        problems = []
        if result.mode != "exact":
            problems.append(f"mode {result.mode!r}, expected exact")
        lower = np.abs(closed_reach(z1.generators, probes) - closed_reach(z2.generators, probes)).max()
        net, radius = inf_sphere_net(3, 24)
        _, upper = support_gap_bounds(z1.generators, z2.generators, net, radius)
        if not lower - 1e-7 <= result.distance <= upper:
            problems.append(f"distance {result.distance!r} outside [{lower!r}, {upper!r}]")
        # the reverse order solves the same number of LPs again; once per run
        if not swapped:
            swapped.append(lh.hausdorff_convex(z2, z1).distance)
        if not near(swapped[0], result.distance, 1e-7):
            problems.append(f"not symmetric: {result.distance!r} vs {swapped[0]!r}")
        return problems

    return Job("hausdorff_lp", timed, check)


def _contain_job(rng, m: int) -> Job:
    n, count = 4, 10
    measure = lh.VectorMeasure(n, rng.uniform(-1.0, 1.0, (8 * m, n)))
    g = measure.atoms
    z = lh.hull_of(measure)
    inside = rng.uniform(0.2, 0.8, (count, g.shape[0])) @ g
    # beyond the support plane of a random direction by 5% of the mass
    u = rng.standard_normal((count, n))
    center = g.sum(axis=0) / 2.0
    lift = closed_reach(g, u) + 0.05 * mass(g) - u @ center
    outside = center + (lift / (u * u).sum(axis=1))[:, None] * u

    def timed():
        return (
            [lh.contains_point(z, p) for p in inside],
            [lh.contains_point(z, p) for p in outside],
            [lh.achieve(measure, p) for p in inside],
        )

    def check(results):
        ins, outs, certs = results
        problems = []
        for i, (p, c) in enumerate(zip(inside, ins)):
            t = np.asarray(c.coefficients) if c.coefficients is not None else None
            if not c.inside or t is None:
                problems.append(f"inside point {i} reported outside")
            elif t.min() < 0.0 or t.max() > 1.0 or np.abs(t @ g - p).sum() > 1e-7:
                problems.append(f"inside point {i}: coefficients do not reconstruct it")
        for i, (p, c) in enumerate(zip(outside, outs)):
            if c.inside or c.witness is None:
                problems.append(f"outside point {i} reported inside")
            elif not np.dot(c.witness, p) > closed_reach(g, c.witness)[0] + 1e-9:
                problems.append(f"outside point {i}: witness does not separate")
        for i, (p, cert) in enumerate(zip(inside, certs)):
            t = np.asarray(cert.coefficients)
            residual = np.abs(t @ g - p).sum()
            lengths = sum(hi - lo for lo, hi in cert.intervals)
            if t.min() < 0.0 or t.max() > 1.0 or residual > 1e-7 or not near(lengths, t.sum()):
                problems.append(f"achieve certificate {i} fails re-check (residual {residual!r})")
        return problems

    return Job("contain", timed, check)


def _skeleton_job(rng, m: int) -> Job:
    atoms = rng.uniform(-1.0, 1.0, (m + SKELETON_EXTRA_ATOMS, 3))
    shift = rng.uniform(-0.01, 0.01, atoms.shape)
    base, moved = lh.VectorMeasure(3, atoms), lh.VectorMeasure(3, atoms + shift)

    def timed():
        p1, p2 = lh.skeleton_points(base), lh.skeleton_points(moved)
        return p1, p2, lh.hausdorff_points(p1, p2)

    def check(results):
        p1, p2, result = results
        problems = []
        expected = 2 ** atoms.shape[0]
        if p1.point_count != expected or p2.point_count != expected:
            problems.append(f"skeletons have {p1.point_count}/{p2.point_count} points, expected {expected}")
        # every subset sum moves by at most the summed atom perturbation
        limit = float(np.abs(shift).sum())
        if not 0.0 < result.distance <= limit:
            problems.append(f"skeleton distance {result.distance!r} exceeds {limit!r}")
        return problems

    return Job("skeleton", timed, check)


def _sampled_nd_job(rng, m: int) -> Job:
    n = 5
    h1, h2 = _random_zonotope(rng, m, n), _random_zonotope(rng, m, n)
    h1_in = lh.Zonotope(n, _shrunk(rng, h1.generators))

    def timed():
        prod = lh.lorenz_product(h1, h2)
        inner = lh.lorenz_product(h1_in, h2)
        flipped = lh.lorenz_product(h2, h1)
        return (
            prod,
            lh.includes(inner, prod, "sampled", dirs=SAMPLED_DIRS),
            lh.hull_equal(prod, flipped, "sampled", dirs=SAMPLED_DIRS),
        )

    def check(results):
        prod, inclusion, equal = results
        problems = []
        want = (h1.generators[:, None, :] * h2.generators[None, :, :]).reshape(-1, n)
        if prod.generators.shape != want.shape or not np.array_equal(prod.generators, want):
            problems.append("product generators differ from the pairwise products")
        if inclusion.verdict != "no_violation_found":
            problems.append(f"product of nested factors: verdict {inclusion.verdict!r}")
        if not equal:
            problems.append("product is not commutative under sampled equality")
        return problems

    return Job("sampled_nd", timed, check)


def spatial_instance(seed: int, tier: int, index: int) -> list[Job]:
    m = SPATIAL_TIERS[tier]
    rng = rng_for(seed, "spatial", tier, index)
    return [
        _hausdorff_lp_job(rng, m),
        _contain_job(rng, m),
        _skeleton_job(rng, m),
        _sampled_nd_job(rng, m),
    ]


INSTANCE_BUILDERS = {"planar": planar_instance, "spatial": spatial_instance}


def interleave(groups: list[list]) -> list:
    """Merge lists so that each one's items are spread evenly over the result.

    A burst of machine noise then lands on every group a little instead of
    on all the samples of one.
    """
    keyed = [((i + 0.5) / len(g), k, i) for k, g in enumerate(groups) for i in range(len(g))]
    return [groups[k][i] for _, k, i in sorted(keyed)]


def build(workload: str, seed: int) -> list[tuple[int, list[Job]]]:
    """All (tier, job set) pairs of one timed pass, tiers interleaved."""
    make = INSTANCE_BUILDERS[workload]
    return interleave([
        [(tier, make(seed, tier, index)) for index in range(count)]
        for tier, count in enumerate(INSTANCES)
    ])


def warm_up_jobs(workload: str, seed: int) -> list[Job]:
    """One tier-1 job set on inputs that no timed pass uses."""
    return INSTANCE_BUILDERS[workload](seed, 0, WARM_UP_INDEX)
