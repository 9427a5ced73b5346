"""Seeded property suites, as the rows of one table.

Each suite checks one group of library invariants on deterministically
seeded instances and returns a :class:`SuiteReport`.  :data:`SUITES` is the
table: one :class:`Suite` row per suite, in report order, holding the
suite's one-line description and its case families.  A family is a
:func:`sampling.case_rng` stream name, a full count, a small count and a
private case body.  ``Suite.__call__`` holds the only case loop: case
``index`` of a family gets the generator ``case_rng(seed, stream, index)``,
and every ``(ok, message)`` check its body yields is recorded against the
case number.  Each family numbers its cases from 0, after the cases of any
fixture family (stream ``None``, no generator) listed before it.

The ``cases=`` count of a report counts checks, not cases: a body may
yield several checks per case (the measure suite yields 3 + m_b) or stop
early (the identity suite skips its second check on colinear seeds).
Scale "full" runs the acceptance-level counts; "small" runs reduced counts
for quick checks.  All randomness flows from the suite seed through
``case_rng``, so reports are identical across runs and across the number of
worker processes that :func:`run_suites` spreads the suites over.
"""

from __future__ import annotations

import json
import time
import zlib
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field

import numpy as np

from . import discretization as disc
from .hulls import (
    SkeletonPointSet,
    Zonotope,
    ZonogonSupport,
    area_2d,
    contains_point,
    hausdorff_convex,
    hausdorff_points,
    hull_of,
    includes,
    reach,
    reach_many,
    shoelace_area,
    skeleton_points,
    within_tolerance,
    zonogon_vertices,
)
from .measures import (
    ComplexVectorMeasure,
    VectorMeasure,
    complex_embed,
    complex_coordinate_product,
    coordinate_product,
    direct_sum,
    interleaved_product,
    measure_from_json_dict,
    measure_to_json_dict,
    rn_direction,
    total_variation_mass,
)
from .ops import (
    InsertZeroAtom,
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
from .sampling import case_rng, unit_directions
from .zonoid import (
    achieve,
    density_reach_many,
    interval_realization,
    to_density,
)

RTOL = 1e-9


@dataclass(frozen=True)
class CaseFailure:
    case: int
    seed: int
    message: str


@dataclass
class SuiteReport:
    suite: str
    cases: int
    failures: list[CaseFailure] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """Deterministic text form; wall time is intentionally excluded."""
        lines = [f"suite {self.suite}: cases={self.cases} failures={len(self.failures)}"]
        for f in self.failures:
            lines.append(f"  FAIL case={f.case} seed={f.seed} {f.message}")
        return "\n".join(lines)


class Suite:
    """One row of the suite table: a name, its one-line description, and
    its case families ``(stream, full count, small count, body)``.  A body
    is called as ``body(rng, case, seed, full)`` and yields ``(ok, message)``.
    """

    def __init__(self, name: str, doc: str, *families: tuple) -> None:
        self.name, self.doc, self.families = name, doc, families

    def __call__(self, seed: int, scale: str = "small") -> SuiteReport:
        start = time.perf_counter()
        full = scale == "full"
        report = SuiteReport(self.name, 0)
        first = 0
        for stream, full_count, small_count, body in self.families:
            count = full_count if full else small_count
            for index in range(count):
                case = first + index
                rng = None if stream is None else case_rng(seed, stream, index)
                for ok, message in body(rng, case, seed, full):
                    report.cases += 1
                    if not ok:
                        report.failures.append(CaseFailure(case, seed, message))
            if stream is None:
                first += count
        report.wall_time_s = time.perf_counter() - start
        return report


def _digest(*arrays) -> str:
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return f"{crc:08x}"


def _gap(lhs, rhs) -> float:
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    return float(
        np.max(np.abs(lhs - rhs) - RTOL * np.maximum(np.abs(lhs), np.abs(rhs)))
    )


# ---------------------------------------------------------------------------
# seeded instance generation


def _random_atoms(rng, m: int, n: int, scale: float = 2.0) -> np.ndarray:
    return rng.uniform(-scale, scale, (m, n))


def _dyadic_atoms(rng, m: int, n: int, denom: int = 8, lo: int = -16, hi: int = 17) -> np.ndarray:
    """Atoms on a dyadic grid; subset sums and convex dyadic splits are exact."""
    atoms = rng.integers(lo, hi, (m, n)).astype(np.float64) / denom
    for i in range(m):
        while not np.abs(atoms[i]).sum() > 0:
            atoms[i] = rng.integers(lo, hi, n).astype(np.float64) / denom
    return atoms


def _unit_1norm_rows(rng, m: int, n: int) -> np.ndarray:
    raw = rng.standard_normal((m, n))
    norms = np.abs(raw).sum(axis=1, keepdims=True)
    bad = norms[:, 0] < 1e-12
    raw[bad] = 1.0
    norms[bad] = float(n)
    return raw / norms


def _fine_measure(
    rng, atom_count: int, mass: float, clusters: int = 40, grid: int = 32
) -> VectorMeasure:
    """Stand-in for a continuous 2-D measure: many small atoms, given mass.

    Atom directions concentrate just inside rays aligned with a base grid
    of the partition refinement ladder (the adversarial placement for
    direction bucketing: each cluster sits half a cell away from every
    level's representative), so the measured discretization error stays
    first order in the cell size and halves when the resolution doubles.
    """
    rays = rng.integers(1, grid, clusters)
    quadrant = np.where(rng.uniform(size=(clusters, 2)) < 0.5, 1.0, -1.0)
    assign = rng.integers(clusters, size=atom_count)
    y1 = rays[assign] / grid + rng.uniform(1e-6, 5e-4, atom_count)
    dirs = quadrant[assign] * np.column_stack([y1, 1.0 - y1])
    weights = rng.uniform(0.2, 1.0, atom_count)
    weights *= mass / weights.sum()
    return VectorMeasure(2, dirs * weights[:, None])


_DYADIC_FRACTIONS = (0.25, 0.375, 0.5, 0.625, 0.75)


def _colinear_pairs(atoms: np.ndarray) -> list[tuple[int, int]]:
    norms = np.abs(atoms).sum(axis=1)
    out = []
    for i in range(atoms.shape[0]):
        if norms[i] == 0:
            continue
        for j in range(i + 1, atoms.shape[0]):
            if norms[j] == 0:
                continue
            if np.abs(atoms[i] / norms[i] - atoms[j] / norms[j]).max() <= 1e-12:
                out.append((i, j))
    return out


def _perturb_hull_preserving(rng, m: VectorMeasure, steps: int) -> VectorMeasure:
    cur = m
    for _ in range(steps):
        kinds = ["permute", "insert"]
        if 1 <= cur.atom_count < 12:
            kinds.append("split")
            kinds.append("split")  # bias toward splits; they change the most
        pairs = _colinear_pairs(cur.atoms)
        if pairs:
            kinds.append("merge")
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "split":
            step = SplitAtom(
                int(rng.integers(cur.atom_count)),
                float(_DYADIC_FRACTIONS[int(rng.integers(len(_DYADIC_FRACTIONS)))]),
            )
        elif kind == "merge":
            i, j = pairs[int(rng.integers(len(pairs)))]
            step = MergeColinear(i, j)
        elif kind == "permute":
            step = Permute(tuple(int(i) for i in rng.permutation(cur.atom_count)))
        else:
            step = InsertZeroAtom(int(rng.integers(cur.atom_count + 1)))
        cur = apply_transform(cur, [step])
    return cur


def _sorted_rows(a: np.ndarray) -> np.ndarray:
    if a.shape[0] == 0:
        return a
    order = np.lexsort(a.T[::-1])
    return a[order]


def _classical_gini(incomes: np.ndarray) -> float:
    diffs = np.abs(incomes[:, None] - incomes[None, :]).sum()
    k = incomes.shape[0]
    return float(diffs / (2.0 * k * k * incomes.mean()))


def _dedupe_collinear(points: np.ndarray) -> np.ndarray:
    if points.shape[0] <= 2:
        return points
    keep = [0]
    for i in range(1, points.shape[0] - 1):
        a = points[i] - points[keep[-1]]
        b = points[i + 1] - points[i]
        if abs(a[0] * b[1] - a[1] * b[0]) > 1e-12 * max(1.0, np.abs(a).max() * np.abs(b).max()):
            keep.append(i)
    keep.append(points.shape[0] - 1)
    return points[keep]


# ---------------------------------------------------------------------------
# case bodies: each yields the (ok, message) checks of one case


def _measure_case(rng, case, seed, full):
    n = int(rng.integers(1, 5))
    a = VectorMeasure(n, _random_atoms(rng, int(rng.integers(0, 7)), n))
    b = VectorMeasure(n, _random_atoms(rng, int(rng.integers(1, 7)), n))
    tv_a, tv_b = total_variation_mass(a), total_variation_mass(b)
    tv_sum = total_variation_mass(direct_sum(a, b))
    yield within_tolerance(tv_sum, tv_a + tv_b, atol=0.0, rtol=1e-12), (
        f"digest={_digest(a.atoms, b.atoms)} total variation not additive: "
        f"{tv_sum!r} vs {tv_a + tv_b!r} (rtol=1e-12)"
    )
    prod = coordinate_product(a, b)
    tv_prod = total_variation_mass(prod)
    yield tv_prod <= tv_a * tv_b * (1.0 + 1e-9) + 1e-12, (
        f"digest={_digest(prod.atoms)} product mass {tv_prod!r} exceeds "
        f"{tv_a!r} * {tv_b!r} (rtol=1e-9)"
    )
    for i in range(b.atom_count):
        if np.abs(b.atoms[i]).sum() == 0:
            continue
        norm = float(np.abs(rn_direction(b, i)).sum())
        yield abs(norm - 1.0) <= 1e-12, (
            f"digest={_digest(b.atoms)} direction 1-norm {norm!r} not within "
            "1e-12 of 1"
        )
    swapped = coordinate_product(b, a)
    yield np.array_equal(_sorted_rows(prod.atoms), _sorted_rows(swapped.atoms)), (
        f"digest={_digest(prod.atoms, swapped.atoms)} product multiset not "
        "symmetric under operand swap (exact)"
    )


def _complex_case(rng, case, seed, full):
    n = int(rng.integers(1, 4))
    ma, mb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    a = ComplexVectorMeasure(n, _random_atoms(rng, ma, 2 * n))
    b = ComplexVectorMeasure(n, _random_atoms(rng, mb, 2 * n))
    left = complex_embed(complex_coordinate_product(a, b)).atoms
    ea, eb = complex_embed(a).atoms, complex_embed(b).atoms
    right = interleaved_product(ea[:, None, :], eb[None, :, :]).reshape(
        ma * mb, 2 * n
    )
    yield np.array_equal(_sorted_rows(left), _sorted_rows(right)), (
        f"digest={_digest(a.atoms, b.atoms)} complex product embedding "
        "differs from interleaved pairwise product (exact multiset)"
    )


def _roundtrip_case(rng, case, seed, full):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, 8))
    if case % 3 == 2:
        measure = ComplexVectorMeasure(n, _random_atoms(rng, m, 2 * n, scale=10.0))
    else:
        labels = None
        if case % 2:
            labels = tuple(f"atom{i}" for i in range(m))
        measure = VectorMeasure(
            n, _random_atoms(rng, m, n, scale=10.0) * 10.0 ** rng.integers(-8, 9),
            labels=labels,
        )
    payload = json.dumps(measure_to_json_dict(measure))
    back = measure_from_json_dict(json.loads(payload))
    yield back == measure, (
        f"digest={_digest(measure.atoms)} serialization round trip not "
        "bit-exact"
    )


def _geometry_case(rng, case, seed, full):
    m = VectorMeasure(2, _random_atoms(rng, int(rng.integers(1, 9)), 2))
    z = hull_of(m)
    verts = zonogon_vertices(z)
    dirs = unit_directions(rng, 500, 2)
    vertex_max = (dirs @ verts.T).max(axis=1)
    # closed form, not reach_many: the planar reach_many and the vertex
    # walk share the ZonogonSupport normal form
    closed = np.maximum(dirs @ z.generators.T, 0.0).sum(axis=1)
    yield within_tolerance(vertex_max, closed), (
        f"digest={_digest(z.generators)} vertex support differs from reach "
        f"by {_gap(vertex_max, closed)!r} (tol 1e-9)"
    )
    yield within_tolerance(area_2d(z), shoelace_area(verts)), (
        f"digest={_digest(z.generators)} area {area_2d(z)!r} vs shoelace "
        f"{shoelace_area(verts)!r} (tol 1e-9)"
    )
    dy = VectorMeasure(2, _dyadic_atoms(rng, int(rng.integers(1, 9)), 2))
    skel = skeleton_points(dy)
    mirrored = np.unique(skel.total - skel.points, axis=0)
    yield np.array_equal(mirrored, skel.points), (
        f"digest={_digest(dy.atoms)} skeleton not exactly centrally symmetric"
    )
    lam = rng.uniform(0.0, 1.0, z.generator_count)
    inside_pt = lam @ z.generators
    verdict = contains_point(z, inside_pt, tol=1e-9)
    residual = (
        float(np.abs(verdict.coefficients @ z.generators - inside_pt).sum())
        if verdict.inside
        else float(np.abs(inside_pt).sum())
    )
    yield verdict.inside and residual <= 1e-9 + 1e-12, (
        f"digest={_digest(z.generators, inside_pt)} interior point rejected "
        f"or residual {residual!r} above tol 1e-9"
    )
    d = unit_directions(rng, 1, 2)[0]
    outside_pt = inside_pt + d * (reach(z, d) - float(d @ inside_pt) + 0.5)
    verdict = contains_point(z, outside_pt, tol=1e-9)
    violates = (
        not verdict.inside
        and float(verdict.witness @ outside_pt) > reach(z, verdict.witness)
    )
    yield violates, (
        f"digest={_digest(z.generators, outside_pt)} exterior point accepted "
        "or witness does not violate the support inequality"
    )


def _hausdorff_identity(rng, case, seed, full):
    z = hull_of(VectorMeasure(2, _random_atoms(rng, int(rng.integers(0, 7)), 2)))
    res = hausdorff_convex(z, z)
    yield res.distance == 0.0 and res.mode == "exact", (
        f"digest={_digest(z.generators)} self distance {res.distance!r} != 0"
    )


def _hausdorff_triangle(rng, case, seed, full):
    zs = [
        hull_of(VectorMeasure(2, _random_atoms(rng, int(rng.integers(1, 6)), 2)))
        for _ in range(3)
    ]
    dab = hausdorff_convex(zs[0], zs[1]).distance
    dbc = hausdorff_convex(zs[1], zs[2]).distance
    dac = hausdorff_convex(zs[0], zs[2]).distance
    yield dac <= dab + dbc + 1e-9, (
        f"digest={_digest(*[z.generators for z in zs])} triangle inequality "
        f"violated: {dac!r} > {dab!r} + {dbc!r} (tol 1e-9)"
    )


def _hausdorff_segments(rng, case, seed, full):
    samples = 10_000
    a = rng.uniform(-2.0, 2.0, 2)
    b = rng.uniform(-2.0, 2.0, 2)
    za = Zonotope(2, a[None, :])
    zb = Zonotope(2, b[None, :])
    exact = hausdorff_convex(za, zb).distance
    grid = np.linspace(0.0, 1.0, samples)
    pa = grid[:, None] * a[None, :]
    pb = grid[:, None] * b[None, :]
    brute = hausdorff_points(
        SkeletonPointSet(2, pa, a), SkeletonPointSet(2, pb, b)
    ).distance
    pitch = max(np.abs(a).sum(), np.abs(b).sum()) / (samples - 1)
    yield abs(exact - brute) <= 2.0 * pitch, (
        f"digest={_digest(a, b)} segment distance {exact!r} vs brute force "
        f"{brute!r} beyond 2 * pitch = {2.0 * pitch!r}"
    )


def _oracle_case(rng, case, seed, full):
    n = int(rng.integers(2, 5))
    m = VectorMeasure(n, _random_atoms(rng, int(rng.integers(1, 13)), n))
    skel = skeleton_points(m)
    directions = unit_directions(rng, 200 if full else 100, n)
    r = reach_many(hull_of(m), directions)
    s = (directions @ skel.points.T).max(axis=1)
    yield within_tolerance(r, s), (
        f"digest={_digest(m.atoms)} reach vs skeleton maximum gap "
        f"{_gap(r, s)!r} above tolerance 1e-9"
    )


def _identity_case(rng, case, seed, full):
    n = int(rng.integers(2, 5))
    h = hull_of(VectorMeasure(n, _random_atoms(rng, int(rng.integers(1, 6)), n)))
    left = lorenz_product(identity_hull(n), h)
    right = lorenz_product(h, identity_hull(n))
    ok = np.array_equal(left.generators, h.generators) and np.array_equal(
        right.generators, h.generators
    )
    yield ok, f"digest={_digest(h.generators)} identity law not generator-exact"
    two = hull_of(VectorMeasure(n, _dyadic_atoms(rng, 2, n)))
    if _colinear_pairs(two.generators):
        return  # colinear seed; the two-generator hull is a segment
    other = hull_of(VectorMeasure(n, _dyadic_atoms(rng, int(rng.integers(1, 4)), n)))
    prod = lorenz_product(two, other)
    mode = "exact2d" if n == 2 else "sampled"
    yield not hull_equal(prod, identity_hull(n), mode, dirs=200, seed=seed), (
        f"digest={_digest(two.generators, other.generators)} product of a "
        "non-segment hull reproduced the identity"
    )


def _algebra_case(rng, case, seed, full):
    n = int(rng.integers(2, 5))
    hulls = [
        hull_of(
            VectorMeasure(
                n, rng.integers(-9, 10, (int(rng.integers(1, 6)), n)).astype(float)
            )
        )
        for _ in range(3)
    ]
    h1, h2, h3 = hulls
    comm_ok = np.array_equal(
        _sorted_rows(lorenz_product(h1, h2).generators),
        _sorted_rows(lorenz_product(h2, h1).generators),
    )
    assoc_ok = np.array_equal(
        _sorted_rows(lorenz_product(lorenz_product(h1, h2), h3).generators),
        _sorted_rows(lorenz_product(h1, lorenz_product(h2, h3)).generators),
    )
    left = lorenz_product(h1, minkowski_sum(h2, h3)).generators
    right = np.vstack(
        [lorenz_product(h1, h2).generators, lorenz_product(h1, h3).generators]
    )
    dist_ok = np.array_equal(_sorted_rows(left), _sorted_rows(right))
    ident_ok = np.array_equal(
        lorenz_product(h1, identity_hull(n)).generators, h1.generators
    )
    yield comm_ok and assoc_ok and dist_ok and ident_ok, (
        f"digest={_digest(*[h.generators for h in hulls])} algebra law broken "
        f"(comm={comm_ok} assoc={assoc_ok} dist={dist_ok} ident={ident_ok})"
    )


def _well_definedness_case(rng, case, seed, full):
    n = 2 if case % 2 == 0 else int(rng.integers(3, 6))
    m1 = VectorMeasure(n, _dyadic_atoms(rng, int(rng.integers(2, 6)), n))
    m2 = VectorMeasure(n, _dyadic_atoms(rng, int(rng.integers(2, 6)), n))
    t1 = _perturb_hull_preserving(rng, m1, int(rng.integers(1, 6)))
    t2 = _perturb_hull_preserving(rng, m2, int(rng.integers(1, 6)))
    base = lorenz_product(hull_of(m1), hull_of(m2))
    reshaped = lorenz_product(hull_of(t1), hull_of(t2))
    mode = "exact2d" if n == 2 else "sampled"
    equal = hull_equal(base, reshaped, mode, dirs=1000, seed=seed, tol=1e-9)
    yield equal, (
        f"digest={_digest(m1.atoms, m2.atoms, t1.atoms, t2.atoms)} product "
        "hull changed under hull-preserving transforms (tol 1e-9)"
    )


def _inclusion_case(rng, case, seed, full):
    n = 2 if case % 2 == 0 else int(rng.integers(3, 5))
    outers = [
        hull_of(VectorMeasure(n, _random_atoms(rng, int(rng.integers(2, 6)), n)))
        for _ in range(2)
    ]
    inners = []
    for outer in outers:
        lam = rng.uniform(0.0, 1.0, outer.generator_count)
        keep = rng.uniform(0.0, 1.0, outer.generator_count) > 0.25
        inners.append(Zonotope(n, (outer.generators * lam[:, None])[keep]))
    prod_inner = lorenz_product(inners[0], inners[1])
    prod_outer = lorenz_product(outers[0], outers[1])
    sampled = includes(
        prod_inner, prod_outer, "sampled", dirs=1000, seed=seed, tol=1e-9
    )
    ok = sampled.verdict != "excluded"
    msg = (
        f"digest={_digest(prod_inner.generators, prod_outer.generators)} "
        f"sampled verdict {sampled.verdict} violation {sampled.max_violation!r}"
    )
    if n == 2:
        exact = includes(prod_inner, prod_outer, "exact2d", tol=1e-9)
        ok = ok and exact.verdict == "included"
        msg += f"; exact2d verdict {exact.verdict}"
    yield ok, msg


def _gini_fixture(rng, case, seed, full):
    fixture = VectorMeasure(2, [[0.5, 0.25], [0.5, 0.75]])
    yield abs(gini(fixture) - 0.25) <= 1e-12, (
        f"worked fixture expected 0.25, got {gini(fixture)!r}"
    )


def _gini_case(rng, case, seed, full):
    k = int(rng.integers(2, 51))
    incomes = rng.integers(0, 101, k).astype(np.float64)
    if incomes.sum() == 0:
        incomes[0] = 1.0
    atoms = np.column_stack([np.full(k, 1.0 / k), incomes / incomes.sum()])
    got = gini(VectorMeasure(2, atoms))
    want = _classical_gini(incomes)
    yield abs(got - want) <= 1e-9, (
        f"digest={_digest(incomes)} hull Gini {got!r} vs classical {want!r} "
        "(tol 1e-9)"
    )


def _curve_case(rng, case, seed, full):
    k = int(rng.integers(1, 12))
    atoms = rng.uniform(0.0, 1.0, (k, 2)) + 1e-3
    curve = lorenz_curve(VectorMeasure(2, atoms))
    slopes = curve.slopes()
    finite = slopes[np.isfinite(slopes)]
    convex = bool(np.all(np.diff(finite) >= -1e-12)) and bool(
        np.all(np.isinf(slopes[len(finite):]))
    )
    endpoints = np.array_equal(curve.points[0], [0.0, 0.0]) and np.array_equal(
        curve.points[-1], [1.0, 1.0]
    )
    norm = atoms / atoms.sum(axis=0)
    verts = zonogon_vertices(hull_of(VectorMeasure(2, norm)))
    chain_len = verts.shape[0] // 2 + 1 if verts.shape[0] > 2 else verts.shape[0]
    lower = verts[:chain_len]
    merged = _dedupe_collinear(curve.points)
    match = merged.shape == lower.shape and np.abs(merged - lower).max() <= 1e-9
    yield convex and endpoints and match, (
        f"digest={_digest(atoms)} curve convex={convex} endpoints={endpoints} "
        f"lower-chain match={match}"
    )


def _partition_case(rng, case, seed, full):
    """Cases 0 and 1 are fixed cell counts; cases 2-6 are the seeded
    configurations (n, delta)."""
    if case < 2:
        p = disc.partition_sphere(case + 1, 0.5)
        if case == 0:
            yield p.cell_count == 2, "one-dimensional sphere should have exactly two cells"
        else:
            yield p.resolution == 8 and p.cell_count == 32, (
                f"expected resolution 8 and 32 cells at n=2 delta=0.5, got "
                f"{p.resolution} and {p.cell_count}"
            )
        return
    n, delta = [(1, 0.7), (2, 0.5), (3, 0.4), (4, 0.6), (6, 0.9)][case - 2]
    part = disc.partition_sphere(n, delta)
    pts = _unit_1norm_rows(rng, 10_000 if full else 2000, n)
    rep_rows = part.representative_rows(*part._cell_rows(pts))
    dists = np.abs(pts - rep_rows).sum(axis=1)
    norms_ok = bool(np.all(np.abs(np.abs(rep_rows).sum(axis=1) - 1.0) <= 1e-12))
    yield float(dists.max()) < delta and norms_ok, (
        f"n={n} delta={delta}: worst point-to-representative distance "
        f"{float(dists.max())!r}, representative norms ok={norms_ok}"
    )


def _discretization_mass(rng, case, seed, full):
    n = int(rng.integers(1, 5))
    m = VectorMeasure(n, _random_atoms(rng, int(rng.integers(1, 40)), n))
    part = disc.partition_sphere(n, float(rng.uniform(0.2, 1.5)))
    d = disc.discretize(m, part, int(rng.integers(1, 5)))
    tv_in, tv_out = total_variation_mass(m), total_variation_mass(d)
    yield within_tolerance(tv_out, tv_in, atol=0.0, rtol=1e-9), (
        f"digest={_digest(m.atoms)} mass not preserved: {tv_out!r} vs {tv_in!r}"
    )


def _discretization_hull(rng, case, seed, full):
    m = _fine_measure(
        rng, 10_000 if full else 1500, float(rng.uniform(0.5, 2.0)), grid=10
    )
    mass = total_variation_mass(m)
    hull = hull_of(m)
    previous = None
    ok = True
    notes = []
    for level in range(4):
        delta = 0.4 / 2 ** level
        part = disc.partition_sphere(2, delta)
        approx = hull_of(disc.discretize(m, part, 1))
        measured = hausdorff_convex(hull, approx).distance
        bound = delta * mass
        notes.append(f"{measured!r}<= {bound!r}")
        if measured > bound or (previous is not None and measured >= previous):
            ok = False
        previous = measured
    yield ok, (
        f"digest={_digest(m.atoms)} hull convergence failed: "
        + "; ".join(notes)
    )


def _antipodal_product_support(a: VectorMeasure, b: VectorMeasure, half: np.ndarray) -> np.ndarray:
    """Product support of ``a`` and ``b`` on the rows of ``half``, then on
    their exact negation by central symmetry, h(-u) = h(u) - <u, total>,
    where the product's total is ``a.total() * b.total()``."""
    h = product_reach_many(a.atoms, ZonogonSupport(hull_of(b).generators), half)
    return np.concatenate([h, h - half @ (a.total() * b.total())])


def _product_bound_case(rng, case, seed, full):
    """The product hulls have one generator per pair of factor atoms (10^8
    at the full scale), so distances are measured by support-difference
    sampling on a fixed direction grid through the factored product support;
    the sampled value is a lower bound of the true distance, which itself
    satisfies the bound.
    """
    atom_count = 10_000 if full else 1500
    grid_count = 512 if full else 256
    angles = (np.arange(grid_count // 2) + 0.5) * (2.0 * np.pi / grid_count)
    half = np.column_stack([np.cos(angles), np.sin(angles)])
    # probe on the boundary of the dual (infinity-norm) unit ball, where the
    # support difference maximum equals the 1-norm Hausdorff distance
    half /= np.abs(half).max(axis=1, keepdims=True)
    n = 2
    a = _fine_measure(rng, atom_count, float(rng.uniform(0.8, 2.0)))
    b = _fine_measure(rng, atom_count, float(rng.uniform(0.8, 2.0)))
    mass1, mass2 = total_variation_mass(a), total_variation_mass(b)
    orig = _antipodal_product_support(a, b, half)
    previous = None
    ok = True
    notes = []
    for level in range(3):
        eps = mass1 * mass2 / 2 ** level
        params = disc.product_params(n, mass1, mass2, eps)
        if not params.satisfies_reps_constraint(n, mass1, mass2):
            ok = False
            notes.append(f"level {level}: replication constraint violated")
            continue
        part = disc.partition_sphere(n, params.delta)
        da = disc.discretize(a, part, params.reps)
        db = disc.discretize(b, part, params.reps)
        approx = _antipodal_product_support(da, db, half)
        measured = float(np.abs(orig - approx).max())
        bound = disc.product_error_bound(params, mass1, mass2, n)
        notes.append(f"level {level}: measured {measured!r} bound {bound!r}")
        if measured > bound or (previous is not None and measured >= previous):
            ok = False
        previous = measured
    yield ok, (
        f"digest={_digest(a.atoms, b.atoms)} product bound failed: "
        + "; ".join(notes)
    )


def _cube_constant(*measures: VectorMeasure) -> float:
    bound = 0.0
    for m in measures:
        pos = np.clip(m.atoms, 0.0, None).sum(axis=0)
        neg = -np.clip(m.atoms, None, 0.0).sum(axis=0)
        bound = max(bound, float(np.maximum(pos, neg).max()))
    return bound


def _skeleton_bound_case(rng, case, seed, full):
    n = int(rng.integers(2, 4))
    shapes = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]
    ma, mb = shapes[int(rng.integers(len(shapes)))]
    a = VectorMeasure(n, _dyadic_atoms(rng, ma, n, denom=16, lo=-24, hi=25))
    b = VectorMeasure(n, _dyadic_atoms(rng, mb, n, denom=16, lo=-24, hi=25))
    if case % 3 == 0 and (ma + 1) * mb <= 16:
        a2 = apply_transform(a, [SplitAtom(int(rng.integers(ma)), 0.5)])
    else:
        a2 = VectorMeasure(n, a.atoms + rng.uniform(-0.01, 0.01, a.atoms.shape))
    b2 = VectorMeasure(n, b.atoms + rng.uniform(-0.01, 0.01, b.atoms.shape))
    delta = max(
        hausdorff_points(skeleton_points(a), skeleton_points(a2)).distance,
        hausdorff_points(skeleton_points(b), skeleton_points(b2)).distance,
    )
    bound_constant = _cube_constant(a, a2, b, b2)
    measured = hausdorff_points(
        skeleton_product(a, b), skeleton_product(a2, b2)
    ).distance
    bound = disc.skeleton_bound(n, bound_constant, delta)
    yield measured <= bound + 1e-12, (
        f"digest={_digest(a.atoms, b.atoms)} skeleton product moved "
        f"{measured!r} against bound {bound!r} (delta={delta!r}, "
        f"M={bound_constant!r})"
    )


def _zonoid_support(rng, case, seed, full):
    n = int(rng.integers(2, 5))
    m = VectorMeasure(n, _random_atoms(rng, int(rng.integers(1, 9)), n))
    dirs = unit_directions(rng, 500, n)
    lhs = density_reach_many(to_density(m), dirs)
    rhs = reach_many(hull_of(m), dirs)
    yield within_tolerance(lhs, rhs), (
        f"digest={_digest(m.atoms)} density support differs from reach by "
        f"{_gap(lhs, rhs)!r} (tol 1e-9)"
    )


def _zonoid_achieve(rng, case, seed, full):
    n = int(rng.integers(2, 5))
    m = VectorMeasure(n, _random_atoms(rng, int(rng.integers(1, 9)), n))
    lam = rng.uniform(0.0, 1.0, m.atom_count)
    target = lam @ m.atoms
    cert = achieve(m, target, tol=1e-9)
    residual = float(np.abs(cert.coefficients @ m.atoms - target).sum())
    lengths = sum(hi - lo for lo, hi in cert.intervals)
    lengths_ok = abs(lengths - cert.coefficients.sum()) <= 1e-9
    yield residual <= 1e-8 and lengths_ok, (
        f"digest={_digest(m.atoms, target)} reconstruction residual "
        f"{residual!r} above 1e-8 or interval mass off"
    )


def _zonoid_nesting(rng, case, seed, full):
    n = int(rng.integers(2, 4))
    m = VectorMeasure(n, _random_atoms(rng, int(rng.integers(1, 7)), n))
    previous: set = set()
    ok = True
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        cert = interval_realization(m, np.full(m.atom_count, lam))
        current = set(cert.intervals)
        total = sum(hi - lo for lo, hi in cert.intervals)
        nested = all(
            any(lo2 <= lo and hi <= hi2 for lo2, hi2 in current)
            for lo, hi in previous
        )
        if not nested or abs(total - lam * m.atom_count) > 1e-12:
            ok = False
        previous = current
    yield ok, (
        f"digest={_digest(m.atoms)} interval realizations not nested or "
        "wrong total length"
    )


# ---------------------------------------------------------------------------
# the table, in report order; families are (stream, full, small, body)

SUITES: dict[str, Suite] = {suite.name: suite for suite in (
    Suite("measure", "Total-variation additivity, product mass bound, density "
          "directions, and product-order symmetry.",
          ("measure", 100, 25, _measure_case)),
    Suite("complex", "Embedding of complex products equals the interleaved "
          "pairwise product of the embeddings, as exact multisets.",
          ("complex", 100, 25, _complex_case)),
    Suite("roundtrip", "Serialization round trip is bit-exact.",
          ("roundtrip", 100, 30, _roundtrip_case)),
    Suite("geometry", "Zonogon support equivalence, area oracle, exact skeleton "
          "symmetry, and containment certificates.",
          ("geometry", 40, 10, _geometry_case)),
    Suite("hausdorff", "Identity of indiscernibles, triangle inequality, and the "
          "brute-force segment oracle for the convex Hausdorff distance.",
          ("hausdorff.identity", 20, 5, _hausdorff_identity),
          ("hausdorff.triangle", 30, 8, _hausdorff_triangle),
          ("hausdorff.segments", 6, 2, _hausdorff_segments)),
    Suite("oracle", "Acceptance 1: reach equals the subset-sum support maximum.",
          ("oracle", 200, 40, _oracle_case)),
    Suite("identity", "Identity law is exact; hulls with non-codirectional "
          "points have no inverse.",
          ("identity", 50, 10, _identity_case)),
    Suite("algebra", "Acceptance 3: commutativity, associativity, "
          "distributivity, identity, all as exact sorted-generator multisets "
          "(integer atoms).",
          ("algebra", 100, 25, _algebra_case)),
    Suite("well_definedness", "Acceptance 2: the product hull is invariant "
          "under hull-preserving reshaping of either factor measure.",
          ("well_definedness", 100, 25, _well_definedness_case)),
    Suite("inclusion", "Acceptance 4: products preserve inclusion; no excluded "
          "verdicts for nested factors, and definitive inclusion in the plane.",
          ("inclusion", 100, 25, _inclusion_case)),
    Suite("gini", "Acceptance 5: hull-area Gini equals the pairwise-difference "
          "formula.",
          (None, 1, 1, _gini_fixture), ("gini", 50, 15, _gini_case)),
    Suite("curve", "Lorenz curves are convex and trace the zonogon's lower chain.",
          ("curve", 40, 10, _curve_case)),
    Suite("partition", "Partition covers the sphere with cells of guaranteed "
          "radius.",
          ("partition", 7, 7, _partition_case)),
    Suite("discretization", "Mass preservation and the single-measure hull "
          "convergence bound.",
          ("discretization.mass", 20, 5, _discretization_mass),
          ("discretization.hull", 3, 1, _discretization_hull)),
    Suite("product_bound", "Acceptance 6: discretized product hulls obey the "
          "quantitative error bound and improve monotonically across "
          "refinement levels.",
          ("product_bound", 10, 3, _product_bound_case)),
    Suite("skeleton_bound", "Acceptance 7: skeleton products of close-skeleton "
          "measures stay within 4 n M delta in brute-force Hausdorff distance.",
          ("skeleton_bound", 50, 10, _skeleton_bound_case)),
    Suite("zonoid", "Acceptance 8: density support equals reach; achieved "
          "points reconstruct; interval realizations nest.",
          ("zonoid.support", 20, 5, _zonoid_support),
          ("zonoid.achieve", 100, 25, _zonoid_achieve),
          ("zonoid.nesting", 10, 4, _zonoid_nesting)),
)}
_LONGEST = ("product_bound", "skeleton_bound")  # at both scales; see run_suites


def _run_one(name: str, seed: int, scale: str) -> SuiteReport:
    """Run the suite ``name``; module level, so a worker process can call it."""
    return SUITES[name](seed, scale)


def _one_blas_thread() -> ExitStack:
    """Set each OpenBLAS mapped here to one thread; the returned stack restores
    each.  Set in the parent before a fork, it starts no BLAS thread in a worker."""
    import ctypes

    restore = ExitStack()
    with suppress(OSError), open("/proc/self/maps", encoding="utf-8") as fh:
        for lib in sorted({line.split()[-1] for line in fh if "openblas" in line.lower()}):
            handle = ctypes.CDLL(lib)
            for get in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, get):
                    set_count = handle[get.replace("_get_", "_set_")]
                    restore.callback(set_count, handle[get]())
                    set_count(1)
                    break
    return restore


def run_suites(
    names: list[str],
    seed: int = 0,
    scale: str = "small",
    workers: int = 1,
) -> list[SuiteReport]:
    """Run the named suites, or every suite for the name "all", sharded
    across worker processes, in registry order.

    Report content is independent of the worker count: each case derives
    its own generator from (seed, stream, index) and reports are ordered by
    the registry, not by completion.  The pool gets the longest suites
    (``_LONGEST``) first, so that neither runs alone at the end, never has
    more workers than suites, and holds OpenBLAS at one thread while open.
    One worker or one suite runs in this process.  An unknown name raises
    ``ValueError`` before any suite runs.
    """
    for name in names:
        if name != "all" and name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; pick one of {', '.join(SUITES)} or all"
            )
    ordered = [name for name in SUITES if "all" in names or name in names]
    if workers <= 1 or len(ordered) <= 1:
        return [_run_one(name, seed, scale) for name in ordered]
    from concurrent.futures import ProcessPoolExecutor

    count = len(ordered)
    dispatch = [n for n in _LONGEST if n in ordered] + [n for n in ordered if n not in _LONGEST]
    with _one_blas_thread(), ProcessPoolExecutor(max_workers=min(workers, count)) as pool:
        reports = pool.map(_run_one, dispatch, [seed] * count, [scale] * count)
        return sorted(reports, key=lambda report: ordered.index(report.suite))


def render_reports(reports: list[SuiteReport]) -> str:
    lines = [report.render() for report in reports]
    total = sum(len(r.failures) for r in reports)
    cases = sum(r.cases for r in reports)
    lines.append(f"total: suites={len(reports)} cases={cases} failures={total}")
    return "\n".join(lines) + "\n"
