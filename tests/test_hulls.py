import pickle
import subprocess
import sys
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorenz_hulls import (
    DimensionMismatch,
    Exact2dOnPlaneOnly,
    NonFiniteValue,
    NotInHull,
    SizeGuard,
    SkeletonPointSet,
    TooManyAtoms,
    VectorMeasure,
    Zonotope,
    achieve,
    area_2d,
    contains_point,
    hausdorff_convex,
    hausdorff_points,
    hull_equal,
    hull_of,
    includes,
    reach,
    reach_many,
    shoelace_area,
    skeleton_points,
    within_tolerance,
    zonogon_vertices,
)
from lorenz_hulls.hulls import (
    _ASCENT_PIVOTS,
    _BLOCK,
    ZonogonSupport,
    _arrangement_size,
    _ascent_distance,
    _central_containment,
    _lp_point_distance,
    _scaled,
    _stable_order,
    linprog,
    separating_direction,
)
from lorenz_hulls.sampling import DIRECTION_COORDINATE_LIMIT, case_rng, sign_vectors, unit_directions

SQUARE = Zonotope(2, [[1, 0], [0, 1]])
# a 3-D pair whose support gap peaks (at 3) only where two of the planes
# <g, u> = 0 meet inside a cube facet; cube edges and corners see 2.5
CROSS_PEAK = (
    Zonotope(3, [[1, 2, -2], [1, -2, -2]]),
    Zonotope(3, [[-2, 1, -2], [2, -1, -2]]),
)


def closed_reach(z, directions):
    """Support oracle independent of the library kernels:
    sum_i max(0, <d, g_i>) per direction row, in row blocks."""
    d = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    blocks = [np.maximum(d[i : i + 256] @ z.generators.T, 0.0).sum(axis=1)
              for i in range(0, d.shape[0], 256)]
    return np.concatenate(blocks) if blocks else np.zeros(0)


def refuse_lp(*args, **kwargs):
    raise AssertionError("a linear program ran where none may")


# generator counts per dimension n that keep the corpora's seeded draws:
# the largest m <= 40 whose _arrangement_size(m, n) times m + 1 is at most
# 40 000, and the smallest m past that
SMALL_M = {1: 40, 2: 40, 3: 22, 4: 11, 5: 7, 6: 5}
LARGE_M = {3: 23, 4: 12, 5: 8, 6: 6}


def highs_error(z, p):
    """HiGHS's error on a distance: its feasibility tolerance is 1e-7 per
    row of the LP, which runs on data times 2**-e (``_scaled``)."""
    return np.ldexp(1e-6, _scaled(z, p)[2])


def reference_ascent(z, p):
    """The ascent walk as it was before the pivot choice moved to Python
    floats: the same steps on numpy arrays throughout (np.clip, np.argmax,
    np.delete, np.cumsum), reading ``_ASCENT_PIVOTS`` at call time.  The
    oracle of ``test_ascent_matches_its_reference``."""
    from lorenz_hulls import hulls

    peak = max(np.abs(z.generators).max(initial=0.0), np.abs(p).max(initial=0.0))
    e = int(np.frexp(peak)[1])
    g, q = np.ldexp(z.generators, -e), np.ldexp(p, -e)
    m, n = g.shape
    rows, facet = np.vstack([np.eye(n), g]), np.arange(n + m) < n
    noise = 2.0**-40 * np.abs(rows).sum(axis=1)
    rhs = np.concatenate([np.where(q >= 0.5 * g.sum(axis=0), 1.0, -1.0), np.zeros(m)])
    act, t, best = np.arange(n), np.zeros(n + m), -np.inf
    slack = 2 * (m + n + 2) * 2.0**-53 * (np.abs(g).sum() + np.abs(q).sum())
    with np.errstate(all="ignore"):
        for _ in range(hulls._ASCENT_PIVOTS * (m + n)):
            try:
                inv = np.linalg.inv(rows[act])
            except np.linalg.LinAlgError:
                return None
            d = np.clip(inv @ rhs[act], -1.0, 1.0)
            a = rows @ d
            a[np.abs(a) <= noise] = 0.0
            t = np.where(a != 0.0, a > 0.0, t > 0.5) * 1.0
            t[act] = 0.0
            y = (q - t[n:] @ g) @ inv
            t[act] = np.clip(y, 0.0, 1.0)
            lo, hi = d @ q - np.maximum(g @ d, 0.0).sum(), np.abs(t[n:] @ g - q).sum()
            if hi - lo <= slack:
                return d, t[n:], float(np.ldexp(lo, e)), float(np.ldexp(hi, e))
            gain = np.where(act >= n, np.maximum(y - 1.0, -y), -rhs[act] * y)
            if not (rise := gain > 2.0**-40).any():
                return None
            k = np.argmax(gain) if lo > best else np.flatnonzero(rise)[np.argmin(act[rise])]
            best = max(best, lo)
            sigma = -rhs[act[k]] if act[k] < n else (1.0 if y[k] > 1.0 else -1.0)
            t[act[k]] = sigma > 0.0
            b = sigma * (rows @ inv[:, k])
            b[np.abs(b) <= noise * np.abs(inv[:, k]).max()] = 0.0
            cross = np.where(facet, b != 0.0, np.where(t > 0.5, b < 0.0, b > 0.0))
            cross[np.delete(act, k)] = False
            idx = np.flatnonzero(cross)
            a, b = a[idx], b[idx]
            tau = np.where(facet[idx], (np.sign(b) - a) / b, np.maximum(-a / b, 0.0))
            order = np.lexsort((idx, tau))
            drop = np.where(facet[idx], np.inf, np.abs(b))[order]
            j = int(np.argmax(np.cumsum(drop) >= gain[k]))
            t[idx[order[:j]]] = 1.0 - t[idx[order[:j]]]
            act[k] = idx[order[j]]
            rhs[act[k]] = np.sign(b[order[j]]) if act[k] < n else 0.0
    return None


def same_bits(got, want):
    """Byte equality of two walk results, (d, t, lo, hi) or None: dtype,
    shape and every bit, so -0.0 and NaN payloads count."""
    if got is None or want is None:
        return got is None and want is None
    return all(np.asarray(x).dtype == np.asarray(y).dtype and np.shape(x) == np.shape(y)
               and np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(got, want))


def poisoned_inverse(call: int, value: float):
    """np.linalg.inv whose ``call``-th result has its column ``call`` mod n
    set to +-``value`` by the sign of each entry (0 gives a zero column, and
    2^1000, inf or NaN the multipliers of a basis too close to singular)."""
    exact = np.linalg.inv
    calls = [0]

    def inv(a):
        out = exact(a)
        calls[0] += 1
        if calls[0] == call:
            col = call % out.shape[1]
            out[:, col] = np.where(out[:, col] < 0.0, -value, value)
        return out

    return inv


def near_parallel_chain(count=200, step=0.9e-12):
    """Unit generators at angles step * (1 ... count): successive angles
    differ by less than the 1e-12 merge rule, so the vertex walk merges the
    whole chain into one edge."""
    angles = step * np.arange(1, count + 1)
    return np.column_stack([np.cos(angles), np.sin(angles)]), angles


def brute_reach(z, d):
    """Subset-sum oracle for the support value."""
    best = 0.0
    sums = [np.zeros(z.dimension)]
    for g in z.generators:
        sums += [s + g for s in sums]
    for s in sums:
        best = max(best, float(np.dot(d, s)))
    return best


class TestDirectionGuard:
    class Recorder:
        """Stands in for a generator; records the draw instead of allocating."""

        def standard_normal(self, shape):
            self.shape = shape
            raise StopIteration

    def test_guard_is_checked_before_drawing(self):
        rng = self.Recorder()
        with pytest.raises(SizeGuard):
            unit_directions(rng, DIRECTION_COORDINATE_LIMIT + 1, 1)
        with pytest.raises(SizeGuard):
            unit_directions(rng, 2, DIRECTION_COORDINATE_LIMIT // 2 + 1)
        assert not hasattr(rng, "shape")
        # the limit itself is allowed through to the draw
        with pytest.raises(StopIteration):
            unit_directions(rng, 2, DIRECTION_COORDINATE_LIMIT // 2)
        assert rng.shape == (2, DIRECTION_COORDINATE_LIMIT // 2)

    def test_negative_count_is_refused_before_drawing(self):
        rng = self.Recorder()
        with pytest.raises(ValueError, match="direction count must be nonnegative, got -1"):
            unit_directions(rng, -1, 3)
        assert not hasattr(rng, "shape")
        assert unit_directions(case_rng(0, "zero"), 0, 3).shape == (0, 3)

    def test_sign_vectors_guard_is_checked_before_allocating(self, monkeypatch):
        # 2^19 x 19 coordinates pass and 2^20 x 20 do not, nor does any
        # larger n, which costs no huge integer to check
        for n in range(1, 11):
            want = [[-1.0 + 2.0 * ((s >> (n - 1 - j)) & 1) for j in range(n)] for s in range(1 << n)]
            assert sign_vectors(n).tolist() == want
        assert (1 << 19) * 19 <= DIRECTION_COORDINATE_LIMIT < (1 << 20) * 20

        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the size guard")

        monkeypatch.setattr(np, "indices", refuse)
        for n in (20, 21, 64, 10**8):
            with pytest.raises(SizeGuard, match=f"got 2\\^{n} x {n}"):
                sign_vectors(n)

    def test_sign_vectors_peak_near_the_result(self):
        # 2^17 x 17 floats are 17 MiB; building them holds no int64 grid and
        # no second float copy beside the result, which keeps its values,
        # dtype and Fortran layout (``_facet_vertices`` multiplies by its
        # transpose)
        tracemalloc.start()
        try:
            signs = sign_vectors(17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert signs.nbytes == 17 << 20
        assert peak <= 1.25 * signs.nbytes
        assert signs.dtype == np.float64 and signs.flags.f_contiguous
        rows = np.arange(1 << 17)[:, None] >> np.arange(16, -1, -1)
        assert np.array_equal(signs, 2.0 * (rows & 1) - 1.0)

    def test_arrangement_guard_decides_as_uncapped(self):
        # each 2^(n - k) capped at 2^32 changes no decision of the guard
        def uncapped(m, n):
            return sum(comb(m, k) * comb(n, k) << (n - k) for k in range(min(n, m + 1)))

        for n in range(1, 65):
            for m in range(201):
                assert (_arrangement_size(m, n) * n <= DIRECTION_COORDINATE_LIMIT) == (
                    uncapped(m, n) * n <= DIRECTION_COORDINATE_LIMIT), (m, n)

    def test_arrangement_guard_in_a_huge_dimension(self):
        # two empty hulls in n = 2^40 take the sampled route, whose sign
        # vectors refuse; the guard before it holds no 2^(2^40) integer
        n = 1 << 40
        empty = Zonotope(n, np.zeros((0, n)))
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuard, match=f"got 2\\^{n} x {n}"):
                hausdorff_convex(empty, empty)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sampled_relations_past_the_sign_vector_guard(self, monkeypatch):
        # two generators a side in n = 20: the sign vectors alone would be
        # 2^20 x 20 coordinates, so all three sampled relations refuse before
        # they ask for a generator (Hausdorff takes its sampled route, as the
        # facet vertices pass the direction-set guard too)
        calls = []
        monkeypatch.setattr("lorenz_hulls.sampling.case_rng",
                            lambda *args: calls.append(args) or self.Recorder())
        z1, z2 = Zonotope(20, np.eye(20)[:2]), Zonotope(20, np.eye(20)[2:4])
        assert _arrangement_size(4, 20) * 20 > DIRECTION_COORDINATE_LIMIT
        for relation in (lambda: includes(z1, z2, "sampled", dirs=0),
                         lambda: hull_equal(z1, z2, "sampled", dirs=0),
                         lambda: hausdorff_convex(z1, z2)):
            with pytest.raises(SizeGuard, match="got 2\\^20 x 20"):
                relation()
        assert calls == []


class TestHull:
    def test_zero_atoms_dropped(self):
        z = hull_of(VectorMeasure(2, [[1, 0], [0, 1], [0, 0]]))
        assert z.generators.tolist() == [[1, 0], [0, 1]]

    def test_zero_measure(self):
        z = hull_of(VectorMeasure(2, []))
        assert z.generator_count == 0

    def test_single_generator_kept(self):
        z = hull_of(VectorMeasure(2, [[-1, 2]]))
        assert z.generators.tolist() == [[-1, 2]]


class TestReach:
    def test_square_diagonal(self):
        assert reach(SQUARE, [1, 1]) == brute_reach(SQUARE, [1, 1]) == 2.0

    def test_negative_direction_clips_to_zero(self):
        assert reach(SQUARE, [-1, -1]) == 0.0

    def test_single_negative_dot(self):
        assert reach(Zonotope(2, [[2, 3]]), [1, -1]) == 0.0

    def test_oracle_agreement_random(self):
        rng = case_rng(0, "test.reach")
        for _ in range(20):
            n = int(rng.integers(2, 4))
            z = hull_of(VectorMeasure(n, rng.uniform(-2, 2, (int(rng.integers(1, 7)), n))))
            d = rng.normal(size=n)
            assert within_tolerance(reach(z, d), brute_reach(z, d))

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_positive_homogeneity(self, scale):
        d = np.array([0.3, -1.7])
        assert within_tolerance(reach(SQUARE, scale * d), scale * reach(SQUARE, d))

    def test_blocked_matches_one_shot(self):
        # rows go through in blocks of about _BLOCK dot products; k is not a
        # multiple of the block rows, so the last block is short
        rng = case_rng(14, "test.reach_many.blocks")
        for n in (1, 2, 3):
            for m in (1, 255, _BLOCK, _BLOCK + 1):
                rows = max(1, _BLOCK // m)
                k = 2 * rows + 1 if rows > 1 else 3
                # small integers make every product and sum exact, so the
                # blocked values must equal the one-shot formula bit for bit
                g = rng.integers(-8, 9, (m, n)).astype(float)
                d = rng.integers(-8, 9, (k, n)).astype(float)
                one_shot = np.maximum(d @ g.T, 0).sum(1)
                assert np.array_equal(reach_many(Zonotope(n, g), d), one_shot)
                # general floats: BLAS picks its kernel by matrix shape, so
                # a block may round its dot products differently
                g = rng.normal(size=(m, n))
                d = rng.normal(size=(k, n))
                gap = np.abs(reach_many(Zonotope(n, g), d) - np.maximum(d @ g.T, 0).sum(1))
                assert (gap <= 1e-14 * (np.abs(d) @ np.abs(g).T).sum(1)).all()

    def test_contains_zero_and_total(self):
        rng = case_rng(1, "test.reach.total")
        z = hull_of(VectorMeasure(3, rng.uniform(-1, 1, (5, 3))))
        for _ in range(50):
            d = rng.normal(size=3)
            assert reach(z, d) >= -1e-12
            assert reach(z, d) >= float(d @ z.total()) - 1e-9


class TestSkeleton:
    def test_unit_square_points(self):
        s = skeleton_points(VectorMeasure(2, [[1, 0], [0, 1]]))
        assert s.points.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_zero_measure(self):
        s = skeleton_points(VectorMeasure(3, []))
        assert s.points.tolist() == [[0, 0, 0]]

    def test_duplicate_sums_collapse(self):
        s = skeleton_points(VectorMeasure(2, [[1, 0], [1, 0]]))
        assert s.points.tolist() == [[0, 0], [1, 0], [2, 0]]

    def test_guard(self):
        with pytest.raises(TooManyAtoms):
            skeleton_points(VectorMeasure(1, np.ones((21, 1))))

    def test_size_guard_before_allocating(self):
        # 2^20 sums of 17 coordinates pass 2^24 coordinates (136 MiB)
        atoms = case_rng(5, "test.skeleton.size").normal(size=(20, 17))
        with pytest.raises(SizeGuard, match=r"2\^20 x 17"):
            skeleton_points(VectorMeasure(17, atoms))

    def test_central_symmetry_exact_on_dyadic(self):
        rng = case_rng(2, "test.skeleton")
        atoms = rng.integers(-8, 9, (6, 2)) / 4.0
        s = skeleton_points(VectorMeasure(2, atoms))
        mirrored = np.unique(s.total - s.points, axis=0)
        assert np.array_equal(mirrored, s.points)

    def test_matches_unique_oracle(self):
        # duplicate, zero and dyadic atoms: the points are byte for byte
        # np.unique of the sums that a vstack loop builds in the same order
        rng = case_rng(21, "test.skeleton.oracle")
        for case in range(40):
            n, k = int(rng.integers(1, 5)), int(rng.integers(0, 11))
            atoms = rng.integers(-4, 5, (k, n)) / 4.0 if case % 2 else rng.normal(size=(k, n))
            if k > 2:
                atoms[1] = atoms[0]
                atoms[2] = 0.0
            sums = np.zeros((1, n))
            for atom in atoms:
                sums = np.vstack([sums, sums + atom])
            want = np.unique(sums, axis=0)
            got = skeleton_points(VectorMeasure(n, atoms)).points
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), case

    def test_one_key_sort_matches_lexsort(self):
        # points and subset rows are byte for byte those of one np.lexsort
        # over every coordinate: on tie-free Gaussian atoms (one key), on
        # dyadic ones (their first 2^8 sums tie: one lexsort), and on
        # Gaussian atoms whose 9th and later atoms repeat an earlier one or
        # have x0 = 0, so that the first coordinate ties only past the
        # first 2^8 sums and is lexsorted where it ties
        rng = case_rng(28, "test.skeleton.one_key")
        late_ties = 0
        for case in range(60):
            n, k = int(rng.integers(1, 6)), int(rng.integers(0, 13))
            if case % 3 == 1:
                atoms = rng.integers(-3, 4, (k, n)) / 4.0
            else:
                atoms = rng.normal(size=(k, n))
            if case % 3 == 2:
                k = int(rng.integers(9, 13))
                atoms = rng.normal(size=(k, n))
                atoms[8] = atoms[int(rng.integers(0, 8))]
                atoms[9:, 0] = 0.0
            s = skeleton_points(VectorMeasure(n, atoms))
            points, rows = _lexsort_skeleton(atoms)
            assert s.points.tobytes() == points.tobytes(), case
            assert s._subset_rows.tobytes() == rows.tobytes(), case
            head, x0 = np.sort(points[rows[:256], 0]), np.sort(points[rows, 0])
            late_ties += (head[1:] != head[:-1]).all() and (x0[1:] == x0[:-1]).any()
        assert late_ties == 20

    def test_subset_rows_are_private(self):
        # dyadic atoms with a duplicate and a zero: 64 subsets on fewer rows
        atoms = case_rng(27, "test.skeleton.rows").integers(-2, 3, (6, 2)) / 2.0
        atoms[1], atoms[2] = atoms[0], 0.0
        s = skeleton_points(VectorMeasure(2, atoms))
        rows = s._subset_rows
        assert rows.dtype == np.int32 and rows.shape == (64,) and not rows.flags.writeable
        assert s.point_count < 64 and set(rows.tolist()) == set(range(s.point_count))
        sums = [atoms[[j for j in range(6) if subset >> j & 1]].sum(axis=0) for subset in range(64)]
        assert np.array_equal(s.points[rows], sums)
        # the map is no field: the same points built in public are equal
        public = SkeletonPointSet(2, s.points, s.total)
        assert public._subset_rows is None
        assert s == public and hash(s) == hash(public)
        back = pickle.loads(pickle.dumps(s))
        assert back == s and hash(back) == hash(s)
        assert np.array_equal(back._subset_rows, rows) and not back._subset_rows.flags.writeable


class TestZonogon:
    def test_unit_square_ccw(self):
        v = zonogon_vertices(SQUARE)
        assert v.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]

    def test_colinear_generators_merge_to_segment(self):
        v = zonogon_vertices(Zonotope(2, [[1, 0], [1, 0]]))
        assert v.tolist() == [[0, 0], [2, 0]]

    def test_empty_is_origin(self):
        assert zonogon_vertices(Zonotope(2, [])).tolist() == [[0, 0]]

    def test_flipped_generators_offset(self):
        v = zonogon_vertices(Zonotope(2, [[1, -1]]))
        assert sorted(v.tolist()) == [[0, 0], [1, -1]]

    def test_plane_only(self):
        with pytest.raises(Exact2dOnPlaneOnly):
            zonogon_vertices(Zonotope(3, [[1, 0, 0]]))

    def test_support_equivalence(self):
        rng = case_rng(3, "test.zonogon")
        for _ in range(10):
            z = hull_of(VectorMeasure(2, rng.uniform(-2, 2, (int(rng.integers(1, 9)), 2))))
            v = zonogon_vertices(z)
            dirs = unit_directions(rng, 500, 2)
            assert within_tolerance((dirs @ v.T).max(axis=1), closed_reach(z, dirs))


class TestArea:
    def test_unit_square(self):
        assert area_2d(SQUARE) == 1.0

    def test_income_pair(self):
        z = Zonotope(2, [[0.5, 0.25], [0.5, 0.75]])
        assert area_2d(z) == pytest.approx(0.25, rel=1e-12)
        assert area_2d(z) == pytest.approx(shoelace_area(zonogon_vertices(z)), rel=1e-9)

    def test_segment_has_no_area(self):
        assert area_2d(Zonotope(2, [[2, 3]])) == 0.0

    def test_planar_only(self):
        for n in (1, 3):
            with pytest.raises(Exact2dOnPlaneOnly, match="area is planar only"):
                area_2d(Zonotope(n, np.ones((2, n))))

    def test_matches_shoelace_random(self):
        rng = case_rng(4, "test.area")
        for _ in range(20):
            z = hull_of(VectorMeasure(2, rng.uniform(-2, 2, (int(rng.integers(1, 10)), 2))))
            assert within_tolerance(area_2d(z), shoelace_area(zonogon_vertices(z)))

    def test_near_parallel_chain_keeps_its_area(self):
        # the vertex walk merges the whole chain into one edge, which made
        # the area 0.0; the pairwise sum of |g_i x g_j| is 1.2e-6
        gens, _ = near_parallel_chain()
        i, j = np.triu_indices(gens.shape[0], 1)
        want = np.abs(gens[i, 0] * gens[j, 1] - gens[i, 1] * gens[j, 0]).sum()
        assert area_2d(Zonotope(2, gens)) == pytest.approx(want, rel=1e-12)


BAD_TOLS = (float("nan"), float("inf"), -float("inf"), 0.0, -1.0)


class TestContainsPoint:
    def test_tol_must_be_finite_and_positive(self):
        for tol in BAD_TOLS:
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                contains_point(SQUARE, [0.5, 0.5], tol=tol)

    def test_non_finite_point_rejected_before_any_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no LP may run on a non-finite point")

        monkeypatch.setattr("lorenz_hulls.hulls.linprog", refuse)
        for point in ([float("nan"), 1.0], [float("inf"), 0.0], [0.0, -float("inf")]):
            with pytest.raises(NonFiniteValue, match="NaN or infinite"):
                contains_point(SQUARE, point)

    def test_origin_inside_with_zero_coefficients(self):
        r = contains_point(SQUARE, [0, 0])
        assert r.inside and r.coefficients.tolist() == [0, 0]

    def test_total_inside_with_unit_coefficients(self):
        r = contains_point(SQUARE, [1, 1])
        assert r.inside and r.coefficients.tolist() == [1, 1]

    def test_outside_with_witness(self):
        r = contains_point(SQUARE, [1.5, 0])
        assert not r.inside
        assert float(r.witness @ [1.5, 0]) > reach(SQUARE, r.witness) + 1e-9
        assert r.distance == pytest.approx(0.5, abs=1e-9)

    def test_inside_certificate_reconstructs(self):
        rng = case_rng(5, "test.contains")
        for _ in range(10):
            z = hull_of(VectorMeasure(3, rng.uniform(-2, 2, (5, 3))))
            lam = rng.uniform(0, 1, 5)
            p = lam @ z.generators
            r = contains_point(z, p, tol=1e-9)
            assert r.inside
            assert np.abs(r.coefficients @ z.generators - p).sum() <= 2e-9
            assert (r.coefficients >= 0).all() and (r.coefficients <= 1).all()

    def test_verdicts_scale_exactly(self):
        # the LPs run on data scaled by a power of two, so 2^k-scaled inputs
        # with a 2^k-scaled tolerance give the same certificates
        rng = case_rng(15, "test.contains.scale")
        z = Zonotope(4, rng.normal(size=(6, 4)))
        points = [z.total() * 0.5, z.total() * 0.5 + 3.0 * rng.normal(size=4)]
        for p in points:
            base = contains_point(z, p)
            for k in (-300, 300):
                f = 2.0 ** k
                r = contains_point(Zonotope(4, z.generators * f), p * f, tol=1e-9 * f)
                assert r.inside == base.inside and r.distance == base.distance * f
                for got, want in ((r.coefficients, base.coefficients), (r.witness, base.witness)):
                    assert (got is None and want is None) or np.array_equal(got, want)

    def test_empty_zonotope(self):
        z = Zonotope(2, [])
        assert contains_point(z, [0, 0]).inside
        assert not contains_point(z, [0.5, 0]).inside
        # n = 21: no step enumerates the 2^21 sign vectors
        assert not contains_point(Zonotope(21, np.zeros((0, 21))), np.eye(21)[0]).inside

    def test_inside_distance_is_the_residual(self):
        # at atom scale 1e6 the LP objective reads 0.0 for coefficients that
        # reconstruct the point only to ~1e-10; the reported distance is
        # ||t^T G - p||_1 of the coefficients returned
        rng = case_rng(22, "test.contains.residual")
        residuals = []
        for _ in range(6):
            z = Zonotope(4, 1e6 * rng.normal(size=(8, 4)))
            p = rng.uniform(0, 1, 8) @ z.generators
            r = contains_point(z, p)
            assert r.inside
            assert r.distance == float(np.abs(r.coefficients @ z.generators - p).sum())
            residuals.append(r.distance)
        assert max(residuals) > 0.0

    def test_one_linear_program_per_point(self, monkeypatch):
        # n = 4 with 32 generators
        calls = []

        def counted(*args, **kwargs):
            calls.append("A_eq" in kwargs)
            return linprog(*args, **kwargs)

        monkeypatch.setattr("lorenz_hulls.hulls.linprog", counted)
        rng = case_rng(19, "test.contains.lp_count")
        z = Zonotope(4, rng.normal(size=(32, 4)))
        inside = rng.uniform(0.2, 0.8, 32) @ z.generators
        outside = z.total() * 0.5 + np.abs(z.generators).sum()
        # a vertex, t in {0, 1}^m: the central certificate cannot prove it
        vertex = (z.generators @ rng.normal(size=4) > 0.0) @ z.generators
        assert _central_containment(z, vertex, 1e-9, _scaled(z, vertex)) is None
        # the central certificate decides the inside point and the ascent
        # the outside point and the vertex, with no LP; a walk that ends
        # uncertified (here: capped at 0 steps) hands each to one LP
        for cap, lps in ((_ASCENT_PIVOTS, []), (0, [True])):
            monkeypatch.setattr("lorenz_hulls.hulls._ASCENT_PIVOTS", cap)
            for p, verdict, want in ((inside, True, []), (outside, False, lps), (vertex, True, lps)):
                calls.clear()
                assert contains_point(z, p).inside is verdict
                assert calls == want

    def test_no_linear_program_at_verify_sizes(self, monkeypatch):
        # every verify size is n <= 4, m <= 8
        monkeypatch.setattr("lorenz_hulls.hulls.linprog", refuse_lp)
        rng = case_rng(19, "test.contains.lp_count")
        z = Zonotope(4, rng.normal(size=(8, 4)))
        inside = rng.uniform(0.2, 0.8, 8) @ z.generators
        outside = z.total() * 0.5 + np.abs(z.generators).sum()
        r = contains_point(z, inside)
        assert r.inside and r.distance <= 1e-13 * np.abs(z.generators).sum()
        r = contains_point(z, outside)
        # the witness's margin is the reported distance
        margin = float(r.witness @ outside) - reach(z, r.witness)
        assert not r.inside and margin == pytest.approx(r.distance, rel=1e-14)
        m = VectorMeasure(3, rng.uniform(-1.0, 1.0, (6, 3)))
        target = rng.uniform(0.2, 0.8, 6) @ m.atoms
        assert achieve(m, target).residual <= 1e-13 * np.abs(m.atoms).sum()
        with pytest.raises(NotInHull):
            achieve(m, m.total() * 0.5 + np.abs(m.atoms).sum())

    def test_ascent_miss_hands_off_to_the_lp(self, monkeypatch):
        # a walk that ends uncertified (capped at 0 steps) goes to the LP
        calls = []

        def counted(*args, **kwargs):
            calls.append("A_eq" in kwargs)
            return linprog(*args, **kwargs)

        monkeypatch.setattr("lorenz_hulls.hulls.linprog", counted)
        monkeypatch.setattr("lorenz_hulls.hulls._ASCENT_PIVOTS", 0)
        z = Zonotope(3, case_rng(24, "test.contains.handoff").normal(size=(5, 3)))
        # a vertex, t in {0, 1}^m, so that the central certificate (which
        # would take the centre) leaves the point to the capped walk
        p = (z.generators @ np.ones(3) > 0.0) @ z.generators
        assert _central_containment(z, p, 1e-9, _scaled(z, p)) is None
        r = contains_point(z, p)
        assert calls == [True]
        assert r.inside and r.distance <= 1e-9

    def test_closed_form_corpus(self, monkeypatch):
        # n = 1...6 with up to SMALL_M[n] rows; zero, parallel and duplicate rows;
        # scales 2^k.  No LP runs; verdicts and distances match the LP route
        # at generic points; points 0.5 tol and 2 tol beyond a vertex, whose
        # distance is exact by construction, are judged by it
        rng = case_rng(23, "test.contains.closed_form")
        for case in range(96):
            n = 1 + case % 6
            m = int(rng.integers(1, SMALL_M[n] + 1))
            g = rng.normal(size=(m, n))
            g[rng.random(m) < 0.15] = 0.0
            if m > 2:
                g[1] = g[0]
                g[-1] = g[0] * rng.choice([-2.0, 0.5])
            f = 2.0 ** (-300, -20, 0, 20, 300)[case % 5]
            z = Zonotope(n, f * g)
            mass, tol = f * np.abs(g).sum() + f, 1e-9 * f
            u = rng.normal(size=n)
            vertex = z.generators[z.generators @ u > 0.0].sum(axis=0)
            step = np.where(np.arange(n) == np.argmax(np.abs(u)), np.sign(u), 0.0)
            center = z.total() / 2.0
            lift = reach(z, u) + f * rng.uniform(0.01, 1.0) - u @ center
            generic = [rng.uniform(0.1, 0.9, m) @ z.generators, center + lift / (u @ u) * u]
            edges = [(s, vertex + s * tol * step) for s in (0.5, 2.0)]
            lps = [_lp_point_distance(z, p)[0] for p in generic]
            with monkeypatch.context() as patched:
                patched.setattr("lorenz_hulls.hulls.linprog", refuse_lp)
                got = [contains_point(z, p, tol=tol) for p in generic]
                edge_got = [(s, contains_point(z, p, tol=tol)) for s, p in edges]
            for p, r, lp in zip(generic, got, lps):
                assert r.inside is (lp <= tol), case
                if r.inside:
                    assert r.coefficients.min() >= 0.0 and r.coefficients.max() <= 1.0, case
                    assert r.distance <= max(1e-13 * mass, np.abs(p).sum()), case
                else:
                    assert float(r.witness @ p) - reach(z, r.witness) > tol, case
                    assert abs(r.distance - lp) <= 1e-11 * (mass + np.abs(p).sum()), case
            for s, r in edge_got:
                assert r.inside is (s < 1.0), case
                assert abs(r.distance - s * tol) <= 1e-3 * tol, case

    def test_central_certificate_corpus(self, monkeypatch):
        # n = 4...6 from LARGE_M[n] up to 80 generators; zero, duplicate,
        # flat and nearly flat rows; scales 2^k; deep, uniform, near-vertex,
        # vertex and outside points.  A certificate has t in [0, 1]^m within
        # tol, is never given where the LP says outside, is what
        # contains_point returns with no LP, and has the same bytes at
        # every scale
        rng = case_rng(25, "test.contains.central")
        certified = 0
        for case in range(40):
            n = 4 + case % 3
            m = int(rng.integers(LARGE_M[n], 81))
            g = rng.normal(size=(m, n))
            if case % 4 == 1:
                g[rng.random(m) < 0.2] = 0.0
            elif case % 4 == 2:
                g[1::2] = g[0::2][: m // 2]
            elif case % 8 == 3:
                g[:, -1] = 0.0
            elif case % 8 == 7:
                # 1e-7 thick: the Gram solve loses about 1e-9 to rounding
                g[:, -1] = g[:, :-1] @ rng.normal(size=n - 1) + 1e-7 * rng.normal(size=m)
            z = Zonotope(n, g)
            u = rng.normal(size=n)
            vertex = (g @ u > 0.0).astype(float)
            center = z.total() / 2.0
            lift = reach(z, u) + 0.05 * np.abs(g).sum() - u @ center
            points = [
                rng.uniform(0.4, 0.6, m) @ g,
                rng.uniform(0.0, 1.0, m) @ g,
                (vertex + (0.5 - vertex) * 1e-3) @ g,
                vertex @ g,
                center + lift / (u @ u) * u,
            ]
            for i, p in enumerate(points):
                r = _central_containment(z, p, 1e-9, _scaled(z, p))
                for k in (-600, -20, 20, 600):
                    f = 2.0 ** k
                    zf = Zonotope(n, f * g)
                    scaled = _central_containment(zf, f * p, 1e-9 * f, _scaled(zf, f * p))
                    assert (scaled is None) is (r is None), (case, i, k)
                    assert r is None or np.array_equal(scaled.coefficients, r.coefficients)
                if case % 8 == 3 or i == 4:
                    # a singular Gram matrix (a flat hull), or a point outside
                    assert r is None, (case, i)
                if r is None:
                    continue
                certified += 1
                t = r.coefficients
                assert t.min() >= 0.0 and t.max() <= 1.0 and r.distance <= 1e-9, (case, i)
                assert r.distance == float(np.abs(t @ g - p).sum())
                assert _lp_point_distance(z, p)[0] <= 1e-9, (case, i)
                with monkeypatch.context() as patched:
                    patched.setattr("lorenz_hulls.hulls.linprog", refuse_lp)
                    assert np.array_equal(contains_point(z, p).coefficients, t)
        assert certified >= 50

    def test_dual_witness_corpus(self):
        # zero rows, parallel generators, points on an axis, scales 2^-600,
        # 1 and 2^600: the dual witness separates in closed form, and its
        # margin is the optimum of separating_direction
        rng = case_rng(20, "test.contains.dual")
        for case in range(60):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 12))
            g = rng.normal(size=(m, n))
            g[rng.random(m) < 0.2] = 0.0
            if m > 1:
                g[-1] = g[0] * rng.uniform(-3.0, 3.0)
            f = 2.0 ** (-600, 0, 600)[case % 3]
            z = Zonotope(n, f * g)
            mass = f * np.abs(g).sum()
            if case % 4 == 0:
                p = np.zeros(n)
                p[case % n] = (mass + f) * rng.choice([-1.0, 1.0])
            else:
                # beyond the support plane of a random direction
                u = rng.normal(size=n)
                center = z.total() / 2.0
                lift = reach(z, u) + f * rng.uniform(0.01, 1.0) - u @ center
                p = center + lift / (u @ u) * u
            r = contains_point(z, p, tol=1e-9 * f)
            assert not r.inside, case
            margin = float(r.witness @ p) - reach(z, r.witness)
            _, best = separating_direction(z, p)
            assert np.abs(r.witness).max() <= 1.0 and margin > 1e-9 * f, case
            assert abs(margin - best) <= 1e-12 * (mass + np.abs(p).sum()), case

    def test_separating_direction_is_the_certified_optimum(self, monkeypatch):
        # n = 4...6 from LARGE_M[n] up to 80 generators; Gaussian, integer
        # and duplicate rows; points at a vertex +- k tol; scales 2^+-20 and
        # 2^+-600.  On every outside verdict separating_direction solves no
        # LP, its direction is contains_point's witness, whose closed-form
        # margin is the distance, and that is the LP optimum within HiGHS's
        # error; all outputs scale exactly
        rng = case_rng(26, "test.contains.one_lp")
        outside = 0
        for case in range(24):
            n = 4 + case % 3
            m = int(rng.integers(LARGE_M[n], 81))
            g = rng.normal(size=(m, n))
            if case % 3 == 1:
                g = np.round(4.0 * g)
            elif case % 3 == 2:
                g[1::2] = g[0::2][: m // 2]
            z = Zonotope(n, g)
            u = rng.normal(size=n)
            vertex = (g @ u > 0.0).astype(float) @ g
            step = np.where(np.arange(n) == np.argmax(np.abs(u)), np.sign(u), 0.0)
            for k in (-2.0, 0.5, 2.0, 4.0, 1e3):
                p = vertex + k * 1e-9 * step
                r = contains_point(z, p)
                for e in (-600, -20, 20, 600):
                    scaled = contains_point(Zonotope(n, np.ldexp(g, e)), np.ldexp(p, e), np.ldexp(1e-9, e))
                    assert scaled.inside is r.inside and scaled.distance == np.ldexp(r.distance, e)
                    for got, want in ((scaled.coefficients, r.coefficients), (scaled.witness, r.witness)):
                        assert (got is None) is (want is None) and (got is None or np.array_equal(got, want))
                if r.inside:
                    continue
                outside += 1
                with monkeypatch.context() as patched:
                    patched.setattr("lorenz_hulls.hulls.linprog", refuse_lp)
                    d, dist = separating_direction(z, p)
                assert np.array_equal(d, r.witness) and dist == r.distance, (case, k)
                assert float(d @ p) - reach(z, d) == dist > 1e-9, (case, k)
                assert abs(dist - _lp_point_distance(z, p)[0]) <= highs_error(z, p), (case, k)
                for e in (-600, -20, 20, 600):
                    d_e, dist_e = separating_direction(Zonotope(n, np.ldexp(g, e)), np.ldexp(p, e))
                    assert np.array_equal(d_e, d) and dist_e == np.ldexp(dist, e), (case, k, e)
        assert outside >= 30

    def test_outside_verdicts_within_the_lp_tolerance(self, monkeypatch):
        # points k tol beyond a vertex, along the axis of the largest
        # coordinate of its direction u, are exactly k tol away; HiGHS read
        # most of them at 10 tol as inside.  The ascent reads every one
        # outside with no LP, at k tol within rounding, its distance the
        # witness's closed-form margin
        monkeypatch.setattr("lorenz_hulls.hulls.linprog", refuse_lp)
        rng = case_rng(27, "test.contains.outside_tol")
        tol = 1e-9
        for case in range(24):
            n, m = 4 + case % 3, int(rng.integers(32, 81))
            g = rng.normal(size=(m, n))
            g *= rng.uniform(50.0, 100.0) / np.abs(g).sum()
            z = Zonotope(n, g)
            u = rng.normal(size=n)
            vertex = (g @ u > 0.0) @ g
            step = np.where(np.arange(n) == np.argmax(np.abs(u)), np.sign(u), 0.0)
            for k in (2.0, 10.0, 100.0):
                p = vertex + k * tol * step
                r = contains_point(z, p, tol=tol)
                assert not r.inside, (case, k)
                assert r.distance == float(r.witness @ p) - reach(z, r.witness), (case, k)
                rounding = 8 * (m + n) * 2.0**-53 * (np.abs(g).sum() + np.abs(p).sum())
                assert abs(r.distance - k * tol) <= rounding, (case, k)

    def test_degenerate_outside_witnesses_separate(self):
        # duplicate, antiparallel, zero, integer and flat rows, n = 3...6,
        # from LARGE_M[n] up to 80 generators, scales 2^-600 ... 2^600: every
        # outside witness separates in closed form, by the reported
        # distance, which is the LP optimum within HiGHS's error
        rng = case_rng(28, "test.contains.degenerate")
        for case in range(40):
            n = 3 + case % 4
            m = int(rng.integers(LARGE_M[n], 81))
            g = rng.normal(size=(m, n))
            kind = case % 5
            if kind == 0:
                g[1::2] = g[0::2][: m // 2]
            elif kind == 1:
                g[1::2] = g[0::2][: m // 2] * rng.choice([-2.0, -1.0, -0.5])
            elif kind == 2:
                g[rng.random(m) < 0.3] = 0.0
            elif kind == 3:
                g = np.round(2.0 * g)
            else:
                g[:, -1] = 0.0
            f = 2.0 ** (-600, -20, 0, 20, 600)[case // 8]
            z = Zonotope(n, f * g)
            u = rng.normal(size=n)
            center = g.sum(axis=0) / 2.0
            lift = reach(Zonotope(n, g), u) + np.abs(g).sum() * 10.0 ** rng.uniform(-6.0, 0.0) - u @ center
            vertex = (g @ u > 0.0) @ g
            step = np.where(np.arange(n) == np.argmax(np.abs(u)), np.sign(u), 0.0)
            for p in (f * (center + lift / (u @ u) * u), f * (vertex + 10.0 * step)):
                r = contains_point(z, p, tol=1e-9 * f)
                assert not r.inside, case
                margin = float(r.witness @ p) - reach(z, r.witness)
                assert np.abs(r.witness).max() <= 1.0 and r.distance == margin > 1e-9 * f, case
                assert abs(r.distance - _lp_point_distance(z, p)[0]) <= highs_error(z, p), case

    def test_uncapped_and_capped_ascent_agree(self, monkeypatch):
        # with the walk capped at 0 steps every point the central
        # certificate leaves goes to the LP, which gives the same verdicts
        rng = case_rng(29, "test.contains.cap")
        for case in range(6):
            n, m = 4 + case % 3, int(rng.integers(40, 81))
            z = Zonotope(n, rng.normal(size=(m, n)))
            u = rng.normal(size=n)
            vertex = (z.generators @ u > 0.0) @ z.generators
            step = np.where(np.arange(n) == np.argmax(np.abs(u)), np.sign(u), 0.0)
            center = z.total() / 2.0
            points = [vertex + 1e-3 * (center - vertex), vertex, vertex + 1e-3 * step, vertex + step]
            points.append(rng.uniform(0.0, 1.0, m) @ z.generators)
            walked = [contains_point(z, p) for p in points]
            with monkeypatch.context() as patched:
                patched.setattr("lorenz_hulls.hulls._ASCENT_PIVOTS", 0)
                capped = [contains_point(z, p) for p in points]
            assert [r.inside for r in walked] == [r.inside for r in capped] == [True, True, False, False, True]
            for p, a, b in zip(points, walked, capped):
                assert abs(a.distance - b.distance) <= highs_error(z, p), case

    def test_small_witness_needs_no_recheck(self, monkeypatch):
        monkeypatch.setattr("lorenz_hulls.hulls.linprog", refuse_lp)
        p = np.array([1.5, 0.0])
        r = contains_point(SQUARE, p)
        # the ascent's witness separates by the distance itself
        assert not r.inside and r.distance == 0.5
        assert float(r.witness @ p) - reach(SQUARE, r.witness) == 0.5

    def test_witness_is_the_separating_direction(self):
        # n = 2...4, m = 1...8, points beyond a random support plane: one
        # route at every size, so the outside witness is, byte for byte,
        # the direction of separating_direction, at its distance
        rng = case_rng(30, "test.contains.one_witness")
        for case in range(60):
            n, m = 2 + case % 3, int(rng.integers(1, 9))
            z = Zonotope(n, rng.normal(size=(m, n)))
            u = rng.normal(size=n)
            center = z.total() / 2.0
            lift = reach(z, u) + np.abs(z.generators).sum() * rng.uniform(0.01, 1.0) - u @ center
            p = center + lift / (u @ u) * u
            r = contains_point(z, p)
            d, dist = separating_direction(z, p)
            assert not r.inside, case
            assert r.witness.tobytes() == d.tobytes() and r.distance == dist, case

    def test_ascent_matches_its_reference(self, monkeypatch):
        # the walk against reference_ascent, byte for byte: n = 1...6,
        # m = 0...80; Gaussian, zero, parallel, antiparallel, duplicate,
        # integer, lattice, nearly parallel (2^-30 ... 2^-1070 apart), tiny (2^-40
        # ... 2^-1060 long) and flat rows; scales 2^-600 ... 2^600; points
        # inside, at a vertex, on a face, just or far outside and at random;
        # _ASCENT_PIVOTS as it is, 1 and 0.  The walk's own bases stay far
        # from singular, so inverses scaled by 2^1000, inf, NaN or 0 every
        # few steps stand for bases that are not: NaN and infinite gains,
        # multipliers and steps, once per walk
        rng = case_rng(32, "test.contains.ascent_oracle")
        kinds = ("gauss", "zero", "parallel", "antiparallel", "duplicate", "integer", "lattice", "near", "tiny", "flat")
        seen = {"certified": 0, "uncertified": 0}
        for case in range(300):
            n, kind = 1 + case % 6, kinds[(case // 6) % len(kinds)]
            m = int(rng.integers(0, 81)) if case % 5 == 0 else int(rng.choice([0, 1, 2, n, n + 1, 2 * n, 8, 16]))
            g = rng.normal(size=(m, n))
            half = g[0::2][: m // 2]
            if kind == "zero":
                g[rng.random(m) < 0.3] = 0.0
            elif kind == "parallel":
                g[1::2] = half * rng.uniform(0.25, 4.0, (m // 2, 1))
            elif kind == "antiparallel":
                g[1::2] = half * -rng.uniform(0.25, 4.0, (m // 2, 1))
            elif kind == "duplicate":
                g[1::2] = half
            elif kind == "integer":
                g = np.round(2.0 * g)
            elif kind == "lattice":  # rows in {-1, 0, 1}^n: tied gains
                g = np.sign(np.round(g))
            elif kind == "near":
                g[1::2] = half + np.ldexp(rng.normal(size=half.shape), -int(rng.choice([30, 42, 300, 1070])))
            elif kind == "tiny":
                g[rng.random(m) < 0.4] *= 2.0 ** -int(rng.choice([40, 500, 1000, 1060]))
            elif kind == "flat" and n > 1:
                g[:, -1] = 0.0
            f = 2.0 ** int(rng.choice([-600, -30, 0, 30, 600]))
            z = Zonotope(n, f * g)
            u = rng.normal(size=n)
            vertex = (g @ u > 0.0).astype(float)
            face = vertex.copy()
            face[rng.integers(0, max(m, 1), 2 if m else 0)] = rng.uniform(0.0, 1.0, 2 if m else 0)
            step = np.where(np.arange(n) == np.argmax(np.abs(u)), np.sign(u), 0.0)
            mass = np.abs(g).sum() + 1.0
            points = [
                rng.uniform(0.0, 1.0, m) @ g,
                vertex @ g,
                face @ g,
                vertex @ g + mass * 10.0 ** rng.uniform(-12.0, 0.0) * step,
                g.sum(axis=0) / 2.0 + mass * rng.normal(size=n),
            ]
            cap = (_ASCENT_PIVOTS, _ASCENT_PIVOTS, 1, 0)[case % 4]
            poison = (2.0**1000, np.inf, -np.inf, np.nan, 0.0)[case // 3 % 5] if case % 3 == 2 else None
            for i, p in enumerate(points):
                p = f * p
                inverses = [poisoned_inverse(1 + i % 3, poison) for _ in "ab"] if poison is not None else []
                with monkeypatch.context() as patched:
                    patched.setattr("lorenz_hulls.hulls._ASCENT_PIVOTS", cap)
                    for inv in inverses[:1]:
                        patched.setattr(np.linalg, "inv", inv)
                    want = reference_ascent(z, p)
                    for inv in inverses[1:]:
                        patched.setattr(np.linalg, "inv", inv)
                    got = _ascent_distance(*_scaled(z, p))
                assert same_bits(got, want), (case, i)
                seen["uncertified" if want is None else "certified"] += 1
        assert min(seen.values()) >= 100, seen

    def test_scaled_tolerance_corpus(self, monkeypatch):
        # n = 2...4, m = 1...11; Gaussian, integer, parallel, antiparallel
        # and flat rows; scales 2^k with tol 1e-9 2^k.  With no LP, inside
        # points and vertices read inside by t in [0, 1]^m within tol, and
        # points beyond a support plane read outside by a witness whose
        # closed-form margin is the distance, within its rounding
        monkeypatch.setattr("lorenz_hulls.hulls.linprog", refuse_lp)
        rng = case_rng(31, "test.contains.scaled_tol")
        for case in range(150):
            n, m, kind = 2 + case % 3, int(rng.integers(1, 12)), case % 5
            g = rng.normal(size=(m, n))
            if kind == 1:
                g = np.round(2.0 * g)
            elif kind in (2, 3):
                g[1::2] = g[0::2][: m // 2] * rng.uniform(0.5, 2.0) * (-1.0) ** kind
            elif kind == 4:
                g[:, -1] = 0.0
            u = rng.normal(size=n)
            center = g.sum(axis=0) / 2.0
            lift = reach(Zonotope(n, g), u) + np.abs(g).sum() * rng.uniform(0.01, 1.0) - u @ center
            inside = [rng.uniform(0.0, 1.0, m) @ g, (g @ u > 0.0) @ g]
            outside = center + lift / (u @ u) * u
            for k in (-600, -20, 0, 20, 600):
                f, tol = 2.0**k, 1e-9 * 2.0**k
                z = Zonotope(n, f * g)
                for p in inside:
                    r = contains_point(z, f * p, tol=tol)
                    t = r.coefficients
                    assert r.inside and t.min() >= 0.0 and t.max() <= 1.0, (case, k)
                    assert np.abs(t @ z.generators - f * p).sum() <= tol, (case, k)
                p = f * outside
                r = contains_point(z, p, tol=tol)
                margin = float(r.witness @ p) - closed_reach(z, r.witness)[0]
                rounding = 8 * (m + n) * 2.0**-53 * (np.abs(z.generators).sum() + np.abs(p).sum())
                assert not r.inside and np.abs(r.witness).max() <= 1.0, (case, k)
                assert margin > tol and abs(margin - r.distance) <= rounding, (case, k)


class TestIncludes:
    def test_tol_must_be_finite_and_positive(self):
        big = Zonotope(2, [[3, 0], [0, 3]])
        for tol in BAD_TOLS:
            for mode in ("exact2d", "sampled"):
                with pytest.raises(ValueError, match="tol must be finite and positive"):
                    includes(big, SQUARE, mode, tol=tol)

    def test_reflexive(self):
        assert includes(SQUARE, SQUARE).verdict == "included"
        assert includes(SQUARE, SQUARE, "sampled", dirs=64).verdict == "no_violation_found"

    def test_scaled_inside(self):
        inner = Zonotope(2, [[0.3, 0], [0, 0.9]])
        assert includes(inner, SQUARE).verdict == "included"

    def test_square_not_in_diagonal_segment(self):
        segment = Zonotope(2, [[1, 1]])
        r = includes(SQUARE, segment)
        assert r.verdict == "excluded"
        assert reach(SQUARE, r.witness) > reach(segment, r.witness) + 1e-9

    def test_sampled_any_dimension(self):
        inner = Zonotope(3, [[0.5, 0, 0]])
        outer = Zonotope(3, np.eye(3))
        assert includes(inner, outer, "sampled", dirs=200).verdict == "no_violation_found"
        r = includes(outer, inner, "sampled", dirs=200)
        assert r.verdict == "excluded"

    def test_near_parallel_chain_facet_violation(self):
        # a point 4e-9 outside the short facet at the tenth vertex of the
        # chain's lower walk; the merged walk only sees 3.5e-10
        gens, angles = near_parallel_chain()
        outer = Zonotope(2, gens)
        mid = 0.5 * (angles[9] + angles[10])
        n_out = np.array([np.sin(mid), -np.cos(mid)])
        inner = Zonotope(2, (gens[:10].sum(axis=0) + 4e-9 * n_out)[None, :])
        violation = closed_reach(inner, n_out)[0] - closed_reach(outer, n_out)[0]
        assert violation > 3.9e-9
        r = includes(inner, outer)
        assert r.verdict == "excluded"
        at_witness = closed_reach(inner, r.witness)[0] - closed_reach(outer, r.witness)[0]
        assert abs(r.max_violation - at_witness) <= 1e-14 * np.abs(gens).sum()
        assert r.max_violation >= violation / np.abs(n_out).sum() - 1e-14 * np.abs(gens).sum()

    def test_exact2d_guard(self):
        with pytest.raises(Exact2dOnPlaneOnly):
            includes(Zonotope(3, []), Zonotope(3, []), "exact2d")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown inclusion mode 'exact'"):
            includes(SQUARE, SQUARE, "exact")

    def test_outer_without_generators(self):
        # the outer hull is the origin alone, cut out by the +-axes
        origin = Zonotope(2, [])
        assert includes(origin, origin).verdict == "included"
        tiny = includes(Zonotope(2, [[0.0, -1e-10]]), origin)
        assert tiny.verdict == "included" and tiny.max_violation == 1e-10
        r = includes(Zonotope(2, [[-1.0, 0.5], [0.0, 2.0]]), origin)
        assert r.verdict == "excluded"
        assert r.witness.tolist() == [0.0, 1.0] and r.max_violation == 2.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            includes(SQUARE, Zonotope(3, []))


def brute_hausdorff_segments(a, b, samples=4001):
    grid = np.linspace(0.0, 1.0, samples)
    pa = grid[:, None] * np.asarray(a, float)[None, :]
    pb = grid[:, None] * np.asarray(b, float)[None, :]

    def directed(p, q):
        worst = 0.0
        for i in range(0, len(p), 1024):
            block = np.abs(p[i : i + 1024, None, :] - q[None, :, :]).sum(axis=2)
            worst = max(worst, float(block.min(axis=1).max()))
        return worst

    return max(directed(pa, pb), directed(pb, pa))


class TestHausdorffConvex:
    def test_identical_is_zero(self):
        r = hausdorff_convex(SQUARE, SQUARE)
        assert r.distance == 0.0 and r.mode == "exact"

    def test_nested_segments(self):
        r = hausdorff_convex(Zonotope(2, [[1, 0]]), Zonotope(2, [[2, 0]]))
        assert r.distance == pytest.approx(1.0, abs=1e-12)

    def test_square_vs_origin(self):
        r = hausdorff_convex(SQUARE, Zonotope(2, []))
        assert r.distance == pytest.approx(2.0, abs=1e-12)

    def test_near_parallel_chain_against_its_sum(self):
        # the chain's merged walk equals the segment to its sum, which made
        # the exact route report 0.0 for a distance above the 1e-9 tolerance
        gens, _ = near_parallel_chain()
        z1, z2 = Zonotope(2, gens), Zonotope(2, gens.sum(axis=0, keepdims=True))
        both = np.vstack([z1.generators, z2.generators])
        perp = np.column_stack([-both[:, 1], both[:, 0]])
        perp = perp / np.abs(perp).max(axis=1, keepdims=True)
        cands = np.vstack([[[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], perp, -perp])
        want = np.abs(closed_reach(z1, cands) - closed_reach(z2, cands)).max()
        assert want > 4e-9
        r = hausdorff_convex(z1, z2)
        assert r.mode == "exact"
        assert abs(r.distance - want) <= 1e-14 * 2.0 * np.abs(gens).sum()

    def test_maximizer_need_not_be_sign_vector(self):
        # the (2,1)/(1,2) segment pair: sign vectors only see distance 1
        r = hausdorff_convex(Zonotope(2, [[2, 1]]), Zonotope(2, [[1, 2]]))
        assert r.distance == pytest.approx(1.5, abs=1e-12)
        assert r.distance == pytest.approx(
            brute_hausdorff_segments([2, 1], [1, 2]), abs=1e-3
        )

    def test_segment_pairs_match_brute_force(self):
        rng = case_rng(6, "test.hausdorff")
        for _ in range(5):
            a, b = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            exact = hausdorff_convex(Zonotope(2, a[None]), Zonotope(2, b[None]))
            pitch = max(np.abs(a).sum(), np.abs(b).sum()) / 4000
            assert abs(exact.distance - brute_hausdorff_segments(a, b)) <= 2 * pitch

    def test_lp_route_matches_planar_exact(self):
        # embed a planar pair into 3- and 4-space: the arrangement route
        # must agree with the planar route
        rng = case_rng(7, "test.hausdorff.lp")
        g1 = rng.uniform(-1, 1, (4, 2))
        g2 = rng.uniform(-1, 1, (3, 2))
        planar = hausdorff_convex(Zonotope(2, g1), Zonotope(2, g2))
        for n in (3, 4):
            lifted = hausdorff_convex(
                Zonotope(n, np.column_stack([g1, np.zeros((4, n - 2))])),
                Zonotope(n, np.column_stack([g2, np.zeros((3, n - 2))])),
            )
            assert lifted.mode == "exact"
            assert lifted.distance == pytest.approx(planar.distance, abs=1e-8)

    def test_3d_route_matches_lp_oracle(self):
        # the arrangement route in n = 3 ... 6 against LPs over subset sums
        def seeded_side(rng, family, n):
            m = int(rng.integers(0, 6))
            if family == "integer":
                return Zonotope(n, rng.integers(-2, 3, (m, n)).astype(float))
            g = rng.normal(size=(m, n))
            if family == "parallel" and m > 1:
                g[1:] = g[:1] * rng.uniform(-2, 2, (m - 1, 1))
            elif family == "coplanar":
                g[:, -1] = 0.0
            elif family == "zero":
                g[rng.random(m) < 0.3] = 0.0
            elif family == "axis":
                g[rng.random((m, n)) < 0.4] = 0.0
            return Zonotope(n, g)

        def lp_oracle(z1, z2):
            # the larger directed distance, each a maximum of point-to-hull
            # LP distances over the subset sums of one side
            return max(
                _lp_point_distance(target, p)[0]
                for source, target in ((z1, z2), (z2, z1))
                for p in skeleton_points(VectorMeasure(z1.dimension, source.generators)).points
            )

        rng = case_rng(12, "test.hausdorff.3d")
        empty = Zonotope(3, np.zeros((0, 3)))
        pairs = [(empty, empty), (seeded_side(rng, "generic", 3), empty)]
        # peaks where two planes meet inside a facet, at +c and at -c
        pairs += [CROSS_PEAK, tuple(Zonotope(3, -z.generators) for z in CROSS_PEAK)]
        for n in (3, 4, 5, 6):
            for family in ("generic", "parallel", "coplanar", "zero", "axis", "integer"):
                pairs += [
                    (seeded_side(rng, family, n), seeded_side(rng, family, n)) for _ in range(3)
                ]
            pairs.append((Zonotope(n, np.zeros((0, n))), pairs[-1][0]))
        for z1, z2 in pairs:
            mass = np.abs(z1.generators).sum() + np.abs(z2.generators).sum()
            r = hausdorff_convex(z1, z2)
            assert r.mode == "exact" and r.witness_direction is None
            assert abs(r.distance - lp_oracle(z1, z2)) <= 1e-12 * mass
            # the witness is a subset sum of one side at that distance from the other
            w = r.witness_point
            far = max(_lp_point_distance(z1, w)[0], _lp_point_distance(z2, w)[0])
            assert abs(far - r.distance) <= 1e-12 * mass

    def test_3d_route_scales_exactly(self):
        # powers of two scale every step exactly, even where products of two
        # coordinates would overflow or underflow
        z1, z2 = CROSS_PEAK
        base = hausdorff_convex(z1, z2).distance
        assert base == 3.0
        for k in (-1000, -600, 600, 1000):
            f = 2.0 ** k
            r = hausdorff_convex(Zonotope(3, z1.generators * f), Zonotope(3, z2.generators * f))
            assert r.distance == base * f

    def test_lp_route_scales_exactly(self):
        # n = 4 goes through the arrangement route, whose unit-row scaling
        # and support sums are exact under powers of two
        rng = case_rng(16, "test.hausdorff.lp.scale")
        z1 = Zonotope(4, rng.normal(size=(4, 4)))
        z2 = Zonotope(4, rng.normal(size=(3, 4)))
        base = hausdorff_convex(z1, z2)
        assert base.mode == "exact" and base.distance > 0.0
        for k in (-600, -300, 300, 600):
            f = 2.0 ** k
            r = hausdorff_convex(Zonotope(4, z1.generators * f), Zonotope(4, z2.generators * f))
            assert r.mode == "exact" and r.distance == base.distance * f
            assert np.array_equal(r.witness_point, base.witness_point * f)

    def test_planar_matches_dense_reference(self):
        def seeded_pair_side(rng, m):
            g = rng.normal(size=(m, 2)) * rng.uniform(0.1, 10.0)
            # parallel and antiparallel copies, exact zeros, axis generators
            copies = rng.integers(0, m, m // 4)
            g[rng.integers(0, m, m // 4)] = g[copies] * rng.uniform(-3, 3, (copies.size, 1))
            g[rng.random(m) < 0.05] = 0.0
            g[rng.random(m) < 0.05, 1] = 0.0
            return Zonotope(2, g)

        def dense_reference(z1, z2):
            gens = np.vstack([z1.generators, z2.generators])
            gens = gens[np.abs(gens).sum(axis=1) > 0.0]
            perp = np.column_stack([-gens[:, 1], gens[:, 0]])
            perp = perp / np.abs(perp).max(axis=1, keepdims=True)
            corner = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
            cands = np.vstack([corner, perp, -perp])
            return np.abs(closed_reach(z1, cands) - closed_reach(z2, cands)).max()

        rng = case_rng(11, "test.hausdorff.planar")
        for m in (1, 2, 5, 20, 100, 500, 2000):
            z1 = seeded_pair_side(rng, m)
            z2 = seeded_pair_side(rng, int(rng.integers(1, m + 1)))
            mass = np.abs(z1.generators).sum() + np.abs(z2.generators).sum()
            r = hausdorff_convex(z1, z2)
            assert r.mode == "exact"
            assert abs(r.distance - dense_reference(z1, z2)) <= 1e-12 * mass

    def test_planar_probes_match_input_order(self):
        # the probes in the generators' input order are the reference: the
        # planar route takes the same probes from each side's angle-sorted
        # normal form, so every distance keeps its bytes, and its witness,
        # a point of the box surface, attains it
        def input_order(z1, z2):
            gens = np.vstack([z1.generators, z2.generators])
            gens = gens[np.abs(gens).sum(axis=1) > 0.0]
            perp = np.column_stack([-gens[:, 1], gens[:, 0]])
            perp = perp / np.abs(perp).max(axis=1, keepdims=True)
            corner = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
            cands = np.vstack([corner, perp, -perp])
            return np.abs(reach_many(z1, cands) - reach_many(z2, cands)).max()

        rng = case_rng(31, "test.hausdorff.planar.order")
        empty = np.zeros((0, 2))
        pairs = [(empty, empty)]
        for m in range(1, 25):
            dyadic = rng.integers(-8, 9, (2, m, 2)) / 4.0
            g = rng.normal(size=(m, 2))
            shared = np.vstack([g[rng.permutation(m)[: m // 2 + 1]], rng.normal(size=(m // 3, 2))])
            pairs += [tuple(dyadic), (g, shared), (dyadic[0], empty), (empty, g)]
        for g1, g2 in pairs:
            for k in (0, 600, -600):
                z1, z2 = Zonotope(2, np.ldexp(g1, k)), Zonotope(2, np.ldexp(g2, k))
                r = hausdorff_convex(z1, z2)
                assert r.distance.hex() == input_order(z1, z2).hex(), (len(g1), len(g2), k)
                w = r.witness_direction
                assert np.abs(w).max() == 1.0
                assert np.abs(reach_many(z1, w) - reach_many(z2, w))[0] == r.distance

    def test_sampled_mode_reported(self):
        rng = case_rng(8, "test.hausdorff.sampled")
        # 40 nonzero generators in n = 6 bound the facet vertices at 9.1e7
        # coordinates, past the direction-set guard; 80 in n = 20 at 3.3e23,
        # which only a guard run before any allocation answers at once: there
        # the sign vectors' own guard refuses
        for n, m in ((6, 20), (20, 40)):
            assert _arrangement_size(2 * m, n) * n > DIRECTION_COORDINATE_LIMIT
            z1 = Zonotope(n, rng.uniform(-1, 1, (m, n)))
            z2 = Zonotope(n, rng.uniform(-1, 1, (m, n)))
            if n == 20:
                with pytest.raises(SizeGuard):
                    hausdorff_convex(z1, z2)
                continue
            r = hausdorff_convex(z1, z2)
            assert r.mode == "sampled"
            assert r.distance >= 0.0

    def test_sampled_probes_sign_vectors_past_n_16(self):
        # in n = 17 the sampled distance is the largest scaled gap over the
        # sign vectors and the seeded directions, at least the seeded
        # directions' alone; on the unit cube against the origin the sign
        # vector (1, ..., 1) attains 17, which no seeded direction nears
        rng = case_rng(32, "test.hausdorff.sampled.n17")
        cube, origin = Zonotope(17, np.eye(17)), Zonotope(17, [])
        pairs = [(cube, origin), (Zonotope(17, rng.normal(size=(5, 17))),
                                  Zonotope(17, rng.normal(size=(4, 17))))]
        for (z1, z2), seed in zip(pairs, (0, 5)):
            gens = np.vstack([z1.generators, z2.generators])
            assert _arrangement_size(len(gens), 17) * 17 > DIRECTION_COORDINATE_LIMIT
            seeded = unit_directions(case_rng(seed, "hausdorff.sampled"), 64, 17)
            probes = np.vstack([sign_vectors(17), seeded])
            scale = np.abs(probes).max(axis=1)
            gap = np.abs(reach_many(z1, probes) - reach_many(z2, probes)) / scale
            r = hausdorff_convex(z1, z2, seed=seed, dirs=64)
            assert r.mode == "sampled" and r.distance == gap.max()
            worst = int(np.argmax(gap))
            assert np.array_equal(r.witness_direction, probes[worst] / scale[worst])
            assert r.distance >= gap[-64:].max()
            if z1 is cube:
                assert r.distance == 17.0 > 2 * gap[-64:].max()

    def test_one_dimension_is_exact(self):
        # in n = 1 the distance is max |h1(+-1) - h2(+-1)|, the gaps at the
        # two ends of the segments, an empty side among them
        rng = case_rng(33, "test.hausdorff.n1")
        sides = [np.zeros((0, 1))]
        sides += [rng.normal(size=(int(rng.integers(1, 6)), 1)) for _ in range(8)]
        for g1 in sides:
            for g2 in sides[::-1]:
                h1 = (np.maximum(g1, 0.0).sum(), np.maximum(-g1, 0.0).sum())
                h2 = (np.maximum(g2, 0.0).sum(), np.maximum(-g2, 0.0).sum())
                want = max(abs(h1[0] - h2[0]), abs(h1[1] - h2[1]))
                r = hausdorff_convex(Zonotope(1, g1), Zonotope(1, g2))
                assert r.mode == "exact"
                assert abs(r.distance - want) <= 1e-15 * (np.abs(g1).sum() + np.abs(g2).sum())
                assert abs(r.witness_direction[0]) == 1.0

    def test_no_linear_program(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("hausdorff_convex solved a linear program")

        monkeypatch.setattr("lorenz_hulls.hulls.linprog", refuse)
        rng = case_rng(17, "test.hausdorff.no_lp")
        for n in (3, 4, 5, 6):
            z1 = Zonotope(n, rng.normal(size=(5, n)))
            z2 = Zonotope(n, rng.normal(size=(4, n)))
            assert hausdorff_convex(z1, z2).mode == "exact"
        # the 4-D pair of the CLI's extreme-scale test
        big = Zonotope(4, [[1e100, 2e100, 0, 1e100], [3e100, 0, 1e100, 1e100]])
        r = hausdorff_convex(big, Zonotope(4, [[1, 0, 0, 0]]))
        assert r.mode == "exact" and r.distance == pytest.approx(9e100, rel=1e-12)


class TestHausdorffPoints:
    def test_identical(self):
        s = skeleton_points(VectorMeasure(2, [[1, 0], [0, 1]]))
        assert hausdorff_points(s, s).distance == 0.0

    def test_hand_example(self):
        a = SkeletonPointSet(2, np.array([[0.0, 0.0]]), np.zeros(2))
        b = SkeletonPointSet(2, np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones(2))
        assert hausdorff_points(a, b).distance == 2.0

    def test_symmetry(self):
        rng = case_rng(9, "test.points")
        a = SkeletonPointSet(3, rng.uniform(-1, 1, (40, 3)), np.zeros(3))
        b = SkeletonPointSet(3, rng.uniform(-1, 1, (25, 3)), np.zeros(3))
        assert hausdorff_points(a, b).distance == hausdorff_points(b, a).distance

    def test_non_finite_point_rejected(self):
        ok = SkeletonPointSet(2, np.zeros((1, 2)), np.zeros(2))
        with pytest.raises(NonFiniteValue):
            hausdorff_points(SkeletonPointSet(2, np.array([[np.nan, 0.0]]), np.zeros(2)), ok)

    def test_wrong_width_rejected(self):
        ok = SkeletonPointSet(2, np.zeros((1, 2)), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            hausdorff_points(SkeletonPointSet(2, np.zeros((4, 3)), np.zeros(2)), ok)
        with pytest.raises(DimensionMismatch):
            SkeletonPointSet(2, np.zeros((4, 2)), np.zeros(3))

    def test_size_guard(self):
        huge = SkeletonPointSet(1, np.zeros(((1 << 20) + 1, 1)), np.zeros(1))
        small = SkeletonPointSet(1, np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(SizeGuard):
            hausdorff_points(huge, small)

    def test_tree_path_matches_direct(self):
        rng = case_rng(11, "test.points.tree")
        a = SkeletonPointSet(2, rng.uniform(-1, 1, (3000, 2)), np.zeros(2))
        b = SkeletonPointSet(2, rng.uniform(-1, 1, (2500, 2)), np.zeros(2))

        def directed(p, q):
            worst = 0.0
            for i in range(0, len(p), 500):
                block = np.abs(p[i : i + 500, None, :] - q[None, :, :]).sum(axis=2)
                worst = max(worst, float(block.min(axis=1).max()))
            return worst

        # 3000 x 2500 points in 2-D against the blocked brute force
        full = hausdorff_points(a, b).distance
        expected = max(directed(a.points, b.points), directed(b.points, a.points))
        assert full == pytest.approx(expected, abs=1e-12)


    def test_dense_and_tree_routes_agree(self):
        # 2048 x 2048 = 2^22 pairs in 3-D; the kd-tree sums each 1-norm in
        # coordinate order, as the blocked brute force does, so they are equal
        rng = case_rng(17, "test.points.threshold")
        a = rng.uniform(-1, 1, (2048, 3))
        b = rng.uniform(-1, 1, (2048, 3))
        tree = hausdorff_points(SkeletonPointSet(3, a, np.zeros(3)),
                                SkeletonPointSet(3, b, np.zeros(3)))
        brute = max(np.abs(p[i : i + 256, None, :] - q[None, :, :]).sum(axis=2).min(axis=1).max()
                    for p, q in ((a, b), (b, a)) for i in range(0, 2048, 256))
        assert tree.distance == brute

    def test_matches_plain_query_byte_for_byte(self):
        # distance and witness equal those of one full kd-tree query per row
        for label, a, b in _point_set_corpus():
            r = hausdorff_points(_points(a), _points(b))
            distance, witness = _plain_hausdorff_points(a, b)
            assert r.distance == distance, label
            assert np.array_equal(r.witness_point, witness), label

    def test_scales_exactly_by_powers_of_two(self):
        for label, a, b in _point_set_corpus():
            r = hausdorff_points(_points(a), _points(b))
            for k in (600, -600):
                s = hausdorff_points(_points(np.ldexp(a, k)), _points(np.ldexp(b, k)))
                assert s.distance == np.ldexp(r.distance, k), (label, k)
                assert np.array_equal(s.witness_point, np.ldexp(r.witness_point, k)), (label, k)

    def test_witness_is_lowest_index_row_at_the_maximum(self):
        # rows 0, 70 and 140 of 200 all lie 2 away from b; the rest are nearer
        a = np.zeros((200, 2))
        a[:, 0] = np.linspace(-0.5, 0.5, 200)
        a[[0, 70, 140]] = [[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0]]
        b = np.zeros((1, 2))
        for rows in (np.arange(200), np.arange(200)[::-1]):
            r = hausdorff_points(_points(a[rows]), _points(b))
            assert r.distance == 2.0
            assert np.array_equal(r.witness_point, a[rows][np.flatnonzero(
                np.abs(a[rows]).sum(axis=1) == 2.0)[0]])

    def test_paired_skeletons_match_plain_query(self, monkeypatch):
        # skeletons of measures with equal atom counts pair their rows by
        # subset; distance and witness are those of a full query of every
        # row, and of the same points built in public, which carry no pairs.
        # The paired passes reach each route of a directed pass: the window
        # scan to the end, a scan the budget stops after some distances (the
        # kd-tree takes over from them), and the kd-tree alone, refused
        # before any distance is computed
        from lorenz_hulls import hulls

        routes = {"scanned": 0, "stopped": 0, "refused": 0}
        scan = hulls._scanned_points_1norm

        def counting_scan(a, b, bound, block, budget, dist, floor):
            left = scan(a, b, bound, block, budget, dist, floor)
            stopped = "stopped" if (dist > -np.inf).any() else "refused"
            # a paired pass opens with _LEAD_BLOCK rows, an unpaired one with fewer
            routes["scanned" if left is not None else stopped] += block == hulls._LEAD_BLOCK
            return left

        monkeypatch.setattr(hulls, "_scanned_points_1norm", counting_scan)
        paired = 0
        for label, a, b in _skeleton_pair_corpus():
            n = a.shape[1]
            for k in (0, 600, -600):
                p1 = skeleton_points(VectorMeasure(n, np.ldexp(a, k)))
                p2 = skeleton_points(VectorMeasure(n, np.ldexp(b, k)))
                paired += p1._subset_rows.shape == p2._subset_rows.shape
                r = hausdorff_points(p1, p2)
                distance, witness = _plain_hausdorff_points(p1.points, p2.points)
                public = hausdorff_points(*(SkeletonPointSet(n, p.points, p.total) for p in (p1, p2)))
                for got in (r, public):
                    assert got.distance == distance, (label, k)
                    assert got.witness_point.tobytes() == witness.tobytes(), (label, k)
        assert paired == 3 * 145
        assert routes["scanned"] > 600, routes
        assert routes["stopped"] >= 6 and routes["refused"] >= 30, routes

    def test_unpaired_sets_match_plain_query(self, monkeypatch):
        # sets with no subset pairing (public sets, skeletons of different
        # atom counts) scan under breakpoint bounds while N1 + N2 < 2^15;
        # distance and witness are those of a full query of every row, at
        # scales 1 and 2^+-600.  The corpus reaches each outcome of an
        # unpaired pass: the scan to the end, a scan the budget stops (which
        # leaves the next pass to the kd-trees too, unscanned), and the
        # kd-tree alone above the size limit
        from lorenz_hulls import hulls

        routes = {"scanned": 0, "stopped": 0, "refused": 0}
        scan = hulls._scanned_points_1norm
        calls = []

        def counting_scan(a, b, bound, block, budget, dist, floor):
            assert block == hulls._UNPAIRED_LEAD_BLOCK
            left = scan(a, b, bound, block, budget, dist, floor)
            calls.append("scanned" if left is not None else "stopped")
            assert left is not None or (dist > -np.inf).any()
            return left

        monkeypatch.setattr(hulls, "_scanned_points_1norm", counting_scan)
        for label, p1, p2, scales in _unpaired_corpus():
            for k in scales:
                q1, q2 = (SkeletonPointSet(p.dimension, np.ldexp(p.points, k), p.total) for p in (p1, p2))
                if k == 0:  # keep the skeletons' subset rows
                    q1, q2 = p1, p2
                calls.clear()
                r = hausdorff_points(q1, q2)
                distance, witness = _plain_hausdorff_points(q1.points, q2.points)
                assert r.distance == distance, (label, k)
                assert r.witness_point.tobytes() == witness.tobytes(), (label, k)
                assert "stopped" not in calls[:-1], (label, k)
                for route in calls:
                    routes[route] += 1
                routes["refused"] += 0 if calls else 2
        assert routes["scanned"] >= 100 and routes["stopped"] >= 10 and routes["refused"] >= 6, routes

    def test_overflowing_pair_sums(self):
        # x_S - y_S overflows for the one-atom subset, so u_i = inf and the
        # window is the whole other set; the distance, to the origin, is
        # finite.  Between the public sets it overflows to inf
        for n in (1, 2, 3):
            atom = np.ones((1, n))
            atom[0, 0] = 1.5e308
            flipped = atom.copy()
            flipped[0, 0] = -1.5e308
            p1, p2 = skeleton_points(VectorMeasure(n, atom)), skeleton_points(VectorMeasure(n, flipped))
            r = hausdorff_points(p1, p2)
            distance, witness = _plain_hausdorff_points(p1.points, p2.points)
            assert np.isfinite(distance) and r.distance == distance, n
            assert r.witness_point.tobytes() == witness.tobytes(), n
            far = hausdorff_points(_points(p1.points[1:]), _points(p2.points[:1]))
            assert far.distance == np.inf == _plain_hausdorff_points(p1.points[1:], p2.points[:1])[0]

    def test_tree_route_at_extreme_scales(self, monkeypatch):
        # integer grids at 2^-1070 and 2^-1040 (subnormal: every 1-norm sum
        # is exact) and at 2^1000, n = 1-4: unpaired sets of 3 000 (20 000
        # in n = 1) and 20 000 points, and independent skeletons of 12 and 15
        # atoms; all take the kd-tree route but the skeletons in n = 1, which
        # the paired scan answers.  Distance and witness bytes equal a full
        # query of every row, and every row the kd-tree routine leaves at
        # -inf has a query value below the pass's maximum or its floor
        from lorenz_hulls import hulls

        directed = hulls._directed_points_1norm
        passes = []

        def checked(a, tree_b, order, bound, dist, floor):
            directed(a, tree_b, order, bound, dist, floor)
            seen = dist > -np.inf
            assert dist[seen].tobytes() == tree_b.query(a[seen], p=1)[0].tobytes()
            # some point lies nearer than the maximum or the floor: found
            # within it as radius
            best = max(dist.max(), floor)
            near = tree_b.query(a[~seen], p=1, distance_upper_bound=best)[0]
            assert (near < best).all()
            passes.append(int((~seen).sum()))

        monkeypatch.setattr(hulls, "_directed_points_1norm", checked)
        rng = case_rng(30, "test.points.tree.scales")
        inputs = 0
        for n in (1, 2, 3, 4):
            rows = 20000 if n == 1 else 3000  # the scan answers 3 000 in n = 1
            clouds = [(rng.integers(-99, 100, (rows, n)), rng.integers(-99, 100, (20000, n)))]
            atoms = [rng.integers(-8, 9, (2, m, n)) for m in (12, 15)]
            for k in (-1070, -1040, 1000):
                sets = [[_points(np.ldexp(x.astype(float), k)) for x in pair] for pair in clouds]
                sets += [[skeleton_points(VectorMeasure(n, np.ldexp(x.astype(float), k)))
                          for x in pair] for pair in atoms]
                for p1, p2 in sets:
                    before = len(passes)
                    r = hausdorff_points(p1, p2)
                    distance, witness = _plain_hausdorff_points(p1.points, p2.points)
                    assert r.distance == distance, (n, p1.point_count, p2.point_count, k)
                    assert r.witness_point.tobytes() == witness.tobytes(), (n, p1.point_count, k)
                    inputs += len(passes) > before
        assert inputs == 30 and sum(passes) > 0, (inputs, sum(passes))

    def test_second_pass_floored_by_the_first(self, monkeypatch):
        # the skeletons of 15 atoms in n = 3 and of their first 14, 32 768
        # and 16 384 points, past the unpaired scan's size limit: the second
        # set lies in the first, so every distance of the second pass is 0.
        # The first pass's maximum is its floor and search radius, so every
        # row it queries finds its nearest point within it, and none is
        # queried twice
        import scipy.spatial

        from lorenz_hulls import hulls

        queried = []

        class CountingTree(scipy.spatial.cKDTree):
            def query(self, x, *args, **kwargs):
                queried[-1].append(np.array(x, ndmin=2))
                return super().query(x, *args, **kwargs)

        directed = hulls._directed_points_1norm

        def counted(a, tree_b, order, bound, dist, floor):
            queried.append([])
            directed(a, tree_b, order, bound, dist, floor)
            if len(queried) == 2:
                assert floor > 0.0 and (dist[dist > -np.inf] == 0.0).all()

        atoms = case_rng(31, "test.points.floor").uniform(-1.0, 1.0, (15, 3))
        p1, p2 = (skeleton_points(VectorMeasure(3, atoms[:m])) for m in (15, 14))
        distance, witness = _plain_hausdorff_points(p1.points, p2.points)
        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        monkeypatch.setattr(hulls, "_directed_points_1norm", counted)
        r = hausdorff_points(p1, p2)
        assert r.distance == distance and r.witness_point.tobytes() == witness.tobytes()
        assert len(queried) == 2
        rows = np.vstack(queried[1])
        assert 0 < len(rows) == len(np.unique(rows, axis=0)) < p2.point_count

    def test_second_scan_floored_by_the_first(self, monkeypatch):
        # the same shape within the unpaired scan's budget, 2 048 and 1 024
        # points: the second scan computes no row whose bound lies below the
        # first pass's maximum, and finds only zeros
        from lorenz_hulls import hulls

        scan = hulls._scanned_points_1norm
        passes = []

        def checked(a, b, bound, block, budget, dist, floor):
            left = scan(a, b, bound, block, budget, dist, floor)
            passes.append(floor)
            if len(passes) == 2:
                assert floor > 0.0 and (dist[bound < floor] == -np.inf).all()
                assert (dist[dist > -np.inf] == 0.0).all()
            return left

        monkeypatch.setattr(hulls, "_scanned_points_1norm", checked)
        atoms = case_rng(31, "test.points.floor.scan").uniform(-1.0, 1.0, (11, 3))
        p1, p2 = (skeleton_points(VectorMeasure(3, atoms[:m])) for m in (11, 10))
        r = hausdorff_points(p1, p2)
        distance, witness = _plain_hausdorff_points(p1.points, p2.points)
        assert r.distance == distance and r.witness_point.tobytes() == witness.tobytes()
        assert len(passes) == 2 and passes[0] == -np.inf

    def test_tree_route_witness_among_ties(self):
        # 40 000 rows against one point, past the unpaired scan's size limit,
        # so the kd-tree route: 1 row in 20 lies exactly 2 away and the rest
        # nearer.  Most rows at the maximum are no block's first row, and
        # their anchor bound equals their query value and the largest
        # distance found, so none may be settled; the witness is the first
        rng = case_rng(30, "test.points.tree.ties")
        a = rng.uniform(-0.5, 0.5, (40000, 2))
        far = np.flatnonzero(rng.random(40000) < 0.05)
        t = rng.integers(0, 1 << 20, far.size) / 2.0**19
        a[far] = np.column_stack([t, 2.0 - t]) * rng.choice([-1.0, 1.0], (far.size, 2))
        r = hausdorff_points(_points(a), _points(np.zeros((1, 2))))
        assert r.distance == 2.0 and r.witness_point.tobytes() == a[far[0]].tobytes()

    def test_tree_route_with_no_finite_neighbour(self):
        # every 1-norm between the sets rounds up past the float range, so
        # the anchors' queries find no point; any point of the other set
        # then bounds the block, by inf.  The distance is inf, at the first row
        m = np.finfo(np.float64).max
        a = np.array([[m / 2, m / 2]])
        b = -np.ldexp(1.0 + case_rng(30, "test.points.tree.inf").random((40000, 2)), 971)
        r = hausdorff_points(_points(a), _points(b))
        distance, witness = _plain_hausdorff_points(a, b)
        assert r.distance == distance == np.inf
        assert r.witness_point.tobytes() == witness.tobytes() == a[0].tobytes()

    def test_window_may_miss_the_partner(self):
        # x = 1 + 2^-52 and its partner y = 2^-53 differ by 1 + 2^-53, which
        # rounds to u = 1, but the window's rounded end x - u = 2^-52 lies
        # above y: the window is empty and the distance is u itself
        for n in (1, 2, 3):
            x, y = np.zeros((1, n)), np.zeros((1, n))
            x[0, 0], y[0, 0] = 1.0 + 2.0**-52, 2.0**-53
            p1, p2 = skeleton_points(VectorMeasure(n, x)), skeleton_points(VectorMeasure(n, y))
            r = hausdorff_points(p1, p2)
            distance, witness = _plain_hausdorff_points(p1.points, p2.points)
            assert r.distance == distance == 1.0 and r.witness_point.tobytes() == witness.tobytes()

    def test_scan_sums_in_query_order(self):
        # coordinate gaps that mix 2^40, 1 and 2^-40, so that the computed
        # 1-norm of a pair depends on the order of its sums: every row the
        # window scan reaches carries the kd-tree's p = 1 query exactly,
        # with a partner's pair sum as its bound, with no bound (u = inf,
        # every row) and with breakpoint bounds, and the reversed order would
        # differ on some rows
        from scipy.spatial import cKDTree

        from lorenz_hulls.hulls import (
            _LEAD_BLOCK,
            _UNPAIRED_LEAD_BLOCK,
            _breakpoint_bounds,
            _scanned_points_1norm,
        )

        rng = case_rng(28, "test.points.scan.order")
        reordered = 0
        for n in (2, 3, 4, 5):
            scales = np.ldexp(1.0, rng.choice([-40, 0, 0, 40], (700, n)))
            a = rng.uniform(-1.0, 1.0, (400, n)) * scales[:400]
            b = a[rng.permutation(400)[:300]] + rng.uniform(-1.0, 1.0, (300, n)) * scales[400:]
            b = b[np.argsort(b[:, 0], kind="stable")]
            query = cKDTree(b).query(a, p=1)[0]
            partner = rng.integers(0, 300, 400)
            pair = sum(np.abs(a[:, k] - b[partner, k]) for k in range(n))
            for bound, block in ((_breakpoint_bounds(a, b), _UNPAIRED_LEAD_BLOCK),
                                 (pair, _LEAD_BLOCK), (np.full(400, np.inf), _LEAD_BLOCK)):
                dist = np.full(400, -np.inf)
                assert _scanned_points_1norm(a, b, bound, block, 1 << 62, dist, -np.inf) is not None
                seen = dist > -np.inf
                assert dist[seen].tobytes() == query[seen].tobytes(), n
                assert seen[query == query.max()].all(), n
            assert seen.all()
            backwards = [sum(np.abs(x[k] - b[:, k]) for k in reversed(range(n))).min() for x in a]
            reordered += int((np.array(backwards) != query).sum())
        assert reordered > 0

    def test_paired_skeletons_query_few_rows(self, monkeypatch):
        # a pair like the spatial benchmark's largest, 2^14 points a side in
        # n = 3: the window scan settles both directed passes with no
        # kd-tree, scanning 94 627 pairs, under 4 per point of both sets
        # (the budget allows 16, a full comparison 2^14)
        import scipy.spatial

        from lorenz_hulls import hulls

        rng = case_rng(26, "test.points.paired.count")
        atoms = rng.uniform(-1.0, 1.0, (14, 3))
        p1 = skeleton_points(VectorMeasure(3, atoms))
        p2 = skeleton_points(VectorMeasure(3, atoms + rng.uniform(-0.01, 0.01, atoms.shape)))
        distance, witness = _plain_hausdorff_points(p1.points, p2.points)
        built, scanned = [], []

        class CountingTree(scipy.spatial.cKDTree):
            def __init__(self, *args, **kwargs):
                built.append(len(args[0]))
                super().__init__(*args, **kwargs)

        scan = hulls._scanned_points_1norm

        def counting_scan(a, b, bound, block, budget, dist, floor):
            left = scan(a, b, bound, block, budget, dist, floor)
            scanned.append(budget - left)
            return left

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        monkeypatch.setattr(hulls, "_scanned_points_1norm", counting_scan)
        r = hausdorff_points(p1, p2)
        assert not built
        assert 0 < sum(scanned) < 4 * (p1.point_count + p2.point_count)
        assert r.distance == distance and r.witness_point.tobytes() == witness.tobytes()

    def test_paired_skeletons_import_no_scipy(self):
        # the spatial benchmark's skeleton job (14 atoms in n = 3 and a
        # +-0.01 perturbation) in a fresh interpreter: the window scan
        # answers, and no scipy module is imported (``-X importtime`` lists
        # every module imported on stderr)
        code = (
            "from lorenz_hulls import VectorMeasure, hausdorff_points, skeleton_points\n"
            "from lorenz_hulls.sampling import case_rng\n"
            "rng = case_rng(26, 'test.points.paired.count')\n"
            "atoms = rng.uniform(-1.0, 1.0, (14, 3))\n"
            "moved = atoms + rng.uniform(-0.01, 0.01, atoms.shape)\n"
            "print(repr(hausdorff_points(*(skeleton_points(VectorMeasure(3, x)) for x in (atoms, moved))).distance))\n"
        )
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "numpy" in imported and "lorenz_hulls.hulls" in imported
        assert not [name for name in imported if name.startswith("scipy")]
        rng = case_rng(26, "test.points.paired.count")
        atoms = rng.uniform(-1.0, 1.0, (14, 3))
        moved = atoms + rng.uniform(-0.01, 0.01, atoms.shape)
        want = hausdorff_points(*(skeleton_points(VectorMeasure(3, x)) for x in (atoms, moved)))
        assert float(proc.stdout) == want.distance

    def test_empty_sets(self):
        empty = _points(np.zeros((0, 2)))
        r = hausdorff_points(empty, empty)
        assert r.distance == 0.0 and r.mode == "exact" and r.witness_point is None
        one = _points(np.ones((1, 2)))
        for pair in ((empty, one), (one, empty)):
            with pytest.raises(SizeGuard):
                hausdorff_points(*pair)


def _points(rows: np.ndarray) -> SkeletonPointSet:
    return SkeletonPointSet(rows.shape[1], rows, np.zeros(rows.shape[1]))


def _plain_hausdorff_points(a: np.ndarray, b: np.ndarray):
    """Reference: a full kd-tree query of every row both ways, first row in
    input order at the maximum, the a-to-b direction winning ties."""
    from scipy.spatial import cKDTree

    found = []
    for p, q in ((a, b), (b, a)):
        d = cKDTree(q).query(p, p=1)[0]
        worst = int(np.argmax(d))
        found.append((float(d[worst]), p[worst]))
    return found[0] if found[0][0] >= found[1][0] else found[1]


def _lexsort_skeleton(atoms: np.ndarray):
    """Reference skeleton: the 2^m subset sums in subset order, sorted by one
    np.lexsort over every coordinate, duplicates collapsed; the points and
    each subset's row."""
    sums = np.zeros((1 << len(atoms), atoms.shape[1]))
    for j, atom in enumerate(atoms):
        sums[1 << j : 2 << j] = sums[: 1 << j] + atom
    order = np.lexsort(sums.T[::-1])
    fresh = np.concatenate([[True], (sums[order][1:] != sums[order][:-1]).any(axis=1)])
    rows = np.empty(len(order), dtype=np.int32)
    rows[order] = np.cumsum(fresh) - 1
    return sums[order][fresh], rows


def _skeleton_pair_corpus():
    """Seeded (label, a, b) atom arrays whose skeletons are compared: 145 of
    equal atom counts (perturbed, dyadic with duplicates, with zero-sum
    subsets, equal, independent, near, wider, with tied first coordinates)
    and 25 with a split atom."""
    rng = case_rng(25, "test.points.paired")
    for n in range(1, 6):
        for m in (0, 1, 3, 6, 10):
            a = rng.uniform(-1.0, 1.0, (m, n))
            yield f"perturbed n={n} m={m}", a, a + rng.uniform(-0.01, 0.01, a.shape)
            dyadic = rng.integers(-2, 3, (m, n)) / 4.0
            dyadic[: m // 2] = dyadic[0] if m else dyadic[: m // 2]
            yield f"dyadic n={n} m={m}", dyadic, dyadic + rng.integers(-1, 2, (m, n)) / 4.0
            # a, -a and zero atoms: many subsets sum to 0
            half = rng.uniform(-1.0, 1.0, (m // 2, n))
            zero_sum = np.vstack([half, -half, np.zeros((m % 2, n))])
            yield f"zero sums n={n} m={m}", zero_sum, zero_sum + rng.uniform(-0.01, 0.01, zero_sum.shape)
            yield f"equal n={n} m={m}", a, a.copy()
            yield f"independent n={n} m={m}", a, rng.uniform(-1.0, 1.0, (m, n))
            if m:
                split = np.vstack([a[1:], 0.25 * a[:1], 0.75 * a[:1]])
                yield f"split n={n} m={m}", a, split
    # 20 more of equal atom counts, each n = 1...5: near pairs (+-0.01,
    # scanned), wider ones (+-0.1, where some scans stop short), independent
    # ones (the kd-tree), and dyadic atoms that all share x0 (few distinct
    # first coordinates, duplicate points)
    for n in range(1, 6):
        a = rng.uniform(-1.0, 1.0, (12, n))
        yield f"near n={n} m=12", a, a + rng.uniform(-0.01, 0.01, a.shape)
        a = rng.uniform(-1.0, 1.0, (12, n))
        yield f"wider n={n} m=12", a, a + rng.uniform(-0.1, 0.1, a.shape)
        yield f"far n={n} m=12", rng.uniform(-1.0, 1.0, (12, n)), rng.uniform(-1.0, 1.0, (12, n))
        tied = rng.integers(-2, 3, (10, n)) / 4.0
        tied[:, 0] = 0.25
        nudge = rng.integers(-1, 2, (10, n)) / 4.0
        nudge[:, 0] = 0.0
        yield f"tied x0 n={n} m=10", tied, tied + nudge


def _unpaired_corpus():
    """Seeded (label, p1, p2, scales) point sets with no subset pairing:
    segments sampled as in the hausdorff suite, dense n = 1 lines, duplicate
    points, random clouds (which the budget stops, and above the size limit
    the kd-tree answers alone), skeletons with a split atom or one atom
    fewer, and sums that overflow to inf (at scale 1 only)."""
    rng = case_rng(29, "test.points.unpaired")
    grid = np.linspace(0.0, 1.0, 10_000)[:, None]
    for _ in range(3):
        u, v = rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)
        yield f"segments {u} {v}", _points(grid * u), _points(grid * v), (0, 600, -600)
    u, v = rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)
    yield "segments n=3", _points(grid[::2] * u), _points(grid[::3] * v), (0, 600, -600)
    for rows in (500, 4000, 16000):
        line = rng.uniform(-1.0, 1.0, (rows, 1))
        yield f"dense line rows={rows}", _points(line), _points(line[::2] + 1e-3), (0, 600, -600)
        yield (f"line grid rows={rows}", _points(np.round(64.0 * line) / 64.0),
               _points(rng.uniform(-1.5, 1.5, (rows // 3, 1))), (0, 600, -600))
    for n in (2, 3, 4):
        grid_points = np.round(2.0 * rng.normal(size=(3000, n))) / 2.0
        yield (f"duplicates n={n}", _points(grid_points[rng.integers(0, 3000, 3000)]),
               _points(grid_points[rng.integers(0, 3000, 1000)]), (0, 600, -600))
        for rows in (1000, 4000):
            yield (f"cloud n={n} rows={rows}", _points(rng.normal(size=(rows, n))),
                   _points(rng.normal(size=(rows, n))), (0, 600, -600))
        yield (f"cloud n={n} rows=16384", _points(rng.normal(size=(16384, n))),
               _points(rng.normal(size=(16384, n))), (0,))
    for n in (1, 2, 3):
        for m in (4, 8, 11):
            a = rng.uniform(-1.0, 1.0, (m, n))
            split = np.vstack([a[1:], 0.25 * a[:1], 0.75 * a[:1] + rng.uniform(-0.01, 0.01, (1, n))])
            yield (f"split n={n} m={m}", skeleton_points(VectorMeasure(n, a)),
                   skeleton_points(VectorMeasure(n, split)), (0, 600, -600))
        a = rng.uniform(-1.0, 1.0, (9, n))
        yield (f"one atom fewer n={n} m=9", skeleton_points(VectorMeasure(n, a)),
               skeleton_points(VectorMeasure(n, a[1:] + rng.uniform(-0.01, 0.01, (8, n)))), (0, 600, -600))
        # one point a set at x0 = +-1.2e308 (a set's 1-norm mass must stay
        # finite): |x - y| overflows to inf between those two, so between
        # them alone the bounds and the distance are inf; with the other
        # points the distance stays finite
        a, b = rng.uniform(-1.0, 1.0, (200, n)), rng.uniform(-1.0, 1.0, (100, n))
        a[7, 0], b[0, 0] = 1.2e308, -1.2e308
        yield f"overflow n={n}", _points(a), _points(b), (0,)
        yield f"overflow far n={n}", _points(a[7:8]), _points(b[:1]), (0,)


def _point_set_corpus():
    """Seeded (label, a, b) point-set pairs for the pruned Hausdorff pass."""
    rng = case_rng(23, "test.points.pruned")
    for n in range(1, 6):
        for rows in (1, 63, 64, 65, 129, 1000):
            other = int(rng.integers(1, 200))
            yield f"gaussian n={n} rows={rows}", rng.normal(size=(rows, n)), rng.normal(size=(other, n))
            # a half-integer grid drawn with repeats: duplicate rows, exact ties
            grid = np.round(2.0 * rng.normal(size=(rows, n))) / 2.0
            yield (f"ties n={n} rows={rows}", grid[rng.integers(0, rows, rows)],
                   np.round(2.0 * rng.normal(size=(other, n))) / 2.0)
            # points of one ray a few ulps apart, farther from the single
            # point b than b is from any of them: bounds within rounding of
            # the maximum, which the margin must cover
            for _ in range(4):
                t = 1.0 + rng.integers(0, 8, rows) * 2.0**-52
                yield (f"near ties n={n} rows={rows}", t[:, None] * rng.uniform(0.5, 2.0, n) + 3.0,
                       -rng.uniform(0.0, 1.0, (1, n)))
    # segments sampled as in the hausdorff suite, at 45 degrees (where 1-norm
    # distances plateau) and at seeded angles
    grid = np.linspace(0.0, 1.0, 2000)[:, None]
    ends = [([1.0, 1.0], [1.0, -1.0]), ([1.0, 1.0], [2.0, 0.0]), ([-1.0, 1.0], [0.5, 0.5]),
            ([1.0, 1.0, 0.0], [1.0, 0.0, 1.0])]
    ends += [(rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)) for _ in range(4)]
    for u, v in ends:
        yield f"segments {u} {v}", grid * np.asarray(u), grid[::3] * np.asarray(v)
    # near copies: +-0.01 on the points of a, reordered
    for n in range(1, 6):
        for rows in (64, 1000):
            near = rng.normal(size=(rows, n))
            moved = near[rng.permutation(rows)] + rng.uniform(-0.01, 0.01, near.shape)
            yield f"near n={n} rows={rows}", near, moved


class TestZonogonSupport:
    @pytest.mark.filterwarnings("error")
    def test_matches_reach(self):
        rng = case_rng(10, "test.support")
        cases = [rng.uniform(-2, 2, (int(rng.integers(1, 60)), 2)) for _ in range(10)]
        cases += [
            np.zeros((0, 2)),
            np.zeros((3, 2)),
            np.array([[1.0, 2.0]]),
            np.array([[-1.0, -2.0]]),
            np.array([[1.0, 0.0], [-2.0, 0.0], [3.0, 0.0]]),
            np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0], [0.0, 1.0], [0.0, -3.0]]),
            np.array([[-1.0, 1e-300]]),
            np.array([[-1.0, 1e-300], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[-1e150, 1e-160], [1.0, 1.0]]),  # slope key overflows to inf
        ]
        for gens in cases:
            z = Zonotope(2, gens)
            table = ZonogonSupport(gens)
            queries = rng.normal(size=(200, 2))
            # zero queries, queries along and perpendicular to every edge, the
            # nonzero perpendiculars scaled to the infinity box, and q_1 of
            # either sign bit at zero and at the least subnormal
            edges = np.vstack([gens, [[1.0, 0.0], [0.0, 1.0]]])
            perp = np.column_stack([-edges[:, 1], edges[:, 0]])
            peak = np.abs(perp).max(axis=1, keepdims=True)
            box = perp[peak[:, 0] > 0.0] / peak[peak[:, 0] > 0.0]
            tiny = [[q1, q2] for q1 in (0.0, -0.0, 5e-324, -5e-324)
                    for q2 in (1.0, -1.0, 0.0, -0.0)]
            queries = np.vstack([queries, np.zeros((2, 2)), edges, -edges, perp, -perp, box, -box, tiny])
            assert within_tolerance(table.eval(queries), closed_reach(z, queries))

    def test_near_parallel_chain(self):
        # the merged vertex walk joins the chain into one edge and answers
        # 9e-11 here against 4.5e-9; queries must see every short edge
        gens, angles = near_parallel_chain()
        mid = angles[99]
        q = np.array([[-np.sin(mid), np.cos(mid)]])
        want = closed_reach(Zonotope(2, gens), q)[0]
        assert want > 4e-9
        assert zonogon_vertices(Zonotope(2, gens)).shape[0] == 2
        assert abs(ZonogonSupport(gens).eval(q)[0] - want) <= 1e-14 * np.abs(gens).sum()

    def test_chain_corpus_matches_closed_form(self):
        # chains whose angles step by 1e-14 .. 1e-11, some starting on the
        # flip boundary (angle 0) or on an axis, with flipped members, zero
        # rows and generic rows, at three scales
        rng = case_rng(18, "test.support.chains")
        for case in range(150):
            scale = (1e-6, 1.0, 1e6)[case % 3]
            parts = [rng.normal(size=(int(rng.integers(0, 20)), 2))]
            for _ in range(int(rng.integers(1, 5))):
                k = int(rng.integers(2, 200))
                base = (0.0, 0.5 * np.pi, rng.uniform(-np.pi, np.pi))[int(rng.integers(3))]
                ang = base + 10.0 ** rng.uniform(-14, -11) * np.cumsum(rng.uniform(-0.5, 1.5, k))
                parts.append(np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.1, 10, (k, 1)))
            g = np.vstack(parts)
            g[rng.random(g.shape[0]) < 0.3] *= -1.0
            g[rng.random(g.shape[0]) < 0.02] = 0.0
            z = Zonotope(2, scale * g[rng.permutation(g.shape[0])])
            perp = np.column_stack([-g[:, 1], g[:, 0]])
            d = np.vstack([rng.normal(size=(100, 2)), perp, -perp, g, np.eye(2), -np.eye(2)])
            gap = np.abs(reach_many(z, d) - closed_reach(z, d))
            assert (gap <= 1e-14 * (np.abs(d) @ np.abs(z.generators).T).sum(axis=1)).all(), case

    def test_slope_keys_never_decrease(self):
        # the last two rows share one arctan2 value, but their slopes -g1/g2
        # fall by an ulp in that (stable) order; the searched keys must not
        twins = np.array([[-0.33253141453891205, 0.8413494449801757],
                          [-0.20637481595664878, 0.5221561911790269]])
        assert np.arctan2(twins[0, 1], twins[0, 0]) == np.arctan2(twins[1, 1], twins[1, 0])
        assert -twins[1, 0] / twins[1, 1] < -twins[0, 0] / twins[0, 1]
        gens = np.vstack([[[2.0, 0.0], [1.0, 1.0], [0.0, 1.0]], twins, [[-1.0, 0.1]]])
        keys = ZonogonSupport(gens).slope_keys
        assert keys[0] == -np.inf and keys.shape == (6,)
        assert (np.diff(keys) >= 0.0).all()

    def test_support_is_never_negative(self):
        # slopes q_2 / q_1 that overflow or underflow: the vertex found may
        # miss the extreme one, but by less than the closed form's rounding,
        # and the support of a hull holding 0 is never negative
        rng = case_rng(24, "test.support.sign")
        scales = [5e-324, 1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e300]
        q = np.array([(s * x, t * y) for x in scales for y in scales
                      for s in (1.0, -1.0) for t in (1.0, -1.0)])
        for case in range(300):
            m = int(rng.integers(1, 8))
            g = rng.normal(size=(m, 2)) * 10.0 ** rng.integers(-3, 4, (m, 1))
            if case % 3 == 1:
                g[:, 1] = 0.0  # on the x axis: slope keys of -inf
            got = ZonogonSupport(g).eval(q)
            closed = closed_reach(Zonotope(2, g), q)
            assert (got >= 0.0).all(), case
            ulp = np.spacing(np.abs(g).sum() * np.abs(q).sum(axis=1))
            assert (np.abs(got - closed) <= 2 * (m + 1) * ulp).all(), case

    def test_zero_query(self):
        table = ZonogonSupport(np.array([[1.0, 2.0]]))
        assert table.eval(np.zeros((1, 2)))[0] == 0.0

    def test_stable_order_matches_stable_argsort(self):
        # ties, +-0, +-inf, NaN runs (either sign bit), subnormals, the empty
        # and one-element inputs, all-equal, sorted and reversed keys, at
        # sizes below and above where numpy's argsort turns to SIMD
        rng = case_rng(34, "test.stable_order")
        base = rng.normal(size=3000)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324])
        corpus = [np.zeros(0), np.array([1.5]), np.array([np.nan]), np.zeros(10_000),
                  np.full(300, -0.0), np.full(300, np.nan), np.sort(base), np.sort(base)[::-1],
                  np.repeat(np.sort(base[:50]), 20), special, np.tile(special, 40)]
        for case in range(300):
            pool = np.concatenate([base[: int(rng.integers(1, 3000))], special[: case % 9]])
            corpus.append(rng.choice(pool, size=int(rng.integers(0, 4000))))
        for keys in corpus:
            got, want = _stable_order(keys), np.argsort(keys, kind="stable")
            assert got.dtype == want.dtype and np.array_equal(got, want), keys.shape
