import os
import sys
import threading
import time

import numpy as np
import pytest

from lorenz_hulls import (
    Exact2dOnPlaneOnly,
    InsertZeroAtom,
    InvalidTransform,
    MergeColinear,
    NegativeAtom,
    Permute,
    SplitAtom,
    TooManyAtoms,
    VectorMeasure,
    ZeroTotal,
    Zonotope,
    apply_transform,
    coordinate_product,
    gini,
    hull_equal,
    hull_of,
    identity_hull,
    includes,
    lorenz_curve,
    lorenz_product,
    minkowski_sum,
    product_reach_many,
    skeleton_points,
    skeleton_product,
    within_tolerance,
    zonogon_vertices,
)
from lorenz_hulls import ops
from lorenz_hulls.hulls import ZonogonSupport, _hausdorff_arrangement, _sorted_generators_2d
from lorenz_hulls.sampling import case_rng, unit_directions

SQUARE = Zonotope(2, [[1, 0], [0, 1]])


class TestLorenzProduct:
    def test_identity_right(self):
        assert lorenz_product(SQUARE, identity_hull(2)).generators.tolist() == [
            [1, 0], [0, 1]
        ]

    def test_identity_left(self):
        assert lorenz_product(identity_hull(2), SQUARE).generators.tolist() == [
            [1, 0], [0, 1]
        ]

    def test_segments(self):
        p = lorenz_product(Zonotope(2, [[2, 3]]), Zonotope(2, [[5, 7]]))
        assert p.generators.tolist() == [[10, 21]]

    def test_square_scaled(self):
        p = lorenz_product(SQUARE, Zonotope(2, [[1, 2]]))
        assert p.generators.tolist() == [[1, 0], [0, 2]]

    def test_identity_of_identities(self):
        p = lorenz_product(identity_hull(3), identity_hull(3))
        assert p.generators.tolist() == [[1, 1, 1]]

    def test_zero_products_dropped(self):
        p = lorenz_product(Zonotope(2, [[1, 0]]), Zonotope(2, [[0, 1]]))
        assert p.generator_count == 0

    def test_commutative_multiset(self):
        rng = case_rng(0, "test.product")
        a = hull_of(VectorMeasure(3, rng.integers(-5, 6, (4, 3)).astype(float)))
        b = hull_of(VectorMeasure(3, rng.integers(-5, 6, (3, 3)).astype(float)))
        ab = np.sort(lorenz_product(a, b).generators, axis=0)
        ba = np.sort(lorenz_product(b, a).generators, axis=0)
        assert np.array_equal(ab, ba)

    def test_associative_multiset_integer(self):
        rng = case_rng(1, "test.product")
        hs = [
            hull_of(VectorMeasure(2, rng.integers(-4, 5, (3, 2)).astype(float)))
            for _ in range(3)
        ]
        left = np.sort(lorenz_product(lorenz_product(hs[0], hs[1]), hs[2]).generators, axis=0)
        right = np.sort(lorenz_product(hs[0], lorenz_product(hs[1], hs[2])).generators, axis=0)
        assert np.array_equal(left, right)

    def test_distributive_multiset(self):
        rng = case_rng(2, "test.product")
        h1, h2, h3 = (
            hull_of(VectorMeasure(2, rng.integers(-4, 5, (3, 2)).astype(float)))
            for _ in range(3)
        )
        left = lorenz_product(h1, minkowski_sum(h2, h3)).generators
        right = np.vstack(
            [lorenz_product(h1, h2).generators, lorenz_product(h1, h3).generators]
        )
        assert np.array_equal(np.sort(left, axis=0), np.sort(right, axis=0))


class TestMinkowskiSum:
    def test_zero_is_neutral(self):
        s = minkowski_sum(Zonotope(2, []), SQUARE)
        assert s.generators.tolist() == SQUARE.generators.tolist()

    def test_segments_make_square(self):
        s = minkowski_sum(Zonotope(2, [[1, 0]]), Zonotope(2, [[0, 1]]))
        assert zonogon_vertices(s).tolist() == zonogon_vertices(SQUARE).tolist()

    def test_generator_counts_add(self):
        s = minkowski_sum(Zonotope(2, np.ones((3, 2))), Zonotope(2, np.ones((4, 2))))
        assert s.generator_count == 7


def _vertex_rule(h1, h2, tol):
    """The former exact2d rule, a reference: ``(equal, scale)`` from the
    vertex walks, each rotated to start at its least (x, y), compared
    coordinate-wise within tol scale + tol."""
    v1, v2 = (np.roll(v, -int(np.lexsort((v[:, 1], v[:, 0]))[0]), axis=0)
              for v in (zonogon_vertices(h1), zonogon_vertices(h2)))
    scale = max(1.0, float(np.abs(v1).max()), float(np.abs(v2).max()))
    return v1.shape == v2.shape and bool(np.abs(v1 - v2).max() <= tol * scale + tol), scale


def _equality_corpus(seed, count):
    """Seeded planar pairs ``(label, h1, h2)``: up to 8 atoms against a
    copy with up to 3 atoms split and all permuted, that copy tilted by up
    to 1e-8 rad, one of its atoms nudged by up to 1e-7, or left alone, and
    both scaled by 2^k, k in -3 ... 3 or +-600."""
    rng = case_rng(seed, "test.hull_equal.corpus")
    for i in range(count):
        m = int(rng.integers(1, 9))
        atoms = rng.uniform(-1.0, 1.0, (m, 2))
        steps = []
        for _ in range(int(rng.integers(0, 4))):
            steps.append(SplitAtom(int(rng.integers(0, m)), float(rng.uniform(0.1, 0.9))))
            m += 1
        steps.append(Permute(tuple(int(j) for j in rng.permutation(m))))
        copy = np.array(apply_transform(VectorMeasure(2, atoms), steps).atoms)
        kind = ("tilt", "nudge", "reshape")[i % 3]
        size = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.0, -7.0))
        if kind == "tilt":  # by a tenth of size, in radians
            c, s = np.cos(size / 10.0), np.sin(size / 10.0)
            copy = copy @ np.array([[c, s], [-s, c]])
        elif kind == "nudge":
            copy[int(rng.integers(0, m))] += size * rng.uniform(-1.0, 1.0, 2)
        k = int(rng.choice([-3, -2, -1, 0, 1, 2, 3, 600, -600]))
        yield (i, kind, k), *(hull_of(VectorMeasure(2, np.ldexp(x, k))) for x in (atoms, copy))


class TestHullEqual:
    def test_reflexive(self):
        assert hull_equal(SQUARE, SQUARE)

    def test_tol_must_be_finite_and_positive(self):
        for tol in (float("nan"), float("inf"), 0.0, -1.0):
            for mode in ("exact2d", "sampled"):
                with pytest.raises(ValueError, match="tol must be finite and positive"):
                    hull_equal(SQUARE, SQUARE, mode, tol=tol)

    def test_split_segment(self):
        assert hull_equal(Zonotope(2, [[2, 2]]), Zonotope(2, [[1, 1], [1, 1]]))

    def test_axes_differ(self):
        assert not hull_equal(Zonotope(2, [[1, 0]]), Zonotope(2, [[0, 1]]))

    def test_exact2d_is_the_hausdorff_distance(self):
        # on the seeded corpus, against the former vertex rule and the
        # distance of the n-D arrangement route over each side's own fan:
        # every pair the vertex rule reads equal, and every pair within
        # tol scale + tol, reads equal,
        # and no pair beyond twice that does.  The vertex rule misreads
        # pairs within tol: a nudge parts two atoms that a split made
        # parallel, or a tilt moves the start of one walk
        tol, missed, far = 1e-9, 0, 0
        for label, h1, h2 in _equality_corpus(31, 2000):
            reference, scale = _vertex_rule(h1, h2, tol)
            a, b = (h.generators[np.abs(h.generators).sum(axis=1) > 0.0] for h in (h1, h2))
            d = _hausdorff_arrangement(h1, h2, a, b).distance
            equal = hull_equal(h1, h2, tol=tol)
            assert equal or not (reference or d <= tol * scale + tol), (label, d, scale)
            assert not equal or d <= 2 * (tol * scale + tol), (label, d, scale)
            missed += d <= tol * scale + tol and not reference
            far += d > 2 * (tol * scale + tol)
        assert missed >= 100 and far >= 100, (missed, far)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown hull equality mode 'exact'"):
            hull_equal(SQUARE, SQUARE, "exact")

    def test_exact2d_on_the_plane_only(self):
        for n in (1, 3):
            z = Zonotope(n, np.ones((1, n)))
            with pytest.raises(Exact2dOnPlaneOnly, match="exact2d hull equality needs dimension 2"):
                hull_equal(z, z)

    def test_sampled_mode(self):
        z1 = Zonotope(3, [[2, 2, 2]])
        z2 = Zonotope(3, [[1, 1, 1], [1, 1, 1]])
        assert hull_equal(z1, z2, "sampled", dirs=100)
        assert not hull_equal(z1, identity_hull(3), "sampled", dirs=100)


class TestTransforms:
    def test_split(self):
        out = apply_transform(VectorMeasure(2, [[2, 2]]), [SplitAtom(0, 0.6)])
        assert out.atoms.tolist() == [[1.2, 1.2], [0.8, 0.8]]

    def test_permute_preserves_multiset(self):
        m = VectorMeasure(2, [[1, 0], [0, 1], [2, 2]])
        out = apply_transform(m, [Permute((2, 0, 1))])
        assert out.atoms.tolist() == [[2, 2], [1, 0], [0, 1]]

    def test_merge_colinear(self):
        out = apply_transform(
            VectorMeasure(2, [[1, 0], [2, 0]]), [MergeColinear(0, 1)]
        )
        assert out.atoms.tolist() == [[3, 0]]

    def test_merge_rejects_non_colinear(self):
        with pytest.raises(InvalidTransform):
            apply_transform(VectorMeasure(2, [[1, 0], [0, 1]]), [MergeColinear(0, 1)])

    def test_split_fraction_bounds(self):
        with pytest.raises(InvalidTransform):
            apply_transform(VectorMeasure(2, [[1, 1]]), [SplitAtom(0, 1.0)])

    def test_insert_zero(self):
        out = apply_transform(VectorMeasure(2, [[1, 1]]), [InsertZeroAtom(0)])
        assert out.atoms.tolist() == [[0, 0], [1, 1]]

    def test_preserves_hull(self):
        rng = case_rng(3, "test.transform")
        m = VectorMeasure(2, rng.integers(-8, 9, (4, 2)) / 4.0)
        steps = [SplitAtom(1, 0.5), Permute((1, 0, 4, 2, 3)), InsertZeroAtom(2)]
        out = apply_transform(m, steps)
        assert hull_equal(hull_of(m), hull_of(out))


class TestSkeletonProduct:
    def test_identity_atom(self):
        m1 = VectorMeasure(2, [[1, 2], [3, 4]])
        ones = VectorMeasure(2, [[1, 1]])
        assert np.array_equal(
            skeleton_product(m1, ones).points, skeleton_points(m1).points
        )

    def test_singletons(self):
        s = skeleton_product(VectorMeasure(2, [[2, 3]]), VectorMeasure(2, [[5, 7]]))
        assert s.points.tolist() == [[0, 0], [10, 21]]

    def test_guard(self):
        big = VectorMeasure(1, np.ones((7, 1)))
        with pytest.raises(TooManyAtoms):
            skeleton_product(big, VectorMeasure(1, np.ones((3, 1))))


def merge_sorted_generators_2d(generators):
    """The planar normal form as ``hulls._sorted_generators_2d`` built it with
    numpy's stable merge sort: the reference its SIMD stable order must match."""
    g = generators[np.abs(generators).sum(axis=1) > 0.0]
    flip = (g[:, 1] < 0) | ((g[:, 1] == 0) & (g[:, 0] < 0))
    offset = g[flip].sum(axis=0) if flip.any() else np.zeros(2)
    g = np.where(flip[:, None], -g, g)
    ang = np.arctan2(g[:, 1], g[:, 0])
    order = np.argsort(ang, kind="stable")
    return g[order], ang[order], offset


def lexsort_product_reach(a, support, dirs):
    """``product_reach_many`` on one thread with its atoms in ``np.lexsort``
    order, the stable merge sort that it replaced: the reference for its bytes."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope, rho = dirs[:, 1] / dirs[:, 0], a[:, 1] / a[:, 0]
    order = np.lexsort((rho, np.signbit(a[:, 0])))
    rho, ax, ay = rho[order], a[order, 0], a[order, 1]
    split = int(np.count_nonzero(~np.signbit(ax)))
    out = np.zeros(dirs.shape[0])
    negative = np.signbit(dirs[:, 0])
    for flipped, rows in ((slice(split, None), ~negative), (slice(split), negative)):
        with np.errstate(invalid="ignore", over="ignore"):
            x, y = support.extreme_vertices(slope[rows, None] * rho, flipped)
        h = dirs[rows, 0] * (x * ax).sum(axis=1) + dirs[rows, 1] * (y * ay).sum(axis=1)
        out[rows] += np.maximum(h, 0.0)
    return out


class TestProductReach:
    def test_sorts_match_merge_sort_oracle(self):
        # the normal form and the product's atom order keep the permutations
        # of the merge sorts, so every value keeps its bytes: zero, parallel,
        # antiparallel and axis atoms, +-0 and subnormal coordinates, at
        # scales 2^+-600 (the product's factors scaled oppositely)
        rng = case_rng(34, "test.product_reach.oracle")
        special = np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, 0.0], [-2.0, 0.0], [0.0, 3.0], [-0.0, -1.0],
                            [5e-324, 1.0], [-5e-324, 2.0], [1.0, 5e-324], [1.0, -5e-324], [3.0, 0.0]])
        dirs = np.vstack([unit_directions(rng, 300, 2), np.eye(2), -np.eye(2), [[0.0, 0.0], [-0.0, 1.0]]])
        for case in range(60):
            m = int(rng.integers(1, 400)) if case % 10 else 3000
            base = rng.normal(size=(int(rng.integers(1, 20)), 2))
            g = np.vstack([rng.normal(size=(m, 2)), special,
                           base[rng.integers(0, len(base), m)] * rng.uniform(-3.0, 3.0, (m, 1))])
            g[rng.random(g.shape[0]) < 0.1] *= np.array([1.0, 0.0])
            g = g[rng.permutation(g.shape[0])]
            b = rng.normal(size=(int(rng.integers(1, 50)), 2))
            b[: len(b) // 3] = g[: len(b) // 3]
            for k in (0, 600, -600):
                a = np.ldexp(g, k)
                for got, want in zip(_sorted_generators_2d(a), merge_sorted_generators_2d(a)):
                    assert got.tobytes() == want.tobytes(), (case, k)
                support = ZonogonSupport(np.ldexp(b, -k))
                want = lexsort_product_reach(a, support, dirs)
                assert product_reach_many(a, support, dirs).tobytes() == want.tobytes(), (case, k)

    def test_matches_materialized_product(self):
        rng = case_rng(4, "test.product_reach")
        a = VectorMeasure(2, rng.uniform(-1, 1, (30, 2)))
        b = VectorMeasure(2, rng.uniform(-1, 1, (25, 2)))
        hull = hull_of(coordinate_product(a, b))
        dirs = unit_directions(rng, 100, 2)
        via_factors = product_reach_many(
            a.atoms, ZonogonSupport(hull_of(b).generators), dirs
        )
        closed = np.maximum(dirs @ hull.generators.T, 0).sum(1)
        assert within_tolerance(via_factors, closed, atol=1e-8, rtol=1e-9)

    def test_presorted_queries_match_materialized_product(self):
        # the atoms are sorted by angle inside; cover every sign class, zero
        # and axis atoms, (anti)parallel runs, and several blocks of directions
        rng = case_rng(5, "test.product_reach.presort")
        base = rng.normal(size=(40, 2))
        a = np.vstack([
            rng.normal(size=(300, 2)),
            np.zeros((5, 2)),
            [[1.0, 0.0], [-2.0, 0.0], [0.0, 3.0], [0.0, -0.5], [-0.0, 1.0]],
            base * rng.uniform(-2.0, 2.0, (40, 1)),
            base[:10] * 2.0,
            -base[:10],
        ])
        a = a[rng.permutation(a.shape[0])]
        for b_atoms in (rng.normal(size=(30, 2)), np.vstack([base[:5], -base[:5], [[0.0, 0.0]]])):
            b = VectorMeasure(2, b_atoms)
            hull = hull_of(coordinate_product(VectorMeasure(2, a), b))
            dirs = np.vstack([
                unit_directions(rng, 500, 2),
                [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, -1.0], [0.0, 0.0]],
            ])
            support = ZonogonSupport(hull_of(b).generators)
            via_factors = product_reach_many(a, support, dirs)
            scale = np.abs(a).sum() * np.abs(b_atoms).sum()
            closed = np.maximum(dirs @ hull.generators.T, 0).sum(1)
            assert np.abs(via_factors - closed).max() <= 1e-12 * scale
            # each direction's value has the same bytes alone, in the full
            # batch, and with the block boundaries moved or the batch reversed
            alone = [product_reach_many(a, support, d)[0] for d in dirs]
            assert np.array_equal(via_factors, alone)
            for cut in (1, 97):
                assert np.array_equal(via_factors[cut:], product_reach_many(a, support, dirs[cut:]))
            assert np.array_equal(via_factors[::-1], product_reach_many(a, support, dirs[::-1]))
        assert product_reach_many(np.zeros((0, 2)), ZonogonSupport(b_atoms), dirs).tolist() == [0.0] * len(dirs)

    @staticmethod
    def product_gap(a, b, dirs):
        """Largest gap to the closed form over the materialized product, in
        units of the product measure's 1-norm mass."""
        prod = (a[:, None, :] * b[None, :, :]).reshape(-1, 2)
        closed = np.maximum(dirs @ prod.T, 0.0).sum(axis=1)
        got = product_reach_many(a, ZonogonSupport(b), dirs)
        return np.abs(got - closed).max() / np.abs(prod).sum()

    def test_never_negative(self):
        # directions whose slopes overflow or underflow, times atom ratios:
        # each term h_B(u * a_i) is clamped at 0, as ZonogonSupport.eval is
        rng = case_rng(28, "test.product_reach.sign")
        scales = [5e-324, 1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e300]
        dirs = np.array([(s * x, t * y) for x in scales for y in scales
                         for s in (1.0, -1.0) for t in (1.0, -1.0)])
        for case in range(100):
            a = rng.normal(size=(int(rng.integers(1, 4)), 2))
            b = rng.normal(size=(int(rng.integers(1, 4)), 2)) * 10.0 ** rng.integers(-3, 4)
            if case % 3 == 1:
                b[:, 1] = 0.0
            prod = (a[:, None, :] * b[None, :, :]).reshape(-1, 2)
            got = product_reach_many(a, ZonogonSupport(b), dirs)
            closed = np.maximum(dirs @ prod.T, 0.0).sum(axis=1)
            ulp = np.spacing(np.abs(prod).sum() * np.abs(dirs).sum(axis=1))
            assert (got >= 0.0).all(), case
            assert (np.abs(got - closed) <= 2 * (prod.shape[0] + 1) * ulp).all(), case

    def test_scales_exactly(self):
        # slopes do not see 2^k, so the value scales by exactly 2^(2k)
        rng = case_rng(19, "test.product_reach.scale")
        a = np.vstack([rng.normal(size=(60, 2)), [[0.0, 2.0], [0.0, -1.0], [3.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]])
        b = np.vstack([rng.normal(size=(40, 2)), [[0.0, 1.0], [-2.0, 0.0], [0.0, 0.0]]])
        dirs = np.vstack([unit_directions(rng, 200, 2), np.eye(2), -np.eye(2), [[1.0, -1.0]]])
        base = product_reach_many(a, ZonogonSupport(b), dirs)
        for k in (-300, 300):
            scaled = product_reach_many(np.ldexp(a, k), ZonogonSupport(np.ldexp(b, k)), dirs)
            assert np.array_equal(scaled, np.ldexp(base, 2 * k)), k

    def test_near_parallel_chain(self):
        # B is a chain of 200 unit generators 0.9e-12 rad apart; A's atoms lie
        # on the chain's normals, so u = +-(1, 1) queries each chain edge
        # exactly at its slope key
        angles = 0.9e-12 * np.arange(1, 201)
        b = np.column_stack([np.cos(angles), np.sin(angles)])
        normals = np.column_stack([-np.sin(angles), np.cos(angles)])
        rng = case_rng(20, "test.product_reach.chain")
        a = np.vstack([normals, -normals[::3], normals[::7] * rng.uniform(0.5, 2.0, (29, 1))])
        dirs = np.vstack([[[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0 + 1e-12]],
                          unit_directions(rng, 50, 2)])
        assert self.product_gap(a, b, dirs) <= 1e-12

    def test_axis_and_perpendicular_directions(self):
        # directions on the axes and exactly perpendicular to product
        # generators a_i * b_k, with axis and zero atoms on both sides, and
        # signed zeros in both, which the sign-bit split of a_1 and u_1 sorts
        rng = case_rng(21, "test.product_reach.perp")
        signed = np.array([[-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0], [-0.0, -1.0]])
        for _ in range(5):
            a = np.vstack([rng.normal(size=(30, 2)), [[0.0, 1.5], [0.0, -0.5], [2.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                           [[-0.0, -0.5], [-0.0, 2.0], [-0.0, -0.0]]])
            b = np.vstack([rng.normal(size=(20, 2)), [[0.0, -1.0], [1.0, 0.0], [0.0, 0.0]]])
            a = a[rng.permutation(a.shape[0])]
            p = a[rng.integers(0, a.shape[0], 40)] * b[rng.integers(0, b.shape[0], 40)]
            perp = np.column_stack([-p[:, 1], p[:, 0]])
            dirs = np.vstack([np.eye(2), -np.eye(2), 3.0 * np.eye(2), np.zeros((1, 2)), signed, perp, -perp])
            assert self.product_gap(a, b, dirs) <= 1e-12

    @staticmethod
    def threaded_inputs():
        """(name, atoms, other factor, directions): seeded inputs over the
        thread gate, then degenerate ones, run with the gate at 0."""
        rng = case_rng(22, "test.product_reach.threads")
        angles = (np.arange(512) + 0.5) * (2.0 * np.pi / 512)
        grid = np.column_stack([np.cos(angles), np.sin(angles)])
        big = rng.normal(size=(2100, 2))  # 2100 * 512 pairs: over the gate, several blocks a share
        yield "seeded", big, rng.normal(size=(300, 2)), grid, False
        a = np.vstack([rng.normal(size=(40, 2)), [[0.0, 1.5], [-0.0, -0.5], [0.0, 0.0], [-0.0, -0.0]]])
        b = np.vstack([rng.normal(size=(25, 2)), [[0.0, -1.0], [-0.0, 1.0], [0.0, 0.0]]])
        dirs = np.vstack([unit_directions(rng, 30, 2), np.eye(2), -np.eye(2),
                          [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, 1.0], [1.0, -0.0]]])
        yield "degenerate", a, b, dirs[rng.permutation(dirs.shape[0])], True
        yield "only a_1 = 0 atoms", a[-4:], b, dirs, True
        yield "empty factor", np.zeros((0, 2)), b, dirs, True
        yield "empty other factor", a, np.zeros((0, 2)), dirs, True
        yield "fewer directions than threads", a, b, dirs[:2], True
        yield "one direction", a, b, dirs[0], True

    def test_cpu_count_follows_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert ops._cpu_count() == len(os.sched_getaffinity(0))
        assert ops._cpu_count() >= 1

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_threads_give_the_same_bytes(self, monkeypatch, threads):
        # the shares write disjoint rows of one array; a short switch
        # interval makes a lost update between them likely to show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for name, a, b, dirs, gated in self.threaded_inputs():
                support = ZonogonSupport(b)
                monkeypatch.setattr(ops, "_cpu_count", lambda: 1)
                serial = product_reach_many(a, support, dirs)
                monkeypatch.setattr(ops, "_cpu_count", lambda: threads)
                if gated:
                    monkeypatch.setattr(ops, "_THREAD_GATE", 0)
                assert product_reach_many(a, support, dirs).tobytes() == serial.tobytes(), name
                monkeypatch.undo()
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def count_thread_starts(monkeypatch):
        starts = []
        start = threading.Thread.start

        def counted(thread):
            starts.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return starts

    def test_gate_keeps_small_calls_on_one_thread(self, monkeypatch):
        monkeypatch.setattr(ops, "_cpu_count", lambda: 3)
        starts = self.count_thread_starts(monkeypatch)
        rng = case_rng(23, "test.product_reach.gate")
        b = ZonogonSupport(rng.normal(size=(50, 2)))
        dirs = unit_directions(rng, 512, 2)
        below = ops._THREAD_GATE // 512 - 1
        product_reach_many(rng.normal(size=(below, 2)), b, dirs)
        assert starts == []
        product_reach_many(rng.normal(size=(below + 2, 2)), b, dirs)
        assert len(starts) == 2

    def test_share_error_reaches_caller(self, monkeypatch):
        class FailsOffMainThread(ZonogonSupport):
            def extreme_vertices(self, slopes, flipped):
                if threading.current_thread() is not threading.main_thread():
                    raise ArithmeticError("share failed")
                return super().extreme_vertices(slopes, flipped)

        monkeypatch.setattr(ops, "_cpu_count", lambda: 3)
        monkeypatch.setattr(ops, "_THREAD_GATE", 0)
        rng = case_rng(24, "test.product_reach.error")
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="share failed"):
            product_reach_many(rng.normal(size=(30, 2)), FailsOffMainThread(rng.normal(size=(20, 2))),
                               unit_directions(rng, 40, 2))
        assert threading.active_count() == before
        product_reach_many(rng.normal(size=(30, 2)), ZonogonSupport(rng.normal(size=(20, 2))),
                           unit_directions(rng, 40, 2))
        assert threading.active_count() == before

    def test_caller_share_error_joins_the_threads(self, monkeypatch):
        # the caller's share fails at once while the others are still
        # sleeping: the call joins them before the error reaches the caller
        done = []

        class FailsOnMainThread(ZonogonSupport):
            def extreme_vertices(self, slopes, flipped):
                if threading.current_thread() is threading.main_thread():
                    raise ArithmeticError("caller's share failed")
                time.sleep(0.05)
                done.append(threading.current_thread())
                return super().extreme_vertices(slopes, flipped)

        monkeypatch.setattr(ops, "_cpu_count", lambda: 3)
        monkeypatch.setattr(ops, "_THREAD_GATE", 0)
        rng = case_rng(25, "test.product_reach.caller_error")
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="caller's share failed"):
            product_reach_many(rng.normal(size=(30, 2)), FailsOnMainThread(rng.normal(size=(20, 2))),
                               unit_directions(rng, 40, 2))
        assert threading.active_count() == before
        assert len(set(done)) == 2 and not any(thread.is_alive() for thread in done)


class TestLorenzCurve:
    def test_perfect_equality_is_diagonal(self):
        c = lorenz_curve(VectorMeasure(2, [[0.5, 0.5], [0.5, 0.5]]))
        assert c.points.tolist() == [[0, 0], [0.5, 0.5], [1, 1]]

    def test_two_income_groups(self):
        c = lorenz_curve(VectorMeasure(2, [[0.5, 0.25], [0.5, 0.75]]))
        assert c.points.tolist() == [[0, 0], [0.5, 0.25], [1, 1]]

    def test_single_atom_diagonal(self):
        c = lorenz_curve(VectorMeasure(2, [[1, 1]]))
        assert c.points.tolist() == [[0, 0], [1, 1]]

    def test_negative_atom_rejected(self):
        with pytest.raises(NegativeAtom):
            lorenz_curve(VectorMeasure(2, [[-0.1, 0.5]]))

    def test_zero_total_rejected(self):
        with pytest.raises(ZeroTotal):
            lorenz_curve(VectorMeasure(2, [[1, 0]]))

    def test_convex_and_matches_lower_chain(self):
        rng = case_rng(5, "test.curve")
        atoms = rng.uniform(0.05, 1.0, (6, 2))
        c = lorenz_curve(VectorMeasure(2, atoms))
        slopes = c.slopes()
        assert np.all(np.diff(slopes[np.isfinite(slopes)]) >= -1e-12)
        norm = atoms / atoms.sum(axis=0)
        verts = zonogon_vertices(hull_of(VectorMeasure(2, norm)))
        chain = verts[: verts.shape[0] // 2 + 1]
        assert np.abs(c.points - chain).max() <= 1e-9

    def test_zero_atoms_and_vertical_atoms(self):
        # zero atoms and atoms with x = 0 both have infinite slope; every
        # atom keeps its point, the zero ones after all others
        atoms = [[0, 0], [0, 2], [1, 0], [0, 0], [3, 1], [0, 1], [1, 1], [0, 0]]
        c = lorenz_curve(VectorMeasure(2, atoms))
        assert c.points.shape == (len(atoms) + 1, 2)
        assert c.points[0].tolist() == [0, 0] and c.points[-1].tolist() == [1, 1]
        slopes = c.slopes()
        finite = slopes[np.isfinite(slopes)]
        assert np.all(np.diff(finite) >= 0.0) and np.all(np.isinf(slopes[len(finite):]))
        assert c.points[-3:].tolist() == [[1, 1]] * 3

    def test_unnormalized_input_is_scaled(self):
        c = lorenz_curve(VectorMeasure(2, [[2, 1], [2, 3]]))
        assert c.points.tolist() == [[0, 0], [0.5, 0.25], [1, 1]]


def classical_gini(incomes):
    x = np.asarray(incomes, dtype=np.float64)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * len(x) ** 2 * x.mean()))


class TestGini:
    def test_equal_shares(self):
        assert gini(VectorMeasure(2, [[0.5, 0.5], [0.5, 0.5]])) == 0.0
        # equal atoms a rounding off the diagonal: prefix sums over the
        # unsummed run would leave -1.1e-16
        incomes = np.full(1000, 3.7)
        atoms = np.column_stack([np.full(1000, 1e-3), incomes / incomes.sum()])
        assert gini(VectorMeasure(2, atoms)) == 0.0

    def test_worked_fixture(self):
        assert gini(VectorMeasure(2, [[0.5, 0.25], [0.5, 0.75]])) == pytest.approx(
            0.25, abs=1e-12
        )
        assert classical_gini([1, 3]) == 0.25

    def test_zero_one_incomes(self):
        m = VectorMeasure(2, [[0.5, 0.0], [0.5, 1.0]])
        assert gini(m) == pytest.approx(0.5, abs=1e-12)
        assert classical_gini([0, 1]) == 0.5

    def test_matches_classical_formula(self):
        rng = case_rng(6, "test.gini")
        for _ in range(10):
            k = int(rng.integers(2, 30))
            incomes = rng.integers(0, 50, k).astype(float)
            if incomes.sum() == 0:
                incomes[0] = 1.0
            atoms = np.column_stack([np.full(k, 1.0 / k), incomes / incomes.sum()])
            assert gini(VectorMeasure(2, atoms)) == pytest.approx(
                classical_gini(incomes), abs=1e-9
            )


class TestInclusionPreservation:
    def test_products_of_nested_hulls_stay_nested(self):
        rng = case_rng(7, "test.thm3")
        for _ in range(10):
            outer1 = hull_of(VectorMeasure(2, rng.uniform(-1, 1, (3, 2))))
            outer2 = hull_of(VectorMeasure(2, rng.uniform(-1, 1, (3, 2))))
            inner1 = Zonotope(2, outer1.generators * rng.uniform(0, 1, (3, 1)))
            inner2 = Zonotope(2, outer2.generators[:2])
            r = includes(
                lorenz_product(inner1, inner2), lorenz_product(outer1, outer2)
            )
            assert r.verdict == "included"
