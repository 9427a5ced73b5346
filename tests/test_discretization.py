import itertools
import warnings
from math import isqrt

import numpy as np
import pytest

from lorenz_hulls import (
    DeltaOutOfRange,
    DimensionGuard,
    DiscretizationParams,
    SizeGuard,
    VectorMeasure,
    discretize,
    hausdorff_convex,
    hull_of,
    partition_sphere,
    product_error_bound,
    product_params,
    skeleton_bound,
    total_variation_mass,
)
from lorenz_hulls.sampling import case_rng


def representative(part, key):
    """The representative of one cell key ``(signs, buckets)``."""
    return part.representative_rows([key[0]], [key[1]])[0]


def per_atom_discretize(m, part, reps):
    """Reference: a tuple key per atom, masses summed in a dict in atom
    order, cells emitted in sorted key order."""
    norms = np.abs(m.atoms).sum(axis=1)
    masses = {}
    r = part.resolution
    for x, w in zip(m.atoms, norms):
        if w == 0.0:
            continue
        y = np.abs(x) / w
        key = (
            tuple(1 if c >= 0 else -1 for c in x),
            tuple(min(int(np.floor(r * c)), r - 1) for c in y[:-1]),
        )
        masses[key] = masses.get(key, 0.0) + float(w)
    rows = []
    for key in sorted(masses):
        rows.extend([(masses[key] / reps) * representative(part, key)] * reps)
    return np.array(rows).reshape(-1, m.dimension)


def lexsort_discretize(m, part, reps):
    """The former ``discretize``, kept as the oracle: one ``np.lexsort`` over
    the 2n - 1 integer columns of the cell keys, signs then buckets."""
    norms = np.abs(m.atoms).sum(axis=1)
    keep = norms > 0.0
    if not keep.any():
        return np.zeros((0, m.dimension))
    signs, buckets = part._cell_rows(m.atoms[keep])
    rows = np.hstack([signs, buckets])
    order = np.lexsort(rows.T[::-1])
    fresh = np.concatenate([[True], (rows[order[1:]] != rows[order[:-1]]).any(axis=1)])
    cell = np.empty(order.shape[0], dtype=np.intp)
    cell[order] = np.cumsum(fresh) - 1
    cells = rows[order[fresh]]
    n = m.dimension
    masses = np.bincount(cell, weights=norms[keep])
    atoms = (masses / reps)[:, None] * part.representative_rows(cells[:, :n], cells[:, n:])
    return np.repeat(atoms, reps, axis=0)


class TestPartition:
    def test_one_dimensional_sphere_has_two_cells(self):
        part = partition_sphere(1, 0.3)
        assert part.cell_count == 2
        keys = part.cell_of(np.array([[1.0], [-1.0]]))
        assert keys[0] != keys[1]
        for key in keys:
            assert abs(abs(representative(part, key)[0]) - 1.0) <= 1e-12

    def test_plane_at_half(self):
        part = partition_sphere(2, 0.5)
        assert part.resolution == 8
        assert part.cell_count == 32

    def test_representative_near_basis_vector(self):
        part = partition_sphere(3, 0.4)
        e1 = np.array([[1.0, 0.0, 0.0]])
        key = part.cell_of(e1)[0]
        rep = representative(part, key)
        assert np.abs(rep - e1[0]).sum() < 0.4

    def test_same_cell_points_are_close(self):
        rng = case_rng(0, "test.partition")
        part = partition_sphere(3, 0.6)
        raw = rng.standard_normal((4000, 3))
        pts = raw / np.abs(raw).sum(axis=1, keepdims=True)
        cells = {}
        for p, key in zip(pts, part.cell_of(pts)):
            cells.setdefault(key, []).append(p)
        for members in cells.values():
            members = np.array(members)
            spread = np.abs(members[None] - members[:, None]).sum(axis=2).max()
            assert spread < 0.6

    def test_guards(self):
        with pytest.raises(DimensionGuard):
            partition_sphere(7, 0.5)
        with pytest.raises(DeltaOutOfRange):
            partition_sphere(2, 0.0)
        with pytest.raises(DeltaOutOfRange):
            partition_sphere(2, 2.5)

    def test_delta_too_small_for_exact_buckets(self):
        # 2n/delta above 2**53, or infinite, raises before any bucket exists
        for n, delta in ((1, 1e-310), (2, 5e-324), (2, 4.0 / 2 ** 53 / 1.5), (6, 1e-15)):
            with pytest.raises(DeltaOutOfRange):
                partition_sphere(n, delta)
        assert partition_sphere(2, 4.0 / 2 ** 53).resolution == 2 ** 53

    def test_cell_count_at_a_huge_resolution(self):
        # each quarter of the plane's 1-norm circle is cut into r arcs
        part = partition_sphere(2, 1e-13)
        assert part.resolution == 4 * 10 ** 13
        assert part.cell_count == 4 * part.resolution

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("delta", [2.0, 1.3, 0.9, 0.6])
    def test_cells_enumeration_matches_count(self, n, delta):
        # brute force: 2**n sign patterns times the bucket tuples in
        # range(r)**(n-1) whose sum is at most r
        part = partition_sphere(n, delta)
        r = part.resolution
        buckets = sum(1 for b in itertools.product(range(r), repeat=n - 1) if sum(b) <= r)
        assert part.cell_count == 2 ** n * buckets

    def test_representative_rows_match_per_key_formula(self):
        # reference: one key at a time, the bucket midpoints renormalized
        def per_key(part, signs, buckets):
            head = (np.asarray(buckets, dtype=np.float64) + 0.5) / part.resolution
            y = np.concatenate([head, [max(0.0, 1.0 - head.sum())]])
            return np.asarray(signs, dtype=np.float64) * (y / y.sum())

        rng = case_rng(3, "test.partition.representatives")
        for n in range(1, 7):
            for delta in (2.0, 0.9, 0.3, 1e-2, 1e-5):
                part = partition_sphere(n, delta)
                pts = rng.normal(size=(300, n)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
                pts[rng.random((300, n)) < 0.25] = 0.0
                pts[np.abs(pts).sum(axis=1) == 0.0, 0] = -1.0
                signs, buckets = part._cell_rows(pts)
                # and keys off the sphere's grid: bucket sums above resolution
                signs = np.vstack([signs, np.where(rng.random((100, n)) < 0.5, 1, -1)])
                buckets = np.vstack([buckets, rng.integers(0, part.resolution, (100, n - 1))])
                got = part.representative_rows(signs, buckets)
                want = np.array([per_key(part, s, b) for s, b in zip(signs, buckets)])
                assert got.tobytes() == want.tobytes(), (n, delta)
                one = representative(part, (signs[0], buckets[0]))
                assert one.tobytes() == want[0].tobytes()


class TestDiscretize:
    def test_codirectional_atoms_collapse(self):
        m = VectorMeasure(2, [[2.0, 0.0], [1.0, 0.0]])
        part = partition_sphere(2, 0.5)
        out = discretize(m, part, 4)
        assert out.atom_count == 4
        rep = representative(part, part.cell_of(np.array([[1.0, 0.0]]))[0])
        assert np.abs(out.atoms - 0.75 * rep).max() <= 1e-12
        hull_gap = hausdorff_convex(hull_of(m), hull_of(out)).distance
        assert hull_gap <= 0.5 * total_variation_mass(m)

    def test_matches_per_atom_reference(self):
        rng = case_rng(6, "test.discretize.reference")
        for n in range(1, 7):
            for delta in (2.0, 0.3, 1e-2, 1e-4, 1e-6):
                part = partition_sphere(n, delta)
                atoms = rng.normal(size=(400, n)) * rng.uniform(1e-3, 1e3, (400, 1))
                atoms[rng.random(400) < 0.1] = 0.0
                atoms[rng.random((400, n)) < 0.2] = 0.0  # axis and face atoms
                atoms[:40] = np.round(atoms[:40])  # on bucket boundaries
                atoms[40:80] = atoms[80:120] * 3.0  # shared cells
                m = VectorMeasure(n, atoms)
                out = discretize(m, part, 3)
                assert np.array_equal(out.atoms, per_atom_discretize(m, part, 3))

    def test_matches_unique_oracle(self):
        # the cells and masses of np.unique(axis=0) over the integer key rows,
        # byte for byte
        def unique_discretize(m, part, reps):
            norms = np.abs(m.atoms).sum(axis=1)
            keep = norms > 0.0
            signs, buckets = part._cell_rows(m.atoms[keep])
            cells, cell = np.unique(np.hstack([signs, buckets]), axis=0, return_inverse=True)
            masses = np.bincount(cell.reshape(-1), weights=norms[keep])
            n = m.dimension
            rows = [(w / reps) * representative(part, (k[:n], k[n:]))
                    for w, k in zip(masses, cells.tolist())]
            return np.repeat(rows, reps, axis=0)

        rng = case_rng(22, "test.discretize.unique")
        for n in range(1, 7):
            for delta in (2.0, 0.5, 0.07, 1e-3, 1e-5):
                k = int(rng.integers(1, 300))
                atoms = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
                atoms[rng.random(k) < 0.1] = 0.0
                atoms[rng.random((k, n)) < 0.25] = 0.0
                atoms[: k // 4] = atoms[k // 4 : 2 * (k // 4)] * -2.0
                m = VectorMeasure(n, atoms)
                out = discretize(m, partition_sphere(n, delta), 2).atoms
                want = unique_discretize(m, partition_sphere(n, delta), 2)
                assert out.shape == want.shape and out.tobytes() == want.tobytes(), (n, delta)

    def test_integer_keys_match_lexsort_oracle(self):
        # byte for byte against the 2n - 1 column lexsort, on every sign
        # pattern, zero, +-0.0 and axis coordinates, atoms on bucket edges,
        # y = 1 (clamped to bucket r - 1) and resolutions up to 2**53
        rng = case_rng(35, "test.discretize.keys")
        for n in range(1, 7):
            parts = [partition_sphere(n, delta) for delta in (2.0, 0.3, 1e-3, 1e-7)]
            parts.append(partition_sphere(n, 2.0 * n / 2.0 ** 53))
            assert parts[-1].resolution == 2 ** 53
            for part in parts:
                r = part.resolution
                k = 300
                signs = rng.choice([-1.0, 1.0], (k, n))
                atoms = signs * rng.uniform(0.0, 1.0, (k, n)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
                atoms[rng.random(k) < 0.1] = 0.0
                atoms[rng.random((k, n)) < 0.2] = 0.0
                atoms[rng.random((k, n)) < 0.1] = -0.0
                edges = rng.integers(0, min(r, 2 ** 20) + 1, (40, n)) * signs[:40]
                atoms[:40] = edges  # integer coordinates: 1-norm fractions on bucket edges
                atoms[40:60] = np.eye(n)[rng.integers(0, n, 20)] * rng.choice([-1.0, 1.0], (20, 1))
                atoms[60:80] = atoms[80:100] * rng.uniform(0.5, 2.0, (20, 1))  # shared cells
                if r == 2 ** 53 and n > 1:
                    # neighbouring buckets near the top of the first coordinate
                    atoms[100:120, 0] = 1.0 - rng.integers(1, 8, 20) * 2.0 ** -53
                    atoms[100:120, 1:] = signs[100:120, 1:] * (1.0 - atoms[100:120, :1]) / (n - 1)
                atoms = atoms[rng.permutation(k)]
                nonzero = atoms[np.abs(atoms).sum(axis=1) > 0]
                for m in (VectorMeasure(n, atoms), VectorMeasure(n, nonzero)):
                    for reps in (1, 3, 7):
                        out = discretize(m, part, reps).atoms
                        want = lexsort_discretize(m, part, reps)
                        assert out.shape == want.shape and out.tobytes() == want.tobytes(), (n, r, reps)
            empty = VectorMeasure(n, np.zeros((0, n)))
            zero = VectorMeasure(n, [[0.0] * n, [-0.0] * n])
            for measure in (empty, zero):
                assert discretize(measure, parts[0], 3).atoms.shape == (0, n)
                assert lexsort_discretize(measure, parts[0], 3).shape == (0, n)

    def test_size_guard_before_replicating(self):
        # 2 cells x 10**15 reps x n = 2 would be 32 PB of atoms
        m = VectorMeasure(2, [[1.0, 0.5], [-0.2, 1.0]])
        with pytest.raises(SizeGuard, match="2 cells x 1000000000000000 reps x 2"):
            discretize(m, partition_sphere(2, 0.5), 10 ** 15)
        with pytest.raises(SizeGuard):
            discretize(VectorMeasure(2, [[1.0, 0.0]]), partition_sphere(2, 0.5), 2 ** 23 + 1)
        for n in range(1, 7):
            axis = np.eye(n)[:1]
            with pytest.raises(SizeGuard, match=f"2 cells x 1000000000000000 reps x {n}"):
                discretize(VectorMeasure(n, np.vstack([axis, -axis])), partition_sphere(n, 0.5), 10 ** 15)

    def test_zero_measure(self):
        out = discretize(VectorMeasure(2, []), partition_sphere(2, 0.5), 3)
        assert out.atom_count == 0

    def test_mass_preserved(self):
        rng = case_rng(1, "test.discretize")
        m = VectorMeasure(3, rng.uniform(-1, 1, (200, 3)))
        out = discretize(m, partition_sphere(3, 0.4), 2)
        assert total_variation_mass(out) == pytest.approx(
            total_variation_mass(m), rel=1e-9
        )

    def test_hull_error_within_delta_mass(self):
        rng = case_rng(2, "test.discretize")
        m = VectorMeasure(2, rng.uniform(-1, 1, (500, 2)))
        delta = 0.25
        out = discretize(m, partition_sphere(2, delta), 1)
        gap = hausdorff_convex(hull_of(m), hull_of(out)).distance
        assert gap <= delta * total_variation_mass(m)


class TestBounds:
    def test_product_error_bound_arithmetic(self):
        p = DiscretizationParams(delta=0.01, reps=10, epsilon=0.1)
        assert product_error_bound(p, 1.0, 1.0, 2) == pytest.approx(0.04)

    def test_product_error_bound_vanishes(self):
        p = DiscretizationParams(delta=1e-9, reps=10_000, epsilon=1.0)
        assert product_error_bound(p, 1.0, 1.0, 2) < 1e-7
        assert product_error_bound(p, 0.0, 1.0, 2) == 0.0

    def test_skeleton_bound_arithmetic(self):
        assert skeleton_bound(2, 1.0, 0.1) == pytest.approx(0.8)
        assert skeleton_bound(2, 1.0, 0.0) == 0.0

    def test_skeleton_bound_monotone(self):
        base = skeleton_bound(2, 1.0, 0.1)
        assert skeleton_bound(3, 1.0, 0.1) > base
        assert skeleton_bound(2, 2.0, 0.1) > base
        assert skeleton_bound(2, 1.0, 0.2) > base

    def test_product_params_meet_constraints(self):
        params = product_params(2, 1.5, 1.2, epsilon=0.25)
        assert params.satisfies_reps_constraint(2, 1.5, 1.2)
        assert params.delta < 0.25 / (4.0 * 1.5 * 1.2)

    @pytest.mark.parametrize("n, bound_constant, delta, name", [
        (0, 1.0, 0.1, "n"),
        (2, np.nan, 0.1, "bound_constant"),
        (2, -1.0, 0.1, "bound_constant"),
        (2, 1.0, np.nan, "delta"),
        (2, 1.0, -0.1, "delta"),
    ])
    def test_skeleton_bound_rejects_nan_and_negative(self, n, bound_constant, delta, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"\b{name}\b.*, got"):
                skeleton_bound(n, bound_constant, delta)

    @pytest.mark.parametrize("mass1, mass2, epsilon, name", [
        (1.0, 1.0, np.nan, "epsilon"),
        (1.0, 1.0, 0.0, "epsilon"),
        (1.0, 1.0, -0.5, "epsilon"),
        (np.nan, 1.0, 0.1, "mass1"),
        (-1.0, 1.0, 0.1, "mass1"),
        (1.0, np.nan, 0.1, "mass2"),
        (1.0, -0.5, 0.1, "mass2"),
        (np.inf, 1.0, 0.1, "mass1"),
        (1.0, -np.inf, 0.1, "mass2"),
        (1e300, 1e300, 1e-300, "epsilon"),
    ])
    def test_product_params_rejects_nan_and_negative(self, mass1, mass2, epsilon, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be"):
                product_params(2, mass1, mass2, epsilon)

    def test_product_params_divide_before_the_product_overflows(self):
        # 1e200 * 1e200 overflows although 2 n mass1 mass2 / epsilon = 4e100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = product_params(2, 1e200, 1e200, 1e300)
        assert params.delta == (1e300 / 1e200) / (8.0 * 1e200) > 0.0
        # past 2**106 the float root rounds down, so reps is the exact isqrt
        assert params.reps == isqrt(int(4.0 * (1e200 / 1e300) * 1e200)) + 1
        # a finite product keeps the left-to-right expressions
        reps_squared = 2.0 * 2 * 1.5 * 1.2 / 0.25
        assert product_params(2, 1.5, 1.2, 0.25) == DiscretizationParams(
            min(2.0, 0.25 / (8.0 * (1.5 * 1.2))), int(np.floor(np.sqrt(reps_squared))) + 1, 0.25)

    def test_product_params_delta_divides_first_when_eight_masses_overflow(self):
        # 2 n mass1 mass2 / epsilon = 1e8 is finite, but 8 mass1 mass2 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = product_params(1, 1e154, 5e153, 1e300)
        assert params.delta == (1e300 / 1e154) / (8.0 * 5e153) > 0.0
        assert params.reps == 10001

    @pytest.mark.parametrize("n, mass1, mass2, epsilon", [
        (2, 1e200, 1e200, 1e300),  # 2 n mass1 mass2 / epsilon overflows left to right
        (1, 1e154, 5e153, 1e300),  # only 8 mass1 mass2 overflows
    ])
    def test_numpy_scalars_overflow_as_python_floats(self, n, mass1, mass2, epsilon):
        # numpy scalars warn where Python floats overflow silently
        want = product_params(n, mass1, mass2, epsilon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = product_params(np.int64(n), *map(np.float64, (mass1, mass2, epsilon)))
            assert got.satisfies_reps_constraint(np.int64(n), np.float64(mass1), np.float64(mass2))
        assert got == want and got.delta > 0.0

    @pytest.mark.parametrize("n, mass1, mass2, epsilon", [
        (2, 1e200, 1e200, 1e300),  # the check's own left-to-right product overflows
        (2, 1e100, 1e100, 1e-10),  # 4e210 is past 2**106, where the float root rounds down
    ])
    def test_large_params_satisfy_their_constraint(self, n, mass1, mass2, epsilon):
        params = product_params(n, mass1, mass2, epsilon)
        assert params.satisfies_reps_constraint(n, mass1, mass2)
        assert not DiscretizationParams(
            params.delta, params.reps - 1, epsilon).satisfies_reps_constraint(n, mass1, mass2)

    def test_reps_keep_the_float_root_where_it_satisfies(self):
        # seeded masses and epsilons over 10^-150 ... 10^150: reps is
        # floor(sqrt(x)) + 1 in floats wherever that satisfies N^2 > x
        # exactly, and the least such integer otherwise
        rng = case_rng(3, "test.discretization.reps")
        kept = 0
        for _ in range(2000):
            n = int(rng.integers(1, 7))
            mass1, mass2, epsilon = map(float, 10.0 ** rng.uniform(-150.0, 150.0, 3))
            ratio = 2.0 * n * mass1 * mass2 / epsilon
            if not ratio < np.inf:
                ratio = 2.0 * n * (mass1 / epsilon) * mass2
            if not ratio < np.inf:
                continue
            params = product_params(n, mass1, mass2, epsilon)
            assert params.satisfies_reps_constraint(n, mass1, mass2)
            old = int(np.floor(np.sqrt(ratio))) + 1
            if old ** 2 > ratio:
                assert params.reps == old
                kept += 1
            else:
                assert params.reps == isqrt(int(ratio)) + 1
        assert kept > 1000

    def test_product_params_accept_zero_mass(self):
        assert product_params(2, 0.0, 1.0, 0.1) == DiscretizationParams(2.0, 1, 0.1)
