import numpy as np
import pytest

from lorenz_hulls import (
    DeltaOutOfRange,
    DimensionGuard,
    DiscretizationParams,
    PiecewiseDensityMeasure,
    VectorMeasure,
    discretize,
    hausdorff_convex,
    hull_of,
    partition_sphere,
    product_error_bound,
    product_params,
    skeleton_bound,
    slice_density,
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
        # arcs have 1-norm length 2/resolution = 0.25
        assert part.diameter_bound == pytest.approx(0.25)

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

    def test_cells_enumeration_matches_count(self):
        part = partition_sphere(2, 0.9)
        listed = list(part.cells())
        assert len(listed) == part.cell_count
        assert len({key for key, _ in listed}) == len(listed)

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
        p = DiscretizationParams(delta=0.01, reps=10, bound_constant=1.0, epsilon=0.1)
        assert product_error_bound(p, 1.0, 1.0, 2) == pytest.approx(0.04)

    def test_product_error_bound_vanishes(self):
        p = DiscretizationParams(delta=1e-9, reps=10_000, bound_constant=1.0, epsilon=1.0)
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

    def test_skeleton_constraint(self):
        p = DiscretizationParams(delta=0.01, reps=3, bound_constant=1.0, epsilon=0.5)
        assert p.satisfies_skeleton_constraint(2)
        assert not DiscretizationParams(0.1, 3, 1.0, 0.5).satisfies_skeleton_constraint(2)


class TestSliceDensity:
    def test_uniform_slicing(self):
        pd = PiecewiseDensityMeasure(2, [2.0], [[1.0, 0.0]])
        m = slice_density(pd, slices_per_unit=4)
        assert m.atom_count == 8
        assert np.abs(m.atoms - np.array([0.25, 0.0])).max() == 0.0
        assert total_variation_mass(m) == pytest.approx(2.0)

    def test_fractional_piece(self):
        pd = PiecewiseDensityMeasure(1, [0.3], [[2.0]])
        m = slice_density(pd, slices_per_unit=10)
        assert m.atom_count == 3
        assert m.total()[0] == pytest.approx(0.6)
