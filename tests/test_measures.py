import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorenz_hulls import (
    ComplexVectorMeasure,
    DimensionMismatch,
    DuplicateLabel,
    NonFiniteValue,
    ParseError,
    PiecewiseDensityMeasure,
    SkeletonPointSet,
    VectorMeasure,
    ZeroAtom,
    Zonotope,
    complex_coordinate_product,
    complex_embed,
    coordinate_product,
    direct_sum,
    interleaved_product,
    measure_from_json_dict,
    measure_to_json_dict,
    rn_direction,
    total_variation_mass,
    validate,
    validate_complex,
)
import lorenz_hulls as lh
from lorenz_hulls.sampling import case_rng


def complex_measure(dim, rows):
    """ComplexVectorMeasure of rows of Python complex numbers, interleaved
    as (re, im) pairs."""
    z = np.array(rows, dtype=complex).reshape(len(rows), dim)
    interleaved = np.stack([z.real, z.imag], axis=-1).reshape(len(rows), 2 * dim)
    return ComplexVectorMeasure(dim, interleaved)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64,
                          min_value=-1e12, max_value=1e12)


class TestValidate:
    def test_well_formed(self):
        m = validate({"dim": 2, "atoms": [[1, 0], [0, 1]]})
        assert m.dimension == 2
        assert m.atom_count == 2

    def test_arity_violation(self):
        with pytest.raises(DimensionMismatch):
            validate({"dim": 2, "atoms": [[1, 0], [0]]})

    def test_empty_is_zero_measure(self):
        m = validate({"dim": 3, "atoms": []})
        assert m.atom_count == 0
        assert np.array_equal(m.total(), np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteValue):
            VectorMeasure(2, [[np.nan, 0.0]])
        with pytest.raises(NonFiniteValue):
            VectorMeasure(2, [[np.inf, 0.0]])

    @pytest.mark.parametrize("payload", [
        {"dim": 2, "atoms": 5},
        {"dim": 2, "atoms": None},
        {"dim": 2, "atoms": [5, 6]},
        {"dim": 2.7, "atoms": [[1, 0]]},
        {"dim": 2.0, "atoms": [[1, 0]]},
        {"dim": True, "atoms": [[1]]},
        {"dim": "2", "atoms": [[1, 0]]},
        {"atoms": [[1, 0]]},
    ])
    def test_malformed_description_is_a_parse_error(self, payload):
        with pytest.raises(ParseError):
            validate(payload)
        with pytest.raises(ParseError):
            validate_complex({**payload, "complex": True})

    def test_malformed_labels_and_coordinates_are_parse_errors(self):
        with pytest.raises(ParseError):
            validate({"dim": 2, "atoms": [[1, 0]], "labels": 5})
        with pytest.raises(ParseError):
            validate({"dim": 2, "atoms": [[{}, 0]]})

    def test_dimension_must_be_positive(self):
        with pytest.raises(DimensionMismatch):
            validate({"dim": -1, "atoms": []})
        with pytest.raises(DimensionMismatch):
            validate_complex({"dim": 0, "atoms": []})

    def test_overflowing_mass_rejected(self):
        # every coordinate is finite, but the 1-norm mass is not
        rng = case_rng(3, "test.measures.overflow")
        for _ in range(5):
            m, n = (int(x) for x in rng.integers(1, 4, 2))
            rows = rng.uniform(0.6, 1.0, (2 * m, 2 * n)) * np.finfo(float).max
            rows *= rng.choice([-1.0, 1.0], rows.shape)
            for build in (lambda a: VectorMeasure(2 * n, a),
                          lambda a: ComplexVectorMeasure(n, a),
                          lambda a: Zonotope(2 * n, a)):
                with pytest.raises(NonFiniteValue, match="mass"):
                    build(rows)
                build(rows / (4 * m * n))  # the same rows at a summable scale

    def test_caller_array_stays_writable(self):
        builds = (
            (lambda g: VectorMeasure(2, g), "atoms"),
            (lambda g: ComplexVectorMeasure(1, g), "atoms"),
            (lambda g: Zonotope(2, g), "generators"),
            (lambda g: PiecewiseDensityMeasure(2, g[:, 0].copy(), g), "directions"),
            (lambda g: PiecewiseDensityMeasure(2, g[:, 0], g.copy()), "lengths"),
        )
        for build, field in builds:
            g = np.ones((2, 2))
            value = getattr(build(g), field)
            g[0, 0] = 5.0
            assert not value.flags.writeable
            assert (value == 1.0).all()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            VectorMeasure(2, [[1, 0], [0, 1]], labels=("a", "a"))

    def test_atoms_preserved_bit_exactly(self):
        values = [[0.1, -1e-17], [3e300, 5e-320]]
        m = validate({"dim": 2, "atoms": values})
        assert m.atoms.tolist() == values


class TestTotalVariation:
    def test_unit_vectors(self):
        assert total_variation_mass(VectorMeasure(2, [[1, 0], [0, 1]])) == 2.0

    def test_zero_measure(self):
        assert total_variation_mass(VectorMeasure(2, [])) == 0.0

    def test_hand_summed(self):
        # |1| + |-2| + |3| + |4|
        assert total_variation_mass(VectorMeasure(2, [[1, -2], [3, 4]])) == 10.0


class TestDirections:
    def test_axis(self):
        m = VectorMeasure(2, [[2, 0]])
        assert rn_direction(m, 0).tolist() == [1.0, 0.0]

    def test_normalization(self):
        m = VectorMeasure(2, [[1, 1]])
        assert rn_direction(m, 0).tolist() == [0.5, 0.5]

    def test_zero_atom(self):
        with pytest.raises(ZeroAtom):
            rn_direction(VectorMeasure(2, [[0, 0]]), 0)

    @given(st.lists(finite_floats, min_size=2, max_size=5))
    def test_unit_1norm(self, coords):
        m = VectorMeasure(len(coords), [coords])
        if np.abs(m.atoms).sum() == 0:
            return
        assert abs(np.abs(rn_direction(m, 0)).sum() - 1.0) <= 1e-12


class TestDirectSum:
    def test_concatenation(self):
        s = direct_sum(VectorMeasure(2, [[1, 0]]), VectorMeasure(2, [[0, 1]]))
        assert s.atoms.tolist() == [[1, 0], [0, 1]]

    def test_zero_measure_neutral(self):
        a = VectorMeasure(2, [[1, 2], [3, 4]])
        assert direct_sum(VectorMeasure(2, []), a).atoms.tolist() == a.atoms.tolist()

    def test_cardinality_and_mass(self):
        a = VectorMeasure(3, np.arange(9.0).reshape(3, 3))
        b = VectorMeasure(3, np.ones((2, 3)))
        s = direct_sum(a, b)
        assert s.atom_count == 5
        assert total_variation_mass(s) == pytest.approx(
            total_variation_mass(a) + total_variation_mass(b), rel=1e-12
        )

    def test_labels_disjointified(self):
        a = VectorMeasure(2, [[1, 0]], labels=("x",))
        b = VectorMeasure(2, [[0, 1]], labels=("x",))
        assert direct_sum(a, b).labels == ("a.x", "b.x")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            direct_sum(VectorMeasure(2, []), VectorMeasure(3, []))


class TestCoordinateProduct:
    def test_single_pair(self):
        p = coordinate_product(VectorMeasure(2, [[2, 3]]), VectorMeasure(2, [[5, 7]]))
        assert p.atoms.tolist() == [[10, 21]]

    def test_all_ones_factor(self):
        p = coordinate_product(
            VectorMeasure(2, [[1, 0], [0, 1]]), VectorMeasure(2, [[1, 1]])
        )
        assert p.atoms.tolist() == [[1, 0], [0, 1]]

    def test_lexicographic_order_and_size(self):
        a = VectorMeasure(1, [[1], [2], [3]])
        b = VectorMeasure(1, [[10], [20], [30], [40]])
        p = coordinate_product(a, b)
        assert p.atom_count == 12
        assert p.atoms[:, 0].tolist() == [
            10, 20, 30, 40, 20, 40, 60, 80, 30, 60, 90, 120
        ]

    def test_mass_bound(self):
        a = VectorMeasure(2, [[1, -2], [0.5, 3]])
        b = VectorMeasure(2, [[-1, 1], [2, 0]])
        assert total_variation_mass(coordinate_product(a, b)) <= (
            total_variation_mass(a) * total_variation_mass(b) * (1 + 1e-9)
        )


class TestComplex:
    def test_embedding_interleaves(self):
        c = complex_measure(2, [[3 - 4j, 1j]])
        assert complex_embed(c).atoms.tolist() == [[3, -4, 0, 1]]

    def test_embedding_single(self):
        c = complex_measure(1, [[1 + 2j]])
        assert complex_embed(c).atoms.tolist() == [[1, 2]]
        assert complex_embed(c).dimension == 2

    def test_zero_atom(self):
        c = complex_measure(3, [[0j, 0j, 0j]])
        assert complex_embed(c).atoms.tolist() == [[0.0] * 6]

    def test_product_matches_complex_multiplication(self):
        a = complex_measure(1, [[1 + 2j]])
        b = complex_measure(1, [[3 + 4j]])
        assert complex_coordinate_product(a, b).atoms.tolist() == [[-5, 10]]

    def test_unit_identity(self):
        a = complex_measure(2, [[2 + 3j, -1j]])
        one = complex_measure(2, [[1 + 0j, 1 + 0j]])
        assert complex_coordinate_product(a, one).atoms.tolist() == a.atoms.tolist()

    def test_i_squared(self):
        i = complex_measure(1, [[1j]])
        assert complex_coordinate_product(i, i).atoms.tolist() == [[-1, 0]]
        assert interleaved_product([0.0, 1.0], [0.0, 1.0]).tolist() == [-1, 0]

    def test_embed_of_product_is_interleaved_product_of_embeds(self):
        rng = np.random.default_rng(3)
        a = ComplexVectorMeasure(2, rng.normal(size=(3, 4)))
        b = ComplexVectorMeasure(2, rng.normal(size=(2, 4)))
        left = complex_embed(complex_coordinate_product(a, b)).atoms
        ea, eb = complex_embed(a).atoms, complex_embed(b).atoms
        right = interleaved_product(ea[:, None, :], eb[None, :, :]).reshape(6, 4)
        assert np.array_equal(np.sort(left, axis=0), np.sort(right, axis=0))


class TestSerialization:
    def test_fixture_round_trip(self):
        m = VectorMeasure(2, [[0.1, -2.5e-12]], labels=("only",))
        back = measure_from_json_dict(json.loads(json.dumps(measure_to_json_dict(m))))
        assert back == m

    def test_complex_round_trip(self):
        c = complex_measure(1, [[0.1 + 0.3j]])
        back = measure_from_json_dict(json.loads(json.dumps(measure_to_json_dict(c))))
        assert back == c

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.lists(finite_floats, min_size=3, max_size=3), max_size=5))
    def test_round_trip_is_bit_exact(self, atoms):
        m = VectorMeasure(3, np.array(atoms).reshape(len(atoms), 3))
        back = measure_from_json_dict(json.loads(json.dumps(measure_to_json_dict(m))))
        assert back == m


# ---------------------------------------------------------------------------
# value semantics of the validated-array types

ULP = float(np.nextafter(1.5, 2.0))

# type -> (build(zero, x), values differing from build(0.0, 1.5) in one field);
# ``zero`` fills every zero coordinate and ``x`` is the first coordinate
VALUE_TYPES = {
    "VectorMeasure": (
        lambda z, x: VectorMeasure(2, [[x, z], [z, -2.0]], labels=["a", "b"]),
        [VectorMeasure(2, [[1.5, 0.0], [0.0, -2.0]], labels=["a", "c"]),
         VectorMeasure(2, [[1.5, 0.0], [0.0, -2.0]]),
         VectorMeasure(1, [[1.5], [0.0], [0.0], [-2.0]], labels=["a", "b", "c", "d"])],
    ),
    "ComplexVectorMeasure": (
        lambda z, x: ComplexVectorMeasure(1, [[x, z], [z, -2.0]]),
        [ComplexVectorMeasure(2, [[1.5, 0.0, 0.0, -2.0]])],
    ),
    "PiecewiseDensityMeasure": (
        lambda z, x: PiecewiseDensityMeasure(2, [0.5, 1.0], [[x, z], [z, -2.0]]),
        [PiecewiseDensityMeasure(2, [0.5, 2.0], [[1.5, 0.0], [0.0, -2.0]]),
         PiecewiseDensityMeasure(1, [0.5, 1.0, 1.0, 1.0], [[1.5], [0.0], [0.0], [-2.0]])],
    ),
    "Zonotope": (
        lambda z, x: Zonotope(2, [[x, z], [z, -2.0]]),
        [Zonotope(1, [[1.5], [0.0], [0.0], [-2.0]])],
    ),
    "SkeletonPointSet": (
        lambda z, x: SkeletonPointSet(2, [[z, z], [x, -2.0]], [x, -2.0]),
        [SkeletonPointSet(2, [[0.0, 0.0], [1.5, -2.0]], [1.5, -1.0]),
         SkeletonPointSet(1, [[0.0], [0.0], [1.5], [-2.0]], [1.5])],
    ),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
class TestValueSemantics:
    def test_equal_values_hash_alike(self, name):
        build, _ = VALUE_TYPES[name]
        a, b = build(0.0, 1.5), build(0.0, 1.5)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_sign_of_zero_is_ignored(self, name):
        build, _ = VALUE_TYPES[name]
        a, b = build(0.0, 1.5), build(-0.0, 1.5)
        assert pickle.dumps(a) != pickle.dumps(b)  # b holds -0.0
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_one_differing_field_is_unequal(self, name):
        build, others = VALUE_TYPES[name]
        a = build(0.0, 1.5)
        for other in others + [build(0.0, ULP)]:
            assert a != other and not a == other
        # values of the other types never compare equal
        for other_name, (other_build, _) in VALUE_TYPES.items():
            if other_name != name:
                assert a != other_build(0.0, 1.5)
        assert a != (a.dimension,)

    def test_pickle_round_trip(self, name):
        # a copy is equal, hashes alike and keeps its arrays read-only
        a = VALUE_TYPES[name][0](-0.0, 1.5)
        for back in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert back == a
            assert hash(back) == hash(a)
            arrays = [v for v in vars(back).values() if isinstance(v, np.ndarray)]
            assert arrays and not any(v.flags.writeable for v in arrays)


# every public entry point that takes a raw array: (name, what, width, mass,
# call); ``call`` takes a (2, width) array, and single-vector entries read its
# row 0; ``mass`` marks the entries that also reject an overflowing 1-norm
_SQUARE = VectorMeasure(2, [[1.0, 0.0], [0.0, 1.0]])
_SQUARE_HULL = Zonotope(2, _SQUARE.atoms)
_ENTRY_POINTS = [
    ("reach", "direction", 2, False, lambda a: lh.reach(_SQUARE_HULL, a[0])),
    ("reach_many", "directions", 2, False, lambda a: lh.reach_many(_SQUARE_HULL, a)),
    ("reach_many_3d", "directions", 3, False,
     lambda a: lh.reach_many(Zonotope(3, np.eye(3)), a)),
    ("contains_point", "point", 2, True, lambda a: lh.contains_point(_SQUARE_HULL, a[0])),
    ("separating_direction", "point", 2, True,
     lambda a: lh.separating_direction(_SQUARE_HULL, a[0])),
    ("density_reach_many", "directions", 2, False,
     lambda a: lh.density_reach_many(lh.to_density(_SQUARE), a)),
    ("achieve", "target", 2, True, lambda a: lh.achieve(_SQUARE, a[0])),
    ("interval_realization", "target", 2, True,
     lambda a: lh.interval_realization(_SQUARE, [0.5, 0.5], target=a[0])),
    ("cell_of", "points", 2, False, lambda a: lh.partition_sphere(2, 0.5).cell_of(a)),
    ("ZonogonSupport", "generators", 2, False, lambda a: lh.ZonogonSupport(a)),
    ("ZonogonSupport.eval", "queries", 2, False,
     lambda a: lh.ZonogonSupport(_SQUARE.atoms).eval(a)),
    ("shoelace_area", "vertices", 2, False, lambda a: lh.shoelace_area(a)),
    ("product_reach_many_atoms", "factor atoms", 2, False,
     lambda a: lh.product_reach_many(a, lh.ZonogonSupport(_SQUARE.atoms), np.eye(2))),
    ("product_reach_many_directions", "directions", 2, False,
     lambda a: lh.product_reach_many(_SQUARE.atoms, lh.ZonogonSupport(_SQUARE.atoms), a)),
    ("Zonotope", "generator array", 2, True, lambda a: Zonotope(2, a)),
    ("VectorMeasure", "atom array", 3, True, lambda a: VectorMeasure(3, a)),
]


@pytest.mark.parametrize(
    "what, width, mass, call", [row[1:] for row in _ENTRY_POINTS],
    ids=[row[0] for row in _ENTRY_POINTS],
)
def test_array_check_at_every_entry_point(what, width, mass, call):
    call(np.full((2, width), 0.5))
    wide = f"^{what} of length {width + 1} against dimension {width}$"
    with pytest.raises(DimensionMismatch, match=wide):
        call(np.full((2, width + 1), 0.5))
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.full((2, width), 0.5)
        rows[0, -1] = bad
        with pytest.raises(NonFiniteValue, match=f"^{what} contains a NaN or infinite coordinate$"):
            call(rows)
    if mass:
        # row 0 alone has a 1-norm of 2e308
        with pytest.raises(NonFiniteValue, match=f"^{what} has a total 1-norm mass that overflows$"):
            call(np.full((2, width), 1e308))
