import numpy as np
import pytest

from lorenz_hulls import (
    AchievementCertificate,
    DimensionMismatch,
    NonFiniteValue,
    NotInHull,
    VectorMeasure,
    achieve,
    certificate_to_json_dict,
    contains_point,
    density_reach_many,
    hull_of,
    interval_realization,
    reach_many,
    to_density,
    within_tolerance,
)
from lorenz_hulls.measures import _nonzero_rows, _rows
from lorenz_hulls.sampling import case_rng, unit_directions


def reference_realization(m, coefficients, target=None):
    """interval_realization as it was before achieve shared its helper: a
    loop over the nonzero atoms.  The oracle of the achieve corpus."""
    lam = np.asarray(coefficients, dtype=np.float64).reshape(-1)
    if lam.shape[0] != m.atom_count:
        raise DimensionMismatch(f"{lam.shape[0]} coefficients for {m.atom_count} atoms")
    if lam.size and not (lam.min() >= -1e-12 and lam.max() <= 1.0 + 1e-12):
        raise ValueError("coefficients must lie in [0, 1]")
    lam = np.clip(lam, 0.0, 1.0)
    intervals = []
    for j, t in enumerate(lam[_nonzero_rows(m.atoms)]):
        if t > 0.0:
            intervals.append((float(j), float(j + t)))
    point = lam @ m.atoms
    residual = 0.0
    if target is not None:
        target = _rows(np.reshape(target, (1, -1)), m.dimension, "target", mass=True)[0]
        residual = float(np.abs(point - target).sum())
    return AchievementCertificate(lam, tuple(intervals), residual)


def reference_achieve(m, target, tol=1e-9):
    """achieve as it was: the target checked three times, the nonzero atoms
    found three times, and the certificate from reference_realization."""
    p = _rows(np.reshape(target, (1, -1)), m.dimension, "target", mass=True)[0]
    verdict = contains_point(hull_of(m), p, tol=tol)
    if not verdict.inside:
        raise NotInHull("target lies outside the hull", verdict.witness)
    lam = np.zeros(m.atom_count)
    lam[_nonzero_rows(m.atoms)] = verdict.coefficients
    return reference_realization(m, lam, target=p)


def same_certificate(got, want):
    """Coefficients, intervals and residual equal bit for bit."""
    return (got.coefficients.dtype == want.coefficients.dtype
            and got.coefficients.tobytes() == want.coefficients.tobytes()
            and np.array(got.intervals).tobytes() == np.array(want.intervals).tobytes()
            and len(got.intervals) == len(want.intervals)
            and np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes())


class TestToDensity:
    def test_single_atom(self):
        pd = to_density(VectorMeasure(2, [[3, -1]]))
        assert pd.lengths.tolist() == [1.0]
        assert pd.directions.tolist() == [[3, -1]]

    def test_two_atoms(self):
        pd = to_density(VectorMeasure(2, [[1, 0], [0, 1]]))
        assert pd.piece_count == 2
        assert pd.lengths.tolist() == [1.0, 1.0]

    def test_zero_measure(self):
        assert to_density(VectorMeasure(3, [])).piece_count == 0

    def test_zero_atoms_skipped(self):
        pd = to_density(VectorMeasure(2, [[1, 1], [0, 0]]))
        assert pd.piece_count == 1

    def test_support_equals_reach(self):
        rng = case_rng(0, "test.density")
        for _ in range(10):
            n = int(rng.integers(2, 5))
            m = VectorMeasure(n, rng.uniform(-2, 2, (int(rng.integers(1, 8)), n)))
            dirs = unit_directions(rng, 500, n)
            assert within_tolerance(
                density_reach_many(to_density(m), dirs),
                reach_many(hull_of(m), dirs),
            )


class TestAchieve:
    def test_non_finite_target_and_bad_tol_rejected(self):
        m = VectorMeasure(2, [[1, 0], [0, 1]])
        with pytest.raises(NonFiniteValue, match="NaN or infinite"):
            achieve(m, [float("nan"), 1.0])
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            achieve(m, [0.5, 0.5], tol=float("nan"))

    def test_zero_target(self):
        cert = achieve(VectorMeasure(2, [[1, 0], [0, 1]]), [0, 0])
        assert cert.coefficients.tolist() == [0, 0]
        assert cert.intervals == ()

    def test_full_target(self):
        cert = achieve(VectorMeasure(2, [[1, 0], [0, 1]]), [1, 1])
        assert cert.coefficients.tolist() == [1, 1]
        assert cert.intervals == ((0.0, 1.0), (1.0, 2.0))

    def test_square_center(self):
        cert = achieve(VectorMeasure(2, [[1, 0], [0, 1]]), [0.5, 0.5])
        assert np.abs(
            cert.coefficients @ np.array([[1.0, 0.0], [0.0, 1.0]]) - [0.5, 0.5]
        ).sum() <= 1e-9
        assert cert.residual <= 1e-9

    def test_not_in_hull_carries_witness(self):
        m = VectorMeasure(2, [[1, 0], [0, 1]])
        with pytest.raises(NotInHull) as err:
            achieve(m, [2.0, 2.0])
        w = np.asarray(err.value.witness)
        assert float(w @ [2.0, 2.0]) > reach_many(hull_of(m), w[None])[0]

    def test_round_trip_random_points(self):
        rng = case_rng(1, "test.achieve")
        for _ in range(10):
            n = int(rng.integers(2, 4))
            m = VectorMeasure(n, rng.uniform(-1, 1, (int(rng.integers(1, 7)), n)))
            lam = rng.uniform(0, 1, m.atom_count)
            target = lam @ m.atoms
            cert = achieve(m, target, tol=1e-9)
            assert np.abs(cert.coefficients @ m.atoms - target).sum() <= 1e-8

    def test_certificates_scale_exactly(self):
        rng = case_rng(2, "test.achieve.scale")
        m = VectorMeasure(4, rng.normal(size=(6, 4)))
        target = rng.uniform(0, 1, 6) @ m.atoms
        base = achieve(m, target)
        for k in (-300, 300):
            f = 2.0 ** k
            cert = achieve(VectorMeasure(4, m.atoms * f), target * f, tol=1e-9 * f)
            assert np.array_equal(cert.coefficients, base.coefficients)
            assert cert.intervals == base.intervals

    def test_zero_atoms_get_zero_coefficients(self):
        m = VectorMeasure(2, [[1, 0], [0, 0], [0, 1]])
        cert = achieve(m, [1.0, 1.0])
        assert cert.coefficients.tolist() == [1.0, 0.0, 1.0]
        # intervals are indexed along the density axis of the nonzero atoms
        assert cert.intervals == ((0.0, 1.0), (1.0, 2.0))

    def test_matches_its_reference(self):
        # achieve against reference_achieve, bit for bit: n = 1...5 and
        # m = 0...12 atoms, zero atoms at every position, integer and
        # Gaussian atoms; targets inside, at a vertex (coefficients exactly
        # 0 and 1), +-0.0, the origin, the total and outside, whose
        # NotInHull witness must match too
        rng = case_rng(3, "test.achieve.reference")
        checked = outside = 0
        for case in range(120):
            n, m = 1 + case % 5, int(rng.integers(0, 13))
            atoms = rng.normal(size=(m, n))
            if case % 3 == 1:
                atoms = np.round(2.0 * atoms)
            if m:
                atoms[case % m] = 0.0
                atoms[rng.random(m) < 0.2] = 0.0
            measure = VectorMeasure(n, atoms)
            u = rng.normal(size=n)
            targets = [
                rng.uniform(0.0, 1.0, m) @ atoms,
                (atoms @ u > 0.0) @ atoms,
                np.zeros(n),
                -np.zeros(n),
                np.where(np.arange(n) % 2, -0.0, 0.0),
                atoms.sum(axis=0),
                atoms.sum(axis=0) / 2.0 + (np.abs(atoms).sum() + 1.0) * u,
            ]
            for i, target in enumerate(targets):
                try:
                    want = reference_achieve(measure, target)
                except NotInHull as err:
                    with pytest.raises(NotInHull) as got:
                        achieve(measure, target)
                    assert np.asarray(got.value.witness).tobytes() == np.asarray(err.witness).tobytes()
                    outside += 1
                    continue
                assert same_certificate(achieve(measure, target), want), (case, i)
                lam = want.coefficients
                for t in (target, None):
                    cert = interval_realization(measure, lam, target=t)
                    assert same_certificate(cert, reference_realization(measure, lam, target=t)), (case, i)
                checked += 1
        assert checked >= 400 and outside >= 60, (checked, outside)


class TestIntervalRealization:
    def test_nested_for_scaled_coefficients(self):
        m = VectorMeasure(2, [[1, 0], [0, 1], [1, 1]])
        previous = set()
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            cert = interval_realization(m, np.full(3, lam))
            current = set(cert.intervals)
            assert all(
                any(lo2 <= lo and hi <= hi2 for lo2, hi2 in current)
                for lo, hi in previous
            )
            total = sum(hi - lo for lo, hi in cert.intervals)
            assert total == pytest.approx(3 * lam, abs=1e-12)
            previous = current

    def test_intervals_disjoint(self):
        m = VectorMeasure(2, [[1, 0], [0, 1], [1, 1]])
        cert = interval_realization(m, [0.5, 1.0, 0.25])
        spans = sorted(cert.intervals)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi <= lo

    def test_residual_against_target(self):
        m = VectorMeasure(2, [[1, 0], [0, 1]])
        cert = interval_realization(m, [0.5, 0.5], target=[0.5, 0.25])
        assert cert.residual == pytest.approx(0.25)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            interval_realization(VectorMeasure(2, [[1, 0]]), [1.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        m = VectorMeasure(2, [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match=r"^coefficients must lie in \[0, 1\]$"):
            interval_realization(m, [bad, 0.5])

    def test_json_payload(self):
        cert = interval_realization(VectorMeasure(2, [[1, 0]]), [0.5])
        payload = certificate_to_json_dict(cert)
        assert payload == {
            "lambda": [0.5],
            "intervals": [[0.0, 0.5]],
            "residual": 0.0,
        }
