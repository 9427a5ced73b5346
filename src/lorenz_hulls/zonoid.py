"""Constructive zonoid representation: every discrete hull arises as the
range of a piecewise-density measure, and every hull point is achieved by a
measurable coefficient set realized as a union of real intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotInHull
from .hulls import contains_point, hull_of
from .measures import PiecewiseDensityMeasure, VectorMeasure, _rows


@dataclass(frozen=True)
class AchievementCertificate:
    """Coefficients and their interval realization for one hull point.

    ``coefficients`` has one entry per atom of the source measure.  The
    intervals place coefficient ``t_j`` of the j-th nonzero atom on
    ``(j, j + t_j]`` along the density axis, so integrating the unit-piece
    density of :func:`to_density` over their union reproduces the target.
    Intervals with zero coefficient are omitted.
    """

    coefficients: np.ndarray
    intervals: tuple[tuple[float, float], ...]
    residual: float


def to_density(m: VectorMeasure) -> PiecewiseDensityMeasure:
    """Unit-length density piece per nonzero atom, in atom order.

    The resulting density's range equals the hull of ``m``: its support
    integral in any direction is the same clipped sum as the hull's reach.
    """
    keep = np.abs(m.atoms).sum(axis=1) > 0.0
    directions = m.atoms[keep]
    return PiecewiseDensityMeasure(
        m.dimension, np.ones(directions.shape[0]), directions
    )


def density_reach_many(pd: PiecewiseDensityMeasure, directions) -> np.ndarray:
    """Support integral of the density range: sum_i len_i max(0, <d, f_i>)."""
    D = _rows(np.atleast_2d(directions), pd.dimension, "directions")
    return np.maximum(D @ pd.directions.T, 0.0) @ pd.lengths


def interval_realization(
    m: VectorMeasure, coefficients, target=None
) -> AchievementCertificate:
    """Realize a coefficient vector as disjoint intervals on the density axis.

    Nested coefficient vectors yield nested interval sets, and the total
    interval length is the coefficient sum over nonzero atoms.
    """
    lam = np.asarray(coefficients, dtype=np.float64).reshape(-1)
    if lam.shape[0] != m.atom_count:
        raise DimensionMismatch(
            f"{lam.shape[0]} coefficients for {m.atom_count} atoms"
        )
    if lam.size and not (lam.min() >= -1e-12 and lam.max() <= 1.0 + 1e-12):
        raise ValueError("coefficients must lie in [0, 1]")
    lam = np.clip(lam, 0.0, 1.0)
    nonzero = np.abs(m.atoms).sum(axis=1) > 0.0
    intervals = []
    for j, t in enumerate(lam[nonzero]):
        if t > 0.0:
            intervals.append((float(j), float(j + t)))
    point = lam @ m.atoms
    residual = 0.0
    if target is not None:
        target = _rows(np.reshape(target, (1, -1)), m.dimension, "target", mass=True)[0]
        residual = float(np.abs(point - target).sum())
    return AchievementCertificate(lam, tuple(intervals), residual)


def achieve(m: VectorMeasure, target, tol: float = 1e-9) -> AchievementCertificate:
    """Coefficients and intervals reproducing a point of the hull.

    Feasibility is decided by :func:`contains_point` on the hull of the
    nonzero atoms (the central certificate, then the ascent, then one LP,
    at every size), whose coefficients are accepted (zero atoms receive
    coefficient zero).  Raises :class:`NotInHull` with the separating
    witness when the target is outside.
    """
    p = _rows(np.reshape(target, (1, -1)), m.dimension, "target", mass=True)[0]
    hull = hull_of(m)
    verdict = contains_point(hull, p, tol=tol)
    if not verdict.inside:
        raise NotInHull("target lies outside the hull", verdict.witness)
    lam = np.zeros(m.atom_count)
    nonzero = np.abs(m.atoms).sum(axis=1) > 0.0
    lam[nonzero] = verdict.coefficients
    return interval_realization(m, lam, target=p)


def certificate_to_json_dict(cert: AchievementCertificate) -> dict:
    return {
        "lambda": cert.coefficients.tolist(),
        "intervals": [[lo, hi] for lo, hi in cert.intervals],
        "residual": cert.residual,
    }
