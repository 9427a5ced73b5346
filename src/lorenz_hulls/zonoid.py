"""Constructive zonoid representation: every discrete hull arises as the
range of a piecewise-density measure, and every hull point is achieved by a
measurable coefficient set realized as a union of real intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotInHull
from .hulls import Zonotope, contains_point
from .measures import PiecewiseDensityMeasure, VectorMeasure, _nonzero_rows, _rows


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
    keep = _nonzero_rows(m.atoms)
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
    if target is not None:
        target = _rows(np.reshape(target, (1, -1)), m.dimension, "target", mass=True)[0]
    return _realization(m, _nonzero_rows(m.atoms), np.clip(lam, 0.0, 1.0), target)


def _realization(m: VectorMeasure, keep, lam, target) -> AchievementCertificate:
    """The certificate of coefficients ``lam`` in [0, 1] on ``m``'s atoms,
    whose nonzero rows are ``keep``: the j-th nonzero atom's t > 0 on
    (j, j + t], and the residual against a checked ``target`` (0.0 when None)."""
    kept = lam[keep]
    js = (kept > 0.0).nonzero()[0]
    intervals = tuple(zip(js.astype(float).tolist(), (js + kept[js]).tolist()))
    residual = 0.0 if target is None else float(np.abs(lam @ m.atoms - target).sum())
    return AchievementCertificate(lam, intervals, residual)


def achieve(m: VectorMeasure, target, tol: float = 1e-9) -> AchievementCertificate:
    """Coefficients and intervals reproducing a point of the hull.

    Checks the target once, finds the nonzero atoms once, and decides
    feasibility by :func:`contains_point` on the hull of those atoms (the
    central certificate, then the ascent, then one LP, at every size),
    whose coefficients in [0, 1] are accepted as they are (zero atoms
    receive coefficient zero).  Raises :class:`NotInHull` with the
    separating witness when the target is outside.
    """
    p = _rows(np.reshape(target, (1, -1)), m.dimension, "target", mass=True)[0]
    keep = _nonzero_rows(m.atoms)
    verdict = contains_point(Zonotope(m.dimension, m.atoms[keep]), p, tol=tol)
    if not verdict.inside:
        raise NotInHull("target lies outside the hull", verdict.witness)
    lam = np.zeros(m.atom_count)
    lam[keep] = verdict.coefficients
    return _realization(m, keep, lam, p)


def certificate_to_json_dict(cert: AchievementCertificate) -> dict:
    return {
        "lambda": cert.coefficients.tolist(),
        "intervals": [[lo, hi] for lo, hi in cert.intervals],
        "residual": cert.residual,
    }
