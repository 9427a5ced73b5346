"""Seeded randomness and direction-set utilities.

Reproducibility contract: every randomized routine derives its generator as
``numpy.random.default_rng(SeedSequence([seed, crc32(stream), index]))`` — the
PCG64 generator keyed by the user seed, a CRC-32 of the stream name, and the
case index.  No wall clock or platform entropy is ever mixed in, so a report
produced for a given seed is identical across runs, platforms, and worker
counts.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import SizeGuard

# coordinates in one direction set (128 MiB of float64)
DIRECTION_COORDINATE_LIMIT = 1 << 24


def case_rng(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    """Deterministic per-case generator; see the module contract."""
    key = zlib.crc32(stream.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), key, int(index)]))


def unit_directions(rng: np.random.Generator, count: int, dimension: int) -> np.ndarray:
    """Uniform directions on the Euclidean unit sphere, one per row.

    Gaussian samples normalized to unit 2-norm; rows that collapse below
    1e-12 are replaced by the first basis vector (probability ~0 event,
    handled so the output shape is always ``(count, dimension)``).  Raises
    ``ValueError`` on a negative count, and ``SizeGuard`` before allocating
    when count x dimension exceeds ``DIRECTION_COORDINATE_LIMIT``.
    """
    if count < 0:
        raise ValueError(f"direction count must be nonnegative, got {count}")
    if count * dimension > DIRECTION_COORDINATE_LIMIT:
        raise SizeGuard(
            f"direction sets capped at {DIRECTION_COORDINATE_LIMIT} coordinates, "
            f"got {count} x {dimension}"
        )
    raw = rng.standard_normal((count, dimension))
    norms = np.linalg.norm(raw, axis=1)
    bad = norms < 1e-12
    if bad.any():
        raw[bad] = 0.0
        raw[bad, 0] = 1.0
        norms[bad] = 1.0
    return raw / norms[:, None]


def sign_vectors(dimension: int) -> np.ndarray:
    """All vectors in {-1, +1}^n, shape (2^n, n), lexicographic order, Fortran
    layout; the 2^n x n coordinates are capped before allocating, as in :func:`unit_directions`."""
    # 2^32 x n passes the limit for any n, so a huge n needs no huge integer
    if (1 << min(dimension, 32)) * dimension > DIRECTION_COORDINATE_LIMIT:
        raise SizeGuard(f"direction sets capped at {DIRECTION_COORDINATE_LIMIT} coordinates, "
                        f"got 2^{dimension} x {dimension}")
    grid = np.indices((2,) * dimension, dtype=np.int8).reshape(dimension, -1).T
    return np.where(grid, 1.0, -1.0)


def _probe_directions(n: int, seed: int, stream: str, dirs: int) -> np.ndarray:
    """The probes of every sampled relation: the 2^n sign vectors, then
    ``dirs`` seeded directions of ``case_rng(seed, stream)``.  The sign
    vectors' guard is checked first, so from n = 20 on it raises
    ``SizeGuard`` before any draw."""
    return np.vstack([sign_vectors(n), unit_directions(case_rng(seed, stream), dirs, n)])
