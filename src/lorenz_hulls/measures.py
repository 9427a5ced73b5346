"""Finite signed vector measures on discrete and piecewise-density spaces.

A discrete measure is stored as the list of its atom values: one vector per
atom of a disjoint partition of the ground set.  All operations are pure; the
wrapped numpy arrays are marked read-only so values can be shared freely.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateLabel,
    NonFiniteValue,
    ParseError,
    ZeroAtom,
)


def _rows(values, width: int, what: str, *, mass: bool = False) -> np.ndarray:
    """The one array check: ``values`` as a float64 array of rows of length
    ``width`` with finite coordinates.

    Raises DimensionMismatch unless the input is 2-D with ``width`` columns,
    and NonFiniteValue on a NaN or infinite coordinate, or, with ``mass``,
    on a total 1-norm mass of all rows that overflows.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != width:
        got = f"length {a.shape[1]}" if a.ndim == 2 else f"shape {a.shape}"
        raise DimensionMismatch(f"{what} of {got} against dimension {width}")
    # one max/min pass: NaN fails the bound, and below it the summed 1-norm
    # mass cannot overflow
    peak = max(a.max(), -a.min()) if a.size else 0.0
    if not peak <= np.finfo(np.float64).max / (2 * a.size or 1):
        if not np.isfinite(a).all():
            raise NonFiniteValue(f"{what} contains a NaN or infinite coordinate")
        with np.errstate(over="ignore"):
            if mass and not np.isfinite(np.abs(a).sum()):
                raise NonFiniteValue(f"{what} has a total 1-norm mass that overflows")
    return a


def _nonzero_rows(a: np.ndarray) -> np.ndarray:
    """Mask of the rows of a finite array with a nonzero coordinate, reduced
    over the columns of its transpose: a reduction along each short row
    costs about 9 ns a row."""
    return (np.ascontiguousarray(a.T) != 0.0).any(axis=0)


def _frozen_rows(values, width: int, what: str) -> np.ndarray:
    """Validated read-only :func:`_rows` array whose total 1-norm mass is
    finite.  DimensionMismatch also when ``width`` is not positive.  An
    empty input becomes the empty ``(0, width)`` array.  An ndarray input is
    copied, not frozen in place.
    """
    if width < 1:
        raise DimensionMismatch("dimension must be a positive integer")
    a = np.asarray(values, dtype=np.float64)
    if isinstance(values, np.ndarray) and np.may_share_memory(a, values):
        a = a.copy()  # freezing below must leave the caller's array writable
    if a.size == 0:
        a = a.reshape(0, width)
    a = np.ascontiguousarray(_rows(a, width, what, mass=True))
    a.flags.writeable = False
    return a


def _same_dimension(what: str, a: int, b: int) -> None:
    """The one operand check: DimensionMismatch "{what} {a} and {b}" unless a == b."""
    if a != b:
        raise DimensionMismatch(f"{what} {a} and {b}")


@dataclass(frozen=True, eq=False)
class _Value:
    """Base of the validated-array value types.  Two values are equal, and
    hash alike, when they have one type and equal fields; arrays compare bit
    for bit after ``+ 0.0`` folds -0.0 into +0.0 (they hold no NaN)."""

    def _key(self) -> tuple:
        return tuple(
            (v.shape, (v + 0.0).tobytes()) if isinstance(v, np.ndarray) else v
            for v in (getattr(self, f.name) for f in fields(self))
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setstate__(self, state: dict) -> None:
        # pickle and deepcopy rebuild the arrays writable; freeze them again
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        vars(self).update(state)


def _check_labels(labels: Optional[Sequence[str]], count: int):
    if labels is None:
        return None
    labels = tuple(str(x) for x in labels)
    if not labels:
        return None
    if len(labels) != count:
        raise DimensionMismatch(
            f"got {len(labels)} labels for {count} atoms"
        )
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("atom labels are not pairwise distinct")
    return labels


@dataclass(frozen=True, eq=False)
class VectorMeasure(_Value):
    """A finite signed vector measure with finitely many atoms.

    ``atoms`` has shape ``(m, dimension)``; row ``i`` is the measure's value
    on the i-th atom of the partition.  An empty atom list is the zero
    measure.
    """

    dimension: int
    atoms: np.ndarray
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        atoms = _frozen_rows(self.atoms, self.dimension, "atom array")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(
            self, "labels", _check_labels(self.labels, atoms.shape[0])
        )

    @property
    def atom_count(self) -> int:
        return self.atoms.shape[0]

    def total(self) -> np.ndarray:
        """Value on the whole ground set: the sum of all atoms."""
        return self.atoms.sum(axis=0)


@dataclass(frozen=True, eq=False)
class ComplexVectorMeasure(_Value):
    """A finite complex vector measure.

    Atoms are stored interleaved as real pairs, shape ``(m, 2 * dimension)``
    with columns ``re(z_1), im(z_1), ..., re(z_n), im(z_n)``, so the real
    embedding below is a plain reinterpretation of the same numbers.
    """

    dimension: int
    atoms: np.ndarray

    def __post_init__(self) -> None:
        atoms = _frozen_rows(self.atoms, 2 * self.dimension, "interleaved atom array")
        object.__setattr__(self, "atoms", atoms)

    @property
    def atom_count(self) -> int:
        return self.atoms.shape[0]


@dataclass(frozen=True, eq=False)
class PiecewiseDensityMeasure(_Value):
    """A non-atomic measure given by a piecewise-constant vector density.

    The density is ``directions[i]`` on the i-th of consecutive real
    intervals of lengths ``lengths[i]``.
    """

    dimension: int
    lengths: np.ndarray
    directions: np.ndarray

    def __post_init__(self) -> None:
        directions = _frozen_rows(self.directions, self.dimension, "piece directions")
        lengths = _frozen_rows(np.reshape(self.lengths, (-1, 1)), 1, "piece lengths")[:, 0]
        if lengths.shape[0] != directions.shape[0]:
            raise DimensionMismatch("piece lengths and directions differ in count")
        if not (lengths > 0).all():
            raise NonFiniteValue("piece lengths must be strictly positive")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "directions", directions)

    @property
    def piece_count(self) -> int:
        return self.lengths.shape[0]


# ---------------------------------------------------------------------------
# construction and validation


def _parsed_rows(raw, per_dim: int, what: str):
    """Integer ``dim`` and the ``atoms`` lists (``per_dim * dim`` numbers each) as rows."""
    if not isinstance(raw, dict):
        raise ParseError(f"cannot interpret {type(raw).__name__} as a measure")
    dim = raw.get("dim")
    if not isinstance(dim, numbers.Integral) or isinstance(dim, bool):
        raise ParseError("measure description lacks an integer 'dim'")
    if dim < 1:
        raise DimensionMismatch("dimension must be a positive integer")
    dim = int(dim)
    atoms = raw.get("atoms", [])
    if not isinstance(atoms, list) or not all(isinstance(a, list) for a in atoms):
        raise ParseError("measure 'atoms' is not a list of coordinate lists")
    width = per_dim * dim
    for i, atom in enumerate(atoms):
        if len(atom) != width:
            raise DimensionMismatch(
                f"{what} {i} has {len(atom)} coordinates, expected {width}"
            )
    try:
        return dim, np.array(atoms, dtype=np.float64).reshape(len(atoms), width)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"measure 'atoms' are not a float array: {exc}") from exc


def validate(raw) -> VectorMeasure:
    """Check a candidate measure description and return a VectorMeasure.

    Accepts an existing :class:`VectorMeasure` (returned unchanged) or a
    mapping in the measure file schema ``{"dim": n, "atoms": [[...], ...],
    "labels": [...]?}``.  Coordinates are preserved bit-exactly.
    """
    if isinstance(raw, VectorMeasure):
        return raw
    if isinstance(raw, dict) and raw.get("complex", False):
        raise ParseError("complex measure description passed to validate(); "
                         "use validate_complex()")
    dim, atoms = _parsed_rows(raw, 1, "atom")
    labels = raw.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ParseError("measure 'labels' is not a list")
    return VectorMeasure(dim, atoms, labels=labels)


def validate_complex(raw) -> ComplexVectorMeasure:
    """Check a candidate complex measure description (interleaved atoms)."""
    if isinstance(raw, ComplexVectorMeasure):
        return raw
    return ComplexVectorMeasure(*_parsed_rows(raw, 2, "complex atom"))


# ---------------------------------------------------------------------------
# measure algebra


def total_variation_mass(m: VectorMeasure) -> float:
    """Total mass of the 1-norm total variation: sum of atom 1-norms."""
    return float(np.abs(m.atoms).sum())


def rn_direction(m: VectorMeasure, i: int) -> np.ndarray:
    """Density direction of atom ``i``: the atom normalized to 1-norm one."""
    if not 0 <= i < m.atom_count:
        raise IndexError(f"atom index {i} out of range for {m.atom_count} atoms")
    atom = m.atoms[i]
    norm = float(np.abs(atom).sum())
    if norm == 0.0:
        raise ZeroAtom(f"atom {i} has 1-norm zero")
    return atom / norm


def direct_sum(a: VectorMeasure, b: VectorMeasure) -> VectorMeasure:
    """Measure on the disjoint union of ground sets: atom concatenation."""
    _same_dimension("direct sum of dimensions", a.dimension, b.dimension)
    atoms = np.vstack([a.atoms, b.atoms])
    labels = None
    if a.labels is not None or b.labels is not None:
        left = a.labels or tuple(str(i) for i in range(a.atom_count))
        right = b.labels or tuple(str(i) for i in range(b.atom_count))
        labels = tuple(f"a.{l}" for l in left) + tuple(f"b.{l}" for l in right)
    return VectorMeasure(a.dimension, atoms, labels=labels)


def coordinate_product(a: VectorMeasure, b: VectorMeasure) -> VectorMeasure:
    """Coordinate-wise product measure on the product of the ground sets.

    The product-space atom (i, j) carries the componentwise product of atom
    i of ``a`` and atom j of ``b``.  Atoms are ordered lexicographically by
    (i, j); the result has ``a.atom_count * b.atom_count`` atoms.
    """
    _same_dimension("product of dimensions", a.dimension, b.dimension)
    prod = (a.atoms[:, None, :] * b.atoms[None, :, :]).reshape(
        a.atom_count * b.atom_count, a.dimension
    )
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(f"{la}*{lb}" for la in a.labels for lb in b.labels)
    return VectorMeasure(a.dimension, prod, labels=labels)


# ---------------------------------------------------------------------------
# complex operations


def complex_embed(c: ComplexVectorMeasure) -> VectorMeasure:
    """Real image of a complex measure under the interleaving bijection.

    Complex atom ``(z_1, ..., z_n)`` maps to the real ``2n``-vector
    ``(re z_1, im z_1, ..., re z_n, im z_n)``.  With the interleaved storage
    this is a reinterpretation of the same array.
    """
    return VectorMeasure(2 * c.dimension, c.atoms)


def interleaved_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Complex multiplication expressed on interleaved real pairs.

    For vectors of length 2n holding (re, im) pairs, returns the interleaved
    image of the componentwise complex product:
    ``(x1*y1 - x2*y2, x1*y2 + x2*y1, ...)``.  Broadcasts over leading axes.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[-1] != y.shape[-1] or x.shape[-1] % 2:
        raise DimensionMismatch("interleaved vectors must share an even length")
    re_x, im_x = x[..., 0::2], x[..., 1::2]
    re_y, im_y = y[..., 0::2], y[..., 1::2]
    out = np.empty(np.broadcast(x, y).shape, dtype=np.float64)
    out[..., 0::2] = re_x * re_y - im_x * im_y
    out[..., 1::2] = re_x * im_y + im_x * re_y
    return out


def complex_coordinate_product(
    a: ComplexVectorMeasure, b: ComplexVectorMeasure
) -> ComplexVectorMeasure:
    """Pairwise complex coordinate-wise products, (i, j) lexicographic."""
    _same_dimension("product of complex dimensions", a.dimension, b.dimension)
    prod = interleaved_product(a.atoms[:, None, :], b.atoms[None, :, :])
    return ComplexVectorMeasure(
        a.dimension, prod.reshape(a.atom_count * b.atom_count, 2 * a.dimension)
    )


# ---------------------------------------------------------------------------
# serialization (measure file schema)


def measure_to_json_dict(m) -> dict:
    """Measure file payload; floats survive a JSON round trip bit-exactly."""
    if isinstance(m, VectorMeasure):
        out = {"dim": m.dimension, "atoms": m.atoms.tolist(), "complex": False}
        if m.labels is not None:
            out["labels"] = list(m.labels)
        return out
    if isinstance(m, ComplexVectorMeasure):
        return {"dim": m.dimension, "atoms": m.atoms.tolist(), "complex": True}
    raise ParseError(f"cannot serialize {type(m).__name__}")


def measure_from_json_dict(d: dict):
    """Inverse of :func:`measure_to_json_dict`."""
    if not isinstance(d, dict):
        raise ParseError("measure payload is not a JSON object")
    if d.get("complex", False):
        return validate_complex(d)
    return validate(d)
