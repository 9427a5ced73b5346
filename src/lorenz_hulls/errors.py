"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class LorenzError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(LorenzError):
    """Operands or atoms do not share the required dimension."""


class NonFiniteValue(LorenzError):
    """A coordinate is NaN or infinite."""


class DuplicateLabel(LorenzError):
    """Atom labels are not pairwise distinct."""


class ZeroAtom(LorenzError):
    """A direction was requested for an atom with 1-norm zero."""


class TooManyAtoms(LorenzError):
    """Atom count exceeds the subset-sum enumeration guard."""


class SizeGuard(LorenzError):
    """A finite-set operation exceeds its size guard."""


class InvalidTransform(LorenzError):
    """A hull-preserving transform step does not apply to the measure."""


class NegativeAtom(LorenzError):
    """Lorenz-curve input has an atom with a negative coordinate."""


class ZeroTotal(LorenzError):
    """Lorenz-curve input has a coordinate whose total is not positive."""


class DimensionGuard(LorenzError):
    """Sphere partition requested above the supported dimension."""


class DeltaOutOfRange(LorenzError):
    """Sphere partition cell diameter is outside (0, 2]."""


class Exact2dOnPlaneOnly(LorenzError):
    """An exact planar operation was invoked on a non-planar input."""


class NotInHull(LorenzError):
    """Achievement target lies outside the hull; carries the separating witness."""

    def __init__(self, message: str, witness) -> None:
        super().__init__(message)
        self.witness = witness

    def __reduce__(self):
        # the default rebuilds from ``args`` alone, which lacks the witness
        return type(self), (self.args[0], self.witness), self.__dict__


class ParseError(LorenzError):
    """A measure file or CLI argument could not be parsed."""
