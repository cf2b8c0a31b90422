"""Exception hierarchy shared by all eqlat modules."""


class EqlatError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(EqlatError):
    """Operands have incompatible dimensions."""


class NotPositiveDefinite(EqlatError):
    """A symmetric matrix required to be positive definite is not."""


class NotIntegral(EqlatError):
    """An integral lattice, or an integer matrix entry, was required."""


class NotOdd(EqlatError):
    """even_part needs an odd lattice; the input is already even."""


class NotEven(EqlatError):
    """An even lattice was required."""


class ZeroVector(EqlatError):
    """The zero vector is not allowed here."""


class NotInLattice(EqlatError):
    """A vector does not lie in the lattice (or sublattice) at hand."""


class NotPrimitive(EqlatError):
    """A primitive lattice vector was required."""


class NotCongruent(EqlatError):
    """Two vectors required to be congruent mod 2L are not."""


class DegeneratePair(EqlatError):
    """x = +-y where a genuine pair was required."""


class WrongNormX0(EqlatError):
    """The base point x0 does not have norm 2m - 2."""


class EmptyClass(EqlatError):
    """A congruence class that had to contain vectors of some norm is empty."""


class NotEquiangular(EqlatError):
    """Pairwise inner products are not of constant absolute value."""


class MixedNorms(EqlatError):
    """Vectors of several norms where a single shell was required."""


class NotGenerated(EqlatError):
    """The lattice is not generated by its minimal vectors."""


class VNotValid(EqlatError):
    """The vector handed to a construction violates its hypotheses."""


class BadParameter(EqlatError):
    """A construction was asked for parameters outside its range."""


class TooLarge(EqlatError):
    """A walk would store more vectors than its memory limit allows."""


class NotApplicable(EqlatError):
    """A bound or test whose hypothesis fails for these arguments."""


class VerificationError(EqlatError):
    """An internally verified identity failed; indicates a bug or bad input."""
