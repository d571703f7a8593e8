"""Errors raised by the library.

All indices reported in messages are 1-based, matching the conventions of
the public API.
"""

from __future__ import annotations

from operator import index


class BottSamelsonError(ValueError):
    """Base class for all validation and capacity errors."""


class NonSquare(BottSamelsonError):
    def __init__(self, nrows: int, row: int, width: int):
        super().__init__(
            f"matrix is not square: row {row} has {width} entries, expected {nrows}"
        )


class DiagonalNotTwo(BottSamelsonError):
    def __init__(self, i: int, value):
        self.index = i
        super().__init__(f"diagonal entry at index {i} is {value}, must be 2")


class PositiveOffDiagonal(BottSamelsonError):
    def __init__(self, i: int, j: int, value):
        self.indices = (i, j)
        super().__init__(
            f"off-diagonal entry ({i}, {j}) is {value}, must be nonpositive"
        )


class ZeroAsymmetry(BottSamelsonError):
    def __init__(self, i: int, j: int):
        self.indices = (i, j)
        super().__init__(
            f"entries ({i}, {j}) and ({j}, {i}): one is zero and the other is not"
        )


class UnsupportedRank(BottSamelsonError):
    def __init__(self, family: str, rank: int, minimum: int):
        super().__init__(
            f"type {family} requires rank >= {minimum}, got {rank}"
        )


class UnsupportedFamily(BottSamelsonError):
    def __init__(self, family: str, supported: str):
        super().__init__(
            f"Cartan type {family!r} is not supported; the supported types are {supported}"
        )


class IndexOutOfRange(BottSamelsonError):
    def __init__(self, what: str, i, bound):
        super().__init__(f"{what} index {i} out of range {bound}")


class NotAnInteger(BottSamelsonError):
    """A value that must be an integer is a float, a string, a bool, None
    or another non-integer; it is refused, never rounded or parsed."""


class NotADivisor(BottSamelsonError):
    """A divisor argument that is not a ToricDivisor, such as a bare tuple
    of coefficients; ToricDivisor and ToricDivisor.upper build one."""

    def __init__(self, value):
        super().__init__(f"divisor must be a ToricDivisor, got {type(value).__name__}")


def _listed(values, what: str, of: str = "integers"):
    """values, if it can stand for a list here: a str, bytes, dict or
    non-iterable raises NotAnInteger."""
    if isinstance(values, (str, bytes, dict)) or not hasattr(values, "__iter__"):
        raise NotAnInteger(f"{what} must be a list of {of}")
    return values


def _int(value, what: str) -> int:
    """value as a plain int: any integer type but bool passes through
    operator.index (IntEnum members, numpy ints), anything else raises."""
    try:
        if not isinstance(value, bool):
            return index(value)
    except TypeError:
        pass
    raise NotAnInteger(f"{what} must be an integer, got {value!r}")


def _ints(values, what: str, length: int | None = None) -> tuple[int, ...]:
    """values as a tuple of _int entries; a str, bytes, dict or non-iterable
    raises NotAnInteger, a length other than the given one IndexOutOfRange."""
    out = tuple([v if v.__class__ is int else _int(v, f"{what} entry")
                 for v in _listed(values, what)])
    if length is not None and len(out) != length:
        raise IndexOutOfRange(f"{what} vector of length", len(out), length)
    return out


class InconsistentData(BottSamelsonError):
    """Values that contradict each other or the structure they describe:
    an inverted interval, dimensions that miss their Euler characteristic,
    a face set that is not a simplicial complex, a cohomology degree
    above the tower's dimension, or a certificate that the condition
    profile does not admit."""


class NotStrictlyIncreasing(BottSamelsonError):
    def __init__(self, i: int, j: int):
        super().__init__(f"need position i < j, got i={i}, j={j}")


class BoxTooLarge(BottSamelsonError):
    """More work than a limit allows; message replaces the default text,
    which speaks of the lattice points of a box or grid under a cap."""

    def __init__(self, volume: int, cap: int, what: str = "weight box", message: str = ""):
        self.volume = volume
        self.cap = cap
        super().__init__(
            message or f"{what} has {volume} lattice points, exceeding the cap of {cap}"
        )


class TooLarge(BottSamelsonError):
    def __init__(self, n: int, cap: int):
        super().__init__(
            f"cover of 2^{n} affine charts exceeds the oracle cap of 2^{cap}"
        )


class NotInPicardBasis(BottSamelsonError):
    def __init__(self):
        super().__init__(
            "divisor has nonzero coefficients on the lower ray family; "
            "vanishing analysis works in the basis of upper-ray divisors only"
        )


class VanishingContradiction(BottSamelsonError):
    """A degree certified to vanish is nonzero in the exact toric table.

    The certificates and the toric table are independent routes to the same
    facts, so this signals a defect in one of them, never bad input.
    """

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(
            f"claimed vanishing in degree {degree} contradicts the toric table"
        )
