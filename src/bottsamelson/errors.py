"""Errors raised by the library.

All indices reported in messages are 1-based, matching the conventions of
the public API.
"""

from __future__ import annotations


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


class IndexOutOfRange(BottSamelsonError):
    def __init__(self, what: str, i, bound):
        super().__init__(f"{what} index {i} out of range {bound}")


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
    def __init__(self, volume: int, cap: int):
        self.volume = volume
        self.cap = cap
        super().__init__(
            f"weight box has {volume} lattice points, exceeding the cap of {cap}"
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
