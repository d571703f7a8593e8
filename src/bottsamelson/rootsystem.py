"""Generalized Cartan matrices and the action of simple reflections.

A generalized Cartan matrix A = (a_ij) is any integer matrix with a_ii = 2,
a_ij <= 0 for i != j, and a_ij = 0 exactly when a_ji = 0. No finiteness or
symmetrizability is assumed, so finite, affine and indefinite types are all
accepted on the same footing.

Roots are written in the basis of simple roots: a root vector is a tuple of
integer coefficients (c_1, ..., c_n) standing for sum_j c_j alpha_j. The
pairing of the i-th simple coroot with such a vector is sum_j a_ij c_j, and
the simple reflection s_i acts by

    s_i(gamma) = gamma - <alpha_i^vee, gamma> alpha_i.

Both sweeps of the package work on the dual side. A coroot functional
f = <gamma, .> is stored as its values on simple roots, and s_l sends f to
f - f(alpha_l) A[l], where A[l] is row l of the matrix, the functional of
alpha_l^vee. These functionals and reflections belong to the Weyl group
of the matrix, not to one word, so they are stored once per matrix and
set of letters, in a private table (bott._Directions) that every tower
over that matrix in the process shares: it numbers each direction once,
records each reflection s_l f as a direction number when a pass first
needs it, and memoises the steps of the alpha summary. The cache of
tables has one budget for the whole of it (bott._BUDGET, about 6.1 MB
at worst), evicts least recently used tables whole, and is safe to share
between threads. The tower's direction plan (bott._direction_plan),
built once per tower from table lookups, holds the rows of the word's
letters and their images under the letters' reflections, taken in word
order, in the tower's own numbering; the condition sweep
(vanishing._sweep_bounds) reads it, and the alpha summary
(analysis._alpha_summary) reads the table. When the matrix is
singular, coroots that differ by an element of its left kernel (in affine
type, a multiple of the null coroot) give the same functional and are
stored once.

All simple-root indices in this module are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import (
    DiagonalNotTwo,
    IndexOutOfRange,
    NonSquare,
    PositiveOffDiagonal,
    UnsupportedFamily,
    UnsupportedRank,
    ZeroAsymmetry,
    _int,
    _ints,
    _listed,
)

Root = Tuple[int, ...]


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """A validated generalized Cartan matrix of rank n."""

    n: int
    entries: Tuple[Tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        """Entry a_ij = <alpha_i^vee, alpha_j> with 1-based i, j."""
        return self.entries[i - 1][j - 1]


def validate_gcm(entries: Sequence[Sequence[int]]) -> GeneralizedCartanMatrix:
    """Check the generalized Cartan matrix axioms and freeze the matrix.

    Raises NonSquare, DiagonalNotTwo, PositiveOffDiagonal or ZeroAsymmetry
    naming the first violated axiom (indices 1-based, row-major scan).
    """
    rows = [_ints(row, "cartan matrix row")
            for row in _listed(entries, "cartan matrix", "integer rows")]
    n = len(rows)
    if n == 0:
        raise NonSquare(0, 1, 0)
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            raise NonSquare(n, i, len(row))
    for i in range(1, n + 1):
        if rows[i - 1][i - 1] != 2:
            raise DiagonalNotTwo(i, rows[i - 1][i - 1])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rows[i - 1][j - 1] > 0:
                raise PositiveOffDiagonal(i, j, rows[i - 1][j - 1])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (rows[i - 1][j - 1] == 0) != (rows[j - 1][i - 1] == 0):
                raise ZeroAsymmetry(i, j)
    return GeneralizedCartanMatrix(n=n, entries=tuple(rows))


def cartan_of_type(family: str, rank: int) -> GeneralizedCartanMatrix:
    """Cartan matrix of finite type A, B, C or D at the given rank.

    Conventions: entry(i, j) = <alpha_i^vee, alpha_j>, nodes numbered along
    the chain with the short root last in type B (so entry(n, n-1) = -2) and
    the long root last in type C (entry(n-1, n) = -2). Type D forks at the
    end: node n is attached to node n-2. Any other family raises
    UnsupportedFamily, and a rank below the family's minimum (1 for A, 2
    for B and C, 3 for D) raises UnsupportedRank.
    """
    family = family.upper()
    rank = _int(rank, "rank")
    minimum = _family_minimum(family)
    if rank < minimum:
        raise UnsupportedRank(family, rank, minimum)
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    if family == "B":
        a[n - 1][n - 2] = -2
    elif family == "C":
        a[n - 2][n - 1] = -2
    elif family == "D":
        a[n - 1][n - 2] = 0
        a[n - 2][n - 1] = 0
        a[n - 1][n - 3] = -1
        a[n - 3][n - 1] = -1
    return validate_gcm(a)


def _family_minimum(family: str) -> int:
    """The smallest rank of an upper-case family that cartan_of_type
    supports; any other family raises UnsupportedFamily."""
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3}.get(family)
    if minimum is None:
        raise UnsupportedFamily(family, "A, B, C and D")
    return minimum


def _check_index(gcm: GeneralizedCartanMatrix, i: int) -> int:
    if not 1 <= (i := _int(i, "simple root index")) <= gcm.n:
        raise IndexOutOfRange("simple root", i, f"1..{gcm.n}")
    return i


def simple_root(gcm: GeneralizedCartanMatrix, i: int) -> Root:
    """The i-th simple root as a coefficient vector (1-based)."""
    i = _check_index(gcm, i)
    return tuple(1 if j == i else 0 for j in range(1, gcm.n + 1))


def pairing(gcm: GeneralizedCartanMatrix, i: int, gamma: Sequence[int]) -> int:
    """<alpha_i^vee, gamma> = sum_j a_ij gamma_j for a root vector gamma."""
    i = _check_index(gcm, i)
    g = _ints(gamma, "root coefficient", gcm.n)
    row = gcm.entries[i - 1]
    return sum(row[j] * g[j] for j in range(gcm.n))


def reflect(gcm: GeneralizedCartanMatrix, i: int, gamma: Sequence[int]) -> Root:
    """Apply the simple reflection s_i to the root vector gamma."""
    i = _check_index(gcm, i)
    g = _ints(gamma, "root coefficient", gcm.n)
    p = pairing(gcm, i, g)
    return tuple(c - p if j == i - 1 else c for j, c in enumerate(g))

