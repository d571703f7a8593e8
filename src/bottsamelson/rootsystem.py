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

The alpha summary's sweep reads a vector only through its coroot pairings
c_k = <alpha_k^vee, gamma>, so it stores a set of vectors as columns of
pairings, one column per simple coroot it reads (_descend). In those
coordinates s_l sends c_k to c_k - a_kl c_l, so a step only rewrites the
columns with a_kl != 0. When the matrix is singular, vectors that differ
by an element of its kernel (in affine type, a multiple of the null root
delta) have the same pairings and are stored once. The condition sweep
works on the dual side, with coroot functionals (vanishing._sweep_bounds).

All simple-root indices in this module are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .errors import (
    DiagonalNotTwo,
    IndexOutOfRange,
    NonSquare,
    PositiveOffDiagonal,
    UnsupportedRank,
    ZeroAsymmetry,
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
    rows = [tuple(int(v) for v in row) for row in entries]
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
    end: node n is attached to node n-2.
    """
    family = family.upper()
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3}.get(family)
    if minimum is None:
        raise UnsupportedRank(family, rank, 1)
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


def _check_index(gcm: GeneralizedCartanMatrix, i: int) -> None:
    if not 1 <= i <= gcm.n:
        raise IndexOutOfRange("simple root", i, f"1..{gcm.n}")


def _check_root(gcm: GeneralizedCartanMatrix, gamma: Sequence[int]) -> Root:
    g = tuple(int(c) for c in gamma)
    if len(g) != gcm.n:
        raise IndexOutOfRange("root coefficient vector of length", len(g), gcm.n)
    return g


def simple_root(gcm: GeneralizedCartanMatrix, i: int) -> Root:
    """The i-th simple root as a coefficient vector (1-based)."""
    _check_index(gcm, i)
    return tuple(1 if j == i else 0 for j in range(1, gcm.n + 1))


def pairing(gcm: GeneralizedCartanMatrix, i: int, gamma: Sequence[int]) -> int:
    """<alpha_i^vee, gamma> = sum_j a_ij gamma_j for a root vector gamma."""
    _check_index(gcm, i)
    g = _check_root(gcm, gamma)
    row = gcm.entries[i - 1]
    return sum(row[j] * g[j] for j in range(gcm.n))


def reflect(gcm: GeneralizedCartanMatrix, i: int, gamma: Sequence[int]) -> Root:
    """Apply the simple reflection s_i to the root vector gamma."""
    _check_index(gcm, i)
    g = _check_root(gcm, gamma)
    p = pairing(gcm, i, g)
    return tuple(c - p if j == i - 1 else c for j, c in enumerate(g))


def _descend(
    gcm: GeneralizedCartanMatrix,
    letter: int,
    columns: Dict[int, Sequence[int]],
) -> Dict[int, Tuple[int, ...]]:
    """A set T and its reflection, as columns of coroot pairings.

    columns maps simple-root indices k to the pairings <alpha_k^vee, gamma>
    of a set T of vectors gamma, one entry per vector in the same order in
    every column. Returns the columns of T union s_l(T), l = letter, equal
    rows merged; the order of the rows is unspecified. s_l rewrites
    column k as c_k - a_kl c_l, so only the columns with a_kl != 0
    change. The merge is exact for any reader of the columns: the update
    reads the pairings alone. A key that is not a simple-root index is
    carried along unchanged, so it keeps apart rows that differ in it.
    Trusts letter to be one of the keys.
    """
    l = letter - 1
    pivot = columns[letter]
    reflected = dict(columns)
    for k, row in enumerate(gcm.entries, start=1):
        if row[l] and k in columns:
            reflected[k] = [c - row[l] * p for c, p in zip(columns[k], pivot)]
    rows = set(zip(*columns.values())).union(zip(*reflected.values()))
    return dict(zip(columns, zip(*rows)))
