"""Exact integer linear algebra: sparse rank and Bareiss determinants.

Everything here works over the integers with arbitrary precision, so ranks
and determinants are exact rational-arithmetic answers (column scaling by
nonzero integers never changes a rank). No floating point anywhere.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from typing import Hashable, Mapping, Sequence

from .errors import NonSquare


def sparse_rank(columns: Mapping[Hashable, Mapping[Hashable, int]]) -> int:
    """Rank over the rationals of a sparse integer matrix given by columns.

    columns maps a column id to {row id: nonzero integer}.
    """
    cols: dict = {}
    rows: dict = {}
    for c, col in columns.items():
        live = {r: v for r, v in col.items() if v}
        if live:
            cols[c] = live
            for r in live:
                rows.setdefault(r, set()).add(c)

    # Markowitz-lite: shortest column, then unit entry in sparsest row. The
    # heap holds (length, position, column) entries, pushed again whenever a
    # column changes; an entry whose column is gone or has another length
    # is stale and skipped. Ties go to the earliest column, as in a scan.
    position = {c: k for k, c in enumerate(cols)}
    heap = [(len(col), position[c], c) for c, col in cols.items()]
    heapify(heap)
    rank = 0
    while heap:
        length, _, c = heappop(heap)
        if len(cols.get(c, ())) != length:
            continue
        r, best_key = None, None
        for rr, v in cols[c].items():
            key = (0 if v in (1, -1) else 1, len(rows[rr]))
            if best_key is None or key < best_key:
                r, best_key = rr, key

        rank += 1
        pivot = cols.pop(c)
        p = pivot[r]
        for rr in pivot:
            rows[rr].discard(c)
        for x in list(rows.get(r, ())):
            xcol = cols[x]
            lam = xcol.pop(r)
            # x -= (lam / p) pivot, kept integral: g = gcd(lam, p) with the sign
            # of p, so sx = p // g > 0 scales column x (rank unchanged) unless
            # p divides lam, where sx = 1 and sp is the plain quotient
            g = gcd(lam, p) if p > 0 else -gcd(lam, p)
            sx, sp = p // g, lam // g
            if sx != 1:
                for rr in xcol:
                    xcol[rr] *= sx
            for rr, v in pivot.items():
                if rr == r:
                    continue
                w = xcol.get(rr, 0) - sp * v
                if w:
                    if rr not in xcol:
                        rows[rr].add(x)
                    xcol[rr] = w
                elif rr in xcol:
                    del xcol[rr]
                    rows[rr].discard(x)
            if sx != 1:
                content = 0
                for v in xcol.values():
                    content = gcd(content, v)
                    if content == 1:
                        break
                if content > 1:
                    for rr in xcol:
                        xcol[rr] //= content
            if xcol:
                heappush(heap, (len(xcol), position[x], x))
            else:
                del cols[x]
        rows.pop(r, None)

    return rank


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank of a dense integer matrix (rows of equal length)."""
    columns: dict = {}
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                columns.setdefault(j, {})[i] = v
    return sparse_rank(columns)


def det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    for i, row in enumerate(a, start=1):
        if len(row) != n:
            raise NonSquare(n, i, len(row))
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
