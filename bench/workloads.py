"""Seeded problem documents for the benchmark workloads.

Every problem is a CLI-readable JSON document: save ``problem.text`` to a
file and ``bottsamelson <problem.argv> FILE`` replays it. Problem k of a
workload depends only on (workload, seed, k), so a run draws as many
problems as it has time for and a slow case can be regenerated alone.

Sizes follow a fixed schedule that is the same for every seed; the seed
picks matrices' letters, words and coefficients inside each size class.
Each schedule repeats one middle class, so the median problem of a run
falls inside that class whatever the seed, and the reported medians move
with the program, not with the draw.

This module imports nothing from the package under test: it must emit the
same bytes for a seed whatever the program does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

DEFAULT_SEED = 1

WORKLOADS = ("certify_long", "toric_boxes", "scan_grid", "oracle_small")

# Cartan data as problem documents take it, with the rank that bounds letters.
A3 = ({"type": "A", "rank": 3}, 3)
B3 = ({"type": "B", "rank": 3}, 3)
C3 = ({"type": "C", "rank": 3}, 3)
D4 = ({"type": "D", "rank": 4}, 4)
AFFINE_A1 = ({"matrix": [[2, -2], [-2, 2]]}, 2)
INDEFINITE_3 = ({"matrix": [[2, -2, -1], [-2, 2, -1], [-1, -1, 2]]}, 3)

LONG_MATRICES = (A3, B3, C3, D4, AFFINE_A1, INDEFINITE_3)
ORACLE_MATRICES = (
    ({"type": "A", "rank": 1}, 1),
    ({"type": "A", "rank": 2}, 2),
    ({"type": "B", "rank": 2}, 2),
    ({"matrix": [[2, -1], [-3, 2]]}, 2),                     # G2
    ({"type": "A", "rank": 3}, 3),
    AFFINE_A1,
    ({"matrix": [[2, -1], [-4, 2]]}, 2),                     # affine A2^(2)
    ({"matrix": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}, 3),  # affine A2^(1)
)

# Word lengths of certify_long, cycled; cost roughly doubles per letter.
LONG_LENGTHS = (11, 12, 12, 12, 13, 14)

# scan_grid: (word length, width of each scan range); grid sizes 1024,
# 729, 729 (one range pinned) and 3125.
SCAN_SHAPES = (
    (5, (4, 4, 4, 4, 4)),
    (6, (3, 3, 3, 3, 3, 3)),
    (5, (4, 4, 4, 4, 4)),
    (5, (4, 4, 4, 4, 4)),
    (7, (3, 3, 3, 3, 3, 3, 1)),
    (5, (4, 4, 4, 4, 4)),
    (5, (4, 4, 4, 4, 4)),
    (5, (5, 5, 5, 5, 5)),
    (5, (4, 4, 4, 4, 4)),
)

# toric_boxes: target weight-box volumes, cycled; word length cycles 4..7.
_S = 10_000
TORIC_VOLUMES = (
    _S, _S, _S, _S, 50_000, _S, _S, _S, _S, _S, _S, 100_000,
    _S, _S, _S, _S, _S, _S, 200_000, _S, _S, _S, _S,
)
TORIC_TOLERANCE = 0.05

# oracle_small: word lengths, cycled (N = 4 is excluded, see README).
ORACLE_LENGTHS = (1, 2, 3, 3, 3, 3)

# Problems in one turn of each size schedule; oracle_small's problems are
# cheap, so its turn is 50 cycles of its lengths.
TURN = {
    "certify_long": len(LONG_LENGTHS),
    "toric_boxes": len(TORIC_VOLUMES),
    "scan_grid": len(SCAN_SHAPES),
    "oracle_small": 50 * len(ORACLE_LENGTHS),
}

# Percentile reported as each workload's tail: the highest of p50, p75,
# p90, p95, p99 and p99.9 that leaves at least ten samples beyond it in a
# run at the seed commit. It is fixed per workload, so that the tail of a
# run does not jump to another percentile when one more turn fits in it.
TAIL_PERCENTILE = {"certify_long": 50, "toric_boxes": 75, "scan_grid": 50, "oracle_small": 99}


@dataclass(frozen=True)
class Problem:
    """One generated problem: the document and how the CLI runs it."""

    index: int
    argv: Tuple[str, ...]   # CLI subcommand and flags, before FILE
    text: str               # the problem document, canonical JSON
    length: int             # word length N
    size: int               # box volume, grid size, or 2^N for certify_long


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _word(rng: random.Random, rank: int, n: int) -> List[int]:
    return [rng.randint(1, rank) for _ in range(n)]


def _document(cartan: dict, word: Sequence[int], **extra) -> str:
    doc: Dict[str, object] = {"cartan": cartan, "word": list(word)}
    doc.update(extra)
    return json.dumps(doc, sort_keys=True)


def _certify_long(seed: int, k: int) -> Problem:
    rng = _rng("certify_long", seed, k)
    n = LONG_LENGTHS[k % len(LONG_LENGTHS)]
    cartan, rank = LONG_MATRICES[(k + k // len(LONG_LENGTHS)) % len(LONG_MATRICES)]
    word = _word(rng, rank, n)
    a = [rng.randint(-3, 3) for _ in range(n)]
    return Problem(k, ("analyze", "--no-toric", "--json"),
                   _document(cartan, word, divisor={"a": a}), n, 2**n)


def _gcm_entries(cartan: dict) -> List[List[int]]:
    """Matrix of a cartan entry; types A-D only, as used by the schedules."""
    if "matrix" in cartan:
        return cartan["matrix"]
    family, n = cartan["type"], cartan["rank"]
    a = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    if family == "B":
        a[n - 1][n - 2] = -2
    elif family == "C":
        a[n - 2][n - 1] = -2
    elif family == "D":
        a[n - 1][n - 2] = a[n - 2][n - 1] = 0
        a[n - 1][n - 3] = a[n - 3][n - 1] = -1
    return a


def box_volume(cartan: dict, word: Sequence[int], a: Sequence[int], b: Sequence[int]) -> int:
    """Volume of the weight box the program scans for this divisor.

    Kept here, apart from the program, so that problem sizes (and so the
    generated bytes) do not depend on the code being measured.
    """
    g = _gcm_entries(cartan)
    n = len(word)
    beta = [[g[word[i] - 1][word[j] - 1] for j in range(n)] for i in range(n)]
    lo, hi = [0] * n, [0] * n
    for i in range(n - 1, -1, -1):
        s_lo = s_hi = b[i]
        for j in range(i + 1, n):
            c = -beta[i][j]
            s_lo += c * (lo[j] if c >= 0 else hi[j])
            s_hi += c * (hi[j] if c >= 0 else lo[j])
        lo[i] = min(-a[i], s_lo)
        hi[i] = max(-a[i], s_hi)
    volume = 1
    for l, h in zip(lo, hi):
        volume *= h - l + 1
    return volume


def _toric_boxes(seed: int, k: int) -> Problem:
    rng = _rng("toric_boxes", seed, k)
    n = 4 + k % 4
    twisted = (k // 4) % 2 == 1
    target = TORIC_VOLUMES[k % len(TORIC_VOLUMES)]
    low, high = target * (1 - TORIC_TOLERANCE), target * (1 + TORIC_TOLERANCE)
    while True:
        # Box volumes spread over decades, so draw the coefficient range too
        # and keep the first draw that lands within the tolerance.
        bound = rng.randint(1, 10)
        cartan, rank = LONG_MATRICES[rng.randrange(4)]  # finite types only
        word = _word(rng, rank, n)
        a = [rng.randint(-bound, bound) for _ in range(n)]
        b = [rng.randint(-2, 2) for _ in range(n)] if twisted else [0] * n
        if twisted and not any(b):
            continue
        volume = box_volume(cartan, word, a, b)
        if low <= volume <= high:
            divisor = {"a": a, "b": b} if twisted else {"a": a}
            argv = ("toric", "--json") if twisted else ("analyze", "--json")
            return Problem(k, argv, _document(cartan, word, divisor=divisor), n, volume)


def _scan_grid(seed: int, k: int) -> Problem:
    rng = _rng("scan_grid", seed, k)
    n, widths = SCAN_SHAPES[k % len(SCAN_SHAPES)]
    cartan, rank = LONG_MATRICES[(k + k // len(SCAN_SHAPES)) % len(LONG_MATRICES)]
    word = _word(rng, rank, n)
    widths = list(widths)
    rng.shuffle(widths)
    ranges = []
    for w in widths:
        lo = rng.randint(-3, 0)
        ranges.append([lo, lo + w - 1])
    size = 1
    for w in widths:
        size *= w
    return Problem(k, ("scan", "--json"), _document(cartan, word, scan=ranges), n, size)


def _oracle_small(seed: int, k: int) -> Problem:
    rng = _rng("oracle_small", seed, k)
    n = ORACLE_LENGTHS[k % len(ORACLE_LENGTHS)]
    cartan, rank = ORACLE_MATRICES[(k + k // len(ORACLE_LENGTHS)) % len(ORACLE_MATRICES)]
    word = _word(rng, rank, n)
    a = [rng.randint(-3, 3) for _ in range(n)]
    twisted = (k // len(ORACLE_LENGTHS)) % 2 == 1
    b = [rng.randint(-2, 2) for _ in range(n)] if twisted else [0] * n
    return Problem(k, ("oracle", "--json"),
                   _document(cartan, word, divisor={"a": a, "b": b}), n,
                   box_volume(cartan, word, a, b))


_GENERATORS = {
    "certify_long": _certify_long,
    "toric_boxes": _toric_boxes,
    "scan_grid": _scan_grid,
    "oracle_small": _oracle_small,
}

DESCRIPTIONS = {
    "certify_long": "analyze --no-toric; N cycles 11,12,12,12,13,14; matrices A3 B3 C3 D4, "
                    "affine [[2,-2],[-2,2]], indefinite rank 3; a in [-3,3]; a new tower per problem",
    "toric_boxes": "N cycles 4..7; box volumes 1e4 (x20), 5e4, 1e5, 2e5 per 23 problems, "
                   "each within 5%; b = 0 via analyze, b != 0 via toric; finite types",
    "scan_grid": "scan; per 9 problems: N=5 grids of 1024 (x6) and 3125, N=6 grid of 729, "
                 "N=7 grid of 729; thousands of reports on one tower",
    "oracle_small": "oracle; N cycles 1,2,3,3,3,3; finite A1 A2 B2 G2 A3 and affine A1^(1) "
                    "A2^(2) A2^(1); a in [-3,3], b = 0 and b in [-2,2] alternating",
}


def problem(workload: str, seed: int, k: int) -> Problem:
    """Problem k of the workload for this seed."""
    return _GENERATORS[workload](seed, k)
