"""Line bundle cohomology on the Bott tower, from the weights' sign patterns.

A torus-invariant divisor D = sum a_i Z_i + sum b_i Z_i' (upper and lower
ray families) has cohomology graded by lattice weights m. The sign pattern
of the 2N support numbers phi_m(e_i^{+/-}) decides everything:

  * mixed signs at some index (one value >= 0, the other < 0) kill the
    weight entirely;
  * matched signs at every index concentrate the weight in the single
    degree j_m = #{i : phi_m(e_i^+) < 0}, with multiplicity one.

weight_box returns a finite box of weights guaranteed to contain every
weight with nonzero cohomology (and, when b = 0, every corner weight
x^eps), so summing the classification over the box gives the full
cohomology table. cohomology_table does not classify the box weight by
weight: one downward sweep (bott._sign_pattern_counts) counts the box
weights per sign pattern, and the table sums each pattern's degree times
its count. demazure_table reads the same counts through the simplicial
complexes Sigma_m. The per-weight scan, _scan_table, stays as the
reference that the oracle checks the sweep against, and it lists the
witnesses. It reads every weight's signs from bott._line_masks, which
walks the box one line (fixed m_1, ..., m_{N-1}) at a time: the prefix's
part of each phi is paired once per line, and each weight still gets its
own test of every lower ray and of the last upper ray, sharing nothing
with the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .bott import (
    BottData,
    Weight,
    _check_divisor,
    _line_masks,
    _sign_pattern_counts,
    _weight_masks,
)
from .errors import BoxTooLarge, InconsistentData, IndexOutOfRange
from .simplicial import CohomologyDims, _demazure_pattern

ALL_ZERO = "all_zero"
CONCENTRATED = "concentrated"


@dataclass(frozen=True)
class ToricDivisor:
    """Coefficients of a torus-invariant divisor on the tower.

    a sits on the upper rays e_i^+ (the Picard basis Z_1, ..., Z_N used by
    the vanishing analysis), b on the lower rays e_i^-.
    """

    a: Tuple[int, ...]
    b: Tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(v) for v in self.a)
        b = tuple(int(v) for v in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b):
            raise IndexOutOfRange("lower-ray coefficient vector of length", len(b), len(a))

    @classmethod
    def upper(cls, a: Sequence[int]) -> "ToricDivisor":
        """Divisor sum a_i Z_i supported on the upper rays only (b = 0)."""
        a = tuple(int(v) for v in a)
        return cls(a=a, b=(0,) * len(a))

    def serre_dual(self) -> "ToricDivisor":
        """K - D where K has every coefficient equal to -1."""
        return ToricDivisor(
            a=tuple(-1 - v for v in self.a),
            b=tuple(-1 - v for v in self.b),
        )


@dataclass(frozen=True)
class WeightClassification:
    """Outcome for one weight: all degrees zero, or one degree of dim 1."""

    kind: str
    degree: Optional[int] = None

    @property
    def is_zero(self) -> bool:
        return self.kind == ALL_ZERO

    def dims(self) -> CohomologyDims:
        return {} if self.is_zero else {self.degree: 1}


def classify_weight(bott: BottData, divisor: ToricDivisor, m: Sequence[int]) -> WeightClassification:
    """Closed-form classification of one weight from its 2N support signs."""
    degree = _closed_degree(*_weight_masks(bott, divisor, m))
    if degree is None:
        return WeightClassification(kind=ALL_ZERO)
    return WeightClassification(kind=CONCENTRATED, degree=degree)


def _closed_degree(bad_plus: int, bad_minus: int) -> Optional[int]:
    """The closed form on one sign pattern: None (all degrees zero) when
    some index has one ray negative and the other not, else the single
    degree, the number of negative upper rays."""
    return None if bad_plus != bad_minus else bad_plus.bit_count()


@dataclass(frozen=True)
class WeightBox:
    """Axis-aligned integer box lo_i <= m_i <= hi_i."""

    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise IndexOutOfRange("upper box bound vector of length", len(self.hi), len(self.lo))
        for l, h in zip(self.lo, self.hi):
            if l > h:
                raise InconsistentData(f"inverted interval [{l}, {h}]")

    @property
    def num_points(self) -> int:
        total = 1
        for l, h in zip(self.lo, self.hi):
            total *= h - l + 1
        return total

    def contains(self, m: Sequence[int]) -> bool:
        return all(l <= v <= h for l, v, h in zip(self.lo, m, self.hi))

    def points(self) -> Iterator[Weight]:
        """All lattice points in lexicographic order."""
        return product(*(range(l, h + 1) for l, h in zip(self.lo, self.hi)))

    def enlarged(self) -> "WeightBox":
        """The box grown by one layer on every side."""
        return WeightBox(lo=tuple(l - 1 for l in self.lo), hi=tuple(h + 1 for h in self.hi))

    def shell_points(self) -> Iterator[Weight]:
        """Lattice points of the enlarged box lying outside this box."""
        for m in self.enlarged().points():
            if not self.contains(m):
                yield m


def weight_box(bott: BottData, divisor: ToricDivisor) -> WeightBox:
    """A box containing every weight with nonzero cohomology.

    Working downward from index N, the interval for m_i is the hull of
    -a_i and the interval-arithmetic range of S_i = b_i - sum_{j>i}
    beta_ij m_j over the boxes already found. Matched signs at index i
    force m_i into [-a_i, S_i] or [S_i + 1, -a_i - 1], both inside that
    hull, and the corner weights x^eps (for b = 0) land on its endpoints,
    so the hull contains all of them.
    """
    _check_divisor(bott, divisor)
    n = bott.length
    a, b = divisor.a, divisor.b
    beta = bott.beta
    lo = [0] * n
    hi = [0] * n
    for i in range(n, 0, -1):
        s_lo = s_hi = b[i - 1]
        for j in range(i + 1, n + 1):
            c = -beta[i - 1][j - 1]
            if c >= 0:
                s_lo += c * lo[j - 1]
                s_hi += c * hi[j - 1]
            else:
                s_lo += c * hi[j - 1]
                s_hi += c * lo[j - 1]
        lo[i - 1] = min(-a[i - 1], s_lo)
        hi[i - 1] = max(-a[i - 1], s_hi)
    return WeightBox(lo=tuple(lo), hi=tuple(hi))


@dataclass(frozen=True)
class CohomologyTable:
    """Cohomology dimensions h^0..h^N with optional concentrated witnesses."""

    dims: Tuple[int, ...]
    euler: int
    witnesses: Optional[Tuple[Tuple[Weight, int], ...]] = None
    witnesses_truncated: bool = False

    def __post_init__(self):
        if _euler(self.dims) != self.euler:
            raise InconsistentData("Euler characteristic does not match dimensions")


def _euler(dims: Sequence[int]) -> int:
    """Alternating sum h^0 - h^1 + h^2 - ... of a table's dimensions."""
    return sum(dims[::2]) - sum(dims[1::2])


DEFAULT_BOX_CAP = 2_000_000
# Witnesses kept per table; cohomology_table reads it at call time.
WITNESS_CAP = 10**4


def _checked_box(bott: BottData, divisor: ToricDivisor, cap: int) -> WeightBox:
    """weight_box (which checks the divisor against the tower) within the cap."""
    box = weight_box(bott, divisor)
    volume = box.num_points
    if volume > cap:
        raise BoxTooLarge(volume, cap)
    return box


def cohomology_table(
    bott: BottData,
    divisor: ToricDivisor,
    collect_witnesses: bool = False,
    cap: int = DEFAULT_BOX_CAP,
) -> CohomologyTable:
    """Exact table h^0..h^N: the closed form summed over the box's sign
    patterns, each counted once by the downward sweep.

    The sweep counts the box weights per sign pattern without visiting
    them one by one, so it yields no weights. With collect_witnesses the
    table comes from the per-weight scan instead, which stores (weight,
    degree) pairs for concentrated weights in lexicographic order,
    truncating at WITNESS_CAP.
    """
    box = _checked_box(bott, divisor, cap)
    if collect_witnesses:
        return _scan_table(bott, divisor, box, collect_witnesses=True)
    return _pattern_table(bott.length, _box_counts(bott, divisor, box), _closed_pattern)


def _closed_pattern(bad_plus: int, bad_minus: int) -> Tuple[Tuple[int, int], ...]:
    """_closed_degree as a rule of _pattern_table: one (degree, 1) pair, or
    none when all degrees are zero."""
    degree = _closed_degree(bad_plus, bad_minus)
    return () if degree is None else ((degree, 1),)


def _scan_table(
    bott: BottData,
    divisor: ToricDivisor,
    box: WeightBox,
    collect_witnesses: bool,
) -> CohomologyTable:
    """The closed form weight by weight over the box, in lexicographic order.

    The reference of the sweep: it reads each weight's signs from
    bott._line_masks, which evaluates phi on the ray vectors that BottData
    stores one box line at a time, and never calls the sign-pattern sweep,
    so run_oracle can check the sweep against it. Witnesses are kept as
    cohomology_table describes.
    """
    dims = [0] * (bott.length + 1)
    witnesses = [] if collect_witnesses else None
    truncated = False
    line = range(box.lo[-1], box.hi[-1] + 1)
    for prefix, masks in _line_masks(bott, divisor, box.lo, box.hi):
        for m_n, (bad_plus, bad_minus) in zip(line, masks):
            degree = _closed_degree(bad_plus, bad_minus)
            if degree is None:
                continue
            dims[degree] += 1
            if witnesses is not None:
                if len(witnesses) < WITNESS_CAP:
                    witnesses.append((prefix + (m_n,), degree))
                else:
                    truncated = True
    return CohomologyTable(
        dims=tuple(dims),
        euler=_euler(dims),
        witnesses=None if witnesses is None else tuple(witnesses),
        witnesses_truncated=truncated,
    )


def _box_counts(
    bott: BottData, divisor: ToricDivisor, box: WeightBox
) -> Mapping[Tuple[int, int], int]:
    """How many weights of the box have each sign pattern: the one call of
    bott._sign_pattern_counts behind every table it serves."""
    return _sign_pattern_counts(bott, divisor, box.lo, box.hi)


def _pattern_table(
    n: int,
    counts: Mapping[Tuple[int, int], int],
    rule: Callable[[int, int], Iterable[Tuple[int, int]]],
) -> CohomologyTable:
    """Table h^0..h^n from a sweep's weight counts per sign pattern:
    rule(bad_plus, bad_minus) gives the (degree, dim) pairs of one
    pattern, counted once per weight with that pattern. A degree above n
    raises InconsistentData."""
    dims = [0] * (n + 1)
    for (bad_plus, bad_minus), count in counts.items():
        for degree, h in rule(bad_plus, bad_minus):
            if degree > n:
                raise InconsistentData(
                    f"impossible cohomology degree {degree} for the sign masks "
                    f"bad_plus={bad_plus:#b}, bad_minus={bad_minus:#b}"
                )
            dims[degree] += h * count
    return CohomologyTable(dims=tuple(dims), euler=_euler(dims))


def demazure_table(
    bott: BottData,
    divisor: ToricDivisor,
    cap: int = DEFAULT_BOX_CAP,
) -> CohomologyTable:
    """The same table as cohomology_table, but summing the simplicial
    cohomology of Sigma_m over the box, once per sign pattern times the
    number of box weights that have it."""
    box = _checked_box(bott, divisor, cap)
    return _pattern_table(bott.length, _box_counts(bott, divisor, box), _demazure_pattern)
