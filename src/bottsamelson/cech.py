"""Brute-force Cech cohomology over the cover by all maximal cones.

This is the oracle: it never looks at the closed-form classification or at
the complexes Sigma_m. The smooth tower is covered by the 2^N affine charts
of its maximal cones. The intersection of any set of charts is the chart of
the cone spanned by their common rays (the rays on whose index every
participating sign vector agrees), so a weight m has a section on that
intersection exactly when phi_m >= 0 on each common ray. The alternating
Cech complex has one generator per active chart subset.

Activity is monotone: enlarging a chart subset shrinks the intersection,
drops common rays, and so weakens the section condition. So the inactive
subsets form a simplicial complex K on the charts, and the Cech complex is
the relative cochain complex of the pair (full simplex, K). The long exact
sequence of that pair gives h^p = reduced h^(p-1)(K) when K is nonempty,
and a single global section when every subset is active. K is downward
closed, so a depth-first search that only extends inactive subsets visits
K alone, never the 2^(2^N) subsets of the cover. N > 4 is refused outright.

K is built from chart-subset activity only. The nerve theorem would
collapse it onto Sigma_m, which would make this route a copy of the
simplicial one; it is deliberately not used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .bott import BottData, SignVector, _weight_masks, all_sign_vectors
from .errors import IndexOutOfRange, TooLarge
from .simplicial import CohomologyDims, SimplicialComplex, reduced_cohomology
from .toric import (
    CohomologyTable,
    DEFAULT_BOX_CAP,
    ToricDivisor,
    _box_counts,
    _checked_box,
    _pattern_table,
)

CECH_MAX_DIM = 4


def _cech_dim(bott: BottData) -> int:
    """The tower's dimension N; a tower longer than CECH_MAX_DIM raises TooLarge."""
    n = bott.length
    if n > CECH_MAX_DIM:
        raise TooLarge(n, CECH_MAX_DIM)
    return n


def _cone_mask(cone: SignVector) -> int:
    """Bitmask of the minus positions of a sign vector."""
    mask = 0
    for k, s in enumerate(cone):
        if s == -1:
            mask |= 1 << k
    return mask


def _agreement(masks: Sequence[int], n: int, subset: Iterable[int]) -> Tuple[int, int]:
    """Bitmasks of the indices where every chart of the subset takes the
    upper ray, and where every one takes the lower ray."""
    full = (1 << n) - 1
    agree_minus = agree_plus = full
    for t in subset:
        agree_minus &= masks[t]
        agree_plus &= full ^ masks[t]
    return agree_plus, agree_minus


@dataclass(frozen=True)
class CechComplex:
    """Activity structure of one weight over an ordered chart cover."""

    n: int
    cover: Tuple[SignVector, ...]
    bad_plus: int
    bad_minus: int
    _masks: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_masks", tuple(_cone_mask(c) for c in self.cover))

    def common_rays(self, subset: Iterable[int]) -> Tuple[Tuple[int, int], ...]:
        """Rays shared by all charts of the subset (indices into cover)."""
        agree_plus, agree_minus = _agreement(self._masks, self.n, subset)
        rays = []
        for i in range(1, self.n + 1):
            if agree_plus >> (i - 1) & 1:
                rays.append((i, 1))
            if agree_minus >> (i - 1) & 1:
                rays.append((i, -1))
        return tuple(rays)

    def active(self, subset: Iterable[int]) -> bool:
        """Whether the weight has a section on the subset's intersection."""
        agree_plus, agree_minus = _agreement(self._masks, self.n, subset)
        return (agree_plus & self.bad_plus) == 0 and (agree_minus & self.bad_minus) == 0

    def dims(self) -> CohomologyDims:
        """Cohomology dimensions of the alternating Cech complex, read off
        the complex K of inactive chart subsets (see the module docstring)."""
        count = len(self.cover)
        inactive = []
        stack = [()]
        while stack:
            subset = stack.pop()
            for t in range(subset[-1] + 1 if subset else 0, count):
                grown = subset + (t,)
                if not self.active(grown):
                    inactive.append(grown)
                    stack.append(grown)
        if not inactive:
            return {0: 1}
        k = SimplicialComplex(
            vertices=tuple(s[0] for s in inactive if len(s) == 1),
            faces=frozenset(map(frozenset, inactive)) | {frozenset()},
        )
        return {p + 1: h for p, h in reduced_cohomology(k).items()}


@lru_cache(maxsize=None)
def _cech_pattern_dims(n: int, bad_plus: int, bad_minus: int) -> Tuple[Tuple[int, int], ...]:
    complex_ = CechComplex(
        n=n, cover=all_sign_vectors(n), bad_plus=bad_plus, bad_minus=bad_minus
    )
    return tuple(sorted(complex_.dims().items()))


def cech_weight(
    bott: BottData,
    divisor: ToricDivisor,
    m: Sequence[int],
    cover: Optional[Tuple[SignVector, ...]] = None,
) -> CohomologyDims:
    """Per-weight cohomology dimensions from the alternating Cech complex.

    cover overrides the default chart ordering. It must list every sign
    vector of length N exactly once (the dimensions must not depend on the
    order; passing a permutation bypasses the pattern cache).
    """
    n = _cech_dim(bott)
    bad_plus, bad_minus = _weight_masks(bott, divisor, m)
    if cover is None:
        return dict(_cech_pattern_dims(n, bad_plus, bad_minus))
    cover = tuple(map(tuple, cover))
    if sorted(cover) != sorted(all_sign_vectors(n)):
        raise IndexOutOfRange("cover", cover, f"the orderings of all_sign_vectors({n})")
    return CechComplex(n=n, cover=cover, bad_plus=bad_plus, bad_minus=bad_minus).dims()


def cech_complex(bott: BottData, divisor: ToricDivisor, m: Sequence[int]) -> CechComplex:
    """The activity structure for one weight, in the default chart order."""
    n = _cech_dim(bott)
    bad_plus, bad_minus = _weight_masks(bott, divisor, m)
    return CechComplex(n=n, cover=all_sign_vectors(n), bad_plus=bad_plus, bad_minus=bad_minus)


def cech_table(
    bott: BottData,
    divisor: ToricDivisor,
    cap: int = DEFAULT_BOX_CAP,
) -> CohomologyTable:
    """Table h^0..h^N summed from the Cech dimensions of each sign pattern,
    times its number of weights, over the weight box plus a one-layer shell
    around it (shell weights must contribute nothing, so a bound violation
    in the box construction would surface here)."""
    n = _cech_dim(bott)
    box = _checked_box(bott, divisor, cap).enlarged()  # the box and its shell
    return _cech_counts_table(n, _box_counts(bott, divisor, box))


def _cech_counts_table(n: int, counts: Mapping[Tuple[int, int], int]) -> CohomologyTable:
    """The Cech table from a sweep's weight counts per sign pattern.
    cech_table and run_oracle (over the count it shares with its other
    tables) both read the Cech rule from this module through it."""
    return _pattern_table(n, counts, partial(_cech_pattern_dims, n))
