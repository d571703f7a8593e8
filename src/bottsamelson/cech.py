"""Brute-force Cech cohomology over the cover by all maximal cones.

This is the oracle: it never looks at the closed-form classification or at
the complexes Sigma_m. The smooth tower is covered by the 2^N affine charts
of its maximal cones. The intersection of any set of charts is the chart of
the cone spanned by their common rays (the rays on whose index every
participating sign vector agrees), so a weight m has a section on that
intersection exactly when phi_m >= 0 on each common ray. Feeding these
activity booleans into the alternating Cech complex and taking exact ranks
with the shared elimination kernel yields the per-weight cohomology.

Activity is monotone: enlarging a chart subset shrinks the intersection,
drops common rays, and so weakens the section condition. That upward
closure makes the pairing with a fixed first chart a supply of unit pivots,
which keeps the exact rank computation fast even for the 2^16 chart subsets
at N = 4. N > 4 is refused outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .bott import (
    BottData,
    SignVector,
    Weight,
    _check_coeffs,
    _check_divisor,
    _phi_values,
    all_sign_vectors,
)
from .errors import TooLarge
from .linalg import sparse_rank
from .simplicial import CohomologyDims
from .toric import CohomologyTable, DEFAULT_BOX_CAP, ToricDivisor, _checked_box

CECH_MAX_DIM = 4


def _cone_mask(cone: SignVector) -> int:
    """Bitmask of the minus positions of a sign vector."""
    mask = 0
    for k, s in enumerate(cone):
        if s == -1:
            mask |= 1 << k
    return mask


def _bad_masks(bott: BottData, divisor: ToricDivisor, w: Weight) -> Tuple[int, int]:
    """Bitmasks of indices whose upper / lower ray has phi_m < 0."""
    bad_plus = bad_minus = 0
    for k, (up, down) in enumerate(zip(*_phi_values(bott, divisor, w))):
        if up < 0:
            bad_plus |= 1 << k
        if down < 0:
            bad_minus |= 1 << k
    return bad_plus, bad_minus


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
        """Cohomology dimensions of the alternating Cech complex."""
        count = len(self.cover)
        active = self.active
        active_by_size: Dict[int, set] = {}
        for size in range(1, count + 1):
            found = {s for s in combinations(range(count), size) if active(s)}
            active_by_size[size] = found

        top = max((size for size, found in active_by_size.items() if found), default=0)
        ranks: Dict[int, int] = {}
        for p in range(top):
            sources = active_by_size.get(p + 1, ())
            targets = active_by_size.get(p + 2, ())
            cols: dict = {s: {} for s in sources}
            for t in targets:
                for k in range(len(t)):
                    f = t[:k] + t[k + 1:]
                    if f in sources:
                        cols[f][t] = 1 if k % 2 == 0 else -1
            hints = []
            for s in sources:
                if s[0] != 0:
                    t = (0,) + s
                    if t in targets:
                        hints.append((t, s))
            ranks[p] = sparse_rank(cols, pivot_hints=hints)

        dims: CohomologyDims = {}
        for p in range(top):
            h = len(active_by_size.get(p + 1, ())) - ranks.get(p, 0) - ranks.get(p - 1, 0)
            if h:
                dims[p] = h
        return dims


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

    cover overrides the default chart ordering (the dimensions must not
    depend on it; passing a permutation bypasses the pattern cache).
    """
    n = bott.length
    if n > CECH_MAX_DIM:
        raise TooLarge(n, CECH_MAX_DIM)
    _check_divisor(bott, divisor)
    w = _check_coeffs(bott, m, "weight")
    if cover is None:
        return _cech_weight(bott, divisor, w)
    bad_plus, bad_minus = _bad_masks(bott, divisor, w)
    return CechComplex(n=n, cover=tuple(cover), bad_plus=bad_plus, bad_minus=bad_minus).dims()


def _cech_weight(bott: BottData, divisor: ToricDivisor, w: Weight) -> CohomologyDims:
    """cech_weight in the default chart order, for a checked weight and n <= 4."""
    return dict(_cech_pattern_dims(bott.length, *_bad_masks(bott, divisor, w)))


def cech_complex(bott: BottData, divisor: ToricDivisor, m: Sequence[int]) -> CechComplex:
    """The activity structure for one weight, in the default chart order."""
    n = bott.length
    if n > CECH_MAX_DIM:
        raise TooLarge(n, CECH_MAX_DIM)
    _check_divisor(bott, divisor)
    w = _check_coeffs(bott, m, "weight")
    bad_plus, bad_minus = _bad_masks(bott, divisor, w)
    return CechComplex(n=n, cover=all_sign_vectors(n), bad_plus=bad_plus, bad_minus=bad_minus)


def cech_table(
    bott: BottData,
    divisor: ToricDivisor,
    cap: int = DEFAULT_BOX_CAP,
) -> CohomologyTable:
    """Table h^0..h^N summed from cech_weight over the weight box plus a
    one-layer shell around it (shell weights must contribute nothing, so a
    bound violation in the box construction would surface here)."""
    n = bott.length
    if n > CECH_MAX_DIM:
        raise TooLarge(n, CECH_MAX_DIM)
    box = _checked_box(bott, divisor, cap)
    dims = [0] * (n + 1)
    for m in chain(box.points(), box.shell_points()):
        for degree, h in _cech_weight(bott, divisor, m).items():
            if degree > n:
                raise ValueError(f"impossible cohomology degree {degree} at weight {m}")
            dims[degree] += h
    euler = sum(h if i % 2 == 0 else -h for i, h in enumerate(dims))
    return CohomologyTable(dims=tuple(dims), euler=euler)
