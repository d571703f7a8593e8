"""Finite simplicial complexes and exact reduced cohomology over Q.

The complexes that matter here are tiny: for a weight m on a Bott tower of
dimension N, the complex Sigma_m has as vertices the rays where the shifted
support function is negative, and as faces every subset that does not
contain both rays of one index. Its reduced rational cohomology, shifted up
by one degree, gives the weight-m piece of line bundle cohomology on the
tower (with the convention that an empty Sigma_m means a one-dimensional
piece in degree zero).

Cohomology dimensions come from exact integer ranks of the simplicial
coboundary matrices, so there is no numerical tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Dict, FrozenSet, Hashable, Iterable, Sequence, Tuple

from .bott import BottData, Ray, _weight_masks
from .errors import InconsistentData
from .linalg import sparse_rank

CohomologyDims = Dict[int, int]


def _ray_sort_key(ray: Ray):
    i, s = ray
    return (i, 0 if s > 0 else 1)


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex on hashable vertices (rays for
    Sigma_m, chart indices for the Cech oracle's complex of inactive sets).

    faces is downward closed and contains the empty face exactly when the
    complex has at least one vertex; the truly empty complex has no faces
    at all and is detected with is_empty.
    """

    vertices: Tuple[Hashable, ...]
    faces: FrozenSet[FrozenSet[Hashable]]

    def __post_init__(self):
        vertex_set = set(self.vertices)
        for face in self.faces:
            if not face <= vertex_set:
                raise InconsistentData(f"face {sorted(face)} uses unknown vertices")
            for v in face:
                if face - {v} not in self.faces:
                    raise InconsistentData(
                        f"faces are not downward closed at {sorted(face)}"
                    )
        if self.faces and frozenset() not in self.faces:
            raise InconsistentData("a nonempty complex must contain the empty face")
        for v in self.vertices:
            if frozenset((v,)) not in self.faces:
                raise InconsistentData(f"vertex {v} is not a face")

    @classmethod
    def from_faces(cls, faces: Iterable[Iterable[Ray]]) -> "SimplicialComplex":
        """Build the downward closure of the given generating faces."""
        closed = set()
        stack = [frozenset(f) for f in faces]
        while stack:
            f = stack.pop()
            if f in closed:
                continue
            closed.add(f)
            for v in f:
                stack.append(f - {v})
        if closed:
            closed.add(frozenset())
        vertices = sorted({v for f in closed for v in f}, key=_ray_sort_key)
        return cls(vertices=tuple(vertices), faces=frozenset(closed))

    @property
    def is_empty(self) -> bool:
        return not self.faces

    def faces_by_dim(self) -> Dict[int, list]:
        """Faces grouped by dimension, each sorted for determinism."""
        order = {v: k for k, v in enumerate(self.vertices)}
        grouped: Dict[int, list] = {}
        for f in self.faces:
            key = tuple(sorted(f, key=order.__getitem__))
            grouped.setdefault(len(f) - 1, []).append(key)
        for p in grouped:
            grouped[p].sort(key=lambda t: tuple(order[v] for v in t))
        return grouped


def reduced_cohomology(sc: SimplicialComplex) -> CohomologyDims:
    """Reduced rational cohomology dimensions {degree: dim}, zeros omitted.

    The empty complex returns {} here; callers distinguish it from an
    acyclic nonempty complex with sc.is_empty.
    """
    if sc.is_empty:
        return {}
    grouped = sc.faces_by_dim()
    top = max(grouped)
    counts = {p: len(fs) for p, fs in grouped.items()}

    ranks: Dict[int, int] = {}
    for p in range(-1, top):
        cols = {f: {} for f in grouped[p]}
        for g in grouped[p + 1]:
            for k in range(len(g)):
                f = g[:k] + g[k + 1:]
                cols[f][g] = 1 if k % 2 == 0 else -1
        ranks[p] = sparse_rank(cols)

    dims: CohomologyDims = {}
    for p in range(0, top + 1):
        h = counts[p] - ranks.get(p, 0) - ranks.get(p - 1, 0)
        if h:
            dims[p] = h
    return dims


def _negative_rays(bad_plus: int, bad_minus: int) -> Tuple[Ray, ...]:
    """The rays with phi_m < 0, in ray order, from a weight's sign masks."""
    neg = []
    for i in range(1, (bad_plus | bad_minus).bit_length() + 1):
        if bad_plus >> (i - 1) & 1:
            neg.append((i, 1))
        if bad_minus >> (i - 1) & 1:
            neg.append((i, -1))
    return tuple(neg)


def _complex_on_rays(rays: Sequence[Ray]) -> SimplicialComplex:
    """All subsets of the given rays avoiding {e_i^+, e_i^-} pairs."""
    by_index: Dict[int, list] = {}
    for ray in rays:
        by_index.setdefault(ray[0], []).append(ray)
    if not by_index:
        return SimplicialComplex(vertices=(), faces=frozenset())
    choice_lists = [[None] + opts for opts in by_index.values()]
    faces = set()
    for combo in product(*choice_lists):
        faces.add(frozenset(v for v in combo if v is not None))
    vertices = sorted(rays, key=_ray_sort_key)
    return SimplicialComplex(vertices=tuple(vertices), faces=frozenset(faces))


def sigma_m(bott: BottData, divisor, m: Sequence[int]) -> SimplicialComplex:
    """The complex Sigma_m of negative rays for weight m.

    Vertices are the rays with phi_m < 0; faces are the subsets that avoid
    both rays of any single index (exactly the ray sets spanning cones of
    the fan).
    """
    return _complex_on_rays(_negative_rays(*_weight_masks(bott, divisor, m)))


# Each index contributes one of 4 negative-ray sets, so 4^4 entries hold every
# pattern of a tower with N <= 4, the dimensions the oracles are run at.
_DEMAZURE_PATTERN_CACHE = 4**4


@lru_cache(maxsize=_DEMAZURE_PATTERN_CACHE)
def _demazure_pattern(bad_plus: int, bad_minus: int) -> Tuple[Tuple[int, int], ...]:
    """Sorted (degree, dim) pairs of a weight with these sign masks: (0, 1)
    when Sigma_m is empty, else reduced h^(i-1)(Sigma_m) in degree i."""
    neg = _negative_rays(bad_plus, bad_minus)
    if not neg:
        return ((0, 1),)
    dims = reduced_cohomology(_complex_on_rays(neg))
    return tuple(sorted((p + 1, h) for p, h in dims.items()))


def demazure_weight(bott: BottData, divisor, m: Sequence[int]) -> CohomologyDims:
    """Weight-m cohomology dimensions {degree: dim} on the Bott tower.

    Empty Sigma_m gives {0: 1}; otherwise degree i carries the reduced
    (i-1)-cohomology of Sigma_m. Results depend on m only through the set
    of negative rays, which is cached.
    """
    return dict(_demazure_pattern(*_weight_masks(bott, divisor, m)))
