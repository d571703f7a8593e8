import random

import pytest

from bottsamelson import (
    InconsistentData,
    SimplicialComplex,
    ToricDivisor,
    Word,
    build_bott_data,
    cartan_of_type,
    demazure_weight,
    reduced_cohomology,
    sigma_m,
)
from bottsamelson.simplicial import _demazure_pattern

# vertices in these tests reuse the (index, sign) ray style
V1, V2, V3, V4 = (1, 1), (1, -1), (2, 1), (2, -1)


def test_from_faces_closes_downward():
    sc = SimplicialComplex.from_faces([(V1, V2, V3)])
    assert frozenset((V1, V2)) in sc.faces
    assert frozenset((V2,)) in sc.faces
    assert frozenset() in sc.faces
    assert sc.vertices == (V1, V2, V3)
    assert not sc.is_empty


def test_validation_rejects_broken_complexes():
    with pytest.raises(InconsistentData):
        SimplicialComplex(
            vertices=(V1, V2),
            faces=frozenset({frozenset((V1, V2))}),  # closure missing
        )
    with pytest.raises(InconsistentData):
        SimplicialComplex(
            vertices=(),
            faces=frozenset({frozenset((V1,)), frozenset()}),  # unknown vertex
        )
    with pytest.raises(InconsistentData):
        SimplicialComplex(
            vertices=(V1,),
            faces=frozenset({frozenset((V1,))}),  # empty face missing
        )
    with pytest.raises(InconsistentData):
        SimplicialComplex(
            vertices=(V1,),
            faces=frozenset({frozenset()}),  # vertex that is not a face
        )


def test_empty_complex():
    sc = SimplicialComplex(vertices=(), faces=frozenset())
    assert sc.is_empty
    assert reduced_cohomology(sc) == {}


def test_single_point_is_acyclic():
    sc = SimplicialComplex.from_faces([(V1,)])
    assert reduced_cohomology(sc) == {}


def test_two_points():
    sc = SimplicialComplex.from_faces([(V1,), (V2,)])
    assert reduced_cohomology(sc) == {0: 1}


def test_edge_and_path_are_acyclic():
    edge = SimplicialComplex.from_faces([(V1, V3)])
    assert reduced_cohomology(edge) == {}
    path = SimplicialComplex.from_faces([(V1, V3), (V3, V2)])
    assert reduced_cohomology(path) == {}


def test_hollow_square_is_a_circle():
    sc = SimplicialComplex.from_faces(
        [(V1, V3), (V3, V2), (V2, V4), (V4, V1)]
    )
    assert reduced_cohomology(sc) == {1: 1}


def test_filled_triangle_is_acyclic():
    sc = SimplicialComplex.from_faces([(V1, V2, V3)])
    assert reduced_cohomology(sc) == {}


def test_hollow_triangle_is_a_circle():
    sc = SimplicialComplex.from_faces([(V1, V2), (V2, V3), (V3, V1)])
    assert reduced_cohomology(sc) == {1: 1}


def test_hollow_tetrahedron_is_a_two_sphere():
    vs = [(i, 1) for i in range(1, 5)]
    faces = [tuple(v for v in vs if v != skip) for skip in vs]
    sc = SimplicialComplex.from_faces(faces)
    assert reduced_cohomology(sc) == {2: 1}


def test_euler_characteristic_matches_face_counts():
    rng = random.Random(21)
    universe = [(i, s) for i in range(1, 5) for s in (1, -1)]
    for _ in range(40):
        gens = [
            tuple(rng.sample(universe, rng.randint(1, 4)))
            for _ in range(rng.randint(1, 5))
        ]
        sc = SimplicialComplex.from_faces(gens)
        dims = reduced_cohomology(sc)
        chi_faces = sum(
            (-1) ** p * len(fs) for p, fs in sc.faces_by_dim().items() if p >= 0
        ) - 1
        chi_cohom = sum((-1) ** p * h for p, h in dims.items())
        assert chi_faces == chi_cohom


def test_faces_by_dim_is_deterministic():
    sc = SimplicialComplex.from_faces([(V1, V3), (V2, V4), (V1, V4)])
    grouped = sc.faces_by_dim()
    assert grouped[-1] == [()]
    assert grouped[0] == [(V1,), (V2,), (V3,), (V4,)]
    assert grouped[1] == [(V1, V3), (V1, V4), (V2, V4)]


# --- the five nonempty shapes on a rank-2 tower ----------------------------

SL3 = build_bott_data(cartan_of_type("A", 2), Word((1, 2)))


def _shape(a, m):
    return sigma_m(SL3, ToricDivisor.upper(a), m)


def test_shape_point():
    sc = _shape((-1, 0), (0, 0))
    assert sc.vertices == ((1, 1),)
    assert reduced_cohomology(sc) == {}
    assert demazure_weight(SL3, ToricDivisor.upper((-1, 0)), (0, 0)) == {}


def test_shape_edge():
    sc = _shape((-1, -1), (0, 0))
    assert sc.vertices == ((1, 1), (2, 1))
    assert frozenset(((1, 1), (2, 1))) in sc.faces
    assert reduced_cohomology(sc) == {}


def test_shape_path():
    sc = _shape((-2, -1), (1, 0))
    assert sc.vertices == ((1, 1), (1, -1), (2, 1))
    assert frozenset(((1, 1), (1, -1))) not in sc.faces
    assert reduced_cohomology(sc) == {}


def test_shape_two_points():
    divisor = ToricDivisor.upper((-2, 0))
    sc = _shape((-2, 0), (1, 0))
    assert sc.vertices == ((1, 1), (1, -1))
    assert frozenset(((1, 1), (1, -1))) not in sc.faces
    assert reduced_cohomology(sc) == {0: 1}
    assert demazure_weight(SL3, divisor, (1, 0)) == {1: 1}


def test_shape_four_cycle():
    divisor = ToricDivisor.upper((-3, -2))
    sc = _shape((-3, -2), (2, 1))
    assert len(sc.vertices) == 4
    grouped = sc.faces_by_dim()
    assert len(grouped[1]) == 4 and 2 not in grouped
    assert reduced_cohomology(sc) == {1: 1}
    assert demazure_weight(SL3, divisor, (2, 1)) == {2: 1}


def test_demazure_weight_empty_sigma_means_degree_zero():
    assert demazure_weight(SL3, ToricDivisor.upper((0, 0)), (0, 0)) == {0: 1}


def test_demazure_pattern_cache_is_bounded():
    # keyed on negative-ray sets, 4^N of them per tower: an unbounded cache
    # grows for the life of the process
    maxsize = _demazure_pattern.cache_info().maxsize
    assert maxsize is not None
    assert maxsize >= 4**3  # every N <= 3 pattern stays warm
