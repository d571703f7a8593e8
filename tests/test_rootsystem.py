import pytest

from bottsamelson import (
    DiagonalNotTwo,
    GeneralizedCartanMatrix,
    NonSquare,
    PositiveOffDiagonal,
    UnsupportedFamily,
    UnsupportedRank,
    ZeroAsymmetry,
    cartan_of_type,
    pairing,
    reflect,
    simple_root,
    validate_gcm,
)


def test_validate_accepts_classical_types():
    for family, rank in [("A", 1), ("A", 5), ("B", 2), ("C", 3), ("D", 4)]:
        gcm = cartan_of_type(family, rank)
        assert validate_gcm(gcm.entries).n == rank


def test_validate_accepts_infinite_type():
    # affine A_1^(1): determinant zero, perfectly legal input
    gcm = validate_gcm(((2, -2), (-2, 2)))
    assert gcm.entry(1, 2) == -2
    # a wilder hyperbolic example
    validate_gcm(((2, -5), (-1, 2)))


def test_validate_rejects_nonsquare():
    with pytest.raises(NonSquare):
        validate_gcm(((2, -1), (-1,)))
    with pytest.raises(NonSquare):
        validate_gcm(((2, -1),))


def test_validate_rejects_bad_diagonal():
    with pytest.raises(DiagonalNotTwo) as exc:
        validate_gcm(((1, 0), (0, 2)))
    assert "1" in str(exc.value)


def test_validate_rejects_positive_off_diagonal():
    with pytest.raises(PositiveOffDiagonal):
        validate_gcm(((2, 1), (-1, 2)))


def test_validate_rejects_zero_asymmetry():
    with pytest.raises(ZeroAsymmetry):
        validate_gcm(((2, 0), (-1, 2)))
    with pytest.raises(ZeroAsymmetry):
        validate_gcm(((2, -1), (0, 2)))


def test_entry_is_one_based():
    gcm = cartan_of_type("A", 2)
    assert gcm.entry(1, 1) == 2
    assert gcm.entry(1, 2) == -1
    assert gcm.entry(2, 1) == -1


def test_cartan_families():
    a3 = cartan_of_type("A", 3)
    assert a3.entries == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    b3 = cartan_of_type("B", 3)
    assert b3.entry(3, 2) == -2 and b3.entry(2, 3) == -1
    c3 = cartan_of_type("C", 3)
    assert c3.entry(2, 3) == -2 and c3.entry(3, 2) == -1
    d4 = cartan_of_type("D", 4)
    assert d4.entry(3, 4) == 0 and d4.entry(4, 3) == 0
    assert d4.entry(2, 4) == -1 and d4.entry(4, 2) == -1
    # B and C are transposes of each other
    n = 4
    b, c = cartan_of_type("B", n), cartan_of_type("C", n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert b.entry(i, j) == c.entry(j, i)


def test_cartan_rank_bounds():
    with pytest.raises(UnsupportedRank):
        cartan_of_type("A", 0)
    with pytest.raises(UnsupportedRank):
        cartan_of_type("B", 1)
    with pytest.raises(UnsupportedRank):
        cartan_of_type("D", 2)
    with pytest.raises(UnsupportedFamily):
        cartan_of_type("E", 6)  # not implemented on purpose


def test_reflection_is_an_involution():
    gcm = cartan_of_type("B", 3)
    gamma = (3, -2, 5)
    for i in (1, 2, 3):
        assert reflect(gcm, i, reflect(gcm, i, gamma)) == gamma


def test_reflection_on_simple_roots():
    gcm = cartan_of_type("A", 2)
    e1, e2 = simple_root(gcm, 1), simple_root(gcm, 2)
    assert reflect(gcm, 1, e1) == (-1, 0)
    assert reflect(gcm, 1, e2) == (1, 1)
    assert pairing(gcm, 1, e2) == -1
    assert pairing(gcm, 1, e1) == 2


def test_gcm_is_hashable_and_frozen():
    gcm = cartan_of_type("A", 2)
    assert hash(gcm) == hash(cartan_of_type("A", 2))
    with pytest.raises(Exception):
        gcm.n = 5  # type: ignore[misc]
