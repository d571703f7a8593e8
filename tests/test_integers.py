"""One integer rule at every public entry point.

Every library function that takes an integer, or a vector of them, accepts
any integer type (an IntEnum member, a numpy int) and answers as for the
plain int, and refuses a float, a numeric string, a bool or None with
NotAnInteger instead of rounding or parsing it.
"""

from enum import IntEnum

import pytest

from bottsamelson import (
    NotAnInteger,
    ToricDivisor,
    WeightBox,
    Word,
    all_sign_vectors,
    alpha_reflect,
    big_c,
    build_bott_data,
    cartan_of_type,
    check_toric_vanishing,
    condition_profile,
    pairing,
    phi,
    reflect,
    simple_root,
    validate_gcm,
)

A3 = cartan_of_type("A", 3)
BOTT = build_bott_data(A3, (1, 2, 3))
ZERO = ToricDivisor.upper((0, 0, 0))

# (entry point, a call that puts v in one integer slot, a valid int for it)
ENTRY_POINTS = [
    ("Word", lambda v: Word((v, 2)), 1),
    ("build_bott_data", lambda v: build_bott_data(A3, (v, 2, 3)), 1),
    ("_check_signs", lambda v: alpha_reflect(BOTT, 1, 3, (1, v, 1)), -1),
    ("_check_coeffs", lambda v: condition_profile(BOTT, (v, 0, 0)), 1),
    ("_check_position", lambda v: big_c(BOTT, (1, 2, 3), v, (1, 1, 1)), 1),
    ("all_sign_vectors", lambda v: all_sign_vectors(v), 2),
    ("validate_gcm", lambda v: validate_gcm([[2, v], [-1, 2]]), -3),
    ("cartan_of_type", lambda v: cartan_of_type("B", v), 2),
    ("_check_index", lambda v: simple_root(A3, v), 2),
    ("pairing", lambda v: pairing(A3, 1, (v, 1, 0)), 3),
    ("reflect", lambda v: reflect(A3, 2, (1, v, 0)), 3),
    ("ToricDivisor a", lambda v: ToricDivisor(a=(v, 1, 1), b=(0, 0, 0)), -1),
    ("ToricDivisor b", lambda v: ToricDivisor(a=(0, 0, 0), b=(0, v, 0)), 2),
    ("WeightBox", lambda v: WeightBox((v, 0), (2, 2)), 1),
    ("check_toric_vanishing", lambda v: check_toric_vanishing(BOTT, (1, 1, 1), (v, 0, 0)), 1),
    ("phi ray sign", lambda v: phi(BOTT, ZERO, (1, 2, 3), (1, v)), -1),
    ("phi ray position", lambda v: phi(BOTT, ZERO, (1, 2, 3), (v, -1)), 2),
    ("phi weight", lambda v: phi(BOTT, ZERO, (1, v, 3), (1, -1)), 2),
]


@pytest.mark.parametrize("call, good", [case[1:] for case in ENTRY_POINTS],
                         ids=[case[0] for case in ENTRY_POINTS])
def test_entry_point_refuses_non_integers_and_accepts_integer_types(call, good):
    for bad in (1.5, "1", True, None):
        with pytest.raises(NotAnInteger):
            call(bad)
    member = IntEnum("Member", {"M": good}).M
    # repr tells an IntEnum member from the plain int, inside tuples and dataclasses too
    assert repr(call(member)) == repr(call(good))
