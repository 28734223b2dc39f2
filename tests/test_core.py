"""Group law, inverses, powers, conjugation, and the affine picture."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleingroup import (
    AFFINE_IDENTITY,
    AffineMap,
    GroupElement,
    IDENTITY,
    as_affine,
    conj,
    inv,
    mul,
    piece_action,
    power,
)

small = st.integers(min_value=-50, max_value=50)
huge = st.integers(min_value=-(10**40), max_value=10**40)
elem_small = st.builds(GroupElement, small, small)
elem_huge = st.builds(GroupElement, huge, huge)
coord30 = st.integers(min_value=-(10**30), max_value=10**30)
elem30 = st.builds(GroupElement, coord30, coord30)


def test_known_products():
    assert mul(GroupElement(2, 1), GroupElement(3, 1)) == GroupElement(-1, 2)
    assert mul(GroupElement(1, 0), GroupElement(0, 1)) == GroupElement(1, 1)
    assert mul(GroupElement(0, 1), GroupElement(1, 0)) == GroupElement(-1, 1)
    assert mul(GroupElement(5, 2), GroupElement(-3, 4)) == GroupElement(2, 6)


def test_noncommutative():
    a, b = GroupElement(1, 0), GroupElement(0, 1)
    assert mul(a, b) != mul(b, a)


def test_identity_element():
    g = GroupElement(7, -3)
    assert mul(g, IDENTITY) == g
    assert mul(IDENTITY, g) == g
    assert IDENTITY.is_identity()
    assert not g.is_identity()


@pytest.mark.parametrize("bad", [True, False, 1.0, Fraction(1)])
def test_coordinates_must_be_exact_ints(bad):
    with pytest.raises(TypeError):
        GroupElement(bad, 0)
    with pytest.raises(TypeError):
        GroupElement(0, bad)


@pytest.mark.parametrize("k", [2.0, Fraction(2), True, False])
def test_power_rejects_inexact_exponents(k):
    for g in (GroupElement(3, 2), GroupElement(3, 1)):
        with pytest.raises(TypeError, match="^exponent must be an integer$"):
            power(g, k)


def test_known_inverses():
    assert inv(GroupElement(3, 1)) == GroupElement(3, -1)
    assert inv(GroupElement(3, 2)) == GroupElement(-3, -2)
    assert inv(GroupElement(0, 5)) == GroupElement(0, -5)
    assert inv(IDENTITY) == IDENTITY


def test_power_closed_forms():
    g = GroupElement(3, 2)
    assert power(g, 5) == GroupElement(15, 10)
    assert power(g, -2) == GroupElement(-6, -4)
    h = GroupElement(5, 1)
    assert power(h, 2) == GroupElement(0, 2)
    assert power(h, 3) == GroupElement(5, 3)
    assert power(h, -4) == GroupElement(0, -4)
    assert power(h, -5) == GroupElement(5, -5)
    assert power(h, 0) == IDENTITY


def test_power_zero_and_one():
    g = GroupElement(-4, 7)
    assert power(g, 0) == IDENTITY
    assert power(g, 1) == g
    assert power(g, -1) == inv(g)


def test_conj_examples():
    t = GroupElement(0, 1)
    assert conj(t, GroupElement(1, 0)) == GroupElement(-1, 0)
    assert conj(t, GroupElement(0, 2)) == GroupElement(0, 2)
    assert conj(GroupElement(1, 0), GroupElement(0, 1)) == GroupElement(2, 1)


def test_operator_sugar():
    g, h = GroupElement(2, 3), GroupElement(-1, 4)
    assert g * h == mul(g, h)
    assert g**3 == power(g, 3)
    assert g.inverse() == inv(g)


@given(elem_huge, elem_huge, elem_huge)
def test_associativity(g, h, k):
    assert mul(mul(g, h), k) == mul(g, mul(h, k))


@given(elem_huge)
def test_inverse_law(g):
    assert mul(g, inv(g)) == IDENTITY
    assert mul(inv(g), g) == IDENTITY
    assert inv(inv(g)) == g


@given(elem_huge, elem_huge)
def test_inverse_antihomomorphism(g, h):
    assert inv(mul(g, h)) == mul(inv(h), inv(g))


@given(elem_small, st.integers(min_value=-8, max_value=8))
def test_power_matches_iteration(g, k):
    if k >= 0:
        expected = reduce(mul, [g] * k, IDENTITY)
    else:
        expected = reduce(mul, [inv(g)] * (-k), IDENTITY)
    assert power(g, k) == expected


@given(elem_huge, st.integers(-20, 20), st.integers(-20, 20))
def test_power_additivity(g, j, k):
    assert mul(power(g, j), power(g, k)) == power(g, j + k)


@given(elem_huge, elem_huge)
def test_conj_matches_definition(t, g):
    assert conj(t, g) == mul(mul(t, g), inv(t))


@given(elem_huge, elem_huge, elem_huge)
def test_conj_is_homomorphism(t, g, h):
    assert conj(t, mul(g, h)) == mul(conj(t, g), conj(t, h))


@given(elem30, elem30, coord30)
@example(GroupElement(7, -3), GroupElement(-5, 1 - 10**30), -(10**30))
def test_parity_branches_match_power_closed_forms(g, h, n):
    # the closed forms with the sign written as a power of -1
    def sign(m):
        return (-1) ** (m % 2)

    assert mul(g, h) == GroupElement(g.n + sign(g.m) * h.n, g.m + h.m)
    assert inv(g) == GroupElement((-1) ** ((1 - g.m) % 2) * g.n, -g.m)
    assert conj(g, h) == GroupElement(sign(g.m) * h.n + g.n - sign(h.m) * g.n, h.m)
    assert as_affine(g) == AffineMap(sign(g.m), g.n, g.m)
    assert piece_action((0, 1), g, n) == sign(g.m) * n + 2 * g.n


def test_subgroup_of_translations_is_abelian():
    # elements with even twist commute with each other
    a, b = GroupElement(3, 2), GroupElement(-5, 4)
    assert mul(a, b) == mul(b, a)


def test_affine_apply():
    a = as_affine(GroupElement(2, 3))
    assert a.sign == -1 and a.shift_x == 2 and a.shift_y == 3
    assert a.apply(Fraction(1, 2), Fraction(0)) == (Fraction(3, 2), Fraction(3))


@given(elem_small, elem_small)
def test_affine_homomorphism(g, h):
    assert as_affine(g).compose(as_affine(h)) == as_affine(mul(g, h))


@given(elem_small)
def test_affine_faithful(g):
    assert as_affine(g).is_identity() == g.is_identity()


def test_affine_identity():
    assert AFFINE_IDENTITY == as_affine(IDENTITY)
    assert AFFINE_IDENTITY.is_identity()


@given(g=elem30, h=elem30, x=st.fractions(min_value=-(10**30), max_value=10**30))
def test_operation_results_are_public_values(same_value, g, h, x):
    for built in (mul(g, h), inv(g), conj(g, h)):
        assert type(built.n) is int and type(built.m) is int
        same_value(built, GroupElement(built.n, built.m))
    for built, shift in [(as_affine(g), int),
                         (as_affine(g).compose(as_affine(h)), int),
                         (AffineMap(-1, x, x).compose(as_affine(h)), Fraction)]:
        assert type(built.sign) is int and built.sign in (1, -1)
        assert type(built.shift_x) is shift and type(built.shift_y) is shift
        same_value(built, AffineMap(built.sign, built.shift_x, built.shift_y))


def test_affine_sign_validation():
    for sign in (2, 0, -2):
        with pytest.raises(ValueError, match="sign must be the int 1 or -1"):
            AffineMap(sign, 0, 0)
    # exact types: a bool or a float is neither a sign nor an exact shift
    for sign in (True, 1.0, -1.0, Fraction(1), "1", None):
        with pytest.raises(TypeError, match="sign must be the int 1 or -1"):
            AffineMap(sign, 0, 0)
    for shifts in ((0.5, 0), (0, "x"), (True, 0), (0, False), (1.0, 0), (0, None)):
        with pytest.raises(TypeError, match="shifts must be ints or Fractions"):
            AffineMap(1, *shifts)
    assert AffineMap(-1, Fraction(1, 2), 3).apply(0, 0) == (Fraction(1, 2), 3)


# equality, written field by field, must agree with comparing the tuples
# of fields, and the hash must be that of the tuple
tiny = st.integers(-2, 2)
shifts = st.one_of(tiny, st.builds(Fraction, tiny, st.integers(1, 2)))
affine_maps = st.builds(AffineMap, st.sampled_from([1, -1]), shifts, shifts)


def _fields(x):
    return tuple(getattr(x, f) for f in type(x).__slots__)


@given(st.one_of(st.tuples(st.builds(GroupElement, tiny, tiny),
                           st.builds(GroupElement, tiny, tiny)),
                 st.tuples(affine_maps, affine_maps)))
def test_equality_is_equality_of_field_tuples(pair):
    x, y = pair
    same = _fields(x) == _fields(y)
    assert (x == y) is same and (y == x) is same
    assert (x != y) is (not same)
    assert hash(x) == hash(_fields(x))
    if same:
        assert hash(x) == hash(y)


def test_values_differ_from_tuples_and_other_classes():
    g, a = GroupElement(1, 2), AffineMap(1, 1, 2)
    for x, fields in ((g, (1, 2)), (a, (1, 1, 2))):
        assert x != fields and fields != x
        assert x.__eq__(fields) is NotImplemented
    assert g != a and a != g
    assert g != as_affine(g) and g.__eq__(as_affine(g)) is NotImplemented


def test_affine_shifts_compare_as_numbers():
    a, b = AffineMap(1, Fraction(2), 0), AffineMap(1, 2, 0)
    assert a == b and hash(a) == hash(b)
    assert AffineMap(-1, Fraction(1, 2), 0) != AffineMap(-1, 0, 0)
