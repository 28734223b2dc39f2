"""Isotropy case table, fixed-set duality, and the structural sweep."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from kleingroup import (
    FixedSetDescriptor,
    GroupElement,
    Line,
    VERTICAL,
    act_line,
    canonical_subgroups,
    conj_subgroup,
    contains,
    fixed_set,
    isotropy_group,
    line_grid,
    stabilizes,
    subgroup,
)
from kleingroup.verify import i_complex_suite


def test_isotropy_case_table():
    # even reduced numerator: <(a2, a1)>
    assert isotropy_group(Line(Fraction(2, 3), Fraction(4))) == subgroup(3, 2)
    assert isotropy_group(Line(Fraction(-4, 5), Fraction(0))) == subgroup(5, -4)
    # odd reduced numerator: <(2*a2, 2*a1)>
    assert isotropy_group(Line(Fraction(1, 2), Fraction(0))) == subgroup(4, 2)
    assert isotropy_group(Line(Fraction(3), Fraction(7, 2))) == subgroup(2, 6)
    # slope zero: the full horizontal
    assert isotropy_group(Line(Fraction(0), Fraction(5, 3))) == subgroup(1, 0)
    # vertical with half-integer intercept: a glide flip
    assert isotropy_group(Line(VERTICAL, Fraction(3, 2))) == subgroup(3, 1)
    assert isotropy_group(Line(VERTICAL, Fraction(-2))) == subgroup(-4, 1)
    assert isotropy_group(Line(VERTICAL, Fraction(0))) == subgroup(0, 1)
    # vertical otherwise: vertical translations only
    assert isotropy_group(Line(VERTICAL, Fraction(1, 3))) == subgroup(0, 2)


def test_isotropy_is_never_trivial():
    for line in line_grid(4):
        assert not isotropy_group(line).gen.is_identity()


def test_isotropy_generates_the_full_stabilizer():
    # on a bounded grid, stabilizing elements are exactly the powers
    elements = [GroupElement(n, m) for n in range(-8, 9) for m in range(-8, 9)]
    for line in line_grid(3):
        iso = isotropy_group(line)
        for g in elements:
            assert stabilizes(g, line) == contains(iso, g), (line, g)


def test_isotropy_equivariance():
    # isotropy(g.line) equals the conjugate of isotropy(line) by g
    for line in line_grid(2):
        iso = isotropy_group(line)
        for n in range(-2, 3):
            for m in range(-2, 3):
                g = GroupElement(n, m)
                assert isotropy_group(act_line(g, line)) == conj_subgroup(g, iso)


def test_fixed_set_cases():
    d = fixed_set(subgroup(3, 1))
    assert d.kind == "single-point"
    assert d.line == Line(VERTICAL, Fraction(3, 2))

    d = fixed_set(subgroup(4, 1))
    assert d.line == Line(VERTICAL, Fraction(2))

    d = fixed_set(subgroup(5, 0))
    assert d.kind == "slope-family" and d.slope == 0

    d = fixed_set(subgroup(0, 4))
    assert d.kind == "vertical-family"

    d = fixed_set(subgroup(3, 4))
    assert d.kind == "slope-family" and d.slope == Fraction(4, 3)

    d = fixed_set(subgroup(-2, 2))
    assert d.slope == Fraction(-1)


def test_fixed_set_membership_is_stabilization():
    lines = line_grid(3)
    for s in canonical_subgroups(4):
        d = fixed_set(s)
        for line in lines:
            assert d.contains_line(line) == stabilizes(s.gen, line), (s, line)


def test_slope_family_membership_is_slope_equality():
    # contains_line cross-multiplies; it must agree with comparing the
    # Fraction slopes, vertical lines (slope VERTICAL) included
    lines = line_grid(4)
    assert any(line.vertical for line in lines)
    for s in canonical_subgroups(6):
        d = fixed_set(s)
        if d.kind == "slope-family":
            for line in lines:
                assert d.contains_line(line) == (line.slope == d.slope), (s, line)


def test_fixed_set_of_powers_agrees():
    # squaring a translation keeps its fixed lines; the square of a glide
    # is vertical, so it fixes every vertical line, the glide's among them
    for s in canonical_subgroups(3):
        g = s.gen
        sq = subgroup(*((2 * g.n, 2 * g.m) if g.m % 2 == 0 else (0, 2 * g.m)))
        if g.m % 2 == 0:
            assert fixed_set(sq) == fixed_set(s), s
        else:
            assert fixed_set(sq).kind == "vertical-family", s
            assert fixed_set(sq).contains_line(fixed_set(s).line), s


def test_descriptor_validation():
    # a primitive direction with q > 0, or (1, 0), as fixed_direction gives;
    # a line only for (0, 1) and only a vertical one
    for bad in [((2, 4),), ((0, 0),), ((0, 2),), ((0, -1),), ((-1, 0),), ((3, -2),),
                ((1, 2), Line(VERTICAL, 0)), ((0, 1), Line(0, 0))]:
        with pytest.raises(ValueError, match="a fixed set is a primitive direction"):
            FixedSetDescriptor(*bad)
    with pytest.raises(ValueError, match="a fixed set is a primitive direction"):
        FixedSetDescriptor((0, 1, 0))
    # a direction that is not a tuple of ints could be neither equal to a
    # checked one nor hashed
    for bad in [[2, 1], (2.0, 1), (True, 1), (Fraction(2), 1), "21", None]:
        with pytest.raises(TypeError, match="direction must be a tuple of ints"):
            FixedSetDescriptor(bad)
    for bad in [5, (0, 1), "t = 0", VERTICAL]:
        with pytest.raises(TypeError, match="line must be a Line or None"):
            FixedSetDescriptor((0, 1), bad)
    assert FixedSetDescriptor((2, 1)).slope == Fraction(1, 2)
    assert FixedSetDescriptor((1, 0)) == fixed_set(subgroup(1, 0))
    assert hash(FixedSetDescriptor((1, 2))) == hash(fixed_set(subgroup(2, 4)))


BIG = 10**30
big_coords = st.integers(-BIG, BIG)
big_rationals = st.builds(Fraction, big_coords, st.integers(1, BIG))


@given(big_coords, big_coords, big_rationals,
       st.one_of(st.just(VERTICAL), big_rationals), big_rationals)
@example(0, 1, Fraction(3, 2), VERTICAL, Fraction(5))
@example(BIG, 0, Fraction(-1, 7), Fraction(0), Fraction(1, 3))
@example(-BIG, BIG, Fraction(BIG, 3), VERTICAL, Fraction(0))
def test_translation_fixed_set_membership_at_scale(n, k, at, slope, intercept):
    # the translation (n, 2k) fixes the lines parallel to it, vertical
    # ones when n == 0, and no other line; its slope comes from the
    # generator, not from fixed_direction
    assume(n or k)
    s = subgroup(n, 2 * k)
    d = fixed_set(s)
    parallel = Line(VERTICAL if n == 0 else Fraction(2 * k, n), at)
    assert d.contains_line(parallel) and stabilizes(s.gen, parallel)
    line = Line(slope, intercept)
    assert d.contains_line(line) == stabilizes(s.gen, line) == (line.slope == parallel.slope)


def test_verify_i_complex_passes():
    report = i_complex_suite(4)
    assert report.ok, report.failures
    assert report.checks > 0


def test_line_grid_shape():
    g = line_grid(1)
    slopes = {line.slope for line in g}
    assert slopes == {Fraction(-1), Fraction(0), Fraction(1), VERTICAL}
