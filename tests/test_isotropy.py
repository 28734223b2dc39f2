"""Isotropy case table, fixed-set duality, and the structural sweep."""

from fractions import Fraction

import pytest

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


def test_fixed_set_of_powers_agrees():
    # a cyclic subgroup and the subgroup generated by a proper power fix
    # the same lines
    for s in canonical_subgroups(3):
        g = s.gen
        sq = subgroup(*((2 * g.n, 2 * g.m) if g.m % 2 == 0 else (0, 2 * g.m)))
        assert fixed_set(sq).kind in ("slope-family", "vertical-family")


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FixedSetDescriptor("nope")
    with pytest.raises(ValueError):
        FixedSetDescriptor("slope-family")
    with pytest.raises(ValueError):
        FixedSetDescriptor("vertical-family", slope=Fraction(1))
    with pytest.raises(ValueError):
        FixedSetDescriptor("single-point")


def test_verify_i_complex_passes():
    report = i_complex_suite(4)
    assert report.ok, report.failures
    assert report.checks > 0


def test_line_grid_shape():
    g = line_grid(1)
    slopes = {line.slope for line in g}
    assert slopes == {Fraction(-1), Fraction(0), Fraction(1), VERTICAL}
