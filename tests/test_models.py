"""Index action, gluing maps, flat representatives, model reports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleingroup import (
    CommClass,
    GroupElement,
    IDENTITY,
    Line,
    PUSHOUT_CAP,
    PlanePoint,
    VERTICAL,
    act_line,
    act_point,
    axis_projection,
    class_family,
    commensurator,
    conj_subgroup,
    contains,
    flat_representatives,
    index_action,
    inv,
    isotropy_group,
    line_quotient,
    mul,
    pushout_report,
    quotient_shift,
    shift_action,
    subgroup,
)

ELEMS = [GroupElement(n, m) for n in range(-6, 7) for m in range(-6, 7)]


def test_index_action_examples():
    assert index_action(GroupElement(2, 1), 5) == -1
    assert index_action(GroupElement(1, 0), 0) == 2
    assert index_action(GroupElement(0, 2), 7) == 7
    assert index_action(IDENTITY, 3) == 3


def test_index_action_is_action():
    for g in ELEMS[:60]:
        for h in ELEMS[:60]:
            gh = mul(g, h)
            for n in (-3, 0, 4):
                assert index_action(g, index_action(h, n)) == index_action(gh, n)


def test_index_action_is_by_bijections():
    for g in ELEMS:
        imgs = {index_action(g, n) for n in range(-8, 9)}
        assert len(imgs) == 17
        for n in range(-8, 9):
            assert index_action(inv(g), index_action(g, n)) == n


def test_index_stabilizer():
    # index n is the vertical line t = n/2, whose isotropy is <(n, 1)>
    for n in range(-6, 7):
        stab = isotropy_group(Line(VERTICAL, Fraction(n, 2)))
        assert stab == subgroup(n, 1)
        for g in ELEMS:
            assert (index_action(g, n) == n) == contains(stab, g), (g, n)


def test_index_orbits_are_parity_classes():
    # 2*g.n shifts by even amounts and the sign flip preserves parity
    for g in ELEMS:
        for n in range(-4, 5):
            assert (index_action(g, n) - n) % 2 == 0


def test_axis_projection_equivariance():
    pts = [PlanePoint(Fraction(p, 2), Fraction(q, 3))
           for p in range(-4, 5) for q in range(-4, 5)]
    for g in ELEMS:
        for x in pts[:30]:
            assert axis_projection(act_point(g, x)) == \
                shift_action(g, axis_projection(x))


def test_line_quotient_values():
    rep = subgroup(1, 2)
    assert line_quotient(rep, PlanePoint(Fraction(0), Fraction(2))) == -1
    assert line_quotient(rep, PlanePoint(Fraction(1), Fraction(2))) == 0
    assert line_quotient(rep, PlanePoint(Fraction(1, 2), Fraction(1))) == 0
    assert line_quotient(rep, PlanePoint(Fraction(0), Fraction(0))) == 0
    assert line_quotient(subgroup(3, 4), PlanePoint(Fraction(1), Fraction(1))) == \
        Fraction(1, 2)


def test_line_quotient_vanishes_exactly_on_the_line():
    rep = subgroup(2, 6)  # reduced: gcd(2, 3) = 1
    for k in range(-3, 4):
        p = PlanePoint(Fraction(2 * k), Fraction(6 * k))
        assert line_quotient(rep, p) == 0
    assert line_quotient(rep, PlanePoint(Fraction(1), Fraction(0))) != 0


def test_quotient_shift_is_the_cokernel_map():
    rep = subgroup(1, 2)
    translations = [g for g in ELEMS if g.m % 2 == 0]
    values = set()
    for g in translations:
        s = quotient_shift(rep, g)
        values.add(s)
        assert (s == 0) == contains(rep, g), g
        # equivariance: the quotient intertwines translation with shift by s
        p = PlanePoint(Fraction(1, 3), Fraction(5))
        assert line_quotient(rep, act_point(g, p)) == s + line_quotient(rep, p)
    assert 1 in values and -1 in values


def test_quotient_shift_rejects_glides():
    with pytest.raises(ValueError, match="translation"):
        quotient_shift(subgroup(1, 2), GroupElement(0, 1))


def test_flat_rep_validation():
    with pytest.raises(ValueError, match="reduced form"):
        line_quotient(subgroup(2, 4), PlanePoint(Fraction(0), Fraction(0)))
    with pytest.raises(ValueError, match="reduced form"):
        line_quotient(subgroup(1, 0), PlanePoint(Fraction(0), Fraction(0)))
    with pytest.raises(ValueError, match="reduced form"):
        line_quotient(subgroup(3, 1), PlanePoint(Fraction(0), Fraction(0)))
    with pytest.raises(ValueError, match="reduced form"):
        line_quotient(subgroup(0, 2), PlanePoint(Fraction(0), Fraction(0)))


def test_flat_representatives_lists():
    assert [r.gen for r in flat_representatives(1)] == [GroupElement(1, 2)]
    assert [r.gen for r in flat_representatives(2)] == [
        GroupElement(1, 2), GroupElement(1, 4), GroupElement(2, 2),
    ]
    got3 = [r.gen for r in flat_representatives(3)]
    assert got3 == [
        GroupElement(1, 2), GroupElement(1, 4), GroupElement(1, 6),
        GroupElement(2, 2), GroupElement(2, 6),
        GroupElement(3, 2), GroupElement(3, 4),
    ]
    assert flat_representatives(0) == []


def test_flat_representatives_hit_every_r_class_once():
    # every R class with a bounded reduced generator appears exactly once
    from kleingroup import comm_class
    reps = flat_representatives(4)
    classes = [comm_class(r) for r in reps]
    assert len(set(classes)) == len(classes)
    for n in range(1, 5):
        for m in range(1, 5):
            c = comm_class(subgroup(n, 2 * m))
            assert c in classes


def test_pushout_report_census():
    d = pushout_report(2)
    assert d.kind == "pushout" and d.base == "plane"
    labels = [p.label for p in d.pieces]
    assert labels[0] == "horizontal" and labels[1] == "odd-vertical"
    assert labels[2:] == ["flat(1,2)", "flat(1,4)", "flat(2,2)"]
    tags = [p.cls.tag for p in d.pieces]
    assert tags.count("H") == 1 and tags.count("K") == 1 and tags.count("R") == 3
    kinds = {p.label: p.commensurator.kind for p in d.pieces}
    assert kinds["horizontal"] == "whole-group"
    assert kinds["odd-vertical"] == "whole-group"
    assert kinds["flat(1,2)"] == "translation-subgroup"
    assert len(d.identifications) == 3
    # every piece is glued along its class's commensurator and family,
    # in the order H, K, then the flat representatives
    for bound in [*range(9), PUSHOUT_CAP]:
        pieces = pushout_report(bound).pieces
        assert [p.cls for p in pieces[:2]] == [CommClass((1, 0)), CommClass((0, 1))]
        assert [(p.cls.tag, p.cls.rep) for p in pieces[2:]] == [
            ("R", rep) for rep in flat_representatives(bound)
        ]
        for p in pieces:
            assert p.commensurator == commensurator(p.cls)
            assert p.family == class_family(p.cls)


def test_pushout_report_families_are_disjoint():
    d = pushout_report(3)
    flats = [p for p in d.pieces if p.cls.tag == "R"]
    from kleingroup import family_contains
    for i, a in enumerate(flats):
        for b in flats[i + 1:]:
            assert not family_contains(a.family, b.cls.rep)


def test_report_bound_validation():
    with pytest.raises(ValueError):
        pushout_report(-1)
    assert len(pushout_report(PUSHOUT_CAP).pieces) == 10_045
    with pytest.raises(ValueError, match="capped"):
        pushout_report(PUSHOUT_CAP + 1)


# coordinates far past any sweep bound, to pin the closed forms exactly
BIG = st.integers(-10**30, 10**30)
RATIONALS = st.builds(Fraction, BIG, st.integers(1, 10**30))
ELEMENTS = st.builds(GroupElement, BIG, BIG)
TRANSLATIONS = st.builds(GroupElement, BIG, BIG.map(lambda m: 2 * m))
REPS = st.sampled_from([subgroup(s * r.gen.n, r.gen.m)
                        for r in flat_representatives(6) for s in (1, -1)])


@given(REPS, RATIONALS, RATIONALS)
def test_line_quotient_matches_its_fraction_form(rep, t, r):
    a, b = rep.gen.n, rep.gen.m
    q = line_quotient(rep, PlanePoint(t, r))
    assert type(q) is Fraction
    assert q == (b * t - a * r) / 2


def _line_through(rep, p):
    """The line through p parallel to rep's generator (a, b)."""
    slope = Fraction(rep.gen.m, rep.gen.n)
    return Line(slope, p.r - slope * p.t)


@settings(max_examples=300, deadline=None)
@given(ELEMENTS, BIG, RATIONALS)
def test_piece_actions_are_the_line_action(g, n, x):
    # index n is the vertical line t = n/2, and x the horizontal line r = x
    assert act_line(g, Line(VERTICAL, Fraction(n, 2))) == \
        Line(VERTICAL, Fraction(index_action(g, n), 2))
    assert act_line(g, Line(0, x)) == Line(0, shift_action(g, x))


@settings(max_examples=300, deadline=None)
@given(REPS, TRANSLATIONS, RATIONALS, RATIONALS)
def test_line_quotient_is_the_parallel_line(rep, g, t, r):
    # the quotient value of p is -a/2 times the intercept of the line
    # through p parallel to rep = (a, b); a translation moves that line
    # to the one through g.p, and shifts the value by quotient_shift
    p = PlanePoint(t, r)
    line = _line_through(rep, p)
    assert line_quotient(rep, p) == -Fraction(rep.gen.n, 2) * line.intercept
    moved = act_line(g, line)
    assert moved == _line_through(rep, act_point(g, p))
    assert -Fraction(rep.gen.n, 2) * moved.intercept == \
        line_quotient(rep, p) + quotient_shift(rep, g)
