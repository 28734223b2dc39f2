"""Index action, gluing maps, flat representatives, model reports."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kleingroup
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
    canonical_subgroups,
    commensurator,
    conj_subgroup,
    contains,
    family_contains,
    fixed_direction,
    flat_representatives,
    inv,
    isotropy_group,
    mul,
    piece_action,
    piece_coordinate,
    piece_text,
    pushout_report,
    subgroup,
)
from kleingroup.cli import main

ELEMS = [GroupElement(n, m) for n in range(-6, 7) for m in range(-6, 7)]
H, K = (1, 0), (0, 1)


def test_index_action_examples():
    assert piece_action(K, GroupElement(2, 1), 5) == -1
    assert piece_action(K, GroupElement(1, 0), 0) == 2
    assert piece_action(K, GroupElement(0, 2), 7) == 7
    assert piece_action(K, IDENTITY, 3) == 3


def test_index_action_is_action():
    for g in ELEMS[:60]:
        for h in ELEMS[:60]:
            gh = mul(g, h)
            for n in (-3, 0, 4):
                assert piece_action(K, g, piece_action(K, h, n)) == piece_action(K, gh, n)


def test_index_action_is_by_bijections():
    for g in ELEMS:
        imgs = {piece_action(K, g, n) for n in range(-8, 9)}
        assert len(imgs) == 17
        for n in range(-8, 9):
            assert piece_action(K, inv(g), piece_action(K, g, n)) == n


def test_index_stabilizer():
    # index n is the vertical line t = n/2, whose isotropy is <(n, 1)>
    for n in range(-6, 7):
        stab = isotropy_group(Line(VERTICAL, Fraction(n, 2)))
        assert stab == subgroup(n, 1)
        for g in ELEMS:
            assert (piece_action(K, g, n) == n) == contains(stab, g), (g, n)


def test_index_orbits_are_parity_classes():
    # 2*g.n shifts by even amounts and the sign flip preserves parity
    for g in ELEMS:
        for n in range(-4, 5):
            assert (piece_action(K, g, n) - n) % 2 == 0


def test_horizontal_piece_coordinate_is_equivariant():
    pts = [PlanePoint(Fraction(p, 2), Fraction(q, 3))
           for p in range(-4, 5) for q in range(-4, 5)]
    for g in ELEMS:
        for x in pts[:30]:
            assert piece_coordinate(H, x) == x.r
            assert piece_coordinate(H, act_point(g, x)) == \
                piece_action(H, g, piece_coordinate(H, x))


def test_flat_piece_coordinate_values():
    d = fixed_direction(subgroup(1, 2))
    assert piece_coordinate(d, PlanePoint(Fraction(0), Fraction(2))) == -1
    assert piece_coordinate(d, PlanePoint(Fraction(1), Fraction(2))) == 0
    assert piece_coordinate(d, PlanePoint(Fraction(1, 2), Fraction(1))) == 0
    assert piece_coordinate(d, PlanePoint(Fraction(0), Fraction(0))) == 0
    assert piece_coordinate(fixed_direction(subgroup(3, 4)),
                            PlanePoint(Fraction(1), Fraction(1))) == Fraction(1, 2)
    # the mirror representative reads the mirror functional
    assert piece_coordinate(fixed_direction(subgroup(-1, 2)),
                            PlanePoint(Fraction(0), Fraction(2))) == 1


def test_flat_piece_coordinate_vanishes_exactly_on_the_line():
    d = fixed_direction(subgroup(2, 6))  # reduced: gcd(2, 3) = 1
    for k in range(-3, 4):
        p = PlanePoint(Fraction(2 * k), Fraction(6 * k))
        assert piece_coordinate(d, p) == 0
    assert piece_coordinate(d, PlanePoint(Fraction(1), Fraction(0))) != 0


def test_flat_piece_action_is_the_cokernel_map():
    rep = subgroup(1, 2)
    d = fixed_direction(rep)
    translations = [g for g in ELEMS if g.m % 2 == 0]
    values = set()
    for g in translations:
        s = piece_action(d, g, 0)
        assert type(s) is int
        values.add(s)
        assert (s == 0) == contains(rep, g), g
        # equivariance: the coordinate intertwines translation with shift by s
        p = PlanePoint(Fraction(1, 3), Fraction(5))
        c = piece_coordinate(d, p)
        assert piece_coordinate(d, act_point(g, p)) == piece_action(d, g, c) == s + c
    assert 1 in values and -1 in values


def test_flat_piece_action_rejects_glides():
    with pytest.raises(ValueError, match="translation"):
        piece_action(fixed_direction(subgroup(1, 2)), GroupElement(0, 1), 0)
    with pytest.raises(ValueError, match="translation"):
        piece_action((-3, 1), GroupElement(5, -7), Fraction(1, 2))


def test_piece_maps_reject_directions_fixed_direction_never_returns():
    x = PlanePoint(3, 5)
    for d in [(0, 0), (2, 4), (0, -1), (-1, 0), (1, -2), (0, 2), (3, 0)]:
        with pytest.raises(ValueError, match="direction"):
            piece_coordinate(d, x)
        with pytest.raises(ValueError, match="direction"):
            piece_action(d, GroupElement(1, 2), 0)
    # the unreduced and the flipped forms would read as these, silently
    assert piece_coordinate((1, 2), x) == Fraction(1, 2)
    assert piece_action(K, GroupElement(1, 1), 0) == 2


def test_piece_action_rejects_inexact_coordinates():
    for c in [1.5, 2.0, True, "1", None]:
        with pytest.raises(TypeError, match="int or a Fraction"):
            piece_action(K, GroupElement(1, 0), c)
    assert piece_action(K, GroupElement(1, 0), Fraction(3, 2)) == Fraction(7, 2)


def test_flat_rep_validation(capsys):
    # map-f takes only reduced flat representatives, of either sign
    for a, b in [(2, 4), (1, 0), (3, 1), (0, 2), (-2, 4), (3, 6)]:
        assert main(["map-f", str(a), str(b), "0", "0"]) == 1
        assert "reduced form" in capsys.readouterr().err
    for a, b in [(1, 2), (-1, 2), (2, 2), (-2, -6), (3, -4)]:
        assert main(["map-f", str(a), str(b), "0", "0"]) == 0
        assert capsys.readouterr().out.startswith("0  ")


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
    labels = [piece_text(c)[0] for c in d.pieces]
    assert labels[0] == "horizontal" and labels[1] == "odd-vertical"
    assert labels[2:] == ["flat(1,2)", "flat(1,4)", "flat(2,2)"]
    tags = [c.tag for c in d.pieces]
    assert tags.count("H") == 1 and tags.count("K") == 1 and tags.count("R") == 3
    kinds = {piece_text(c)[0]: commensurator(c) for c in d.pieces}
    assert kinds["horizontal"] == "whole-group"
    assert kinds["odd-vertical"] == "whole-group"
    assert kinds["flat(1,2)"] == "translation-subgroup"
    assert len(d.identifications) == 1
    # one piece per class, in the order H, K, then the flat representatives
    for bound in [*range(9), PUSHOUT_CAP]:
        pieces = pushout_report(bound).pieces
        assert pieces[:2] == (CommClass((1, 0)), CommClass((0, 1)))
        assert [(c.tag, c.rep) for c in pieces[2:]] == [
            ("R", rep) for rep in flat_representatives(bound)
        ]


def _fixed_set(d, g):
    """The fixed set of g on the piece of direction d, whose action
    c -> e*c + s is read from two piece_action calls: the whole line, no
    point, or the one point s/2."""
    s = piece_action(d, g, 0)
    e = piece_action(d, g, 1) - s
    if e == 1:
        return "line" if s == 0 else "empty"
    assert e == -1, (d, g, e)
    half = Fraction(s, 2)
    assert piece_action(d, g, half) == half
    return "point"


def test_each_piece_is_a_model_for_its_family():
    # X^S is contractible (a line or a point) for S in the class's family
    # and empty otherwise; a glide does not act on a flat piece
    pairs = 0
    for c in pushout_report(8).pieces:
        for s in canonical_subgroups(8):
            if c.tag == "R" and s.gen.m % 2:
                with pytest.raises(ValueError, match="translation"):
                    piece_action(c.direction, s.gen, 0)
                continue
            fixed = _fixed_set(c.direction, s.gen)
            assert (fixed != "empty") == family_contains(c, s), (c, s, fixed)
            pairs += 1
    assert pairs == 3_556


def test_report_strings_name_only_public_functions():
    d = pushout_report(3)
    strings = [*d.identifications, *(piece_text(c)[1] for c in d.pieces)]
    names = {name for text in strings for name in re.findall(r"(\w+)\(", text)}
    assert "piece_coordinate" in names
    assert names <= set(kleingroup.__all__)
    for text in strings:
        assert "integer family" not in text and "plane factor" not in text, text


def test_pushout_report_families_are_disjoint():
    d = pushout_report(3)
    flats = [c for c in d.pieces if c.tag == "R"]
    for i, a in enumerate(flats):
        for b in flats[i + 1:]:
            assert not family_contains(a, b.rep)


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
DIRECTIONS = st.one_of(st.sampled_from([H, K]), REPS.map(fixed_direction))


@given(REPS, RATIONALS, RATIONALS)
def test_flat_piece_coordinate_matches_its_fraction_form(rep, t, r):
    a, b = rep.gen.n, rep.gen.m
    q = piece_coordinate(fixed_direction(rep), PlanePoint(t, r))
    assert type(q) is Fraction
    assert q == (b * t - a * r) / 2


def _line_through(p, q, x):
    """The line through the point x of direction (p, q)."""
    if p == 0:
        return Line(VERTICAL, x.t)
    slope = Fraction(q, p)
    return Line(slope, x.r - slope * x.t)


@settings(max_examples=300, deadline=None)
@given(DIRECTIONS, RATIONALS, RATIONALS, RATIONALS,
       st.one_of(st.just(Fraction(0)), RATIONALS))
def test_piece_coordinate_is_constant_exactly_on_the_lines(d, t, r, s, e):
    # y moves off x by s along (p, q) and by e across it, along (-q, p)
    p, q = d
    x, y = PlanePoint(t, r), PlanePoint(t + s * p - e * q, r + s * q + e * p)
    line = _line_through(p, q, x)
    on_line = line.a * y.t + line.b * y.r == line.c
    assert on_line == (e == 0)
    assert (piece_coordinate(d, x) == piece_coordinate(d, y)) == on_line


@settings(max_examples=300, deadline=None)
@given(ELEMENTS, BIG, RATIONALS)
def test_piece_actions_are_the_line_action(g, n, x):
    # index n is the vertical line t = n/2, and x the horizontal line r = x
    n_moved = piece_action(K, g, n)
    assert type(n_moved) is int
    assert act_line(g, Line(VERTICAL, Fraction(n, 2))) == Line(VERTICAL, Fraction(n_moved, 2))
    assert act_line(g, Line(0, x)) == Line(0, piece_action(H, g, x))


@settings(max_examples=300, deadline=None)
@given(REPS, TRANSLATIONS, RATIONALS, RATIONALS)
def test_flat_piece_coordinate_is_the_parallel_line(rep, g, t, r):
    # the coordinate of p is -a/2 times the intercept of the line through
    # p parallel to rep = (a, b); a translation moves that line to the one
    # through g.p, and acts on the coordinate by piece_action
    d = fixed_direction(rep)
    p = PlanePoint(t, r)
    line = _line_through(rep.gen.n, rep.gen.m, p)
    c = piece_coordinate(d, p)
    assert c == -Fraction(rep.gen.n, 2) * line.intercept
    moved = act_line(g, line)
    assert moved == _line_through(rep.gen.n, rep.gen.m, act_point(g, p))
    assert -Fraction(rep.gen.n, 2) * moved.intercept == piece_action(d, g, c)


@settings(max_examples=300, deadline=None)
@given(ELEMENTS, RATIONALS, RATIONALS)
def test_odd_vertical_coordinate_is_equivariant_off_the_integers(g, t, r):
    x = PlanePoint(t, r)
    c = piece_coordinate(K, x)
    assert c == 2 * t
    assert piece_coordinate(K, act_point(g, x)) == piece_action(K, g, c)


@settings(max_examples=300, deadline=None)
@given(ELEMENTS, ELEMENTS, RATIONALS)
def test_odd_vertical_action_is_an_action_on_the_rationals(g, h, c):
    moved = piece_action(K, g, piece_action(K, h, c))
    assert type(moved) is Fraction
    assert moved == piece_action(K, mul(g, h), c)
    assert piece_action(K, IDENTITY, c) == c
    assert piece_action(K, inv(g), piece_action(K, g, c)) == c
