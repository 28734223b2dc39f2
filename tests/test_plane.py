"""Plane action, line action, the line metric, and freeness."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kleingroup import (
    GroupElement,
    IDENTITY,
    Line,
    LineDistance,
    PlanePoint,
    VERTICAL,
    act_line,
    act_point,
    as_affine,
    inv,
    isotropy_group,
    line_distance,
    mul,
    power,
    stabilizes,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
elems = st.builds(GroupElement, st.integers(-20, 20), st.integers(-20, 20))
points = st.builds(PlanePoint, rationals, rationals)
lines = st.one_of(
    st.builds(Line, rationals, rationals),
    st.builds(lambda b: Line(VERTICAL, b), rationals),
)
coord30 = st.integers(-(10**30), 10**30)
elems30 = st.builds(GroupElement, coord30, coord30)
rationals30 = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**6)
lines30 = st.one_of(
    st.builds(Line, rationals30, rationals30),
    st.builds(lambda b: Line(VERTICAL, b), rationals30),
)


def test_point_action_examples():
    g = GroupElement(2, 1)
    assert act_point(g, PlanePoint(Fraction(3), Fraction(5))) == \
        PlanePoint(Fraction(-1), Fraction(6))
    h = GroupElement(-1, 2)
    assert act_point(h, PlanePoint(Fraction(1, 2), Fraction(0))) == \
        PlanePoint(Fraction(-1, 2), Fraction(2))


def test_point_action_requires_exact_coordinates():
    with pytest.raises(TypeError):
        PlanePoint(0.5, Fraction(0))


@pytest.mark.parametrize("bad", [True, False])
def test_plane_coordinates_reject_bool(bad):
    for build in (lambda: PlanePoint(bad, 0), lambda: PlanePoint(0, bad),
                  lambda: Line(bad, 0), lambda: Line(0, bad),
                  lambda: Line(VERTICAL, bad)):
        with pytest.raises(TypeError):
            build()


@given(elems30, rationals30, rationals30)
@example(GroupElement(3, 1 - 10**30), Fraction(1, 3), Fraction(-5))
def test_point_action_matches_power_closed_form(g, t, r):
    sign = (-1) ** (g.m % 2)
    assert act_point(g, PlanePoint(t, r)) == PlanePoint(g.n + sign * t, g.m + r)


@given(elems, elems, points)
def test_point_action_is_action(g, h, p):
    assert act_point(g, act_point(h, p)) == act_point(mul(g, h), p)
    assert act_point(IDENTITY, p) == p


@given(elems, points)
def test_point_action_matches_affine_maps(g, p):
    q = act_point(g, p)
    assert as_affine(g).apply(p.t, p.r) == (q.t, q.r)


@given(elems, points)
def test_point_action_free(g, p):
    # only the identity has fixed points in the plane
    if act_point(g, p) == p:
        assert g == IDENTITY


@given(st.one_of(lines, st.builds(act_line, elems30, lines30)))
@example(act_line(GroupElement(10**30, 1 - 10**30), Line(VERTICAL, Fraction(-7, 3))))
@example(act_line(GroupElement(-5, 3), Line(Fraction(10**30, 7), Fraction(-1, 10**6))))
def test_line_triple_is_normalized_and_views_rebuild_it(line):
    assert math.gcd(line.a, line.b, line.c) == 1
    assert line.b > 0 or (line.b == 0 and line.a > 0)
    assert Line(line.slope, line.intercept) == line


@given(g=elems30, p=st.builds(PlanePoint, rationals30, rationals30), line=lines30)
def test_action_results_are_public_values(same_value, g, p, line):
    q = act_point(g, p)
    assert type(q.t) is Fraction and type(q.r) is Fraction
    same_value(q, PlanePoint(q.t, q.r))
    image = act_line(g, line)
    assert all(type(x) is int for x in (image.a, image.b, image.c))
    same_value(image, Line(image.slope, image.intercept))


def test_line_action_examples():
    g = GroupElement(1, 1)
    img = act_line(g, Line(Fraction(2, 3), Fraction(1, 4)))
    assert img == Line(Fraction(-2, 3), Fraction(23, 12))
    assert act_line(g, Line(VERTICAL, Fraction(2))) == Line(VERTICAL, Fraction(-1))
    assert act_line(GroupElement(0, 2), Line(Fraction(1), Fraction(0))) == \
        Line(Fraction(1), Fraction(2))


glides30 = st.builds(lambda n, k: GroupElement(n, 2 * k + 1), coord30, coord30)
verticals30 = st.builds(lambda b: Line(VERTICAL, b), rationals30)


@given(st.one_of(elems30, glides30), st.one_of(lines30, verticals30))
@example(GroupElement(1, 1), Line(VERTICAL, Fraction(3)))
@example(GroupElement(-3, 1), Line(VERTICAL, Fraction(-3, 2)))
@example(GroupElement(0, 2), Line(Fraction(1, 2), Fraction(0)))
def test_line_action_matches_constructor_normalization(g, line):
    # act_line skips the gcd: its image must be the line that Line builds
    # from the unnormalized image triple.  Random pairs almost never
    # stabilize, which matters: the isotropy suite compares a moved image
    # only by equality, so a mis-normalized one would pass there.
    sa = -line.a if g.m & 1 else line.a
    c = line.c + sa * g.n + line.b * g.m
    if line.b:
        expected = Line(Fraction(-sa, line.b), Fraction(c, line.b))
    else:
        expected = Line(VERTICAL, Fraction(c, sa))
    image = act_line(g, line)
    assert (image.a, image.b, image.c) == (expected.a, expected.b, expected.c)
    assert math.gcd(image.a, image.b, image.c) == 1
    assert image.b > 0 or (image.b == 0 and image.a > 0)


@given(st.builds(act_line, elems, lines), st.one_of(lines, st.builds(act_line, elems, lines)))
@example(act_line(GroupElement(1, 1), Line(VERTICAL, 0)), Line(VERTICAL, 0))
@example(act_line(GroupElement(1, 0), Line(0, 1)), Line(0, 1))
def test_lines_are_equal_exactly_when_their_triples_are(built, other):
    # equality, written field by field, must agree with comparing the
    # triples, and the hash must be that of the triple
    same = (built.a, built.b, built.c) == (other.a, other.b, other.c)
    assert (built == other) is same and (other == built) is same
    assert (built != other) is (not same)
    assert hash(built) == hash((built.a, built.b, built.c))
    if same:
        assert hash(built) == hash(other)
    assert built != (built.a, built.b, built.c)
    assert built.__eq__(PlanePoint(built.a, built.b)) is NotImplemented


@given(elems, elems, lines)
def test_line_action_is_action(g, h, line):
    assert act_line(g, act_line(h, line)) == act_line(mul(g, h), line)
    assert act_line(IDENTITY, line) == line


@given(elems, lines, points)
def test_line_action_is_pointwise(g, line, p):
    # the image line is exactly the set of images of points
    if line.contains(p):
        assert act_line(g, line).contains(act_point(g, p))


@given(elems, lines)
def test_stabilizes_matches_action(g, line):
    assert stabilizes(g, line) == (act_line(g, line) == line)


@given(elems30, lines30, rationals30, st.integers(-3, 3))
@example(GroupElement(1, -3), Line(VERTICAL, Fraction(5, 2)), Fraction(7), -1)
def test_line_action_carries_points_and_stabilizers_at_scale(g, line, x, k):
    # a point of the line at t = x, or at r = x if the line is vertical
    if line.vertical:
        p = PlanePoint(line.intercept, x)
    else:
        p = PlanePoint(x, line.slope * x + line.intercept)
    assert line.contains(p)
    # a random element rarely keeps the line; powers of its isotropy
    # generator always do, and glide powers reach the vertical lines
    for h in (g, power(isotropy_group(line).gen, k)):
        image = act_line(h, line)
        assert image.contains(act_point(h, p))
        assert stabilizes(h, line) == (image == line)


def test_metric_examples():
    d = line_distance(Line(VERTICAL, Fraction(0)), Line(VERTICAL, Fraction(3)))
    assert d.parallel and d.width_sq == 9 and d.value == 0.75
    d = line_distance(Line(Fraction(0), Fraction(0)), Line(Fraction(0), Fraction(2)))
    assert d.width_sq == 4 and d.value == pytest.approx(2 / 3)
    d = line_distance(Line(Fraction(1), Fraction(0)), Line(Fraction(1), Fraction(1)))
    assert d.width_sq == Fraction(1, 2)
    d = line_distance(Line(Fraction(1), Fraction(0)), Line(Fraction(2), Fraction(0)))
    assert not d.parallel and d.value == 1.0
    d = line_distance(Line(VERTICAL, Fraction(1)), Line(Fraction(0), Fraction(1)))
    assert not d.parallel and d.value == 1.0


def test_distance_is_a_view_of_the_width():
    assert LineDistance(Fraction(1)).value == 0.5
    assert LineDistance(None).value == 1.0 and not LineDistance(None).parallel
    with pytest.raises(TypeError):
        LineDistance(Fraction(1), 0.3)


def test_distance_takes_only_a_nonnegative_fraction_or_none():
    assert LineDistance(Fraction(0)).value == 0.0
    for bad in [0.25, 1, True, "1/4", Decimal(1)]:
        with pytest.raises(TypeError, match="width_sq must be a Fraction or None"):
            LineDistance(bad)
    for bad in [Fraction(-1), Fraction(-1, 10**30)]:
        with pytest.raises(ValueError, match="width_sq must be nonnegative"):
            LineDistance(bad)


@given(lines, lines)
def test_metric_axioms(l1, l2):
    d12 = line_distance(l1, l2)
    d21 = line_distance(l2, l1)
    assert d12.value == d21.value
    assert 0 <= d12.value < 1 if d12.parallel else d12.value == 1.0
    assert (d12.value == 0) == (l1 == l2)


@given(elems, lines, lines)
def test_metric_invariant_under_action(g, l1, l2):
    before = line_distance(l1, l2)
    after = line_distance(act_line(g, l1), act_line(g, l2))
    assert before.parallel == after.parallel
    assert before.width_sq == after.width_sq
    assert before.value == after.value


@pytest.mark.parametrize("far", [Fraction(10**400), Fraction(1, 10**400), Fraction(10**17)])
def test_distance_beyond_float_raises(far):
    # the float value could not stay strictly inside (0, 1)
    with pytest.raises(ValueError):
        line_distance(Line(Fraction(0), Fraction(0)), Line(Fraction(0), far))


def test_distance_strictly_below_one_for_parallel():
    # widths grow without bound but the distance stays under 1
    far = line_distance(Line(Fraction(0), Fraction(0)),
                        Line(Fraction(0), Fraction(10**6)))
    assert far.parallel and far.value < 1.0
