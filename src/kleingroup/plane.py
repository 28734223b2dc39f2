"""The action on the plane and on the space of affine lines.

Points carry exact rational coordinates.  A group element (n, m) acts by
(t, r) -> (n + (-1)**m * t, m + r): a horizontal translation or glide
composed with a vertical shift.  A line is the primitive integer triple
(a, b, c) of a*t + b*r = c, so vertical lines (b == 0) are no special
case: the action, the stabilizer criterion and the strip width between
parallel lines are each one formula on the triple.

The public constructors ``PlanePoint(t, r)`` and ``Line(slope, intercept)``
validate their inputs.  A point is built only by its constructor, which
``act_point`` calls too (25,123 calls in a traced ``verify --suite all``),
on coordinates it builds as one ``Fraction(numerator, denominator)``
each.  ``Line.__init__`` divides its triple, whose signs are already
normal, by the gcd.  ``act_line`` (453,096 calls) sets the slots of a
bare instance without that division: the image of a primitive triple
under the unimodular map (a, b, c) -> (s*a, b, c + s*a*n + b*m) is
primitive, so only a vertical line a glide flips needs its signs back.
``Line`` compares its triples field by field in its own ``__eq__``, as
``GroupElement`` does, and hashes the triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .core import GroupElement

VERTICAL = math.inf


def _as_fraction(x) -> Fraction:
    if type(x) is Fraction:
        return x
    # bool is an int subclass but not a coordinate
    if type(x) is not bool and isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {x!r}")


@dataclass(frozen=True, slots=True, init=False)
class PlanePoint:
    t: Fraction
    r: Fraction

    def __init__(self, t, r) -> None:
        _set_t(self, _as_fraction(t))
        _set_r(self, _as_fraction(r))


@dataclass(frozen=True, slots=True, init=False)
class Line:
    """The line a*t + b*r = c, as a primitive integer triple.

    The triple is normalized once, by gcd(a, b, c) = 1 and by sign (b > 0,
    or b == 0 and a > 0), so equal lines compare equal.  Build it as
    Line(slope, intercept) for r = slope*t + intercept, with the slope
    VERTICAL (math.inf) for the line t = intercept; slope, intercept and
    vertical are views of the triple.
    """

    a: int
    b: int
    c: int

    def __init__(self, slope, intercept) -> None:
        q = _as_fraction(intercept)
        if slope == VERTICAL:
            a, b, c = q.denominator, 0, q.numerator
        else:
            p = _as_fraction(slope)
            # r = p*t + q, cleared of both denominators
            a, b, c = (-p.numerator * q.denominator, p.denominator * q.denominator,
                       q.numerator * p.denominator)
        g = math.gcd(a, b, c)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_c(self, c // g)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c

    @property
    def vertical(self) -> bool:
        return self.b == 0

    @property
    def slope(self) -> Fraction | float:
        return VERTICAL if self.b == 0 else Fraction(-self.a, self.b)

    @property
    def intercept(self) -> Fraction:
        """Where the line meets the r-axis, or the t-axis if vertical."""
        return Fraction(self.c, self.b or self.a)

    def contains(self, p: PlanePoint) -> bool:
        return self.a * p.t + self.b * p.r == self.c


_new = object.__new__
_set_t = PlanePoint.t.__set__
_set_r = PlanePoint.r.__set__
_set_a = Line.a.__set__
_set_b = Line.b.__set__
_set_c = Line.c.__set__


def act_point(g: GroupElement, p: PlanePoint) -> PlanePoint:
    """g.(t, r) = (g.n + (-1)**g.m * t, g.m + r)."""
    tn, td = p.t.as_integer_ratio()
    rn, rd = p.r.as_integer_ratio()
    return PlanePoint(Fraction(g.n * td - tn if g.m & 1 else g.n * td + tn, td),
                      Fraction(g.m * rd + rn, rd))


def act_line(g: GroupElement, line: Line) -> Line:
    """The image of a line: a*t + b*r = c goes to
    s*a*t + b*r = c + s*a*g.n + b*g.m, where s = (-1)**g.m.

    The map of triples is unimodular, so the image of a primitive triple
    is primitive; b keeps its sign, and only a vertical line flipped by a
    glide (b == 0, s*a < 0) needs all three signs turned back.
    """
    a, b = line.a, line.b
    if g.m & 1:
        a = -a
    c = line.c + a * g.n + b * g.m
    if b == 0 and a < 0:
        a, c = -a, -c
    image = _new(Line)
    _set_a(image, a)
    _set_b(image, b)
    _set_c(image, c)
    return image


@dataclass(frozen=True)
class LineDistance:
    """Outcome of the line metric: the exact squared strip width of two
    parallel lines, a nonnegative Fraction, and None for others.
    ``parallel`` and ``value`` are views: the bounded distance
    width/(1+width), and 1 for non-parallel lines."""

    width_sq: Fraction | None

    def __post_init__(self) -> None:
        w = self.width_sq
        if w is not None:
            if type(w) is not Fraction:
                raise TypeError(f"width_sq must be a Fraction or None, got {w!r}")
            if w < 0:
                raise ValueError(f"width_sq must be nonnegative, got {w}")

    @property
    def parallel(self) -> bool:
        return self.width_sq is not None

    @property
    def value(self) -> float:
        if self.width_sq is None:
            return 1.0
        width = math.sqrt(min(self.width_sq, 2**1000))  # any wider strip reads 1.0
        return width / (1 + width)


def line_distance(l1: Line, l2: Line) -> LineDistance:
    """Distance in the space of lines.

    Raises ValueError when the float distance of two distinct parallel
    lines would not lie strictly between 0 and 1.

    >>> line_distance(Line(0, 0), Line(0, 3)).value
    0.75
    """
    if l1.a * l2.b != l2.a * l1.b:
        return LineDistance(None)
    # both normals are positive multiples of the primitive (a, b) / d
    d1, d2 = math.gcd(l1.a, l1.b), math.gcd(l2.a, l2.b)
    d = LineDistance(Fraction((l1.c * d2 - l2.c * d1) ** 2,
                              d2 * d2 * (l1.a * l1.a + l1.b * l1.b)))
    if d.width_sq and not 0 < d.value < 1:
        raise ValueError("the distance of distinct parallel lines is not a float "
                         "strictly between 0 and 1 at this strip width")
    return d


def stabilizes(g: GroupElement, line: Line) -> bool:
    """Whether g maps the line to itself, by the closed criterion.

    A glide (odd g.m) reverses the t-direction, so it can only keep a
    vertical line, and keeps it when a*g.n == 2*c.  A translation (even
    g.m) keeps the line when a*g.n + b*g.m == 0.  Always agrees with
    act_line(g, line) == line.
    """
    a, b, c = line.a, line.b, line.c
    if g.m & 1:
        return b == 0 and a * g.n == 2 * c
    return a * g.n + b * g.m == 0


__all__ = [
    "PlanePoint",
    "Line",
    "LineDistance",
    "VERTICAL",
    "act_point",
    "act_line",
    "line_distance",
    "stabilizes",
]
