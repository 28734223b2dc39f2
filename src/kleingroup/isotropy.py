"""Isotropy groups of lines and fixed lines of subgroups.

Every line a*t + b*r = c has nontrivial infinite cyclic isotropy,
generated by its primitive direction (b, -a)/gcd(a, b), doubled when
that is a glide, unless the line is vertical and a glide flips it onto
itself.  Dually, the fixed set of a cyclic subgroup inside the space of
lines is a point, a family of parallel lines, or the family of vertical
lines - never empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import GroupElement
from .plane import VERTICAL, Line
from .subgroups import CyclicSubgroup, maximal_translations, subgroup


def isotropy_group(line: Line) -> CyclicSubgroup:
    """The stabilizer of a line, always nontrivial infinite cyclic.

    A glide reverses t, so only translations keep a*t + b*r = c: the
    maximal translations along its primitive direction (b, -a)/gcd(a, b).
    The exception is a vertical line t = c/a with 2c/a an integer, which
    the glide (2c/a, 1) flips onto itself.

    >>> isotropy_group(Line(Fraction(2, 3), Fraction(4))).gen
    GroupElement(n=3, m=2)
    >>> isotropy_group(Line(Fraction(1, 2), Fraction(0))).gen
    GroupElement(n=4, m=2)
    """
    a, b, c = line.a, line.b, line.c
    if b == 0 and 2 * c % a == 0:
        return subgroup(2 * c // a, 1)
    d = gcd(a, b)
    return maximal_translations(b // d, -a // d)


@dataclass(frozen=True)
class FixedSetDescriptor:
    """The fixed lines of a subgroup, as a symbolic set.

    kind is one of "slope-family" (all lines of one finite slope),
    "vertical-family" (all vertical lines), "single-point" (one line of
    the line space), or "empty".
    """

    kind: str
    slope: Fraction | None = None
    line: Line | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("slope-family", "vertical-family", "single-point", "empty"):
            raise ValueError("unknown fixed-set kind")
        if (self.slope is not None) != (self.kind == "slope-family"):
            raise ValueError("slope goes exactly with slope-family")
        if (self.line is not None) != (self.kind == "single-point"):
            raise ValueError("line goes exactly with single-point")

    def contains_line(self, line: Line) -> bool:
        if self.kind == "slope-family":
            # line.slope == self.slope without building a Fraction: the
            # slope of a*t + b*r = c is -a/b, and b == 0 (vertical) never
            # matches, since a != 0 and a denominator is positive
            num, den = self.slope.as_integer_ratio()
            return line.b * num == -line.a * den
        if self.kind == "vertical-family":
            return line.vertical
        if self.kind == "single-point":
            return line == self.line
        return False


def fixed_set(s: CyclicSubgroup) -> FixedSetDescriptor:
    """The fixed lines of s (equivalently, of its generator).

    >>> fixed_set(subgroup(1, 2)).slope
    Fraction(2, 1)
    >>> fixed_set(subgroup(3, 1)).line
    Line(a=2, b=0, c=3)
    """
    n, m = s.gen.n, s.gen.m
    if m % 2:
        # a glide flip fixes exactly one vertical line, through n/2
        return FixedSetDescriptor("single-point", line=Line(VERTICAL, Fraction(n, 2)))
    if n == 0:
        return FixedSetDescriptor("vertical-family")
    return FixedSetDescriptor("slope-family", slope=Fraction(m, n))


def fraction_grid(bound: int) -> list[Fraction]:
    """The rationals p/q with |p| <= bound and 1 <= q <= bound, sorted."""
    vals = {Fraction(p, q) for q in range(1, bound + 1) for p in range(-bound, bound + 1)}
    return sorted(vals)


def line_grid(bound: int) -> list[Line]:
    """All lines with slope and intercept of height <= bound, plus the
    vertical lines with those intercepts."""
    fracs = fraction_grid(bound)
    lines = [Line(a, b) for a in fracs for b in fracs]
    lines += [Line(VERTICAL, b) for b in fracs]
    return lines


def canonical_subgroups(bound: int) -> list[CyclicSubgroup]:
    """All canonical cyclic subgroups with |gen.n|, |gen.m| <= bound."""
    out = []
    for m in range(0, bound + 1):
        for n in range(-bound, bound + 1):
            if m == 0 and n <= 0:
                continue
            out.append(CyclicSubgroup(GroupElement(n, m)))
    return out


__all__ = [
    "FixedSetDescriptor",
    "isotropy_group",
    "fixed_set",
    "fraction_grid",
    "line_grid",
    "canonical_subgroups",
]
