"""Isotropy groups of lines and fixed lines of subgroups.

Every line a*t + b*r = c has nontrivial infinite cyclic isotropy,
generated by its primitive direction (b, -a)/gcd(a, b), doubled when
that is a glide, unless the line is vertical and a glide flips it onto
itself.  Dually, a cyclic subgroup fixes the family of lines of its
fixed direction (p, q), which subgroups computes and checks, those with
a*p + b*q == 0, unless it is a glide, which fixes one vertical line
alone - never the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import GroupElement
from .plane import VERTICAL, Line
from .subgroups import (CyclicSubgroup, _check_direction, fixed_direction,
                        maximal_translations, subgroup)


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
    """The fixed lines of a subgroup: the lines of the primitive
    ``direction`` (p, q), q > 0 or (1, 0), with a*p + b*q == 0, or, for a
    glide, the one vertical ``line`` it flips onto itself.

    ``kind`` and ``slope`` are views: "single-point" for a glide,
    "vertical-family" for (0, 1) without a line, else "slope-family" of
    slope q/p.
    """

    direction: tuple[int, int]
    line: Line | None = None

    def __post_init__(self) -> None:
        d = _check_direction(self.direction)
        if self.line is not None and not isinstance(self.line, Line):
            raise TypeError(f"line must be a Line or None, got {self.line!r}")
        if self.line is not None and (d != (0, 1) or not self.line.vertical):
            raise ValueError("a fixed set has a line only for (0, 1), and only a vertical one")

    @property
    def kind(self) -> str:
        if self.line is not None:
            return "single-point"
        return "vertical-family" if self.direction == (0, 1) else "slope-family"

    @property
    def slope(self) -> Fraction | None:
        p, q = self.direction
        return None if p == 0 else Fraction(q, p)

    def contains_line(self, line: Line) -> bool:
        if self.line is not None:
            return line == self.line
        p, q = self.direction
        return line.a * p + line.b * q == 0


def fixed_set(s: CyclicSubgroup) -> FixedSetDescriptor:
    """The fixed lines of s (equivalently, of its generator).

    >>> fixed_set(subgroup(-2, 4))
    FixedSetDescriptor(direction=(-1, 2), line=None)
    >>> fixed_set(subgroup(3, 1)).line
    Line(a=2, b=0, c=3)
    """
    # a glide flip fixes exactly one vertical line, through n/2
    line = Line(VERTICAL, Fraction(s.gen.n, 2)) if s.gen.m % 2 else None
    return FixedSetDescriptor(fixed_direction(s), line)


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
