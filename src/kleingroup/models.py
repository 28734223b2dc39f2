"""Symbolic assembly of the pushout classifying-space model.

Every piece of the pushout has one shape: the real line of the lines
q*t - p*r = const of its class's fixed direction d = (p, q), checked by
subgroups, glued to the plane by x ~ piece_coordinate(d, x) =
unit * (q*t - p*r).  The unit comes from d: -1 for (1, 0), so H reads r;
2 for (0, 1), so K reads 2t, and its line is the Bass-Serre tree of
<(0,1)> *_<(0,2)> <(1,1)>, vertex n being the vertical line t = n/2 with
isotropy <(n, 1)>; (1 + q mod 2)/2 for a flat d, so translations shift
it by whole units.  piece_action acts exactly on rational c, and an int
c stays an int.  A piece is its class, a CommClass: family_contains,
commensurator and piece_text read its family, commensurator, label and
space off the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import GroupElement
from .plane import PlanePoint
from .subgroups import CommClass, CyclicSubgroup, _check_direction, comm_class


# The unit of a piece's coordinate, doubled to an int and keyed by the
# direction: -1 for (1, 0), 2 for (0, 1), else (1 + q mod 2)/2.
_TWICE_UNIT = {(1, 0): -2, (0, 1): 4}


def _twice_unit(d: tuple[int, int]) -> int:
    """Twice the unit of direction d, which subgroups._check_direction must
    accept; d is looked up in the table only once it is a pair of ints."""
    if type(d) is tuple and len(d) == 2 and type(d[0]) is int and type(d[1]) is int:
        twice_unit = _TWICE_UNIT.get(d)
        if twice_unit is not None:
            return twice_unit
    return 1 + _check_direction(d)[1] % 2


def piece_coordinate(d: tuple[int, int], x: PlanePoint) -> Fraction:
    """The coordinate unit * (q*t - p*r) of the line of direction d = (p, q)
    through x: constant exactly on that line.

    >>> [piece_coordinate(d, PlanePoint(3, 5)) for d in [(1, 0), (0, 1), (-1, 2)]]
    [Fraction(5, 1), Fraction(6, 1), Fraction(11, 2)]
    """
    twice_unit, (p, q) = _twice_unit(d), d
    tn, td = x.t.as_integer_ratio()
    rn, rd = x.r.as_integer_ratio()
    return Fraction(twice_unit * (q * tn * rd - p * rn * td), 2 * td * rd)


def piece_action(d: tuple[int, int], g: GroupElement, c):
    """The action c -> +-c + unit * (q*g.n - p*g.m) of g on the rational
    coordinate c of direction d = (p, q), with the sign flipped for a
    glide exactly when p = 0; c is an int or a Fraction, and an int c
    stays an int.  A glide mirrors a flat direction to (-p, q), so it
    does not act on a flat piece.

    >>> [piece_action(d, GroupElement(2, 1), 5) for d in [(1, 0), (0, 1)]]
    [6, -1]
    >>> piece_action((0, 1), GroupElement(1, 1), Fraction(1, 2))
    Fraction(3, 2)
    """
    twice_unit, (p, q) = _twice_unit(d), d
    if type(c) is not int and type(c) is not Fraction:
        raise TypeError(f"coordinate must be an int or a Fraction, got {c!r}")
    glide = g.m & 1
    if glide and p and q:
        raise ValueError("a glide mirrors a flat piece; only translations act on it")
    return (-c if glide and not p else c) + twice_unit * (q * g.n - p * g.m) // 2


def flat_representatives(bound: int) -> list[CyclicSubgroup]:
    """Orbit representatives of the flat classes, one per reduced pair:
    generators (n, 2m) with 1 <= n, m <= bound and gcd(n, m) = 1, in
    lexicographic order of (n, m)."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return [
        CyclicSubgroup(GroupElement(n, 2 * m))
        for n in range(1, bound + 1)
        for m in range(1, bound + 1)
        if gcd(n, m) == 1
    ]


# Per class tag, the piece's label, formatted with its class c.
_LABELS = {"H": "horizontal", "K": "odd-vertical", "R": "flat({c.rep.gen.n},{c.rep.gen.m})"}


@dataclass(frozen=True)
class ModelDescriptor:
    """The pushout model over the plane: its pieces, one per class, and
    the one rule that glues each piece on, the same for every report."""

    pieces: tuple[CommClass, ...]
    kind = "pushout"
    base = "plane"
    identifications = ("plane point x ~ piece_coordinate(d, x) in the piece of direction d",)


# The largest orbit bound pushout_report accepts: 10,045 pieces.
PUSHOUT_CAP = 128


def piece_text(c: CommClass) -> tuple[str, str]:
    """The label and the space of the piece of class c: the real line of
    the lines of its direction.

    >>> piece_text(CommClass((1, 2)))
    ('flat(1,2)', 'real line, the plane modulo the lines of direction (1, 2)')
    """
    space = f"real line, the plane modulo the lines of direction {c.direction}"
    return _LABELS[c.tag].format(c=c), space


def pushout_report(orbit_bound: int) -> ModelDescriptor:
    """The pushout model, truncated to the flat classes of bounded
    reduced generators.

    One piece per class, glued along its commensurator and family:
    the horizontal class, the odd/vertical class, then one flat class
    per :func:`flat_representatives`, about 0.6 * orbit_bound**2 of
    them, so orbit_bound is capped at PUSHOUT_CAP.
    """
    if orbit_bound < 0:
        raise ValueError("orbit_bound must be nonnegative")
    if orbit_bound > PUSHOUT_CAP:
        raise ValueError(f"orbit_bound capped at {PUSHOUT_CAP}")
    return ModelDescriptor(
        pieces=(CommClass((1, 0)), CommClass((0, 1)),
                *(comm_class(rep) for rep in flat_representatives(orbit_bound))),
    )


__all__ = [
    "ModelDescriptor",
    "piece_text",
    "piece_coordinate",
    "piece_action",
    "flat_representatives",
    "pushout_report",
    "PUSHOUT_CAP",
]
