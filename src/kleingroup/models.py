"""Symbolic assembly of the pushout classifying-space model.

The pushout model glues, over the plane, one piece per commensurability
class: the lines q*t - p*r = const of the class's fixed direction (p, q),
read by the one coordinate unit * (q*t - p*r).  The unit comes from the
direction: -1 for (1, 0), so H reads r; 2 for (0, 1), so K reads the
index n of the vertical line t = n/2, whose isotropy group is <(n, 1)>;
(1 + q mod 2)/2 for a flat direction, so translations shift it by whole
units.  The coordinate and the action on it are exact, and are exposed
so their equivariance can be checked by sweep.  A piece is its class, a
CommClass: its family and commensurator are read off the class by
family_contains and commensurator, its label and space by piece_text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import GroupElement
from .plane import PlanePoint
from .subgroups import CommClass, CyclicSubgroup, comm_class


# The unit of a piece's coordinate, doubled to an int and keyed by the
# direction: -1 for (1, 0), 2 for (0, 1), else (1 + q mod 2)/2.
_TWICE_UNIT = {(1, 0): -2, (0, 1): 4}


def piece_coordinate(d: tuple[int, int], x: PlanePoint) -> Fraction:
    """The coordinate unit * (q*t - p*r) of the line of direction d = (p, q)
    through x: constant exactly on that line.

    >>> [piece_coordinate(d, PlanePoint(3, 5)) for d in [(1, 0), (0, 1), (-1, 2)]]
    [Fraction(5, 1), Fraction(6, 1), Fraction(11, 2)]
    """
    p, q = d
    tn, td = x.t.as_integer_ratio()
    rn, rd = x.r.as_integer_ratio()
    return Fraction(_TWICE_UNIT.get(d, 1 + q % 2) * (q * tn * rd - p * rn * td),
                    2 * td * rd)


def piece_action(d: tuple[int, int], g: GroupElement, c):
    """The action c -> +-c + unit * (q*g.n - p*g.m) of g on the coordinate of
    direction d = (p, q), with the sign flipped for a glide exactly when
    p = 0; an int c stays an int.  A glide mirrors a flat direction to
    (-p, q), so it does not act on a flat piece.

    >>> [piece_action(d, GroupElement(2, 1), 5) for d in [(1, 0), (0, 1)]]
    [6, -1]
    """
    p, q = d
    glide = g.m & 1
    if glide and p and q:
        raise ValueError("a glide mirrors a flat piece; only translations act on it")
    return (-c if glide and not p else c) + \
        _TWICE_UNIT.get(d, 1 + q % 2) * (q * g.n - p * g.m) // 2


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


# Per class tag: the piece's label (formatted with its class c), its
# space, and the identification that glues it to the plane.  These name
# axis_projection and line_quotient, the former piece_coordinate at H and
# R, as the golden pushout-report-bound-3 case freezes them; they are to
# be regenerated when the odd-vertical piece is rebuilt as a tree.
_PIECE_TEXT = {
    "H": ("horizontal", "real line with the shift action x -> g.m + x",
          "plane point x ~ axis_projection(x) in the horizontal piece"),
    "K": ("odd-vertical", "join of the integer family with the plane",
          "plane point x ~ x inside the plane factor of the odd-vertical piece"),
    "R": ("flat({c.rep.gen.n},{c.rep.gen.m})",
          "real line, the plane modulo the representative direction",
          "plane point x ~ [identity, line_quotient(rep, x)] in each flat piece"),
}


@dataclass(frozen=True)
class ModelDescriptor:
    """The pushout model over the plane: its pieces, one per class, and
    the identifications that glue them on, the same for every report."""

    pieces: tuple[CommClass, ...]
    kind = "pushout"
    base = "plane"
    identifications = tuple(glue for _, _, glue in _PIECE_TEXT.values())


# The largest orbit bound pushout_report accepts: 10,045 pieces.
PUSHOUT_CAP = 128


def piece_text(c: CommClass) -> tuple[str, str]:
    """The label and the space of the piece of class c.

    >>> piece_text(CommClass((1, 2)))
    ('flat(1,2)', 'real line, the plane modulo the representative direction')
    """
    label, space, _ = _PIECE_TEXT[c.tag]
    return label.format(c=c), space


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
