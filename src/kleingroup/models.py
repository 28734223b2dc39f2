"""Symbolic assembly of the pushout classifying-space model.

The pushout model glues, over the plane, one piece per commensurability
class: a line for the horizontal class, a join with an integer family
for the odd/vertical class, and one quotient line per flat class.  The
piece actions and the maps that do the gluing are exact and are exposed
here so their equivariance can be checked by sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import GroupElement
from .plane import PlanePoint
from .subgroups import (
    Commensurator,
    CommClass,
    CyclicSubgroup,
    SubgroupFamily,
    class_family,
    comm_class,
    commensurator,
)


def index_action(g: GroupElement, n: int) -> int:
    """The permutation action on the integer family indexing the odd
    maximal subgroups <(n, 1)>: g moves index n to (-1)**g.m * n + 2*g.n.
    Index n is the vertical line t = n/2, so its stabilizer is that
    line's isotropy group <(n, 1)>."""
    return (-n if g.m & 1 else n) + 2 * g.n


def axis_projection(p: PlanePoint) -> Fraction:
    """Project the plane onto the vertical axis; intertwines the plane
    action with the shift action on the line."""
    return p.r


def shift_action(g: GroupElement, x: Fraction) -> Fraction:
    """The action on the horizontal piece's line: shift by g.m."""
    return g.m + x


def _check_flat_rep(rep: CyclicSubgroup) -> tuple[int, int]:
    a, b = rep.gen.n, rep.gen.m
    if b == 0 or b % 2 or a == 0 or gcd(abs(a), b // 2) != 1:
        raise ValueError(
            "flat representative must have reduced form (n, 2m) with n, m nonzero"
        )
    return a, b


def line_quotient(rep: CyclicSubgroup, p: PlanePoint) -> Fraction:
    """Quotient of the plane by the line through rep's generator.

    The value (b*t - a*r)/2 vanishes exactly on that line, and the scale
    1/2 makes the translation subgroup hit every integer: a generator of
    the quotient of the translations by rep shifts the value by 1.
    """
    a, b = _check_flat_rep(rep)
    tn, td = p.t.as_integer_ratio()
    rn, rd = p.r.as_integer_ratio()
    return Fraction(b * tn * rd - a * rn * td, 2 * td * rd)


def quotient_shift(rep: CyclicSubgroup, g: GroupElement) -> int:
    """The integer by which a translation g shifts the quotient line.

    This is the quotient homomorphism of the translation subgroup by
    rep; it rejects glides (odd g.m), which act with a reflection.
    """
    a, b = _check_flat_rep(rep)
    if g.m % 2:
        raise ValueError("quotient shift defined on the translation subgroup only")
    val = b * g.n - a * g.m
    assert val % 2 == 0
    return val // 2


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


@dataclass(frozen=True)
class ModelPiece:
    label: str
    space: str
    cls: CommClass
    commensurator: Commensurator
    family: SubgroupFamily


@dataclass(frozen=True)
class ModelDescriptor:
    """The pushout model over the plane: its pieces and the
    identifications that glue them on."""

    pieces: tuple[ModelPiece, ...]
    identifications: tuple[str, ...]
    kind = "pushout"
    base = "plane"


# The largest orbit bound pushout_report accepts: 10,045 pieces.
PUSHOUT_CAP = 128

# Per class tag: the piece's label (formatted with its class c), its
# space, and the identification that glues it to the plane.
_PIECE_TEXT = {
    "H": ("horizontal", "real line with the shift action x -> g.m + x",
          "plane point x ~ axis_projection(x) in the horizontal piece"),
    "K": ("odd-vertical", "join of the integer family with the plane",
          "plane point x ~ x inside the plane factor of the odd-vertical piece"),
    "R": ("flat({c.rep.gen.n},{c.rep.gen.m})",
          "real line, the plane modulo the representative direction",
          "plane point x ~ [identity, line_quotient(rep, x)] in each flat piece"),
}


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
    classes = [CommClass((1, 0)), CommClass((0, 1))]
    classes += [comm_class(rep) for rep in flat_representatives(orbit_bound)]
    pieces = []
    for c in classes:
        label, space, _ = _PIECE_TEXT[c.tag]
        pieces.append(ModelPiece(label.format(c=c), space, c,
                                 commensurator(c), class_family(c)))
    return ModelDescriptor(
        pieces=tuple(pieces),
        identifications=tuple(glue for _, _, glue in _PIECE_TEXT.values()),
    )


__all__ = [
    "ModelPiece",
    "ModelDescriptor",
    "index_action",
    "axis_projection",
    "shift_action",
    "line_quotient",
    "quotient_shift",
    "flat_representatives",
    "pushout_report",
    "PUSHOUT_CAP",
]
