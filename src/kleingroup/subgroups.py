"""Infinite cyclic subgroups and their commensurability classes.

Every nontrivial proper subgroup of interest here is infinite cyclic,
written as the span of a canonical generator.  Two subgroups are
commensurable (intersect in an infinite subgroup) exactly when they fix
lines of one primitive direction (p, q), with (0, 1) for every glide;
classes, fixed sets and model pieces check a direction by the one rule
here, _check_direction.  A glide conjugates p to -p, so a class is
keyed by the direction (|p|, q): tag H is (1, 0), K is (0, 1), and R is
every other (flat) direction.  The class is the one value for it: the
family the pushout model glues it along (:func:`family_contains`) and
its commensurator (:func:`commensurator`) are functions of the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import GroupElement, conj, inv, power


@dataclass(frozen=True, slots=True, init=False)
class CyclicSubgroup:
    """The infinite cyclic subgroup generated by ``gen``.

    The generator is kept canonical: gen.m > 0, or gen.m == 0 and
    gen.n > 0.  Exactly one of g, g^-1 satisfies this for g != (0, 0),
    so equal subgroups compare equal.  This constructor is the only way a
    subgroup is built; use :func:`canonicalize` to build one from an
    arbitrary nontrivial element.
    """

    gen: GroupElement

    def __init__(self, gen: GroupElement) -> None:
        if type(gen) is not GroupElement:
            raise TypeError(f"generator must be a GroupElement, got {gen!r}")
        if gen.is_identity():
            raise ValueError("generator must be nonzero")
        if gen.m < 0 or (gen.m == 0 and gen.n < 0):
            raise ValueError("generator not in canonical form; use canonicalize")
        _set_gen(self, gen)


_set_gen = CyclicSubgroup.gen.__set__


def canonicalize(g: GroupElement) -> CyclicSubgroup:
    """The subgroup <g>, with the canonical choice among g and g^-1.

    >>> from .core import GroupElement
    >>> canonicalize(GroupElement(3, -4)).gen
    GroupElement(n=-3, m=4)
    """
    return CyclicSubgroup(inv(g) if g.m < 0 or (g.m == 0 and g.n < 0) else g)


def subgroup(n: int, m: int) -> CyclicSubgroup:
    """Shorthand: the subgroup generated by (n, m)."""
    return canonicalize(GroupElement(n, m))


def contains(s: CyclicSubgroup, g: GroupElement) -> bool:
    """Whether g is a power of s.gen, decided by closed form (no search).

    >>> from .core import GroupElement
    >>> contains(subgroup(3, 1), GroupElement(0, 2))
    True
    """
    n, m = s.gen.n, s.gen.m
    if m % 2 == 0:
        # powers are k*(n, m); canonical form makes m > 0 or (m == 0, n > 0)
        if m == 0:
            return g.m == 0 and g.n % n == 0
        if g.m % m:
            return False
        return g.n == (g.m // m) * n
    # odd m: even powers are (0, k*m), odd powers are (n, k*m)
    if g.m % m:
        return False
    k = g.m // m
    return g.n == (0 if k % 2 == 0 else n)


def fixed_direction(s: CyclicSubgroup) -> tuple[int, int]:
    """The primitive integer direction (p, q) of the lines s fixes: the
    generator divided by its gcd when it is even, so q > 0 or (p, q) is
    (1, 0), and (0, 1) for a glide, which fixes one vertical line.

    >>> fixed_direction(subgroup(-6, 4)), fixed_direction(subgroup(0, 8))
    ((-3, 2), (0, 1))
    >>> fixed_direction(subgroup(5, 3)), fixed_direction(subgroup(-7, 0))
    ((0, 1), (1, 0))
    """
    n, m = s.gen.n, s.gen.m
    if m % 2:
        return (0, 1)
    d = gcd(n, m)
    return (n // d, m // d)


def _check_direction(d):
    """d itself when fixed_direction can return it: a tuple of two ints,
    primitive, with q > 0 or equal to (1, 0); else a named error."""
    if type(d) is tuple and len(d) == 2 and type(d[0]) is int and type(d[1]) is int:
        if gcd(*d) == 1 and (d[1] > 0 or d == (1, 0)):
            return d
    elif type(d) is not tuple or not all(type(x) is int for x in d):
        raise TypeError(f"direction must be a tuple of ints, got {d!r}")
    raise ValueError(f"direction must be (1, 0) or primitive with q > 0, got {d!r}")


def maximal_translations(p: int, q: int) -> CyclicSubgroup:
    """The maximal translations along the primitive (p, q), of either
    sign: <(p, q)> for even q, else <(2p, 2q)>, as (p, q) is a glide."""
    if gcd(p, q) != 1:
        raise ValueError(f"direction must be primitive, got {(p, q)!r}")
    k = 1 + q % 2
    return subgroup(k * p, k * q)


def commensurable(s: CyclicSubgroup, t: CyclicSubgroup) -> bool:
    """Whether s and t share a common nontrivial power: whether they fix
    lines of one direction.  A glide squares into the vertical <(0, 2)>,
    and two translations mesh exactly when they are parallel."""
    return fixed_direction(s) == fixed_direction(t)


_TAGS = {(1, 0): "H", (0, 1): "K"}


@dataclass(frozen=True, slots=True)
class CommClass:
    """A commensurability class, keyed by its fixed direction (|p|, q), as
    a glide conjugates p to -p.  Views: ``tag`` is H for (1, 0), K for
    (0, 1), else R, when ``rep`` is the maximal translations along it."""

    direction: tuple[int, int]

    def __post_init__(self) -> None:
        if _check_direction(self.direction)[0] < 0:
            raise ValueError(f"class direction must have p >= 0, got {self.direction!r}")

    @property
    def tag(self) -> str:
        return _TAGS.get(self.direction, "R")

    @property
    def rep(self) -> CyclicSubgroup | None:
        return None if self.direction in _TAGS else maximal_translations(*self.direction)


def maximal_containing(s: CyclicSubgroup) -> CyclicSubgroup | None:
    """The maximal infinite cyclic subgroup containing s: <(n, 1)> for a
    glide (n, m), else the maximal translations along its fixed direction.
    None for a purely vertical <(0, 2k)>, which has no unique one: its
    maximal overgroups are the vertex stabilizers <(r, 1)> of the K
    piece, one per integer r, on which g acts by
    ``models.piece_action((0, 1), g, r)``.
    """
    if s.gen.m % 2:
        return subgroup(s.gen.n, 1)
    if s.gen.n == 0:
        return None
    return maximal_translations(*fixed_direction(s))


def comm_class(s: CyclicSubgroup) -> CommClass:
    """The commensurability class of s.

    >>> comm_class(subgroup(5, 0)).tag
    'H'
    >>> comm_class(subgroup(7, 3)).tag
    'K'
    >>> comm_class(subgroup(-2, 4))
    CommClass(direction=(1, 2))
    """
    p, q = fixed_direction(s)
    return CommClass((abs(p), q))


def commensurator(c: CommClass) -> str:
    """The commensurator of (any member of) the class c: "whole-group" for
    the H and K classes, and for an R class "translation-subgroup", the
    index-two translations, since a glide flips the class direction.

    >>> commensurator(comm_class(subgroup(1, 2)))
    'translation-subgroup'
    """
    return "whole-group" if 0 in c.direction else "translation-subgroup"


def family_contains(c: CommClass, s: CyclicSubgroup) -> bool:
    """Membership of the (nontrivial) cyclic subgroup s in the family the
    class c is glued along in the pushout model: the subgroups fixing
    lines of c's direction, which for a flat class are the subgroups of
    its representative.  The family is keyed by the representative's
    direction (|p|, q), so a flat subgroup with p < 0 is not in the family
    of its own class.

    >>> family_contains(comm_class(subgroup(1, 2)), subgroup(3, 6))
    True
    >>> family_contains(comm_class(subgroup(-1, 2)), subgroup(-1, 2))
    False
    """
    return fixed_direction(s) == c.direction


def conj_subgroup(t: GroupElement, s: CyclicSubgroup) -> CyclicSubgroup:
    """The conjugate subgroup t<g>t^-1 = <tgt^-1>, canonicalized.

    >>> from .core import GroupElement
    >>> conj_subgroup(GroupElement(0, 1), subgroup(1, 2)).gen
    GroupElement(n=-1, m=2)
    """
    return canonicalize(conj(t, s.gen))


def powers(s: CyclicSubgroup, k_bound: int):
    """All powers s.gen**k for 0 < |k| <= k_bound (search oracle helper)."""
    out = []
    for k in range(1, k_bound + 1):
        out.append(power(s.gen, k))
        out.append(power(s.gen, -k))
    return out


__all__ = [
    "CyclicSubgroup",
    "CommClass",
    "canonicalize",
    "subgroup",
    "contains",
    "fixed_direction",
    "maximal_translations",
    "commensurable",
    "comm_class",
    "maximal_containing",
    "commensurator",
    "family_contains",
    "conj_subgroup",
    "powers",
]
