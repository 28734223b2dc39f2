"""Infinite cyclic subgroups and their commensurability classes.

Every nontrivial proper subgroup of interest here is infinite cyclic,
written as the span of a canonical generator.  Two subgroups are
commensurable when they intersect in an infinite subgroup; the quotient
set has three kinds of classes, tagged H (horizontal), K (odd or purely
vertical) and R (the remaining even directions, one class per reduced
direction up to a sign flip).
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


def _odd_or_vertical(g: GroupElement) -> bool:
    return g.m % 2 == 1 or g.n == 0


def commensurable(s: CyclicSubgroup, t: CyclicSubgroup) -> bool:
    """Whether s and t share a common nontrivial power.

    Decided by parity case analysis.  A generator with odd second
    coordinate squares into the vertical line {(0, 2k)}, so the odd
    subgroups and the purely vertical even ones all mesh with each
    other; two even generators mesh exactly when they are parallel.
    """
    g, h = s.gen, t.gen
    if g.m % 2 or h.m % 2:
        return _odd_or_vertical(g) and _odd_or_vertical(h)
    return g.n * h.m == h.n * g.m


@dataclass(frozen=True)
class CommClass:
    """A commensurability class: tag 'H', 'K', or 'R' with a reduced
    representative subgroup for tag R.

    The R representative is normalized across the conjugation orbit
    (which flips the sign of the first coordinate), so classes of
    conjugate subgroups compare equal; see :func:`maximal_containing`
    for the un-flipped maximal subgroup.
    """

    tag: str
    rep: CyclicSubgroup | None = None

    def __post_init__(self) -> None:
        if self.tag not in ("H", "K", "R"):
            raise ValueError("tag must be one of H, K, R")
        if (self.rep is not None) != (self.tag == "R"):
            raise ValueError("exactly the R tag carries a representative")


def maximal_containing(s: CyclicSubgroup) -> CyclicSubgroup:
    """The maximal infinite cyclic subgroup containing s.

    For an odd generator (n, m) this is <(n, 1)>; for an even generator
    divide out gcd(|n|, m/2), which gives <(1, 0)> for a horizontal
    generator and <(0, 2)> for a vertical one.  A purely vertical
    subgroup <(0, 2k)> lies in every <(r, 1)>, so no unique maximal
    subgroup exists there; <(0, 2)> is its vertical envelope.
    """
    n, m = s.gen.n, s.gen.m
    if m % 2:
        return subgroup(n, 1)
    d = gcd(abs(n), m // 2)
    return subgroup(n // d, m // d)


def comm_class(s: CyclicSubgroup) -> CommClass:
    """The commensurability class of s.

    >>> comm_class(subgroup(5, 0)).tag
    'H'
    >>> comm_class(subgroup(7, 3)).tag
    'K'
    >>> comm_class(subgroup(2, 4)).rep.gen
    GroupElement(n=1, m=2)
    """
    if s.gen.m == 0:
        return CommClass("H")
    if _odd_or_vertical(s.gen):
        return CommClass("K")
    g = maximal_containing(s).gen
    return CommClass("R", CyclicSubgroup(GroupElement(abs(g.n), g.m)))


@dataclass(frozen=True)
class Commensurator:
    """Descriptor of a commensurator subgroup of the whole group."""

    kind: str  # "whole-group" or "translation-subgroup"

    def __post_init__(self) -> None:
        if self.kind not in ("whole-group", "translation-subgroup"):
            raise ValueError("unknown commensurator kind")

    def contains(self, g: GroupElement) -> bool:
        if self.kind == "whole-group":
            return True
        # {(t1, 2*t2)}: exactly the elements acting on the plane by
        # honest translations
        return g.m % 2 == 0


WHOLE_GROUP = Commensurator("whole-group")
TRANSLATIONS = Commensurator("translation-subgroup")


def commensurator(c: CommClass) -> Commensurator:
    """The commensurator of (any member of) the class c.

    The H and K classes are normalized by everything; an R class is
    preserved exactly by the index-two translation subgroup, since
    conjugating by an odd element flips the class direction.
    """
    return TRANSLATIONS if c.tag == "R" else WHOLE_GROUP


@dataclass(frozen=True)
class SubgroupFamily:
    """A family of subgroups closed under conjugation and subgroups.

    Kinds:

    - "commensurable-into": the infinite cyclic subgroups commensurable
      with ``anchor``, plus the trivial subgroup (anchor is maximal for
      the families built here, so membership is plain containment);
    - "odd-class": the subgroups commensurable with <(0, 2)> - that is,
      every <(n, 2m+1)> together with the vertical <(0, 2k)> forced in
      by closure under subgroups - plus the trivial subgroup.
    """

    kind: str
    anchor: CyclicSubgroup | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("commensurable-into", "odd-class"):
            raise ValueError("unknown family kind")
        if (self.anchor is not None) != (self.kind == "commensurable-into"):
            raise ValueError("exactly the commensurable-into kind takes an anchor")


_ODD_CLASS_ANCHOR = CyclicSubgroup(GroupElement(0, 2))


def family_contains(f: SubgroupFamily, s: CyclicSubgroup) -> bool:
    """Membership of the (nontrivial) cyclic subgroup s in the family f."""
    if f.kind == "odd-class":
        return commensurable(s, _ODD_CLASS_ANCHOR)
    return commensurable(s, f.anchor)


def class_family(c: CommClass) -> SubgroupFamily:
    """The family attached to the class c when assembling the pushout model.

    H classes get the subgroups of <(1, 0)>; an R class gets the
    subgroups of its maximal representative; the K class gets the odd
    generators together with the vertical even ones.
    """
    if c.tag == "H":
        return SubgroupFamily("commensurable-into", subgroup(1, 0))
    if c.tag == "K":
        return SubgroupFamily("odd-class")
    return SubgroupFamily("commensurable-into", c.rep)


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
    "Commensurator",
    "SubgroupFamily",
    "WHOLE_GROUP",
    "TRANSLATIONS",
    "canonicalize",
    "subgroup",
    "contains",
    "commensurable",
    "comm_class",
    "maximal_containing",
    "commensurator",
    "class_family",
    "family_contains",
    "conj_subgroup",
    "powers",
]
