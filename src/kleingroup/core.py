"""Arithmetic in the Klein bottle group.

Elements are pairs of integers (n, m) with the twisted product

    (n1, m1) * (n2, m2) = (n1 + (-1)**m1 * n2, m1 + m2),

so the second coordinate acts on the first by sign.  All arithmetic is
exact; coordinates may be arbitrarily large Python ints.

The public constructors ``GroupElement(n, m)`` and ``AffineMap(...)``
validate their fields.  The operations build their results unchecked, by
setting the slots of a bare instance in their own body, since fields
computed from checked ones need no check and a helper would cost a
Python frame per result: ``mul``, ``inv``, ``conj`` and ``power``
(1,231,183 results in a traced ``verify --suite all``, 943,397 of them
from ``mul``), and ``as_affine`` and ``AffineMap.compose`` (196,603
results).  ``power`` checks its exponent first.

``GroupElement`` and ``AffineMap`` compare field by field in their own
``__eq__``, which the sweeps call hundreds of thousands of times; the
generated method would build two tuples per comparison.  Any other
class compares unequal, and the hash is still that of the field tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class GroupElement:
    """A group element (n, m)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        # exact type: bool is an int subclass but not a coordinate
        if type(self.n) is not int or type(self.m) is not int:
            raise TypeError("coordinates must be integers")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.m == other.m

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return mul(self, other)

    def __pow__(self, k: int) -> "GroupElement":
        return power(self, k)

    def inverse(self) -> "GroupElement":
        return inv(self)

    def is_identity(self) -> bool:
        return self.n == 0 and self.m == 0


IDENTITY = GroupElement(0, 0)

_new = object.__new__
_set_n = GroupElement.n.__set__
_set_m = GroupElement.m.__set__


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Product g*h.

    >>> mul(GroupElement(1, 1), GroupElement(1, 1))
    GroupElement(n=0, m=2)
    """
    # the parity of m picks the sign (-1)**m; m & 1 is 1 for odd negative m too
    e = _new(GroupElement)
    _set_n(e, g.n - h.n if g.m & 1 else g.n + h.n)
    _set_m(e, g.m + h.m)
    return e


def inv(g: GroupElement) -> GroupElement:
    """Inverse: (n, m)^-1 = ((-1)**(1-m) * n, -m)."""
    e = _new(GroupElement)
    _set_n(e, g.n if g.m & 1 else -g.n)
    _set_m(e, -g.m)
    return e


def power(g: GroupElement, k: int) -> GroupElement:
    """k-th power by closed form, any integer k.

    Even second coordinate gives the straight line (k*n, k*m); odd second
    coordinate alternates, killing the first coordinate at even k:

    >>> power(GroupElement(3, 1), 2)
    GroupElement(n=0, m=2)
    >>> power(GroupElement(3, 1), -3)
    GroupElement(n=3, m=-3)
    """
    if type(k) is not int:
        raise TypeError("exponent must be an integer")
    if g.m % 2 == 0:
        n = k * g.n
    elif k % 2 == 0:
        n = 0
    else:
        n = g.n
    e = _new(GroupElement)
    _set_n(e, n)
    _set_m(e, k * g.m)
    return e


def conj(t: GroupElement, g: GroupElement) -> GroupElement:
    """Conjugate t*g*t^-1 by closed form.

    The second coordinate of g survives; the first is reflected by t.m and
    translated by 2*t.n exactly when g.m is odd:

        t g t^-1 = ((-1)**t.m * g.n + t.n - (-1)**g.m * t.n, g.m)
    """
    n = -g.n if t.m & 1 else g.n
    e = _new(GroupElement)
    _set_n(e, n + 2 * t.n if g.m & 1 else n)
    _set_m(e, g.m)
    return e


@dataclass(frozen=True, slots=True)
class AffineMap:
    """An affine map of the plane (t, r) -> (shift_x + sign*t, shift_y + r).

    sign is +1 or -1; the shifts are exact rationals (plain ints allowed).
    """

    sign: int
    shift_x: Fraction
    shift_y: Fraction

    def __post_init__(self) -> None:
        # exact types: a bool or a float is neither a sign nor an exact shift
        if type(self.sign) is not int:
            raise TypeError(f"sign must be the int 1 or -1, got {self.sign!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be the int 1 or -1, got {self.sign!r}")
        for shift in (self.shift_x, self.shift_y):
            if type(shift) is not int and type(shift) is not Fraction:
                raise TypeError(f"shifts must be ints or Fractions, got {shift!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sign == other.sign and self.shift_x == other.shift_x
                and self.shift_y == other.shift_y)

    def apply(self, t: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
        return (self.shift_x + self.sign * t, self.shift_y + r)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other, as maps of the plane."""
        a = _new(AffineMap)
        _set_sign(a, self.sign * other.sign)
        _set_shift_x(a, self.shift_x + self.sign * other.shift_x)
        _set_shift_y(a, self.shift_y + other.shift_y)
        return a

    def is_identity(self) -> bool:
        return self.sign == 1 and self.shift_x == 0 and self.shift_y == 0


AFFINE_IDENTITY = AffineMap(1, 0, 0)

_set_sign = AffineMap.sign.__set__
_set_shift_x = AffineMap.shift_x.__set__
_set_shift_y = AffineMap.shift_y.__set__


def as_affine(g: GroupElement) -> AffineMap:
    """The plane isometry of g: (t, r) -> (g.n + (-1)**g.m * t, g.m + r).

    This representation is a homomorphism (compose matches mul) and is
    faithful: only (0, 0) maps to the identity map, since a map with
    sign -1 moves every point with t != g.n/2 horizontally and every
    point vertically unless shift_y = 0.
    """
    a = _new(AffineMap)
    _set_sign(a, -1 if g.m & 1 else 1)
    _set_shift_x(a, g.n)
    _set_shift_y(a, g.m)
    return a


__all__ = [
    "GroupElement",
    "AffineMap",
    "IDENTITY",
    "AFFINE_IDENTITY",
    "mul",
    "inv",
    "power",
    "conj",
    "as_affine",
]
