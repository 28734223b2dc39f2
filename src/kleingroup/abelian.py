"""Finitely generated abelian groups as rank plus invariant factors.

A group is Z**rank + Z/d1 + ... + Z/dk with 2 <= d1 | d2 | ... | dk.
This normal form makes equality testing trivial and gives tensor and
Tor products by gcd bookkeeping, which is all the Kunneth formulas need.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby
from math import gcd

from .snf import invariant_factor_chain


@dataclass(frozen=True)
class AbelianGroup:
    """Z**rank plus cyclic torsion with invariant factors ``torsion``.

    >>> AbelianGroup(1, (2,))
    AbelianGroup(rank=1, torsion=(2,))
    >>> AbelianGroup.from_moduli(0, [4, 6])
    AbelianGroup(rank=0, torsion=(2, 12))
    """

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion", tuple(self.torsion))
        if type(self.rank) is not int or any(type(d) is not int for d in self.torsion):
            raise TypeError("rank and torsion must be ints")
        if self.rank < 0:
            raise ValueError("negative rank")
        # factors first, so that a zero never reaches the divisibility check
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion must form a divisibility chain")

    @classmethod
    def from_moduli(cls, rank: int, moduli) -> "AbelianGroup":
        """Build from any list of cyclic orders, renormalizing to a chain
        and dropping trivial factors."""
        return cls(rank, tuple(d for d in invariant_factor_chain(list(moduli)) if d > 1))

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        """
        >>> Z.direct_sum(Z2)
        AbelianGroup(rank=1, torsion=(2,))
        """
        return AbelianGroup.from_moduli(
            self.rank + other.rank, list(self.torsion) + list(other.torsion)
        )

    def tensor(self, other: "AbelianGroup") -> "AbelianGroup":
        """Tensor product over Z.

        Z tensor A = A, and Z/a tensor Z/b = Z/gcd(a, b):

        >>> Z.tensor(Z2)
        AbelianGroup(rank=0, torsion=(2,))
        >>> AbelianGroup(0, (4,)).tensor(AbelianGroup(0, (6,)))
        AbelianGroup(rank=0, torsion=(2,))
        """
        moduli = []
        moduli += [d for d in other.torsion for _ in range(self.rank)]
        moduli += [d for d in self.torsion for _ in range(other.rank)]
        moduli += [gcd(a, b) for a in self.torsion for b in other.torsion]
        return AbelianGroup.from_moduli(self.rank * other.rank, moduli)

    def tor(self, other: "AbelianGroup") -> "AbelianGroup":
        """Tor_1 over Z: free parts contribute nothing and
        Tor(Z/a, Z/b) = Z/gcd(a, b).

        >>> Z2.tor(Z2)
        AbelianGroup(rank=0, torsion=(2,))
        >>> Z.tor(Z2).is_trivial
        True
        """
        moduli = [gcd(a, b) for a in self.torsion for b in other.torsion]
        return AbelianGroup.from_moduli(0, moduli)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        for d, run in groupby(self.torsion):
            count = len(list(run))
            parts.append(f"Z_{d}" if count == 1 else f"Z_{d}^{count}")
        return " + ".join(parts) if parts else "0"


TRIVIAL = AbelianGroup()
Z = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))


@dataclass(frozen=True)
class GradedGroups:
    """A finitely supported sequence of abelian groups, one per degree.

    ``reduced`` records whether the degree-0 entry is reduced homology.
    Trailing trivial groups are normalized away, so equality is
    degreewise equality.
    """

    groups: tuple[AbelianGroup, ...]
    reduced: bool = False

    def __post_init__(self) -> None:
        gs = tuple(self.groups)
        for g in gs:
            if not isinstance(g, AbelianGroup):
                raise TypeError(f"groups must be AbelianGroup values, got {g!r}")
        if type(self.reduced) is not bool:
            raise TypeError(f"reduced must be a bool, got {self.reduced!r}")
        while gs and gs[-1].is_trivial:
            gs = gs[:-1]
        object.__setattr__(self, "groups", gs)

    def __getitem__(self, degree: int) -> AbelianGroup:
        if 0 <= degree < len(self.groups):
            return self.groups[degree]
        return TRIVIAL

    def __iter__(self) -> Iterator[AbelianGroup]:
        """Degrees 0 to the top, degree 0 always present.  Without it,
        iteration would fall back to ``h[n]``, which never runs out."""
        return iter(self.groups or (TRIVIAL,))

    @property
    def top_degree(self) -> int:
        return len(self.groups) - 1

    def to_reduced(self) -> "GradedGroups":
        """Strip one Z from degree 0 (valid for nonempty spaces)."""
        if self.reduced:
            return self
        h0 = self[0]
        if h0.rank < 1:
            raise ValueError("degree 0 has no free summand to reduce away")
        gs = (AbelianGroup(h0.rank - 1, h0.torsion),) + self.groups[1:]
        return GradedGroups(gs, reduced=True)

    def to_unreduced(self) -> "GradedGroups":
        if not self.reduced:
            return self
        h0 = self[0]
        gs = (AbelianGroup(h0.rank + 1, h0.torsion),) + self.groups[1:]
        return GradedGroups(gs, reduced=False)

    def text(self) -> str:
        prefix = "~H" if self.reduced else "H"
        return ", ".join(f"{prefix}_{n} = {g}" for n, g in enumerate(self))


__all__ = ["AbelianGroup", "GradedGroups", "TRIVIAL", "Z", "Z2"]
