"""Integral homology of chain complexes, with Kunneth assembly.

Ranks and torsion come from Smith normal form of the boundary
operators, reduced from the top degree down with the columns that the
degree above proves redundant left out (exact once the double boundary
is checked to be zero); the result is unreduced, and ``.to_reduced()``
gives the reduced groups.  Homology of a product is assembled from the
factors by the Kunneth formula; homology of a join by its reduced
variant, one degree up.

The fixed spaces have their homology in closed form, in one table:
``KNOWN_HOMOLOGY`` for the point, the circle and the Klein bottle, and
``circles_homology(n)`` for n disjoint circles.  The Kunneth route reads
only these, so it builds no complex and runs no Smith normal form, and
it stays independent of the simplicial route it checks; the
triangulations in ``simplicial`` are the table's oracles in the tests.
"""

from __future__ import annotations

from collections.abc import Iterable

from .abelian import TRIVIAL, AbelianGroup, GradedGroups, Z, Z2
from .simplicial import (
    SimplicialComplex, _check_circle_count, disjoint_circles, join, klein_complex,
)
from .snf import IntMatrix, smith_normal_form


def homology_of_chain(boundaries: Iterable[IntMatrix]) -> GradedGroups:
    """Unreduced homology of a chain complex given by its boundary matrices,
    in any iterable, which is read once.

    ``boundaries[k]`` is the matrix of the boundary from degree k+1 to
    degree k (so a 0-dimensional complex passes one (vertices x 0)
    matrix).  Rejects mismatched shapes and nonzero double boundaries.

    The boundaries are reduced from the top degree down.  Before
    ``boundaries[k-1]`` is reduced, the columns indexed by the unit-prefix
    rows of ``boundaries[k]`` (see :func:`~kleingroup.snf.smith_normal_form`)
    are left out, as in the clearing of Chen and Kerber (2011).  The row
    operations that reduce ``boundaries[k]`` are a basis change of degree
    k.  In the final basis, the column of ``boundaries[k-1]`` at each
    pivot row is zero, since its product with the nonzero pivot is part
    of the double boundary.  A prefix step only adds its pivot row to
    other rows, so it changes that row's column alone, and the later
    steps never touch a prefix row.  Dropping the prefix columns thus
    moves no rank or invariant factor, but only because the double
    boundary was checked to be zero.
    """
    boundaries = tuple(boundaries)  # read once: the checks would use up an iterator
    if not boundaries:
        raise ValueError("need at least one boundary matrix")
    if not all(isinstance(b, IntMatrix) for b in boundaries):
        raise TypeError("boundaries must be IntMatrix values")
    for a, b in zip(boundaries, boundaries[1:]):
        if a.ncols != b.nrows:
            raise ValueError("boundary shapes do not chain")
        if not (a @ b).is_zero():
            raise ValueError("double boundary is nonzero")
    dims = [boundaries[0].nrows] + [b.ncols for b in boundaries]
    forms = []
    cleared: list[int] = []
    for b in reversed(boundaries):
        factors, rank, cleared = smith_normal_form(b, cleared)
        forms.append((factors, rank))
    forms.reverse()
    ranks = [0] + [rank for _, rank in forms] + [0]
    groups = []
    for n, dim in enumerate(dims):
        free = dim - ranks[n] - ranks[n + 1]
        if free < 0:
            raise ValueError("boundary ranks exceed chain dimension")
        torsion = forms[n][0] if n < len(forms) else []
        groups.append(AbelianGroup(free, tuple(d for d in torsion if d > 1)))
    return GradedGroups(tuple(groups))


def circles_homology(n: int) -> GradedGroups:
    """Unreduced homology of n disjoint circles: Z^n in degrees 0 and 1.

    >>> circles_homology(3).text()
    'H_0 = Z^3, H_1 = Z^3'
    """
    return GradedGroups((AbelianGroup(n), AbelianGroup(n)))


# unreduced homology of the fixed spaces, by name
KNOWN_HOMOLOGY = {
    "point": GradedGroups((Z,)),
    "circle": circles_homology(1),
    "klein": GradedGroups((Z, Z.direct_sum(Z2))),
}


def simplicial_homology(x: SimplicialComplex) -> GradedGroups:
    """
    >>> simplicial_homology(klein_complex()).text()
    'H_0 = Z, H_1 = Z + Z_2'
    """
    return homology_of_chain(x.boundary_matrices())


def _kunneth(hx: GradedGroups, hy: GradedGroups) -> tuple[AbelianGroup, ...]:
    """Every degree n of the Kunneth formula: the tensor terms of total
    degree n plus the Tor terms one below, normalized once together."""
    groups = []
    for n in range(hx.top_degree + hy.top_degree + 2):
        terms = [hx[i].tensor(hy[n - i]) for i in range(n + 1)]
        terms += [hx[i].tor(hy[n - 1 - i]) for i in range(n)]
        groups.append(AbelianGroup.from_moduli(
            sum(g.rank for g in terms), [d for g in terms for d in g.torsion]))
    return tuple(groups)


def kunneth_product(hx: GradedGroups, hy: GradedGroups) -> GradedGroups:
    """Homology of a product space from unreduced factor homologies:
    tensor terms in the same total degree plus Tor terms one below."""
    if hx.reduced or hy.reduced:
        raise ValueError("kunneth_product takes unreduced homologies")
    return GradedGroups(_kunneth(hx, hy))


def kunneth_join(hx: GradedGroups, hy: GradedGroups) -> GradedGroups:
    """Reduced homology of a join from reduced factor homologies.

    Degree n+1 of the join collects the degree-n tensor terms and the
    degree-(n-1) Tor terms; a join of nonempty spaces is connected, so
    degree 0 vanishes.
    """
    if not (hx.reduced and hy.reduced):
        raise ValueError("kunneth_join takes reduced homologies")
    return GradedGroups((TRIVIAL,) + _kunneth(hx, hy), reduced=True)


SIMPLICIAL_CAP = 4
KUNNETH_CAP = 1_000_000


def model_homology(circles: int, method: str = "kunneth") -> GradedGroups:
    """Unreduced homology of the join of ``circles`` disjoint circles
    with the Klein bottle.  That is a join of quotients, not the
    quotient of the truncated join model.

    method "kunneth" assembles it by ``kunneth_join`` from the closed
    forms ``circles_homology(circles)`` and ``KNOWN_HOMOLOGY["klein"]``
    alone, with no complex and no Smith normal form, capped at
    ``KUNNETH_CAP`` = 10^6 circles; method "simplicial" triangulates the
    join and runs the boundary matrices, capped at ``SIMPLICIAL_CAP`` = 4
    circles to keep matrix sizes sane.  Either way ``circles`` must be an
    int of at least 1, and a bool is not one.
    """
    _check_circle_count(circles)
    if method == "kunneth":
        if circles > KUNNETH_CAP:
            raise ValueError(f"kunneth method capped at {KUNNETH_CAP} circles")
        hx = circles_homology(circles).to_reduced()
        return kunneth_join(hx, KNOWN_HOMOLOGY["klein"].to_reduced()).to_unreduced()
    if method == "simplicial":
        if circles > SIMPLICIAL_CAP:
            raise ValueError(f"simplicial method capped at {SIMPLICIAL_CAP} circles")
        return simplicial_homology(join(disjoint_circles(circles), klein_complex()))
    raise ValueError("method must be 'kunneth' or 'simplicial'")


__all__ = [
    "homology_of_chain",
    "simplicial_homology",
    "circles_homology",
    "KNOWN_HOMOLOGY",
    "kunneth_product",
    "kunneth_join",
    "model_homology",
    "SIMPLICIAL_CAP",
    "KUNNETH_CAP",
]
