"""Abstract simplicial complexes: constructions and boundary matrices.

Vertices can be any mutually sortable hashable labels; constructions
that combine two complexes relabel to integers first.  A complex keeps
each simplex once, as the tuple of its vertices in sorted order, and
each dimension's simplices in sorted order; faces are
``itertools.combinations`` of those tuples, so they come out sorted too.

The boundary of s = (v_0, ..., v_d) is the sum of (-1)^k times the face
without v_k.  ``combinations(s, d)`` yields the faces without v_d, v_{d-1},
..., v_0 in that order, so the signs are (-1)^d, ..., -1, +1.  Boundary
matrices are built by ``IntMatrix.from_rows``, one row per face.

Every complex is closed under faces.  The constructor sorts each
simplex, rejects repeated vertices, drops duplicates, closes the levels
from the top down, each simplex adding its facets to the level below,
and sorts each level; ``closed=True`` makes the walk a check that names
the least missing facet.  Input from outside, ``product`` and the fixed
triangulations go through it.  Three constructions derive their levels
from complexes, normal and closed already, and set them unchecked:

* ``relabeled`` renames vertices in label order, which keeps each
  simplex and each level sorted;
* ``disjoint_union(x, y)`` renames x's vertices below y's, so each level
  is x's level followed by y's;
* ``join(x, y)`` renames the same way, so s + t is sorted as it stands
  and each block of s's and t's of fixed sizes comes out sorted; each
  level is sorted once.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations, repeat

from .snf import IntMatrix


class SimplicialComplex:
    def __init__(self, simplices, *, closed: bool = False):
        """Build from an iterable of simplices (iterables of vertices),
        closed under faces; ``closed`` checks the faces instead of adding."""
        by_dim: dict[int, set[tuple]] = defaultdict(set)
        for s in simplices:
            t = tuple(s)
            if not t:
                continue
            if len(set(t)) != len(t):
                raise ValueError(f"degenerate simplex {t!r}")
            by_dim[len(t) - 1].add(tuple(sorted(t)))
        levels = [by_dim[d] for d in range(max(by_dim, default=-1) + 1)]
        for d in range(len(levels) - 1, 0, -1):
            facets = chain.from_iterable(map(combinations, levels[d], repeat(d)))
            if not closed:
                levels[d - 1].update(facets)
            elif not levels[d - 1].issuperset(facets):
                # the least missing facet and the least simplex it bounds,
                # so the message does not depend on set order
                face, s = min((f, s) for s in levels[d] for f in combinations(s, d)
                              if f not in levels[d - 1])
                raise ValueError(f"closed=True, but face {face!r} of {s!r} is missing")
        self._by_dim = [sorted(level) for level in levels]

    @property
    def dim(self) -> int:
        return len(self._by_dim) - 1

    @property
    def vertices(self) -> list:
        return [t[0] for t in self._by_dim[0]] if self._by_dim else []

    def simplices(self, d: int) -> list[tuple]:
        if 0 <= d < len(self._by_dim):
            return list(self._by_dim[d])
        return []

    def all_faces(self) -> list[tuple]:
        return [s for level in self._by_dim for s in level]

    def counts(self) -> list[int]:
        return [len(level) for level in self._by_dim]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(level) for d, level in enumerate(self._by_dim))

    def maximal_simplices(self) -> list[tuple]:
        facets: set[tuple] = set()
        for d in range(1, self.dim + 1):
            for s in self._by_dim[d]:
                facets.update(combinations(s, d))
        return [s for level in self._by_dim for s in level if s not in facets]

    def boundary_matrices(self) -> list[IntMatrix]:
        """Matrices of the boundary operators, degree 1 up to the top.

        A 0-dimensional complex still reports one (vertices x 0) matrix
        so the chain carries its degree-0 dimension.
        """
        if not self._by_dim:
            raise ValueError("empty complex")
        if self.dim == 0:
            return [IntMatrix.from_rows(len(self._by_dim[0]), 0, {})]
        out = []
        for d in range(1, self.dim + 1):
            faces, cells = self._by_dim[d - 1], self._by_dim[d]
            index = {s: i for i, s in enumerate(faces)}
            # combinations(s, d) leaves out s[d], s[d-1], ..., s[0] in turn
            signs = [(-1) ** (d - k) for k in range(d + 1)]
            rows: list[dict[int, int]] = [{} for _ in faces]
            for j, s in enumerate(cells):
                for face, sign in zip(combinations(s, d), signs):
                    rows[index[face]][j] = sign
            out.append(IntMatrix.from_rows(len(faces), len(cells), dict(enumerate(rows))))
        return out

    def relabeled(self, offset: int = 0) -> "SimplicialComplex":
        """Same complex with vertices renamed offset.., in sorted label order."""
        rename = {v: i + offset for i, v in enumerate(self.vertices)}.__getitem__
        return _from_levels([[tuple(map(rename, s)) for s in level] for level in self._by_dim])

    def is_closed_surface(self) -> bool:
        """Every edge on two triangles and every vertex link one cycle."""
        if self.dim != 2:
            return False
        edge_count: dict[tuple, int] = {}
        for t in self._by_dim[2]:
            for e in combinations(t, 2):
                edge_count[e] = edge_count.get(e, 0) + 1
        if set(edge_count) != set(self._by_dim[1]):
            return False
        if any(c != 2 for c in edge_count.values()):
            return False
        for v in self.vertices:
            link = [tuple(x for x in t if x != v) for t in self._by_dim[2] if v in t]
            if not link:
                return False
            adj: dict = {}
            for a, b in link:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            if any(len(nbrs) != 2 for nbrs in adj.values()):
                return False
            seen = {link[0][0]}
            stack = [link[0][0]]
            while stack:
                for y in adj[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) != len(adj):
                return False
        return True


def _from_levels(levels: list[list[tuple]]) -> SimplicialComplex:
    """A complex with the given levels, unchecked: each simplex a sorted
    tuple of distinct vertices, each level sorted, and the top one
    nonempty, as the constructor leaves them."""
    x = object.__new__(SimplicialComplex)
    x._by_dim = levels
    return x


def disjoint_union(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """Both complexes side by side, x's vertices renamed below y's."""
    a = x.relabeled()._by_dim
    b = y.relabeled(offset=len(x.vertices))._by_dim
    both = [a[d] + b[d] for d in range(min(len(a), len(b)))]
    return _from_levels(both + a[len(b):] + b[len(a):])


def join(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """The simplicial join: every union of a simplex from each side
    (either side may contribute nothing, but not both)."""
    # a[p] and b[q] hold the simplices with p and q vertices, () included
    a = [[()]] + x.relabeled()._by_dim
    b = [[()]] + y.relabeled(offset=len(x.vertices))._by_dim
    levels = []
    for k in range(1, len(a) + len(b) - 1):
        level = [s + t for p in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1)
                 for s in a[p] for t in b[k - p]]
        level.sort()
        levels.append(level)
    return _from_levels(levels)


def product(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """The ordered-product triangulation of |X| x |Y|.

    Vertices are pairs; the simplices over a cell sigma x tau are the
    monotone staircase chains from (min, min) to (max, max), one maximal
    simplex per interleaving of the two coordinate step sequences.
    """
    a = x.relabeled()
    b = y.relabeled()
    maximal = []
    for s in a.maximal_simplices():
        ns = len(s) - 1
        for t in b.maximal_simplices():
            nt = len(t) - 1
            for step_cols in combinations(range(ns + nt), ns):
                i = j = 0
                chain = [(s[0], t[0])]
                for pos in range(ns + nt):
                    if pos in step_cols:
                        i += 1
                    else:
                        j += 1
                    chain.append((s[i], t[j]))
                maximal.append(tuple(chain))
    return SimplicialComplex(maximal)


def point_complex() -> SimplicialComplex:
    return SimplicialComplex([(0,)])


def circle_complex(segments: int = 3) -> SimplicialComplex:
    """A cycle with the given number of edges (at least 3)."""
    if segments < 3:
        raise ValueError("a simplicial circle needs at least 3 edges")
    return SimplicialComplex(
        [(i, (i + 1) % segments) for i in range(segments)]
    )


def _check_circle_count(count: int) -> None:
    """Reject a count of circles that is not an int (a bool included) or
    is below 1."""
    if type(count) is not int:
        raise TypeError(f"number of circles must be an int, got {count!r}")
    if count < 1:
        raise ValueError("need at least one circle")


def disjoint_circles(count: int) -> SimplicialComplex:
    """A disjoint union of ``count`` triangles-as-circles."""
    _check_circle_count(count)
    edges = []
    for c in range(count):
        base = 3 * c
        edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
    return SimplicialComplex(edges)


# A 9-vertex triangulation of the Klein bottle: a 3x3 vertex grid on the
# square, top edge glued straight to the bottom, right edge glued to the
# left with a flip.  Vertex (column i, row j) is 3*i + j.  Validated in
# tests: Euler characteristic 0, closed-surface links, and homology
# (Z, Z + Z_2, 0).
KLEIN_TRIANGLES: tuple[tuple[int, int, int], ...] = (
    (0, 3, 4), (0, 1, 4), (1, 4, 5), (1, 2, 5), (2, 3, 5), (0, 2, 3),
    (3, 6, 7), (3, 4, 7), (4, 7, 8), (4, 5, 8), (5, 6, 8), (3, 5, 6),
    (0, 2, 6), (2, 6, 7), (1, 2, 7), (1, 7, 8), (0, 1, 8), (0, 6, 8),
)


def klein_complex() -> SimplicialComplex:
    return SimplicialComplex(KLEIN_TRIANGLES)


__all__ = [
    "SimplicialComplex",
    "KLEIN_TRIANGLES",
    "disjoint_union",
    "join",
    "product",
    "point_complex",
    "circle_complex",
    "disjoint_circles",
    "klein_complex",
]
