"""Complex constructions: closure, joins, products, the Klein surface."""

import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleingroup import (
    KLEIN_TRIANGLES,
    IntMatrix,
    SimplicialComplex,
    circle_complex,
    disjoint_circles,
    disjoint_union,
    join,
    klein_complex,
    point_complex,
    product,
)


def test_downward_closure():
    x = SimplicialComplex([(0, 1, 2)])
    assert x.counts() == [3, 3, 1]
    assert x.simplices(1) == [(0, 1), (0, 2), (1, 2)]
    assert x.dim == 2


def levels(x: SimplicialComplex) -> list[list[tuple]]:
    return [x.simplices(d) for d in range(x.dim + 1)]


def test_closed_flag_accepts_closed_input():
    x = SimplicialComplex([(1, 0), (1,), (0,)], closed=True)
    assert x.counts() == [2, 1]
    assert levels(x) == levels(SimplicialComplex([(0, 1)]))


def test_closed_flag_names_a_missing_face():
    # at construction, so no complex lacks a face
    for simplices, face in [
        ([(0, 1)], "(0,) of (0, 1)"),
        ([(0, 1, 2)], "(0, 1) of (0, 1, 2)"),
        ([(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)], "(0, 2) of (0, 1, 2)"),
        ([("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("a", "b", "c")],
         "('a', 'c') of ('a', 'b', 'c')"),
        # the highest level that lacks a facet is checked first, and its
        # least missing facet is named with the least simplex it bounds,
        # whatever order the sets of string labels iterate in
        ([("b", "c", "d"), ("a", "c", "d")], "('a', 'c') of ('a', 'c', 'd')"),
        ([(2,), (1,), (0, 2), (1, 2), (0, 1), (0, 1, 2)], "(0,) of (0, 1)"),
        ([(3,), (0, 3), (1, 3), (2, 3), (1, 2, 3), (0, 2, 3)], "(0, 2) of (0, 2, 3)"),
    ]:
        with pytest.raises(ValueError, match=rf"^closed=True, but face {re.escape(face)} is missing$"):
            SimplicialComplex(simplices, closed=True)


def test_degenerate_rejected():
    with pytest.raises(ValueError, match=r"degenerate simplex \(0, 0, 1\)"):
        SimplicialComplex([(0, 0, 1)])


def test_degenerate_rejected_when_closed():
    with pytest.raises(ValueError, match=r"degenerate simplex \(1, 0, 1\)"):
        SimplicialComplex([(0,), (1,), (0, 1), (1, 0, 1)], closed=True)


def test_each_simplex_is_read_once():
    x = SimplicialComplex([iter((2, 0, 1)), (v for v in (3, 2))])
    assert x.counts() == [4, 4, 1]
    with pytest.raises(ValueError, match=r"degenerate simplex \(1, 0, 1\)"):
        SimplicialComplex([iter((1, 0, 1))])


def frozenset_closure(simplices):
    """The faces of each dimension, as sorted tuples in sorted order, found
    by reading each simplex as a set and closing under nonempty subsets."""
    faces = {frozenset(s) for s in simplices} - {frozenset()}
    faces |= {frozenset(c) for f in faces for k in range(1, len(f))
              for c in combinations(f, k)}
    by_dim: dict[int, list] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    return [sorted(by_dim.get(d, [])) for d in range(max(by_dim, default=-1) + 1)]


def first_missing_facet(simplices):
    """With each simplex read as a set: in the highest dimension where a
    simplex lacks a facet, the least such facet and the least simplex
    that lacks it, as sorted tuples; None for a closed input."""
    faces = {frozenset(s) for s in simplices} - {frozenset()}
    for d in range(max(map(len, faces), default=0) - 1, 0, -1):
        missing = [(tuple(sorted(f - {v})), tuple(sorted(f)))
                   for f in faces if len(f) == d + 1 for v in f if f - {v} not in faces]
        if missing:
            return min(missing)
    return None


LABEL_SETS = (tuple(range(8)), tuple("abcdefgh"), ("x10", "x9", "y", "z0", "z00", "A"))


@st.composite
def simplex_lists(draw):
    names = draw(st.sampled_from(LABEL_SETS))
    simplex = st.lists(st.sampled_from(names), unique=True, max_size=5)
    return draw(st.lists(simplex, max_size=8))


@settings(max_examples=300, deadline=None)
@given(simplex_lists(), st.booleans(), st.booleans(), st.randoms(use_true_random=False))
def test_construction_matches_the_frozenset_closure(simplices, closed, pre_close, rng):
    if pre_close:  # a closed input, which closed=True accepts
        simplices = [list(s) for level in frozenset_closure(simplices) for s in level]
    shuffled = [rng.sample(s, len(s)) for s in simplices]
    rng.shuffle(shuffled)
    missing = first_missing_facet(shuffled) if closed else None
    if missing:
        face, s = missing
        message = re.escape(f"closed=True, but face {face!r} of {s!r} is missing")
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimplicialComplex(shuffled, closed=True)
    else:
        x = SimplicialComplex(shuffled, closed=closed)
        assert levels(x) == frozenset_closure(shuffled)


def renamed_faces(x: SimplicialComplex, offset: int) -> list[tuple]:
    """The old face formula of ``relabeled``: each face with its labels
    numbered from offset in sorted label order."""
    names = {v: i + offset for i, v in enumerate(sorted({v for s in x.all_faces() for v in s}))}
    return [tuple(names[v] for v in s) for s in x.all_faces()]


def union_faces(x: SimplicialComplex, y: SimplicialComplex) -> list[tuple]:
    return renamed_faces(x, 0) + renamed_faces(y, len(x.vertices))


def join_faces(x: SimplicialComplex, y: SimplicialComplex) -> list[tuple]:
    xs = [()] + renamed_faces(x, 0)
    ys = [()] + renamed_faces(y, len(x.vertices))
    return [s + t for s in xs for t in ys if s or t]


def assert_built_level_by_level(x: SimplicialComplex, y: SimplicialComplex, offset: int):
    # the level-by-level constructions against the checked constructor and
    # the frozenset closure, both reading the old face formulas
    for built, faces in [(x.relabeled(offset), renamed_faces(x, offset)),
                         (disjoint_union(x, y), union_faces(x, y)),
                         (join(x, y), join_faces(x, y))]:
        expected = frozenset_closure(faces)
        assert levels(built) == expected == levels(SimplicialComplex(faces, closed=True))


@settings(max_examples=300, deadline=None)
@given(simplex_lists(), simplex_lists(), st.integers(-3, 20))
def test_derived_constructions_match_the_checked_constructor(xs, ys, offset):
    assert_built_level_by_level(SimplicialComplex(xs), SimplicialComplex(ys), offset)


FIXED = {"empty": SimplicialComplex([]), "point": point_complex(),
         "klein": klein_complex(), "labels": SimplicialComplex([("b", "c"), ("a", "c", "d")])}


@pytest.mark.parametrize("x", FIXED, ids=str)
@pytest.mark.parametrize("y", FIXED, ids=str)
def test_derived_constructions_of_fixed_complexes(x, y):
    assert_built_level_by_level(FIXED[x], FIXED[y], 5)


@pytest.mark.parametrize("n", range(1, 9))
def test_join_model_matches_the_checked_constructor(n):
    x, k = disjoint_circles(n), klein_complex()
    j = join(x, k)
    assert levels(j) == levels(SimplicialComplex(join_faces(x, k), closed=True))
    assert levels(join(j, point_complex())) == \
        levels(SimplicialComplex(join_faces(j, point_complex()), closed=True))


def test_maximal_simplices():
    x = SimplicialComplex([(0, 1, 2), (2, 3)])
    assert set(x.maximal_simplices()) == {(0, 1, 2), (2, 3)}


def test_point_and_circle():
    assert point_complex().counts() == [1]
    c = circle_complex()
    assert c.counts() == [3, 3]
    assert c.euler_characteristic() == 0
    assert circle_complex(7).counts() == [7, 7]
    with pytest.raises(ValueError):
        circle_complex(2)


def test_disjoint_circles():
    d = disjoint_circles(3)
    assert d.counts() == [9, 9]
    with pytest.raises(ValueError):
        disjoint_circles(0)
    for count in (True, 2.0, "3"):
        with pytest.raises(TypeError, match=rf"number of circles must be an int, got {count!r}"):
            disjoint_circles(count)


def test_disjoint_union_counts():
    u = disjoint_union(circle_complex(), circle_complex(4))
    assert u.counts() == [7, 7]


def test_boundary_squares_to_zero():
    for x in (circle_complex(), klein_complex(),
              product(circle_complex(3), circle_complex(3)),
              join(circle_complex(3), point_complex())):
        mats = x.boundary_matrices()
        for a, b in zip(mats, mats[1:]):
            assert (a @ b).is_zero()


def test_boundary_of_the_standard_3_simplex():
    # rows and columns in lexicographic order of the sorted simplices;
    # the face without vertex k carries the sign (-1)^k
    mats = SimplicialComplex([(0, 1, 2, 3)]).boundary_matrices()
    d1 = [[-1, -1, -1, 0, 0, 0],   # 0 | columns 01 02 03 12 13 23
          [1, 0, 0, -1, -1, 0],    # 1
          [0, 1, 0, 1, 0, -1],     # 2
          [0, 0, 1, 0, 1, 1]]      # 3
    d2 = [[1, 1, 0, 0],            # 01 | columns 012 013 023 123
          [-1, 0, 1, 0],           # 02
          [0, -1, -1, 0],          # 03
          [1, 0, 0, 1],            # 12
          [0, 1, 0, -1],           # 13
          [0, 0, 1, 1]]            # 23
    d3 = [[-1], [1], [-1], [1]]    # 012 013 023 123 | column 0123
    assert mats == [IntMatrix(d1), IntMatrix(d2), IntMatrix(d3)]


def ascending(m: IntMatrix) -> bool:
    return list(m.rows) == sorted(m.rows) and all(list(r) == sorted(r) for r in m.rows.values())


def test_boundary_rows_iterate_in_index_order():
    # IntMatrix equality cannot see order, but the order fixes the pivots
    for x in (SimplicialComplex([(0, 1, 2, 3)]), klein_complex(),
              product(circle_complex(3), circle_complex(4)),
              join(disjoint_circles(2), klein_complex())):
        mats = x.boundary_matrices()
        assert all(ascending(m) for m in mats)
        assert all(ascending(a @ b) for a, b in zip(mats, mats[1:]))


def test_boundary_shapes_follow_counts():
    x = klein_complex()
    counts = x.counts()
    mats = x.boundary_matrices()
    assert len(mats) == x.dim
    for d, mat in enumerate(mats, start=1):
        assert (mat.nrows, mat.ncols) == (counts[d - 1], counts[d])


def test_zero_dimensional_boundary_convention():
    mats = point_complex().boundary_matrices()
    assert len(mats) == 1
    assert (mats[0].nrows, mats[0].ncols) == (1, 0)


def test_klein_surface_structure():
    k = klein_complex()
    assert len(KLEIN_TRIANGLES) == 18
    assert k.counts() == [9, 27, 18]
    assert k.euler_characteristic() == 0
    assert k.is_closed_surface()


def test_klein_triangles_have_no_repeats():
    assert len(set(map(frozenset, KLEIN_TRIANGLES))) == 18


def test_circle_is_not_a_surface():
    assert not circle_complex().is_closed_surface()
    # a triangle disc has boundary edges on one triangle only
    assert not SimplicialComplex([(0, 1, 2)]).is_closed_surface()


def test_torus_product_structure():
    t = product(circle_complex(3), circle_complex(3))
    assert t.euler_characteristic() == 0
    assert t.is_closed_surface()
    assert t.counts()[0] == 9


def test_product_of_segments():
    seg = SimplicialComplex([(0, 1)])
    sq = product(seg, seg)
    # a square: 4 vertices, 5 edges, 2 triangles
    assert sq.counts() == [4, 5, 2]
    assert sq.euler_characteristic() == 1


def test_product_with_point_is_identity_up_to_names():
    c = circle_complex(5)
    p = product(c, point_complex())
    assert p.counts() == c.counts()


def test_join_with_point_is_cone():
    cone = join(circle_complex(3), point_complex())
    # cone on a triangle boundary: a solid-looking disc
    assert cone.euler_characteristic() == 1
    assert cone.counts() == [4, 6, 3]


def test_join_of_circles_counts():
    j = join(circle_complex(3), circle_complex(3))
    # all cross simplices exist: S1 * S1 = S3
    assert j.counts() == [6, 6 + 9, 2 * 9, 9]
    assert j.euler_characteristic() == 0


def test_join_dimension():
    assert join(circle_complex(3), klein_complex()).dim == 4
    assert join(point_complex(), point_complex()).dim == 1


def test_relabeled_preserves_structure():
    k = klein_complex()
    r = k.relabeled(offset=100)
    assert r.counts() == k.counts()
    assert min(r.vertices) == 100
    assert r.euler_characteristic() == 0


def test_mixed_label_types():
    x = SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])
    assert x.counts() == [3, 3]
    assert x.vertices == ["a", "b", "c"]
