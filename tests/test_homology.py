"""Homology engine: known spaces, Kunneth both ways, the model table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleingroup import (
    KNOWN_HOMOLOGY,
    AbelianGroup,
    GradedGroups,
    IntMatrix,
    SIMPLICIAL_CAP,
    TRIVIAL,
    Z,
    Z2,
    circle_complex,
    circles_homology,
    disjoint_circles,
    disjoint_union,
    homology_of_chain,
    join,
    klein_complex,
    kunneth_join,
    kunneth_product,
    model_homology,
    point_complex,
    product,
    simplicial_homology,
    smith_normal_form,
)
from kleingroup import homology
from kleingroup.cli import main


def test_point():
    assert simplicial_homology(point_complex()) == GradedGroups((Z,))
    assert simplicial_homology(point_complex()).to_reduced() == \
        GradedGroups((), reduced=True)


def test_circle():
    for segments in (3, 4, 7):
        h = simplicial_homology(circle_complex(segments))
        assert h == GradedGroups((Z, Z)), segments


def test_two_points():
    x = disjoint_union(point_complex(), point_complex())
    assert simplicial_homology(x) == GradedGroups((AbelianGroup(2),))


def test_disjoint_circles_homology():
    h = simplicial_homology(disjoint_circles(3))
    assert h == GradedGroups((AbelianGroup(3), AbelianGroup(3)))


def test_klein_bottle():
    h = simplicial_homology(klein_complex())
    assert h == GradedGroups((Z, AbelianGroup(1, (2,))))
    assert h[2] == TRIVIAL


@pytest.mark.parametrize("name, space", [
    ("point", point_complex()), ("circle", circle_complex()), ("klein", klein_complex()),
])
def test_known_homology_matches_the_triangulation(name, space):
    assert KNOWN_HOMOLOGY[name] == simplicial_homology(space)


@pytest.mark.parametrize("n", range(1, 7))
def test_circles_homology_matches_the_triangulation(n):
    assert circles_homology(n) == simplicial_homology(disjoint_circles(n))


def test_closed_forms_run_no_smith_normal_form(monkeypatch, capsys):
    # the Kunneth route and the product and join commands read the closed
    # forms alone; only the simplicial route reduces a boundary
    def refuse(*args):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(homology, "smith_normal_form", refuse)
    assert model_homology(5)[3] == AbelianGroup(5, (2,) * 5)
    for argv in (["product", "klein", "circles:3"], ["join", "point", "klein"]):
        assert main(argv) == 0
    with pytest.raises(AssertionError, match="smith_normal_form called"):
        model_homology(1, method="simplicial")


def test_sphere_as_join():
    # S1 * S0 = S2, S1 * S1 = S3
    s0 = disjoint_union(point_complex(), point_complex())
    s2 = join(circle_complex(3), s0)
    assert simplicial_homology(s2) == GradedGroups((Z, TRIVIAL, Z))
    s3 = join(circle_complex(3), circle_complex(3))
    assert simplicial_homology(s3) == GradedGroups((Z, TRIVIAL, TRIVIAL, Z))


def test_torus_and_kunneth_agree():
    t = product(circle_complex(3), circle_complex(3))
    direct = simplicial_homology(t)
    assert direct == GradedGroups((Z, AbelianGroup(2), Z))
    c = simplicial_homology(circle_complex())
    assert kunneth_product(c, c) == direct


def test_circle_times_klein():
    expected = GradedGroups((
        Z,
        AbelianGroup(2, (2,)),
        AbelianGroup(1, (2,)),
    ))
    c = simplicial_homology(circle_complex())
    k = simplicial_homology(klein_complex())
    assert kunneth_product(c, k) == expected
    direct = simplicial_homology(product(circle_complex(3), klein_complex()))
    assert direct == expected


def test_kunneth_product_with_point_is_identity():
    k = simplicial_homology(klein_complex())
    pt = simplicial_homology(point_complex())
    assert kunneth_product(k, pt) == k
    assert kunneth_product(pt, k) == k


def test_kunneth_join_against_simplicial():
    pairs = [
        (circle_complex(3), circle_complex(3)),
        (circle_complex(3), klein_complex()),
        (disjoint_circles(2), klein_complex()),
        (point_complex(), klein_complex()),
    ]
    for x, y in pairs:
        via_formula = kunneth_join(
            simplicial_homology(x).to_reduced(),
            simplicial_homology(y).to_reduced(),
        )
        direct = simplicial_homology(join(x, y)).to_reduced()
        assert via_formula == direct, (x.counts(), y.counts())


def test_kunneth_argument_conventions():
    k = simplicial_homology(klein_complex())
    with pytest.raises(ValueError):
        kunneth_product(k.to_reduced(), k)
    with pytest.raises(ValueError):
        kunneth_join(k, k.to_reduced())


graded_terms = st.lists(
    st.builds(AbelianGroup.from_moduli, st.integers(0, 3),
              st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), max_size=3)),
    max_size=4,
)


def folded_kunneth(xs, ys, reduced):
    """The Kunneth degrees of GradedGroups(xs) and GradedGroups(ys),
    each folded into a running direct sum one term at a time."""
    hx, hy = GradedGroups(xs, reduced), GradedGroups(ys, reduced)
    groups = []
    for n in range(len(xs) + len(ys)):
        acc = TRIVIAL
        for i in range(n + 1):
            acc = acc.direct_sum(hx[i].tensor(hy[n - i]))
        for i in range(n):
            acc = acc.direct_sum(hx[i].tor(hy[n - 1 - i]))
        groups.append(acc)
    return groups


@given(graded_terms, graded_terms)
def test_kunneth_matches_a_termwise_direct_sum(xs, ys):
    # a direct sum's invariant factors do not depend on how its summands
    # were grouped, so one normalization per degree gives the fold's result
    product_groups = kunneth_product(GradedGroups(xs), GradedGroups(ys))
    assert product_groups == GradedGroups(folded_kunneth(xs, ys, False))
    join_groups = kunneth_join(GradedGroups(xs, True), GradedGroups(ys, True))
    assert join_groups == GradedGroups([TRIVIAL] + folded_kunneth(xs, ys, True), True)


def test_join_with_point_is_contractible():
    k = simplicial_homology(klein_complex()).to_reduced()
    pt = simplicial_homology(point_complex()).to_reduced()
    joined = kunneth_join(k, pt)
    assert all(joined[n].is_trivial for n in range(joined.top_degree + 2))


def test_model_homology_table():
    # join of N circles with the Klein bottle:
    # Z, 0, (Z + Z2)^(N-1), (Z + Z2)^N; N = 100,000 takes under a second
    # because the circles' homology is taken in closed form
    for n in (1, 2, 3, 5, 8, 100_000):
        h = model_homology(n)
        assert h[0] == Z, n
        assert h[1] == TRIVIAL, n
        assert h[2] == AbelianGroup(n - 1, (2,) * (n - 1)), n
        assert h[3] == AbelianGroup(n, (2,) * n), n
        assert h[4] == TRIVIAL, n
        assert h.top_degree == 3


def test_model_homology_methods_agree():
    for n in range(1, SIMPLICIAL_CAP + 1):
        assert model_homology(n) == model_homology(n, method="simplicial"), n
    # past the cap, the cleared reduction on the triangulated join, up to
    # boundaries of 4,320 rows at n = 32
    for n in (*range(SIMPLICIAL_CAP + 1, 9), 16, 32):
        assert model_homology(n) == simplicial_homology(join(disjoint_circles(n), klein_complex())), n


def test_model_homology_validation():
    with pytest.raises(ValueError):
        model_homology(0)
    with pytest.raises(ValueError, match="capped"):
        model_homology(9, method="simplicial")
    with pytest.raises(ValueError):
        model_homology(1, method="nope")


@pytest.mark.parametrize("method", ["kunneth", "simplicial"])
@pytest.mark.parametrize("circles", [True, False, 2.0, "3", None])
def test_model_homology_takes_an_int_count_of_circles(circles, method):
    # checked before either route runs, so both reject each input alike
    with pytest.raises(TypeError, match=rf"number of circles must be an int, got {circles!r}"):
        model_homology(circles, method=method)


def test_join_sequence_check_passes(join_sequence_check):
    cases = [
        (circle_complex(3), circle_complex(3)),
        (disjoint_circles(2), klein_complex()),
        (disjoint_circles(3), klein_complex()),
    ]
    for x, y in cases:
        hx = simplicial_homology(x).to_reduced()
        hy = simplicial_homology(y).to_reduced()
        for row in join_sequence_check(hx, hy):
            assert row["rank_ok"], (row, x.counts(), y.counts())
            assert row["split_ok"], (row, x.counts(), y.counts())


def test_chain_validation():
    with pytest.raises(ValueError, match="chain"):
        homology_of_chain([IntMatrix.from_rows(2, 3, {}), IntMatrix.from_rows(4, 1, {})])
    with pytest.raises(ValueError, match="double boundary"):
        homology_of_chain([IntMatrix([[1, 0], [0, 1]]), IntMatrix([[1], [0]])])
    with pytest.raises(ValueError):
        homology_of_chain([])


def test_chain_rejects_a_double_boundary_with_one_nonzero_entry():
    # the triangle's boundaries, edges 01, 02, 12 and the face 012; putting
    # vertex 0 on edge 12 too leaves one nonzero sum, reached through zero
    d2 = IntMatrix([[1], [-1], [1]])
    assert homology_of_chain([IntMatrix([[-1, -1, 0], [1, 0, -1], [0, 1, 1]]), d2]) == \
        GradedGroups((Z,))
    d1 = IntMatrix([[-1, -1, 1], [1, 0, -1], [0, 1, 1]])
    assert (d1 @ d2).rows == {0: {0: 1}}
    with pytest.raises(ValueError, match="double boundary"):
        homology_of_chain([d1, d2])


@pytest.mark.parametrize("wrap", [tuple, iter, lambda ms: (m for m in ms)],
                         ids=["tuple", "iterator", "generator"])
def test_boundaries_may_be_read_once(wrap):
    # the checks must not use up an iterator before the reduction reads it
    mats = join(disjoint_circles(2), klein_complex()).boundary_matrices()
    assert homology_of_chain(wrap(mats)) == homology_of_chain(mats) == model_homology(2)
    with pytest.raises(ValueError, match="double boundary"):
        homology_of_chain(wrap([IntMatrix([[1, 0], [0, 1]]), IntMatrix([[1], [0]])]))


def test_chain_takes_int_matrices():
    with pytest.raises(TypeError, match="IntMatrix"):
        homology_of_chain([[[1]]])


def test_chain_by_hand():
    # 0 -> Z -2-> Z -> 0 has H0 = Z/2
    h = homology_of_chain([IntMatrix([[2]])])
    assert h[0] == Z2 and h[1] == TRIVIAL


def test_clearing_stops_at_a_step_that_held_a_non_unit_pivot():
    # the middle boundary's first step starts at pivot 2 and switches rows
    # to pop 1; clearing that row's column of the bottom boundary would
    # leave [[-9, 0], [0, 0]] there and give H_0 = Z + Z_9
    h = homology_of_chain([
        IntMatrix([[6, -9, 0], [0, 0, 0]]),
        IntMatrix([[3, 0], [2, 0], [0, 0]]),
        IntMatrix([[0, 0], [3, 3]]),
    ])
    assert h.text() == "H_0 = Z + Z_3, H_1 = Z, H_2 = Z_3, H_3 = Z"


def scrambled_complex(rng, degrees=4, ranks=(2, 8), moduli=(1, 30)):
    """Boundary matrices (``b[k]``: degree k+1 -> k) of a direct sum of
    pieces Z --d--> Z and free Z's, after random elementary basis changes
    in every chain group, and the homology the pieces prescribe.

    A change U in degree k acts as U on the rows of the boundary into
    degree k and as U^-1 on the columns of the boundary out of it, so
    the double boundary stays zero while entries and pivots stop being
    units.
    """
    dims = [rng.randint(*ranks) for _ in range(degrees)]
    b = [[[0] * dims[k + 1] for _ in range(dims[k])] for k in range(degrees - 1)]
    used = [0] * degrees
    torsion: list[list[int]] = [[] for _ in dims]
    for k in range(degrees - 1):
        for _ in range(rng.randint(0, min(dims[k] - used[k], dims[k + 1]))):
            d = rng.randint(*moduli)
            b[k][used[k]][used[k + 1]] = d
            torsion[k].append(d)
            used[k] += 1
            used[k + 1] += 1
    for k, n in enumerate(dims):
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            if k < degrees - 1:  # basis row i += c * row j
                b[k][i] = [x + c * y for x, y in zip(b[k][i], b[k][j])]
            if k > 0:  # and column j -= c * column i one degree up
                for row in b[k - 1]:
                    row[j] -= c * row[i]
    expected = GradedGroups(tuple(
        AbelianGroup.from_moduli(n - used[k], torsion[k]) for k, n in enumerate(dims)))
    return [IntMatrix(m) for m in b], expected


def homology_without_clearing(boundaries):
    """Each boundary through smith_normal_form on all its columns."""
    forms = [smith_normal_form(b)[:2] for b in boundaries] + [([], 0)]
    ranks = [0] + [rank for _, rank in forms]
    dims = [boundaries[0].nrows] + [b.ncols for b in boundaries]
    return GradedGroups(tuple(
        AbelianGroup(dim - ranks[n] - ranks[n + 1], tuple(d for d in forms[n][0] if d > 1))
        for n, dim in enumerate(dims)))


@settings(max_examples=500, deadline=None)
@given(st.randoms())
def test_clearing_matches_the_reduction_without_it(rng):
    boundaries, expected = scrambled_complex(rng)
    h = homology_of_chain(boundaries)
    assert h == homology_without_clearing(boundaries)
    assert h == expected

