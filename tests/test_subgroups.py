"""Cyclic subgroups, membership, commensurability, classes, families.

The closed forms are checked against a brute-force oracle: enumerate
actual powers of the generators out to a bound large enough to be
conclusive on the grid under test.
"""

import re
from math import gcd

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from kleingroup import (
    CommClass,
    CyclicSubgroup,
    FixedSetDescriptor,
    GroupElement,
    PlanePoint,
    canonical_subgroups,
    canonicalize,
    comm_class,
    commensurable,
    commensurator,
    conj_subgroup,
    contains,
    family_contains,
    fixed_direction,
    fixed_set,
    maximal_containing,
    maximal_translations,
    piece_action,
    piece_coordinate,
    power,
    powers,
    subgroup,
)

GRID = 6
POWER_BOUND = 24  # covers every element with |coords| <= GRID for these gens


def canonical_gens(bound):
    gens = [GroupElement(n, m) for n in range(-bound, bound + 1)
            for m in range(1, bound + 1)]
    gens += [GroupElement(n, 0) for n in range(1, bound + 1)]
    return gens


def power_set(s, k_bound=POWER_BOUND):
    return {(g.n, g.m) for g in powers(s, k_bound)}


def test_canonicalize_flips():
    assert canonicalize(GroupElement(3, -4)).gen == GroupElement(-3, 4)
    assert canonicalize(GroupElement(-2, 0)).gen == GroupElement(2, 0)
    assert canonicalize(GroupElement(5, 1)).gen == GroupElement(5, 1)
    assert canonicalize(GroupElement(0, -6)).gen == GroupElement(0, 6)


def test_canonicalize_identifies_inverse_pairs():
    for g in canonical_gens(4):
        assert canonicalize(g) == canonicalize(g.inverse())


def test_constructor_rejections():
    with pytest.raises(ValueError, match="nonzero"):
        subgroup(0, 0)
    with pytest.raises(ValueError, match="canonical"):
        CyclicSubgroup(GroupElement(1, -2))
    with pytest.raises(ValueError, match="canonical"):
        CyclicSubgroup(GroupElement(-1, 0))


@pytest.mark.parametrize("gen", [(1, 0), "x", None, 3])
def test_constructor_rejects_a_generator_that_is_not_a_group_element(gen):
    with pytest.raises(TypeError, match=f"^generator must be a GroupElement, got {re.escape(repr(gen))}$"):
        CyclicSubgroup(gen)


@pytest.mark.parametrize("gen", canonical_gens(GRID))
def test_contains_matches_power_oracle(gen):
    s = CyclicSubgroup(gen)
    pset = power_set(s)
    for n in range(-GRID, GRID + 1):
        for m in range(-GRID, GRID + 1):
            g = GroupElement(n, m)
            expected = g.is_identity() or (n, m) in pset
            assert contains(s, g) == expected, (gen, g)


def test_contains_far_out():
    assert contains(subgroup(3, 2), GroupElement(3 * 10**9, 2 * 10**9))
    assert not contains(subgroup(3, 2), GroupElement(3 * 10**9 + 1, 2 * 10**9))
    assert contains(subgroup(4, 1), GroupElement(0, 10**9 * 2))
    assert contains(subgroup(4, 1), GroupElement(4, 10**9 * 2 + 1))
    assert not contains(subgroup(4, 1), GroupElement(-4, 3))


def test_commensurable_matches_intersection_oracle():
    subs = [CyclicSubgroup(g) for g in canonical_gens(GRID)]
    psets = {s: frozenset(power_set(s)) for s in subs}
    for i, s in enumerate(subs):
        for t in subs[i:]:
            oracle = not psets[s].isdisjoint(psets[t])
            assert commensurable(s, t) == oracle, (s.gen, t.gen)
            assert commensurable(t, s) == oracle


def test_commensurable_examples():
    assert commensurable(subgroup(1, 1), subgroup(0, 2))
    assert commensurable(subgroup(3, 1), subgroup(-2, 5))
    assert commensurable(subgroup(1, 2), subgroup(2, 4))
    assert commensurable(subgroup(1, 2), subgroup(3, 6))
    assert not commensurable(subgroup(1, 2), subgroup(1, 4))
    assert not commensurable(subgroup(1, 0), subgroup(1, 2))
    assert not commensurable(subgroup(1, 0), subgroup(0, 2))
    assert not commensurable(subgroup(2, 2), subgroup(1, 1))


def test_class_tags():
    assert comm_class(subgroup(5, 0)) == CommClass((1, 0))
    assert comm_class(subgroup(-2, 0)).tag == "H"
    assert comm_class(subgroup(7, 3)) == CommClass((0, 1))
    assert comm_class(subgroup(0, 2)).tag == "K"
    assert comm_class(subgroup(0, 8)).tag == "K"
    assert comm_class(subgroup(2, 4)) == CommClass((1, 2))
    assert comm_class(subgroup(-6, 4)) == CommClass((3, 2))
    assert comm_class(subgroup(4, 6)) == CommClass((2, 3))
    assert CommClass((1, 0)).rep is None and CommClass((0, 1)).rep is None
    assert CommClass((1, 2)).tag == "R" and CommClass((1, 2)).rep == subgroup(1, 2)
    assert CommClass((2, 3)).rep == subgroup(4, 6)


def test_class_rep_is_reduced():
    for g in canonical_gens(GRID):
        c = comm_class(CyclicSubgroup(g))
        if c.tag != "R":
            continue
        a, b = c.rep.gen.n, c.rep.gen.m
        assert a > 0 and b > 0 and b % 2 == 0
        from math import gcd
        assert gcd(a, b // 2) == 1


def test_class_equality_is_commensurability_up_to_flip():
    subs = [CyclicSubgroup(g) for g in canonical_gens(GRID)]
    psets = {s: frozenset(power_set(s)) for s in subs}
    for i, s in enumerate(subs):
        for t in subs[i:]:
            mirrored = frozenset((-n, m) for n, m in psets[t])
            oracle = not psets[s].isdisjoint(psets[t]) or not psets[s].isdisjoint(mirrored)
            assert (comm_class(s) == comm_class(t)) == oracle, (s.gen, t.gen)


# Keys that fixed_direction never returns, with the error that names
# them; (True, 0) and (1.0, 0) compare equal to (1, 0)
BAD_DIRECTIONS = [
    ((2, 4), ValueError), ((1, -2), ValueError), ((-1, 0), ValueError),
    ((0, 2), ValueError), ((0, 0), ValueError), ((1, 2, 3), ValueError),
    ((0, 1, 5), ValueError), ((), ValueError),
    (("1", 0), TypeError), ((True, 0), TypeError), ((1.0, 0), TypeError),
    ((1.0, 2), TypeError), (([1], 0), TypeError), ([1, 0], TypeError),
    ([1, 2], TypeError), ("H", TypeError), (None, TypeError),
]
DIRECTION_ERRORS = {
    ValueError: r"direction must be \(1, 0\) or primitive with q > 0, got",
    TypeError: "direction must be a tuple of ints, got",
}
# Every constructor and map keyed by a direction, called on direction d
DIRECTION_ENTRY_POINTS = {
    "CommClass": CommClass,
    "FixedSetDescriptor": FixedSetDescriptor,
    "piece_coordinate": lambda d: piece_coordinate(d, PlanePoint(3, 5)),
    "piece_action": lambda d: piece_action(d, GroupElement(1, 2), 0),
}


@pytest.mark.parametrize("entry", DIRECTION_ENTRY_POINTS)
@pytest.mark.parametrize("key, error", [
    pytest.param(key, error, id=repr(key).replace(" ", "")) for key, error in BAD_DIRECTIONS])
def test_every_entry_point_rejects_bad_directions(entry, key, error):
    with pytest.raises(error, match=DIRECTION_ERRORS[error]):
        DIRECTION_ENTRY_POINTS[entry](key)


def test_class_invalid_construction():
    # (-1, 2) is a direction, of a flat subgroup, but not a class key
    with pytest.raises(ValueError, match="class direction must have p >= 0"):
        CommClass((-1, 2))
    assert FixedSetDescriptor((-1, 2)) == fixed_set(subgroup(-1, 2))
    with pytest.raises(TypeError):
        CommClass("R", subgroup(1, 0))


def test_maximal_translations_rejects_pairs_that_are_not_primitive():
    for p, q in [(2, 4), (2, 0), (3, 6), (0, 0), (-2, 4)]:
        with pytest.raises(ValueError, match="direction must be primitive"):
            maximal_translations(p, q)


def test_maximal_translations_on_primitive_pairs_of_either_sign():
    for p in range(-GRID, GRID + 1):
        for q in range(-GRID, GRID + 1):
            if gcd(p, q) == 1:
                k = 1 + q % 2
                assert maximal_translations(p, q) == subgroup(k * p, k * q), (p, q)


def test_fixed_direction_is_primitive_and_canonical():
    for s in canonical_subgroups(12):
        p, q = fixed_direction(s)
        assert gcd(p, q) == 1 and (q > 0 or (p, q) == (1, 0)), s


def test_maximal_containing_examples():
    assert maximal_containing(subgroup(4, 0)) == subgroup(1, 0)
    assert maximal_containing(subgroup(-6, 3)) == subgroup(-6, 1)
    assert maximal_containing(subgroup(0, 6)) is None
    assert maximal_containing(subgroup(6, 4)) == subgroup(3, 2)
    assert maximal_containing(subgroup(-4, 8)) == subgroup(-1, 2)


def test_maximal_containing_is_maximal_on_grid():
    # a brute-force oracle from powers alone: u contains t when t's
    # generator is a power of u's, and exponents up to the box's bound
    # reach every element of the box
    bound = 12
    subs = canonical_subgroups(bound)
    psets = {u: power_set(u, bound) for u in subs}
    glides = {subgroup(r, 1) for r in range(-bound, bound + 1)}
    for s in subs:
        over = [u for u in subs if (s.gen.n, s.gen.m) in psets[u]]
        maximal = {t for t in over
                   if not any(u != t and (t.gen.n, t.gen.m) in psets[u] for u in over)}
        if s.gen.n == 0 and s.gen.m % 2 == 0:
            # <(0, 2k)> lies in every <(r, 1)>, so condition (M) fails here
            assert maximal == glides and maximal_containing(s) is None, s.gen
        else:
            assert maximal == {maximal_containing(s)}, s.gen


BIG = 10**30
big_coords = st.integers(-BIG, BIG)


@given(big_coords, big_coords)
@example(BIG, 0)
@example(-BIG, 0)
@example(0, BIG)
@example(0, -BIG - 1)
@example(6 * BIG, 4 * BIG)
def test_maximal_containing_at_scale(n, m):
    if n == 0 and m == 0:
        return
    s = subgroup(n, m)
    big = maximal_containing(s)
    if s.gen.n == 0 and s.gen.m % 2 == 0:
        # <(0, 2k)> lies in every <(r, 1)>: no unique maximal overgroup
        assert big is None
        return
    assert contains(big, s.gen)
    g = big.gen
    if s.gen.m % 2:
        assert g.m == 1
    else:
        # primitive even generator; the horizontal one is an end of the
        # same formula
        assert g.m % 2 == 0 and gcd(abs(g.n), g.m // 2) == 1
        if s.gen.m == 0:
            assert big == subgroup(1, 0)


@given(big_coords.filter(bool))
def test_fixed_set_of_horizontal_at_scale(n):
    assert fixed_set(subgroup(n, 0)) == FixedSetDescriptor((1, 0))


@given(st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30), st.integers(-30, 30))
def test_conj_subgroup_well_defined(t1, t2, n, m):
    if n == 0 and m == 0:
        return
    t = GroupElement(t1, t2)
    s = canonicalize(GroupElement(n, m))
    c = conj_subgroup(t, s)
    # the conjugate of the generator and of its inverse span the same subgroup
    assert c == canonicalize(power(c.gen, -1))
    assert contains(c, t * s.gen * t.inverse())


def test_conj_subgroup_example():
    assert conj_subgroup(GroupElement(0, 1), subgroup(1, 2)) == subgroup(-1, 2)
    assert conj_subgroup(GroupElement(1, 1), subgroup(3, 1)) == subgroup(-1, 1)
    assert conj_subgroup(GroupElement(5, 2), subgroup(0, 2)) == subgroup(0, 2)


def test_class_conjugation_invariant():
    for g in canonical_gens(4):
        s = CyclicSubgroup(g)
        for t1 in range(-3, 4):
            for t2 in range(-3, 4):
                t = GroupElement(t1, t2)
                assert comm_class(conj_subgroup(t, s)) == comm_class(s)


def test_commensurator_kinds():
    assert commensurator(comm_class(subgroup(1, 0))) == "whole-group"
    assert commensurator(comm_class(subgroup(2, 1))) == "whole-group"
    assert commensurator(comm_class(subgroup(0, 2))) == "whole-group"
    assert commensurator(comm_class(subgroup(1, 2))) == "translation-subgroup"


def test_commensurator_membership_oracle():
    # t normalizes the class of s exactly when conjugation by t
    # preserves the class: every t for the whole group, and exactly the
    # translations (even t.m) for the translation subgroup
    for g in canonical_gens(4):
        s = CyclicSubgroup(g)
        com = commensurator(comm_class(s))
        for t1 in range(-3, 4):
            for t2 in range(-3, 4):
                t = GroupElement(t1, t2)
                preserves = commensurable(conj_subgroup(t, s), s)
                assert (com == "whole-group" or t.m % 2 == 0) == preserves, (g, t)


def test_translation_commensurator_contents():
    # the translations keep a flat class, and a glide flips it
    flat = subgroup(1, 2)
    assert commensurator(comm_class(flat)) == "translation-subgroup"
    for t in (GroupElement(5, 4), GroupElement(-1, 0)):
        assert commensurable(conj_subgroup(t, flat), flat)
    assert not commensurable(conj_subgroup(GroupElement(0, 1), flat), flat)
    assert commensurator(comm_class(subgroup(0, 2))) == "whole-group"


def test_family_membership():
    # the family's kind and anchor are CLI records, pinned in test_cli.py
    fam_h = comm_class(subgroup(3, 0))
    assert family_contains(fam_h, subgroup(7, 0))
    assert not family_contains(fam_h, subgroup(1, 2))
    assert not family_contains(fam_h, subgroup(0, 2))

    fam_k = comm_class(subgroup(3, 1))
    assert family_contains(fam_k, subgroup(-2, 5))
    assert family_contains(fam_k, subgroup(0, 2))
    assert family_contains(fam_k, subgroup(0, 4))
    assert not family_contains(fam_k, subgroup(1, 2))
    assert not family_contains(fam_k, subgroup(1, 0))

    fam_r = comm_class(subgroup(2, 4))
    assert family_contains(fam_r, subgroup(3, 6))
    assert family_contains(fam_r, subgroup(1, 2))
    assert not family_contains(fam_r, subgroup(1, 4))
    # keyed by the representative's direction: <(-1, 2)> is in the class
    # of <(1, 2)>, not in its family
    assert fam_r == comm_class(subgroup(-1, 2))
    assert not family_contains(fam_r, subgroup(-1, 2))


def test_families_closed_under_subgroups_and_conjugation():
    subs = [CyclicSubgroup(g) for g in canonical_gens(4)]
    families = [comm_class(s) for s in
                (subgroup(1, 0), subgroup(0, 2), subgroup(1, 2), subgroup(3, 2))]
    for fam in families:
        for s in subs:
            if not family_contains(fam, s):
                continue
            for k in (2, 3):
                assert family_contains(fam, canonicalize(power(s.gen, k)))
            for t in (GroupElement(1, 0), GroupElement(0, 1), GroupElement(2, 3)):
                if 0 not in fam.direction and t.m % 2:
                    # odd conjugators flip an R direction out of its own family
                    continue
                assert family_contains(fam, conj_subgroup(t, s))


def test_families_are_equal_exactly_when_their_members_agree():
    subs = canonical_subgroups(6)
    families = {comm_class(s) for s in subs}
    # every direction whose maximal translations lie on the grid
    families |= {CommClass((p, q)) for p in range(4) for q in range(4)
                 if gcd(p, q) == 1}
    families = sorted(families, key=lambda f: f.direction)
    members = [tuple(family_contains(f, s) for s in subs) for f in families]
    for f, fm in zip(families, members):
        for g, gm in zip(families, members):
            assert (f == g) == (fm == gm), (f, g)


# A second route, by parity cases: a glide squares into the vertical
# line, so the glides and the vertical even subgroups all mesh, and two
# even generators mesh iff parallel.
def _odd_or_vertical(g):
    return g.m % 2 == 1 or g.n == 0


def parity_commensurable(s, t):
    g, h = s.gen, t.gen
    if g.m % 2 or h.m % 2:
        return _odd_or_vertical(g) and _odd_or_vertical(h)
    return g.n * h.m == h.n * g.m


def gcd_maximal_containing(s):
    n, m = s.gen.n, s.gen.m
    if m % 2:
        return subgroup(n, 1)
    if n == 0:
        return None
    d = gcd(abs(n), m // 2)
    return subgroup(n // d, m // d)


def case_analysis_anchor(s):
    """The subgroup the family of s's class is commensurable into: the
    vertical <(0, 2)> for the odd/vertical class, else the maximal
    overgroup with its first coordinate made nonnegative."""
    if _odd_or_vertical(s.gen):
        return subgroup(0, 2)
    g = gcd_maximal_containing(s).gen
    return subgroup(abs(g.n), g.m)


small_factors = st.integers(-6, 6).filter(bool)


@st.composite
def subgroup_pairs(draw):
    """A subgroup with coordinates up to 10**30 and a second one that is
    unrelated, parallel to it, mirrored, or one of its powers."""
    n, m = draw(big_coords), draw(big_coords)
    assume((n, m) != (0, 0))
    d, k = gcd(n, m), draw(small_factors)
    how = draw(st.sampled_from(["any", "parallel", "mirror", "power"]))
    if how == "any":
        n2, m2 = draw(big_coords), draw(big_coords)
    elif how == "power":
        g = power(GroupElement(n, m), k)
        n2, m2 = g.n, g.m
    else:
        n2, m2 = (k if how == "parallel" else -k) * n // d, k * m // d
    assume((n2, m2) != (0, 0))
    return subgroup(n, m), subgroup(n2, m2)


@given(subgroup_pairs())
@example((subgroup(BIG, 0), subgroup(-3 * BIG, 0)))
@example((subgroup(0, 2 * BIG), subgroup(BIG, 2 * BIG + 1)))
@example((subgroup(6 * BIG, 4 * BIG), subgroup(-3, 2)))
@example((subgroup(2 * BIG, 3 * BIG), subgroup(4, 6)))
def test_direction_key_matches_the_case_analysis_at_scale(pair):
    s, t = pair
    mirror = subgroup(-t.gen.n, t.gen.m)
    assert commensurable(s, t) == parity_commensurable(s, t)
    assert (comm_class(s) == comm_class(t)) == (
        parity_commensurable(s, t) or parity_commensurable(s, mirror))
    anchor = case_analysis_anchor(s)
    assert family_contains(comm_class(s), t) == parity_commensurable(t, anchor)
    assert maximal_containing(s) == gcd_maximal_containing(s)
    assert maximal_containing(t) == gcd_maximal_containing(t)
