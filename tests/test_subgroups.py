"""Cyclic subgroups, membership, commensurability, classes, families.

The closed forms are checked against a brute-force oracle: enumerate
actual powers of the generators out to a bound large enough to be
conclusive on the grid under test.
"""

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kleingroup import (
    CommClass,
    CyclicSubgroup,
    FixedSetDescriptor,
    GroupElement,
    SubgroupFamily,
    TRANSLATIONS,
    WHOLE_GROUP,
    canonicalize,
    class_family,
    comm_class,
    commensurable,
    commensurator,
    conj_subgroup,
    contains,
    family_contains,
    fixed_set,
    maximal_containing,
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
    assert comm_class(subgroup(5, 0)).tag == "H"
    assert comm_class(subgroup(-2, 0)).tag == "H"
    assert comm_class(subgroup(7, 3)).tag == "K"
    assert comm_class(subgroup(0, 2)).tag == "K"
    assert comm_class(subgroup(0, 8)).tag == "K"
    assert comm_class(subgroup(2, 4)) == CommClass("R", subgroup(1, 2))
    assert comm_class(subgroup(-6, 4)) == CommClass("R", subgroup(3, 2))
    assert comm_class(subgroup(4, 6)) == CommClass("R", subgroup(4, 6))


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


def test_class_invalid_construction():
    with pytest.raises(ValueError):
        CommClass("X")
    with pytest.raises(ValueError):
        CommClass("H", subgroup(1, 0))
    with pytest.raises(ValueError):
        CommClass("R")


def test_maximal_containing_examples():
    assert maximal_containing(subgroup(4, 0)) == subgroup(1, 0)
    assert maximal_containing(subgroup(-6, 3)) == subgroup(-6, 1)
    assert maximal_containing(subgroup(0, 6)) == subgroup(0, 2)
    assert maximal_containing(subgroup(6, 4)) == subgroup(3, 2)
    assert maximal_containing(subgroup(-4, 8)) == subgroup(-1, 2)


def test_maximal_containing_is_maximal_on_grid():
    # no strictly larger cyclic subgroup on the grid contains the maximal one
    subs = [CyclicSubgroup(g) for g in canonical_gens(GRID)]
    for s in subs:
        m = maximal_containing(s)
        assert contains(m, s.gen)
        for t in subs:
            if t == m:
                continue
            if contains(t, m.gen) and m.gen.m % 2 == 0 and m.gen.n != 0:
                # only the vertical envelope case admits larger subgroups
                pytest.fail(f"{t.gen} strictly contains maximal {m.gen}")


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
    assert contains(big, s.gen)
    g = big.gen
    if s.gen.m % 2:
        assert g.m == 1
    else:
        # primitive even generator; the horizontal and vertical ones are
        # the ends of the same formula
        assert g.m % 2 == 0 and gcd(abs(g.n), g.m // 2) == 1
        if s.gen.m == 0:
            assert big == subgroup(1, 0)
        if s.gen.n == 0:
            assert big == subgroup(0, 2)


@given(big_coords.filter(bool))
def test_fixed_set_of_horizontal_at_scale(n):
    assert fixed_set(subgroup(n, 0)) == FixedSetDescriptor("slope-family", slope=Fraction(0))


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
    assert commensurator(comm_class(subgroup(1, 0))) == WHOLE_GROUP
    assert commensurator(comm_class(subgroup(2, 1))) == WHOLE_GROUP
    assert commensurator(comm_class(subgroup(0, 2))) == WHOLE_GROUP
    assert commensurator(comm_class(subgroup(1, 2))) == TRANSLATIONS


def test_commensurator_membership_oracle():
    # t normalizes the class of s exactly when conjugation by t
    # preserves the class; compare against the descriptor
    for g in canonical_gens(4):
        s = CyclicSubgroup(g)
        com = commensurator(comm_class(s))
        for t1 in range(-3, 4):
            for t2 in range(-3, 4):
                t = GroupElement(t1, t2)
                preserves = commensurable(conj_subgroup(t, s), s)
                assert com.contains(t) == preserves, (g, t)


def test_translation_commensurator_contents():
    assert TRANSLATIONS.contains(GroupElement(5, 4))
    assert TRANSLATIONS.contains(GroupElement(-1, 0))
    assert not TRANSLATIONS.contains(GroupElement(0, 1))
    assert WHOLE_GROUP.contains(GroupElement(0, 1))


def test_family_membership():
    fam_h = class_family(comm_class(subgroup(3, 0)))
    assert fam_h.kind == "commensurable-into"
    assert fam_h.anchor == subgroup(1, 0)
    assert family_contains(fam_h, subgroup(7, 0))
    assert not family_contains(fam_h, subgroup(1, 2))
    assert not family_contains(fam_h, subgroup(0, 2))

    fam_k = class_family(comm_class(subgroup(3, 1)))
    assert fam_k.kind == "odd-class"
    assert family_contains(fam_k, subgroup(-2, 5))
    assert family_contains(fam_k, subgroup(0, 2))
    assert family_contains(fam_k, subgroup(0, 4))
    assert not family_contains(fam_k, subgroup(1, 2))
    assert not family_contains(fam_k, subgroup(1, 0))

    fam_r = class_family(comm_class(subgroup(2, 4)))
    assert fam_r.anchor == subgroup(1, 2)
    assert family_contains(fam_r, subgroup(3, 6))
    assert family_contains(fam_r, subgroup(1, 2))
    assert not family_contains(fam_r, subgroup(1, 4))
    assert not family_contains(fam_r, subgroup(-1, 2))


def test_families_closed_under_subgroups_and_conjugation():
    subs = [CyclicSubgroup(g) for g in canonical_gens(4)]
    families = [class_family(comm_class(s)) for s in
                (subgroup(1, 0), subgroup(0, 2), subgroup(1, 2), subgroup(3, 2))]
    for fam in families:
        for s in subs:
            if not family_contains(fam, s):
                continue
            for k in (2, 3):
                assert family_contains(fam, canonicalize(power(s.gen, k)))
            for t in (GroupElement(1, 0), GroupElement(0, 1), GroupElement(2, 3)):
                if fam.kind == "commensurable-into" and fam.anchor.gen.m % 2 == 0 \
                        and fam.anchor.gen.n != 0 and t.m % 2:
                    # odd conjugators flip an R direction out of its own family
                    continue
                assert family_contains(fam, conj_subgroup(t, s))


def test_family_invalid_construction():
    with pytest.raises(ValueError):
        SubgroupFamily("nope")
    with pytest.raises(ValueError):
        SubgroupFamily("odd-class", subgroup(0, 2))
    with pytest.raises(ValueError):
        SubgroupFamily("commensurable-into")
