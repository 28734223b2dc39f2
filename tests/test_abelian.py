"""Abelian group normal form, sums, tensor/Tor, graded sequences."""

import json
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleingroup import TRIVIAL, Z, Z2, AbelianGroup, GradedGroups
from kleingroup.cli import _ENCODER

groups = st.builds(
    AbelianGroup.from_moduli,
    st.integers(0, 4),
    st.lists(st.integers(2, 24), max_size=4),
)


def test_normal_form():
    assert AbelianGroup.from_moduli(0, [4, 6]) == AbelianGroup(0, (2, 12))
    assert AbelianGroup.from_moduli(2, [1, 1]) == AbelianGroup(2)
    assert AbelianGroup.from_moduli(0, [2, 3]) == AbelianGroup(0, (6,))
    assert AbelianGroup.from_moduli(0, []) == TRIVIAL
    # trial-division factoring hung on this product of two Mersenne primes
    semiprime = (2**61 - 1) * (2**89 - 1)
    assert AbelianGroup.from_moduli(0, [semiprime]) == AbelianGroup(0, (semiprime,))


def test_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 2))  # not a chain
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    # a zero factor is named as such, not met by the divisibility check
    for torsion in ((0, 2), (0, 0)):
        with pytest.raises(ValueError, match="torsion factors must be >= 2"):
            AbelianGroup(0, torsion)


@pytest.mark.parametrize("rank, torsion", [
    (1.5, ()),
    (True, ()),
    (1, (2.0,)),
    (True, (2.0,)),
    (0, (True,)),
    (0, (2, 4.0)),
])
def test_rejects_inexact_ints(rank, torsion):
    with pytest.raises(TypeError):
        AbelianGroup(rank, torsion)


def test_direct_sum():
    assert Z.direct_sum(Z2) == AbelianGroup(1, (2,))
    assert Z2.direct_sum(Z2) == AbelianGroup(0, (2, 2))
    a = AbelianGroup(0, (4,))
    b = AbelianGroup(0, (6,))
    assert a.direct_sum(b) == AbelianGroup(0, (2, 12))
    assert TRIVIAL.direct_sum(a) == a


def test_tensor_table():
    assert Z.tensor(Z) == Z
    assert Z.tensor(Z2) == Z2
    assert Z2.tensor(Z2) == Z2
    assert AbelianGroup(0, (4,)).tensor(AbelianGroup(0, (6,))) == AbelianGroup(0, (2,))
    assert AbelianGroup(2).tensor(AbelianGroup(3)) == AbelianGroup(6)
    assert TRIVIAL.tensor(Z) == TRIVIAL
    got = AbelianGroup(1, (2,)).tensor(AbelianGroup(1, (4,)))
    assert got == AbelianGroup(1, (2, 2, 4))


def test_tor_table():
    assert Z.tor(Z2) == TRIVIAL
    assert Z2.tor(Z) == TRIVIAL
    assert Z2.tor(Z2) == Z2
    assert AbelianGroup(0, (4,)).tor(AbelianGroup(0, (6,))) == AbelianGroup(0, (2,))
    assert AbelianGroup(3).tor(AbelianGroup(0, (5,))) == TRIVIAL


@given(groups, groups)
def test_sum_and_tensor_commute(a, b):
    assert a.direct_sum(b) == b.direct_sum(a)
    assert a.tensor(b) == b.tensor(a)
    assert a.tor(b) == b.tor(a)


@given(groups, groups, groups)
def test_tensor_distributes_over_sum(a, b, c):
    lhs = a.tensor(b.direct_sum(c))
    rhs = a.tensor(b).direct_sum(a.tensor(c))
    assert lhs == rhs


@given(groups)
def test_units(a):
    assert a.tensor(Z) == a
    assert a.direct_sum(TRIVIAL) == a
    assert a.tor(Z) == TRIVIAL


def test_str_forms():
    assert str(TRIVIAL) == "0"
    assert str(Z) == "Z"
    assert str(AbelianGroup(2)) == "Z^2"
    assert str(AbelianGroup(1, (2,))) == "Z + Z_2"
    assert str(AbelianGroup(0, (2, 2, 4))) == "Z_2^2 + Z_4"


def test_graded_normalization():
    g = GradedGroups((Z, Z2, TRIVIAL, TRIVIAL))
    assert g.top_degree == 1
    assert g[0] == Z and g[1] == Z2 and g[5] == TRIVIAL
    assert g == GradedGroups((Z, Z2))


def test_graded_iteration_stops_at_the_top_degree():
    # islice bounds each read, so an iteration that never ends fails here
    # instead of hanging; h[n] past the top is TRIVIAL without end
    for h, degrees in [
        (GradedGroups((Z, Z2)), [Z, Z2]),
        (GradedGroups((Z, TRIVIAL, Z2, TRIVIAL)), [Z, TRIVIAL, Z2]),
        (GradedGroups(()), [TRIVIAL]),
        (GradedGroups((), reduced=True), [TRIVIAL]),
    ]:
        assert list(islice(h, 100)) == degrees
        assert list(h) == degrees
        assert (TRIVIAL in h) == (TRIVIAL in degrees)


def test_graded_validation():
    for groups in ([1, 2], (Z, 0), (Z, "Z"), (None,), ((1, ()),)):
        with pytest.raises(TypeError, match="groups must be AbelianGroup values"):
            GradedGroups(groups)
    for reduced in ("yes", 1, 0, None):
        with pytest.raises(TypeError, match="reduced must be a bool"):
            GradedGroups((Z,), reduced=reduced)
    # any iterable of groups is kept as a tuple
    assert GradedGroups([Z, Z2]) == GradedGroups((Z, Z2))


def test_graded_reduction_round_trip():
    g = GradedGroups((AbelianGroup(1), AbelianGroup(1, (2,))))
    r = g.to_reduced()
    assert r.reduced and r[0] == TRIVIAL
    assert r.to_unreduced() == g
    with pytest.raises(ValueError):
        GradedGroups((TRIVIAL, Z)).to_reduced()


def test_graded_text():
    g = GradedGroups((Z, AbelianGroup(1, (2,))))
    assert g.text() == "H_0 = Z, H_1 = Z + Z_2"
    assert g.to_reduced().text() == "~H_0 = 0, ~H_1 = Z + Z_2"
    empty = GradedGroups((), reduced=True)
    assert empty.text() == "~H_0 = 0"


def test_graded_json():
    # the encoder's hook gives one level; the encoder writes the groups
    g = GradedGroups((Z, Z2))
    assert json.loads(_ENCODER.encode(g))["homology"] == {
        "reduced": False,
        "groups": {"0": {"rank": 1, "torsion": []},
                   "1": {"rank": 0, "torsion": [2]}},
    }
