"""Fixtures shared by the test modules."""

import copy
import dataclasses
import pickle

import pytest

from kleingroup import kunneth_join, kunneth_product


def _assert_same_value(built, public):
    """``built``, the result of a library operation, cannot be told apart
    from ``public``, made by the public constructor from the same fields."""
    assert type(built) is type(public)
    assert built == public
    assert hash(built) == hash(public)
    assert repr(built) == repr(public)
    names = [f.name for f in dataclasses.fields(public)]
    assert [type(getattr(built, n)) for n in names] == \
        [type(getattr(public, n)) for n in names]
    for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert type(copied) is type(public)
        assert copied == public
        assert hash(copied) == hash(public)
    for n in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, n, getattr(public, n))


@pytest.fixture(scope="session")
def same_value():
    # session scope, so hypothesis tests may take it
    return _assert_same_value


def _join_sequence_check(hx, hy) -> list[dict]:
    """Consistency of the join against the product, degree by degree.

    The join, the product and the wedge-like sum of the factors sit in a
    short exact sequence; in each degree n >= 1 the reduced groups must
    satisfy join(n+1) + (X(n) + Y(n)) = product(n), which pins the rank
    of the join by subtraction.  Returns one record per degree.
    """
    assert hx.reduced and hy.reduced, "the sequence check takes reduced homologies"
    hj = kunneth_join(hx, hy)
    hprod = kunneth_product(hx.to_unreduced(), hy.to_unreduced()).to_reduced()
    out = []
    for n in range(1, max(hj.top_degree, hprod.top_degree + 1) + 1):
        ends = hx[n].direct_sum(hy[n])
        out.append(
            {
                "degree": n,
                "rank_ok": hj[n + 1].rank == hprod[n].rank - ends.rank,
                "split_ok": hj[n + 1].direct_sum(ends) == hprod[n],
            }
        )
    return out


@pytest.fixture(scope="session")
def join_sequence_check():
    return _join_sequence_check
