"""Fixtures shared by the test modules."""

import copy
import dataclasses
import pickle

import pytest


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
