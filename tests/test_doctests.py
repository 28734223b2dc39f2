"""The docstring examples of every kleingroup module run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import kleingroup

MODULES = ["kleingroup"] + [
    f"kleingroup.{m.name}" for m in pkgutil.iter_modules(kleingroup.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, result
