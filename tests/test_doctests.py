"""The docstring examples of every kleingroup module and the README's
quick tour run as tests."""

import doctest
import importlib
import pathlib
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


def test_readme_examples():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0, result
    assert result.attempted > 0
