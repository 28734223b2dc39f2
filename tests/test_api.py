"""The package namespace: each library module's ``__all__`` is the one
list of its public names, and the package re-exports exactly those."""

import importlib

import kleingroup

LIBRARY = ["abelian", "core", "homology", "isotropy", "models", "plane",
           "simplicial", "snf", "subgroups", "verify"]


def test_package_exports_each_module_list_once():
    names = []
    for module in LIBRARY:
        mod = importlib.import_module(f"kleingroup.{module}")
        for name in mod.__all__:
            assert getattr(kleingroup, name) is getattr(mod, name), name
        names += mod.__all__
    assert len(names) == len(set(names))
    assert kleingroup.__all__ == names
