"""The package's public names."""

import importlib

import jkn

SUBMODULES = ("classify", "cluster", "enumeration", "families", "lattice", "weyl")
ERRORS = {"ContractError", "NotInLatticeError", "ResourceLimitError"}


def test_public_names_agree():
    """`jkn.__all__` is the union of the submodules' `__all__` and the three
    error types, with no repeats, and each name is the submodule's own
    object (`jkn.classify` is the function, not the module)."""
    names = set(ERRORS)
    for module in SUBMODULES:
        sub = importlib.import_module(f"jkn.{module}")
        assert len(set(sub.__all__)) == len(sub.__all__), module
        names.update(sub.__all__)
        for name in sub.__all__:
            assert getattr(jkn, name) is getattr(sub, name), name
    errors = importlib.import_module("jkn.errors")
    for name in ERRORS:
        assert getattr(jkn, name) is getattr(errors, name), name
    assert len(set(jkn.__all__)) == len(jkn.__all__)
    assert set(jkn.__all__) == names
