"""The package's public names."""

import importlib

import jkn

SUBMODULES = ("classify", "cluster", "enumeration", "families", "lattice", "weyl")
ERRORS = {"ContractError", "NotInLatticeError", "ResourceLimitError"}


def test_public_names_agree():
    """`jkn.__all__` is the union of the submodules' `__all__` and the three
    error types, with no repeats, and every name in it resolves."""
    names = set(ERRORS)
    for module in SUBMODULES:
        public = importlib.import_module(f"jkn.{module}").__all__
        assert len(set(public)) == len(public), module
        names.update(public)
    assert len(set(jkn.__all__)) == len(jkn.__all__)
    assert set(jkn.__all__) == names
    for name in jkn.__all__:
        assert getattr(jkn, name) is not None, name
