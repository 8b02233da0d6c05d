"""The package's public names, and the modules its import loads."""

import importlib
import subprocess
import sys
from pathlib import Path

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


# Modules `dataclasses` pulls in, which `import jkn` leaves unloaded
NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_import_loads_no_dataclasses():
    """A fresh interpreter without `site` imports `jkn` and `jkn.cli`
    without loading `dataclasses` or what it imports; the records read as
    dataclasses once `dataclasses` is imported by the caller."""
    src = Path(jkn.__file__).resolve().parent.parent
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import jkn, jkn.cli; "
        f"print(sorted(set({NOT_LOADED!r}) & set(sys.modules))); "
        "import dataclasses; "
        "print([f.name for f in dataclasses.fields(jkn.LatticeVector)])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == ["[]", "['params', 'x']"]
