"""Exact arithmetic for the simply laced root systems J(k,n).

J(k,n) lives in the sublattice of Z^n where the coordinate sum is
divisible by k, with the quadratic form q(x) = sum x_i^2 + (2-k) d^2
for d = (sum x_i)/k.  The package classifies lattice vectors (real,
almost real, or neither), enumerates orbit classes degree by degree,
computes fundamental weights for the finite types, and builds the named
root families that organize the infinite cases.

The public names are each submodule's ``__all__`` and the three error
types.
"""

# The modules are bound before the star imports, which rebind `classify`
# from the submodule to the function of that name.
from . import classify as _classify
from . import cluster as _cluster
from . import enumeration as _enumeration
from . import families as _families
from . import lattice as _lattice
from . import weyl as _weyl
from .classify import *  # noqa: F401,F403
from .cluster import *  # noqa: F401,F403
from .enumeration import *  # noqa: F401,F403
from .errors import ContractError, NotInLatticeError, ResourceLimitError
from .families import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .weyl import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["ContractError", "NotInLatticeError", "ResourceLimitError"]
for _module in (_classify, _cluster, _enumeration, _families, _lattice, _weyl):
    __all__ += _module.__all__
del _module
