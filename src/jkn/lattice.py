"""Root lattice of the system J(k,n) in exact integer arithmetic.

The root system J(k,n) is the simply-laced system with T-shaped diagram
T(2, k, n-k-2); it specializes to A_n (k=1), D_n (k=2) and E_n (k=3).
Its root lattice embeds in Z^n as

    ZDelta = { x in Z^n : k divides x_1 + ... + x_n },

spanned by the simple roots

    alpha_i = e_{i+1} - e_i   (1 <= i <= n-1),
    beta    = e_1 + ... + e_k,

where beta is the branch node of the diagram.  The degree of x is the
coefficient of beta, which in coordinates is (x_1 + ... + x_n) / k.  The
quadratic form is

    q(x) = x_1^2 + ... + x_n^2 + (2 - k) * deg(x)^2,

an integer for every lattice element.  Everything in this module is exact
integer arithmetic.  The contraction walk's window, degree d >= 1 and every
entry in [0, d], is checked here once, by `_window`, for each caller; so
are integer arguments, by `_ints` (a degree by `_admitted_degree`), and
SystemParams arguments, by `_require_params`, and LatticeVector arguments,
by `_require_vector`.

Every record of the package is declared with `_record` on the base
`_Record`: a slots dataclass whose ``__repr__``, ``__eq__``, ``__hash__``,
frozen ``__setattr__``/``__delattr__`` and pickling state are written once,
in `_Record`, instead of compiled by `dataclasses` for each class at each
import.  They behave as a frozen dataclass's do, and `dataclasses.fields`,
`dataclasses.replace` and `dataclasses.is_dataclass` work as before; only
``__dataclass_params__`` tells them apart, reading ``eq``, ``frozen`` and
``repr`` as False.  Each record is written through one store, which
`_record` compiles and binds as ``_store``: it is the ``__init__`` of a
record of proved values, and the last call of a checking ``__init__``, of
`_trusted` and of unpickling.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import index, neg
from reprlib import recursive_repr
from typing import Callable, Iterable, Sequence

from .errors import ContractError, NotInLatticeError

__all__ = [
    "SystemParams",
    "LatticeVector",
    "RootCoefficients",
    "degree",
    "q",
    "inner",
    "to_root_basis",
    "from_root_basis",
    "beta_vector",
    "simple_root",
]


class _Record:
    """The methods every record shares, read from its class's field names
    ``_names``: a frozen dataclass's ``__repr__``, ``__eq__``, ``__hash__``,
    ``__setattr__`` and ``__delattr__``, with the same results, and its
    pickling state, the list of field values, written back through the
    class's ``_store``."""

    __slots__ = ()
    _names: tuple[str, ...]
    _store: Callable[..., None]

    @recursive_repr()
    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({body})"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> list:
        return list(self._values())

    def __setstate__(self, state: list) -> None:
        self._store(*state)


def _record(cls: type) -> type:
    """The `_Record` subclass ``cls`` as a slots dataclass of its annotated
    fields, for which `dataclasses` compiles no method; its field names are
    bound as ``_names`` and its store as ``_store``.

    The store is the one place a record is written: an ``__init__`` that
    takes the fields in order, with their defaults, and stores each through
    its slot's member descriptor, unchecked.  The frozen ``__setattr__``
    refuses the store, and going round it through ``object`` costs about
    twice as much.  A class body without an ``__init__``, a record of proved
    values, takes the store as its ``__init__``; a checking ``__init__``
    ends by calling it, `_trusted` calls it without the checks, and
    unpickling writes the state through it.  Like the ``__init__``
    `dataclasses` writes, it is compiled from the field names alone; the
    defaults are bound as objects."""
    own_init = "__init__" in cls.__dict__
    cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
    declared = fields(cls)
    cls._names = names = tuple(f.name for f in declared)
    namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    stores = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):{stores}", namespace)
    store = cls._store = namespace["__init__"]
    defaults = tuple(f.default for f in declared if f.default is not MISSING)
    store.__defaults__ = defaults or None
    store.__qualname__ = f"{cls.__qualname__}.__init__"
    store.__module__ = cls.__module__
    store.__annotations__ = {name: cls.__annotations__[name] for name in names}
    store.__annotations__["return"] = None
    if not own_init:
        cls.__init__ = store
    return cls


@_record
class SystemParams(_Record):
    """Parameters (k, n) of a system J(k,n).

    1 <= k <= n, and every entry point accepts k = n.  J(n,n) is
    A_{n-1} x A_1: beta is orthogonal to every alpha_i, so beta is its only
    positive root of nonzero degree.  Minimal-support stripping reduces beta
    itself to the core (1) of J(1,1).

    k and n are admitted as a vector's entries are, through
    ``operator.index``: ints, bools (stored as ints) and numpy integers
    pass, floats and strings do not.
    """

    k: int
    n: int

    def __init__(self, k: int, n: int) -> None:
        # plain ints pass as they are, without the slower `_ints`
        if k.__class__ is not int or n.__class__ is not int:
            k, n = _ints("k and n", (k, n))
        if not 1 <= k <= n:
            raise ContractError(f"require 1 <= k <= n, got k={k}, n={n}")
        self._store(k, n)

    def __str__(self) -> str:
        return f"J({self.k},{self.n})"


@_record
class LatticeVector(_Record):
    """Element of ZDelta in the coordinates (x_1, ..., x_n).

    Construction checks that ``params`` is a SystemParams, turns the
    entries into a tuple of ints (bools and numpy integers pass, floats and
    strings do not), checks the length and lattice membership (k | sum of
    entries), and stores the fields through the `_record` store.
    `_trusted` calls the same store without the checks, for a vector the
    library has proved to lie in the lattice: a negation, the vectors of a
    trace's steps (built on each read), an orbit representative built from
    its signature, and the entries `classify_entries` has checked.  Every
    vector from a caller is checked.
    """

    params: SystemParams
    x: tuple[int, ...]

    def __init__(self, params: SystemParams, x: tuple[int, ...]) -> None:
        x = _admit(params, x)
        if sum(x) % params.k != 0:
            raise NotInLatticeError(
                f"coordinate sum {sum(x)} is not divisible by k={params.k}"
            )
        self._store(params, x)

    def __neg__(self) -> "LatticeVector":
        # the negation of a lattice vector is a lattice vector
        return _trusted(self.params, tuple(map(neg, self.x)))

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        _require_same_params(self, other)
        return LatticeVector(
            self.params, tuple(a + b for a, b in zip(self.x, other.x))
        )

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        _require_same_params(self, other)
        return LatticeVector(
            self.params, tuple(a - b for a, b in zip(self.x, other.x))
        )

    def as_json_dict(self) -> dict:
        return {"k": self.params.k, "n": self.params.n, "x": list(self.x)}


@_record
class RootCoefficients(_Record):
    """The same lattice element written in the simple-root basis.

    `m_beta` is the coefficient of beta (the degree); `m` holds the
    coefficients of alpha_1, ..., alpha_{n-1}.  Every integer tuple is a
    lattice element in this basis, so beyond shape the coefficients are
    only admitted as a vector's entries are, through ``operator.index``.
    """

    params: SystemParams
    m_beta: int
    m: tuple[int, ...]

    def __init__(self, params: SystemParams, m_beta: int, m: tuple[int, ...]) -> None:
        _require_params(params)
        what = "root coefficients"
        (m_beta,), m = _ints(what, (m_beta,)), _ints(what, m)
        if len(m) != params.n - 1:
            raise ContractError(
                f"expected {params.n - 1} alpha coefficients, got {len(m)}"
            )
        self._store(params, m_beta, m)

    def as_json_dict(self) -> dict:
        return {
            "k": self.params.k,
            "n": self.params.n,
            "m_beta": self.m_beta,
            "m": list(self.m),
        }


def _trusted(
    params: SystemParams,
    x: tuple[int, ...],
    _new: Callable[[type], object] = object.__new__,
    _cls: type = LatticeVector,
    _store: Callable[..., None] = LatticeVector._store,
) -> LatticeVector:
    """A vector of ints the caller has proved to be in J(params)'s lattice;
    nothing is checked, and the fields go straight into their slots through
    the class's `_record` store.  The class and its store are bound here, at
    import: the benchmark's tracer rebinds the name `LatticeVector` to a
    wrapper function."""
    v = _new(_cls)
    _store(v, params, x)
    return v


def _require_params(params: object) -> None:
    """ContractError unless ``params`` is a SystemParams.  Every entry that
    takes one reaches it before reading k or n: the checked records and
    `classify_entries` through `_admit`, `affine_family`, `beta_vector` and
    generic orbits through `_extended`, the finite-type functions through
    `families.definiteness_margin`, and the rest directly."""
    if not isinstance(params, SystemParams):
        raise ContractError(
            f"params must be a SystemParams, got {type(params).__name__}"
        )


def _require_vector(v: object, _cls: type = LatticeVector) -> None:
    """ContractError unless ``v`` is a LatticeVector.  Every entry that
    takes one reaches it before reading a field: through `degree` (so `q`,
    `to_root_basis`, the structural maps of `families` and `_window`, the
    walk's window), through `_require_same_params`, or directly (`classify`,
    each `weyl` entry); `classify_entries` builds its own vector and never
    does.  The class is bound at import, as `_trusted` binds it."""
    if not isinstance(v, _cls):
        raise ContractError(
            f"vector must be a LatticeVector, got {type(v).__name__}"
        )


def _require_same_params(u: LatticeVector, v: LatticeVector) -> None:
    _require_vector(u)
    _require_vector(v)
    if u.params != v.params:
        raise ContractError(f"mismatched system parameters {u.params} vs {v.params}")


def degree(v: LatticeVector) -> int:
    """Coefficient of beta: (x_1 + ... + x_n) / k, always exact."""
    _require_vector(v)
    return sum(v.x) // v.params.k


def q(v: LatticeVector) -> int:
    """The quadratic form q(x) = sum x_i^2 + (2 - k) deg(x)^2."""
    d = degree(v)
    return sum(c * c for c in v.x) + (2 - v.params.k) * d * d


def inner(u: LatticeVector, v: LatticeVector) -> int:
    """Polarization of q: B(u,v) = sum u_i v_i + (2 - k) deg(u) deg(v)."""
    _require_same_params(u, v)
    k = u.params.k
    du = sum(u.x) // k
    dv = sum(v.x) // k
    return sum(a * b for a, b in zip(u.x, v.x)) + (2 - k) * du * dv


def to_root_basis(v: LatticeVector) -> RootCoefficients:
    """Rewrite x in the simple-root basis.

    With d = deg(x), the coefficient of alpha_j is

        m_j = j*d - (x_1 + ... + x_j)    for j <= k-1,
        m_j = x_{j+1} + ... + x_n        for j >= k,

    and the coefficient of beta is d itself.
    """
    d = degree(v)
    k, x = v.params.k, v.x
    m = []
    prefix = 0
    total = k * d
    for j in range(1, len(x)):
        prefix += x[j - 1]
        m.append(j * d - prefix if j < k else total - prefix)
    return RootCoefficients(v.params, d, tuple(m))


def _admitted_degree(what: str, d: int, least: int = 1) -> int:
    """The degree d as an int, admitted as a vector's entries are (through
    ``operator.index``), or ContractError naming ``what`` when it is not an
    integer or is below ``least``."""
    try:
        d = index(d)
    except TypeError:
        raise ContractError(f"{what} requires an integer degree") from None
    if d < least:
        raise ContractError(f"{what} requires degree >= {least}, got {d}")
    return d


def _window(what: str, v: LatticeVector) -> int:
    """The degree d of v when d >= 1 and every entry lies in [0, d], the
    window the walk keeps; otherwise ContractError naming ``what``."""
    d = _admitted_degree(what, degree(v))
    if min(v.x) < 0 or max(v.x) > d:
        raise ContractError(f"{what} requires entries in [0, {d}] (the degree)")
    return d


def _extended(
    what: str, core: tuple[int, ...], k_min: int, d: int, params: SystemParams
) -> tuple[int, ...]:
    """The degree-d entries ``core`` of J(k_min, len(core)) carried into
    J(params): k - k_min leading d's and trailing zeros, the extensions that
    keep the degree and q.  ContractError names ``what`` when the core does
    not fit."""
    _require_params(params)
    k, n = params.k, params.n
    n_min = len(core)
    if k < k_min or n - k < n_min - k_min:
        raise ContractError(
            f"{what} needs k >= {k_min} and n - k >= {n_min - k_min}, got {params}"
        )
    return (d,) * (k - k_min) + core + (0,) * (n - k - n_min + k_min)


def _stripped(x: tuple, k: int, m_d: int, m_0: int) -> tuple[int, tuple]:
    """The inverse of `_extended`: (k_min, core) for non-increasing degree-d
    entries x in [0, d] of J(k, len(x)), with m_d d's and m_0 zeros, which
    are its leading and its trailing entries: the zeros dropped, then
    leading d's while k > 1."""
    start = min(m_d, k - 1)
    return k - start, x[start : len(x) - m_0]


def from_root_basis(c: RootCoefficients) -> LatticeVector:
    """Inverse of :func:`to_root_basis`.

    x_i picks up m_beta on the first k coordinates and the telescoping
    difference m_{i-1} - m_i from the chain of alphas.
    """
    k, n = c.params.k, c.params.n
    x = []
    for i in range(1, n + 1):
        coeff = c.m_beta if i <= k else 0
        if i >= 2:
            coeff += c.m[i - 2]
        if i <= n - 1:
            coeff -= c.m[i - 1]
        x.append(coeff)
    return LatticeVector(c.params, tuple(x))


def beta_vector(params: SystemParams) -> LatticeVector:
    """beta = e_1 + ... + e_k: the core (1) of J(1,1), extended."""
    return LatticeVector(params, _extended("beta", (1,), 1, 1, params))


def simple_root(params: SystemParams, i: int) -> LatticeVector:
    """alpha_i = e_{i+1} - e_i for 1 <= i <= n-1."""
    _require_params(params)
    (i,) = _ints("alpha indices", (i,))
    if not 1 <= i <= params.n - 1:
        raise ContractError(f"alpha index must be in 1..{params.n - 1}, got {i}")
    x = [0] * params.n
    x[i - 1] = -1
    x[i] = 1
    return LatticeVector(params, tuple(x))


def _admit(params: SystemParams, entries: Sequence[int]) -> tuple[int, ...]:
    """Entries as a tuple of n ints, or ContractError; lattice membership is
    the caller's to check.

    Python ints, bools and numpy integers pass (`_ints`); floats, even
    integral ones, and strings do not.  ``params`` must be a SystemParams.
    """
    _require_params(params)
    x = _ints("coordinates", entries)
    if len(x) != params.n:
        raise ContractError(f"expected {params.n} coordinates, got {len(x)}")
    return x


def _ints(
    what: str, values: Iterable, admit: Callable[[object], object] = index
) -> tuple:
    """``values`` as a tuple, each admitted through ``operator.index`` (or
    ``admit``), so that ints, bools and integer types with ``__index__``
    pass; ContractError "{what} must be integers" for anything else,
    ``values`` itself not iterable included."""
    try:
        return tuple(map(admit, values))
    except TypeError:
        raise ContractError(f"{what} must be integers") from None
