"""Vectors the library builds without re-running the constructor's checks.

A negation, the steps of a contraction walk, an orbit representative and the
entries `classify_entries` has checked are built with `lattice._trusted`.
Each is rebuilt here through the public constructor, which must accept it
and give back an equal vector of ints, and `_trusted` must keep working when
the name `LatticeVector` is rebound to a wrapper function, as the
benchmark's tracer does; so must the check that refuses what is not a
vector.  Every public record is written through one store, which the
metaclass `lattice._RecordType` compiles and binds as the class's `_store`;
`_trusted` and unpickling write through it too.  The walk's `ReductionStep`
records, the `ReductionTrace` and `Classification` that `classify` returns,
the `OrbitClass` and `GenericOrbit` records of the orbit search,
`WeightVector` and `ManinVector` take that store as their `__init__`;
`SystemParams`, `LatticeVector`, `RootCoefficients`, `WeylWord` and
`Profile` check their arguments first and then call it.  Each record the
library returns must equal the one built from freshly checked vectors, and
each of the twelve must stay a dataclass that behaves as a frozen one,
whose `__init__` keeps to its fields and their defaults and reads like a
method written in the class.  Their `__repr__`, `__eq__`, `__hash__` and
frozen setters are written once, in the base `lattice._Record`, and no
record compiles its own.  A class declared by subclassing `_Record` alone,
here, is as complete a record as the library's.  A trace's steps are built
on each read and not kept.  The two zero-step traces, of a range break
before any step and of a q violation, are shared by every result of their
kind and must behave as records of their own.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import sys
from pathlib import Path

import pytest

from jkn import (
    Classification,
    ContractError,
    GenericOrbit,
    LatticeVector,
    ManinVector,
    OrbitClass,
    Profile,
    ReductionStep,
    ReductionTrace,
    RootCoefficients,
    SystemParams,
    TerminalKind,
    WeightVector,
    WeylWord,
    affine_delta,
    apply_word,
    canonical_profile,
    classify,
    classify_entries,
    cyclic_permutations,
    degree,
    delta_family,
    enumerate_generic,
    enumerate_orbits,
    format_word,
    from_root_basis,
    fundamental_weights,
    gamma,
    is_canonical,
    is_weakly_column_decreasing,
    parse_word,
    phi,
    reduce_trace,
    to_manin,
    to_root_basis,
)
from jkn.classify import _walk
from jkn.lattice import _Record, _RecordType, _trusted

from conftest import entries_walk

GOLDEN = Path(__file__).parent / "golden"
DEEP = (gamma(300, SystemParams(3, 602)), delta_family(300, SystemParams(301, 602)))


def _recheck(v):
    assert type(v) is LatticeVector and type(v.x) is tuple
    assert all(type(c) is int for c in v.x)
    assert LatticeVector(v.params, v.x) == v


def _recheck_trace(trace):
    for step in trace.steps:
        _recheck(step.before_sort)
        _recheck(step.sorted)


def _orbit_classes():
    for n in range(2, 11):
        for k in range(1, n):
            for d in range(1, 7):
                yield from enumerate_orbits(SystemParams(k, n), d)


def _representatives():
    return (oc.representative for oc in _orbit_classes())


def _generic_orbits():
    for d in range(1, 9):
        yield from enumerate_generic(d)


def test_orbit_representatives_pass_the_checks():
    for v in _representatives():
        _recheck(v)


def test_deep_trace_vectors_pass_the_checks():
    for v in DEEP:
        for trace in (reduce_trace(v), classify(v).trace, classify_entries(v.params, v.x).trace):
            assert trace.steps
            _recheck_trace(trace)


def test_negated_entries_pass_the_checks():
    """A negative-degree input reaches the walk through `classify_entries`'
    unchecked vector and its negation, both step 0 of the mirrored trace."""
    for v in (*_representatives(), *DEEP):
        c = classify_entries(v.params, tuple(-e for e in v.x))
        assert c.degree == -degree(v)
        assert c.trace.steps[0].before_sort == v
        _recheck_trace(c.trace)


def _traces(v):
    """Every trace the library returns for v and for its negation."""
    yield reduce_trace(v)
    yield classify(v).trace
    yield classify_entries(v.params, v.x).trace
    yield classify(-v).trace
    yield classify_entries(v.params, tuple(-e for e in v.x)).trace


def _public_steps(v):
    """v's walk, each step of the entries walk of the tests built with
    checked vectors."""
    raw, _ = entries_walk(v.params.k, v.x)
    return [
        ReductionStep(
            before_sort=LatticeVector(v.params, before),
            sorted=LatticeVector(v.params, srt),
            r=r,
            degree_after=d_after,
        )
        for before, srt, r, d_after in raw
    ]


def test_trace_steps_equal_the_public_constructor():
    small = (
        LatticeVector(SystemParams(3, 8), (2, 1, 1, 1, 1, 1, 1, 1)),
        LatticeVector(SystemParams(4, 10), (3, 3, 3, 1, 1, 1, 1, 1, 1, 1)),
    )
    for v in (*small, *DEEP):
        expected = _public_steps(v)
        for trace in _traces(v):
            assert len(trace.steps) == len(expected)
            for step, public in zip(trace.steps, expected):
                _assert_same_record(step, public)


def _assert_same_record(record, public):
    assert type(record) is type(public)
    assert record == public
    assert hash(record) == hash(public)
    assert repr(record) == repr(public)
    assert dataclasses.replace(record) == public


def test_orbit_classes_equal_the_public_constructor():
    for oc in _orbit_classes():
        public = OrbitClass(
            representative=LatticeVector(oc.representative.params, oc.representative.x),
            degree=oc.degree,
            kind=oc.kind,
            orbit_size=oc.orbit_size,
            multiset_signature=oc.multiset_signature,
        )
        _assert_same_record(oc, public)


def test_generic_orbits_equal_the_public_constructor():
    for g in _generic_orbits():
        public = GenericOrbit(
            core=g.core,
            core_params=SystemParams(g.core_params.k, g.core_params.n),
            d_multiplicity_offset=g.d_multiplicity_offset,
            degree=g.degree,
            kind=g.kind,
        )
        _assert_same_record(g, public)


def _unchecked_results():
    real = LatticeVector(SystemParams(3, 8), (2, 1, 1, 1, 1, 1, 1, 1))
    almost = LatticeVector(SystemParams(4, 10), (3, 3, 3, 1, 1, 1, 1, 1, 1, 1))
    return (
        enumerate_orbits(SystemParams(3, 10), 3),
        enumerate_generic(5),
        classify_entries(real.params, real.x),
        classify_entries(almost.params, almost.x),
        -real,
    )


def test_unchecked_vectors_survive_a_rebound_class_name(monkeypatch):
    """`_trusted` binds the class at import: with `LatticeVector` rebound to
    a plain function in every `jkn` namespace that holds it, every path that
    builds unchecked vectors returns the same records as before."""
    expected = _unchecked_results()
    assert expected[3].kind.is_almost_real and expected[2].kind.is_real

    def wrapper(*args, **kwargs):
        return LatticeVector(*args, **kwargs)

    for name in ("", ".lattice", ".classify", ".enumeration", ".families", ".cli"):
        module = importlib.import_module("jkn" + name)
        monkeypatch.setattr(module, "LatticeVector", wrapper)
    results = _unchecked_results()
    assert results == expected
    assert type(results[0][0].representative) is type(results[4]) is LatticeVector
    # the checked entries bind the class too: a vector passes, a tuple is refused
    assert degree(results[4]) == -3
    with pytest.raises(ContractError, match="must be a LatticeVector, got tuple"):
        degree(results[4].x)


def test_walk_names_the_whole_nonpositive_end():
    """(2, 0) in J(2, 2) has degree 1 and q = 4: the walk's one step lands on
    (0, -2), which is not -beta, and the error shows that vector whole."""
    with pytest.raises(RuntimeError, match=r"nonpositive vector \(0, -2\), not -beta"):
        _walk(2, 1, ((2, 1), (0, 1)))


def test_slot_built_records_stay_frozen():
    records = []
    for cls, build in RECORDS.items():
        record = build()
        records += [(record, field.name) for field in dataclasses.fields(cls)]
    step = RECORDS[ReductionStep]()
    records += [(step.sorted, "x"), (step.before_sort, "params"), (-DEEP[1], "x")]
    for record, name in records:
        before = getattr(record, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, before)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert getattr(record, name) is before


E8_ROOT = LatticeVector(SystemParams(3, 8), (2, 1, 1, 1, 1, 1, 1, 1))

RECORDS = {
    ReductionStep: lambda: reduce_trace(DEEP[0]).steps[1],
    ReductionTrace: lambda: reduce_trace(DEEP[0]),
    Classification: lambda: classify(-DEEP[0]),
    OrbitClass: lambda: enumerate_orbits(SystemParams(3, 9), 3)[0],
    GenericOrbit: lambda: enumerate_generic(4)[0],
    WeightVector: lambda: fundamental_weights(SystemParams(3, 8))[2],
    ManinVector: lambda: to_manin(E8_ROOT),
    SystemParams: lambda: SystemParams(3, 8),
    LatticeVector: lambda: DEEP[1],
    RootCoefficients: lambda: to_root_basis(DEEP[0]),
    WeylWord: lambda: parse_word("b,3,b,1"),
    Profile: lambda: canonical_profile(E8_ROOT),
}

# The records whose __init__ checks its arguments before the store
CHECKED = (SystemParams, LatticeVector, RootCoefficients, WeylWord, Profile)


def _default(field):
    return inspect.Parameter.empty if field.default is dataclasses.MISSING else field.default


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_init_keeps_to_its_fields(cls):
    """Every record's __init__ takes the dataclass fields, in order, with
    their defaults, and is named as a method of the class.  The generated
    one stores each argument in its own slot unchanged; a checking one is
    shown a value of each field's own."""
    record = RECORDS[cls]()
    assert not cls.__dataclass_params__.init  # dataclasses writes no __init__
    init_fields = dataclasses.fields(cls)
    names = tuple(field.name for field in init_fields)
    parameters = inspect.signature(cls).parameters
    assert tuple(parameters) == names
    assert [parameters[field.name].default for field in init_fields] == [
        _default(field) for field in init_fields
    ]
    assert cls.__match_args__ == names
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    values = [getattr(record, name) for name in names]
    assert cls(*values) == cls(**dict(zip(names, values))) == record
    marker = object()
    for name in names:
        value = getattr(record, name) if cls in CHECKED else marker
        changed = dataclasses.replace(record, **{name: value})
        assert [getattr(changed, other) for other in names] == [
            value if other == name else getattr(record, other) for other in names
        ]
    assert dataclasses.replace(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    required = [field for field in init_fields if _default(field) is inspect.Parameter.empty]
    bare = cls(*values[: len(required)])
    assert [getattr(bare, field.name) for field in init_fields] == [
        getattr(record, field.name) if field in required else field.default
        for field in init_fields
    ]
    with pytest.raises(TypeError):
        cls(*values[: len(required) - 1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=values[0])


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_one_store_per_record(cls, monkeypatch):
    """Each record has one store, compiled by `_RecordType`: the __init__ of a
    record of proved values, called last by a checking __init__, and the
    writer of unpickled state.  `_trusted` calls LatticeVector's."""
    store = cls.__dict__["_store"]
    assert store.__code__.co_filename == "<string>"  # compiled, not written
    if cls in CHECKED:
        assert "_store" in cls.__init__.__code__.co_names
    else:
        assert cls.__init__ is store
    record, stored = RECORDS[cls](), []

    def spy(self, *values):
        stored.append(values)
        store(self, *values)

    monkeypatch.setattr(cls, "_store", spy)
    assert pickle.loads(pickle.dumps(record)) == record
    assert stored[-1] == tuple(record.__getstate__())
    if cls is LatticeVector:
        assert _trusted.__defaults__[-1] is store


def test_records_pickled_by_an_earlier_version_load():
    """The pickle state is the list of field values, and unpickling writes it
    through each class's store: records pickled before the store was bound
    on the class load equal to the ones built now."""
    e8 = E8_ROOT
    records = [
        SystemParams(3, 8),
        e8,
        to_root_basis(e8),
        parse_word("b,3,b,1"),
        canonical_profile(e8),
        reduce_trace(e8),
        reduce_trace(e8).steps[0],
        classify(-e8),
        enumerate_orbits(SystemParams(3, 9), 3)[0],
        enumerate_generic(4)[0],
        fundamental_weights(SystemParams(3, 8))[2],
        to_manin(e8),
    ]
    loaded = pickle.loads((GOLDEN / "records.pickle").read_bytes())
    assert loaded == records
    assert [repr(r) for r in loaded] == [repr(r) for r in records]


# ReductionTrace writes its steps, not its fields, in its own __repr__
SHARED = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_share_one_set_of_methods(cls):
    """No record defines its own comparison, hash or frozen setters, nor,
    but for ReductionTrace, its own repr: each inherits them from one base,
    where they give what a frozen dataclass's give: the repr
    ``Name(field=value, ...)``, the hash of the field tuple, equality of
    field tuples between records of one class only."""
    own = SHARED if cls is ReductionTrace else SHARED | {"__repr__"}
    assert not own & set(cls.__dict__)
    record = RECORDS[cls]()
    names = tuple(field.name for field in dataclasses.fields(cls))
    values = tuple(getattr(record, name) for name in names)
    assert hash(record) == hash(values)
    if cls is not ReductionTrace:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(record) == f"{cls.__qualname__}({body})"
    assert record.__eq__(values) is NotImplemented and record != values
    assert record == cls(*values) and not record != cls(*values)
    # dataclasses writes none of the shared methods for the record
    flags = cls.__dataclass_params__
    assert not (flags.eq or flags.frozen or flags.repr)


def test_trace_steps_are_built_on_each_read():
    """Two reads of a walked trace's steps give equal tuples of fresh
    records, and the trace keeps nothing but its dataclass fields."""
    for v in DEEP:
        trace = reduce_trace(v)
        first, second = trace.steps, trace.steps
        assert first == second and first is not second
        assert all(a is not b for a, b in zip(first, second))
        assert trace.__slots__ == tuple(f.name for f in dataclasses.fields(trace))
    assert ReductionTrace(TerminalKind.Q_VIOLATION).steps == ()


@pytest.mark.parametrize(
    "entries, label",
    [((3, 0, 0, 0, 0, 0, 0, 0), "range"), ((2, 2, 2, 0, 0, 0, 0, 0), "q")],
)
def test_zero_step_traces_are_shared_records(entries, label):
    """A window or q violation of degree >= 1 carries the zero-step trace of
    its kind, one per kind for every such result, and the result still
    copies, pickles and replaces as a record of its own."""
    p = SystemParams(3, 8)
    first = classify_entries(p, entries)
    second = classify(LatticeVector(p, tuple(-e for e in entries)))
    assert first.degree == -second.degree > 0
    assert first.trace == second.trace and first.trace is second.trace
    assert first.trace.steps == () and first.trace.as_json_dict() == {
        "steps": [],
        "terminal": label,
    }
    # the shared trace, its steps and repr read, holds what a fresh one does
    repr(first.trace)
    fresh = ReductionTrace(first.trace.terminal)
    assert [getattr(first.trace, f.name) for f in dataclasses.fields(ReductionTrace)] == [
        getattr(fresh, f.name) for f in dataclasses.fields(ReductionTrace)
    ]
    assert first.trace == fresh and hash(first.trace) == hash(fresh)
    assert repr(first.trace) == repr(fresh)
    for other in (
        dataclasses.replace(first),
        dataclasses.replace(first, trace=dataclasses.replace(first.trace)),
        pickle.loads(pickle.dumps(first)),
        copy.deepcopy(first),
    ):
        assert other == first and hash(other) == hash(first)
        assert repr(other) == repr(first)


def _twin_params():
    """The ``__dataclass_params__`` that the call a record's twin takes gives
    on the running Python."""

    @dataclasses.dataclass(slots=True, init=False, repr=False, eq=False)
    class Twin:
        field: int

    return Twin.__dataclass_params__


def _as_dict(value):
    """What `dataclasses.asdict` gives for a record, written out: its fields
    by name, records within it as dicts, tuples rebuilt."""
    if isinstance(value, _Record):
        return {name: _as_dict(getattr(value, name)) for name in value._names}
    if isinstance(value, tuple):
        return tuple(map(_as_dict, value))
    return value


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_read_as_dataclasses(cls):
    """`_RecordType` builds each slots class itself, and `dataclasses` still
    reads it as the dataclass `dataclass(slots=True, init=False, repr=False,
    eq=False)` made of it: the fields are the annotated names, in order;
    `fields`, `replace`, `asdict` and `is_dataclass` work on the class and
    on a record; the params carry every flag of that call on this Python;
    setting and deleting a field raise `FrozenInstanceError`; a class
    pattern matches the fields in order; and a record pickles.  The shared
    base is no dataclass."""
    assert type(cls) is type(_Record) is _RecordType
    record = RECORDS[cls]()
    names = tuple(cls.__dict__["__annotations__"])
    assert cls.__slots__ == cls.__match_args__ == names
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
    assert not dataclasses.is_dataclass(_Record)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert tuple(f.name for f in dataclasses.fields(record)) == names
    expected, params = _twin_params(), cls.__dataclass_params__
    flags = type(expected).__slots__
    assert [getattr(params, flag) for flag in flags] == [
        getattr(expected, flag) for flag in flags
    ]
    assert dataclasses.replace(record) == record
    assert dataclasses.asdict(record) == _as_dict(record)
    first = getattr(record, names[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, names[0])
    match record:
        case cls(matched):
            assert matched is first
        case _:
            pytest.fail(f"{cls.__name__} did not match its own class pattern")
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
def test_copy_replace_replaces_record_fields():
    """`copy.replace` reaches `dataclasses.replace` through the shared
    ``__replace__``."""
    for cls, build in RECORDS.items():
        record = build()
        assert copy.replace(record) == record
        name = cls.__match_args__[-1]
        value = getattr(record, name)
        changed = copy.replace(record, **{name: value})
        assert changed == record and changed is not record


_NOT_PROFILE = "profile must be a Profile, got tuple"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(call, message, id=name)
        for name, call, message in [
            (
                "apply_word",
                lambda: apply_word("b,1", E8_ROOT),
                "word must be a WeylWord, got str",
            ),
            ("format_word", lambda: format_word("b,1"), "word must be a WeylWord, got str"),
            (
                "from_root_basis",
                lambda: from_root_basis((1,) * 8),
                "root coefficients must be a RootCoefficients, got tuple",
            ),
            ("phi", lambda: phi(((1, 2, 3),)), _NOT_PROFILE),
            ("parse_word", lambda: parse_word(3), "word text must be a str, got int"),
            (
                "affine_delta",
                lambda: affine_delta((3, 9)),
                "params must be a SystemParams, got tuple",
            ),
            ("is_canonical", lambda: is_canonical(((1, 2, 3),)), _NOT_PROFILE),
            (
                "is_weakly_column_decreasing",
                lambda: is_weakly_column_decreasing(((1, 2, 3),)),
                _NOT_PROFILE,
            ),
            (
                "cyclic_permutations",
                lambda: cyclic_permutations(((1, 2, 3),)),
                _NOT_PROFILE,
            ),
        ]
    ],
)
def test_record_arguments_refuse_plain_values(call, message):
    """The functions that take a word, root coefficients, a profile, params
    or a word's text check its type first, as the vector's takers do, and
    refuse a plain value with ContractError rather than failing on a missing
    attribute."""
    with pytest.raises(ContractError, match=f"^{message}$"):
        call()


class Pair(_Record):
    """A record declared here by subclassing `_Record` alone."""

    a: int
    b: int = 0


def test_a_subclass_alone_is_a_complete_record():
    """`_RecordType` builds every `_Record` subclass as a record: a slots
    class with the shared methods, a store of its fields and defaults as its
    __init__, read as a dataclass, pickled by its field values."""
    pair = Pair(1, 2)
    assert type(Pair) is _RecordType
    assert not hasattr(pair, "__dict__") and "__weakref__" not in Pair.__dict__
    assert Pair.__slots__ == Pair.__match_args__ == Pair._names == ("a", "b")
    assert repr(pair) == "Pair(a=1, b=2)" and repr(Pair(3)) == "Pair(a=3, b=0)"
    assert pair == Pair(a=1, b=2) and pair != Pair(1) and pair != (1, 2)
    assert hash(pair) == hash((1, 2))
    assert pickle.loads(pickle.dumps(pair)) == pair
    assert [(f.name, f.default) for f in dataclasses.fields(Pair)] == [
        ("a", dataclasses.MISSING),
        ("b", 0),
    ]
    assert dataclasses.replace(pair, b=5) == Pair(1, 5)
    assert Pair.__init__ is Pair._store
    signature = inspect.signature(Pair._store)
    assert list(signature.parameters) == ["self", "a", "b"]
    assert signature.parameters["b"].default == 0
    assert signature.parameters["a"].default is inspect.Parameter.empty
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.a = 3


def test_a_field_without_a_default_after_one_with_is_refused():
    message = "^Bad: a field without a default follows one with$"
    with pytest.raises(TypeError, match=message):

        class Bad(_Record):
            a: int = 0
            b: int
