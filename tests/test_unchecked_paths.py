"""Vectors the library builds without re-running the constructor's checks.

A negation, the steps of a contraction walk, an orbit representative and
the entries `classify_entries` has checked are built with
`LatticeVector._trusted`.  Each is rebuilt here through the public
constructor, which must accept it and give back an equal vector of ints.
"""

from jkn import (
    LatticeVector,
    SystemParams,
    classify,
    classify_entries,
    degree,
    delta_family,
    enumerate_orbits,
    gamma,
    reduce_trace,
)

DEEP = (gamma(300, SystemParams(3, 602)), delta_family(300, SystemParams(301, 602)))


def _recheck(v):
    assert type(v) is LatticeVector and type(v.x) is tuple
    assert all(type(c) is int for c in v.x)
    assert LatticeVector(v.params, v.x) == v


def _recheck_trace(trace):
    for step in trace.steps:
        _recheck(step.before_sort)
        _recheck(step.sorted)


def _representatives():
    for n in range(2, 11):
        for k in range(1, n):
            for d in range(1, 7):
                yield from (oc.representative for oc in enumerate_orbits(SystemParams(k, n), d))


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
