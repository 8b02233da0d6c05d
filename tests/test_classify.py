"""Classification, reduction traces, and the brute-force cross-check."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given

from jkn import (
    ContractError,
    Kind,
    LatticeVector,
    OrbitKind,
    ResourceLimitError,
    SystemParams,
    apply_s_beta,
    beta_vector,
    classify,
    classify_entries,
    degree,
    delta_family,
    enumerate_orbits,
    gamma,
    is_finite_type,
    q,
    reduce_trace,
)
from jkn.classify import ReductionTrace, TerminalKind, _entries, _signature, _walk

from conftest import (
    all_candidates,
    bruteforce_positive_real_roots,
    entries_walk,
    params_and_vector,
)


def test_real_positive_with_trace():
    p = SystemParams(3, 8)
    c = classify_entries(p, (2, 1, 1, 1, 1, 1, 1, 1))
    assert c.kind is Kind.REAL_POSITIVE
    assert c.degree == 3
    assert len(c.trace.steps) == 3
    assert c.trace.as_json_dict()["terminal"] == "real"


def test_almost_real_positive():
    p = SystemParams(4, 10)
    c = classify_entries(p, (3, 3, 3, 1, 1, 1, 1, 1, 1, 1))
    assert c.kind is Kind.ALMOST_REAL_POSITIVE
    assert c.degree == 4
    assert len(c.trace.steps) == 1
    assert c.trace.as_json_dict()["terminal"] == "almost"


def test_negative_degree_mirrors():
    p = SystemParams(3, 8)
    pos = classify_entries(p, (2, 1, 1, 1, 1, 1, 1, 1))
    neg = classify_entries(p, tuple(-c for c in (2, 1, 1, 1, 1, 1, 1, 1)))
    assert neg.kind is Kind.REAL_NEGATIVE
    assert neg.degree == -3
    assert neg.trace == pos.trace


def test_degree_zero_kinds():
    p = SystemParams(3, 6)
    assert classify_entries(p, (1, 0, 0, -1, 0, 0)).kind is Kind.DEGREE_ZERO_REAL
    real = LatticeVector(p, (True, 0, 0, -1, False, 0))
    assert classify(real).kind is Kind.DEGREE_ZERO_REAL
    for entries, qv in [
        ((1, 1, -1, -1, 0, 0), 4),
        ((2, -1, -1, 0, 0, 0), 6),
        ((0, 3, 0, 0, -3, 0), 18),
        ((2, -2, 1, -1, 0, 0), 10),
        ((1, 1, 0, -2, 0, 0), 6),
        ((1, -1, 1, -1, 1, -1), 6),
    ]:
        c = classify_entries(p, entries)
        assert (c.kind, c.q_value, c.degree) == (Kind.NOT_REAL_Q, qv, 0)
    assert classify_entries(p, (0, 0, 0, 0, 0, 0)).kind is Kind.ZERO


def test_range_violation_before_any_step():
    p = SystemParams(3, 6)
    c = classify_entries(p, (4, -1, 0, 0, 0, 0))
    assert c.kind is Kind.NOT_REAL_RANGE
    assert c.trace.steps == ()
    assert c.trace.as_json_dict()["terminal"] == "range"


def test_q_violation_positive_degree():
    p = SystemParams(3, 6)
    c = classify_entries(p, (2, 2, 2, 0, 0, 0))
    assert c.kind is Kind.NOT_REAL_Q
    assert c.q_value == 8
    assert c.trace.steps == ()
    assert c.trace.as_json_dict()["terminal"] == "q"


def test_trace_matching_no_end_is_refused():
    """Built by hand, a trace whose terminal and step count name no end
    renders neither way; classify never builds one."""
    real = classify_entries(SystemParams(3, 8), (2, 1, 1, 1, 1, 1, 1, 1)).trace
    unwalked = ReductionTrace(TerminalKind.REACHED_MINUS_BETA)
    walked = ReductionTrace(TerminalKind.Q_VIOLATION, real._input, real._walked)
    for trace, message in (
        (unwalked, "REACHED_MINUS_BETA after 0 steps"),
        (walked, "Q_VIOLATION after 3 steps"),
    ):
        for render in (trace.as_json_dict, lambda: list(trace.plain_lines())):
            with pytest.raises(ContractError, match=f"^no end is {message}$"):
                render()


def test_entries_must_be_integers():
    """Floats and strings are refused, never truncated."""
    p = SystemParams(3, 8)
    for bad in (2.5, 2.0, "2"):
        entries = (bad, 1, 1, 1, 1, 1, 1, 1)
        for build in (classify_entries, LatticeVector):
            with pytest.raises(ContractError, match="coordinates must be integers"):
                build(p, entries)


def test_integer_types_pass():
    p = SystemParams(3, 8)
    np = pytest.importorskip("numpy")
    entries = (np.int64(2), True, 1, 1, 1, 1, 1, 1)
    assert classify_entries(p, entries).kind is Kind.REAL_POSITIVE
    v = LatticeVector(p, entries)
    assert v.x == (2, 1, 1, 1, 1, 1, 1, 1)
    assert all(type(c) is int for c in v.x)


def test_not_in_lattice_vs_contract():
    p = SystemParams(3, 8)
    assert classify_entries(p, (1,) * 8).kind is Kind.NOT_IN_LATTICE
    with pytest.raises(ContractError):
        classify_entries(p, (1, 1, 1))


def test_beta_trace_is_one_step():
    p = SystemParams(5, 11)
    c = classify_entries(p, (1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0))
    assert c.kind is Kind.REAL_POSITIVE
    assert len(c.trace.steps) == 1
    assert classify(LatticeVector(p, (True,) * 5 + (False,) * 6)) == c


def test_reduce_trace_preconditions():
    p = SystemParams(3, 6)
    with pytest.raises(ContractError, match="degree"):
        reduce_trace(LatticeVector(p, (1, 0, 0, -1, 0, 0)))
    with pytest.raises(ContractError, match="entries in"):
        reduce_trace(LatticeVector(p, (4, -1, 0, 0, 0, 0)))
    with pytest.raises(ContractError, match="q = 2"):
        reduce_trace(LatticeVector(p, (2, 2, 2, 0, 0, 0)))
    # refused on its degree before any walk, though its negation is a root
    root = LatticeVector(SystemParams(3, 8), (2, 1, 1, 1, 1, 1, 1, 1))
    with pytest.raises(ContractError, match="degree"):
        reduce_trace(-root)


def _signature_walk(k, x, known=None):
    """The signature walk on x: (terminal, steps as (signature, r, degree_after))."""
    sig, total, _ = _signature(x)
    steps = [] if known is None else None
    terminal = _walk(k, total // k, sig, steps, known)
    return terminal, steps


def test_sorted_candidate_agrees_with_classify():
    for k, n, d in [(3, 6, 2), (3, 7, 3), (4, 9, 2), (4, 10, 4)]:
        p = SystemParams(k, n)
        for t in all_candidates(k, n, d):
            # the walk takes t's signature; classify_entries takes t as is
            c = classify_entries(p, t)
            terminal, steps = _signature_walk(k, t)
            assert _walk(k, d, _signature(t)[0]) is terminal
            assert terminal is c.trace.terminal
            assert (terminal is TerminalKind.REACHED_MINUS_BETA) == (
                c.kind is Kind.REAL_POSITIVE
            )
            assert [(_entries(sig), r, d_after) for sig, r, d_after in steps] == [
                (st.sorted.x, st.r, st.degree_after) for st in c.trace.steps
            ]


def test_walk_refuses_a_nonpositive_end_other_than_minus_beta():
    """Under its preconditions the walk's only nonpositive end is -beta; an
    input breaking them (here (2, 0): q = 4, entry 2 > degree 1) is an
    internal error, never an almost-real verdict."""
    with pytest.raises(RuntimeError, match="not -beta"):
        _walk(2, 1, ((2, 1), (0, 1)))
    assert set(TerminalKind) == {
        TerminalKind.REACHED_MINUS_BETA,
        TerminalKind.RANGE_VIOLATION,
        TerminalKind.Q_VIOLATION,
    }


def _walk_with_memo(p, candidates):
    """Walk the candidates' signatures in order with one shared memo, each
    against a fresh walk and against `classify_entries` of the candidate as
    given; returns (steps from step 1 on, memo size)."""
    k = p.k
    known = {}
    later = 0
    for entries in candidates:
        terminal, steps = _signature_walk(k, entries)
        assert _signature_walk(k, entries, known)[0] is terminal
        assert classify_entries(p, entries).trace.terminal is terminal
        for sig, _, _ in steps[1:]:
            assert known.get(sig) is terminal
        later += len(steps) - 1
    return later, len(known)


def test_walk_memo_agrees_with_fresh_walks():
    rng = random.Random(2108)
    systems = [(k, n, range(1, 7)) for n in range(2, 11) for k in range(1, n)]
    systems += [(2 * d - 1, 4 * d - 2, (d,)) for d in range(1, 9)]
    shared = 0
    for k, n, degrees in systems:
        p = SystemParams(k, n)
        xs = [oc.representative.x for d in degrees for oc in enumerate_orbits(p, d)]
        shuffled = [tuple(rng.sample(x, n)) for x in rng.sample(xs, len(xs))]
        for candidates in (xs, shuffled):
            later, stored = _walk_with_memo(p, candidates)
            shared += later - stored
    assert shared > 0  # some walks did stop at a signature the memo held


def _word_root(rng, p, rounds):
    """beta moved by random permutations (words in the s_i) and s_beta."""
    v = beta_vector(p)
    for _ in range(rounds):
        x = list(v.x)
        rng.shuffle(x)
        w = apply_s_beta(LatticeVector(p, x))
        if degree(w) > degree(v):
            v = w
    x = list(v.x)
    rng.shuffle(x)
    return LatticeVector(p, x)


def _assert_trace_chain(v):
    k = v.params.k
    trace = reduce_trace(v)
    assert trace.terminal is TerminalKind.REACHED_MINUS_BETA
    assert trace.steps[0].before_sort == v
    for i, step in enumerate(trace.steps):
        assert step.sorted.params == step.before_sort.params == v.params
        assert step.sorted.x == tuple(sorted(step.before_sort.x, reverse=True))
        out = tuple(c + step.r for c in step.sorted.x[:k]) + step.sorted.x[k:]
        assert sum(out) % k == 0 and step.degree_after == sum(out) // k
        if i + 1 < len(trace.steps):
            assert trace.steps[i + 1].before_sort.x == out
        else:
            assert out == (-1,) * k + (0,) * (v.params.n - k)
    assert classify(v).trace == trace


def test_trace_steps_chain_from_the_input():
    rng = random.Random(20211)
    for k in (3, 4, 5, 6):
        for n in range(k + 5, k + 13):
            p = SystemParams(k, n)
            for _ in range(6):
                _assert_trace_chain(_word_root(rng, p, rng.randint(1, 12)))
    _assert_trace_chain(gamma(300, SystemParams(3, 602)))
    _assert_trace_chain(delta_family(300, SystemParams(301, 602)))


def _assert_walk_matches_oracle(v):
    """The traces of v and of its negation equal the entries walk's, field
    for field: before_sort, sorted, r, degree_after, and the terminal."""
    steps, terminal = entries_walk(v.params.k, v.x)
    for c in (classify(v), classify_entries(v.params, tuple(-e for e in v.x))):
        assert c.trace.terminal is terminal
        assert [
            (st.before_sort.x, st.sorted.x, st.r, st.degree_after)
            for st in c.trace.steps
        ] == steps
    return terminal


def test_walk_matches_the_entries_oracle():
    rng = random.Random(2021)
    systems = [(3, 10), (3, 11), (3, 12), (4, 10), (4, 12), (5, 10)]
    walked = 0
    for k, n in systems:
        p = SystemParams(k, n)
        for d in range(1, 8):
            for oc in enumerate_orbits(p, d):
                # the search's memo walk gave the kind; the oracle agrees
                terminal = _assert_walk_matches_oracle(oc.representative)
                assert (terminal is TerminalKind.REACHED_MINUS_BETA) == (
                    oc.kind is OrbitKind.REAL
                )
                shuffled = rng.sample(oc.representative.x, n)
                _assert_walk_matches_oracle(LatticeVector(p, shuffled))
                walked += 1
    assert walked == 204
    for k, n in [(3, 9), (4, 14), (5, 17), (3, 2000)]:
        p = SystemParams(k, n)
        for _ in range(3):
            _assert_walk_matches_oracle(_word_root(rng, p, rng.randint(1, 12)))
    _assert_walk_matches_oracle(gamma(300, SystemParams(3, 602)))
    _assert_walk_matches_oracle(delta_family(300, SystemParams(301, 602)))


def test_deep_walk_in_linear_time_and_memory():
    """gamma(10 000) in J(3, 20 002) walks 10 000 steps on signatures; with
    its trace not read, classify_entries takes well under a second and
    keeps no step's vectors."""
    p = SystemParams(3, 20_002)
    x = gamma(10_000, p).x
    start = time.perf_counter()
    c = classify_entries(p, x)
    assert time.perf_counter() - start < 1.0
    assert c.kind is Kind.REAL_POSITIVE
    tracemalloc.start()
    try:
        assert classify_entries(p, x).kind is Kind.REAL_POSITIVE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


@given(params_and_vector())
def test_classify_respects_negation(pv):
    _, v = pv
    c = classify(v)
    m = classify(-v)
    flips = {
        Kind.REAL_POSITIVE: Kind.REAL_NEGATIVE,
        Kind.REAL_NEGATIVE: Kind.REAL_POSITIVE,
        Kind.ALMOST_REAL_POSITIVE: Kind.ALMOST_REAL_NEGATIVE,
        Kind.ALMOST_REAL_NEGATIVE: Kind.ALMOST_REAL_POSITIVE,
    }
    if degree(v) != 0:
        assert m.kind is flips.get(c.kind, c.kind)


def test_trace_length_bounded_by_degree():
    rng = random.Random(7)
    pool = []
    for k in (3, 4, 5):
        for n in range(k + 2, 10):
            for d in (1, 2, 3):
                for oc in enumerate_orbits(SystemParams(k, n), d):
                    pool.append(oc.representative)
    for _ in range(2000):
        rep = rng.choice(pool)
        entries = list(rep.x)
        rng.shuffle(entries)
        trace = reduce_trace(LatticeVector(rep.params, tuple(entries)))
        assert len(trace.steps) <= degree(rep)


def test_bruteforce_frozen_counts():
    roots = bruteforce_positive_real_roots(SystemParams(3, 6), 2)
    assert len(roots) == 36
    assert len(bruteforce_positive_real_roots(SystemParams(2, 4), 1)) == 12


def test_bruteforce_agrees_with_classifier_small():
    p = SystemParams(3, 6)
    oracle = {v.x for v in bruteforce_positive_real_roots(p, 2) if degree(v) == 2}
    direct = {
        t
        for t in all_candidates(3, 6, 2)
        if classify_entries(p, t).kind is Kind.REAL_POSITIVE
    }
    assert oracle == direct


def test_bruteforce_resource_cap():
    with pytest.raises(ResourceLimitError):
        bruteforce_positive_real_roots(SystemParams(3, 9), 3, visited_cap=10)


def test_finite_systems_have_no_almost_real_roots():
    # every q = 2 candidate in a finite type reduces to -beta
    for k, n in [(3, 6), (3, 7), (3, 8), (2, 6)]:
        assert is_finite_type(SystemParams(k, n))
        for d in (1, 2, 3):
            for t in all_candidates(k, n, d):
                kind = classify_entries(SystemParams(k, n), t).kind
                assert kind is Kind.REAL_POSITIVE
