"""Orbit enumeration, root counts, and the generic (large-system) view."""

import math
import time
from collections import Counter, defaultdict
from functools import partial
from itertools import chain, combinations_with_replacement, groupby, repeat, starmap

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    Index,
    all_candidates,
    bruteforce_positive_real_roots,
    real_orbits_by_ascent,
    sorted_candidates,
)
from jkn import (
    ContractError,
    LatticeVector,
    OrbitKind,
    SystemParams,
    count_almost_real_roots,
    count_real_roots,
    degree,
    enumerate_generic,
    enumerate_orbits,
    extend,
    minimal_support,
    q,
)
from jkn import enumeration
from jkn.enumeration import _census, _search
from jkn.lattice import _extended, _stripped
from jkn.golden import (
    ALMOST_COUNTS,
    GENERIC_ALMOST_CORES,
    GENERIC_REAL_CORES,
    ORBIT_COUNTS,
    REAL_COUNTS,
)


def test_single_orbit_frozen():
    orbits = enumerate_orbits(SystemParams(3, 9), 3)
    assert len(orbits) == 1
    oc = orbits[0]
    assert oc.representative.x == (2, 1, 1, 1, 1, 1, 1, 1, 0)
    assert oc.kind is OrbitKind.REAL
    assert oc.orbit_size == 72


def _orbit_of(v):
    """The class `enumerate_orbits` returns for the representative v."""
    (oc,) = [
        oc
        for oc in enumerate_orbits(v.params, degree(v))
        if oc.representative == v
    ]
    return oc


def test_orbit_size_frozen():
    assert _orbit_of(
        LatticeVector(SystemParams(3, 8), (2, 1, 1, 1, 1, 1, 1, 1))
    ).orbit_size == 8
    assert _orbit_of(
        LatticeVector(SystemParams(3, 9), (1, 1, 1, 0, 0, 0, 0, 0, 0))
    ).orbit_size == 84


def test_orbit_size_is_multinomial():
    p = SystemParams(4, 10)
    v = LatticeVector(p, (3, 3, 3, 1, 1, 1, 1, 1, 1, 1))
    assert _orbit_of(v).orbit_size == math.factorial(10) // (
        math.factorial(3) * math.factorial(7)
    )


def test_count_degree_zero():
    assert count_real_roots(SystemParams(3, 9), 0) == 36
    assert count_real_roots(SystemParams(2, 4), 0) == 6


def test_counts_match_reference_rows():
    for k, n in [(3, 9), (3, 10), (4, 10), (5, 12)]:
        p = SystemParams(k, n)
        for d in range(1, 8):
            assert count_real_roots(p, d) == REAL_COUNTS[(k, n)][d - 1]
            assert (
                count_almost_real_roots(p, d)
                == ALMOST_COUNTS.get((k, n), (0,) * 7)[d - 1]
            )


def test_census_cross_check():
    """Orbit sizes partition the candidate counts: the counting leaf
    `_census`, which builds no record, adds up the sizes the records hold
    and counts the orbits of each kind.  J(3,80) and J(5,70) have
    closed-form tails of 64 or more entries, which the search builds inline
    rather than from its shared pieces."""
    for k, n, d in [
        (3, 9, 4), (4, 10, 4), (5, 11, 3), (3, 12, 5), (3, 80, 6), (5, 70, 7), (7, 20, 11)
    ]:
        p = SystemParams(k, n)
        orbits = enumerate_orbits(p, d)
        census = _census(p, d)
        for kind in OrbitKind:
            sizes = [oc.orbit_size for oc in orbits if oc.kind is kind]
            assert census[kind] == (sum(sizes), len(sizes)), (k, n, d, kind)
        assert census[OrbitKind.REAL][0] == count_real_roots(p, d)
        assert census[OrbitKind.ALMOST_REAL][0] == count_almost_real_roots(p, d)


@pytest.mark.parametrize("k,n", [(3, 10), (3, 11), (4, 11), (2, 9), (3, 12)])
def test_duality_preserves_counts(k, n):
    """J(k,n) and J(n-k,n) have equal real and almost-real counts per degree."""
    for d in range(1, 9):
        assert count_real_roots(SystemParams(k, n), d) == count_real_roots(
            SystemParams(n - k, n), d
        ), d
        assert count_almost_real_roots(
            SystemParams(k, n), d
        ) == count_almost_real_roots(SystemParams(n - k, n), d), d


def test_representatives_are_sorted_and_ordered():
    orbits = enumerate_orbits(SystemParams(4, 11), 4)
    reps = [oc.representative.x for oc in orbits]
    for rep in reps:
        assert all(rep[i] >= rep[i + 1] for i in range(len(rep) - 1))
        assert all(0 <= c <= 4 for c in rep)
    assert reps == sorted(reps, reverse=True)
    sigs = [oc.multiset_signature for oc in orbits]
    for rep, sig in zip(reps, sigs):
        assert tuple(sorted(set(rep), reverse=True)) == tuple(v for v, _ in sig)


def test_orbit_invariants():
    for oc in enumerate_orbits(SystemParams(4, 10), 4):
        v = oc.representative
        assert q(v) == 2
        assert degree(v) == 4
        assert oc.degree == 4


def test_orbits_match_exhaustive_candidates():
    """The search finds every sorted candidate once, in descending order."""
    for n in range(2, 9):
        for k in range(1, n):
            for d in range(1, 5):
                candidates = all_candidates(k, n, d)
                orbits = enumerate_orbits(SystemParams(k, n), d)
                reps = [oc.representative.x for oc in orbits]
                distinct = {tuple(sorted(t, reverse=True)) for t in candidates}
                assert reps == sorted(distinct, reverse=True), (k, n, d)
                assert sum(oc.orbit_size for oc in orbits) == len(candidates)
                for oc in orbits:
                    assert oc.multiset_signature == tuple(
                        sorted(Counter(oc.representative.x).items(), reverse=True)
                    )


@pytest.mark.parametrize("k,n,top", [(3, 11, 5), (4, 10, 6), (5, 10, 6), (3, 12, 6)])
def test_orbits_match_sorted_candidates(k, n, top):
    """Past n = 8, where almost-real roots appear, the sorted candidates are
    listed directly: they are the representatives of both kinds, in order."""
    p = SystemParams(k, n)
    for d in range(1, top + 1):
        reps = [oc.representative.x for oc in enumerate_orbits(p, d)]
        assert reps == sorted_candidates(k, n, d), (k, n, d)


@pytest.mark.parametrize("k,n,top", [(3, 10, 6), (3, 11, 5)])
def test_orbits_match_weyl_orbit_oracle(k, n, top):
    """Past the reach of the exhaustive candidates, the BFS over the Weyl
    orbit of beta lists the real roots of each degree: sorted, they are the
    REAL representatives, and each is met orbit_size times.  The sorted
    candidates it misses are the ALMOST_REAL representatives."""
    p = SystemParams(k, n)
    met = Counter(
        (degree(v), tuple(sorted(v.x, reverse=True)))
        for v in bruteforce_positive_real_roots(p, top)
    )
    for d in range(1, top + 1):
        oracle = {x: count for (e, x), count in met.items() if e == d}
        orbits = enumerate_orbits(p, d)
        claimed = {
            oc.representative.x: oc.orbit_size
            for oc in orbits
            if oc.kind is OrbitKind.REAL
        }
        assert set(oracle) == set(claimed), (k, n, d)
        assert oracle == claimed, (k, n, d)
        almost = [
            oc.representative.x for oc in orbits if oc.kind is OrbitKind.ALMOST_REAL
        ]
        missed = [x for x in sorted_candidates(k, n, d) if x not in oracle]
        assert almost == missed, (k, n, d)


def test_real_orbits_match_the_ascent_from_beta():
    """The ascent from beta shares no code with the search or the walk: at
    every degree its representatives, sorted, are the REAL ones that
    `enumerate_orbits` lists, and it lists each once; each signature counts
    its representative's runs.  Past the small keys, J(k,n) with n <= 80
    and k in {3, 4, n-4, n-3} put every run of 0, 1, 2 or 3 up to past
    `enumeration._SHARED` entries into some representative: the closed-form
    tail builds each such run and its signature pair from a shared piece
    below that count and inline from it on."""
    keys = [(k, n, 9) for k in range(1, 8) for n in range(k, k + 10)]
    keys += [(4, 60, 8), (5, 70, 7), (3, 200, 5)]
    keys += [
        (k, n, 6 if k < n - 4 else 5)
        for n in range(8, 81)
        for k in (3, 4, n - 4, n - 3)
    ]
    runs = set()
    for k, n, top in keys:
        grown = real_orbits_by_ascent(k, n, top)
        p = SystemParams(k, n)
        for d in range(1, top + 1):
            orbits = enumerate_orbits(p, d)
            reals = [oc.representative.x for oc in orbits if oc.kind is OrbitKind.REAL]
            assert sorted(grown[d], reverse=True) == reals, (k, n, d)
            for oc in orbits:
                x = oc.representative.x
                sig = tuple((c, len(list(g))) for c, g in groupby(x))
                assert oc.multiset_signature == sig, (k, n, d, x)
                runs.update(sig)
    bound = enumeration._SHARED
    assert {(c, m) for c in range(4) for m in range(1, bound + 8)} <= runs


@pytest.mark.parametrize("k,n,d", [(4, 60, 8), (5, 70, 7), (3, 80, 6), (3, 200, 5)])
def test_orbits_past_the_host_are_its_orbits_with_zeros(k, n, d):
    """For n - k >= 2d - 1 every orbit of J(k,n) has at most k + 2d - 1
    nonzero entries, so it is an orbit of the host J(k, k+2d-1) with zeros
    appended: the same kind, in the same order, with a signature that
    differs only in its zero count, and n! / prod(m!) members.  The keys'
    closed-form tails hold 53-59 entries at J(4,60), 62-68 at J(5,70) and
    more at J(3,80) and J(3,200): below, across and above the count
    `enumeration._SHARED` from which the search builds the tail's pieces
    instead of sharing them."""
    host = SystemParams(k, k + 2 * d - 1)
    zeros = n - host.n
    orbits = enumerate_orbits(SystemParams(k, n), d)
    hosted = enumerate_orbits(host, d)
    assert orbits and len(orbits) == len(hosted)
    for oc, ho in zip(orbits, hosted):
        assert oc.representative.x == ho.representative.x + (0,) * zeros
        assert (oc.degree, oc.kind) == (ho.degree, ho.kind)
        *sig, (last, m) = ho.multiset_signature
        sig += [(0, m + zeros)] if last == 0 else [(last, m), (0, zeros)]
        assert oc.multiset_signature == tuple(sig)
        multiplicities = Counter(oc.representative.x).values()
        assert oc.orbit_size == math.factorial(n) // math.prod(
            map(math.factorial, multiplicities)
        )


def test_extend_is_monotone():
    """extend carries each orbit of J(k,n) to one of the same kind in
    J(k,n+1) and in J(k+1,n+1), so orbit and root counts never drop."""
    table = {
        (k, n, d): enumerate_orbits(SystemParams(k, n), d)
        for n in range(3, 14)
        for k in range(1, n)
        for d in range(1, 7)
    }
    for (k, n, d), small in table.items():
        if n == 13:
            continue
        for grow_k, big_key in ((False, (k, n + 1, d)), (True, (k + 1, n + 1, d))):
            big = table[big_key]
            kinds = {oc.representative.x: oc.kind for oc in big}
            for oc in small:
                assert kinds[extend(oc.representative, grow_k).x] is oc.kind
            for kind in OrbitKind:
                mine = [oc.orbit_size for oc in small if oc.kind is kind]
                theirs = [oc.orbit_size for oc in big if oc.kind is kind]
                assert len(mine) <= len(theirs), ((k, n, d), big_key, kind)
                assert sum(mine) <= sum(theirs), ((k, n, d), big_key, kind)


def test_large_n_does_not_recurse_per_coordinate():
    # the search recurses once per distinct nonzero entry, not per coordinate
    for k, n, d, ones in [(3, 1500, 2, 6), (1000, 1001, 1, 1000)]:
        orbits = enumerate_orbits(SystemParams(k, n), d)
        assert len(orbits) == 1
        oc = orbits[0]
        assert oc.kind is OrbitKind.REAL
        assert oc.representative.x == (1,) * ones + (0,) * (n - ones)
        assert oc.orbit_size == math.comb(n, ones)


def test_high_degree_does_not_recurse_per_value():
    # a zero multiplicity costs no call, and Cauchy-Schwarz rules out the
    # finite type J(3,5) before any value is tried
    assert enumerate_orbits(SystemParams(3, 5), 3000) == ()
    (oc,) = enumerate_orbits(SystemParams(3, 9), 1000)
    assert oc.kind is OrbitKind.REAL
    assert oc.representative.x == (334,) * 3 + (333,) * 6
    assert oc.multiset_signature == ((334, 3), (333, 6))
    assert oc.orbit_size == math.comb(9, 3)


def test_search_leaves_match_a_brute_force_listing():
    """At every small node, v <= 6 and slots <= 8, and every s >= 1 and t with
    t - s even (every root has both, and so every child), the leaves are the
    non-increasing vectors of `slots` entries in [0, v] with sum s and square
    sum t, descending, each with its signature.  These nodes reach each
    bound of the m_3 loop, the one that keeps twos, ones or zeros >= 0 and
    the one that leaves no threes at w <= 2: without any of them some
    leaves here differ.  The node (4, 3, 7, 23) has the child s' = 3,
    t' = 7 at w = 3, which `_fits` passes, but whose loop is empty: m_3 = 0
    leaves -1 ones, and m_3 = 1 leaves -1 twos."""
    for v in range(1, 7):
        for slots in range(1, 9):
            listing = defaultdict(list)
            for x in combinations_with_replacement(range(v, -1, -1), slots):
                listing[sum(x), sum(c * c for c in x)].append(x)
            for s in range(1, v * slots + 1):
                for t in range(s, v * v * slots + 1, 2):
                    leaves = []
                    _search(v, slots, s, t, (), (), lambda *xs: leaves.append(xs))
                    assert [x for _, x in leaves] == sorted(
                        listing[s, t], reverse=True
                    ), (v, slots, s, t)
                    for sig, x in leaves:
                        assert sig == tuple((c, len(list(g))) for c, g in groupby(x))
    leaves = []
    _search(4, 3, 7, 23, (), (), lambda *leaf: leaves.append(leaf))
    assert leaves == []


def test_search_calls_below_the_root_hold_an_entry_above_3(monkeypatch):
    """Only a node with values up to v >= 4 left and t - s >= 12 can hold an
    entry c >= 4; any other branch ends in a loop over m_3, so no call below
    the root starts with less.  The recursion goes through the module
    global, so the wrapper sees every call, and the call counts and the
    orbit counts are pinned."""
    search = enumeration._search
    calls = []

    def counted(v, slots, s, t, sig, x, leaf):
        calls.append((sig, v, t - s))
        search(v, slots, s, t, sig, x, leaf)

    monkeypatch.setattr(enumeration, "_search", counted)
    for k, n, d, real, almost, count in [
        (23, 46, 12, 1272, 3909, 3708),
        (7, 20, 11, 632, 1128, 987),
    ]:
        calls.clear()
        kinds = Counter(oc.kind for oc in enumerate_orbits(SystemParams(k, n), d))
        assert kinds == {OrbitKind.REAL: real, OrbitKind.ALMOST_REAL: almost}
        assert len(calls) == count, (k, n, d)
        (root_sig, _, _), *below = calls
        assert root_sig == () and below, (k, n, d)
        assert all(sig and v > 3 and gap >= 12 for sig, v, gap in below), (k, n, d)


@pytest.mark.parametrize(
    "k,n,period,total", [(3, 9, 3, 240), (4, 8, 2, 126), (6, 9, 3, 240)]
)
def test_affine_counts_are_periodic(k, n, period, total):
    """The real roots of an affine system are a + m*delta with a a root of
    the finite quotient (Kac, ch. 6), so their count per degree repeats with
    period deg(delta), one period holds |E8| = 240 or |E7| = 126 roots, and
    no degree has an almost-real root."""
    p = SystemParams(k, n)
    real = [count_real_roots(p, d) for d in range(1, 301)]
    assert real[period:] == real[:-period]
    assert {sum(real[i : i + period]) for i in range(301 - period)} == {total}
    assert not any(count_almost_real_roots(p, d) for d in range(1, 301))


@pytest.mark.parametrize("k", [3, 7])
def test_e10_has_no_almost_real_roots(k):
    """J(3,10) is E10, whose root lattice is the even unimodular II_{9,1}, so
    every vector of norm 2 is a real root (Kac, Infinite Dimensional Lie
    Algebras, section 5.10); the same holds for its dual J(7,10)."""
    p = SystemParams(k, 10)
    for d in range(1, 41):
        assert all(oc.kind is OrbitKind.REAL for oc in enumerate_orbits(p, d)), d


def test_degree_preconditions():
    p = SystemParams(3, 9)
    with pytest.raises(ContractError):
        enumerate_orbits(p, 0)
    with pytest.raises(
        ContractError, match="^count_almost_real_roots requires degree >= 1, got 0$"
    ):
        count_almost_real_roots(p, 0)
    with pytest.raises(
        ContractError, match="^count_real_roots requires degree >= 0, got -1$"
    ):
        count_real_roots(p, -1)


@pytest.mark.parametrize(
    "call",
    [
        partial(enumerate_orbits, SystemParams(3, 9)),
        partial(count_real_roots, SystemParams(3, 9)),
        partial(count_almost_real_roots, SystemParams(4, 10)),
        enumerate_generic,
    ],
)
def test_degree_is_admitted_as_an_integer(call):
    """A degree passes as a vector's entries do, through operator.index:
    bools and integer types with only __index__ give what the int gives,
    and floats, even integral ones, and strings are refused by name."""
    name = getattr(call, "func", call).__name__
    for bad in (2.0, 2.5, "2", None):
        with pytest.raises(ContractError, match=f"^{name} requires an integer degree$"):
            call(bad)
    assert call(True) == call(1)
    assert call(Index(4)) == call(4) and call(4)


def test_enumerate_generic_refuses_degree_zero():
    with pytest.raises(ContractError, match="^enumerate_generic requires degree >= 1, got 0$"):
        enumerate_generic(0)


def test_generic_counts_match_reference():
    real_row, almost_row = ORBIT_COUNTS[(None, None)]
    for d in range(1, 8):
        generic = enumerate_generic(d)
        assert sum(1 for g in generic if g.kind is OrbitKind.REAL) == real_row[d - 1]
        assert (
            sum(1 for g in generic if g.kind is OrbitKind.ALMOST_REAL)
            == almost_row[d - 1]
        )


def test_generic_cores_match_reference():
    for d in range(1, 6):
        generic = enumerate_generic(d)
        got_real = sorted(
            (g.core, g.core_params.k) for g in generic if g.kind is OrbitKind.REAL
        )
        got_almost = sorted(
            (g.core, g.core_params.k)
            for g in generic
            if g.kind is OrbitKind.ALMOST_REAL
        )
        assert got_real == sorted(GENERIC_REAL_CORES[d])
        assert got_almost == sorted(GENERIC_ALMOST_CORES[d])


def test_generic_core_bounds():
    """Cores fit inside the host that is guaranteed to see every orbit, the
    offset is k_min minus the core's leading run of degree entries, the
    core is minimal (no trailing zero, no leading degree entry unless
    k_min = 1), and it is what minimal_support strips the host
    representative to."""
    for d in range(1, 12):
        host = SystemParams(2 * d - 1, 4 * d - 2)
        for g in enumerate_generic(d):
            assert g.core_params.k <= 2 * d - 1
            assert g.core_params.n - g.core_params.k <= 2 * d - 1
            lead = g.core_params.k - g.d_multiplicity_offset
            assert g.core[:lead] == (d,) * lead
            assert g.core[lead : lead + 1] != (d,)
            assert g.core[-1] != 0
            assert g.core_params.k == 1 or g.core[0] != d
            assert minimal_support(g.specialize(host)) == (
                g.core_params,
                LatticeVector(g.core_params, g.core),
            )


def test_records_follow_the_per_orbit_rules():
    """The rules the search and the record builders apply without spelling
    them out, checked the slow way: a representative is its signature
    expanded, a generic orbit's offset is k_min minus the core's leading
    degree entries, and its system is J(k_min, len(core))."""
    for n in range(2, 15):
        for k in range(1, n + 1):
            for d in range(1, 9):
                for oc in enumerate_orbits(SystemParams(k, n), d):
                    expanded = chain.from_iterable(starmap(repeat, oc.multiset_signature))
                    assert oc.representative.x == tuple(expanded)
    for d in range(1, 11):
        for g in enumerate_generic(d):
            k_min = g.core_params.k
            assert g.d_multiplicity_offset == k_min - g.core.count(d)
            assert g.core_params == SystemParams(k_min, len(g.core))


@st.composite
def strip_inputs(draw):
    """(x, k, d): non-increasing entries in [0, d], a run of d's, then some
    entries in [1, d-1], then zeros, with either run up to 60 000 long."""
    d = draw(st.integers(1, 5))
    middle = draw(st.lists(st.integers(1, d - 1), max_size=8)) if d > 1 else []
    x = (
        (d,) * draw(st.integers(0, 60_000))
        + tuple(sorted(middle, reverse=True))
        + (0,) * draw(st.integers(0, 60_000))
    )
    if not x:
        x = (d,)
    return x, draw(st.integers(1, len(x))), d


@given(strip_inputs())
@example(((3, 2, 2, 1), 2, 3))  # no trailing zeros
@example(((2,) * 5 + (1, 0), 3, 2))  # five leading d's with k = 3: k_min = 1
@example(((2,) + (1,) * 7 + (0,) * 59_992, 3, 2))  # n = 60 000
def test_strip_then_extend_round_trips(case):
    """`_extended` undoes `_stripped`: the core carried back into J(k, n)
    with k - k_min leading d's and trailing zeros is x again."""
    x, k, d = case
    k_min, core = _stripped(x, k, x.count(d), x.count(0))
    assert 1 <= k_min <= k
    assert _extended("x", core, k_min, d, SystemParams(k, len(x))) == x


def test_specialize_matches_direct_enumeration():
    """Past the host J(2d-1, 4d-2) the orbits of degree d are stable: every
    generic orbit fits (`specialize` raises where one does not), and
    specializing gives each orbit once, same kind."""
    hosts = [
        (d, k, n)
        for d in range(1, 6)
        for k, n in [
            (2 * d - 1, 4 * d - 2),
            (2 * d, 4 * d - 1),
            (2 * d - 1, 4 * d - 1),
            (2 * d + 1, 4 * d),
            (2 * d, 4 * d),
            (2 * d + 1, 4 * d + 1),
        ]
    ]
    hosts += [(d, 2 * d, 4 * d) for d in range(6, 13)]
    for d, k, n in hosts:
        p = SystemParams(k, n)
        specialized = sorted((g.specialize(p).x, g.kind) for g in enumerate_generic(d))
        direct = sorted((oc.representative.x, oc.kind) for oc in enumerate_orbits(p, d))
        assert specialized == direct, (d, k, n)


def test_specialize_rejects_small_hosts():
    g4 = [g for g in enumerate_generic(4) if g.core_params.k == 6][0]
    with pytest.raises(ContractError):
        g4.specialize(SystemParams(5, 16))


def test_minimal_support_frozen():
    p, core = minimal_support(
        LatticeVector(SystemParams(3, 9), (2, 1, 1, 1, 1, 1, 1, 1, 0))
    )
    assert (p.k, p.n) == (3, 8)
    assert core.x == (2, 1, 1, 1, 1, 1, 1, 1)
    p, core = minimal_support(
        LatticeVector(SystemParams(3, 6), (1, 1, 1, 0, 0, 0))
    )
    assert (p.k, p.n) == (1, 1)
    assert core.x == (1,)
    # trailing zeros strip without touching the leading block
    p, core = minimal_support(
        LatticeVector(SystemParams(4, 10), (2, 2, 2, 2, 1, 1, 1, 1, 0, 0))
    )
    assert (p.k, p.n) == (4, 8)
    assert core.x == (2, 2, 2, 2, 1, 1, 1, 1)
    # a leading entry equal to the degree strips and lowers k
    p, core = minimal_support(
        LatticeVector(SystemParams(4, 7), (2, 1, 1, 1, 1, 1, 1))
    )
    assert (p.k, p.n) == (3, 6)
    assert core.x == (1, 1, 1, 1, 1, 1)


def test_minimal_support_preconditions():
    p = SystemParams(3, 6)
    for x, message in [
        ((1, 0, 0, -1, 0, 0), "requires degree >= 1, got 0"),
        ((1, 2, 1, 1, 1, 0), "requires a non-increasing vector"),
        ((3, 1, 1, 1, 0, 0), r"requires entries in \[0, 2\] \(the degree\)"),
        ((2, 2, 2, 1, 0, -1), r"requires entries in \[0, 2\] \(the degree\)"),
        # the window is checked before the order
        ((-1, 3, 2, 2, 0, 0), r"requires entries in \[0, 2\] \(the degree\)"),
    ]:
        with pytest.raises(ContractError, match=f"^minimal_support {message}$"):
            minimal_support(LatticeVector(p, x))


def test_minimal_support_at_large_n():
    """Each end of the core is found in one go, not one slice per entry: at
    n = 60 000 the trailing zeros and a 30 000-long leading block go in well
    under a second of CPU (a slice per entry took seconds)."""
    n = 60_000
    for k, x, want_k, want_core in [
        (3, (2,) + (1,) * 7 + (0,) * (n - 8), 3, (2,) + (1,) * 7),
        (30_000, (1,) * 30_000 + (0,) * 30_000, 1, (1,)),
    ]:
        t0 = time.process_time()
        p, core = minimal_support(LatticeVector(SystemParams(k, n), x))
        assert time.process_time() - t0 < 1.0, k
        assert (p.k, p.n, core.x) == (want_k, len(want_core), want_core)
