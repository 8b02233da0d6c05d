"""Shared strategies, helpers and the brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from hypothesis import HealthCheck, settings, strategies as st

from jkn import (
    ContractError,
    LatticeVector,
    OrbitKind,
    ResourceLimitError,
    SystemParams,
    TerminalKind,
    beta_vector,
    enumerate_orbits,
    inner,
    is_finite_type,
    simple_root,
)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


class Index:
    """An integer type of another library: only ``__index__``, as numpy's
    integers have."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@st.composite
def params_strategy(draw, min_k=1, max_k=5, max_n=9):
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(max(k, 2), max_n))
    return SystemParams(k, n)


@st.composite
def params_and_vector(draw, min_k=1, max_k=5, max_n=9, max_abs=6):
    """A system together with an arbitrary lattice vector in it."""
    params = draw(params_strategy(min_k=min_k, max_k=max_k, max_n=max_n))
    entries = list(
        draw(
            st.lists(
                st.integers(-max_abs, max_abs),
                min_size=params.n,
                max_size=params.n,
            )
        )
    )
    entries[-1] += (-sum(entries)) % params.k
    return params, LatticeVector(params, tuple(entries))


def cartan_matrix(params: SystemParams) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of `inner` on the ordered basis (beta, alpha_1, ...)."""
    basis = [beta_vector(params)] + [
        simple_root(params, i) for i in range(1, params.n)
    ]
    return tuple(tuple(inner(u, v) for v in basis) for u in basis)


def gram_e_matrix(params: SystemParams) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix of the inner product in the basis e_1, ..., e_n.

    Equals I - ((k-2)/k^2) * J with J the all-ones matrix; exact rationals.
    """
    k, n = params.k, params.n
    off = -Fraction(k - 2, k * k)
    diag = 1 + off
    return tuple(
        tuple(diag if i == j else off for j in range(n)) for i in range(n)
    )


def basis_matrix(params: SystemParams) -> tuple[tuple[int, ...], ...]:
    """Matrix C whose columns are the e-coordinates of (beta, alpha_1, ...).

    C maps root-basis coefficient vectors to e-coordinates.
    """
    k, n = params.k, params.n
    cols = [[1 if i < k else 0 for i in range(n)]]
    for j in range(1, n):
        col = [0] * n
        col[j - 1] = -1
        col[j] = 1
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def all_candidates(k: int, n: int, d: int) -> list[tuple[int, ...]]:
    """Every vector with entries in [0, d], coordinate sum kd and q = 2.

    Unsorted: all permutations appear, not just the non-increasing
    representatives.
    """
    want_sq = 2 + (k - 2) * d * d
    out = []
    for t in itertools.product(range(d + 1), repeat=n):
        if sum(t) != k * d:
            continue
        if sum(c * c for c in t) == want_sq:
            out.append(t)
    return out


def sorted_candidates(k: int, n: int, d: int) -> list[tuple[int, ...]]:
    """The non-increasing vectors with entries in [0, d], coordinate sum kd
    and q = 2, lexicographically descending."""
    want_sq = 2 + (k - 2) * d * d
    return [
        t
        for t in itertools.combinations_with_replacement(range(d, -1, -1), n)
        if sum(t) == k * d and sum(c * c for c in t) == want_sq
    ]


def entries_walk(k: int, x: Sequence[int]) -> tuple[list[tuple], TerminalKind]:
    """The contraction walk on the n entries themselves, sorting all of them
    at every step: the library's walk before it moved onto signatures, kept
    here as the oracle for the signature walk.

    x is a range-valid q = 2 vector of degree >= 1.  Returns the steps as
    (before_sort, sorted, r, degree_after) tuples of entries, step 0's
    before_sort being x as given, and how the walk ended.  Each step's
    output is checked whole, not at its ends.
    """
    x = tuple(x)
    d = sum(x) // k
    steps = []
    for _ in range(d + 1):  # the degree drops every step
        s = tuple(sorted(x, reverse=True))
        tail = s[k:]
        r = sum(tail) - 2 * d
        d += r
        steps.append((x, s, r, d))
        x = tuple(c + r for c in s[:k]) + tail
        if max(x) <= 0:
            if x != (-1,) * k + (0,) * len(tail):
                raise RuntimeError(f"the walk reached {x}, not -beta")
            return steps, TerminalKind.REACHED_MINUS_BETA
        if min(x) < 0 or max(x) > d:
            return steps, TerminalKind.RANGE_VIOLATION
    raise RuntimeError("reduction failed to terminate")


def real_orbits_by_ascent(
    k: int, n: int, max_degree: int
) -> dict[int, list[tuple[int, ...]]]:
    """Independent oracle: the real orbit representatives of J(k,n) of each
    degree up to max_degree, grown from beta without a search or a walk.

    A real orbit x of degree d >= 2 has exactly one parent, the sorted
    first step of its walk, of lower degree e.  Conversely x comes from its
    parent y in exactly one way: its top k entries are H + r for a size-k
    sub-multiset H of y's entries with r = (k-2)*e - sum(H) > 0, its other
    entries are y - H, and min(H) + r >= max(y - H).  So growing from beta
    over every such (H, r) lists each real orbit once.  Each child is s_beta
    of a permutation of a real root, so it is a real root; completeness
    rests on the walk characterisation, as the BFS oracle's does.  Returns
    the non-increasing representatives by degree, in the order grown.
    """
    found: dict[int, list[tuple[int, ...]]] = {
        d: [] for d in range(1, max_degree + 1)
    }
    found[1].append((1,) * k + (0,) * (n - k))
    for e in range(1, max_degree):
        cap = (k - 2) * e
        for y in found[e]:
            groups = [(c, len(tuple(run))) for c, run in itertools.groupby(y)]
            for h, rest in _ascent_splits(groups, k, cap):
                r = cap - sum(h)
                if 0 < r <= max_degree - e:
                    found[e + r].append(tuple(c + r for c in h) + rest)
    return found


def _ascent_splits(groups, k, cap):
    """The (H, y - H), both non-increasing, for the size-k sub-multisets H of
    y with sum(H) - min(H) <= cap - max(y - H), y's entries given as
    (value, multiplicity) groups, descending.  Taking H's entries group by
    group, the left side never falls and the right side is fixed by the
    first entry left out, so a partial H that breaks it is pruned."""

    def grow(i, need, taken, left, total):
        if need == 0:
            rest = left + tuple(c for c, m in groups[i:] for _ in range(m))
            if total - taken[-1] <= cap - (rest[0] if rest else 0):
                yield taken, rest
            return
        if i == len(groups):
            return
        c, m = groups[i]
        for h in range(min(m, need), -1, -1):
            taken2, left2 = taken + (c,) * h, left + (c,) * (m - h)
            total2 = total + h * c
            if taken2 and left2 and total2 - taken2[-1] > cap - left2[0]:
                continue
            yield from grow(i + 1, need - h, taken2, left2, total2)

    return grow(0, k, (), (), 0)


def bruteforce_positive_real_roots(
    params: SystemParams, max_degree: int, visited_cap: int = 10_000_000
) -> set[LatticeVector]:
    """Independent oracle: BFS over the Weyl orbit of beta.

    Applies all n generators (the n-1 adjacent swaps and s_beta) starting
    from beta, keeping vectors with 0 <= degree <= max_degree and entries
    within [-max_degree*k, max_degree*k].  Every positive real root of
    degree <= max_degree is reachable inside that window, because the
    reduction path of a real root stays range-bounded and can be reversed.
    Positives are the kept roots of degree >= 1 plus the degree-0 roots
    e_i - e_j whose +1 sits at the later index.
    """
    k, n = params.k, params.n
    if max_degree < 0:
        raise ContractError("max_degree must be >= 0")
    bound = max(1, max_degree * k)
    beta = tuple(1 if i < k else 0 for i in range(n))
    seen: set[tuple[int, ...]] = {beta}
    frontier: list[tuple[int, ...]] = [beta]
    while frontier:
        next_frontier: list[tuple[int, ...]] = []
        for x in frontier:
            images = []
            for i in range(n - 1):
                if x[i] != x[i + 1]:
                    images.append(x[:i] + (x[i + 1], x[i]) + x[i + 2 :])
            total = sum(x)
            r = (total - sum(x[:k])) - 2 * (total // k)
            if r != 0:
                images.append(tuple(c + r for c in x[:k]) + x[k:])
            for y in images:
                if y in seen:
                    continue
                ty = sum(y)
                dy = ty // k
                if not 0 <= dy <= max_degree:
                    continue
                if any(c < -bound or c > bound for c in y):
                    continue
                seen.add(y)
                next_frontier.append(y)
                if len(seen) > visited_cap:
                    raise ResourceLimitError(
                        f"oracle exceeded visited cap of {visited_cap} states"
                    )
        frontier = next_frontier
    out: set[LatticeVector] = set()
    for x in seen:
        d = sum(x) // k
        if 1 <= d <= max_degree:
            out.add(LatticeVector(params, x))
        elif d == 0:
            if x.index(1) > x.index(-1):
                out.add(LatticeVector(params, x))
    return out


def enumerated_sum_of_positive_roots(params: SystemParams) -> LatticeVector:
    """Reference for the closed form: the positive-root sum by enumeration.

    Adds up every positive root, orbit by orbit.  The degree-0 roots
    e_j - e_i (i < j) put 2j - (n-1) at 0-based index j; a real orbit of
    degree d has entries summing to kd, spread evenly over the coordinates
    by the permutations, so it adds orbit_size * k * d / n to each.
    """
    if not is_finite_type(params):
        raise ContractError(
            f"{params} is not of finite type; the positive-root sum diverges"
        )
    k, n = params.k, params.n
    per_coordinate = 0
    d = 1
    while True:
        sizes = [
            oc.orbit_size
            for oc in enumerate_orbits(params, d)
            if oc.kind is OrbitKind.REAL
        ]
        if not sizes:
            break
        for size in sizes:
            share, rem = divmod(size * k * d, n)
            if rem:
                raise RuntimeError(f"a degree-{d} orbit of {params} is uneven")
            per_coordinate += share
        d += 1
    return LatticeVector(
        params, tuple(2 * j - (n - 1) + per_coordinate for j in range(n))
    )
