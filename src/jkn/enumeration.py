"""Orbit-by-degree enumeration of real and almost-real roots.

The symmetric group S_n acts on the lattice by coordinate permutations, so
counting roots of a fixed degree d reduces to listing non-increasing
representatives x with entries in [0, d], sum k*d and q(x) = 2, classifying
each, and weighting by the orbit size n! / prod(multiplicities!), which
`_size` forms as a falling factorial with no n!.

The search picks the multiplicities (m_d, ..., m_1, m_0) of a
representative's entries, recursing only on a nonzero one, so it is at most
min(d, n) + 1 calls deep; the signature, representative and orbit size all
come from those multiplicities.  A branch whose entries left lie in
[0, 3], because its largest value left is at most 3 or its t - s is below
12, ends in one loop over m_3: with four counts and three equations (slots,
sum, square sum), m_3 fixes the twos, ones and zeros in closed form.  The
loop takes each count's signature pair ((c, m),) and run (c,) * m from
tables built once at import, for every c in [0, 3] and m below `_SHARED` =
64, so the records of all orbits share the same pairs; an orbit then brings
the garbage collector up to four fewer new objects.  A tail of `_SHARED` or
more entries, which only J(k, n) with n >= 64 has, builds its pieces inline.

Every reader of orbits goes through one entry, `_walked`: it runs the
search once with the target square sum 2 + (k-2)*d^2, walks each signature
as it is with a memo that lives for that call, and hands a leaf the
signature, the representative's entries (which the search carries down
next to it) and the orbit's kind, one call per orbit, so the search holds
no list of signatures.  `enumerate_orbits` and `enumerate_generic` are
leaves that build records; `_census` lists each kind's signatures and
builds none, and `_roots` sums the orbit sizes of the one kind asked for.
Both sizes come from `_size`: n! / prod(m_v!) is the falling factorial
n! / m! over the other counts' factorials, for any count m.  It takes m as
the larger of the first and last counts (the leading d's and the zeros),
since the counts between sum to at most 4d - 2, the size of the generic
orbits' host below, however large n is; so no size forms n!.

Every orbit of degree d, over all (k, n) at once, is captured by a finite
list of generic orbits: stripped to minimal support, a representative is a
vector of J(k_min, n_min) with k_min <= 2d-1 and n_min - k_min <= 2d-1, so
one search of J(2d-1, 4d-2) per degree finds them all, each core stripped
from its host representative by `lattice._stripped`, at the ends that the
signature's first and last pairs count.  A generic orbit
re-specializes to any large enough (k, n) by the inverse rule `_extended`.
"""

from __future__ import annotations

import enum
import math
from operator import itemgetter
from typing import Callable

from .classify import _MINUS_BETA, TerminalKind, _walk
from .lattice import LatticeVector, SystemParams, _extended, _Record
from .lattice import _admitted_degree, _require_params, _stripped, _trusted

__all__ = [
    "OrbitKind",
    "OrbitClass",
    "GenericOrbit",
    "enumerate_orbits",
    "count_real_roots",
    "count_almost_real_roots",
    "enumerate_generic",
]


class OrbitKind(str, enum.Enum):
    REAL = "Real"
    ALMOST_REAL = "AlmostReal"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class OrbitClass(_Record):
    """A permutation orbit, held by its non-increasing representative."""

    representative: LatticeVector
    degree: int
    kind: OrbitKind
    orbit_size: int
    multiset_signature: tuple[tuple[int, int], ...]

    def as_json_dict(self) -> dict:
        return {
            "representative": list(self.representative.x),
            "degree": self.degree,
            "kind": self.kind.value,
            "orbit_size": self.orbit_size,
            "signature": [[v, m] for v, m in self.multiset_signature],
        }


class GenericOrbit(_Record):
    """One orbit shape valid across all large enough systems.

    ``core`` is the minimal-support representative, a vector of
    ``core_params`` = J(k_min, n_min).  At J(k, n) the representative has
    k - d_multiplicity_offset leading entries equal to the degree; the
    offset is k_min minus the number of leading degree-entries of the core.
    """

    core: tuple[int, ...]
    core_params: SystemParams
    d_multiplicity_offset: int
    degree: int
    kind: OrbitKind

    def specialize(self, params: SystemParams) -> LatticeVector:
        """The orbit's representative inside J(params): the core extended."""
        what = f"orbit with minimal support {self.core_params}"
        entries = _extended(what, self.core, self.core_params.k, self.degree, params)
        return LatticeVector(params, entries)

    def as_json_dict(self) -> dict:
        return {
            "core": list(self.core),
            "k_min": self.core_params.k,
            "n_min": self.core_params.n,
            "d_multiplicity_offset": self.d_multiplicity_offset,
            "degree": self.degree,
            "kind": self.kind.value,
        }


# The orbit kinds a walk's end gives, and the orbit size's four functions,
# bound once rather than read or built per orbit
_REAL, _ALMOST_REAL = OrbitKind.REAL, OrbitKind.ALMOST_REAL
_perm, _prod, _factorial, _counts = math.perm, math.prod, math.factorial, itemgetter(1)

# The closed-form tail's pieces for a count m below _SHARED, indexed by m:
# the signature piece ((c, m),) and the run (c,) * m for each c in [0, 3],
# with () at m = 0 so that a zero count adds nothing.  About 0.1 MB; 64
# covers every tail of J(k, n) with n < 64.
_SHARED = 64
_PAIRS3, _PAIRS2, _PAIRS1, _PAIRS0 = (
    ((),) + tuple(((c, m),) for m in range(1, _SHARED)) for c in range(3, -1, -1)
)
_RUNS3, _RUNS2, _RUNS1, _RUNS0 = (
    tuple((c,) * m for m in range(_SHARED)) for c in range(3, -1, -1)
)


def _size(n: int, sig: tuple) -> int:
    """The orbit size n! / prod(m_v!) of the signature ``sig`` of n entries:
    perm(n, n - m) over the other counts' factorials, where m is the larger
    of the first and last counts, so no n! is formed."""
    first, last = sig[0][1], sig[-1][1]
    m, others = (first, sig[1:]) if first >= last else (last, sig[:-1])
    return _perm(n, n - m) // _prod(map(_factorial, map(_counts, others)))


def _fits(w: int, slots: int, s: int, t: int) -> bool:
    """Necessary for `slots` entries in [0, w] to have sum s, square sum t:
    Cauchy-Schwarz, and t at most the square sum of s piled into w's."""
    full, part = divmod(s, w) if w else (0, 0)
    return s * s <= slots * t and t <= full * w * w + part * part


def _search(
    v: int, slots: int, s: int, t: int, sig: tuple, x: tuple, leaf: Callable
) -> None:
    """Calls leaf(signature, entries) for each extension of the signature
    ((d, m_d), ..., (v+1, m_{v+1})) by m_v, ..., m_0 as the search reaches
    it; ``x`` holds the entries ``sig`` stands for, so no leaf re-expands one.

    The `slots` entries left lie in [0, v], with sum s >= 1 and square sum
    t; t - s, the sum of c*(c-1) over them, is even, as at every root.  m_v
    runs from high to low, so representatives come out lexicographically
    descending.  The entries after m_v are each some c <= v-1, so
    c <= c^2 <= (v-1)*c, their sum is at most (v-1)*slots, and `_fits`
    holds.  m_v = 0 moves on to v-1 in place rather than recursing while
    v-1 >= 4; below that it is one more branch.

    A branch whose entries left lie in [0, 3] ends in one loop over m_3
    instead of more calls: they lie in [0, w] with w <= 3, or e = t' - s' is
    below 12, since an entry c >= 4 adds c*(c-1) >= 12 to t - s.  Its four
    counts then meet three equations, so m_3 fixes the other three:
    twos = e/2 - 3*m_3, ones = s' - e + 3*m_3 and
    zeros = slots' - s' + e/2 - m_3, and m_3 runs from high to low over the
    range where all three are >= 0.  The four counts sum to slots', so when
    slots' < `_SHARED` each pair and run comes from the shared tables, and
    the signature grows by concatenation alone; a longer tail builds them.
    """
    if t < s:
        return
    # every entry c has c*(c-1) <= t - s, which caps the largest
    cap = (1 + math.isqrt(1 + 4 * (t - s))) // 2
    if cap < v:
        v = cap
    while v:
        w = v - 1
        # left after m copies: s' = s - m*v, t' = t - m*v^2, slots' = slots - m;
        # s' <= w*slots' and t' <= w*s' bound m below, s' <= t' above; m = 0
        # is one more branch once w <= 3
        hi = s // v
        if slots < hi:
            hi = slots
        if t // (v * v) < hi:
            hi = t // (v * v)
        if w and (t - s) // (v * w) < hi:
            hi = (t - s) // (v * w)
        lo = 1 if w > 3 else 0
        if lo < s - w * slots:
            lo = s - w * slots
        if lo < -((w * s - t) // v):
            lo = -((w * s - t) // v)
        for m in range(hi, lo - 1, -1):
            rest, s2, t2 = slots - m, s - m * v, t - m * v * v
            if not _fits(w, rest, s2, t2):
                continue
            sig2, x2, e = sig + ((v, m),) if m else sig, x + (v,) * m, t2 - s2
            if e >= 12 and w > 3:
                _search(w, rest, s2, t2, sig2, x2, leaf)
                continue
            # twos, zeros >= 0 cap m_3 and ones >= 0 floors it; w <= 2 leaves
            # no threes, and at w <= 1 `_fits` leaves e = 0, so no twos
            half = e // 2
            top = half // 3 if w > 2 else 0
            if rest - s2 + half < top:
                top = rest - s2 + half
            low = -((s2 - e) // 3)
            stop = low - 1 if low > 0 else -1
            if rest < _SHARED:
                # the four counts sum to rest, so each piece is in the tables
                for m3 in range(top, stop, -1):
                    twos, ones = half - 3 * m3, s2 - e + 3 * m3
                    zeros = rest - s2 + half - m3
                    sig3 = sig2 + _PAIRS3[m3] + _PAIRS2[twos] + _PAIRS1[ones]
                    x3 = x2 + _RUNS3[m3] + _RUNS2[twos] + _RUNS1[ones]
                    leaf(sig3 + _PAIRS0[zeros], x3 + _RUNS0[zeros])
                continue
            for m3 in range(top, stop, -1):
                twos, ones = half - 3 * m3, s2 - e + 3 * m3
                zeros = rest - s2 + half - m3
                sig3 = sig2 + ((3, m3),) if m3 else sig2
                if twos:
                    sig3 += ((2, twos),)
                if ones:
                    sig3 += ((1, ones),)
                if zeros:
                    sig3 += ((0, zeros),)
                x3 = x2 + (3,) * m3 + (2,) * twos + (1,) * ones + (0,) * zeros
                leaf(sig3, x3)
        # m = 0 at w >= 4: the lower bounds at m = 0 are cheap rejects, and
        # `_fits` implies both
        if w < 4 or s > w * slots or t > w * s or not _fits(w, slots, s, t):
            return
        v = w


def _walked(k: int, slots: int, d: int, leaf: Callable) -> None:
    """Calls leaf(signature, entries, kind) for each degree-d orbit of
    J(k, slots), lexicographically descending by representative: one
    search for square sum 2 + (k-2)*d^2, and one walk memo for this call."""
    known: dict[tuple, TerminalKind] = {}

    def walked(sig: tuple, x: tuple) -> None:
        end = _walk(k, d, sig, None, known)
        leaf(sig, x, _REAL if end is _MINUS_BETA else _ALMOST_REAL)

    _search(d, slots, k * d, 2 + (k - 2) * d * d, (), (), walked)


def enumerate_orbits(params: SystemParams, degree: int) -> tuple[OrbitClass, ...]:
    """All real and almost-real orbit classes of the given degree.

    A record-building leaf on `_walked`, so sorted lexicographically
    descending by representative; each orbit size n! / prod(m_v!) is one
    `_size` call, which forms no n!.  Nothing is cached across calls: a
    caller that needs the result twice keeps it.
    """
    _require_params(params)
    d = _admitted_degree("enumerate_orbits", degree)
    n = params.n
    classes = []
    add = classes.append

    def leaf(sig: tuple, x: tuple, kind: OrbitKind) -> None:
        # the search keeps only signatures whose n entries are ints summing to k*d
        add(OrbitClass(_trusted(params, x), d, kind, _size(n, sig), sig))

    _walked(params.k, n, d, leaf)
    return tuple(classes)


def count_real_roots(params: SystemParams, degree: int) -> int:
    """Number of positive real roots of the given degree."""
    _require_params(params)
    d = _admitted_degree("count_real_roots", degree, 0)
    if d == 0:
        return params.n * (params.n - 1) // 2
    return _roots(params, _census(params, d)[_REAL])


def count_almost_real_roots(params: SystemParams, degree: int) -> int:
    """Number of positive almost-real roots of the given degree."""
    _require_params(params)
    d = _admitted_degree("count_almost_real_roots", degree)
    return _roots(params, _census(params, d)[_ALMOST_REAL])


def _census(params: SystemParams, d: int) -> dict[OrbitKind, list[tuple]]:
    """{kind: signatures} of the degree-d orbits, each kind's in the order
    the search reaches them: a leaf on `_walked` that builds no record and
    computes no orbit size.  A kind's orbit count is its list's length, its
    root count `_roots` of the list."""
    sigs: dict[OrbitKind, list[tuple]] = {_REAL: [], _ALMOST_REAL: []}

    def leaf(sig: tuple, x: tuple, kind: OrbitKind) -> None:
        sigs[kind].append(sig)

    _walked(params.k, params.n, d, leaf)
    return sigs


def _roots(params: SystemParams, sigs: list[tuple]) -> int:
    """The roots in the orbits of J(params) with signatures ``sigs``: their
    sizes n! / prod(m_v!) summed, each one `_size` call."""
    n = params.n
    return sum(_size(n, sig) for sig in sigs)


def enumerate_generic(degree: int) -> tuple[GenericOrbit, ...]:
    """All generic orbits of the given degree.

    A record-building leaf on `_walked` over the host J(2d-1, 4d-2): each
    orbit appears there once, in the order the search reaches it.  Its core
    is the host representative stripped by the rule `minimal_support` also
    uses (the trailing zeros, then leading d's while k > 1), with the
    counts m_d and m_0 read off the signature's first and last pairs; its
    offset is k - m_d, which is k_min minus the d's left in the core.  Each
    distinct J(k_min, n_min) is built once.
    """
    d = _admitted_degree("enumerate_generic", degree)
    k = 2 * d - 1
    out = []
    add = out.append
    systems: dict[tuple[int, int], SystemParams] = {}

    def leaf(sig: tuple, x: tuple, kind: OrbitKind) -> None:
        (top, m_d), (low, m_0) = sig[0], sig[-1]
        m_d = m_d if top == d else 0
        k_min, core = _stripped(x, k, m_d, 0 if low else m_0)
        key = k_min, len(core)
        core_params = systems.get(key)
        if core_params is None:
            core_params = systems[key] = SystemParams(*key)
        add(GenericOrbit(core, core_params, k - m_d, d, kind))

    _walked(k, 2 * k, d, leaf)
    return tuple(out)
