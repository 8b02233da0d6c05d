"""Orbit-by-degree enumeration of real and almost-real roots.

The symmetric group S_n acts on the lattice by coordinate permutations, so
counting roots of a fixed degree d reduces to listing non-increasing
representatives x with entries in [0, d], sum k*d and q(x) = 2, classifying
each, and weighting by the orbit size n! / prod(multiplicities!).

The search picks the multiplicities (m_d, ..., m_1, m_0) of a
representative's entries, recursing only on a nonzero one, so it is at most
min(d, n) + 1 calls deep; the signature, representative and orbit size all
come from those multiplicities.

Every orbit of degree d, over all (k, n) at once, is captured by a finite
list of generic orbits: stripped to minimal support, a representative is a
vector of J(k_min, n_min) with k_min <= 2d-1 and n_min - k_min <= 2d-1, so
one search of J(2d-1, 4d-2) per degree finds them all, each core read off
its signature.  A generic orbit re-specializes to any large enough (k, n)
by restoring leading d's and trailing zeros.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from operator import itemgetter

from .classify import TerminalKind, _walk
from .errors import ContractError
from .lattice import LatticeVector, SystemParams, _extended

# Bound once here, so that code which rebinds this module's `LatticeVector`
# (a profiler's wrapper, say) leaves the unchecked path as it is.
_trusted = LatticeVector._trusted

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


@dataclass(frozen=True, slots=True)
class OrbitClass:
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


@dataclass(frozen=True, slots=True)
class GenericOrbit:
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

    def fits(self, params: SystemParams) -> bool:
        """Does this orbit exist in J(params)?"""
        km, nm = self.core_params.k, self.core_params.n
        return params.k >= km and params.n - params.k >= nm - km

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


def _fits(w: int, slots: int, s: int, t: int) -> bool:
    """Necessary for `slots` entries in [0, w] to have sum s, square sum t:
    Cauchy-Schwarz, and t at most the square sum of s piled into w's."""
    full, part = divmod(s, w) if w else (0, 0)
    return s * s <= slots * t and t <= full * w * w + part * part


def _search(v: int, slots: int, s: int, t: int, sig: tuple, out: list) -> None:
    """Extend a signature ((d, m_d), ..., (v+1, m_{v+1})) by m_v, ..., m_0.

    The `slots` entries left lie in [0, v], with sum s and square sum t.
    m_v runs from high to low, so representatives come out lexicographically
    descending.  The entries after m_v are each some c <= v-1, so
    c <= c^2 <= (v-1)*c, their sum is at most (v-1)*slots, and `_fits`
    holds.  m_v = 0 moves on to v-1 in place rather than recursing.

    A branch whose entries left can only be 0s and 1s (t' = s') ends in
    closed form instead of two more calls.
    """
    if t < s:
        return
    # every entry c has c*(c-1) <= t - s, which caps the largest
    v = min(v, (1 + math.isqrt(1 + 4 * (t - s))) // 2)
    while v:
        w = v - 1
        # left after m copies: s' = s - m*v, t' = t - m*v^2, slots' = slots - m;
        # s' <= w*slots' and t' <= w*s' bound m below, s' <= t' above
        hi = min(slots, s // v, t // (v * v))
        if w:
            hi = min(hi, (t - s) // (v * w))
        lo = max(0, s - w * slots, -((w * s - t) // v))
        for m in range(hi, max(lo, 1) - 1, -1):
            rest, s2, t2 = slots - m, s - m * v, t - m * v * v
            if not _fits(w, rest, s2, t2):
                continue
            if t2 > s2:
                _search(w, rest, s2, t2, sig + ((v, m),), out)
                continue
            # c*(c-1) >= 0, with equality only at c = 0, 1: t' = s' leaves
            # s' ones (none when w = 0) and rest - s' zeros, s' <= rest by `_fits`
            leaf = sig + ((v, m),)
            if s2:
                leaf += ((1, s2),)
            out.append(leaf + ((0, rest - s2),) if rest > s2 else leaf)
        if lo or hi < 0 or not _fits(w, slots, s, t):
            return
        v = w
    out.append(sig + ((0, slots),) if slots else sig)


def _classes(k: int, n: int, d: int):
    """Each orbit of degree d in J(k,n) as (signature, entries, kind), descending.

    The walks share one memo of sorted vectors, which lives for this call.
    """
    found: list[tuple[tuple[int, int], ...]] = []
    _search(d, n, k * d, 2 + (k - 2) * d * d, (), found)
    known: dict[tuple[int, ...], TerminalKind] = {}
    for signature in found:
        x = tuple(chain.from_iterable(starmap(repeat, signature)))
        real = _walk(k, x, known=known) is TerminalKind.REACHED_MINUS_BETA
        yield signature, x, OrbitKind.REAL if real else OrbitKind.ALMOST_REAL


def enumerate_orbits(params: SystemParams, degree: int) -> tuple[OrbitClass, ...]:
    """All real and almost-real orbit classes of the given degree.

    One search over the multiplicities (m_d, ..., m_0), at most
    min(d, n) + 1 calls deep, gives each multiset signature, and from it the
    representative and its orbit size n! / prod(m_v!), with n! taken once.
    Sorted lexicographically descending by representative.  The walks share
    a memo that lives for this call only; nothing is cached across calls: a
    caller that needs the result twice keeps it.
    """
    if degree < 1:
        raise ContractError(f"enumerate_orbits requires degree >= 1, got {degree}")
    n_factorial = math.factorial(params.n)
    classes = []
    for sig, x, kind in _classes(params.k, params.n, degree):
        size = n_factorial // math.prod(map(math.factorial, map(itemgetter(1), sig)))
        # the search keeps only signatures whose n entries are ints summing to k*d
        classes.append(OrbitClass(_trusted(params, x), degree, kind, size, sig))
    return tuple(classes)


def count_real_roots(params: SystemParams, degree: int) -> int:
    """Number of positive real roots of the given degree."""
    if degree < 0:
        raise ContractError(f"count_real_roots requires degree >= 0, got {degree}")
    if degree == 0:
        return params.n * (params.n - 1) // 2
    return sum(
        oc.orbit_size
        for oc in enumerate_orbits(params, degree)
        if oc.kind is OrbitKind.REAL
    )


def count_almost_real_roots(params: SystemParams, degree: int) -> int:
    """Number of positive almost-real roots of the given degree."""
    if degree < 1:
        raise ContractError(
            f"count_almost_real_roots requires degree >= 1, got {degree}"
        )
    return sum(
        oc.orbit_size
        for oc in enumerate_orbits(params, degree)
        if oc.kind is OrbitKind.ALMOST_REAL
    )


def enumerate_generic(degree: int) -> tuple[GenericOrbit, ...]:
    """All generic orbits of the given degree.

    Each appears once in the host J(2d-1, 4d-2); its core is read off the
    host signature by dropping the m_0 zeros and min(m_d, 2d-2) leading d's,
    as `minimal_support` strips a vector, and its offset is 2d-1 - m_d.
    """
    if degree < 1:
        raise ContractError(f"enumerate_generic requires degree >= 1, got {degree}")
    d = degree
    k, n = 2 * d - 1, 4 * d - 2
    out = []
    for signature, x, kind in _classes(k, n, d):
        mult = dict(signature)
        strip = min(mult.get(d, 0), k - 1)
        core = x[strip : n - mult.get(0, 0)]
        core_params = SystemParams(k - strip, len(core))
        out.append(GenericOrbit(core, core_params, k - mult.get(d, 0), d, kind))
    return tuple(out)
