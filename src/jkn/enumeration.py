"""Orbit-by-degree enumeration of real and almost-real roots.

The symmetric group S_n acts on the lattice by coordinate permutations, so
counting roots of a fixed degree d reduces to listing non-increasing
representatives x with entries in [0, d], sum k*d and q(x) = 2, classifying
each, and weighting by the orbit size n! / prod(multiplicities!).

Every orbit of degree d, over all (k, n) at once, is captured by a finite
list of generic orbits: the representative stripped to minimal support is a
vector of J(k_min, n_min) with k_min <= 2d-1 and n_min - k_min <= 2d-1, so
enumerating J(2d-1, 4d-2) once per degree finds them all.  A generic orbit
re-specializes to any large enough (k, n) by restoring leading d's and
trailing zeros.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass

from .classify import TerminalKind, _walk
from .errors import ContractError
from .families import minimal_support
from .lattice import LatticeVector, SystemParams

__all__ = [
    "OrbitKind",
    "OrbitClass",
    "GenericOrbit",
    "enumerate_orbits",
    "count_real_roots",
    "count_almost_real_roots",
    "enumerate_generic",
    "orbit_size",
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
        """The orbit's representative inside J(params)."""
        if not self.fits(params):
            raise ContractError(
                f"orbit with minimal support {self.core_params} does not fit in"
                f" {params}"
            )
        km = self.core_params.k
        pad = params.n - params.k - (self.core_params.n - km)
        entries = (self.degree,) * (params.k - km) + self.core + (0,) * pad
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


def orbit_size(representative: LatticeVector) -> int:
    """Number of distinct permutations of the representative's entries."""
    n = representative.params.n
    size = math.factorial(n)
    for mult in Counter(representative.x).values():
        size //= math.factorial(mult)
    return size


def _min_square_sum(total: int, slots: int) -> int:
    """Least possible sum of squares of `slots` nonnegative ints summing to total."""
    a, r = divmod(total, slots)
    return (slots - r) * a * a + r * (a + 1) * (a + 1)


def _search_suffix(
    prefix: tuple[int, ...],
    slots: int,
    max_val: int,
    s: int,
    t: int,
    out: list[tuple[int, ...]],
) -> None:
    """Extend a non-increasing prefix by `slots` entries with sum s, square sum t.

    Candidate values are tried in descending order so the output is
    lexicographically descending.  Once the sum is spent the rest are
    zeros, so the recursion depth is the number of nonzero entries.
    """
    if s == 0:
        if t == 0:
            out.append(prefix + (0,) * slots)
        return
    for v in range(min(max_val, s), 0, -1):
        rem_s = s - v
        rem_t = t - v * v
        if rem_t < 0:
            continue
        m = slots - 1
        if rem_s > v * m:
            break  # even all-v entries cannot reach the sum; smaller v is worse
        if (rem_s - rem_t) % 2 != 0:
            continue  # sum and square sum always share parity
        if rem_s > 0:
            if rem_t < _min_square_sum(rem_s, m):
                continue
            full, part = divmod(rem_s, v)
            if rem_t > full * v * v + part * part:
                continue  # concentrating mass in v's is the square-sum maximum
        _search_suffix(prefix + (v,), m, v, rem_s, rem_t, out)


def enumerate_orbits(params: SystemParams, degree: int) -> tuple[OrbitClass, ...]:
    """All real and almost-real orbit classes of the given degree.

    Sorted lexicographically descending by representative.  Nothing is
    cached: a caller that needs the result twice keeps it.
    """
    if degree < 1:
        raise ContractError(f"enumerate_orbits requires degree >= 1, got {degree}")
    k, d = params.k, degree
    candidates: list[tuple[int, ...]] = []
    _search_suffix((), params.n, d, k * d, 2 + (k - 2) * d * d, candidates)
    classes = []
    for x in candidates:
        kind = (
            OrbitKind.REAL
            if _walk(k, x) is TerminalKind.REACHED_MINUS_BETA
            else OrbitKind.ALMOST_REAL
        )
        rep = LatticeVector(params, x)
        signature = tuple(sorted(Counter(x).items(), reverse=True))
        classes.append(OrbitClass(rep, d, kind, orbit_size(rep), signature))
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

    Every orbit's minimal-support core lives in J(2d-1, 4d-2), where each
    generic orbit appears exactly once, so one concrete enumeration there
    covers every sufficiently large system.
    """
    if degree < 1:
        raise ContractError(f"enumerate_generic requires degree >= 1, got {degree}")
    d = degree
    host = SystemParams(2 * d - 1, 4 * d - 2)
    out = []
    for oc in enumerate_orbits(host, d):
        core_params, core = minimal_support(oc.representative)
        lead = 0
        while lead < len(core.x) and core.x[lead] == d:
            lead += 1
        out.append(
            GenericOrbit(
                core=core.x,
                core_params=core_params,
                d_multiplicity_offset=core_params.k - lead,
                degree=d,
                kind=oc.kind,
            )
        )
    return tuple(out)
