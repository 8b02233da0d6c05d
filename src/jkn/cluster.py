"""Profiles: stacks of k-subsets linked to lattice vectors by counting.

A profile is a sequence of d rows, each a sorted k-subset of {1,...,n}.
The map phi sends a profile to the vector of occurrence counts, which
lands in the lattice because the total count is k*d.  Conversely
:func:`canonical_profile` builds, for any vector in the window of
`lattice._window` (degree d >= 1, entries in [0, d]), a distinguished
preimage that is canonical: weakly column decreasing with the wrap-around
inequality between the last and first rows.
"""

from __future__ import annotations

from operator import index

from .errors import ContractError
from .lattice import LatticeVector, SystemParams, _ints, _record, _Record
from .lattice import _require_params, _window

__all__ = [
    "Profile",
    "phi",
    "canonical_profile",
    "is_weakly_column_decreasing",
    "is_canonical",
    "cyclic_permutations",
]


@_record
class Profile(_Record):
    """d rows of sorted k-subsets of {1,...,n}, first row on top, each
    entry admitted as a vector's is, through ``operator.index``."""

    params: SystemParams
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, params: SystemParams, rows: tuple[tuple[int, ...], ...]) -> None:
        _require_params(params)
        rows = _ints("profile entries", rows, lambda row: tuple(map(index, row)))
        k, n = params.k, params.n
        if not rows:
            raise ContractError("a profile needs at least one row")
        for row in rows:
            if len(row) != k:
                raise ContractError(
                    f"every row must have exactly {k} elements, got {row}"
                )
            if any(not 1 <= e <= n for e in row):
                raise ContractError(f"row {row} leaves the range 1..{n}")
            if any(row[i] >= row[i + 1] for i in range(k - 1)):
                raise ContractError(f"row {row} is not strictly increasing")
        self._store(params, rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def plain_str(self) -> str:
        if self.params.n <= 9:
            return "|".join("".join(str(e) for e in row) for row in self.rows)
        return "|".join(",".join(str(e) for e in row) for row in self.rows)

    def as_json_dict(self) -> dict:
        return {"rows": [list(row) for row in self.rows]}


def phi(p: Profile) -> LatticeVector:
    """Occurrence counts: x_i = how often i appears across the rows."""
    counts = [0] * p.params.n
    for row in p.rows:
        for e in row:
            counts[e - 1] += 1
    return LatticeVector(p.params, tuple(counts))


def canonical_profile(v: LatticeVector) -> Profile:
    """The distinguished preimage of v under phi.

    List each index i exactly x_i times in increasing order, giving a
    sequence a of length kd; row i (1-indexed from the top) collects the
    entries at positions d-i+1, d-i+1+d, ..., d-i+1+(k-1)d.  Reading the
    columns bottom-up along a makes the result canonical, and every
    position is hit exactly once, so phi returns v.
    """
    d = _window("canonical_profile", v)
    k = v.params.k
    a: list[int] = []
    for i, mult in enumerate(v.x, start=1):
        a.extend([i] * mult)
    rows = tuple(
        tuple(sorted(a[d - i + 1 + j * d - 1] for j in range(k)))
        for i in range(1, d + 1)
    )
    return Profile(v.params, rows)


def is_weakly_column_decreasing(p: Profile) -> bool:
    """Each column never increases from one row to the next."""
    return all(
        p.rows[i][j] >= p.rows[i + 1][j]
        for i in range(len(p.rows) - 1)
        for j in range(p.params.k)
    )


def is_canonical(p: Profile) -> bool:
    """Weakly column decreasing plus the wrap-around condition.

    The wrap-around compares the bottom row against the top row shifted by
    one column: P[d][j] >= P[1][j-1] for j = 2..k.
    """
    if not is_weakly_column_decreasing(p):
        return False
    top, bottom = p.rows[0], p.rows[-1]
    return all(bottom[j] >= top[j - 1] for j in range(1, p.params.k))


def cyclic_permutations(p: Profile) -> list[Profile]:
    """All row rotations, the original first."""
    return [
        Profile(p.params, p.rows[r:] + p.rows[:r]) for r in range(len(p.rows))
    ]
