"""Weyl group action on the root lattice.

Generators:

* ``s_i`` (1 <= i <= n-1) swaps the coordinates x_i and x_{i+1}; together
  they give the symmetric-group action permuting entries, with the degree
  unchanged.
* ``s_beta`` is the reflection in beta.  In coordinates it adds
  r = x_{k+1} + ... + x_n - 2 deg(x) to each of the first k entries and
  shifts the degree by r.

``dec`` sorts the entries in non-increasing order; it is realized by the
s_i and is the canonical representative map for the permutation orbits.
Words are plain sequences of generators applied eagerly, first letter first.
"""

from __future__ import annotations

from operator import index
from typing import Union

from .errors import ContractError
from .lattice import LatticeVector, _ints, _record, _Record
from .lattice import _require_vector, degree

__all__ = [
    "S_BETA",
    "WeylWord",
    "apply_s_i",
    "apply_s_beta",
    "dec",
    "apply_word",
    "parse_word",
    "format_word",
]

#: Token standing for the branch-node reflection in words ("b" on the CLI).
S_BETA = "b"

Letter = Union[int, str]


@_record
class WeylWord(_Record):
    """A finite sequence of generators, each S(i) as an int or ``S_BETA``;
    the constructor stores each index as an int."""

    letters: tuple[Letter, ...]

    def __init__(self, letters: tuple[Letter, ...]) -> None:
        try:
            letters = iter(letters)
        except TypeError:
            raise ContractError(
                f"a word is a sequence of letters, got {type(letters).__name__}"
            ) from None
        admitted = []
        for ell in letters:
            try:  # an index is admitted as a vector entry is
                i = S_BETA if ell == S_BETA else index(ell)
            except TypeError:
                i = 0
            if i != S_BETA and i < 1:
                raise ContractError(f"bad word letter {ell!r}")
            admitted.append(i)
        self._store(tuple(admitted))

    def __len__(self) -> int:
        return len(self.letters)


def apply_s_i(i: int, v: LatticeVector) -> LatticeVector:
    """Swap entries i and i+1 (1-indexed)."""
    _require_vector(v)
    (i,) = _ints("reflection indices", (i,))
    if not 1 <= i <= v.params.n - 1:
        raise ContractError(
            f"reflection index must be in 1..{v.params.n - 1}, got {i}"
        )
    x = list(v.x)
    x[i - 1], x[i] = x[i], x[i - 1]
    return LatticeVector(v.params, tuple(x))


def apply_s_beta(v: LatticeVector) -> LatticeVector:
    """Add r = x_{k+1} + ... + x_n - 2 deg(x) to the first k entries."""
    d = degree(v)
    k = v.params.k
    r = sum(v.x[k:]) - 2 * d
    return LatticeVector(
        v.params, tuple(c + r for c in v.x[:k]) + v.x[k:]
    )


def dec(v: LatticeVector) -> LatticeVector:
    """Entries sorted in non-increasing order."""
    _require_vector(v)
    return LatticeVector(v.params, tuple(sorted(v.x, reverse=True)))


def apply_word(w: WeylWord, v: LatticeVector) -> LatticeVector:
    """Apply the generators of ``w`` in sequence, first letter first."""
    _require_vector(v)
    for ell in w.letters:
        if ell == S_BETA:
            v = apply_s_beta(v)
        else:
            v = apply_s_i(ell, v)
    return v


def parse_word(text: str) -> WeylWord:
    """Parse the CLI word syntax, e.g. ``"b,3,b,1"``."""
    letters: list[Letter] = []
    text = text.strip()
    if text:
        for token in text.split(","):
            token = token.strip()
            try:
                letters.append(token if token == S_BETA else int(token))
            except ValueError:
                raise ContractError(f"bad word token {token!r}") from None
    # the constructor refuses an index below 1
    return WeylWord(tuple(letters))


def format_word(w: WeylWord) -> str:
    return ",".join(str(ell) for ell in w.letters)
