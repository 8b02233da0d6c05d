"""Membership classification for real and almost-real roots.

A lattice element x of degree d >= 1 is a positive real root exactly when

(1) 0 <= x_i <= d for all i,
(2) q(x) = 2,
(3) repeated application of x -> s_beta(dec(x)) ends at -beta without
    breaking condition (1) at any intermediate step.

Elements satisfying (1) and (2) whose reduction breaks (1) instead of
reaching -beta are the almost real roots; they occur only in degrees >= 4.
An input of degree >= 1 ends in one of four ways, at -beta, by breaking
(1) after a step, or refused by (1) or (2) before any step, and each end
is named once, in one row of a table that the kinds and traces read.
Degree-0 real roots are exactly the differences e_i - e_j and are handled
structurally.  The classifier covers every input: zero, negative degrees
(by sign mirror), non-lattice tuples (via :func:`classify_entries`), and
vectors failing (1) or (2).

x is sorted once, into its signature: the (value, multiplicity) pairs,
values descending.  The sum, the window ends and q are read off the
signature, and the walk steps on signatures, at a cost per step of the
number of distinct values.  A trace keeps each step's signature, r and
degree; its :class:`ReductionStep` records and their vectors are built on
each read of ``steps`` and not kept.  The records subclass
`lattice._Record`, so they share its comparison, hash and repr (the trace
writes its own repr, of its steps), and each is stored once, through the
store its metaclass `lattice._RecordType` compiles, which is its
``__init__``.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import namedtuple
from typing import Iterator, Optional, Sequence

from .errors import ContractError
from .lattice import LatticeVector, SystemParams, _admit, _Record
from .lattice import _require_vector, _trusted, _window

__all__ = [
    "Kind",
    "TerminalKind",
    "ReductionStep",
    "ReductionTrace",
    "Classification",
    "classify",
    "classify_entries",
    "reduce_trace",
]


class Kind(str, enum.Enum):
    """Classification outcomes."""

    REAL_POSITIVE = "RealPositive"
    REAL_NEGATIVE = "RealNegative"
    ALMOST_REAL_POSITIVE = "AlmostRealPositive"
    ALMOST_REAL_NEGATIVE = "AlmostRealNegative"
    DEGREE_ZERO_REAL = "DegreeZeroReal"
    NOT_REAL_Q = "NotRealQ"
    NOT_REAL_RANGE = "NotRealRangeViolation"
    NOT_IN_LATTICE = "NotInLattice"
    ZERO = "Zero"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_real(self) -> bool:
        return self in _REAL_KINDS

    @property
    def is_almost_real(self) -> bool:
        return self in _ALMOST_REAL_KINDS


class TerminalKind(str, enum.Enum):
    """How a reduction trace ended: at -beta, or by breaking the range
    condition, after a step or before any; Q_VIOLATION marks the zero-step
    trace of a degree >= 1 input that fails q = 2.  `_ENDS` names each end."""

    REACHED_MINUS_BETA = "REACHED_MINUS_BETA"
    RANGE_VIOLATION = "RANGE_VIOLATION"
    Q_VIOLATION = "Q_VIOLATION"


# Members bound once: a read through an enum class costs a `__getattr__`
# call, a module global does not
_MINUS_BETA, _RANGE = TerminalKind.REACHED_MINUS_BETA, TerminalKind.RANGE_VIOLATION
_ZERO, _DEGREE_ZERO_REAL = Kind.ZERO, Kind.DEGREE_ZERO_REAL
_NOT_REAL_Q, _NOT_REAL_RANGE = Kind.NOT_REAL_Q, Kind.NOT_REAL_RANGE
_NOT_IN_LATTICE = Kind.NOT_IN_LATTICE
_REAL_KINDS = frozenset((Kind.REAL_POSITIVE, Kind.REAL_NEGATIVE, _DEGREE_ZERO_REAL))
_ALMOST_REAL_KINDS = frozenset((Kind.ALMOST_REAL_POSITIVE, Kind.ALMOST_REAL_NEGATIVE))

# Each end of a degree >= 1 input, keyed by (terminal, whether the walk took
# a step): its kind, its negation's, and its json and plain terminal names
_End = namedtuple("_End", "kind mirror label line")
_ENDS = {
    (TerminalKind.REACHED_MINUS_BETA, True): _End(
        Kind.REAL_POSITIVE, Kind.REAL_NEGATIVE, "real", "reached -beta"
    ),
    (TerminalKind.RANGE_VIOLATION, True): _End(
        Kind.ALMOST_REAL_POSITIVE, Kind.ALMOST_REAL_NEGATIVE,
        "almost", "range violation",
    ),
    (TerminalKind.RANGE_VIOLATION, False): _End(
        Kind.NOT_REAL_RANGE, Kind.NOT_REAL_RANGE,
        "range", "range violation before any step",
    ),
    (TerminalKind.Q_VIOLATION, False): _End(
        Kind.NOT_REAL_Q, Kind.NOT_REAL_Q, "q", "q violation"
    ),
}


class ReductionStep(_Record):
    """One application of x -> s_beta(dec(x)).

    ``before_sort`` is the vector entering the step, ``sorted`` its
    non-increasing rearrangement, ``r`` the shift added to the first k
    entries, ``degree_after`` the degree of the step's output.
    """

    before_sort: LatticeVector
    sorted: LatticeVector
    r: int
    degree_after: int


class ReductionTrace(_Record):
    """How the walk ended, and its steps, built each time they are read.

    The walk keeps each step as the signature of its sorted vector, its r
    and its degree_after.  ``steps`` expands these into fresh
    :class:`ReductionStep` records on each read and does not keep them;
    step 0's ``before_sort`` is the walk's input.  The kept signatures decide
    equality: two traces are equal exactly when their steps and terminals
    are.  The two zero-step traces, a range break before any step and
    q != 2, hold no vector; :func:`classify` builds each once, at import,
    and every result of those kinds shares it.  Only these two and walked
    traces render; any other terminal and step count raise ContractError.
    """

    terminal: TerminalKind
    _input: Optional[LatticeVector] = None
    _walked: tuple[tuple[tuple, int, int], ...] = ()

    @property
    def steps(self) -> tuple[ReductionStep, ...]:
        """The steps, built on each read and not kept.  The vectors are
        built unchecked: step i's input is s_beta of step i-1's sorted
        vector, and s_beta(y) = y + r*beta stays in the lattice, as does the
        sorted permutation of a lattice vector."""
        steps, before, prev = [], self._input, None
        for srt, r, d_after in self._rows():
            params = before.params
            if prev is not None:
                k = params.k
                shifted = tuple([c + shift for c in prev[:k]]) + prev[k:]
                before = _trusted(params, shifted)
            steps.append(ReductionStep(before, _trusted(params, srt), r, d_after))
            prev, shift = srt, r
        return tuple(steps)

    def _rows(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """(sorted entries, r, degree_after) of each step, built one at a
        time and not kept."""
        for sig, r, d_after in self._walked:
            yield _entries(sig), r, d_after

    @property
    def _end(self) -> _End:
        try:
            return _ENDS[self.terminal, bool(self._walked)]
        except KeyError:
            t, n = self.terminal.value, len(self._walked)
            raise ContractError(f"no end is {t} after {n} steps") from None

    def as_json_dict(self) -> dict:
        return {
            "steps": [
                {"sorted": list(srt), "r": r, "degree": d_after}
                for srt, r, d_after in self._rows()
            ],
            "terminal": self._end.label,
        }

    def plain_lines(self, indent: str = "") -> Iterator[str]:
        """A line per step, then the ``terminal:`` line, each after
        ``indent``; each step is expanded as its line is built, not kept."""
        for i, (srt, r, d_after) in enumerate(self._rows(), start=1):
            entries = ",".join(map(str, srt))
            yield f"{indent}step {i}: sorted=({entries}) r={r} degree_after={d_after}"
        yield f"{indent}terminal: {self._end.line}"

    def __repr__(self) -> str:
        return f"ReductionTrace(steps={self.steps!r}, terminal={self.terminal!r})"


_RANGE_TRACE = ReductionTrace(TerminalKind.RANGE_VIOLATION)
_Q_TRACE = ReductionTrace(TerminalKind.Q_VIOLATION)


class Classification(_Record):
    """Outcome of :func:`classify`.

    ``q_value`` is attached when the kind is NotRealQ.  ``degree`` is the
    input's degree when it is defined (None for non-lattice entries).  The
    trace is present for every lattice input of nonzero degree; for
    negative degrees it is the trace of the mirrored positive vector.
    """

    kind: Kind
    trace: Optional[ReductionTrace] = None
    q_value: Optional[int] = None
    degree: Optional[int] = None


def _entries(sig: tuple) -> tuple[int, ...]:
    """The non-increasing entries that a signature stands for."""
    out: list[int] = []
    for c, m in sig:
        out += [c] * m
    return tuple(out)


def _signature(x: Sequence[int]) -> tuple[tuple, int, int]:
    """The signature of x, its (value, multiplicity) pairs with values
    descending, and the sum and square sum of x read off it: one sort, then
    one bisection per distinct value."""
    s = sorted(x)
    sig = []
    total = squares = 0
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        j = bisect_right(s, c, i)
        m = j - i
        sig.append((c, m))
        total += c * m
        squares += c * c * m
        i = j
    sig.reverse()
    return tuple(sig), total, squares


def _walk(
    k: int,
    d: int,
    sig: tuple,
    steps: Optional[list[tuple[tuple, int, int]]] = None,
    known: Optional[dict[tuple, TerminalKind]] = None,
) -> TerminalKind:
    """The contraction walk x -> s_beta(dec(x)) on the signature of x.

    ``sig`` holds the (value, multiplicity) pairs of x, values descending
    and multiplicities positive, the form the orbit search builds.  Caller
    guarantees: d >= 1 is the degree, the entries lie in [0, d], q = 2.  A
    step splits off the pairs of the top k entries, shifts their values by
    r and merges them back into the rest, so it costs O(distinct values),
    not a sort of n entries.  The head (first k entries, shifted) and the
    tail stay sorted, so the window [0, degree_after] is checked at their
    ends only.  When ``steps`` is a list, each step is appended to it as
    (signature, r, degree_after), the signature being that of the step's
    sorted vector; step 0's is ``sig``.

    ``known`` is a memo for the walks of one enumeration, all with this k:
    the walk's later steps depend only on the signature, so the walk stops
    at the first signature from step 1 on that ``known`` holds, takes its
    terminal, and stores the terminal for every signature from step 1 on
    that it passed.  Step 0's signature is the input itself; within one
    degree no walk meets it again, since the degree drops every step.  A
    walk that records ``steps`` passes no memo.
    """
    path = []
    for i in range(d + 1):  # the degree drops every step
        if i and known is not None:
            terminal = known.get(sig)
            if terminal is not None:
                break
            path.append(sig)
        # the top k entries: the pairs before sig[j], and `left` copies of c
        j, left, head = 0, k, 0
        c, m = sig[0]
        while m < left:
            head += c * m
            left -= m
            j += 1
            c, m = sig[j]
        r = k * d - head - c * left - 2 * d  # the tail's sum, minus 2d
        d += r
        if steps is not None:
            steps.append((sig, r, d))
        # the output is the head shifted by r, then the tail: m - left copies
        # of c and the pairs after sig[j].  Both are sorted, so their ends
        # bound it, and it is merged only if the walk goes on.
        first, last = sig[0][0] + r, c + r
        if m > left or j + 1 < len(sig):
            top, bottom = c if m > left else sig[j + 1][0], sig[-1][0]
            hi = first if first > top else top
            lo = last if last < bottom else bottom
        else:  # no tail
            hi, lo, bottom = first, last, 0
        if hi <= 0:
            # The input had entries in [0, d], so an all-nonpositive output
            # has an all-zero tail and r = -2d.  Then the head sums to k*d and
            # q = sum x_i^2 - (k-2) d^2 >= k d^2 - (k-2) d^2 = 2 d^2, with
            # equality only when the head is constant: q = 2 forces d = 1 and
            # x = beta, whose output is -beta.  Any other end breaks the
            # caller's guarantee.
            if first == last == -1 and bottom == 0:
                terminal = _MINUS_BETA
                break
            entries = _entries(sig)
            vector = tuple(e + r for e in entries[:k]) + entries[k:]
            raise RuntimeError(
                f"the walk reached the nonpositive vector {vector},"
                " not -beta: its input broke the range or q = 2 precondition"
            )
        if lo < 0 or hi > d:
            terminal = _RANGE
            break
        out = dict(sig[j + 1 :])
        if m > left:
            out[c] = m - left
        get = out.get
        for value, mult in sig[:j]:
            value += r
            out[value] = get(value, 0) + mult
        c += r
        out[c] = get(c, 0) + left
        sig = tuple(sorted(out.items(), reverse=True))
    else:
        raise RuntimeError("reduction failed to terminate")
    for key in path:
        known[key] = terminal
    return terminal


def reduce_trace(v: LatticeVector) -> ReductionTrace:
    """Full reduction record for a range-valid q = 2 vector of degree >= 1.

    The degree and the window are checked first, by `lattice._window`, so no
    walk runs on an input refused there; then q = 2 is that of
    :func:`classify`, whose trace this is.  Step 0's ``before_sort`` is
    ``v`` itself.
    """
    _window("reduce_trace", v)
    c = classify(v)
    if c.kind is _NOT_REAL_Q:
        raise ContractError(f"reduce_trace requires q = 2, got q = {c.q_value}")
    return c.trace


def classify(v: LatticeVector) -> Classification:
    """Classify a lattice vector; see the module docstring for the cases."""
    _require_vector(v)
    return _classified(v, *_signature(v.x))


def _classified(
    v: LatticeVector, sig: tuple, total: int, squares: int
) -> Classification:
    """:func:`classify` of v, given its signature, sum and square sum: the
    degree, the window ends and q are read off these, not off v's entries."""
    k = v.params.k
    d = total // k
    if d < 0:
        mirror = _classified(
            -v, tuple([(-c, m) for c, m in reversed(sig)]), -total, squares
        )
        # -v has degree >= 1, so a trace, and v's kind is its end's mirror
        trace = mirror.trace
        return Classification(trace._end.mirror, trace, mirror.q_value, d)
    hi, lo = sig[0][0], sig[-1][0]
    if d == 0:
        if hi == lo == 0:
            return Classification(_ZERO, None, None, 0)
        # one 1, one -1, and any other entries 0
        if sig[0] == (1, 1) and sig[-1] == (-1, 1) and len(sig) <= 3:
            return Classification(_DEGREE_ZERO_REAL, None, None, 0)
        return Classification(_NOT_REAL_Q, None, squares, 0)
    if lo < 0 or hi > d:
        return Classification(_NOT_REAL_RANGE, _RANGE_TRACE, None, d)
    qv = squares + (2 - k) * d * d
    if qv != 2:
        return Classification(_NOT_REAL_Q, _Q_TRACE, qv, d)
    walked: list[tuple[tuple, int, int]] = []
    terminal = _walk(k, d, sig, walked)
    trace = ReductionTrace(terminal, v, tuple(walked))
    return Classification(_ENDS[terminal, True].kind, trace, None, d)


def classify_entries(params: SystemParams, entries: Sequence[int]) -> Classification:
    """Classify raw integer entries, reporting NotInLattice instead of raising."""
    entries = _admit(params, entries)
    sig, total, squares = _signature(entries)
    if total % params.k != 0:
        return Classification(_NOT_IN_LATTICE)
    # ints, of the right length, with k | sum: the constructor's own checks
    return _classified(_trusted(params, entries), sig, total, squares)
