"""Membership classification for real and almost-real roots.

A lattice element x of degree d >= 1 is a positive real root exactly when

(1) 0 <= x_i <= d for all i,
(2) q(x) = 2,
(3) repeated application of x -> s_beta(dec(x)) ends at -beta without
    breaking condition (1) at any intermediate step.

Elements satisfying (1) and (2) whose reduction breaks (1) instead of
reaching -beta are the almost real roots; they occur only in degrees >= 4.
Degree-0 real roots are exactly the differences e_i - e_j and are handled
structurally.  The classifier covers every input: zero, negative degrees
(by sign mirror), non-lattice tuples (via :func:`classify_entries`), and
vectors failing (1) or (2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .errors import ContractError
from .lattice import LatticeVector, SystemParams, _admit, _slot_init, _trusted

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
        return self in (Kind.REAL_POSITIVE, Kind.REAL_NEGATIVE, Kind.DEGREE_ZERO_REAL)

    @property
    def is_almost_real(self) -> bool:
        return self in (Kind.ALMOST_REAL_POSITIVE, Kind.ALMOST_REAL_NEGATIVE)


class TerminalKind(str, enum.Enum):
    """How a reduction trace ended.

    The iteration itself terminates by reaching -beta or by breaking the
    range condition.  Q_VIOLATION marks the zero-step trace attached when a
    degree >= 1 input fails q = 2 before the iteration starts.
    """

    REACHED_MINUS_BETA = "REACHED_MINUS_BETA"
    RANGE_VIOLATION = "RANGE_VIOLATION"
    Q_VIOLATION = "Q_VIOLATION"


_TERMINAL_JSON = {
    TerminalKind.REACHED_MINUS_BETA: "real",
    TerminalKind.RANGE_VIOLATION: "almost",
    TerminalKind.Q_VIOLATION: "q",
}

# The kind of a negative-degree input from the kind of its negation
_MIRROR_KIND = {
    Kind.REAL_POSITIVE: Kind.REAL_NEGATIVE,
    Kind.REAL_NEGATIVE: Kind.REAL_POSITIVE,
    Kind.ALMOST_REAL_POSITIVE: Kind.ALMOST_REAL_NEGATIVE,
    Kind.ALMOST_REAL_NEGATIVE: Kind.ALMOST_REAL_POSITIVE,
}


@dataclass(frozen=True, slots=True, init=False)
class ReductionStep:
    """One application of x -> s_beta(dec(x)).

    ``before_sort`` is the vector entering the step, ``sorted`` its
    non-increasing rearrangement, ``r`` the shift added to the first k
    entries, ``degree_after`` the degree of the step's output.
    """

    before_sort: LatticeVector
    sorted: LatticeVector
    r: int
    degree_after: int


ReductionStep.__init__ = _slot_init(ReductionStep)


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    terminal: TerminalKind

    def as_json_dict(self) -> dict:
        return {
            "steps": [
                {"sorted": list(s.sorted.x), "r": s.r, "degree": s.degree_after}
                for s in self.steps
            ],
            "terminal": _terminal_label(self),
        }


def _terminal_label(trace: ReductionTrace) -> str:
    """How the trace ended, as its JSON names it; a range break before any
    step is "range"."""
    if trace.terminal is TerminalKind.RANGE_VIOLATION and not trace.steps:
        return "range"
    return _TERMINAL_JSON[trace.terminal]


@dataclass(frozen=True, slots=True)
class Classification:
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


# (before, sorted, r, degree_after), the raw form of a ReductionStep; step
# 0's before is the walk's input, already sorted
_StepRecord = tuple[tuple[int, ...], tuple[int, ...], int, int]


def _walk(
    k: int,
    x: Sequence[int],
    steps: Optional[list[_StepRecord]] = None,
    known: Optional[dict[tuple[int, ...], TerminalKind]] = None,
) -> TerminalKind:
    """The contraction walk x -> s_beta(dec(x)) on raw entries.

    Caller guarantees: entries non-increasing and in [0, d], q = 2, d >= 1,
    so only steps 1 and later sort.  When ``steps`` is a list, each step is
    appended to it as (before, sorted, r, degree_after), where step 0's
    before and sorted are both the input.  The head (first k entries,
    shifted by r) and the tail stay sorted, so the window [0, degree_after]
    is checked at their ends only.

    ``known`` is a memo for the walks of one enumeration, all with this k:
    the walk's later steps depend only on the sorted vector, so the walk
    stops at the first sorted vector from step 1 on that ``known`` holds,
    takes its terminal, and stores the terminal for every sorted vector from
    step 1 on that it passed.  Step 0's sorted vector is the input itself;
    within one degree no walk meets it again, since the degree drops every
    step.  A walk that records ``steps`` passes no memo.
    """
    d = sum(x) // k
    path = []
    s = x
    for i in range(d + 1):  # the degree drops every step
        if i:
            s = sorted(x, reverse=True)
            if known is not None:
                key = tuple(s)
                terminal = known.get(key)
                if terminal is not None:
                    break
                path.append(key)
        tail = s[k:]
        r = sum(tail) - 2 * d
        d += r
        if steps is not None:
            steps.append((tuple(x), tuple(s), r, d))
        # the output is the head s[:k] shifted by r, then the tail, both
        # sorted, so its ends bound it and it is built only if the walk goes on
        first, last = s[0] + r, s[k - 1] + r
        hi = max(first, tail[0]) if tail else first
        lo = min(last, tail[-1]) if tail else last
        if hi <= 0:
            # The input s had entries in [0, d], so an all-nonpositive output
            # has an all-zero tail and r = -2d.  Then the head sums to k*d and
            # q = sum s_i^2 - (k-2) d^2 >= k d^2 - (k-2) d^2 = 2 d^2, with
            # equality only when the head is constant: q = 2 forces d = 1 and
            # s = beta, whose output is -beta.  Any other end breaks the
            # caller's guarantee.
            if first == last == -1 and (not tail or tail[-1] == 0):
                terminal = TerminalKind.REACHED_MINUS_BETA
                break
            out = [c + r for c in s[:k]]
            out += tail
            raise RuntimeError(
                f"the walk reached the nonpositive vector {tuple(out)},"
                " not -beta: its input broke the range or q = 2 precondition"
            )
        if lo < 0 or hi > d:
            terminal = TerminalKind.RANGE_VIOLATION
            break
        # s may be the caller's tuple, so the tail is appended, not added
        x = [c + r for c in s[:k]]
        x += tail
    else:
        raise RuntimeError("reduction failed to terminate")
    for key in path:
        known[key] = terminal
    return terminal


def _trace(v: LatticeVector) -> ReductionTrace:
    """The walk's full record, for a range-valid q = 2 vector of degree >= 1.

    The step vectors are built unchecked: the walk keeps every vector in the
    lattice.
    """
    params = v.params
    raw_steps: list[_StepRecord] = []
    terminal = _walk(params.k, sorted(v.x, reverse=True), raw_steps)
    steps = tuple(
        ReductionStep(
            # step i's input is s_beta of step i-1's sorted vector, and
            # s_beta(y) = y + r*beta stays in the lattice; step 0's is v,
            # which the walk was handed sorted
            _trusted(params, before) if i else v,
            # a permutation of `before_sort`, so in the lattice too
            _trusted(params, srt),
            r,
            d_after,
        )
        for i, (before, srt, r, d_after) in enumerate(raw_steps)
    )
    return ReductionTrace(steps, terminal)


def reduce_trace(v: LatticeVector) -> ReductionTrace:
    """Full reduction record for a range-valid q = 2 vector of degree >= 1.

    The degree is checked first, so no walk runs on an input refused here;
    the range and q checks are those of :func:`classify`, whose trace this
    is.  Step 0's ``before_sort`` is ``v`` itself.
    """
    d = sum(v.x) // v.params.k
    if d < 1:
        raise ContractError(f"reduce_trace requires degree >= 1, got degree {d}")
    c = classify(v)
    if c.kind is Kind.NOT_REAL_RANGE:
        raise ContractError(
            f"reduce_trace requires all entries in [0, {d}] (the degree)"
        )
    if c.kind is Kind.NOT_REAL_Q:
        raise ContractError(f"reduce_trace requires q = 2, got q = {c.q_value}")
    return c.trace


def classify(v: LatticeVector) -> Classification:
    """Classify a lattice vector; see the module docstring for the cases."""
    k = v.params.k
    x = v.x
    d = sum(x) // k
    if not any(x):
        return Classification(Kind.ZERO, degree=0)
    if d < 0:
        mirror = classify(-v)
        flipped = _MIRROR_KIND.get(mirror.kind, mirror.kind)
        return Classification(
            flipped, trace=mirror.trace, q_value=mirror.q_value, degree=d
        )
    if d == 0:
        if x.count(1) == x.count(-1) == 1 and x.count(0) == v.params.n - 2:
            return Classification(Kind.DEGREE_ZERO_REAL, degree=0)
        qv = sum(map(mul, x, x))
        return Classification(Kind.NOT_REAL_Q, q_value=qv, degree=0)
    if min(x) < 0 or max(x) > d:
        trace = ReductionTrace((), TerminalKind.RANGE_VIOLATION)
        return Classification(Kind.NOT_REAL_RANGE, trace=trace, degree=d)
    qv = sum(map(mul, x, x)) + (2 - k) * d * d
    if qv != 2:
        trace = ReductionTrace((), TerminalKind.Q_VIOLATION)
        return Classification(Kind.NOT_REAL_Q, trace=trace, q_value=qv, degree=d)
    full = _trace(v)
    if full.terminal is TerminalKind.REACHED_MINUS_BETA:
        kind = Kind.REAL_POSITIVE
    else:
        # a range break: conditions (1) and (2) held but the walk broke (1)
        kind = Kind.ALMOST_REAL_POSITIVE
    return Classification(kind, trace=full, degree=d)


def classify_entries(params: SystemParams, entries: Sequence[int]) -> Classification:
    """Classify raw integer entries, reporting NotInLattice instead of raising."""
    entries = _admit(params, entries)
    if sum(entries) % params.k != 0:
        return Classification(Kind.NOT_IN_LATTICE)
    # ints, of the right length, with k | sum: the constructor's own checks
    return classify(_trusted(params, entries))
