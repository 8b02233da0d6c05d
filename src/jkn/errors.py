"""Exception types shared across the package.

Contract violations (bad preconditions, malformed input) raise
:class:`ContractError` with a message naming the failed condition.  A run
stopped by a cap raises :class:`ResourceLimitError`.  In the library only the
CLI's ``--time-limit`` raises it; the tests' BFS oracle raises it at its cap.
"""


class ContractError(ValueError):
    """A documented precondition or invariant was violated."""


class NotInLatticeError(ContractError):
    """Coordinate sum is not divisible by k, so the vector is not in the lattice."""


class ResourceLimitError(RuntimeError):
    """A cap was exceeded: the CLI's --time-limit, or the test oracle's visited cap."""
