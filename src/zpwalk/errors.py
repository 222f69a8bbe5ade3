"""Exception types shared across the package.

Everything raised on purpose derives from ZpwalkError so callers (and the
CLI) can distinguish our diagnostics from genuine bugs.
"""


class ZpwalkError(Exception):
    """Base class for all deliberate errors raised by this package."""


class InvalidModulus(ZpwalkError):
    """Modulus is not an odd prime in [3, MAX_MODULUS]."""


class ShapeError(ZpwalkError):
    """Matrix / vector dimensions do not line up."""


class EnumerationTooLarge(ZpwalkError):
    """Solution set exceeds the enumeration cap; carries the offending count."""

    def __init__(self, message: str, count: int | None = None):
        self.count = count
        super().__init__(message)


class NormUndefined(ZpwalkError):
    """Asked for the norm of an unsolvable system."""


class ParseError(ZpwalkError):
    """Bad input text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IllegalMove(ZpwalkError):
    """A move is not applicable in the current state."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)


class StateSpaceTooLarge(ZpwalkError):
    """Breadth-first exploration hit its state cap."""


class NotGood(ZpwalkError):
    """Hypergraph fails the structural requirements of the fast decision layer."""


class MismatchError(ZpwalkError):
    """Algebraic and exhaustive answers disagree on the same instance."""


class Unsolvable(ZpwalkError):
    """The balance system for this instance has no solution."""


class UnreachableTarget(ZpwalkError):
    """Schedule synthesis asked for a target that is not reachable."""


class SynthesisIncomplete(ZpwalkError):
    """Constructive synthesis gave up without a schedule.

    Nothing in the package raises it: synthesis runs no search and no
    recursion, so on the well-shaped family it does not give up.  The
    type stays only because the benchmark (perfbench/) catches it.
    """


class InternalSynthesisFailure(ZpwalkError):
    """A synthesized schedule failed replay verification (a bug, surfaced loudly)."""


class Infeasible(ZpwalkError):
    """Requested random structure cannot exist or was not found within retries."""
