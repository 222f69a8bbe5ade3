"""Exception types shared across the package.

Everything raised on purpose derives from ZpwalkError so callers (and the
CLI) can distinguish our diagnostics from genuine bugs.
"""


class ZpwalkError(Exception):
    """Base class for all deliberate errors raised by this package."""


class InvalidModulus(ZpwalkError):
    """Modulus is not an odd prime in [3, MAX_MODULUS]."""


class NoInverse(ZpwalkError):
    """Element has no multiplicative inverse mod p."""


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


class NoPath(ZpwalkError):
    """No edge path exists between the requested endpoints."""


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


class PairNotGood(ZpwalkError):
    """The two anchor vertices cannot host the alternating double-move trick."""


class HypothesisViolated(ZpwalkError):
    """State does not satisfy the preconditions of a path propagation."""


class NonzeroRequired(ZpwalkError):
    """Operation requires a vertex with nonzero charge."""


class SynthesisIncomplete(ZpwalkError):
    """Constructive synthesis gave up: a search cap or the recursion limit."""


class InternalSynthesisFailure(ZpwalkError):
    """A synthesized schedule failed replay verification (a bug, surfaced loudly)."""


class Infeasible(ZpwalkError):
    """Requested random structure cannot exist or was not found within retries."""
