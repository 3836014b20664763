"""Exception taxonomy shared by the whole package.

Every failure a caller can act on gets its own class so the CLI can map
errors to exit codes without string matching.
"""


class KellerError(Exception):
    """Base class for all package errors."""


class ContextMismatchError(KellerError):
    """Two operands live in different variable contexts."""


class UnknownVariableError(KellerError):
    """A variable name is not part of the context."""


class MissingAssignmentError(KellerError):
    """A substitution map does not cover every context variable."""


class ExactDivisionError(KellerError):
    """Exact polynomial division was requested but the divisor does not divide."""


class ResourceCapExceeded(KellerError):
    """A computation hit a work cap: a Groebner S-pair, degree or
    coefficient cap, or the trial cap of subset recombination."""


class DegreeCapExceeded(KellerError):
    """A factorization input exceeds the configured total-degree cap."""


class AlgebraicallyDependentError(KellerError):
    """The two coordinate images satisfy a polynomial relation in themselves."""


class ZeroKernelError(KellerError):
    """The elimination ideal came back zero where a principal ideal was expected."""


class NotShapePositionError(KellerError):
    """The function-field basis is not in shape position (no element linear in y)."""


class MembershipFailedError(KellerError):
    """A subalgebra membership that the theory guarantees did not resolve."""


class InternalInconsistencyError(KellerError):
    """Two independent computation routes disagree; indicates a bug, not bad input."""


class RecipeError(KellerError):
    """A tame-map recipe is invalid or regeneration exhausted its retry budget."""


class ParseError(KellerError):
    """Syntax or validation error in a polynomial expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position
