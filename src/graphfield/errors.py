"""Shared exception types.

Every budget-style failure carries enough context to be reported as an
`unknown` verification status instead of crashing a whole suite.
"""


class GraphFieldError(Exception):
    """Base class for all library errors."""


class InvalidInput(GraphFieldError):
    """Malformed or out-of-range input: unparsable or incomplete graph
    JSON, an unknown group or cycle spec, a negative root depth."""


class BudgetExceeded(GraphFieldError):
    """A search or closure exceeded its configured node/element budget."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeded budget {budget}")
        self.what = what
        self.budget = budget


class Disconnected(GraphFieldError):
    """Operation requires a connected graph."""


class NotFromTransform(GraphFieldError):
    """Colored graph lacks the vertex tagging produced by transform()."""


class NotSubgroup(GraphFieldError):
    """H is not contained in G."""


class NotCenterless(GraphFieldError):
    """Automorphism towers require a centerless base group."""


class NotPrimePower(GraphFieldError):
    """q is not a prime power."""


class NotAnAction(GraphFieldError):
    """The supplied map is not a homomorphism into Aut(N)."""


class SingularMultiplication(GraphFieldError):
    """A zero divisor appeared in a tower that should be a field.

    This would exhibit a counterexample to primality of the defining
    ideal; the offending factor is kept for the report.
    """

    def __init__(self, detail: str, counterexample=None):
        super().__init__(detail)
        self.counterexample = counterexample


class TooLarge(GraphFieldError):
    """An input exceeds what is handled exactly: a tower basis dimension
    over the configured cap, or a number too large for the primality
    test."""


class DepthExceeded(GraphFieldError):
    """Requested a root deeper than the tower's depth provides."""


class ProfileNotLarger(GraphFieldError):
    """An embedding target must be a tower of the same family whose
    vertex and edge depths are at least the source's, one by one."""


class ProfileNotSmaller(GraphFieldError):
    """A norm's subfield must be a tower of the same family whose vertex
    and edge depths are at most the element's tower's, one by one."""


class SpecInvalid(GraphFieldError):
    """A radical-extension specification violates one of its hypotheses."""

    def __init__(self, condition: str):
        super().__init__(f"invalid radical spec: {condition}")
        self.condition = condition


class ColorViolation(GraphFieldError):
    """A vertex map does not preserve the edge coloring."""


class ZeroInput(GraphFieldError):
    """Valuation of zero is undefined."""


class BadPrime(GraphFieldError):
    """No admissible specialization prime found."""


class UnknownResult(GraphFieldError):
    """A decision procedure returned Unknown where a verdict was required."""
