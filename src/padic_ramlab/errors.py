"""Exception hierarchy.

Every error that corresponds to a violated mathematical precondition
carries the governing condition as text in ``.precondition`` so that
front ends can echo exactly which inequality failed.
"""


class RamlabError(Exception):
    """Base class for all library errors."""

    def __init__(self, message, precondition=None):
        super().__init__(message)
        self.precondition = precondition


class ParamMismatch(RamlabError):
    """Operands live over different coefficient fields or truncations."""


class NonUnitExponent(RamlabError):
    """Galois exponent u must be a unit: gcd(u, p) = 1."""


class NotDivisible(RamlabError):
    """Exact division by a power of the uniformizing element failed."""


class CapacityExceeded(RamlabError):
    """Target ring demands more precision than the source carries."""


class HeightExceeded(RamlabError):
    """No Frobenius quasi-inverse exists at the claimed height."""


class TruncationTooLow(RamlabError):
    """Working truncation is too small for the requested check."""


class BudgetExceeded(RamlabError):
    """Brute-force search space exceeds the enumeration budget."""

    def __init__(self, message, search_space=None, budget=None):
        super().__init__(message)
        self.search_space = search_space
        self.budget = budget


class PrecisionTooLow(RamlabError):
    """Approximate solution is not accurate enough to lift."""


class RegimeViolation(RamlabError):
    """Numerical regime required by the construction does not hold."""


class StructureViolation(RamlabError):
    """Computed solution set is not an F_p-vector space (internal bug)."""


class NonCharacter(RamlabError):
    """Galois action on the solution line is not by a mod-p character."""


class RankError(RamlabError):
    """Operation requires a one-dimensional solution space."""


class UnsupportedPrime(RamlabError):
    """No tabled ramification data for this prime."""


class DegenerateWeightRange(RamlabError):
    """Bound formulas require weight i >= 1."""
