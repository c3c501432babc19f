"""Shared exception types."""


class LatpackError(Exception):
    """Base class for all latpack errors."""


class InputError(LatpackError):
    """Invalid user input (bad vector, bad parameters)."""


class ResourceBudgetError(LatpackError):
    """A computation would exceed its work budget.  LATPACK_ENUM_BUDGET
    bounds the shortest-vector nodes, the rank admission (one Gram-Schmidt
    pass's steps), the ball table readers' pairs (z, k), the forbidden
    set's bitsets (64 bits a unit) and the d_n flow's cap-sum terms; a
    Moebius sum has its own cap of 10^6 terms."""

    def __init__(self, message, estimate, budget):
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget
