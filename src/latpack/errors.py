"""Shared exception types."""


class LatpackError(Exception):
    """Base class for all latpack errors."""


class InputError(LatpackError):
    """Invalid user input (bad vector, bad parameters)."""


class ResourceBudgetError(LatpackError):
    """A computation would exceed its work budget (enumeration nodes,
    Gram-Schmidt steps, half-ball points or Moebius terms)."""

    def __init__(self, message, estimate, budget):
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget
