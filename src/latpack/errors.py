"""Shared exception types."""


class LatpackError(Exception):
    """Base class for all latpack errors."""


class InputError(LatpackError):
    """Invalid user input (bad vector, bad parameters)."""


class ResourceBudgetError(LatpackError):
    """A computation would exceed its work budget.  LATPACK_ENUM_BUDGET
    bounds the shortest-vector nodes, a kernel basis's rank (one Gram-Schmidt
    pass's steps), the ball table's pairs (z, k), a greedy run's bitset
    shifts (4096 bits a unit) and bits (64 a unit) and the d_n flow's
    cap-sum terms; a Moebius sum has its own cap of 10^6 terms."""

    def __init__(self, message, estimate, budget):
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget


def check_budget(estimate, budget, message: str) -> None:
    """Raise ResourceBudgetError(message) unless estimate <= budget (NaN is refused)."""
    if not estimate <= budget:
        raise ResourceBudgetError(message, estimate=estimate, budget=budget)
