"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["DegenerateModelError", "BudgetExceededError"]


class DegenerateModelError(ValueError):
    """Every connection probability is 0 or 1, so the entry variance vanishes
    and the centered, scaled matrix is undefined."""


class BudgetExceededError(RuntimeError):
    """Expected hyperedge count exceeds the sampling budget.

    Attributes
    ----------
    log_expected_edges : float
        Natural log of the expected total edge count that was refused.
    """

    def __init__(self, message: str, log_expected_edges: float) -> None:
        super().__init__(message)
        self.log_expected_edges = float(log_expected_edges)

