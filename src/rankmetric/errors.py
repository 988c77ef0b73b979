"""Shared error types and the enumeration budget discipline.

Every exhaustive operation in this package takes an explicit iteration
budget and raises BudgetExceededError *before* starting work whose known
cost exceeds it.  Combinatorial explosion is the failure mode of this kind
of library; it must be loud, never silent.
"""

from __future__ import annotations

import math
import os

# Default number of enumeration steps an exhaustive operation may take.
# Overridable per call (budget=...) or globally via the environment.
BUDGET_ENV_VAR = "RANKMETRIC_BUDGET"
DEFAULT_BUDGET = 4_000_000

# Hard cap on field sizes q^n constructed by this package.
FIELD_SIZE_CAP = 1 << 20


class BudgetExceededError(RuntimeError):
    """An exhaustive operation would exceed its iteration budget."""


class FieldSizeError(ValueError):
    """Requested field exceeds the configured size cap."""


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 1:
        raise ValueError(f"${BUDGET_ENV_VAR} must be a finite number >= 1, got {raw!r}")
    return int(value)


def resolve_budget(budget: int | None) -> int:
    if budget is None:
        return default_budget()
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    return int(budget)


def charge(cost: int, budget: int, what: str) -> None:
    """Fail loudly if a known enumeration cost exceeds the budget."""
    if cost > budget:
        raise BudgetExceededError(
            f"{what} needs {cost} steps, budget is {budget}; "
            f"raise budget= or ${BUDGET_ENV_VAR} to allow this"
        )
