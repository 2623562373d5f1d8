"""Enumeration budgets, overridable through the LIEPAR_BUDGET env variable."""

import os

from .errors import ConfigError

WEYL_BUDGET = 10**7      # maximum number of Weyl group elements to enumerate
WEIGHT_BUDGET = 10**6    # maximum dimension for a full weight multiset
SPECHT_BUDGET = 8        # maximum |lambda| for Specht-module Gram matrices
SUBSYSTEM_RANK_GUARD = 5 # maximum rank for exhaustive subsystem enumeration


def budget_override() -> int | None:
    """The LIEPAR_BUDGET override, or None when it is unset.

    Raises ConfigError, naming the variable and its value, unless the value
    is a positive integer.
    """
    raw = os.environ.get("LIEPAR_BUDGET")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ConfigError(f"LIEPAR_BUDGET must be a positive integer, got {raw!r}")
    return value


def effective_budget(default: int) -> int:
    """Return `default`, or the LIEPAR_BUDGET override when set."""
    override = budget_override()
    return default if override is None else override
