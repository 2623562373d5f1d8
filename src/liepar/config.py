"""Budgets and search limits, in one place.

This is the only module that reads the environment or words a budget
refusal: LIEPAR_BUDGET overrides the enumeration budgets below, read through
`effective_budget`, and every caller refuses through `check_budget`.  The
torsion oracle's budget bounds the generator combinations its sweep may
take, and is checked before the first lattice.  The root-table budget,
checked before a root system is built, is one LIEPAR_BUDGET can raise but
not lower.  The generation certificate search has two fixed bounds, which
its refusal names.
"""

import os

from .errors import BudgetError, ConfigError

WEYL_BUDGET = 10**7      # maximum number of Weyl group elements to enumerate
WEIGHT_BUDGET = 10**6    # maximum dimension for a full weight multiset
ROOT_BUDGET = 10**6      # maximum root-table size, roots times rank
ORACLE_BUDGET = 10**5    # maximum generator combinations the torsion oracle sweeps
SPECHT_BUDGET = 8        # maximum |lambda| for Specht-module Gram matrices
SUBSYSTEM_RANK_GUARD = 5 # maximum rank for exhaustive subsystem enumeration
CERTIFICATE_WORD_LENGTH = 8   # longest tensor word the generation search expands
CERTIFICATE_EXPANSIONS = 4000 # tensor products the generation search may take


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


def check_budget(default: int, size: int, what: str) -> int:
    """Refuse `what`, of size `size`, over the effective budget; return that budget."""
    limit = effective_budget(default)
    if size > limit:
        raise BudgetError(f"{what} exceeds budget {limit}; set LIEPAR_BUDGET to raise it")
    return limit
