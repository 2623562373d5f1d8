"""Exception types shared across the toolkit."""


class LieparError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidTypeError(LieparError):
    """Malformed or unsupported Cartan type label."""


class ReducibleError(LieparError):
    """An operation requiring an irreducible root system got a product."""


class BudgetError(LieparError):
    """An enumeration would exceed the configured element budget."""


class NotMinimalError(LieparError):
    """A Weyl element was expected to be a minimal double-coset representative."""


class InfeasibleError(LieparError):
    """The support-function linear program of a fan is infeasible (the fan is
    not regular), or a given support function fails verification."""


class ConfigError(LieparError):
    """An environment setting, such as a budget override, is malformed."""


class InvariantError(AssertionError):
    """A mathematical invariant failed: a bug in the computation, not in the
    input.  It subclasses AssertionError, which `python -O` cannot strip from
    an explicit raise."""
