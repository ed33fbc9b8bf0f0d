"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array shapes do not line up with what an operation requires."""


class StateError(RuntimeError):
    """An operation needs state that was never produced (e.g. backward without forward)."""


class NonFiniteError(FloatingPointError):
    """A value that must stay finite picked up NaN or Inf."""


class ConfigError(ValueError):
    """A configuration is structurally or semantically invalid."""


class CompatibilityError(RuntimeError):
    """Artifacts built against different world configurations were mixed."""


class BudgetError(RuntimeError):
    """A combinatorial search would exceed the configured enumeration budget."""


class CorruptCheckpoint(CompatibilityError, ShapeError):
    """A checkpoint's tensor payload is cut short or runs past its last tensor."""
