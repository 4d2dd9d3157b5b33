"""Structured exception types shared across the package."""


class ConeAuditError(Exception):
    """Base class for all structured errors raised by this package."""


class DimensionMismatchError(ConeAuditError):
    """Operands have inconsistent dimensions."""


class DimensionCapExceededError(ConeAuditError):
    """Generator enumeration was requested above the configured dimension cap."""

    def __init__(self, dimension: int, cap: int):
        self.dimension = dimension
        self.cap = cap
        super().__init__(
            f"generator enumeration in dimension {dimension} exceeds the cap {cap}"
        )


class NotInSetError(ConeAuditError):
    """A base point required to lie in a constraint set does not.

    Carries the violated requirement so callers can report an honest
    certificate of non-membership.
    """

    def __init__(self, message: str, *, violated_row: int | None = None,
                 violation=None):
        self.violated_row = violated_row  # 1-based inequality row, None for equality block
        self.violation = violation
        super().__init__(message)


class NotTangentDirectionError(ConeAuditError):
    """A direction required to be tangent at the base point is not.

    Second-order tangent sets are only defined for tangent directions; any
    other direction is rejected instead of silently returning an empty set.
    """


class InactiveConstraintError(ConeAuditError):
    """A smooth level-set constraint is not active at the queried point."""


class VanishingGradientError(ConeAuditError):
    """The constraint gradient vanishes at the queried point (regularity failure)."""


class ProblemFormatError(ConeAuditError):
    """A problem file failed validation; lists every schema error found."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid problem file:\n" + "\n".join(f"  - {e}" for e in self.errors))


class AnalysisError(ConeAuditError):
    """The requested command does not fit the problem file; carries a hint."""

    def __init__(self, message: str, hint: str = ""):
        self.hint = hint
        super().__init__(message + (f" (hint: {hint})" if hint else ""))
