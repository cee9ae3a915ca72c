"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation (CLI exit 3)."""


class NotWellFormedError(DomainError):
    """Weight vector fails the well-formedness test (some d weights share a factor)."""


class NotIPError(DomainError):
    """Weight vector lacks the IP-property required by the requested computation."""


class EnumerationLimitError(RuntimeError):
    """An exact enumeration would exceed the configured memory bound."""


class InternalError(RuntimeError):
    """A mathematical invariant failed: a fault in cywps, not in its input (CLI exit 5).

    Raised, not asserted, so that ``python -O`` keeps the check."""
