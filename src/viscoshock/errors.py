"""Exception classes shared across the package.

The CLI maps these onto exit codes: ValidationError -> 1,
NumericalError -> 2, I/O failures (OSError) -> 3.
"""

__all__ = ["ViscoshockError", "ValidationError", "NumericalError"]


class ViscoshockError(Exception):
    """Base class for all package errors."""


class ValidationError(ViscoshockError):
    """Bad input: domain violations, malformed config, wrong parameters."""


class NumericalError(ViscoshockError):
    """Computation failed: blow-up, solver breakdown, step-size collapse."""
