"""Exception hierarchy shared by all specloss modules.

Every error raised on a user-facing path derives from ``SpeclossError`` so
the CLI can map failures to exit codes in one place (data/validation -> 1,
numerical singularity -> 2).
"""


class SpeclossError(Exception):
    """Base class for all specloss errors."""


class InvalidArgumentError(SpeclossError):
    """An argument violates a documented precondition."""


class InvalidDayError(InvalidArgumentError):
    """Dated data fails a check; ``date`` names the first offending day."""

    def __init__(self, message: str, date):
        super().__init__(message)
        self.date = date


class InsufficientDataError(SpeclossError):
    """Too few observations for the requested operation."""


class AlignmentError(SpeclossError):
    """Series cannot be brought onto a common date vector."""


class DivisionDomainError(SpeclossError):
    """A denominator that must be strictly positive is zero."""


class UnsupportedConfigError(SpeclossError):
    """Requested configuration is outside the supported table/option range."""


class SingularMatrixError(SpeclossError):
    """Regressor matrix is rank deficient.

    ``column`` is the index of the offending regressor in the design.
    """

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class CsvSchemaError(SpeclossError):
    """CSV header does not match the expected schema."""


class CsvParseError(SpeclossError):
    """A CSV row could not be parsed; ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class CsvValidationError(SpeclossError):
    """A parsed CSV row violates a data invariant; ``date`` names the row."""

    def __init__(self, message: str, date=None):
        super().__init__(message)
        self.date = date
