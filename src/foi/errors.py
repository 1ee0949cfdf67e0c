"""Exception hierarchy shared by all pipeline stages."""


class FoiError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(FoiError):
    """A CSV or JSON input does not match the expected schema."""


class PanelParseError(FoiError):
    """A CSV cell is not a finite number."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class DuplicateCountryError(FoiError):
    """The same country code appears more than once in a panel or in
    one epoch's cluster assignments."""


class EmptyColumnError(FoiError):
    """An indicator column contains no non-missing values."""


class AggregationError(FoiError):
    """A pillar index cannot be computed for a country."""


class DomainError(FoiError):
    """A numeric argument lies outside its allowed domain."""


class CountrySetMismatchError(FoiError):
    """Two epochs do not cover the same set of countries."""

    def __init__(self, message, only_in_a=(), only_in_b=()):
        super().__init__(message)
        self.only_in_a = tuple(only_in_a)
        self.only_in_b = tuple(only_in_b)


class SingularMatrixError(FoiError):
    """A correlation matrix is singular or not positive definite."""


class UndefinedStatisticError(FoiError):
    """A statistic is undefined for the given input (0/0 and friends)."""


class FixtureIntegrityError(FoiError):
    """An embedded reference fixture failed its checksum."""


class DataWarning(UserWarning):
    """A non-fatal data-quality fact: the result is computed, but it
    rests on data the user should know about (a constant column)."""
