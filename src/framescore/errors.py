"""Exception types shared across the package."""


class DataValidationError(ValueError):
    """Raised for refused input: a record, file, configuration, size or
    argument that fails validation. The CLI exits 2 on it."""


class NumericFailure(ArithmeticError):
    """Raised when a training loss or a trained parameter is non-finite."""
