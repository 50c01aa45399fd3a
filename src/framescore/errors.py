"""Exception types shared across the package."""


class DataValidationError(ValueError):
    """Raised when input data, records, or configuration fail validation."""


class ContractError(ValueError):
    """Raised when an API is called outside its contract (shape, emptiness)."""


class NumericFailure(ArithmeticError):
    """Raised when a training loss or a trained parameter is non-finite."""
