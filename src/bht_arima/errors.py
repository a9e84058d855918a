"""Exception types shared across the package."""


class BhtArimaError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BhtArimaError, ValueError):
    """Invalid hyperparameters, or a configuration inconsistent with the data."""


class DataFormatError(BhtArimaError, ValueError):
    """Malformed or non-finite input data (a CSV or flat tensor text file, or
    an array passed to the model)."""


class NumericalError(BhtArimaError, RuntimeError):
    """A numerical routine failed (non-convergence, non-finite result)."""


class SingularSystemError(NumericalError):
    """A linear system was singular or numerically unsolvable."""
