"""Exception types shared across the package: one per ``locmix`` exit code.

``InvalidInputError`` (and its subclass ``NotPositiveDefiniteError``)
exits 2, ``RegimeError`` exits 3 and ``AccuracyNotMetError`` exits 5.
"""


class InvalidInputError(ValueError):
    """An input (file, array, dimension, vector, grid) is malformed, empty or out of range."""


class NotPositiveDefiniteError(InvalidInputError):
    """A matrix that must be positive definite is not.

    Attributes
    ----------
    lambda_min : float
        Smallest eigenvalue found, for diagnostics.
    """

    def __init__(self, message: str, lambda_min: float):
        super().__init__(message)
        self.lambda_min = lambda_min


class RegimeError(ValueError):
    """The model (its p, n regime or its mixing law) does not admit the operation."""


class AccuracyNotMetError(RuntimeError):
    """An adaptive routine exhausted its budget before reaching the target error.

    Attributes
    ----------
    achieved : float
        Error estimate actually achieved.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved
