"""Exception types shared across the package."""


class NonFiniteSemanticsError(ValueError):
    """A program produced NaN/Inf on some dataset row.

    split and row locate the value; slot, when set, is the position of the
    offending vector among those checked together.
    """

    def __init__(self, message, split=None, row=None, slot=None):
        super().__init__(message)
        self.split = split
        self.row = row
        self.slot = slot


class EvalBudgetExceededError(RuntimeError):
    """naive_eval refused to expand an archive that is too large for it."""


class CsvFormatError(ValueError):
    """Malformed CSV input; message carries the offending position."""
