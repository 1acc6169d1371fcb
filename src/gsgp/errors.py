"""Exception types, and the checks of numeric settings, shared across the package."""

import math
import numbers


def checked_int(name: str, value, minimum: float) -> int:
    """value as an int, if it is an integer >= minimum; otherwise ValueError naming name.

    A bool is refused, although Python counts it as an integer, and a numpy
    integer is stored as the int it holds. A minimum of -math.inf admits
    every integer.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def finite_number(value) -> bool:
    """Whether value is a finite real number, such as an int or a float.

    A bool is not, and neither is an int beyond float range (10**400, say),
    which no float setting or constant can hold.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
