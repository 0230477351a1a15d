"""Exception types shared across the toolkit, each with the CLI's exit code
and the label of its message, ``netctrl: {label}: {message}``, and
``shown``, the text of a value in a message."""


class NetctrlError(Exception):
    """Base class for all toolkit errors."""
    exit_code, label = 1, "error"


class IngestionError(NetctrlError):
    """Edge-list input that cannot be turned into a graph."""
    exit_code, label = 3, "ingestion error"


class UsageError(NetctrlError):
    """An operation called with invalid arguments or in an invalid state."""
    exit_code, label = 2, "usage error"


class ValidationError(NetctrlError):
    """A matching that fails structural validation or is not maximum."""
    exit_code, label = 4, "validation error"


class UndefinedStatisticError(NetctrlError):
    """A statistic requested for a graph on which it is undefined."""
    exit_code, label = 5, "statistic error"


def shown(value) -> str:
    """``str(value)``; where that would hold an integer with more digits
    than Python writes, an int's sign and bit length, or else the name of
    the value's type."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to print"
