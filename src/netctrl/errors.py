"""Exception types shared across the toolkit, each with the CLI's exit code
and the label of its message, ``netctrl: {label}: {message}``."""


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
