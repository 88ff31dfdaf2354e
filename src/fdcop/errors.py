"""Exception hierarchy shared by all modules."""


class FdcopError(Exception):
    """Base class for all library errors."""


class ValidationError(FdcopError):
    """A problem instance violates a structural invariant."""


class IncompleteSolutionError(FdcopError):
    """An assignment is missing values for some variables."""


class InfeasibleValueError(FdcopError):
    """An assigned value lies outside its variable's domain."""


class ArgumentError(FdcopError, ValueError):
    """An operation was called with an invalid parameter."""


class DomainMismatchError(FdcopError):
    """Two piecewise functions of one variable disagree on its domain."""


class OutOfDomainError(FdcopError):
    """A query point lies outside a function's domain."""


class CapacityError(FdcopError):
    """A table or piece structure exceeded its configured memory cap.

    ``stats`` carries partial run statistics when raised mid-run.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class StructureError(FdcopError):
    """A graph has the wrong shape for the requested operation."""


class ProtocolError(FdcopError):
    """An agent received a message inconsistent with the protocol state."""
