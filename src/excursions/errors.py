"""Semantic exception hierarchy used across the package.

Callers can rely on two broad categories: ``DomainError`` for contract
violations on inputs (bad arguments, unusable sample sets) and
``NumericalError`` for failures of the numerical machinery itself
(factorization breakdown, unresolvable grids, vanishing denominators).
The other classes name one failure each: a curve that must be monotone
and is not, a grid capped short of its sized end, a tail window with
no decay to fit, and a trajectory with no complete excursion.
"""


class ExcursionError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ExcursionError, ValueError):
    """An input violates an operation's precondition."""


class NumericalError(ExcursionError, ArithmeticError):
    """A numerical procedure failed beyond its configured tolerances."""


class MonotonicityViolation(ExcursionError):
    """A curve that must be monotone is not.

    Attributes
    ----------
    which : str
        Name of the offending curve.
    index : int or None
        First offending index into the tabulation.
    t : float or None
        Abscissa of the first violation, when meaningful.
    """

    def __init__(self, message: str, which: str = "", index: int | None = None,
                 t: float | None = None):
        super().__init__(message)
        self.which = which
        self.index = index
        self.t = t


class GridTooShort(ExcursionError):
    """A grid's cap falls before the end its tabulation is sized to need."""


class FitError(ExcursionError):
    """A tail fit could not be performed on the given samples."""


class EmptyExcursionSet(ExcursionError):
    """A trajectory contains no complete excursion at the requested level."""
