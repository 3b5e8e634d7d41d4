"""Exception types shared across the package."""


class CogiaError(Exception):
    """Base class for all cogia-specific errors.

    ``stage`` names the construction stage that raised it, else None.
    Every error but DegenerateChannel applies to every lane of a stacked
    construction: a structural refusal repeats on every generic draw.
    """

    stage = None


class ScenarioError(CogiaError, ValueError):
    """Invalid scenario configuration (bad dimensions, unknown keys, bad JSON)."""


class NoComplement(CogiaError):
    """No orthogonal direction is left: the avoid space fills the receive space."""


class RankDeficient(CogiaError):
    """A formed matrix lacks the rank the construction needs, on every draw.

    A fat matrix without full row rank has no right inverse; a matrix with
    more columns than rows cannot have independent columns.
    """


class InfeasibleAlloc(CogiaError):
    """A rate-sweep split fails the closed-form predicate (raised by ``rate_region_sweep`` only)."""


class DegenerateChannel(CogiaError):
    """A measure-zero channel draw broke a genericity assumption; redraw (never structural).

    ``lanes`` is a boolean mask over the lane axes of the failed draws,
    or None for every lane.
    """

    def __init__(self, message: str = "", lanes=None):
        super().__init__(message)
        self.lanes = lanes


class TooManyDegenerateDraws(CogiaError):
    """Retry budget for degenerate channel draws exhausted."""


class GridTooLarge(CogiaError):
    """DoF tuple grid exceeds the configured cap."""
