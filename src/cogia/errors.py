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
    """A formed matrix's shape rules out the rank the construction needs.

    A matrix with more rows than columns has no right inverse; one with
    more columns than rows cannot have independent columns.
    """


class InfeasibleAlloc(CogiaError):
    """A rate-sweep split fails the closed-form predicate (raised by ``rate_region_sweep`` only)."""


class DegenerateChannel(CogiaError):
    """A draw lost a rank its shapes allow, in one lane or all: a measure-zero accident; redraw.

    ``lanes`` is a boolean mask over the lane axes of the failed draws (0-d for one draw).
    """

    def __init__(self, message: str, lanes):
        super().__init__(message)
        self.lanes = lanes


class TooManyDegenerateDraws(CogiaError):
    """Retry budget for degenerate channel draws exhausted."""


class GridTooLarge(CogiaError):
    """DoF tuple grid exceeds the configured cap."""
