"""Exception types raised by validation and precondition checks.

Every error below derives from KLFormError so callers (and the CLI) can
distinguish domain validation failures from programming errors.
"""


class KLFormError(Exception):
    """Base class for all domain errors raised by this package."""


class OverdampedError(KLFormError):
    """Frequency-like coefficients satisfy h0^2 < h1^2 + h2^2 (no real frequency)."""


class CriticalDampingError(KLFormError):
    """h0^2 = h1^2 + h2^2 exactly; the reduced frequency vanishes."""


class NonPositiveH0Error(KLFormError):
    """h0 <= 0 with (h1, h2) not both zero; the rotation/boost step is undefined."""


class SingularGError(KLFormError):
    """The linear system for the shift parameters is singular (gamma = 0)."""


class PositivityViolation(KLFormError):
    """A Gaussian state or a preset's widths fail a requirement: mu > 0,
    mu + nu > 0 where the state must be normalizable, nu >= 0 where it
    must be physical."""


class DegenerateDenominator(KLFormError):
    """A Gaussian parameter map hits a vanishing or negative denominator,
    or maps a parameter outside the float range, or a positivity window
    has an endpoint outside it."""


class LabelError(KLFormError):
    """Eigenvalue label outside 0 <= n <= m, bad sign, or above the size cap."""


class DegreeError(KLFormError):
    """Operator degree exceeds what the matrix assembler supports, or a
    matrix that must respect the Hermite degree grading raises the degree,
    or one whose spectrum is solved in real arithmetic breaks hermiticity,
    or a hand-built band has a nonzero entry outside the basis."""


class IllConditionedReduction(KLFormError):
    """A reduction plan misses its forward check by more than roundoff.

    `residual` holds the miss, so callers can see how far off the plan is.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message, residual)
        self.residual = residual

    def __str__(self) -> str:
        return self.args[0]


class EvolutionOverflow(KLFormError):
    """An evolution leaves the float range or its step budget: the time
    span needs more Taylor steps than the matrix exponential may take, or
    the seeded deviation or its fitted decay overflows or underflows."""


class ZeroVector(KLFormError):
    """A residual or normalization was requested for the zero vector."""


class PairingFailure(KLFormError):
    """A predicted eigenvalue could not be matched to a matrix eigenvalue."""


class FrameMismatch(KLFormError, UserWarning):
    """Expansion frame does not fit the Gaussian envelope of the function, so
    no exact expansion exists in it.  A UserWarning subclass too, so that
    warning filters naming it keep working."""
