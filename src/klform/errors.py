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


class SignError(KLFormError):
    """A coefficient has the wrong sign for the requested rescaling."""


class PositivityViolation(KLFormError):
    """A Gaussian map parameter leaves the positivity window, or a state
    fails mu > 0, nu >= 0."""


class DegenerateDenominator(KLFormError):
    """A Gaussian parameter map hits a vanishing or negative denominator."""


class LabelError(KLFormError):
    """Eigenvalue label outside 0 <= n <= m, bad sign, or above the size cap."""


class UnsupportedLabel(KLFormError):
    """No closed-form reference eigenfunction is tabulated for this label."""


class DegreeError(KLFormError):
    """Operator degree exceeds what the matrix assembler supports, or a
    matrix that must respect the Hermite degree grading raises the degree."""


class IllConditionedReduction(KLFormError):
    """A reduction plan misses its forward check by more than roundoff.

    `residual` holds the miss, so callers can see how far off the plan is.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message, residual)
        self.residual = residual

    def __str__(self) -> str:
        return self.args[0]


class ZeroVector(KLFormError):
    """A residual or normalization was requested for the zero vector."""


class PairingFailure(KLFormError):
    """A predicted eigenvalue could not be matched to a matrix eigenvalue."""


class FrameMismatch(UserWarning):
    """Expansion frame does not match the Gaussian envelope of the function.

    This is a warning, not an error: the expansion is still returned, but
    convergence of the coefficient tail degrades.
    """
