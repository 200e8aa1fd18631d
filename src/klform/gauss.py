"""Normalized Gaussian states and their closed-form conjugation maps.

A Gaussian state is parametrized by (mu, kappa, nu):

    f(Q, r) = sqrt(2*mu/pi) * exp(-2*mu*Q^2 - i*kappa*Q*r - (mu+nu)*r^2/2),

with unit trace (integral over Q at r = 0) built into the prefactor.
Physical states have mu > 0 and nu >= 0.  Each of the seven conjugation
flows exp(p*G) maps a Gaussian to a Gaussian; the parameter maps are
closed-form and are given here together with the positivity windows, the
closed parameter intervals on which a physical state stays physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    DegenerateDenominator,
    OverdampedError,
    PositivityViolation,
)
from .operators import CoordinateFrame, GeneratorId

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GaussianState",
    "transform_gaussian",
    "positivity_window",
    "apply_plan_gaussian",
    "stationary_preset",
]

_NO_WINDOW = (GeneratorId.IL0, GeneratorId.IM1, GeneratorId.IM2)
_WINDOW_FLOWS = (GeneratorId.O0MI, GeneratorId.OPLUS, GeneratorId.L1PLUS, GeneratorId.L2PLUS)

# normalized width or phase difference up to which a Gaussian fits a frame
FRAME_TOL = 1e-9


@dataclass(frozen=True)
class GaussianState:
    """Width/correlation parameters (mu, kappa, nu) of a unit-trace Gaussian."""

    mu: float
    kappa: float
    nu: float

    def __post_init__(self):
        mu, kappa, nu = map(float, (self.mu, self.kappa, self.nu))
        if not all(map(math.isfinite, (mu, kappa, nu))):
            raise ValueError("Gaussian parameters must be finite")
        if mu <= 0:
            raise PositivityViolation(f"mu = {mu} must be positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "nu", nu)

    @classmethod
    def _from_checked(cls, mu: float, kappa: float, nu: float) -> "GaussianState":
        """The state of floats a map (_flow) has already found finite, with
        mu > 0, taken as they are."""
        out = cls.__new__(cls)
        out.__dict__.update(mu=mu, kappa=kappa, nu=nu)
        return out

    @property
    def width_sum(self) -> float:
        """mu + nu, the coefficient of -r^2/2 in the exponent."""
        return self.mu + self.nu

    def delta(self) -> float:
        """Discriminant 4*mu*(mu+nu) + kappa^2 of the quadratic form."""
        return 4.0 * self.mu * self.width_sum + self.kappa**2

    def is_physical(self) -> bool:
        return self.nu >= 0.0

    def frame(self) -> CoordinateFrame:
        """Scales (1/sqrt(2*mu), sqrt((mu+nu)/2)) and phase kappa of the Gaussian.

        The state is then one basis function of the oracle.  A normalized
        phase |kappa| s_q / (sqrt(2) s_r) of at most FRAME_TOL is transport
        roundoff (5.8e-17 on the cl preset): the frame takes 0.0.
        Requires mu + nu > 0.
        """
        if self.width_sum <= 0:
            raise PositivityViolation(
                f"mu + nu = {self.width_sum} must be positive to define a frame"
            )
        s_q, s_r = 1.0 / math.sqrt(2.0 * self.mu), math.sqrt(self.width_sum / 2.0)
        phase = abs(self.kappa) * s_q / (math.sqrt(2.0) * s_r)
        return CoordinateFrame(s_q, s_r, self.kappa if phase > FRAME_TOL else 0.0)

    def fits(self, frame: CoordinateFrame) -> bool:
        """Whether the state is one basis function of frame: the normalized
        differences of its widths and phase from the frame's are at most
        FRAME_TOL.  Requires mu + nu > 0."""
        if self.width_sum <= 0:
            raise PositivityViolation(
                f"mu + nu = {self.width_sum} must be positive to fit a frame"
            )
        sq, sr = frame.s_q, frame.s_r
        return (
            abs(2.0 * self.mu * sq * sq - 1.0) <= FRAME_TOL
            and abs(2.0 * sr * sr / self.width_sum - 1.0) <= FRAME_TOL
            and abs(self.kappa - frame.kappa) * sq / (math.sqrt(2.0) * sr) <= FRAME_TOL
        )

    def evaluate(self, q, r) -> np.ndarray:
        import numpy as np

        q = np.asarray(q, dtype=float)
        r = np.asarray(r, dtype=float)
        pref = math.sqrt(2.0 * self.mu / math.pi)
        expo = (
            -2.0 * self.mu * q * q
            - 1j * self.kappa * q * r
            - 0.5 * self.width_sum * r * r
        )
        return pref * np.exp(expo)


def positivity_window(gid: GeneratorId, s: GaussianState) -> tuple[float, float]:
    """Closed parameter interval on which a physical s stays physical.

    The rotation and the two boosts preserve physicality for every
    parameter: (-inf, inf).  For the remaining flows the endpoints are
    the roots of nu'(p) = 0:

      O0MI    [ln(mu/(mu+nu))/2, inf)
      OPLUS   [(-(1+D) + sqrt((1+D)^2 - 16*mu*nu))/(4*mu), inf)
      L1PLUS  [((1-D) - s)/(4*mu), ((1-D) + s)/(4*mu)],  s = sqrt((1-D)^2 + 16*mu*nu)
      L2PLUS  [(kappa - t)/(2*mu), (kappa + t)/(2*mu)],  t = sqrt(kappa^2 + 4*mu*nu)

    with D the discriminant of s.  For OPLUS the second root of nu' = 0
    lies below -1/(2*mu) where the map's denominator changes sign, so
    only the upper branch bounds the window.  O0MI's endpoint is
    -log1p(nu/mu)/2, from the exponents where nu/mu leaves the float range.
    The three shifts are solved in exact rationals: nu'(p) = 0 reads
    p^2 - 2 b p - e nu/mu = 0, with e = -1 for OPLUS and 1 otherwise,
    b = kappa/(2 mu) for L2PLUS and (e - D)/(4 mu) for OPLUS and L1PLUS.
    The root of larger modulus is b + sign(b) sqrt(b^2 + e nu/mu), the
    square root to 64 bits beyond a float's, and the other is -e nu/mu
    over it; each endpoint is rounded once.  DegenerateDenominator for an
    endpoint outside the float range.
    """
    if not s.is_physical():
        raise PositivityViolation("positivity window is defined for physical states")
    if gid in _NO_WINDOW:
        return (-math.inf, math.inf)
    if gid not in _WINDOW_FLOWS:
        raise ValueError(f"unknown generator {gid!r}")
    if gid is GeneratorId.O0MI:
        ratio = s.nu / s.mu
        if math.isfinite(ratio):
            # 0.0 - x keeps the endpoint of nu = 0 at +0.0
            return 0.0 - 0.5 * math.log1p(ratio), math.inf
        (f_mu, k_mu), (f_nu, k_nu) = math.frexp(s.mu), math.frexp(s.nu)
        return -0.5 * (math.log(f_nu / f_mu) + (k_nu - k_mu) * math.log(2.0)), math.inf
    from fractions import Fraction  # here, not at import: it loads decimal

    mu, kappa, nu = map(Fraction, (s.mu, s.kappa, s.nu))
    e = -1 if gid is GeneratorId.OPLUS else 1
    if gid is GeneratorId.L2PLUS:
        b = kappa / (2 * mu)
    else:
        b = (e - 4 * mu * (mu + nu) - kappa * kappa) / (4 * mu)
    disc = b * b + e * nu / mu
    num, den = disc.numerator, disc.denominator
    spare = max(0, 118 - (num * den).bit_length() // 2)  # 53 bits and 64 more
    root = Fraction(math.isqrt(num * den << 2 * spare), den << spare)
    far = b + root if b >= 0 else b - root
    # far is 0 only for nu = 0 and b = 0, where both roots are
    near = -e * nu / mu / far if far else far
    try:
        if gid is GeneratorId.OPLUS:
            return float(near), math.inf
        near, far = float(near), float(far)
    except OverflowError:
        raise DegenerateDenominator("a positivity window endpoint leaves the float range") from None
    return (near, far) if near <= far else (far, near)


def transform_gaussian(gid: GeneratorId, param: float, s: GaussianState) -> GaussianState:
    """Parameters of exp(param*G) applied to the Gaussian s.

    All seven flows preserve the trace, so the result is again a
    unit-trace Gaussian and the parameter triple determines it fully.
    The map is formal, as eigenfunction transport needs: a physical s
    stays physical only for a parameter in positivity_window(gid, s).
    Only a vanishing or sign-changing denominator, or a mapped parameter
    outside the float range, raises (DegenerateDenominator), and a mapped
    mu that underflows to 0 (PositivityViolation).  The closed forms are
    _flow's, on the floats of s.
    """
    return GaussianState._from_checked(*_flow(gid, float(param), s.mu, s.kappa, s.nu))


def _flow(gid: GeneratorId, p: float, mu: float, kappa: float, nu: float) -> tuple:
    """(mu, kappa, nu) of exp(p*G) applied to the Gaussian (mu, kappa, nu),
    in closed form, with transform_gaussian's checks and errors.

    The maps read the width sum w = mu + nu and the discriminant
    D = 4 mu w + kappa^2, formed as GaussianState.width_sum and delta()
    form them, and give the new mu, kappa and w; the new nu is w - mu.
    """
    w = mu + nu
    try:
        dis = 4.0 * mu * w + kappa**2
        if gid is GeneratorId.IL0:
            half = 0.5 * p
            den = (math.cos(half) + kappa * math.sin(half)) ** 2 + 4.0 * mu * w * math.sin(
                half
            ) ** 2
            _guard_denominator(den)
            mu2 = mu / den
            w2 = w / den
            kappa2 = (kappa * math.cos(p) - 0.5 * (1.0 - dis) * math.sin(p)) / den
        elif gid is GeneratorId.IM1:
            half = 0.5 * p
            den = (math.cosh(half) - kappa * math.sinh(half)) ** 2 + 4.0 * mu * w * math.sinh(
                half
            ) ** 2
            _guard_denominator(den)
            mu2 = mu / den
            w2 = w / den
            kappa2 = (kappa * math.cosh(p) - 0.5 * (1.0 + dis) * math.sinh(p)) / den
        elif gid is GeneratorId.IM2:
            scale = math.exp(-p)
            mu2, w2, kappa2 = mu * scale, w * scale, kappa * scale
        elif gid is GeneratorId.O0MI:
            mu2 = mu * math.exp(-p)
            w2 = w * math.exp(p)
            kappa2 = kappa
        elif gid is GeneratorId.OPLUS:
            den = 1.0 + 2.0 * mu * p
            _guard_denominator(den)
            mu2 = mu / den
            w2 = (w + 0.5 * (1.0 + dis) * p + mu * p * p) / den
            kappa2 = kappa / den
        elif gid is GeneratorId.L1PLUS:
            den = 1.0 - 2.0 * mu * p
            _guard_denominator(den)
            mu2 = mu / den
            w2 = (w + 0.5 * (1.0 - dis) * p - mu * p * p) / den
            kappa2 = kappa / den
        elif gid is GeneratorId.L2PLUS:
            mu2 = mu
            w2 = w + kappa * p - mu * p * p
            kappa2 = kappa - 2.0 * mu * p
        else:
            raise ValueError(f"unknown generator {gid!r}")
    except OverflowError:  # a square, cosh, sinh or exp beyond the float range
        raise DegenerateDenominator(f"map leaves the float range at parameter {p}") from None
    nu2 = w2 - mu2
    if not all(map(math.isfinite, (mu2, kappa2, nu2))):
        raise DegenerateDenominator(f"map leaves the float range: {(mu2, kappa2, nu2)}")
    if mu2 <= 0:
        raise PositivityViolation(f"mu = {mu2} must be positive")
    return mu2, kappa2, nu2


def _guard_denominator(den: float) -> None:
    if den <= 0.0 or not math.isfinite(den):
        raise DegenerateDenominator(f"map denominator {den} is not positive")


def apply_plan_gaussian(steps, s: GaussianState) -> GaussianState:
    """Apply a sequence of (GeneratorId, param) steps to a Gaussian, in order.

    The maps are formal (transform_gaussian): the state may pass outside
    the physical region.  The steps run on the floats (mu, kappa, nu),
    each with transform_gaussian's checks, and one state is built at the
    end, the same as the chain of transform_gaussian calls; an empty
    sequence returns s itself.  Errors from an individual step are
    re-raised with the step index prepended to the message.
    """
    start = params = (s.mu, s.kappa, s.nu)
    for idx, (gid, param) in enumerate(steps):
        try:
            params = _flow(gid, float(param), *params)
        except (PositivityViolation, DegenerateDenominator) as exc:
            raise type(exc)(f"step {idx} ({gid.name}, {param}): {exc}") from exc
    return s if params is start else GaussianState._from_checked(*params)


def _reduced_frequency(omega0_prime: float, gamma: float) -> float:
    """sqrt(omega0_prime^2 - gamma^2/4); raises OverdampedError when not real positive."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if omega0_prime <= 0.5 * gamma:
        raise OverdampedError(
            f"omega0_prime = {omega0_prime} must exceed gamma/2 = {0.5 * gamma}"
        )
    return math.sqrt(omega0_prime**2 - 0.25 * gamma**2)


def stationary_preset(model: str, **params) -> tuple[GaussianState, CoordinateFrame]:
    """Stationary Gaussian and its natural coordinate frame for a named model.

    model = "kl":  params b.  State (1/(4b), 0, b - 1/(4b)), frame
        (sqrt(2b), sqrt(b/2)).
    model = "hpz": params omega0_prime, gamma, b_hpz, d.  The widths
        split: mu = 1/(4*b_plus) with b_plus = b_hpz + d/(2*omega0_prime),
        mu + nu = b_hpz, frame (sqrt(2*b_plus), sqrt(b_hpz/2)).
    model = "cl":  params omega0_prime, gamma, b_cl.  The hpz preset at
        b_hpz = b_cl and d = 0: cl is hpz without the anomalous-diffusion
        coupling.

    Raises PositivityViolation when the resulting nu would be negative
    and OverdampedError when omega0_prime <= gamma/2.
    """
    name = model.lower()
    if name == "cl":
        name, params = "hpz", {**params, "b_hpz": params["b_cl"], "d": 0.0}
    if name == "kl":
        b = float(params["b"])
        if b < 0.5:
            raise PositivityViolation(f"b = {b} must be at least 1/2")
        return GaussianState(1.0 / (4.0 * b), 0.0, b - 1.0 / (4.0 * b)), CoordinateFrame(
            math.sqrt(2.0 * b), math.sqrt(b / 2.0)
        )
    if name == "hpz":
        omega0_prime = float(params["omega0_prime"])
        gamma = float(params["gamma"])
        _reduced_frequency(omega0_prime, gamma)
        b_minus = float(params["b_hpz"])
        b_plus = b_minus + float(params["d"]) / (2.0 * omega0_prime)
        if b_plus <= 0:
            raise PositivityViolation(f"b_plus = {b_plus} must be positive")
        mu = 1.0 / (4.0 * b_plus)
        nu = b_minus - mu
        if nu < 0:
            raise PositivityViolation(
                f"nu = {nu} < 0: widths b_hpz = {b_minus}, b_plus = {b_plus} not allowed"
            )
        state = GaussianState(mu, 0.0, nu)
        return state, CoordinateFrame(
            math.sqrt(2.0 * b_plus), math.sqrt(b_minus / 2.0)
        )
    raise ValueError(f"unknown model {model!r}")
