"""Closed-form eigenvalues and right eigenfunctions.

In normal form the spectrum is

    lambda(m, n, sign) = sign * i*n*omega0 + (m - n/2)*gamma,   0 <= n <= m.

Each right eigenfunction is a word in the raising pair of ad_K, the
degree-one operators with [K, B_i] = lambda_i B_i, lambda_1 = gamma/2 -
i omega0 and lambda_2 = gamma/2 + i omega0, applied to the stationary
Gaussian rho (third quantization: Prosen, New J. Phys. 10 (2008) 043026):

    B1^n1 B2^n2 rho / (i^n sqrt(n1! n2!)),

with (n1, n2) = (m - n, m) for sign +1 and (m, m - n) for sign -1.  The
word equals Pi(m, n, sign) rho, where Pi is a polynomial in the normalized
coordinates Qs and rs; in them the normal form's pair has integer
coefficients, so pi_polynomial, which eigfun publishes, multiplies the word
out in exact integers.  For a general reducible Liouvillian the pair and
the Gaussian are transported backwards through the reduction plan; the
transported pair is again degree one, so every mode stays a word of the
same form.  This module builds the words, applies them to the Gaussian,
and carries eigenfunctions across a reduction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import IllConditionedReduction, LabelError, PositivityViolation
from .gauss import GaussianState, apply_plan_gaussian
from .operators import (
    LinearPhaseOperator,
    LiouvillianCoeffs,
    PhasePolyOperator,
    kl_coefficients,
)
# Not called here since the plan transports the pair (ReductionPlan.raising_pair);
# perfbench/test_perfbench.py still looks the name up on this module.
from .operators import conjugate_linear  # noqa: F401
from .reduction import ReductionPlan

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EigenLabel",
    "AppliedEigenfunction",
    "eigenvalue",
    "pi_polynomial",
    "distinct_labels",
    "kl_eigenfunction",
    "transformed_eigenfunction",
]

# largest m of a mode: the range where the words are tested, with residuals
# at most 4.9e-13 up to m = 32 at 66x66
MAX_M = 32
# largest |[B1, B2]| of a commuting raising pair
COMMUTATOR_TOL = 1e-12
# largest miss of [K, B1] = lambda_1 B1, summed over the r and dQ fields,
# relative to |lambda_1| max |B1|, the replay check's REPLAY_TOL: at most
# 8.7e-16 on the 100 criterion-02 sources and 798 draws of their recipe at
# seed 630948696
RAISING_TOL = 1e-10


@dataclass(frozen=True, order=True)
class EigenLabel:
    """Mode label (m, n, sigma) with 0 <= n <= m and sigma in {+1, -1}.

    For n = 0 the two sigma values give the same eigenvalue and the same
    polynomial, so enumerations emit only sigma = +1 there.
    """

    m: int
    n: int
    sigma: int = 1

    def __post_init__(self):
        if int(self.m) != self.m or int(self.n) != self.n:
            raise LabelError("m and n must be integers")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sigma", int(self.sigma))
        if not (0 <= self.n <= self.m):
            raise LabelError(f"need 0 <= n <= m, got (m, n) = ({self.m}, {self.n})")
        if self.sigma not in (1, -1):
            raise LabelError(f"sigma must be +1 or -1, got {self.sigma}")


def eigenvalue(label: EigenLabel, omega0: float, gamma: float) -> complex:
    """sign*i*n*omega0 + (m - n/2)*gamma."""
    if not (math.isfinite(omega0) and omega0 >= 0):
        raise ValueError("omega0 must be finite and non-negative")
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError("gamma must be finite and non-negative")
    return complex(
        (label.m - 0.5 * label.n) * gamma, label.sigma * label.n * omega0
    )


def distinct_labels(m_max: int) -> list[EigenLabel]:
    """All labels with m <= m_max, one per distinct eigenfunction."""
    out = []
    for m in range(m_max + 1):
        for n in range(m + 1):
            if n == 0:
                out.append(EigenLabel(m, 0, 1))
            else:
                out.append(EigenLabel(m, n, 1))
                out.append(EigenLabel(m, n, -1))
    return out


def _apply_linear_to_poly(op: LinearPhaseOperator, poly: dict, grad: tuple) -> dict:
    """Coefficients of (op P f)/f for P the given polynomial and f an envelope
    with log-derivative grad = (a, b, c): d(ln f)/dQ = a Q + b r and
    d(ln f)/dr = b Q + c r.

    Multiplications add exponents; derivatives act by the product rule.
    Only the fields of op that are nonzero multiply, in the order q, r,
    dq, dr (a transported raising letter has q = dr = 0); a zero product
    adds nothing, so the derivative of a constant factor leaves no term.
    Integer fields, grad and poly keep the arithmetic in exact integers.  A
    coefficient that leaves the float range raises IllConditionedReduction
    with an infinite miss.
    """
    out: dict = {}
    a, b, c = grad
    q, r, dq, dr = op.q, op.r, op.dq, op.dr
    for (j, k), coeff in poly.items():
        moves = []
        if q:
            moves.append(((j + 1, k), q * coeff))
        if r:
            moves.append(((j, k + 1), r * coeff))
        if dq:
            if j:
                moves.append(((j - 1, k), dq * coeff * j))
            moves += (((j + 1, k), dq * coeff * a), ((j, k + 1), dq * coeff * b))
        if dr:
            if k:
                moves.append(((j, k - 1), dr * coeff * k))
            moves += (((j + 1, k), dr * coeff * b), ((j, k + 1), dr * coeff * c))
        for key, val in moves:
            if val != 0:
                out[key] = out.get(key, 0) + val
    out = {k: v for k, v in out.items() if v != 0}
    if not all(map(cmath.isfinite, out.values())):
        raise IllConditionedReduction("the word's coefficients leave the float range", math.inf)
    return out


def _word(label: EigenLabel) -> tuple[int, int, complex]:
    """(n1, n2, c) of the mode c B1^n1 B2^n2 rho of a label.

    (n1, n2) = (m - n, m) for sigma = +1 and (m, m - n) for sigma = -1, so
    that n1 lambda_1 + n2 lambda_2 is the label's eigenvalue, and
    c = 1/(i^n sqrt(n1! n2!)) makes the word Pi(m, n, sigma) rho.  m above
    MAX_M is rejected (LabelError).
    """
    if label.m > MAX_M:
        raise LabelError(f"m = {label.m} exceeds the cap {MAX_M}")
    m, n = label.m, label.n
    n1, n2 = (m - n, m) if label.sigma == 1 else (m, m - n)
    return n1, n2, 1.0 / ((1j) ** (n % 4) * math.sqrt(math.factorial(n1) * math.factorial(n2)))


# the doubled normal-form pair 2 B1,2 = 2 rs +- dQs in (Qs, rs), where the
# Gaussian's log-derivative is (-2 Qs, -2 rs)
_DOUBLED_PAIR = (LinearPhaseOperator(0, 2, 1, 0), LinearPhaseOperator(0, 2, -1, 0))
_NORMAL_GRAD = (-2, 0, -2)


def pi_polynomial(label: EigenLabel) -> PhasePolyOperator:
    """Normal-form eigenpolynomial Pi(m, n, sign) in (Qs, rs): the label's
    word over the normal form's Gaussian.

    In Qs = Q/s_q and rs = s_r r the Gaussian is exp(-Qs^2 - rs^2) and the
    pair is B1,2 = rs +- dQs/2, so the word in the doubled letters, applied
    to 1, multiplies out in Python integers to N(Qs, rs) = 2^(n1 + n2) Pi/c,
    with c the word's scale.  Each coefficient is then N/2^(n1 + n2) rounded
    once, times c, and a term that is exactly zero is left out.  Qs^j rs^k
    is the term (j, k, 0, 0); the total degree is 2m - n.  m above MAX_M
    raises LabelError.
    """
    n1, n2, scale = _word(label)
    b1, b2 = _DOUBLED_PAIR
    poly = {(0, 0): 1}
    for letter, count in ((b2, n2), (b1, n1)):
        for _ in range(count):
            poly = _apply_linear_to_poly(letter, poly, _NORMAL_GRAD)
    return PhasePolyOperator(
        {(j, k, 0, 0): v / 2 ** (n1 + n2) * scale for (j, k), v in poly.items()}
    )


@dataclass(eq=False)
class AppliedEigenfunction:
    """Eigenfunction c B1^n1 B2^n2 rho: a word in a raising pair applied to a Gaussian.

    raising holds the degree-one pair (B1, B2) with [K, B_i] = lambda_i B_i,
    lambda_1 = gamma/2 - i omega0 and lambda_2 = gamma/2 + i omega0, and
    gaussian the stationary state rho it acts on; the label fixes the word
    (`word`).  evaluate() multiplies out the word once (expanded_poly,
    cached) and then evaluates polynomial times Gaussian pointwise.  A pair
    that does not commute to within COMMUTATOR_TOL (NaN included), so that
    the word would depend on the order of its letters, raises
    IllConditionedReduction carrying the commutator.
    """

    label: EigenLabel
    eigenvalue: complex
    raising: tuple[LinearPhaseOperator, LinearPhaseOperator]
    gaussian: GaussianState

    def __post_init__(self):
        b1, b2 = self.raising
        comm = abs(b1.commutator_scalar(b2))
        if not comm <= COMMUTATOR_TOL:
            raise IllConditionedReduction(f"transported pair fails to commute by {comm}", comm)

    @property
    def word(self) -> tuple[complex, tuple[tuple[LinearPhaseOperator, int], ...]]:
        """(c, powers): the mode is c times the letters applied to the
        Gaussian in turn, B2 n2 times and then B1 n1 times; a power with
        exponent 0 is left out."""
        n1, n2, scale = _word(self.label)
        b1, b2 = self.raising
        return scale, tuple((op, count) for op, count in ((b2, n2), (b1, n1)) if count)

    @cached_property
    def expanded_poly(self) -> PhasePolyOperator:
        """Multiplication by P(Q, r) with f(Q, r) = P(Q, r) * gaussian(Q, r)."""
        scale, powers = self.word
        s = self.gaussian
        grad = (-4.0 * s.mu, -1j * s.kappa, -s.width_sum)
        poly = {(0, 0): scale}
        for op, count in powers:
            for _ in range(count):
                poly = _apply_linear_to_poly(op, poly, grad)
        return PhasePolyOperator._from_checked(
            {(a, b, 0, 0): coeff for (a, b), coeff in poly.items()}
        )

    def evaluate(self, q, r) -> np.ndarray:
        return self.expanded_poly.evaluate(q, r) * self.gaussian.evaluate(q, r)


def kl_eigenfunction(
    label: EigenLabel, b: float, omega0: float, gamma: float
) -> AppliedEigenfunction:
    """Normal-form eigenfunction at width b >= 1/2: the transport of the
    empty plan, whose raising pair is B1 = s_r (r + dQ) and
    B2 = s_r (r - dQ) with s_r = sqrt(b/2)."""
    target = kl_coefficients(omega0, gamma, b)
    return transformed_eigenfunction(ReductionPlan((), omega0, b, target), label, target)


def _certify_pair(pair, source: LiouvillianCoeffs, omega0: float) -> None:
    """The transport's certificate [K, B1] = lambda_1 B1 for the source K.

    The flows keep the trace, so B1 stays beta r + delta dQ (q = dr = 0
    exactly), on which K acts through h and gamma alone: [K, r] =
    (gamma - h2)/2 r + i(h1 - h0)/2 dQ, [K, dQ] = -i(h0 + h1)/2 r +
    (gamma + h2)/2 dQ.  They keep B2 the mirror of B1 under
    f -> conj f(Q, -r) bit for bit, so B2 misses as much.  A miss above
    RAISING_TOL times |lambda_1| max(|beta|, |delta|) raises
    IllConditionedReduction carrying the relative miss.
    """
    (h0, h1, h2), gamma = source.h, source.gamma
    lam = eigenvalue(EigenLabel(1, 1, -1), omega0, gamma)
    beta, delta = pair[0].r, pair[0].dq
    miss = abs(0.5 * (beta * (gamma - h2) - 1j * delta * (h0 + h1)) - lam * beta) + abs(
        0.5 * (1j * beta * (h1 - h0) + delta * (gamma + h2)) - lam * delta
    )
    scale = abs(lam) * max(abs(beta), abs(delta))
    if not miss <= RAISING_TOL * scale:
        raise IllConditionedReduction(
            f"transported raising pair misses [K, B] = lambda B by {miss} of {scale}",
            miss / scale if scale else math.inf,
        )


def transformed_eigenfunction(
    plan: ReductionPlan, label: EigenLabel, source: LiouvillianCoeffs
) -> AppliedEigenfunction:
    """Eigenfunction of the source Liouvillian obtained from the plan.

    If S is the similarity built from the plan steps (so S K S^-1 is the
    normal form), the source eigenfunctions are S^-1 applied to the
    normal-form ones at the same label: the stationary Gaussian and the
    raising pair are transported through the steps in reverse order with
    negated parameters, and the label's word is unchanged.  The pair does
    not depend on the label, so it is the plan's (ReductionPlan.raising_pair,
    transported once per plan object), and so is the normal form's Gaussian
    (its _normal_state).  The Gaussian is transported per call, on floats
    (apply_plan_gaussian).  m above MAX_M raises LabelError before anything
    is transported.  The transported Gaussian may pass outside the physical
    region; only a non-normalizable endpoint (mu + nu <= 0) is an error.  A
    plan that does not replay source onto its target
    (ReductionPlan.check_replay), a transported pair that misses
    [K, B_i] = lambda_i B_i of the source by more than RAISING_TOL relative
    to |lambda_i B_i|, or one that no longer commutes (see
    AppliedEigenfunction) raises IllConditionedReduction carrying the miss.
    When source is the plan's checked_source, the replay is skipped, since
    reduce_to_kl already ran it, and the pair's certificate runs on the
    first call that reaches it and is recorded on the plan once it passes;
    any other source, an equal copy included, is checked on every call, and
    a failing certificate (_certify_pair) raises on every call.
    """
    _word(label)  # LabelError above MAX_M
    checked = source is plan.checked_source
    if not checked:
        plan.check_replay(source)
    state = apply_plan_gaussian(plan.inverse_steps, plan._normal_state)
    if state.width_sum <= 0:
        raise PositivityViolation(
            "transported stationary Gaussian is not normalizable (mu + nu <= 0)"
        )
    pair = plan.raising_pair
    if not (checked and plan._pair_certified):
        _certify_pair(pair, source, plan.omega0)
        if checked:
            object.__setattr__(plan, "_pair_certified", True)
    return AppliedEigenfunction(
        label=label,
        eigenvalue=eigenvalue(label, plan.omega0, source.gamma),
        raising=pair,
        gaussian=state,
    )
