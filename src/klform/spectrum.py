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
coordinates Qs and rs with an exact coefficient formula (pi_polynomial,
which eigfun publishes).  For a general reducible Liouvillian the pair and
the Gaussian are transported backwards through the reduction plan; the
transported pair is again degree one, so every mode stays a word of the
same form.  This module builds the words, applies them to the Gaussian,
and carries eigenfunctions across a reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import IllConditionedReduction, LabelError, PositivityViolation
from .gauss import (
    GaussianState,
    apply_plan_gaussian,
    stationary_preset,
)
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

__all__ = [
    "EigenLabel",
    "AppliedEigenfunction",
    "eigenvalue",
    "hermite_coefficients",
    "c_coefficient",
    "pi_polynomial",
    "distinct_labels",
    "kl_eigenfunction",
    "transformed_eigenfunction",
]

# largest m of a mode.  The words are exact to roundoff at every m a basis
# holds (residuals at most 4.9e-13 up to m = 32 at 66x66); the cap stays
# because eigfun publishes Pi, and pi_polynomial's exact triple sum for the
# 1,089 labels with m <= 32 takes 41-54 s on one CPU of a shared 2-core Xeon
MAX_M = 32
# largest |[B1, B2]| of a commuting raising pair
COMMUTATOR_TOL = 1e-12
# largest miss of [K, B1] = lambda_1 B1, summed over the r and dQ fields,
# relative to |lambda_1| max |B1|, the replay check's REPLAY_TOL: at most
# 8.7e-16 on the 100 criterion-02 sources and 798 draws of their recipe at
# seed 630948696
RAISING_TOL = 1e-10
# eigenpolynomials kept, one per label: the (m + 1)^2 labels up to m = 15
_LABEL_POLYS = 256


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


def hermite_coefficients(k: int) -> list[int]:
    """Exact integer coefficients of H_k, index = power of x."""
    if k < 0 or int(k) != k:
        raise ValueError("k must be a non-negative integer")
    prev = [1]
    if k == 0:
        return prev
    cur = [0, 2]
    for j in range(1, k):
        nxt = [0] * (j + 2)
        for p, c in enumerate(cur):
            nxt[p + 1] += 2 * c
        for p, c in enumerate(prev):
            nxt[p] -= 2 * j * c
        prev, cur = cur, nxt
    return cur


def c_coefficient(
    m: int, n: int, mu_idx: int, nu_idx: int, sigma_idx: int, sign: int
) -> complex:
    """Exact expansion coefficient of the (m, n) polynomial.

        c = s^(n+sigma) * (-1)^(mu+nu) / (i^n 2^(2nu+sigma) mu!)
            * sqrt((m-n)!/m!) * C(m, n+mu) * C(mu, nu) * C(n, sigma)

    with s = +1 or -1 the mode sign; indices range over 0 <= mu <= m-n,
    0 <= nu <= mu, 0 <= sigma <= n.  The multiplying monomial is
    Qs^(2(mu-nu)+n-sigma) * H_(2nu+sigma)(rs).
    """
    if not (0 <= n <= m):
        raise LabelError(f"need 0 <= n <= m, got ({m}, {n})")
    if not (0 <= mu_idx <= m - n and 0 <= nu_idx <= mu_idx and 0 <= sigma_idx <= n):
        raise LabelError("summation index out of range")
    if sign not in (1, -1):
        raise LabelError("sign must be +1 or -1")
    sign_factor = 1 if sign == 1 else (-1) ** ((n + sigma_idx) % 2)
    parity = (-1) ** ((mu_idx + nu_idx) % 2)
    # falling factorial m!/(m-n)! as an exact integer, then one float sqrt
    root = 1.0 / math.sqrt(math.perm(m, n))
    combs = math.comb(m, n + mu_idx) * math.comb(mu_idx, nu_idx) * math.comb(n, sigma_idx)
    denom = (1j) ** (n % 4) * 2 ** (2 * nu_idx + sigma_idx) * math.factorial(mu_idx)
    return sign_factor * parity * combs * root / denom


@lru_cache(maxsize=_LABEL_POLYS)
def pi_polynomial(label: EigenLabel) -> PhasePolyOperator:
    """Normal-form eigenpolynomial Pi(m, n, sign) in (Qs, rs).

    Triple sum over (mu, nu, sigma) of c_coefficient times
    Qs^(2(mu-nu)+n-sigma) H_(2nu+sigma)(rs), with the Hermite factor
    expanded into monomials; Qs^j rs^k is the term (j, k, 0, 0) of a
    multiplication operator.  Total degree is 2m - n.  m above MAX_M is
    rejected (LabelError).  Cached per label; a PhasePolyOperator hands
    out only copies of its terms, so callers cannot change the cached one.
    """
    if label.m > MAX_M:
        raise LabelError(f"m = {label.m} exceeds the cap {MAX_M}")
    m, n = label.m, label.n
    terms: dict = {}
    for mu_idx in range(m - n + 1):
        for nu_idx in range(mu_idx + 1):
            for sigma_idx in range(n + 1):
                c = c_coefficient(m, n, mu_idx, nu_idx, sigma_idx, label.sigma)
                jexp = 2 * (mu_idx - nu_idx) + n - sigma_idx
                for kexp, hc in enumerate(hermite_coefficients(2 * nu_idx + sigma_idx)):
                    if hc:
                        key = (jexp, kexp, 0, 0)
                        terms[key] = terms.get(key, 0) + c * hc
    return PhasePolyOperator(terms)


def _apply_linear_to_poly(
    op: LinearPhaseOperator, poly: dict, s: GaussianState
) -> dict:
    """Coefficients of (op P f)/f for P the given polynomial and f Gaussian s.

    Multiplications add exponents; derivatives act by the product rule,
    with the Gaussian contributing d(ln f)/dQ = -4 mu Q - i kappa r and
    d(ln f)/dr = -i kappa Q - (mu + nu) r.  A zero product adds nothing,
    so a field of op that is 0 and the derivative of a constant factor
    leave no term.
    """
    out: dict = {}
    mu, kappa, w = s.mu, s.kappa, s.width_sum
    for (j, k), coeff in poly.items():
        for key, val in (
            ((j + 1, k), op.q * coeff),
            ((j, k + 1), op.r * coeff),
            ((j - 1, k), op.dq * coeff * j),
            ((j + 1, k), op.dq * coeff * (-4.0 * mu)),
            ((j, k + 1), op.dq * coeff * (-1j * kappa)),
            ((j, k - 1), op.dr * coeff * k),
            ((j + 1, k), op.dr * coeff * (-1j * kappa)),
            ((j, k + 1), op.dr * coeff * (-w)),
        ):
            if val != 0:
                out[key] = out.get(key, 0) + val
    return {k: v for k, v in out.items() if v != 0}


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
        poly = {(0, 0): scale}
        for op, count in powers:
            for _ in range(count):
                poly = _apply_linear_to_poly(op, poly, self.gaussian)
        return PhasePolyOperator({(a, b, 0, 0): coeff for (a, b), coeff in poly.items()})

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
    transported once per plan object); the Gaussian is transported per
    call.  m above MAX_M raises LabelError before anything is transported.
    The transported Gaussian may pass outside the physical region; only a
    non-normalizable endpoint (mu + nu <= 0) is an error.  A plan that does
    not replay source onto its target (ReductionPlan.check_replay, skipped
    when source is the plan's checked_source, which reduce_to_kl already
    replayed), a transported pair that misses [K, B_i] = lambda_i B_i of
    the source by more than RAISING_TOL relative to |lambda_i B_i|, or one
    that no longer commutes (see AppliedEigenfunction) raises
    IllConditionedReduction carrying the miss.
    """
    _word(label)  # LabelError above MAX_M
    if source is not plan.checked_source:
        plan.check_replay(source)
    base_state, _ = stationary_preset("kl", b=plan.b)
    state = apply_plan_gaussian(plan.inverse_steps, base_state)
    if state.width_sum <= 0:
        raise PositivityViolation(
            "transported stationary Gaussian is not normalizable (mu + nu <= 0)"
        )
    pair = plan.raising_pair
    # The transport's certificate [K, B1] = lambda_1 B1, checked against the
    # source on every call.  The flows keep the trace, so B1 stays
    # beta r + delta dQ (q = dr = 0 exactly), on which K acts through h and
    # gamma alone: [K, r] = (gamma - h2)/2 r + i(h1 - h0)/2 dQ,
    # [K, dQ] = -i(h0 + h1)/2 r + (gamma + h2)/2 dQ.  They keep B2 the mirror
    # of B1 under f -> conj f(Q, -r) bit for bit, so B2 misses as much.
    (h0, h1, h2), gamma = source.h, source.gamma
    lam = eigenvalue(EigenLabel(1, 1, -1), plan.omega0, gamma)
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
    return AppliedEigenfunction(
        label=label,
        eigenvalue=eigenvalue(label, plan.omega0, source.gamma),
        raising=pair,
        gaussian=state,
    )
