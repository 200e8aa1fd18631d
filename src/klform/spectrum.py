"""Closed-form eigenvalues and right eigenfunctions.

In normal form the spectrum is

    lambda(m, n, sign) = sign * i*n*omega0 + (m - n/2)*gamma,   0 <= n <= m,

with right eigenfunctions Pi(m, n, sign) applied to the stationary
Gaussian.  Pi is a polynomial in two commuting operators Qs and rs; for
the normal form these are plain multiplications by the normalized
coordinates, and for a general reducible Liouvillian they are the
conjugated degree-one operators obtained by transporting the normal-form
pair backwards through the reduction plan.  This module builds the
polynomials from their exact coefficient formula, applies the operator
pair to the Gaussian, and carries eigenfunctions across a reduction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import IllConditionedReduction, LabelError, PositivityViolation, UnsupportedLabel
from .gauss import (
    GaussianState,
    apply_plan_gaussian,
    reduced_frequency,
    stationary_preset,
)
from .operators import (
    LinearPhaseOperator,
    LiouvillianCoeffs,
    PhasePolyOperator,
    conjugate_linear,
    kl_coefficients,
)
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
    "reference_eigenfunction",
]

# largest m of pi_polynomial: the exact integer combinatorics outgrow
# double precision beyond it
MAX_M = 32
# largest |[op_q, op_r]| of a commuting operator pair
COMMUTATOR_TOL = 1e-12
# eigenpolynomials kept, one per label: the (m + 1)^2 labels up to m = 15
_LABEL_POLYS = 256
# operator powers kept, shared by the labels of one plan: the labels up to
# m = 2 reach 13 powers, those up to m = 5 reach 61
_PLAN_POWERS = 64


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
    falling = 1
    for i in range(n):
        falling *= m - i
    root = 1.0 / math.sqrt(falling)
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
    d(ln f)/dr = -i kappa Q - (mu + nu) r.
    """
    out: dict = {}

    def add(key, val):
        if val != 0:
            out[key] = out.get(key, 0) + val

    mu, kappa, w = s.mu, s.kappa, s.width_sum
    for (j, k), coeff in poly.items():
        if op.q != 0:
            add((j + 1, k), op.q * coeff)
        if op.r != 0:
            add((j, k + 1), op.r * coeff)
        if op.dq != 0:
            if j > 0:
                add((j - 1, k), op.dq * coeff * j)
            add((j + 1, k), op.dq * coeff * (-4.0 * mu))
            add((j, k + 1), op.dq * coeff * (-1j * kappa))
        if op.dr != 0:
            if k > 0:
                add((j, k - 1), op.dr * coeff * k)
            add((j + 1, k), op.dr * coeff * (-1j * kappa))
            add((j, k + 1), op.dr * coeff * (-w))
    return {k: v for k, v in out.items() if v != 0}


@lru_cache(maxsize=_PLAN_POWERS)
def _operator_power(
    op_q: LinearPhaseOperator, op_r: LinearPhaseOperator, s: GaussianState, j: int, k: int
) -> MappingProxyType:
    """Read-only coefficients of (op_q^j op_r^k f)/f for the Gaussian f = s.

    op_r is applied k times to 1, then op_q j times; each power is
    built from the cached one below it.
    """
    if j > 0:
        poly = _apply_linear_to_poly(op_q, _operator_power(op_q, op_r, s, j - 1, k), s)
    elif k > 0:
        poly = _apply_linear_to_poly(op_r, _operator_power(op_q, op_r, s, 0, k - 1), s)
    else:
        poly = {(0, 0): 1.0 + 0j}
    return MappingProxyType(poly)


@dataclass(eq=False)
class AppliedEigenfunction:
    """Eigenfunction Pi(op_q, op_r) applied to a Gaussian.

    pi holds the polynomial in the two commuting degree-one operators
    op_q, op_r, with op_q^j op_r^k as the term (j, k, 0, 0); gaussian is
    the stationary state the polynomial acts on.  evaluate() multiplies
    out the operator polynomial once (cached) and then evaluates
    polynomial times Gaussian pointwise.  A pair that does not commute to
    within COMMUTATOR_TOL (NaN included) raises IllConditionedReduction
    carrying the commutator.
    """

    label: EigenLabel
    eigenvalue: complex
    pi: PhasePolyOperator
    op_q: LinearPhaseOperator
    op_r: LinearPhaseOperator
    gaussian: GaussianState

    def __post_init__(self):
        comm = abs(self.op_q.commutator_scalar(self.op_r))
        if not comm <= COMMUTATOR_TOL:
            raise IllConditionedReduction(f"transported pair fails to commute by {comm}", comm)

    @cached_property
    def expanded_poly(self) -> PhasePolyOperator:
        """Multiplication by P(Q, r) with f(Q, r) = P(Q, r) * gaussian(Q, r)."""
        total: dict = {}
        for (j, k, _, _), coeff in self.pi.terms.items():
            power = _operator_power(self.op_q, self.op_r, self.gaussian, j, k)
            for (a, b), val in power.items():
                key = (a, b, 0, 0)
                total[key] = total.get(key, 0) + coeff * val
        return PhasePolyOperator(total)

    def evaluate(self, q, r) -> np.ndarray:
        return self.expanded_poly.evaluate(q, r) * self.gaussian.evaluate(q, r)


def kl_eigenfunction(
    label: EigenLabel, b: float, omega0: float, gamma: float
) -> AppliedEigenfunction:
    """Normal-form eigenfunction at width b >= 1/2: the transport of the
    empty plan, whose operator pair is plain multiplication by the
    normalized coordinates Qs = Q/sqrt(2b) and rs = sqrt(b/2)*r."""
    target = kl_coefficients(omega0, gamma, b)
    return transformed_eigenfunction(ReductionPlan((), omega0, b, target), label, target)


def transformed_eigenfunction(
    plan: ReductionPlan, label: EigenLabel, source: LiouvillianCoeffs
) -> AppliedEigenfunction:
    """Eigenfunction of the source Liouvillian obtained from the plan.

    If S is the similarity built from the plan steps (so S K S^-1 is the
    normal form), the source eigenfunctions are S^-1 applied to the
    normal-form ones at the same label: the stationary Gaussian and the
    multiplication pair are transported through the steps in reverse
    order with negated parameters.  The transported Gaussian may pass
    outside the physical region; only a non-normalizable endpoint
    (mu + nu <= 0) is an error.  A plan that does not replay source onto
    its target (ReductionPlan.check_replay), or a transported pair that no
    longer commutes (see AppliedEigenfunction), raises
    IllConditionedReduction carrying the miss.
    """
    plan.check_replay(source)
    inverse_steps = [(gid, -p) for gid, p in reversed(plan.steps)]
    base_state, frame = stationary_preset("kl", b=plan.b)
    state = apply_plan_gaussian(inverse_steps, base_state)
    if state.width_sum <= 0:
        raise PositivityViolation(
            "transported stationary Gaussian is not normalizable (mu + nu <= 0)"
        )
    op_q = LinearPhaseOperator(q=1.0 / frame.s_q)
    op_r = LinearPhaseOperator(r=frame.s_r)
    for gid, p in inverse_steps:
        op_q = conjugate_linear(gid, p, op_q)
        op_r = conjugate_linear(gid, p, op_r)
    return AppliedEigenfunction(
        label=label,
        eigenvalue=eigenvalue(label, plan.omega0, source.gamma),
        pi=pi_polynomial(label),
        op_q=op_q,
        op_r=op_r,
        gaussian=state,
    )


def reference_eigenfunction(model: str, label: EigenLabel, **params) -> AppliedEigenfunction:
    """Hard-coded closed forms for the lowest modes, used as regression fixtures.

    Supported labels: (1, 1, +), (1, 1, -) and (1, 0).  Models:

      "kl"  params b, omega0, gamma.
            Pi(1,1,s) = -i(s*Qs + rs),  Pi(1,0) = 1/2 - Qs^2 + rs^2.
      "hpz" params omega0_prime, gamma, b_hpz, d.  With the split widths
            b- = b_hpz, b+ = b_hpz + d/(2 w0'), coordinates
            Qs = Q/sqrt(2 b+), rs = sqrt(b-/2) r, w = w0'/w0,
            p = sqrt(i w0') sqrt(b+ + b-) / w0 and
            lam(+-) = (+-) i w0 + gamma/2:
            Pi(1,1,+) = p (i sqrt(lam-/(2b+)) Qs + sqrt(lam+/(2b-)) rs)
            Pi(1,1,-) = p (sqrt(lam+/(2b+)) Qs - i sqrt(lam-/(2b-)) rs)
            Pi(1,0)   = w (b+ + b-)/(2b+) (w (1/2 - Qs^2 + (b+/b-) rs^2)
                        + i (gamma/w0) sqrt(b+/b-) Qs rs)
      "cl"  params omega0_prime, gamma, b_cl: "hpz" at b_hpz = b_cl, d = 0.

    Unsupported labels raise UnsupportedLabel.
    """
    name = model.lower()
    supported = {(1, 1, 1), (1, 1, -1), (1, 0, 1), (1, 0, -1)}
    if (label.m, label.n, label.sigma) not in supported:
        raise UnsupportedLabel(f"no closed form tabulated for {label}")
    if name == "cl":
        name, params = "hpz", {**params, "b_hpz": params["b_cl"], "d": 0.0}
    # ValueError for an unknown model
    state, frame = stationary_preset(name, **params)
    gamma = float(params["gamma"])

    if name == "kl":
        omega0 = float(params["omega0"])
        if label.n == 1:
            pi = PhasePolyOperator({(1, 0, 0, 0): -1j * label.sigma, (0, 1, 0, 0): -1j})
        else:
            pi = PhasePolyOperator({(0, 0, 0, 0): 0.5, (2, 0, 0, 0): -1.0, (0, 2, 0, 0): 1.0})
    else:
        omega0_prime = float(params["omega0_prime"])
        b_minus = float(params["b_hpz"])
        omega0 = reduced_frequency(omega0_prime, gamma)
        lam_plus = complex(0.5 * gamma, omega0)
        lam_minus = complex(0.5 * gamma, -omega0)
        pref = cmath.sqrt(1j * omega0_prime) / omega0
        b_plus = b_minus + float(params["d"]) / (2.0 * omega0_prime)
        if label.n == 1:
            scale = math.sqrt(b_plus + b_minus)
            if label.sigma == 1:
                pi = PhasePolyOperator(
                    {
                        (1, 0, 0, 0): pref * scale * 1j * cmath.sqrt(lam_minus / (2.0 * b_plus)),
                        (0, 1, 0, 0): pref * scale * cmath.sqrt(lam_plus / (2.0 * b_minus)),
                    }
                )
            else:
                pi = PhasePolyOperator(
                    {
                        (1, 0, 0, 0): pref * scale * cmath.sqrt(lam_plus / (2.0 * b_plus)),
                        (0, 1, 0, 0): -pref * scale * 1j * cmath.sqrt(lam_minus / (2.0 * b_minus)),
                    }
                )
        else:
            wr = omega0_prime / omega0
            lead = wr * (b_plus + b_minus) / (2.0 * b_plus)
            pi = PhasePolyOperator(
                {
                    (0, 0, 0, 0): 0.5 * lead * wr,
                    (2, 0, 0, 0): -lead * wr,
                    (0, 2, 0, 0): lead * wr * (b_plus / b_minus),
                    (1, 1, 0, 0): 1j * lead * (gamma / omega0) * math.sqrt(b_plus / b_minus),
                }
            )
    op_q = LinearPhaseOperator(q=1.0 / frame.s_q)
    op_r = LinearPhaseOperator(r=frame.s_r)
    return AppliedEigenfunction(label, eigenvalue(label, omega0, gamma), pi, op_q, op_r, state)
