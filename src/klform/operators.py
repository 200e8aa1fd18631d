"""Polynomial differential operators on phase-space functions f(Q, r).

Everything in this package acts on functions of two real variables: a
center coordinate Q and a relative coordinate r.  Operators are finite
sums of normal-ordered monomials

    Q^a r^b (d/dQ)^c (d/dr)^d,

with all multiplication factors standing to the left of all derivatives.
A quadratic, trace- and hermiticity-preserving evolution operator K
(written so that df/dt = -K f) is a real combination of seven basis
generators,

    K = h0*iL0 + h1*iM1 + h2*iM2 + gamma*O0MI + gp*OPLUS + g1*L1PLUS + g2*L2PLUS,

and this module provides the generators, their algebra (products and
commutators), the closed-form action of one-parameter conjugation flows
exp(p*G) K exp(-p*G) on the coefficient vector, the corresponding action
on degree-one operators, the conjugation exp(-phi) K exp(phi) by the
exponential of a quadratic phi(Q, r), which gives both a frame's phase
and the stationary similarity, and coordinate rescalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import ne, sub
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GeneratorId",
    "GENERATOR_ORDER",
    "PhasePolyOperator",
    "LinearPhaseOperator",
    "LiouvillianCoeffs",
    "CoordinateFrame",
    "generator",
    "assemble_liouvillian",
    "conjugate_coefficients",
    "conjugate_linear",
    "kl_coefficients",
    "cl_coefficients",
    "hpz_coefficients",
]


class GeneratorId(Enum):
    """The seven quadratic generators spanning trace-preserving evolutions.

    IL0     (i/2)(-d2/dQdr + Q r)        oscillation
    IM1     (i/2)( d2/dQdr + Q r)        hyperbolic mixing
    IM2     -(1/2)(Q dQ + 1 + r dr)      isotropic scaling
    O0MI    -(1/2)(Q dQ + 1 - r dr)      damping (traceless part)
    OPLUS   (1/4)(d2/dQ2 - r^2)          diffusion, symmetric
    L1PLUS  -(1/4)(d2/dQ2 + r^2)         diffusion, antisymmetric
    L2PLUS  -(i/2) r d/dQ                cross diffusion
    """

    IL0 = "iL0"
    IM1 = "iM1"
    IM2 = "iM2"
    O0MI = "O0mI"
    OPLUS = "Oplus"
    L1PLUS = "L1plus"
    L2PLUS = "L2plus"


# Coefficient-vector ordering used throughout: (h0, h1, h2, gamma, gp, g1, g2).
GENERATOR_ORDER = (
    GeneratorId.IL0,
    GeneratorId.IM1,
    GeneratorId.IM2,
    GeneratorId.O0MI,
    GeneratorId.OPLUS,
    GeneratorId.L1PLUS,
    GeneratorId.L2PLUS,
)

_GENERATOR_TERMS = {
    GeneratorId.IL0: {(1, 1, 0, 0): 0.5j, (0, 0, 1, 1): -0.5j},
    GeneratorId.IM1: {(1, 1, 0, 0): 0.5j, (0, 0, 1, 1): 0.5j},
    GeneratorId.IM2: {(1, 0, 1, 0): -0.5, (0, 0, 0, 0): -0.5, (0, 1, 0, 1): -0.5},
    GeneratorId.O0MI: {(1, 0, 1, 0): -0.5, (0, 0, 0, 0): -0.5, (0, 1, 0, 1): 0.5},
    GeneratorId.OPLUS: {(0, 0, 2, 0): 0.25, (0, 2, 0, 0): -0.25},
    GeneratorId.L1PLUS: {(0, 0, 2, 0): -0.25, (0, 2, 0, 0): -0.25},
    GeneratorId.L2PLUS: {(0, 1, 1, 0): -0.5j},
}


class PhasePolyOperator:
    """Finite sum of normal-ordered monomials Q^a r^b dQ^c dr^d.

    Terms are stored as a mapping from exponent quadruples (a, b, c, d)
    to complex coefficients.  Exact zeros are dropped on construction so
    that equal operators compare equal term-by-term.

    Supports + and -, scalar multiplication, composition with @, and
    evaluation of the operator applied to the constant function 1.  A
    polynomial P(Q, r) is the multiplication operator with terms
    (a, b, 0, 0).
    Composition normal-orders the product: each derivative commuted past
    a multiplication factor picks up the Leibniz terms

        dQ^c Q^a = sum_k C(c,k) a!/(a-k)! Q^(a-k) dQ^(c-k).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canon = {}
        if terms:
            for key, coeff in terms.items():
                a, b, c, d = key
                if min(a, b, c, d) < 0 or any(map(ne, map(int, key), key)):
                    raise ValueError(f"exponents must be non-negative integers: {key}")
                val = complex(coeff)
                if val != 0:
                    canon[(int(a), int(b), int(c), int(d))] = canon.get(key, 0) + val
        self._terms = {k: v for k, v in canon.items() if v != 0}

    @classmethod
    def _from_checked(cls, terms: dict) -> "PhasePolyOperator":
        """The operator of terms whose keys are already non-negative integer
        quadruples (results of the arithmetic on checked operators), with the
        constructor's normalization and no key checks: complex coefficients,
        exact zeros dropped, and 0 + v, which turns a -0.0 part into +0.0."""
        out = cls.__new__(cls)
        out._terms = {k: 0 + v for k, v in zip(terms, map(complex, terms.values())) if v != 0}
        return out

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    @classmethod
    def identity(cls) -> "PhasePolyOperator":
        return cls({(0, 0, 0, 0): 1.0})

    def degree(self) -> int:
        """Total degree max(a + b + c + d) over stored terms (0 for the zero operator)."""
        if not self._terms:
            return 0
        return max(sum(key) for key in self._terms)

    def evaluate(self, q, r) -> np.ndarray:
        """(op 1)(q, r) with numpy broadcasting: derivatives annihilate the
        constant 1, so only the multiplication terms Q^a r^b contribute."""
        import numpy as np

        q = np.asarray(q)
        r = np.asarray(r)
        out = np.zeros(np.broadcast(q, r).shape, dtype=complex)
        for (a, b, c, d), coeff in self._terms.items():
            if c == 0 and d == 0:
                out += coeff * q**a * r**b
        return out

    def __add__(self, other):
        out = dict(self._terms)
        for key, val in other._terms.items():
            out[key] = out.get(key, 0) + val
        return PhasePolyOperator._from_checked(out)

    def __sub__(self, other):
        out = dict(self._terms)
        for key, val in other._terms.items():
            out[key] = out.get(key, 0) - val
        return PhasePolyOperator._from_checked(out)

    def __neg__(self):
        return PhasePolyOperator._from_checked({k: -v for k, v in self._terms.items()})

    def __mul__(self, scalar):
        return PhasePolyOperator._from_checked({k: v * scalar for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "PhasePolyOperator") -> "PhasePolyOperator":
        out = {}
        for (a1, b1, c1, d1), v1 in self._terms.items():
            for (a2, b2, c2, d2), v2 in other._terms.items():
                for k in range(min(c1, a2) + 1):
                    fk = math.comb(c1, k) * math.perm(a2, k)
                    for l in range(min(d1, b2) + 1):
                        fl = math.comb(d1, l) * math.perm(b2, l)
                        key = (a1 + a2 - k, b1 + b2 - l, c1 + c2 - k, d1 + d2 - l)
                        out[key] = out.get(key, 0) + v1 * v2 * fk * fl
        return PhasePolyOperator._from_checked(out)

    def __eq__(self, other):
        if not isinstance(other, PhasePolyOperator):
            return NotImplemented
        return self._terms == other._terms

    def max_abs_diff(self, other: "PhasePolyOperator") -> float:
        keys = set(self._terms) | set(other._terms)
        if not keys:
            return 0.0
        return max(abs(self._terms.get(k, 0) - other._terms.get(k, 0)) for k in keys)

    def __repr__(self):
        items = ", ".join(f"{k}: {v}" for k, v in sorted(self._terms.items()))
        return f"PhasePolyOperator({{{items}}})"


@dataclass(frozen=True)
class LinearPhaseOperator:
    """Degree-one operator q*Q + r*r + dq*d/dQ + dr*d/dr (no constant part)."""

    q: complex = 0.0
    r: complex = 0.0
    dq: complex = 0.0
    dr: complex = 0.0

    def to_poly(self) -> PhasePolyOperator:
        return PhasePolyOperator(
            {
                (1, 0, 0, 0): self.q,
                (0, 1, 0, 0): self.r,
                (0, 0, 1, 0): self.dq,
                (0, 0, 0, 1): self.dr,
            }
        )

    def commutator_scalar(self, other: "LinearPhaseOperator") -> complex:
        # [aQ + br + c dQ + d dr, a'Q + b'r + c'dQ + d'dr] = (c a' - a c') + (d b' - b d')
        return (
            self.dq * other.q
            - self.q * other.dq
            + self.dr * other.r
            - self.r * other.dr
        )


@dataclass(frozen=True)
class LiouvillianCoeffs:
    """Real coefficient vector (h0, h1, h2; gamma; gp, g1, g2) of an evolution operator."""

    h: tuple[float, float, float]
    gamma: float
    g: tuple[float, float, float]

    def __post_init__(self):
        h = tuple(map(float, self.h))
        g = tuple(map(float, self.g))
        gamma = float(self.gamma)
        if len(h) != 3 or len(g) != 3:
            raise ValueError("h and g must each have three entries")
        if not all(map(math.isfinite, (*h, gamma, *g))):
            raise ValueError("all coefficients must be finite")
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def _from_checked(cls, h: tuple, gamma: float, g: tuple) -> "LiouvillianCoeffs":
        """The coefficients of a flow's image, taken as they are: h and g
        tuples of three floats, gamma a checked coefficient's.  Only the
        finiteness check runs (ValueError)."""
        if not all(map(math.isfinite, (*h, gamma, *g))):
            raise ValueError("all coefficients must be finite")
        out = cls.__new__(cls)
        out.__dict__.update(h=h, gamma=gamma, g=g)
        return out

    def as_vector(self) -> np.ndarray:
        """Length-7 vector in GENERATOR_ORDER."""
        import numpy as np

        return np.array([*self.h, self.gamma, *self.g], dtype=float)

    def max_abs_diff(self, other: "LiouvillianCoeffs") -> float:
        """Largest |difference| of the seven coefficients."""
        diffs = map(sub, (*self.h, self.gamma, *self.g), (*other.h, other.gamma, *other.g))
        return max(map(abs, diffs))


@dataclass(frozen=True)
class CoordinateFrame:
    """Scale factors and phase of the Gaussian a function is expanded against.

    Normalized coordinates are Qs = Q / s_q and rs = s_r * r; note the
    relative coordinate is multiplied, not divided.  A frame with phase
    kappa expands f * exp(i kappa Q r).
    """

    s_q: float
    s_r: float
    kappa: float = 0.0

    def __post_init__(self):
        if not (self.s_q > 0 and math.isfinite(self.s_q)):
            raise ValueError("s_q must be positive and finite")
        if not (self.s_r > 0 and math.isfinite(self.s_r)):
            raise ValueError("s_r must be positive and finite")
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")


def generator(gid: GeneratorId) -> PhasePolyOperator:
    """Normal-ordered form of one of the seven basis generators."""
    return PhasePolyOperator(_GENERATOR_TERMS[gid])


def _commutator(a: PhasePolyOperator, b: PhasePolyOperator) -> PhasePolyOperator:
    return a @ b - b @ a


def assemble_liouvillian(c: LiouvillianCoeffs) -> PhasePolyOperator:
    """Real linear combination sum_i c_i G_i of the seven generators, each
    term added in GENERATOR_ORDER."""
    out = {}
    for coeff, gid in zip(c.as_vector(), GENERATOR_ORDER):
        if coeff != 0:
            for key, val in _GENERATOR_TERMS[gid].items():
                out[key] = out.get(key, 0) + complex(val) * coeff
    return PhasePolyOperator._from_checked(out)


def conjugate_coefficients(
    gid: GeneratorId, param: float, c: LiouvillianCoeffs
) -> LiouvillianCoeffs:
    """Coefficients of exp(param*G) K exp(-param*G) in closed form.

    The rotation IL0 mixes (h1, h2) and (g1, g2); the boosts IM1, IM2 mix
    hyperbolically; O0MI rescales g by exp(param); the three shift flows
    OPLUS, L1PLUS, L2PLUS are affine in param.  gamma is invariant under
    every flow and is returned bit-identically.  A coefficient that leaves
    the float range raises ValueError, also where the flow's cosh, sinh or
    exp itself overflows.
    """
    p = float(param)
    h0, h1, h2 = c.h
    gp, g1, g2 = c.g
    try:
        if gid is GeneratorId.IL0:
            ct, st = math.cos(p), math.sin(p)
            h = (h0, h1 * ct + h2 * st, h2 * ct - h1 * st)
            g = (gp, g1 * ct + g2 * st, g2 * ct - g1 * st)
        elif gid is GeneratorId.IM1:
            ch, sh = math.cosh(p), math.sinh(p)
            h = (h0 * ch + h2 * sh, h1, h2 * ch + h0 * sh)
            g = (gp * ch + g2 * sh, g1, g2 * ch + gp * sh)
        elif gid is GeneratorId.IM2:
            ch, sh = math.cosh(p), math.sinh(p)
            h = (h0 * ch - h1 * sh, h1 * ch - h0 * sh, h2)
            g = (gp * ch - g1 * sh, g1 * ch - gp * sh, g2)
        elif gid is GeneratorId.O0MI:
            ep = math.exp(p)
            h = (h0, h1, h2)
            g = (gp * ep, g1 * ep, g2 * ep)
        elif gid is GeneratorId.OPLUS:
            h = (h0, h1, h2)
            g = (gp - p * c.gamma, g1 + p * h2, g2 - p * h1)
        elif gid is GeneratorId.L1PLUS:
            h = (h0, h1, h2)
            g = (gp + p * h2, g1 - p * c.gamma, g2 + p * h0)
        elif gid is GeneratorId.L2PLUS:
            h = (h0, h1, h2)
            g = (gp - p * h1, g1 - p * h0, g2 - p * c.gamma)
        else:
            raise ValueError(f"unknown generator {gid!r}")
    except OverflowError:  # an infinite cosh, sinh or exp leaves a coefficient non-finite
        raise ValueError("all coefficients must be finite") from None
    return LiouvillianCoeffs._from_checked(h, c.gamma, g)


# (Q, r, dQ, dr) as the terms of degree-one operators
_LINEAR_TERMS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
# adjoint rows kept, one per generator
_GENERATORS = len(GENERATOR_ORDER)


@lru_cache(maxsize=_GENERATORS)
def _adjoint_rows(gid: GeneratorId) -> tuple[tuple[int, complex], ...]:
    """(j, a_ij) for the nonzero entry of each row i of ad_G on (Q, r, dQ, dr),
    (0, 0j) for a zero row, from [G, e_j] = sum_i a_ij e_i.  Exact: each entry
    is a generator coefficient times 1 or 2."""
    rows = [(0, 0j)] * 4
    for j, e_j in enumerate(_LINEAR_TERMS):
        for term, coeff in _commutator(generator(gid), PhasePolyOperator({e_j: 1.0})).terms.items():
            rows[_LINEAR_TERMS.index(term)] = (j, coeff)
    return tuple(rows)


def conjugate_linear(
    gid: GeneratorId, param: float, op: LinearPhaseOperator
) -> LinearPhaseOperator:
    """exp(param*G) op exp(-param*G) for a degree-one operator op.

    Each row i of ad_G on (Q, r, dQ, dr) has at most one nonzero entry a_ij,
    so exp(p ad_G) acts on the four fields of op one at a time.  ad_G is
    diagonal for the scalings IM2 and O0MI, which give exp(p a_ii) v_i; for
    every other generator it squares to k times the identity (k = -1/4 for
    IL0, 1/4 for IM1, 0 for the shifts), so that exp(p ad_G) = c I + s ad_G
    gives c v_i + s a_ij v_j.  c, s and the exponentials come from numpy's
    cos, sin, cosh, sinh and exp, as in the 4-vector form c v + s (ad_G @ v)
    (tests/adjoint_oracle.py), whose bits the result keeps; the math
    module's cosh, sinh and exp round differently.  An overflowing boost
    gives non-finite entries under numpy's RuntimeWarning.
    """
    import numpy as np

    p = float(param)
    vec = (op.q, op.r, op.dq, op.dr)
    rows = _adjoint_rows(gid)
    if gid is GeneratorId.IM2 or gid is GeneratorId.O0MI:
        return LinearPhaseOperator(*[float(np.exp(p * a.real)) * v for v, (_, a) in zip(vec, rows)])
    if gid is GeneratorId.IL0:
        c, s = float(np.cos(p / 2)), 2 * float(np.sin(p / 2))
    elif gid is GeneratorId.IM1:
        c, s = float(np.cosh(p / 2)), 2 * float(np.sinh(p / 2))
    else:
        c, s = 1.0, p
    (j0, a0), (j1, a1), (j2, a2), (j3, a3) = rows
    return LinearPhaseOperator(
        c * vec[0] + s * (a0 * vec[j0]),
        c * vec[1] + s * (a1 * vec[j1]),
        c * vec[2] + s * (a2 * vec[j2]),
        c * vec[3] + s * (a3 * vec[j3]),
    )


def _exp_conjugated(terms: dict, q2: complex, qr: complex, r2: complex) -> dict:
    """Terms of exp(-phi) op exp(phi) for op's terms, phi = q2 Q^2 + qr Q r + r2 r^2.

    Each derivative picks up the gradient of phi, dQ -> dQ + 2 q2 Q + qr r
    and dr -> dr + qr Q + 2 r2 r, so op keeps its degree.  Each monomial
    Q^a r^b is multiplied on the right by its c letters for dQ, then its d
    letters for dr.  A letter's x Q passes the c1 factors dQ before it,
    which adds x c1 Q^a r^b dQ^(c1-1) dr^d1, and its y r passes the d1
    factors dr likewise; a zero x or y adds nothing.  The terms are
    accumulated, and exact zeros dropped, in the order and with the
    rounding of the operator products: for finite coefficients and a phi
    of Q r alone, or of Q^2 and r^2 alone, the result is theirs bit for
    bit, term order included.
    """
    d_q, d_r = (1, 2 * q2, qr), (0, qr, 2 * r2)  # (1 for dQ, 0 for dr; x, y)
    out: dict = {}
    for (a, b, c, d), coeff in terms.items():
        term = {(a, b, 0, 0): coeff}
        for dc, x, y in (d_q,) * c + (d_r,) * d:
            step: dict = {}
            for (a1, b1, c1, d1), val in term.items():
                key = (a1, b1, c1 + dc, d1 + 1 - dc)
                step[key] = step.get(key, 0) + val
                if x:
                    key = (a1 + 1, b1, c1, d1)
                    step[key] = step.get(key, 0) + val * x
                    if c1:
                        key = (a1, b1, c1 - 1, d1)
                        step[key] = step.get(key, 0) + val * x * c1
                if y:
                    key = (a1, b1 + 1, c1, d1)
                    step[key] = step.get(key, 0) + val * y
                    if d1:
                        key = (a1, b1, c1, d1 - 1)
                        step[key] = step.get(key, 0) + val * y * d1
            term = {key: val for key, val in step.items() if val != 0}
        for key, val in term.items():
            out[key] = out.get(key, 0) + val
        if 0 in out.values():  # a cancelled term leaves, and comes back at the end
            out = {key: val for key, val in out.items() if val != 0}
    return out


def _rescale_coordinates(
    op: PhasePolyOperator, frame: CoordinateFrame
) -> PhasePolyOperator:
    """Rewrite exp(i kappa Q r) op exp(-i kappa Q r) in Qs = Q/s_q, rs = s_r*r.

    Each monomial picks up the factor s_q^(a-c) * s_r^(d-b); exponents
    are unchanged.
    """
    terms = _exp_conjugated(op._terms, 0, -1j * frame.kappa, 0) if frame.kappa else op._terms
    sq, sr = frame.s_q, frame.s_r
    return PhasePolyOperator._from_checked(
        {
            (a, b, c, d): coeff * sq ** (a - c) * sr ** (d - b)
            for (a, b, c, d), coeff in terms.items()
        }
    )


def kl_coefficients(omega0: float, gamma: float, b: float) -> LiouvillianCoeffs:
    """Normal-form coefficients: h = (2*omega0, 0, 0), g = (-2*gamma*b, 0, 0)."""
    return LiouvillianCoeffs((2.0 * omega0, 0.0, 0.0), gamma, (-2.0 * gamma * b, 0.0, 0.0))


def cl_coefficients(omega0_prime: float, gamma: float, b_cl: float) -> LiouvillianCoeffs:
    """Damped-oscillator model with equal symmetric diffusion couplings.

    h = (2*omega0', 0, -gamma), g = (-2*gamma*b_cl, -2*gamma*b_cl, 0).
    """
    gb = -2.0 * gamma * b_cl
    return LiouvillianCoeffs((2.0 * omega0_prime, 0.0, -gamma), gamma, (gb, gb, 0.0))


def hpz_coefficients(
    omega0_prime: float, gamma: float, b_hpz: float, d: float
) -> LiouvillianCoeffs:
    """Damped-oscillator model with an extra cross-diffusion coupling d."""
    gb = -2.0 * gamma * b_hpz
    return LiouvillianCoeffs((2.0 * omega0_prime, 0.0, -gamma), gamma, (gb, gb, -d))
