"""The triple sum for Pi, and the monomial route to a mode built on it.

Before the modes were words in the raising pair, each one was built this
way.  Pi(m, n, sign), a polynomial in Qs = Q/s_q and rs = s_r r of the kl
frame, is the exact triple sum over (mu, nu, sigma) of coefficients c times
Qs^(2(mu-nu)+n-sigma) H_(2nu+sigma)(rs); pi_exact carries it out in
rationals, so it is the oracle for the package's pi_polynomial, which
multiplies out the word instead.  Qs and rs, transported backwards through
the plan, are two degree-one operators op_q and op_r, and each monomial
Qs^j rs^k becomes op_q^j op_r^k applied to the Gaussian.  The product rule
adds its terms in the order of the closure form the package used.  The
powers depend on the plan alone and the table on the label alone, so each
is built once.  The route shares nothing with the words but
conjugate_linear, and its Hermite expansion cancels badly from m near 16
on, so the tests compare it with the words at small m.
"""

import math
from fractions import Fraction
from functools import lru_cache

from klform import LinearPhaseOperator, conjugate_linear, stationary_preset


def hermite_coefficients(k: int) -> list[int]:
    """Exact integer coefficients of H_k, index = power of x."""
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


def c_rational(m: int, n: int, mu_idx: int, nu_idx: int, sigma_idx: int, sign: int) -> Fraction:
    """Expansion coefficient of the (m, n) polynomial with mode sign s = +-1,

        c = s^(n+sigma) * (-1)^(mu+nu) / (i^n 2^(2nu+sigma) mu!)
            * sqrt((m-n)!/m!) * C(m, n+mu) * C(mu, nu) * C(n, sigma),

    times the label's common factor i^n sqrt(m!/(m-n)!), which leaves a
    rational; 0 <= mu <= m-n, 0 <= nu <= mu, 0 <= sigma <= n.  The
    multiplying monomial is Qs^(2(mu-nu)+n-sigma) * H_(2nu+sigma)(rs).
    """
    sign_factor = sign ** ((n + sigma_idx) % 2)
    parity = (-1) ** ((mu_idx + nu_idx) % 2)
    combs = math.comb(m, n + mu_idx) * math.comb(mu_idx, nu_idx) * math.comb(n, sigma_idx)
    denom = 2 ** (2 * nu_idx + sigma_idx) * math.factorial(mu_idx)
    return Fraction(sign_factor * parity * combs, denom)


def common_factor(m: int, n: int) -> complex:
    """i^n sqrt(m!/(m-n)!), the factor c_rational takes out of c."""
    return (1j) ** (n % 4) * math.sqrt(math.perm(m, n))


def pi_exact(label) -> dict:
    """{(j, k): Fraction}, the nonzero terms Qs^j rs^k of Pi(label) times the
    label's common factor: the triple sum in exact rationals."""
    m, n = label.m, label.n
    terms = {}
    for mu_idx in range(m - n + 1):
        for nu_idx in range(mu_idx + 1):
            for sigma_idx in range(n + 1):
                c = c_rational(m, n, mu_idx, nu_idx, sigma_idx, label.sigma)
                jexp = 2 * (mu_idx - nu_idx) + n - sigma_idx
                for kexp, hc in enumerate(hermite_coefficients(2 * nu_idx + sigma_idx)):
                    terms[(jexp, kexp)] = terms.get((jexp, kexp), 0) + c * hc
    return {key: val for key, val in terms.items() if val}


def apply_linear(op, poly, s):
    """Coefficients of (op P f)/f for P = poly, keyed (j, k), and f Gaussian s,
    each product-rule term added in the closure form's order, a zero skipped."""
    out = {}
    mu, kappa, w = s.mu, s.kappa, s.width_sum
    for (j, k), coeff in poly.items():
        terms = []
        if op.q != 0:
            terms.append(((j + 1, k), op.q * coeff))
        if op.r != 0:
            terms.append(((j, k + 1), op.r * coeff))
        if op.dq != 0:
            if j > 0:
                terms.append(((j - 1, k), op.dq * coeff * j))
            terms.append(((j + 1, k), op.dq * coeff * (-4.0 * mu)))
            terms.append(((j, k + 1), op.dq * coeff * (-1j * kappa)))
        if op.dr != 0:
            if k > 0:
                terms.append(((j, k - 1), op.dr * coeff * k))
            terms.append(((j + 1, k), op.dr * coeff * (-1j * kappa)))
            terms.append(((j, k + 1), op.dr * coeff * (-w)))
        for key, val in terms:
            if val != 0:
                out[key] = out.get(key, 0) + val
    return {k: v for k, v in out.items() if v != 0}


def multiplication_pair(plan):
    """Qs = Q/s_q and rs = s_r r of the kl frame at plan.b, transported
    backwards through the plan."""
    _, frame = stationary_preset("kl", b=plan.b)
    op_q = LinearPhaseOperator(q=1.0 / frame.s_q)
    op_r = LinearPhaseOperator(r=frame.s_r)
    for gid, p in reversed(plan.steps):
        op_q = conjugate_linear(gid, -p, op_q)
        op_r = conjugate_linear(gid, -p, op_r)
    return op_q, op_r


def route_powers(plan, gaussian):
    """power(j, k): the terms (a, b) of op_q^j op_r^k applied to 1 over the
    plan's transported Gaussian, op_r applied k times and then op_q j
    times; each power is built once and shared by every label of the plan."""
    op_q, op_r = multiplication_pair(plan)
    powers = {(0, 0): {(0, 0): 1.0 + 0j}}

    def power(j, k):
        if (j, k) not in powers:
            op, below = (op_q, (j - 1, k)) if j > 0 else (op_r, (0, k - 1))
            powers[(j, k)] = apply_linear(op, power(*below), gaussian)
        return powers[(j, k)]

    return power


@lru_cache(maxsize=None)
def pi_table(label):
    """((j, k), coefficient) of each term Qs^j rs^k of Pi(label), pi_exact's
    rationals over the common factor, rounded once; built once per label."""
    common = common_factor(label.m, label.n)
    return tuple((key, float(exact) / common) for key, exact in pi_exact(label).items())


def pi_route_terms(power, label):
    """Terms (a, b, 0, 0) of the multiplier P of the label's mode = P * Gaussian
    by the monomial route, on the powers of its plan (route_powers)."""
    total = {}
    for (j, k), coeff in pi_table(label):
        for (a, b), val in power(j, k).items():
            total[(a, b, 0, 0)] = total.get((a, b, 0, 0), 0) + coeff * val
    return total
