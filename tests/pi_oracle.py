"""The monomial route to a mode: Pi's terms times powers of a multiplication pair.

Before the modes were words in the raising pair, each one was built this
way: pi_polynomial(label) is a polynomial in Qs = Q/s_q and rs = s_r r of
the kl frame; Qs and rs, transported backwards through the plan, are two
degree-one operators op_q and op_r, and each monomial Qs^j rs^k becomes
op_q^j op_r^k applied to the Gaussian.  The product rule is the closure
form the package used.  The route shares nothing with the words but
pi_polynomial and conjugate_linear, and its Hermite expansion cancels
badly from m near 16 on, so the tests compare it with the words at small m.
"""

from klform import LinearPhaseOperator, conjugate_linear, pi_polynomial, stationary_preset


def apply_linear(op, poly, s):
    """Coefficients of (op P f)/f for P = poly, keyed (j, k), and f Gaussian s,
    each product-rule term added through a closure that skips zeros."""
    out = {}

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


def pi_route_terms(plan, mode):
    """Terms (a, b, 0, 0) of the multiplier P of mode = P * Gaussian by the
    monomial route: op_r is applied k times to 1, then op_q j times."""
    op_q, op_r = multiplication_pair(plan)
    powers = {(0, 0): {(0, 0): 1.0 + 0j}}

    def power(j, k):
        if (j, k) not in powers:
            op, below = (op_q, (j - 1, k)) if j > 0 else (op_r, (0, k - 1))
            powers[(j, k)] = apply_linear(op, power(*below), mode.gaussian)
        return powers[(j, k)]

    total = {}
    for (j, k, _, _), coeff in pi_polynomial(mode.label).terms.items():
        for (a, b), val in power(j, k).items():
            total[(a, b, 0, 0)] = total.get((a, b, 0, 0), 0) + coeff * val
    return total
