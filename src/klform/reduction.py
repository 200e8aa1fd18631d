"""Similarity reduction of a generic quadratic Liouvillian to normal form.

A coefficient vector (h; gamma; g) with h0 > sqrt(h1^2 + h2^2) is carried
by a sequence of one-parameter conjugations into the normal form

    h -> (2*omega0, 0, 0),   g -> (-2*gamma*b, 0, 0),

with omega0 = (1/2) sqrt(h0^2 - h1^2 - h2^2) and a chosen width b >= 1/2.
The frequency part is fixed first by a rotation and a boost (step 1); the
diffusion part is then moved onto the target by the three shift flows,
whose combined affine action on g is linear with an invertible matrix
whenever gamma > 0 (step 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    CriticalDampingError,
    IllConditionedReduction,
    NonPositiveH0Error,
    OverdampedError,
    SingularGError,
)
from .gauss import GaussianState, stationary_preset
from .operators import (
    GeneratorId,
    LinearPhaseOperator,
    LiouvillianCoeffs,
    conjugate_coefficients,
    conjugate_linear,
    kl_coefficients,
)

__all__ = [
    "ReductionPlan",
    "reduce_to_kl",
]

REPLAY_TOL = 1e-10

_SHIFTS = (GeneratorId.OPLUS, GeneratorId.L1PLUS, GeneratorId.L2PLUS)


def _step1_solve(h: tuple[float, float, float]) -> tuple[float, float, float]:
    """Rotation and boost parameters sending h to (2*omega0, 0, 0).

    Returns (theta, phi, omega0) in closed form, theta = -atan2(h1, h2) and
    phi = -artanh(rho/h0), rho = hypot(h1, h2): the rotation U0(theta)
    carries h to (h0, 0, rho) and the boost U1(phi) then carries that to
    (2*omega0, 0, 0).  No flow is applied here: reduce_to_kl applies the
    two to the source once, and that application is their check.

    h = (0, 0, 0) returns (0, 0, 0): nothing to rotate.  Raises
    OverdampedError / CriticalDampingError when h0^2 - h1^2 - h2^2 is
    negative / zero, NonPositiveH0Error when h0 <= 0 with h nonzero, and
    IllConditionedReduction (residual inf) when that metric overflows or
    rho/h0 rounds to 1.
    """
    h0, h1, h2 = (float(x) for x in h)
    if h0 == 0.0 and h1 == 0.0 and h2 == 0.0:
        return 0.0, 0.0, 0.0
    metric = h0 * h0 - h1 * h1 - h2 * h2
    if h0 <= 0.0:
        raise NonPositiveH0Error(f"h0 = {h0} must be positive")
    if not math.isfinite(metric):
        raise IllConditionedReduction(
            f"h0^2 - h1^2 - h2^2 overflows for h = {(h0, h1, h2)}", math.inf
        )
    if metric < 0.0:
        raise OverdampedError(
            f"h0^2 - h1^2 - h2^2 = {metric} < 0: no real reduced frequency"
        )
    if metric == 0.0:
        raise CriticalDampingError("h0^2 = h1^2 + h2^2: reduced frequency vanishes")
    omega0 = 0.5 * math.sqrt(metric)
    rho = math.hypot(h1, h2)
    if rho >= h0:  # the metric is positive, yet artanh(rho/h0) is undefined
        raise IllConditionedReduction(f"rho/h0 rounds to 1 for h = {(h0, h1, h2)}", math.inf)
    theta = -math.atan2(h1, h2)
    phi = -math.atanh(rho / h0)
    return theta, phi, omega0


def _step2_matrix(
    h: tuple[float, float, float], gamma: float
) -> tuple[tuple[float, float, float], ...]:
    """Matrix of the combined affine action of the shift flows on g, in closed form.

    Column j is the image of g = 0 under the j-th of OPLUS, L1PLUS,
    L2PLUS at parameter 1, so columns correspond to the parameters
    (eta0, eta1, eta2); the tests check it against conjugate_coefficients.
    det = -gamma*(h0^2 - h1^2 - h2^2 + gamma^2), so for a reducible h the
    system is singular exactly at gamma = 0.  Rows as tuples.
    """
    h0, h1, h2 = h
    return ((-gamma, h2, -h1), (h2, -gamma, -h0), (-h1, h0, -gamma))


def _fma(a: float, b: float, c: float) -> float:
    """a*b + c rounded once, a fused multiply-add (Python 3.11 has no math.fma).

    The sum is formed exactly from the operands' integer ratios, whose
    denominators are powers of two, and int / int rounds correctly
    (to the nearest float, ties to even, subnormals included).  An exact
    zero, or an infinite or NaN operand, takes the float expression,
    which then has the fused operation's value and sign.
    """
    try:
        (na, da), (nb, db), (nc, dc) = (x.as_integer_ratio() for x in (a, b, c))
    except (OverflowError, ValueError):  # inf or NaN
        return a * b + c
    num = na * nb * dc + nc * da * db
    if num == 0:  # a*b is then exact, so a*b + c has the signed zero of the fused sum
        return a * b + c
    try:
        return num / (da * db * dc)
    except OverflowError:  # beyond the largest float: rounds to infinity
        return math.inf if num > 0 else -math.inf


def _step2_solve(
    omega0: float,
    gamma: float,
    g_from: tuple[float, float, float],
    g_target: tuple[float, float, float],
) -> tuple[float, float, float]:
    """Shift parameters (eta0, eta1, eta2) moving g_from onto g_target.

    Assumes the frequency part is already in normal form h = (2*omega0,
    0, 0), where the shift matrix is [[-gamma, 0, 0], [0, -gamma, -h0],
    [0, h0, -gamma]].  The solve is LAPACK's Gaussian elimination
    (dgesv) written out for that matrix, so that the parameters keep the
    bits np.linalg.solve gives them: eta0 = r0 / (-gamma); in the lower
    block the row with the larger |pivot| leads (the first on a tie), the
    multiplier is c * (1/a), the Schur complement u = d - l*b is rounded
    twice, and the forward and back steps are fused multiply-adds (_fma).
    Raises SingularGError when gamma = 0 or the forward check misses, and
    IllConditionedReduction (residual inf) when the move or the parameters
    leave the float range.
    """
    if gamma == 0:
        raise SingularGError("gamma = 0: the shift system has determinant zero")
    h0 = 2.0 * float(omega0)
    rhs = tuple(float(t) - float(f) for t, f in zip(g_target, g_from))
    r0, r1, r2 = rhs
    if abs(h0) > abs(gamma):  # pivot on row 2: (h0, -gamma) leads (-gamma, -h0)
        pivot, upper, lead, rest = h0, -gamma, r2, r1
        mult = -gamma * (1.0 / h0)
        schur = -h0 - mult * -gamma
    else:
        pivot, upper, lead, rest = -gamma, -h0, r1, r2
        mult = h0 * (1.0 / -gamma)
        schur = -gamma - mult * -h0
    eta2 = _fma(-lead, mult, rest) / schur
    eta1 = _fma(-eta2, upper, lead) / pivot
    eta = (r0 / -gamma, eta1, eta2)
    mat = _step2_matrix((h0, 0.0, 0.0), gamma)
    misses = [abs(sum(m * x for m, x in zip(row, eta)) - r) for row, r in zip(mat, rhs)]
    if not all(map(math.isfinite, misses)):
        raise IllConditionedReduction(
            f"shift parameters {list(eta)} leave the float range", math.inf
        )
    resid = max(misses)
    if not resid <= 1e-10 * max(1.0, *map(abs, rhs)):
        raise SingularGError(f"shift solve failed the forward check (resid {resid})")
    return eta


@dataclass(frozen=True)
class ReductionPlan:
    """Ordered conjugation steps carrying a source Liouvillian to normal form.

    Replaying steps [(G1, p1), ..., (GN, pN)] through
    conjugate_coefficients (G1 first) reproduces `target`, which is
    kl_coefficients(omega0, gamma, b).  Steps with parameter exactly 0
    are omitted, so a source already in normal form yields an empty plan.

    The similarity S of the steps is the same for every label, so what
    depends on the plan alone is computed once per plan object:
    `inverse_steps` are the steps of S^-1, `raising_pair` carries the
    normal form's pair through them, and `_normal_state` is the normal
    form's stationary Gaussian.
    `checked_source` is the coefficient object reduce_to_kl replayed the
    plan against (None for a plan built by hand), and `_pair_certified`
    records that the raising pair passed its certificate [K, B1] =
    lambda_1 B1 against that source (spectrum.transformed_eigenfunction);
    neither takes part in equality, and dataclasses.replace drops both.
    """

    steps: tuple[tuple[GeneratorId, float], ...]
    omega0: float
    b: float
    target: LiouvillianCoeffs
    checked_source: LiouvillianCoeffs | None = field(
        default=None, init=False, compare=False, repr=False
    )
    _pair_certified: bool = field(default=False, init=False, compare=False, repr=False)

    @cached_property
    def inverse_steps(self) -> tuple[tuple[GeneratorId, float], ...]:
        """The steps of S^-1: reversed, with negated parameters."""
        return tuple((gid, -p) for gid, p in reversed(self.steps))

    @cached_property
    def raising_pair(self) -> tuple[LinearPhaseOperator, LinearPhaseOperator]:
        """The normal form's raising pair B1,2 = s_r (r +- dQ), s_r = sqrt(b/2),
        carried through the inverse steps by conjugate_linear.  An
        overflowing step leaves non-finite fields (see conjugate_linear)."""
        s_r = math.sqrt(self.b / 2.0)
        b1 = LinearPhaseOperator(r=s_r, dq=s_r)
        b2 = LinearPhaseOperator(r=s_r, dq=-s_r)
        for gid, p in self.inverse_steps:
            b1 = conjugate_linear(gid, p, b1)
            b2 = conjugate_linear(gid, p, b2)
        return b1, b2

    @cached_property
    def _normal_state(self) -> GaussianState:
        """The normal form's stationary Gaussian at width b,
        stationary_preset("kl", b=b)."""
        state, _ = stationary_preset("kl", b=self.b)
        return state

    def replay(self, c: LiouvillianCoeffs) -> LiouvillianCoeffs:
        for gid, param in self.steps:
            c = conjugate_coefficients(gid, param, c)
        return c

    def replay_residual(self, c: LiouvillianCoeffs) -> float:
        """Largest coefficient miss of the replay; inf when a step leaves the float range."""
        try:
            return self.replay(c).max_abs_diff(self.target)
        except ValueError:  # LiouvillianCoeffs rejects a non-finite coefficient
            return math.inf

    def check_replay(self, c: LiouvillianCoeffs) -> None:
        """Raise IllConditionedReduction carrying the replay residual of c
        unless it is at most REPLAY_TOL times the largest coefficient of c
        (at least 1); inf and NaN fail."""
        resid = self.replay_residual(c)
        if not resid <= REPLAY_TOL * max(1.0, *map(abs, (*c.h, c.gamma, *c.g))):
            raise IllConditionedReduction(
                f"plan does not reduce the given coefficients: replay residual {resid} "
                "exceeds tolerance",
                resid,
            )


def reduce_to_kl(c: LiouvillianCoeffs, b_target: float = 1.0) -> ReductionPlan:
    """Build the conjugation sequence reducing c to normal form at width b_target.

    Step order: IL0 rotation, IM1 boost (these fix h), then the three
    shifts OPLUS, L1PLUS, L2PLUS (these fix g; gamma is invariant
    throughout).  The rotation and the boost are applied to c once, and
    that is step 1's check: (h1, h2) must come out within 1e-9 max(1, |h|),
    or IllConditionedReduction carries the miss (at most 4.6e-16 on the
    100 criterion-02 sources).  The returned plan is verified by
    replaying it (ReductionPlan.check_replay), and records c as its
    checked_source; conjugate_coefficients is called only to apply a step.
    A flow, normal form or shift beyond the float range raises
    IllConditionedReduction with residual inf (one guard names h, g, gamma, b).
    """
    if not b_target >= 0.5:
        raise ValueError(f"b_target = {b_target} must be at least 1/2")
    theta, phi, omega0 = _step1_solve(c.h)
    work = c
    steps: list[tuple[GeneratorId, float]] = []
    try:
        for gid, param in ((GeneratorId.IL0, theta), (GeneratorId.IM1, phi)):
            if param != 0.0:  # a flow at +-0.0 leaves |h1| and |h2| as they are
                work = conjugate_coefficients(gid, param, work)
                steps.append((gid, param))
        miss = abs(work.h[1]) + abs(work.h[2])
        if miss > 1e-9 * max(1.0, *map(abs, c.h)):
            raise IllConditionedReduction(f"rotation and boost miss (h1, h2) by {miss}", miss)
        target = kl_coefficients(omega0, c.gamma, b_target)
    except ValueError:  # LiouvillianCoeffs rejects a non-finite coefficient
        raise IllConditionedReduction(
            f"rotation, boost or normal form leaves the float range for h = {c.h}, "
            f"g = {c.g}, gamma = {c.gamma}, b = {b_target}",
            math.inf,
        ) from None
    eta = _step2_solve(omega0, c.gamma, work.g, target.g)
    steps += [(gid, param) for gid, param in zip(_SHIFTS, eta) if param != 0.0]
    plan = ReductionPlan(tuple(steps), omega0, float(b_target), target)
    plan.check_replay(c)
    object.__setattr__(plan, "checked_source", c)
    return plan
