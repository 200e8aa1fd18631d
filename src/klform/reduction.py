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

import numpy as np

from .errors import (
    CriticalDampingError,
    IllConditionedReduction,
    NonPositiveH0Error,
    OverdampedError,
    SignError,
    SingularGError,
)
from .operators import GeneratorId, LiouvillianCoeffs, conjugate_coefficients, kl_coefficients

__all__ = [
    "u_matrix",
    "step1_solve",
    "step2_matrix",
    "step2_solve",
    "rescale_b",
    "ReductionPlan",
    "reduce_to_kl",
]

REPLAY_TOL = 1e-10


def u_matrix(which: str, param: float) -> np.ndarray:
    """3x3 matrix acting on (h0, h1, h2) for the rotation/boost flows.

    which = "U0" rotates (h1, h2); "U1" boosts (h0, h2); "U2" boosts
    (h0, h1).  U0 preserves the Euclidean metric on (h1, h2) and the
    boosts preserve the indefinite form h0^2 - h1^2 - h2^2.
    """
    p = float(param)
    if which == "U0":
        c, s = math.cos(p), math.sin(p)
        return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    if which == "U1":
        ch, sh = math.cosh(p), math.sinh(p)
        return np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])
    if which == "U2":
        ch, sh = math.cosh(p), math.sinh(p)
        return np.array([[ch, -sh, 0.0], [-sh, ch, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError(f"unknown U matrix {which!r}")


def step1_solve(h: tuple[float, float, float]) -> tuple[float, float, float]:
    """Rotation and boost parameters sending h to (2*omega0, 0, 0).

    Returns (theta, phi, omega0) such that U1(phi) @ U0(theta) @ h equals
    (2*omega0, 0, 0).  The candidate magnitudes are theta = atan2(h1, h2)
    and phi = artanh(sqrt(h1^2 + h2^2)/h0); the working sign combination
    is selected by forward substitution rather than fixed a priori.

    h = (0, 0, 0) returns (0, 0, 0): nothing to rotate.  Raises
    OverdampedError / CriticalDampingError when h0^2 - h1^2 - h2^2 is
    negative / zero, NonPositiveH0Error when h0 <= 0 with h nonzero, and
    IllConditionedReduction when that metric overflows (residual inf) or
    when no sign combination annihilates (h1, h2) to within roundoff.
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
    theta_c = math.atan2(h1, h2)
    phi_c = math.atanh(rho / h0)
    hvec = np.array([h0, h1, h2])
    scale = max(1.0, float(np.max(np.abs(hvec))))
    best = None
    for theta in (-theta_c, theta_c):
        for phi in (-phi_c, phi_c):
            out = u_matrix("U1", phi) @ u_matrix("U0", theta) @ hvec
            miss = abs(out[1]) + abs(out[2])
            if out[0] > 0 and (best is None or miss < best[0]):
                best = (miss, theta, phi)
    if best is None or best[0] > 1e-9 * scale:
        miss = math.inf if best is None else best[0]
        raise IllConditionedReduction(
            f"no sign combination annihilates (h1, h2) (miss {miss})", miss
        )
    return best[1], best[2], omega0


def step2_matrix(h: tuple[float, float, float], gamma: float) -> np.ndarray:
    """Matrix of the combined affine action of the shift flows on g.

    Columns correspond to the parameters (eta0, eta1, eta2) of OPLUS,
    L1PLUS, L2PLUS.  det = -gamma*(h0^2 - h1^2 - h2^2 + gamma^2), so for
    a reducible h the system is singular exactly at gamma = 0.
    """
    h0, h1, h2 = (float(x) for x in h)
    return np.array(
        [
            [-gamma, h2, -h1],
            [h2, -gamma, -h0],
            [-h1, h0, -gamma],
        ]
    )


def step2_solve(
    omega0: float,
    gamma: float,
    g_from: tuple[float, float, float],
    g_target: tuple[float, float, float],
) -> np.ndarray:
    """Shift parameters (eta0, eta1, eta2) moving g_from onto g_target.

    Assumes the frequency part is already in normal form h = (2*omega0,
    0, 0).  Raises SingularGError when gamma = 0.
    """
    if gamma == 0:
        raise SingularGError("gamma = 0: the shift system has determinant zero")
    h = (2.0 * float(omega0), 0.0, 0.0)
    mat = step2_matrix(h, gamma)
    rhs = np.asarray(g_target, dtype=float) - np.asarray(g_from, dtype=float)
    eta = np.linalg.solve(mat, rhs)
    resid = float(np.max(np.abs(mat @ eta - rhs)))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
        raise SingularGError(f"shift solve failed the forward check (resid {resid})")
    return eta


def rescale_b(gplus: float, gamma: float, b_target: float) -> float:
    """Parameter alpha of the O0MI flow sending gplus to -2*gamma*b_target.

    The flow multiplies g by exp(alpha), which preserves signs: gplus
    must already be negative (SignError otherwise).
    """
    if gamma <= 0:
        raise SingularGError("gamma must be positive to set the width")
    if b_target <= 0:
        raise ValueError("b_target must be positive")
    if gplus >= 0:
        raise SignError(f"gplus = {gplus} must be negative for a positive width")
    return math.log(2.0 * gamma * b_target / (-gplus))


@dataclass(frozen=True)
class ReductionPlan:
    """Ordered conjugation steps carrying a source Liouvillian to normal form.

    Replaying steps [(G1, p1), ..., (GN, pN)] through
    conjugate_coefficients (G1 first) reproduces `target`, which is
    kl_coefficients(omega0, gamma, b).  Steps with parameter exactly 0
    are omitted, so a source already in normal form yields an empty plan.
    """

    steps: tuple[tuple[GeneratorId, float], ...]
    omega0: float
    b: float
    target: LiouvillianCoeffs
    source: LiouvillianCoeffs = field(repr=False, default=None)

    def replay(self, c: LiouvillianCoeffs) -> LiouvillianCoeffs:
        for gid, param in self.steps:
            c = conjugate_coefficients(gid, param, c)
        return c

    def replay_residual(self, c: LiouvillianCoeffs) -> float:
        return self.replay(c).max_abs_diff(self.target)


def reduce_to_kl(c: LiouvillianCoeffs, b_target: float = 1.0) -> ReductionPlan:
    """Build the conjugation sequence reducing c to normal form at width b_target.

    Step order: IL0 rotation, IM1 boost (these fix h), then the three
    shifts OPLUS, L1PLUS, L2PLUS (these fix g; gamma is invariant
    throughout).  The returned plan is verified by replaying it; a replay
    residual above REPLAY_TOL (relative to the largest coefficient) raises
    IllConditionedReduction carrying the residual.
    """
    if b_target < 0.5:
        raise ValueError(f"b_target = {b_target} must be at least 1/2")
    theta, phi, omega0 = step1_solve(c.h)
    work = c
    steps: list[tuple[GeneratorId, float]] = []
    for gid, param in ((GeneratorId.IL0, theta), (GeneratorId.IM1, phi)):
        if param != 0.0:
            work = conjugate_coefficients(gid, param, work)
            steps.append((gid, param))
    g_target = (-2.0 * c.gamma * b_target, 0.0, 0.0)
    eta = step2_solve(omega0, c.gamma, work.g, g_target)
    for gid, param in zip(
        (GeneratorId.OPLUS, GeneratorId.L1PLUS, GeneratorId.L2PLUS), eta
    ):
        if param != 0.0:
            steps.append((gid, float(param)))
    target = kl_coefficients(omega0, c.gamma, b_target)
    plan = ReductionPlan(tuple(steps), omega0, float(b_target), target, c)
    resid = plan.replay_residual(c)
    if resid > REPLAY_TOL * max(1.0, float(np.max(np.abs(c.as_vector())))):
        raise IllConditionedReduction(f"replay residual {resid} exceeds tolerance", resid)
    return plan
