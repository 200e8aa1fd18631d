"""Reduction of generic quadratic Liouvillians to the damped normal form."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klform import (
    GENERATOR_ORDER,
    CriticalDampingError,
    GeneratorId,
    IllConditionedReduction,
    LiouvillianCoeffs,
    NonPositiveH0Error,
    OverdampedError,
    SignError,
    SingularGError,
    conjugate_coefficients,
    kl_coefficients,
    reduce_to_kl,
    rescale_b,
    step1_solve,
    step2_matrix,
    step2_solve,
    u_matrix,
)
from klform.reduction import REPLAY_TOL

METRIC = np.diag([1.0, -1.0, -1.0])


def metric_value(h):
    h = np.asarray(h, dtype=float)
    return float(h @ METRIC @ h)


def random_reducible(rng):
    """Coefficients built by scrambling a normal form, hence reducible."""
    omega0 = rng.uniform(0.5, 1.5)
    gamma = rng.uniform(0.05, 1.0)
    b = rng.uniform(0.6, 1.6)
    c = kl_coefficients(omega0, gamma, b)
    n_steps = rng.integers(3, 7)
    for _ in range(n_steps):
        gid = list(GENERATOR_ORDER)[rng.integers(7)]
        p = float(rng.uniform(-0.6, 0.6))
        c = conjugate_coefficients(gid, p, c)
    return c, omega0, gamma, b


def test_u_matrices_preserve_metric():
    rng = np.random.default_rng(314)
    for _ in range(200):
        mat = np.eye(3)
        for _ in range(rng.integers(1, 9)):
            which = ("U0", "U1", "U2")[rng.integers(3)]
            mat = u_matrix(which, float(rng.uniform(-1.5, 1.5))) @ mat
        defect = np.max(np.abs(mat.T @ METRIC @ mat - METRIC))
        assert defect <= 1e-12
        h = rng.uniform(-2.0, 2.0, size=3)
        before = metric_value(h)
        after = metric_value(mat @ h)
        assert abs(before - after) <= 1e-12 * max(1.0, abs(before))


def test_u_matrix_rejects_unknown_name():
    with pytest.raises(ValueError):
        u_matrix("U3", 0.1)


def test_step1_solve_normalizes_frequency_block():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        h1, h2 = rng.uniform(-1.0, 1.0, size=2)
        h0 = math.hypot(h1, h2) + rng.uniform(0.05, 2.0)
        h = (h0, h1, h2)
        theta, phi, omega0 = step1_solve(h)
        out = u_matrix("U1", phi) @ u_matrix("U0", theta) @ np.array(h)
        assert_allclose(out, [2.0 * omega0, 0.0, 0.0], atol=1e-12)
        assert omega0 == pytest.approx(0.5 * math.sqrt(metric_value(h)))


def test_step1_solve_trivial_and_errors():
    assert step1_solve((0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)
    with pytest.raises(OverdampedError):
        step1_solve((1.0, 2.0, 0.0))
    with pytest.raises(CriticalDampingError):
        step1_solve((1.0, 1.0, 0.0))
    with pytest.raises(NonPositiveH0Error):
        step1_solve((-1.0, 0.5, 0.0))


def test_step2_matrix_determinant_formula():
    rng = np.random.default_rng(55)
    for _ in range(100):
        h = tuple(rng.uniform(-2.0, 2.0, size=3))
        gamma = float(rng.uniform(0.0, 2.0))
        det = np.linalg.det(step2_matrix(h, gamma))
        formula = -gamma * (metric_value(h) + gamma * gamma)
        assert abs(det - formula) <= 1e-12 * max(1.0, abs(formula))


def test_step2_solve_forward_replay():
    """The linear shift system mirrors the actual conjugation flows."""
    rng = np.random.default_rng(77)
    for _ in range(50):
        omega0 = float(rng.uniform(0.3, 1.5))
        gamma = float(rng.uniform(0.05, 1.0))
        g_from = tuple(rng.uniform(-1.5, 1.5, size=3))
        g_target = tuple(rng.uniform(-1.5, 1.5, size=3))
        eta = step2_solve(omega0, gamma, g_from, g_target)
        h = (2.0 * omega0, 0.0, 0.0)
        resid = step2_matrix(h, gamma) @ eta - (
            np.asarray(g_target) - np.asarray(g_from)
        )
        assert np.max(np.abs(resid)) <= 1e-12
        c = LiouvillianCoeffs(h, gamma, g_from)
        for gid, p in zip(
            (GeneratorId.OPLUS, GeneratorId.L1PLUS, GeneratorId.L2PLUS), eta
        ):
            c = conjugate_coefficients(gid, float(p), c)
        assert_allclose(c.g, g_target, atol=1e-12)
        assert_allclose(c.h, h, atol=1e-12)


def test_step2_solve_singular_at_zero_gamma():
    with pytest.raises(SingularGError):
        step2_solve(1.0, 0.0, (0.1, 0.2, 0.3), (-0.6, 0.0, 0.0))


def test_rescale_b_fixture_and_sign_guard():
    assert rescale_b(-0.6, 0.3, 1.0) == pytest.approx(0.0)
    assert rescale_b(-0.3, 0.3, 1.0) == pytest.approx(math.log(2.0))
    with pytest.raises(SignError):
        rescale_b(0.2, 0.3, 1.0)


def test_reduce_round_trip_scrambled_normal_forms():
    rng = np.random.default_rng(1234)
    for _ in range(30):
        c, omega0, gamma, _ = random_reducible(rng)
        plan = reduce_to_kl(c, b_target=1.0)
        assert plan.replay_residual(c) <= 1e-10
        assert plan.omega0 == pytest.approx(omega0, abs=1e-9)
        assert plan.b == 1.0
        assert plan.target.max_abs_diff(kl_coefficients(omega0, gamma, 1.0)) <= 1e-9


def test_reduce_already_normal_form_gives_empty_plan():
    c = kl_coefficients(1.0, 0.3, 1.0)
    plan = reduce_to_kl(c, b_target=1.0)
    assert plan.steps == ()
    assert plan.replay_residual(c) == 0.0


def test_reduce_zero_frequency_block():
    # pure damping with no oscillation still reduces (shift system is -gamma*I)
    c = LiouvillianCoeffs((0.0, 0.0, 0.0), 0.4, (-0.3, 0.1, 0.2))
    plan = reduce_to_kl(c, b_target=1.0)
    assert plan.omega0 == 0.0
    assert plan.replay_residual(c) <= 1e-12


def test_reduce_errors():
    with pytest.raises(SingularGError):
        reduce_to_kl(LiouvillianCoeffs((2.0, 0.0, 0.0), 0.0, (-0.6, 0.0, 0.0)))
    with pytest.raises(OverdampedError):
        reduce_to_kl(LiouvillianCoeffs((1.0, 2.0, 0.0), 0.3, (-0.6, 0.0, 0.0)))
    with pytest.raises(ValueError):
        reduce_to_kl(kl_coefficients(1.0, 0.3, 1.0), b_target=0.4)


def test_plan_b_target_other_than_one():
    rng = np.random.default_rng(9)
    c, _, gamma, _ = random_reducible(rng)
    plan = reduce_to_kl(c, b_target=1.25)
    assert plan.replay_residual(c) <= 1e-10
    assert plan.target.g[0] == pytest.approx(-2.0 * gamma * 1.25)


def test_reduce_near_critical_h_raises_typed_error():
    """A nearly lightlike h makes the boost ill-conditioned; the replay
    check must fail with a typed error that carries the residual."""
    c = LiouvillianCoeffs((1.0, 0.999999999999, 0.0), 0.3, (-0.6, 0.0, 0.0))
    with pytest.raises(IllConditionedReduction) as info:
        reduce_to_kl(c, b_target=1.0)
    assert info.value.residual > REPLAY_TOL
    assert "replay residual" in str(info.value)


@pytest.mark.parametrize("h", [(1e155, 0.5, 0.0), (1e200, 0.5, 0.0), (1e307, 3e306, -1e306)])
def test_overflowing_metric_raises_typed_error(h):
    """h0^2 - h1^2 - h2^2 beyond the float range is reported, not carried
    into the boost as inf."""
    c = LiouvillianCoeffs(h, 0.3, (-0.6, 0.0, 0.0))
    with pytest.raises(IllConditionedReduction) as info:
        reduce_to_kl(c, b_target=1.0)
    assert info.value.residual == math.inf
    assert "overflows" in str(info.value)
