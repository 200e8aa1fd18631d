"""Reduction of generic quadratic Liouvillians to the damped normal form."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klform import (
    GENERATOR_ORDER,
    CriticalDampingError,
    DegenerateDenominator,
    EigenLabel,
    GeneratorId,
    IllConditionedReduction,
    KLFormError,
    LiouvillianCoeffs,
    NonPositiveH0Error,
    OverdampedError,
    ReductionPlan,
    SingularGError,
    conjugate_coefficients,
    distinct_labels,
    kl_coefficients,
    reduce_to_kl,
    step1_solve,
    step2_matrix,
    step2_solve,
    transformed_eigenfunction,
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


def test_u_matrix_equals_literal_closed_form():
    """u_matrix is built from conjugate_coefficients; it must reproduce the
    rotation and boost matrices entry for entry."""
    for p in (-1.3, -0.2, 0.0, 0.7, 2.5):
        c, s = math.cos(p), math.sin(p)
        ch, sh = math.cosh(p), math.sinh(p)
        literal = {
            "U0": [[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]],
            "U1": [[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]],
            "U2": [[ch, -sh, 0.0], [-sh, ch, 0.0], [0.0, 0.0, 1.0]],
        }
        for which, mat in literal.items():
            assert np.array_equal(u_matrix(which, p), np.array(mat))


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


def test_step2_matrix_equals_literal_closed_form():
    rng = np.random.default_rng(56)
    for _ in range(50):
        h0, h1, h2 = rng.uniform(-2.0, 2.0, size=3)
        gamma = float(rng.uniform(0.0, 2.0))
        literal = [[-gamma, h2, -h1], [h2, -gamma, -h0], [-h1, h0, -gamma]]
        assert np.array_equal(step2_matrix((h0, h1, h2), gamma), np.array(literal))


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


def test_reduce_round_trip_scrambled_normal_forms():
    rng = np.random.default_rng(1234)
    for _ in range(30):
        c, omega0, gamma, _ = random_reducible(rng)
        plan = reduce_to_kl(c, b_target=1.0)
        assert plan.replay_residual(c) <= 1e-10
        assert plan.omega0 == pytest.approx(omega0, abs=1e-9)
        assert plan.b == 1.0
        assert plan.target.max_abs_diff(kl_coefficients(omega0, gamma, 1.0)) <= 1e-9


def test_reduce_records_the_source_it_checked_outside_equality():
    rng = np.random.default_rng(77)
    c, *_ = random_reducible(rng)
    plan = reduce_to_kl(c, b_target=1.0)
    assert plan.checked_source is c
    by_hand = ReductionPlan(plan.steps, plan.omega0, plan.b, plan.target)
    assert by_hand.checked_source is None
    assert by_hand == plan and hash(by_hand) == hash(plan)
    assert repr(by_hand) == repr(plan) and "checked_source" not in repr(plan)


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


@pytest.mark.parametrize(
    "h, gamma, g",
    [
        ((1.0, 0.999999999999, 0.0), 0.3, (-0.6, 0.0, 0.0)),
        ((2.0, 0.3, 0.0), 1e-300, (-0.6, 0.1, 0.0)),
    ],
    ids=["near-lightlike-h", "tiny-gamma"],
)
def test_reduce_near_critical_h_raises_typed_error(h, gamma, g):
    """A nearly lightlike h makes the boost ill-conditioned, a tiny gamma
    the shift solve; the replay check must fail with a typed error that
    carries the residual."""
    c = LiouvillianCoeffs(h, gamma, g)
    with pytest.raises(IllConditionedReduction) as info:
        reduce_to_kl(c, b_target=1.0)
    assert info.value.residual > REPLAY_TOL
    assert "replay residual" in str(info.value)


def test_step1_rho_rounding_to_h0_raises_typed_error():
    """h0^2 - h1^2 - h2^2 is positive (2.8e-17) but rho/h0 rounds to 1,
    so artanh(rho/h0) is undefined."""
    with pytest.raises(IllConditionedReduction) as info:
        step1_solve((1.0, 0.9434413524127122, 0.3315394615391546))
    assert info.value.residual == math.inf


# sources whose plan or transport leaves double precision: (h, gamma, g, b_target)
TRANSPORT_REPRODUCERS = {
    "replay-overflow": (
        (1.360036708715085e144, 3.4837177984489023e143, 1.3146622958229615e144),
        2.209288427382011e-217,
        (-1.3573919648994925, 1.8797016528645303, 0.06427434219151484),
        0.7896640311769259,
    ),
    "gaussian-overflow": (
        (0.33515482634104415, -0.033824882989909676, -0.1180102987830284),
        1.4153006582829272e-259,
        (-0.1462732548874063, -0.18087973136909527, -0.03674907623760859),
        1.0,
    ),
    "non-commuting-pair": (
        (1.7107911937902252e64, -1.1621737986635487e64, 1.255451540421193e64),
        2.3938915882896794e-97,
        (-1.1843704796086492, -0.5865968874137653, 0.17325364514941777),
        1.5691276280361226,
    ),
}


@pytest.mark.parametrize(
    "name, error",
    [
        ("replay-overflow", IllConditionedReduction),
        ("gaussian-overflow", DegenerateDenominator),
        ("non-commuting-pair", IllConditionedReduction),
    ],
)
def test_transport_reproducers_raise_typed_errors(name, error):
    h, gamma, g, b_target = TRANSPORT_REPRODUCERS[name]
    c = LiouvillianCoeffs(h, gamma, g)
    with pytest.raises(error) as info:
        plan = reduce_to_kl(c, b_target=b_target)
        transformed_eigenfunction(plan, EigenLabel(0, 0, 1), c)
    if name == "replay-overflow":
        assert info.value.residual == math.inf
    if name == "gaussian-overflow":
        assert str(info.value).startswith("step 2 (OPLUS")
    if name == "non-commuting-pair":
        assert info.value.residual > 1e-12


def test_transport_reproducer_raises_on_every_call():
    """The h ~ 1e64 source fails the certificate for each label and each
    call, though its plan transports the pair only once."""
    h, gamma, g, b_target = TRANSPORT_REPRODUCERS["non-commuting-pair"]
    c = LiouvillianCoeffs(h, gamma, g)
    plan = reduce_to_kl(c, b_target=b_target)
    for _ in range(2):
        for lab in distinct_labels(2):
            with pytest.raises(IllConditionedReduction, match="misses") as info:
                transformed_eigenfunction(plan, lab, c)
            assert info.value.residual > 1e-12


def test_reduce_and_transport_raise_only_klform_errors():
    """Sources at the edges of the domain (h0 up to 1e150, rho/h0 up to
    1 - 1e-17, gamma down to 1e-300) reduce and transport to the stationary
    mode, or raise a KLFormError; never another exception."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def power(lo, hi):
        return st.floats(lo, hi).map(lambda e: 10.0**e)

    ratio = st.floats(0.0, 1.0) | power(-17, 0).map(lambda x: 1.0 - x)

    def build(h0, x, angle, gamma, g):
        h = (h0, x * h0 * math.sin(angle), x * h0 * math.cos(angle))
        return LiouvillianCoeffs(h, gamma, g)

    sources = st.builds(
        build,
        power(-3, 150),
        ratio,
        st.floats(-math.pi, math.pi),
        power(-300, 1),
        st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    )

    @hyp.settings(max_examples=300)
    @hyp.given(sources, st.floats(0.5, 3.0))
    def check(c, b_target):
        try:
            plan = reduce_to_kl(c, b_target=b_target)
            transformed_eigenfunction(plan, EigenLabel(0, 0, 1), c)
        except KLFormError:
            pass

    check()


@pytest.mark.parametrize("h", [(1e155, 0.5, 0.0), (1e200, 0.5, 0.0), (1e307, 3e306, -1e306)])
def test_overflowing_metric_raises_typed_error(h):
    """h0^2 - h1^2 - h2^2 beyond the float range is reported, not carried
    into the boost as inf."""
    c = LiouvillianCoeffs(h, 0.3, (-0.6, 0.0, 0.0))
    with pytest.raises(IllConditionedReduction) as info:
        reduce_to_kl(c, b_target=1.0)
    assert info.value.residual == math.inf
    assert "overflows" in str(info.value)
