"""Reduction of generic quadratic Liouvillians to the damped normal form."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klform import (
    GENERATOR_ORDER,
    CriticalDampingError,
    DegenerateDenominator,
    EigenLabel,
    GaussianState,
    GeneratorId,
    IllConditionedReduction,
    KLFormError,
    LiouvillianCoeffs,
    NonPositiveH0Error,
    OverdampedError,
    PositivityViolation,
    ReductionPlan,
    SingularGError,
    conjugate_coefficients,
    distinct_labels,
    kl_coefficients,
    reduce_to_kl,
    transform_gaussian,
    transformed_eigenfunction,
)
from klform.reduction import REPLAY_TOL, _fma, _step1_solve, _step2_matrix, _step2_solve

from test_acceptance import random_scrambled_source, u_matrix

METRIC = np.diag([1.0, -1.0, -1.0])
SHIFTS = (GeneratorId.OPLUS, GeneratorId.L1PLUS, GeneratorId.L2PLUS)


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
        theta, phi, omega0 = _step1_solve(h)
        out = u_matrix("U1", phi) @ u_matrix("U0", theta) @ np.array(h)
        assert_allclose(out, [2.0 * omega0, 0.0, 0.0], atol=1e-12)
        assert omega0 == pytest.approx(0.5 * math.sqrt(metric_value(h)))


def test_step1_solve_trivial_and_errors():
    assert _step1_solve((0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)
    with pytest.raises(OverdampedError):
        _step1_solve((1.0, 2.0, 0.0))
    with pytest.raises(CriticalDampingError):
        _step1_solve((1.0, 1.0, 0.0))
    with pytest.raises(NonPositiveH0Error):
        _step1_solve((-1.0, 0.5, 0.0))


def test_step1_forward_check_misses_by_roundoff_by_either_route():
    """On the 100 criterion-02 sources the check's flows, applied to h,
    miss (h1, h2) by at most 4.6e-16, as the product of the two u_matrix
    matrices with h does."""
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        src = random_scrambled_source(rng)
        theta, phi, _ = _step1_solve(src.h)
        flowed = LiouvillianCoeffs(src.h, 0.0, (0.0, 0.0, 0.0))
        for gid, param in ((GeneratorId.IL0, theta), (GeneratorId.IM1, phi)):
            flowed = conjugate_coefficients(gid, param, flowed)
        product = u_matrix("U1", phi) @ u_matrix("U0", theta) @ np.array(src.h)
        for out in (flowed.h, product):
            assert abs(out[1]) + abs(out[2]) <= 4.6e-16


def test_step1_flow_beyond_the_float_range_raises_typed_error(monkeypatch):
    """No finite metric gets there (cosh(phi) stays below about 7e7), so a
    boost of 800 is forced: cosh(800) overflows where reduce_to_kl applies
    the boost, which is also step 1's forward check."""
    monkeypatch.setattr(math, "atanh", lambda x: -800.0)
    with pytest.raises(IllConditionedReduction, match="float range") as info:
        reduce_to_kl(LiouvillianCoeffs((2.0, 0.5, 0.5), 0.3, (-0.6, 0.0, 0.0)))
    assert info.value.residual == math.inf


def test_a_boost_that_carries_g_beyond_the_float_range_raises_typed_error():
    """h alone boosts to a finite normal form, but cosh(phi) = 1.03 carries
    g0 = 1.78e308 past the largest float."""
    c = LiouvillianCoeffs((2.2, 0.4, -0.3), 0.5, (1.78e308, 0.0, 0.0))
    with pytest.raises(IllConditionedReduction, match="float range") as info:
        reduce_to_kl(c)
    assert info.value.residual == math.inf
    assert "1.78e+308" in str(info.value)  # the message names g, not only h


def test_step2_matrix_determinant_formula():
    rng = np.random.default_rng(55)
    for _ in range(100):
        h = tuple(rng.uniform(-2.0, 2.0, size=3))
        gamma = float(rng.uniform(0.0, 2.0))
        det = np.linalg.det(_step2_matrix(h, gamma))
        formula = -gamma * (metric_value(h) + gamma * gamma)
        assert abs(det - formula) <= 1e-12 * max(1.0, abs(formula))


def test_step2_matrix_equals_literal_closed_form():
    """_step2_matrix, the literal closed form, equals the shift flows'
    action on g: column j is the image of g = 0 under the j-th of OPLUS,
    L1PLUS, L2PLUS at parameter 1 (conjugate_coefficients).  Checked on 50
    random h and at the normal-form h = (2 omega0, 0, 0) of the 100
    criterion-02 sources, by value: signed zeros may differ (the literal
    has -0.0 where it negates h1 = 0.0)."""
    cases = []
    rng = np.random.default_rng(56)
    for _ in range(50):
        h0, h1, h2 = rng.uniform(-2.0, 2.0, size=3)
        cases.append(((h0, h1, h2), float(rng.uniform(0.0, 2.0))))
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        src = random_scrambled_source(rng)
        cases.append(((2.0 * _step1_solve(src.h)[2], 0.0, 0.0), src.gamma))
    for h, gamma in cases:
        zero_g = LiouvillianCoeffs(h, gamma, (0.0, 0.0, 0.0))
        flows = [conjugate_coefficients(gid, 1.0, zero_g).g for gid in SHIFTS]
        assert np.array_equal(_step2_matrix(h, gamma), np.array(flows).T)


def test_reduce_calls_the_flows_only_to_apply_a_step(monkeypatch):
    """On the 100 criterion-02 sources, reduce_to_kl applies the rotation
    and the boost once each (step 1's check) and replays the plan once;
    step 2's matrix is a closed form and calls no flow."""
    rng = np.random.default_rng(20260816)
    sources = [random_scrambled_source(rng) for _ in range(100)]
    calls = []
    monkeypatch.setattr(
        "klform.reduction.conjugate_coefficients",
        lambda *args: calls.append(args) or conjugate_coefficients(*args),
    )
    for src in sources:
        calls.clear()
        plan = reduce_to_kl(src)
        step1 = sum(gid in (GeneratorId.IL0, GeneratorId.IM1) for gid, _ in plan.steps)
        assert len(calls) == step1 + len(plan.steps)


def test_step2_solve_forward_replay():
    """The linear shift system mirrors the actual conjugation flows."""
    rng = np.random.default_rng(77)
    for _ in range(50):
        omega0 = float(rng.uniform(0.3, 1.5))
        gamma = float(rng.uniform(0.05, 1.0))
        g_from = tuple(rng.uniform(-1.5, 1.5, size=3))
        g_target = tuple(rng.uniform(-1.5, 1.5, size=3))
        eta = _step2_solve(omega0, gamma, g_from, g_target)
        h = (2.0 * omega0, 0.0, 0.0)
        resid = np.array(_step2_matrix(h, gamma)) @ eta - (
            np.asarray(g_target) - np.asarray(g_from)
        )
        assert np.max(np.abs(resid)) <= 1e-12
        c = LiouvillianCoeffs(h, gamma, g_from)
        for gid, p in zip(SHIFTS, eta):
            c = conjugate_coefficients(gid, float(p), c)
        assert_allclose(c.g, g_target, atol=1e-12)
        assert_allclose(c.h, h, atol=1e-12)


def test_step2_solve_singular_at_zero_gamma():
    with pytest.raises(SingularGError):
        _step2_solve(1.0, 0.0, (0.1, 0.2, 0.3), (-0.6, 0.0, 0.0))


def lapack_step2(omega0, gamma, g_from, g_target):
    """Step 2 as LAPACK solves it: np.linalg.solve on the shift matrix and
    the same forward check.  Returns the parameters, or the KLFormError
    class the check raises."""
    mat = np.array(_step2_matrix((2.0 * omega0, 0.0, 0.0), gamma))
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.asarray(g_target, dtype=float) - np.asarray(g_from, dtype=float)
        eta = np.linalg.solve(mat, rhs)
        resid = float(np.max(np.abs(mat @ eta - rhs)))
    if not math.isfinite(resid):
        return IllConditionedReduction
    if not resid <= 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
        return SingularGError
    return eta


def assert_step2_is_lapacks(omega0, gamma, g_from, g_target):
    """_step2_solve gives LAPACK's parameters bit for bit, or raises the
    error LAPACK's parameters fail the check with."""
    want = lapack_step2(omega0, gamma, g_from, g_target)
    if isinstance(want, type):
        with pytest.raises(want):
            _step2_solve(omega0, gamma, g_from, g_target)
        return 0
    got = _step2_solve(omega0, gamma, g_from, g_target)
    assert type(got) is tuple and all(type(x) is float for x in got)
    assert np.array(got).tobytes() == want.tobytes(), (omega0, gamma, g_from, g_target)
    return 1


def test_step2_solve_is_lapacks_on_the_criterion_02_recipe(monkeypatch):
    """The closed-form elimination gives np.linalg.solve's bits on the
    9,300 shift parameters that reduce_to_kl solves for the 100 criterion-02
    sources and 3,000 draws of the same recipe at seed 630948696."""
    calls = []
    monkeypatch.setattr(
        "klform.reduction._step2_solve", lambda *args: calls.append(args) or _step2_solve(*args)
    )
    for seed, count in ((20260816, 100), (630948696, 3000)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            reduce_to_kl(random_scrambled_source(rng))
    assert len(calls) == 3100
    assert sum(assert_step2_is_lapacks(*args) for args in calls) == 3100


def test_step2_solve_is_lapacks_at_the_edges():
    """LAPACK's bits, or its typed error, where the elimination's choices
    show: the pivot tie |h0| = |gamma| and its two neighbours, gamma down
    to 1e-300, and magnitudes from 2^996 on, where a product split in
    halves (Dekker) would overflow."""
    rng = np.random.default_rng(39)
    solved = 0
    for _ in range(200):
        gamma = float(rng.uniform(0.05, 3.0))
        g_from, g_target = tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-2, 2, 3))
        for omega0 in (np.nextafter(gamma / 2, 0.0), gamma / 2, np.nextafter(gamma / 2, 4.0)):
            solved += assert_step2_is_lapacks(float(omega0), gamma, g_from, g_target)
    for exponent in range(0, 301, 4):
        gamma = float(rng.uniform(1.0, 10.0)) * 10.0**-exponent
        g_from, g_target = tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-2, 2, 3))
        solved += assert_step2_is_lapacks(float(rng.uniform(0.3, 2.0)), gamma, g_from, g_target)
    failed = 0
    for exponent in range(996, 1024):
        for _ in range(20):
            scale = 2.0**exponent
            omega0 = float(rng.uniform(0.3, 2.0)) * 10.0 ** float(rng.integers(-150, 300))
            gamma = float(rng.uniform(0.1, 2.0)) * 10.0 ** float(rng.integers(-300, 300))
            g_from = tuple(float(x) * scale for x in rng.uniform(-0.9, 0.9, 3))
            g_target = tuple(float(x) * scale for x in rng.uniform(-0.9, 0.9, 3))
            ok = assert_step2_is_lapacks(omega0, gamma, g_from, g_target)
            solved, failed = solved + ok, failed + 1 - ok
    assert solved > 900 and failed > 200  # both outcomes are checked (956 and 280)


def exact_fma(a, b, c):
    """a*b + c rounded once, by Fraction; an exact zero takes the sign the
    IEEE sum of the rounded product and c would have."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        return a * b + c
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def test_fma_rounds_once():
    """_fma against exact rationals: where the rounded product loses the
    answer (1 + u)(1 - u) - 1 = -u^2, in the subnormal range, past the float
    range in the product but not in the sum, and on overflow; NaN and
    infinities follow the float expression."""
    u = 2.0**-52
    fmax = 1.7976931348623157e308
    cases = [
        (1.0 + u, 1.0 - u, -1.0),
        (0.1, 10.0, -1.0),
        (3e-160, 3e-160, 1e-320),
        (1e-200, -1e-200, 0.0),
        (2.0, fmax, -fmax),
        (fmax, fmax, 1.0),
        (-fmax, fmax, 1.0),
        (0.0, -1.0, 0.0),
        (-0.0, 1.0, -0.0),
        (1.0, -1.0, 1.0),
    ]
    rng = np.random.default_rng(52)
    for _ in range(2000):
        a, b, c = (float(x) * 10.0 ** float(rng.integers(-320, 300)) for x in rng.normal(size=3))
        cases.append((a, b, c))
        cases.append((a, b, -float(Fraction(a) * Fraction(b)) if abs(a * b) < fmax else c))
    for a, b, c in cases:
        want = exact_fma(a, b, c)
        got = _fma(a, b, c)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (a, b, c)
    assert _fma(1.0 + u, 1.0 - u, -1.0) == -(u * u) != (1.0 + u) * (1.0 - u) - 1.0
    assert math.isnan(_fma(math.inf, 0.0, 1.0))
    assert _fma(2.0, 3.0, -math.inf) == -math.inf


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


def test_plan_fields():
    """The plan's data: what the transport keeps per plan object are
    cached properties, not fields."""
    names = [f.name for f in dataclasses.fields(ReductionPlan)]
    assert names == ["steps", "omega0", "b", "target", "checked_source"]


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
        _step1_solve((1.0, 0.9434413524127122, 0.3315394615391546))
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


def edge_domain(st):
    """Hypothesis strategies (sources, widths) at the edges of the domain:
    h0 up to 1e150, rho/h0 up to 1 - 1e-17, gamma down to 1e-300, |g| up
    to the largest float, and widths b up to 1e308."""

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
        st.tuples(*[st.floats(-2.0, 2.0) | st.floats(allow_nan=False, allow_infinity=False)] * 3),
    )
    return sources, st.floats(0.5, 3.0) | power(0, 308)


def test_reduce_and_transport_raise_only_klform_errors():
    """Sources at the edges of the domain (edge_domain) reduce and
    transport to the stationary mode, or raise a KLFormError; never
    another exception."""
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=300)
    @hyp.given(*edge_domain(hyp.strategies))
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


@pytest.mark.parametrize(
    "c, match",
    [
        (LiouvillianCoeffs((2.2, 0.4, -0.3), 1.0, (-1.1, 0.2, 0.3)), "normal form"),
        (kl_coefficients(1.0, 0.3, 1.0), "shift parameters"),
    ],
    ids=["target-g0", "shift-eta0"],
)
def test_a_width_beyond_the_float_range_raises_typed_error(c, match):
    """At b = 1e308 the normal form's g0 = -2 gamma b overflows for gamma = 1;
    for gamma = 0.3 it fits, but the shift eta0 = inf does not, and its
    forward check is NaN.  Both raise IllConditionedReduction with residual
    inf, without a RuntimeWarning."""
    with pytest.raises(IllConditionedReduction, match=match) as info:
        reduce_to_kl(c, b_target=1e308)
    assert info.value.residual == math.inf


def test_step2_check_fails_on_a_non_finite_miss():
    with pytest.raises(IllConditionedReduction, match="float range") as info:
        _step2_solve(1.0, 0.3, (0.0, 0.0, 0.0), (-6e307, 0.0, 0.0))
    assert info.value.residual == math.inf


@pytest.mark.parametrize("param", [800.0, -800.0, 1500.0, -1500.0, 1e308])
@pytest.mark.parametrize(
    "gid", [GeneratorId.IM1, GeneratorId.IM2, GeneratorId.O0MI], ids=lambda g: g.name
)
def test_flows_beyond_the_float_range_raise_typed_errors(gid, param):
    """Where cosh, sinh, exp or a square overflows, the Gaussian map raises
    DegenerateDenominator (IM2 at p > 0 instead underflows mu to 0:
    PositivityViolation), the coefficient flow the ValueError of a
    non-finite coefficient, and a plan holding the step replays to inf.
    O0MI at p < 0 scales g by exp(p) = 0.0 and stays finite."""
    error = PositivityViolation if gid is GeneratorId.IM2 and param > 0 else DegenerateDenominator
    with pytest.raises(error):
        transform_gaussian(gid, param, GaussianState(0.25, 0.0, 0.75))
    src = kl_coefficients(1.0, 0.3, 1.0)
    plan = ReductionPlan(((gid, param),), 1.0, 1.0, src)
    if gid is GeneratorId.O0MI and param < 0:
        assert conjugate_coefficients(gid, param, src).g == (0.0, 0.0, 0.0)
        assert plan.replay_residual(src) == 0.6
        return
    with pytest.raises(ValueError, match="must be finite"):
        conjugate_coefficients(gid, param, src)
    assert plan.replay_residual(src) == math.inf


def test_a_non_finite_flow_result_still_raises_value_error():
    """A shift whose image overflows without an OverflowError on the way
    fails the finiteness check of the flow's result."""
    src = LiouvillianCoeffs((2.0, 0.0, 10.0), 0.3, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="must be finite"):
        conjugate_coefficients(GeneratorId.OPLUS, 1e308, src)
