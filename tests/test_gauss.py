"""Gaussian parameter flows, positivity windows, and stationary presets."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klform import (
    DegenerateDenominator,
    GeneratorId,
    GaussianState,
    LinearPhaseOperator,
    OverdampedError,
    PositivityViolation,
    apply_plan_gaussian,
    conjugate_linear,
    positivity_window,
    stationary_preset,
    transform_gaussian,
)
from klform.gauss import _reduced_frequency

ALL_GIDS = (
    GeneratorId.IL0,
    GeneratorId.IM1,
    GeneratorId.IM2,
    GeneratorId.O0MI,
    GeneratorId.OPLUS,
    GeneratorId.L1PLUS,
    GeneratorId.L2PLUS,
)


def annihilators(s):
    """Two first-order operators that annihilate the Gaussian kernel."""
    a1 = LinearPhaseOperator(4.0 * s.mu, 1j * s.kappa, 1.0, 0.0)
    a2 = LinearPhaseOperator(1j * s.kappa, s.width_sum, 0.0, 1.0)
    return a1, a2


def oracle_transform(gid, param, s):
    """Transport the annihilators and solve for the new Gaussian parameters.

    A linear operator with components (q, r, dq, dr) annihilates the
    kernel with parameters (mu, kappa, w) exactly when q = 4*mu*dq +
    i*kappa*dr and r = i*kappa*dq + w*dr.  Stacking those conditions for
    both transported annihilators gives eight real equations for the
    three real unknowns.
    """
    rows = []
    rhs = []
    for op in annihilators(s):
        moved = conjugate_linear(gid, param, op)
        rows.append([4.0 * moved.dq, 1j * moved.dr, 0.0])
        rhs.append(moved.q)
        rows.append([0.0, 1j * moved.dq, moved.dr])
        rhs.append(moved.r)
    rows = np.array(rows, dtype=complex)
    rhs = np.array(rhs, dtype=complex)
    mat = np.vstack([rows.real, rows.imag])
    vec = np.concatenate([rhs.real, rhs.imag])
    sol, _, _, _ = np.linalg.lstsq(mat, vec, rcond=None)
    resid = float(np.max(np.abs(mat @ sol - vec)))
    assert resid <= 1e-10, f"annihilator conditions inconsistent (resid {resid})"
    mu, kappa, w = sol
    return float(mu), float(kappa), float(w)


def sample_param(gid, s, rng):
    lo, hi = positivity_window(gid, s)
    lo = max(lo, -1.5)
    hi = min(hi, 1.5)
    if not lo < hi:
        return None
    span = hi - lo
    return float(rng.uniform(lo + 0.05 * span, hi - 0.05 * span))


def random_state(rng, physical=True):
    mu = float(rng.uniform(0.1, 2.0))
    kappa = float(rng.uniform(-1.5, 1.5))
    nu = float(rng.uniform(0.0, 2.0)) if physical else float(rng.uniform(-0.3, 2.0))
    return GaussianState(mu, kappa, nu)


def test_transform_matches_annihilator_oracle():
    rng = np.random.default_rng(606)
    checked = 0
    worst = 0.0
    while checked < 400:
        s = random_state(rng)
        gid = ALL_GIDS[rng.integers(7)]
        p = sample_param(gid, s, rng)
        if p is None:
            continue
        out = transform_gaussian(gid, p, s)
        mu, kappa, w = oracle_transform(gid, p, s)
        scale = max(1.0, abs(mu), abs(kappa), abs(w))
        err = max(abs(out.mu - mu), abs(out.kappa - kappa), abs(out.width_sum - w))
        worst = max(worst, err / scale)
        checked += 1
    assert worst <= 1e-10


def test_window_endpoints_pinch_nu_to_zero():
    rng = np.random.default_rng(8080)
    for _ in range(100):
        s = random_state(rng)
        for gid in (
            GeneratorId.O0MI,
            GeneratorId.OPLUS,
            GeneratorId.L1PLUS,
            GeneratorId.L2PLUS,
        ):
            lo, hi = positivity_window(gid, s)
            for endpoint in (lo, hi):
                if not math.isfinite(endpoint):
                    continue
                out = transform_gaussian(gid, endpoint, s)
                assert abs(out.nu) <= 1e-12 * max(1.0, s.delta())


def test_window_fixture_cross_diffusion():
    s = GaussianState(0.25, 0.0, 0.75)
    lo, hi = positivity_window(GeneratorId.L2PLUS, s)
    assert lo == pytest.approx(-math.sqrt(3.0), abs=1e-14)
    assert hi == pytest.approx(math.sqrt(3.0), abs=1e-14)


def decimal_root(x):
    """The square root of a Decimal x >= 0 to about 2000 digits: math.isqrt
    of x scaled to a 4000-digit integer, at half the cost of Decimal.sqrt
    and with the same floats on every case the reference is read at."""
    k = 2000 - x.adjusted() // 2
    return Decimal(math.isqrt(int(x.scaleb(2 * k)))).scaleb(-k)


def reference_window(gid, s):
    """The closed forms of positivity_window in 2000-digit decimal
    arithmetic, where no square overflows and no difference cancels."""
    with localcontext(prec=2000):
        mu, kappa, nu = map(Decimal, (s.mu, s.kappa, s.nu))
        dis = 4 * mu * (mu + nu) + kappa * kappa
        if gid is GeneratorId.O0MI:
            return (mu / (mu + nu)).ln() / 2, Decimal("inf")
        if gid is GeneratorId.OPLUS:
            root = decimal_root((1 + dis) ** 2 - 16 * mu * nu)
            return (-(1 + dis) + root) / (4 * mu), Decimal("inf")
        if gid is GeneratorId.L1PLUS:
            root = decimal_root((1 - dis) ** 2 + 16 * mu * nu)
            return ((1 - dis) - root) / (4 * mu), ((1 - dis) + root) / (4 * mu)
        root = decimal_root(kappa**2 + 4 * mu * nu)
        return (kappa - root) / (2 * mu), (kappa + root) / (2 * mu)


# states whose windows overflowed untyped (kappa or nu 1e200) or came out
# NaN (mu 1e160) in floats
FAR_WINDOWS = [
    ((1.0, 1e200, 0.5), GeneratorId.O0MI),
    ((1.0, 1e200, 0.5), GeneratorId.OPLUS),
    ((1.0, 1e200, 0.5), GeneratorId.L1PLUS),
    ((1.0, 1e200, 0.5), GeneratorId.L2PLUS),
    ((1.0, -1e200, 0.5), GeneratorId.L2PLUS),
    ((1.0, 0.0, 1e200), GeneratorId.OPLUS),
    ((1.0, 0.0, 1e200), GeneratorId.L1PLUS),
    ((1e160, 0.0, 0.5), GeneratorId.OPLUS),
    ((1e160, 0.0, 0.5), GeneratorId.L1PLUS),
]


@pytest.mark.parametrize("params, gid", FAR_WINDOWS)
def test_positivity_window_far_from_unit_scale(params, gid):
    """Each endpoint of a shift is the float nearest the reference, and
    O0MI's is within an ulp of it, or the window raises
    DegenerateDenominator when one lies outside the float range (L1PLUS at
    kappa 1e200 starts near -5e399)."""
    s = GaussianState(*params)
    reference = [float(end) for end in reference_window(gid, s)]
    if any(abs(end) > sys.float_info.max and end != math.inf for end in reference):
        with pytest.raises(DegenerateDenominator):
            positivity_window(gid, s)
        return
    lo, hi = positivity_window(gid, s)
    assert lo <= 0.0 <= hi
    if gid is GeneratorId.O0MI:
        assert hi == reference[1] and abs(lo - reference[0]) <= math.ulp(reference[0])
    else:
        assert [lo, hi] == reference


def closed_window_in_floats(gid, s):
    """The closed forms of positivity_window, evaluated as written in floats."""
    mu, kappa, nu = s.mu, s.kappa, s.nu
    dis = 4.0 * mu * (mu + nu) + kappa**2
    if gid is GeneratorId.O0MI:
        return 0.5 * math.log(mu / (mu + nu)), math.inf
    if gid is GeneratorId.OPLUS:
        root = math.sqrt((1.0 + dis) ** 2 - 16.0 * mu * nu)
        return (-(1.0 + dis) + root) / (4.0 * mu), math.inf
    if gid is GeneratorId.L1PLUS:
        root = math.sqrt((1.0 - dis) ** 2 + 16.0 * mu * nu)
        return ((1.0 - dis) - root) / (4.0 * mu), ((1.0 - dis) + root) / (4.0 * mu)
    root = math.sqrt(kappa**2 + 4.0 * mu * nu)
    return (kappa - root) / (2.0 * mu), (kappa + root) / (2.0 * mu)


def test_far_window_forms_agree_with_the_closed_forms():
    """The cancellation-free forms of positivity_window agree with its
    closed forms evaluated as written, at unit scale."""
    rng = np.random.default_rng(8080)
    for _ in range(100):
        s = random_state(rng)
        for gid in (GeneratorId.O0MI, GeneratorId.OPLUS, GeneratorId.L1PLUS, GeneratorId.L2PLUS):
            lo, hi = positivity_window(gid, s)
            closed_lo, closed_hi = closed_window_in_floats(gid, s)
            assert lo == pytest.approx(closed_lo, rel=1e-12, abs=1e-15)
            assert hi == pytest.approx(closed_hi, rel=1e-12, abs=1e-15)


# states where the closed forms evaluated in floats cancel the endpoint
# next to 0: OPLUS gives 0.0 for -2.5e-17, L1PLUS 0.0 for 2.5e-17, and
# L2PLUS at kappa 1e30 0.0 for -5e-31
NEAR_ZERO_WINDOWS = [
    ((1e8, 0.0, 0.5), GeneratorId.OPLUS, 0),
    ((1e8, 0.0, 0.5), GeneratorId.L1PLUS, 1),
    ((1.0, 1e30, 0.5), GeneratorId.L2PLUS, 0),
]


@pytest.mark.parametrize("params, gid, end", NEAR_ZERO_WINDOWS)
def test_positivity_window_keeps_the_endpoint_next_to_zero(params, gid, end):
    """The floats nearest the 2000-digit reference, where the closed forms
    in floats return 0.0."""
    s = GaussianState(*params)
    reference = [float(x) for x in reference_window(gid, s)]
    assert closed_window_in_floats(gid, s)[end] == 0.0 != reference[end]
    assert list(positivity_window(gid, s)) == reference


@pytest.mark.parametrize("params", [(1e-8, 0.0, 2.5e7), (1e-4, 0.0, 2500.0), (0.01, 0.3, 24.0)])
def test_the_oplus_endpoint_keeps_its_bits_next_to_the_double_root(params):
    """Where mu nu nears 1/4 and mu 0, the two roots of OPLUS's nu'(p) meet,
    and (1 + D)^2 - 16 mu nu evaluated in floats cancels (by 4e7 ulps at
    mu = 1e-8); in exact arithmetic the endpoint is the float nearest the
    2000-digit reference."""
    s = GaussianState(*params)
    want = float(reference_window(GeneratorId.OPLUS, s)[0])
    assert positivity_window(GeneratorId.OPLUS, s)[0] == want


def test_shift_windows_at_unit_scale_are_the_nearest_floats():
    """On 600 seeded unit-scale states, and on the state where the scaled
    floats were 2 ulps off on L2PLUS, every endpoint of OPLUS, L1PLUS and
    L2PLUS is the float nearest the 2000-digit reference."""
    rng = np.random.default_rng(20290104)
    states = [random_state(rng) for _ in range(600)]
    states.append(GaussianState(1.73643864273757, 1.1296112892497416, 0.9438194387175805))
    for index, s in enumerate(states):
        for gid in (GeneratorId.OPLUS, GeneratorId.L1PLUS, GeneratorId.L2PLUS):
            reference = [float(end) for end in reference_window(gid, s)]
            assert list(positivity_window(gid, s)) == reference, (index, gid)
    assert positivity_window(GeneratorId.L2PLUS, states[-1]) == (
        -0.48054710755706254,
        1.1310804816985531,
    )


def test_rotation_and_boosts_have_unbounded_windows():
    s = GaussianState(0.4, 0.3, 0.2)
    for gid in (GeneratorId.IL0, GeneratorId.IM1, GeneratorId.IM2):
        assert positivity_window(gid, s) == (-math.inf, math.inf)


def test_one_parameter_group_law():
    rng = np.random.default_rng(404)
    for _ in range(100):
        s = random_state(rng)
        gid = ALL_GIDS[rng.integers(7)]
        p = sample_param(gid, s, rng)
        if p is None:
            continue
        p1, p2 = 0.5 * p, 0.5 * p
        mid = transform_gaussian(gid, p1, s)
        lo, hi = positivity_window(gid, mid)
        if not (lo <= p2 <= hi):
            continue
        two_step = transform_gaussian(gid, p2, mid)
        one_step = transform_gaussian(gid, p, s)
        for attr in ("mu", "kappa", "nu"):
            a = getattr(two_step, attr)
            b = getattr(one_step, attr)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_transform_outside_window_leaves_the_physical_region():
    s = GaussianState(0.25, 0.0, 0.75)
    for gid, param in ((GeneratorId.L2PLUS, 2.0), (GeneratorId.O0MI, -5.0)):
        lo, hi = positivity_window(gid, s)
        assert not lo <= param <= hi
        assert not transform_gaussian(gid, param, s).is_physical()


def test_degenerate_denominator_without_window_guard():
    s = GaussianState(0.5, 0.0, 0.5)
    # the diffusion map divides by 1 + 2*mu*p, degenerate at p = -1
    with pytest.raises(DegenerateDenominator):
        transform_gaussian(GeneratorId.OPLUS, -1.0, s)


def test_transform_scaling_fixture():
    s = GaussianState(0.3, 0.4, 0.5)
    out = transform_gaussian(GeneratorId.IM2, 0.7, s)
    f = math.exp(-0.7)
    assert out.mu == pytest.approx(0.3 * f, rel=1e-14)
    assert out.kappa == pytest.approx(0.4 * f, rel=1e-14)
    assert out.width_sum == pytest.approx(0.8 * f, rel=1e-14)


def test_gaussian_evaluate_matches_formula():
    s = GaussianState(0.3, -0.2, 0.6)
    q = np.linspace(-1.0, 1.0, 5)[:, None]
    r = np.linspace(-0.8, 0.8, 4)[None, :]
    got = s.evaluate(q, r)
    expected = math.sqrt(2.0 * s.mu / math.pi) * np.exp(
        -2.0 * s.mu * q * q - 1j * s.kappa * q * r - 0.5 * s.width_sum * r * r
    )
    assert_allclose(got, expected, atol=1e-15)


def test_state_validation():
    with pytest.raises(PositivityViolation):
        GaussianState(0.0, 0.0, 1.0)
    with pytest.raises(PositivityViolation):
        GaussianState(-0.5, 0.0, 1.0)
    s = GaussianState(0.25, 0.1, -0.2)
    assert not s.is_physical()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", range(3), ids=["mu", "kappa", "nu"])
def test_state_rejects_a_non_finite_parameter(slot, bad):
    params = [0.5, 0.1, 0.2]
    params[slot] = bad
    with pytest.raises(ValueError, match="Gaussian parameters must be finite"):
        GaussianState(*params)


@pytest.mark.parametrize("mu", [0.0, -0.0, -1e-300, -0.5])
def test_state_rejects_a_non_positive_mu(mu):
    with pytest.raises(PositivityViolation, match="must be positive"):
        GaussianState(mu, 0.1, 0.2)


def test_kl_preset():
    state, frame = stationary_preset("kl", b=1.0)
    assert state.mu == pytest.approx(0.25)
    assert state.kappa == 0.0
    assert state.width_sum == pytest.approx(1.0)
    assert frame.s_q == pytest.approx(math.sqrt(2.0))
    assert frame.s_r == pytest.approx(math.sqrt(0.5))
    # the state's own frame agrees with the preset frame
    own = state.frame()
    assert own.s_q == pytest.approx(frame.s_q)
    assert own.s_r == pytest.approx(frame.s_r)
    with pytest.raises(PositivityViolation):
        stationary_preset("kl", b=0.4)


def test_cl_preset_width_conversion():
    direct, _ = stationary_preset("cl", omega0_prime=1.0, gamma=0.6, b_cl=0.95)
    assert direct.width_sum == pytest.approx(0.95)
    # cl is hpz without the anomalous-diffusion coupling, bit for bit
    for params in ((1.0, 0.6, 0.95), (1.3, 0.5, 0.8), (0.9, 0.4, 1.7)):
        w0p, gam, b = params
        cl_state, cl_frame = stationary_preset("cl", omega0_prime=w0p, gamma=gam, b_cl=b)
        hpz_state, hpz_frame = stationary_preset(
            "hpz", omega0_prime=w0p, gamma=gam, b_hpz=b, d=0.0
        )
        cl_bits = [x.hex() for x in (*vars(cl_state).values(), *vars(cl_frame).values())]
        hpz_bits = [x.hex() for x in (*vars(hpz_state).values(), *vars(hpz_frame).values())]
        assert cl_bits == hpz_bits


def test_hpz_preset_width_split():
    state, frame = stationary_preset("hpz", omega0_prime=1.0, gamma=0.6, b_hpz=1.0, d=0.2)
    b_plus = 1.0 + 0.2 / 2.0
    assert state.mu == pytest.approx(1.0 / (4.0 * b_plus))
    assert state.width_sum == pytest.approx(1.0)
    assert frame.s_q == pytest.approx(math.sqrt(2.0 * b_plus))
    assert frame.s_r == pytest.approx(math.sqrt(0.5))


def test_reduced_frequency_and_overdamped_error():
    assert _reduced_frequency(1.0, 0.6) == pytest.approx(math.sqrt(0.91))
    with pytest.raises(OverdampedError):
        _reduced_frequency(0.5, 1.2)
    with pytest.raises(OverdampedError):
        stationary_preset("cl", omega0_prime=0.5, gamma=1.2, b_cl=1.0)


def test_unknown_preset_name():
    with pytest.raises(ValueError):
        stationary_preset("ou", b=1.0)


def test_an_underflowing_mu_still_fails_the_positivity_check():
    """IM2 at p = 800 scales mu by exp(-800), which is 0.0: the map's state
    is finite, and its mu > 0 check raises, with the step's prefix."""
    state = GaussianState(0.25, 0.0, 0.75)
    with pytest.raises(PositivityViolation, match=r"mu = 0\.0 must be positive"):
        transform_gaussian(GeneratorId.IM2, 800.0, state)
    steps = [(GeneratorId.IL0, 0.3), (GeneratorId.IM2, 800.0)]
    with pytest.raises(PositivityViolation, match=r"^step 1 \(IM2, 800\.0\): mu = 0\.0 must"):
        apply_plan_gaussian(steps, state)


def test_a_non_finite_map_still_raises_degenerate_denominator():
    """A map whose result overflows without an OverflowError on the way
    (mu exp(700) with mu = 1e10) fails the finiteness check."""
    with pytest.raises(DegenerateDenominator, match="leaves the float range"):
        transform_gaussian(GeneratorId.IM2, -700.0, GaussianState(1e10, 0.0, 1.0))
