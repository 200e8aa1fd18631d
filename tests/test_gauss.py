"""Gaussian parameter flows, positivity windows, and stationary presets."""

import math

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
    conjugate_linear,
    positivity_window,
    reduced_frequency,
    stationary_preset,
    transform_gaussian,
)

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
    assert reduced_frequency(1.0, 0.6) == pytest.approx(math.sqrt(0.91))
    with pytest.raises(OverdampedError):
        reduced_frequency(0.5, 1.2)
    with pytest.raises(OverdampedError):
        stationary_preset("cl", omega0_prime=0.5, gamma=1.2, b_cl=1.0)


def test_unknown_preset_name():
    with pytest.raises(ValueError):
        stationary_preset("ou", b=1.0)
