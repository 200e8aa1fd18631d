"""End-to-end acceptance gate.

Each test prints one `ACCEPTANCE <n> PASS` or `ACCEPTANCE <n> FAIL` line
(visible with `pytest -s`) and enforces the pinned tolerance for that
criterion.  Module-scoped fixtures share the expensive 48x48 assembly.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from klform import (
    BasisConfig,
    EigenLabel,
    EvolutionOverflow,
    GENERATOR_ORDER,
    GaussianState,
    LinearPhaseOperator,
    LiouvillianCoeffs,
    OverdampedError,
    PositivityViolation,
    SingularGError,
    adjoint_conjugate_coefficients,
    all_eigenvalues,
    assemble_liouvillian,
    assemble_matrix,
    biorthogonality_check,
    cl_coefficients,
    conjugate_coefficients,
    conjugate_linear,
    distinct_labels,
    eigenvalue,
    evolve_series,
    expand,
    hpz_coefficients,
    kl_coefficients,
    kl_eigenfunction,
    positivity_window,
    reduce_to_kl,
    reference_eigenfunction,
    refined_window_eigenvalues,
    residual,
    stationary_preset,
    stationary_similarity,
    step2_matrix,
    step2_solve,
    trace_and_hermiticity,
    transform_gaussian,
    transformed_eigenfunction,
    u_matrix,
)
from klform.cli import main as cli_main

W0, GAM, B = 1.0, 0.3, 1.0
SHIFT_IDS = tuple(GENERATOR_ORDER[4:])


@contextmanager
def report(number):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL")
        raise
    print(f"ACCEPTANCE {number} PASS")


@pytest.fixture(scope="module")
def kl48():
    state, frame = stationary_preset("kl", b=B)
    cfg = BasisConfig(48, 48, frame)
    k_mat = assemble_matrix(assemble_liouvillian(kl_coefficients(W0, GAM, B)), cfg)
    return state, cfg, k_mat


def random_scrambled_source(rng):
    """A generic Liouvillian similarity-equivalent to a normal form."""
    omega0 = float(rng.uniform(0.5, 1.5))
    gamma = float(rng.uniform(0.05, 1.0))
    b = float(rng.uniform(0.6, 1.6))
    src = kl_coefficients(omega0, gamma, b)
    for _ in range(int(rng.integers(3, 7))):
        gid = GENERATOR_ORDER[rng.integers(7)]
        src = conjugate_coefficients(gid, float(rng.uniform(-0.5, 0.5)), src)
    return src


def test_criterion_01_spectrum_at_truncation(kl48):
    """Constructed modes m <= 4 and every trusted matrix eigenvalue."""
    with report(1):
        state, cfg, k_mat = kl48
        for lab in distinct_labels(4):
            f = kl_eigenfunction(lab, B, W0, GAM)
            assert residual(k_mat, expand(f, cfg), f.eigenvalue) <= 1e-8
        radius = 4.0 * max(W0, GAM)
        computed = refined_window_eigenvalues(
            kl_coefficients(W0, GAM, B), state, 48, 48, radius
        )
        analytic = np.array(
            [eigenvalue(lab, W0, GAM) for lab in distinct_labels(20)]
        )
        analytic = analytic[np.abs(analytic) <= radius]
        assert computed.size == analytic.size == 78
        for lam in computed:
            assert np.min(np.abs(analytic - lam)) <= 1e-6
        for lam in analytic:
            assert np.min(np.abs(computed - lam)) <= 1e-6


def test_criterion_02_generic_sources_keep_the_spectrum():
    rng = np.random.default_rng(20260816)
    with report(2):
        for _ in range(100):
            src = random_scrambled_source(rng)
            h0, h1, h2 = src.h
            omega0 = 0.5 * math.sqrt(h0 * h0 - h1 * h1 - h2 * h2)
            plan = reduce_to_kl(src, b_target=1.0)
            assert plan.replay_residual(src) <= 1e-10
            cfg = None
            k_mat = None
            for lab in distinct_labels(2):
                f = transformed_eigenfunction(plan, lab, src)
                if k_mat is None:
                    cfg = BasisConfig(40, 40, f.gaussian.frame())
                    k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
                lam = eigenvalue(lab, omega0, src.gamma)
                assert residual(k_mat, expand(f, cfg), lam) <= 1e-7


# Draws of random_scrambled_source at seed 630948696 whose transported
# Gaussian has a normalized phase of at least 1.27: their modes are finite
# only in a frame that carries the phase.
PHASE_DRAWS = (14, 66, 242, 368, 392, 432, 440, 476, 533, 535, 692, 693)


def worst_residual(src, n=40):
    """Largest m <= 2 residual of src's transported modes in their own frame."""
    plan = reduce_to_kl(src, b_target=1.0)
    modes = [transformed_eigenfunction(plan, lab, src) for lab in distinct_labels(2)]
    cfg = BasisConfig(n, n, modes[0].gaussian.frame())
    k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
    return max(residual(k_mat, expand(f, cfg), f.eigenvalue) for f in modes)


def test_sources_with_a_large_phase_meet_the_residual_bound():
    rng = np.random.default_rng(630948696)
    draws = [random_scrambled_source(rng) for _ in range(max(PHASE_DRAWS) + 1)]
    for i in PHASE_DRAWS:
        assert worst_residual(draws[i]) <= 1e-7, i


def test_scrambled_sources_meet_the_residual_bound_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    flows = st.lists(
        st.tuples(st.sampled_from(GENERATOR_ORDER), st.floats(-0.5, 0.5)), min_size=3, max_size=6
    )

    @hyp.settings(max_examples=35)
    @hyp.given(st.floats(0.5, 1.5), st.floats(0.05, 1.0), st.floats(0.6, 1.6), flows)
    def check(omega0, gamma, b, steps):
        src = kl_coefficients(omega0, gamma, b)
        for gid, param in steps:
            src = conjugate_coefficients(gid, param, src)
        assert worst_residual(src) <= 1e-7

    check()


def test_biorthogonality_generic_sources():
    """Criterion-02 sources 0-4 and draw 432 of seed 630948696, whose
    transported Gaussians carry a phase |kappa| from 0.12 to 0.81."""
    rng = np.random.default_rng(20260816)
    sources = [random_scrambled_source(rng) for _ in range(5)]
    rng = np.random.default_rng(630948696)
    sources.append([random_scrambled_source(rng) for _ in range(433)][432])
    for i, src in enumerate(sources):
        plan = reduce_to_kl(src, b_target=1.0)
        modes = [transformed_eigenfunction(plan, lab, src) for lab in distinct_labels(2)]
        cfg = BasisConfig(32, 32, modes[0].gaussian.frame())
        k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
        assert biorthogonality_check(k_mat, modes, tol=1e-6).max_offdiag <= 1e-6, i


def test_stationary_similarity_grades_generic_sources():
    """all_eigenvalues raises DegreeError on a matrix that is not graded."""
    rng = np.random.default_rng(20260816)
    for _ in range(20):
        src = random_scrambled_source(rng)
        h0, h1, h2 = src.h
        omega0 = 0.5 * math.sqrt(h0 * h0 - h1 * h1 - h2 * h2)
        plan = reduce_to_kl(src, b_target=1.0)
        state = transformed_eigenfunction(plan, EigenLabel(0, 0, 1), src).gaussian
        op, frame = stationary_similarity(src, state)
        eigvals = all_eigenvalues(assemble_matrix(op, BasisConfig(24, 24, frame)))
        for lab in distinct_labels(2):
            assert np.min(np.abs(eigvals - eigenvalue(lab, omega0, src.gamma))) <= 1e-8


def test_evolve_series_raises_when_the_evolution_leaves_the_float_range():
    """Criterion-02 source 87 (nu = -8.2 after transport): exp(-t K) on the
    truncated basis grows past the float range within 10 / gamma, at 32x32
    as at the 40x40 of `klform evolve`."""
    rng = np.random.default_rng(20260816)
    src = [random_scrambled_source(rng) for _ in range(88)][87]
    plan = reduce_to_kl(src, b_target=1.0)
    steady = transformed_eigenfunction(plan, EigenLabel(0, 0, 1), src)
    seed = transformed_eigenfunction(plan, EigenLabel(1, 0, 1), src)
    cfg = BasisConfig(32, 32, steady.gaussian.frame())
    k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
    v_seed = expand(seed, cfg)
    f0 = expand(steady, cfg) + 0.2 * v_seed / np.linalg.norm(v_seed)
    with pytest.raises(EvolutionOverflow, match="float range"):
        evolve_series(k_mat, f0, np.linspace(0.0, 10.0 / src.gamma, 81))


def test_criterion_03_conjugation_closed_forms():
    rng = np.random.default_rng(33)
    with report(3):
        for _ in range(1000):
            coeffs = LiouvillianCoeffs(
                tuple(rng.uniform(-2.0, 2.0, 3)),
                float(rng.uniform(0.0, 1.5)),
                tuple(rng.uniform(-2.0, 2.0, 3)),
            )
            gid = GENERATOR_ORDER[rng.integers(7)]
            param = float(rng.uniform(-1.0, 1.0))
            closed = conjugate_coefficients(gid, param, coeffs)
            oracle = adjoint_conjugate_coefficients(gid, param, coeffs)
            assert closed.max_abs_diff(oracle) <= 1e-10
            assert closed.gamma == coeffs.gamma


def test_criterion_04_metric_invariance():
    rng = np.random.default_rng(44)
    with report(4):
        for _ in range(100):
            h = rng.uniform(-1.5, 1.5, 3)
            metric = h[0] ** 2 - h[1] ** 2 - h[2] ** 2
            for _ in range(int(rng.integers(3, 7))):
                which = ("U0", "U1", "U2")[rng.integers(3)]
                h = u_matrix(which, float(rng.uniform(-0.5, 0.5))) @ h
            moved = h[0] ** 2 - h[1] ** 2 - h[2] ** 2
            assert abs(moved - metric) <= 1e-12


def test_criterion_05_shift_system():
    rng = np.random.default_rng(55)
    with report(5):
        for _ in range(100):
            h = tuple(rng.uniform(-2.0, 2.0, 3))
            gamma = float(rng.uniform(0.05, 1.5))
            mat = step2_matrix(h, gamma)
            det_closed = -gamma * (h[0] ** 2 - h[1] ** 2 - h[2] ** 2 + gamma * gamma)
            assert abs(np.linalg.det(mat) - det_closed) <= 1e-12 * max(
                1.0, abs(det_closed)
            )
        for _ in range(100):
            omega0 = float(rng.uniform(0.3, 1.5))
            gamma = float(rng.uniform(0.05, 1.0))
            g_from = tuple(rng.uniform(-1.5, 1.5, 3))
            g_target = tuple(rng.uniform(-1.5, 1.5, 3))
            eta = step2_solve(omega0, gamma, g_from, g_target)
            coeffs = LiouvillianCoeffs((2.0 * omega0, 0.0, 0.0), gamma, g_from)
            for gid, param in zip(SHIFT_IDS, eta):
                coeffs = conjugate_coefficients(gid, float(param), coeffs)
            assert np.max(np.abs(np.array(coeffs.g) - np.array(g_target))) <= 1e-12
            assert coeffs.h == (2.0 * omega0, 0.0, 0.0)
        with pytest.raises(SingularGError):
            step2_solve(1.0, 0.0, (0.1, 0.0, 0.0), (-0.5, 0.0, 0.0))


def random_state(rng):
    mu = float(rng.uniform(0.1, 1.2))
    kappa = float(rng.uniform(-0.8, 0.8))
    nu = float(rng.uniform(0.0, 1.5))
    return GaussianState(mu, kappa, nu)


def annihilators(s):
    a1 = LinearPhaseOperator(4.0 * s.mu, 1j * s.kappa, 1.0, 0.0)
    a2 = LinearPhaseOperator(1j * s.kappa, s.width_sum, 0.0, 1.0)
    return a1, a2


def oracle_transform(gid, param, s):
    """Transport the two annihilating operators, then solve for the widths.

    The moved Gaussian is the unique L2 kernel of both transported
    operators; matching coefficients gives an 8-equation real least
    squares problem for (mu', kappa', w')."""
    rows = []
    rhs = []
    for moved in (conjugate_linear(gid, param, op) for op in annihilators(s)):
        rows.append([4.0 * moved.dq, 1j * moved.dr, 0.0])
        rhs.append(moved.q)
        rows.append([0.0, 1j * moved.dq, moved.dr])
        rhs.append(moved.r)
    big = np.vstack([np.real(rows), np.imag(rows)])
    vec = np.concatenate([np.real(rhs), np.imag(rhs)])
    sol, res, _, _ = np.linalg.lstsq(big, vec, rcond=None)
    fit = float(np.max(np.abs(big @ sol - vec)))
    assert fit <= 1e-10
    return sol  # (mu', kappa', w')


def sample_window_param(gid, s, rng):
    lo, hi = positivity_window(gid, s)
    lo = max(lo, -1.5)
    hi = min(hi, 1.5)
    if lo >= hi:
        return None
    margin = 0.05 * (hi - lo)
    return float(rng.uniform(lo + margin, hi - margin))


def test_criterion_06_gaussian_parameter_maps():
    rng = np.random.default_rng(66)
    with report(6):
        count = 0
        while count < 400:
            s = random_state(rng)
            gid = GENERATOR_ORDER[rng.integers(7)]
            param = sample_window_param(gid, s, rng)
            if param is None:
                continue
            count += 1
            moved = transform_gaussian(gid, param, s)
            mu, kappa, w = oracle_transform(gid, param, s)
            assert abs(moved.mu - mu) <= 1e-10
            assert abs(moved.kappa - kappa) <= 1e-10
            assert abs(moved.width_sum - w) <= 1e-10
        for _ in range(100):
            s = random_state(rng)
            scale = max(1.0, 4.0 * s.mu * s.width_sum + s.kappa**2)
            for gid in GENERATOR_ORDER:
                for endpoint in positivity_window(gid, s):
                    if not math.isfinite(endpoint):
                        continue
                    moved = transform_gaussian(gid, endpoint, s)
                    assert abs(moved.nu) <= 1e-12 * scale
        for _ in range(200):
            s = random_state(rng)
            gid = GENERATOR_ORDER[rng.integers(7)]
            param = sample_window_param(gid, s, rng)
            if param is None:
                continue
            half = transform_gaussian(gid, 0.5 * param, s)
            lo, hi = positivity_window(gid, half)
            if not (lo < 0.5 * param < hi):
                continue
            twice = transform_gaussian(gid, 0.5 * param, half)
            full = transform_gaussian(gid, param, s)
            assert abs(twice.mu - full.mu) <= 1e-12
            assert abs(twice.kappa - full.kappa) <= 1e-12
            assert abs(twice.nu - full.nu) <= 1e-12


def test_criterion_07_stationary_states():
    with report(7):
        for coeffs, model, params in (
            (cl_coefficients(1.0, 0.6, 1.0), "cl",
             {"omega0_prime": 1.0, "gamma": 0.6, "b_cl": 1.0}),
            (hpz_coefficients(1.0, 0.6, 1.0, 0.2), "hpz",
             {"omega0_prime": 1.0, "gamma": 0.6, "b_hpz": 1.0, "d": 0.2}),
        ):
            state, frame = stationary_preset(model, **params)
            cfg = BasisConfig(48, 48, frame)
            k_mat = assemble_matrix(assemble_liouvillian(coeffs), cfg)
            assert residual(k_mat, expand(state, cfg), 0.0) <= 1e-8


def single_constant_deviation(f_test, f_ref):
    q = np.linspace(-1.5, 1.5, 10)[:, None]
    r = np.linspace(-1.2, 1.2, 10)[None, :]
    a = f_test.evaluate(q, r)
    b = f_ref.evaluate(q, r)
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    const = a[idx] / b[idx]
    return float(np.max(np.abs(a - const * b)) / np.max(np.abs(a)))


def test_criterion_08_reference_eigenfunction_fixtures():
    with report(8):
        labels = (EigenLabel(1, 1, 1), EigenLabel(1, 1, -1), EigenLabel(1, 0, 1))
        cases = (
            (cl_coefficients(1.0, 0.6, 1.0), "cl",
             {"omega0_prime": 1.0, "gamma": 0.6, "b_cl": 1.0}),
            (hpz_coefficients(1.0, 0.6, 1.0, 0.2), "hpz",
             {"omega0_prime": 1.0, "gamma": 0.6, "b_hpz": 1.0, "d": 0.2}),
        )
        for coeffs, model, params in cases:
            plan = reduce_to_kl(coeffs, b_target=1.0)
            for lab in labels:
                constructed = transformed_eigenfunction(plan, lab, coeffs)
                ref = reference_eigenfunction(model, lab, **params)
                assert constructed.eigenvalue == pytest.approx(
                    ref.eigenvalue, abs=1e-12
                )
                assert single_constant_deviation(constructed, ref) <= 1e-10


def test_criterion_09_conservation_and_decay():
    with report(9):
        for coeffs in (kl_coefficients(W0, GAM, B), cl_coefficients(1.0, 0.6, 1.0)):
            gamma = coeffs.gamma
            plan = reduce_to_kl(coeffs, b_target=1.0)
            steady = transformed_eigenfunction(plan, EigenLabel(0, 0, 1), coeffs)
            seed = transformed_eigenfunction(plan, EigenLabel(1, 0, 1), coeffs)
            cfg = BasisConfig(32, 32, steady.gaussian.frame())
            k_mat = assemble_matrix(assemble_liouvillian(coeffs), cfg)
            v_steady = expand(steady, cfg)
            v_seed = expand(seed, cfg)
            f0 = v_steady + 0.2 * v_seed / np.linalg.norm(v_seed)
            times = np.linspace(0.0, 10.0 / gamma, 41)
            rows = evolve_series(k_mat, f0, times)
            devs = np.linalg.norm(rows - v_steady[None, :], axis=1)
            for vec in rows:
                trace, defect = trace_and_hermiticity(vec, cfg)
                assert abs(trace - 1.0) <= 1e-8
                assert defect <= 1e-8
            rate = -np.polyfit(times, np.log(devs / devs[0]), 1)[0]
            assert abs(rate - gamma) <= 0.01 * gamma


def test_criterion_10_biorthogonality(kl48):
    with report(10):
        _, cfg, k_mat = kl48
        modes = [kl_eigenfunction(lab, B, W0, GAM) for lab in distinct_labels(2)]
        result = biorthogonality_check(k_mat, modes, tol=1e-6)
        assert result.max_offdiag <= 1e-6
        assert result.passed


def test_criterion_11_error_paths(tmp_path, capsys):
    with report(11):
        overdamped = LiouvillianCoeffs((1.0, 2.0, 0.0), 0.4, (-0.8, 0.0, 0.0))
        with pytest.raises(OverdampedError):
            reduce_to_kl(overdamped)
        with pytest.raises(PositivityViolation):
            stationary_preset("kl", b=0.4)

        out_a = tmp_path / "a"
        cfg_a = tmp_path / "over.json"
        cfg_a.write_text(
            json.dumps(
                {
                    "model": "generic",
                    "coefficients": {
                        "h": [1.0, 2.0, 0.0],
                        "gamma": 0.4,
                        "g": [-0.8, 0.0, 0.0],
                    },
                    "out": str(out_a),
                }
            )
        )
        assert cli_main(["reduce", "--config", str(cfg_a)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "OverdampedError"
        assert not out_a.exists()

        out_b = tmp_path / "b"
        cfg_b = tmp_path / "bad.json"
        cfg_b.write_text(
            json.dumps(
                {
                    "model": "kl",
                    "preset": {"omega0": 1.0, "gamma": 0.3, "b": 0.4},
                    "out": str(out_b),
                }
            )
        )
        assert cli_main(["stationary", "--config", str(cfg_b)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "PositivityViolation"
        assert not out_b.exists()
