"""Truncated-basis oracle: assembly, expansion, evolution, biorthogonality."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klform import (
    AppliedEigenfunction,
    BasisConfig,
    CoordinateFrame,
    DegreeError,
    EigenLabel,
    EvolutionOverflow,
    FrameMismatch,
    GaussianState,
    LinearPhaseOperator,
    PairingFailure,
    PhasePolyOperator,
    PositivityViolation,
    ZeroVector,
    all_eigenvalues,
    assemble_liouvillian,
    assemble_matrix,
    biorthogonality_check,
    cl_coefficients,
    distinct_labels,
    eigenvalue,
    evolve_series,
    expand,
    hpz_coefficients,
    kl_coefficients,
    kl_eigenfunction,
    ladder_matrices,
    reconstruct,
    reduce_to_kl,
    refined_window_eigenvalues,
    residual,
    stationary_preset,
    stationary_similarity,
    trace_and_hermiticity,
    transformed_eigenfunction,
)
from klform.verify import _GRADING_TOL

W0, GAM, B = 1.0, 0.3, 1.0

# reference parameters of the three named models: coefficients, stationary state
MODELS = {
    "kl": (kl_coefficients(W0, GAM, B), {"b": B}),
    "cl": (cl_coefficients(1.0, 0.6, 1.0), {"omega0_prime": 1.0, "gamma": 0.6, "b_cl": 1.0}),
    "hpz": (
        hpz_coefficients(1.0, 0.6, 1.0, 0.2),
        {"omega0_prime": 1.0, "gamma": 0.6, "b_hpz": 1.0, "d": 0.2},
    ),
}


def kl_setup(n=32, gamma=GAM):
    state, frame = stationary_preset("kl", b=B)
    cfg = BasisConfig(n, n, frame)
    k_op = assemble_liouvillian(kl_coefficients(W0, gamma, B))
    return state, cfg, assemble_matrix(k_op, cfg)


def hermite_function_oracle(j, x):
    """Normalized Hermite function built from numpy's Hermite module."""
    coef = np.zeros(j + 1)
    coef[j] = 1.0
    norm = 1.0 / math.sqrt(math.sqrt(math.pi) * (2.0**j) * math.factorial(j))
    return norm * np.polynomial.hermite.hermval(x, coef) * np.exp(-0.5 * x * x)


def test_ladder_matrices_against_quadrature():
    n = 6
    x_mat, d_mat = ladder_matrices(n)
    x_dense = x_mat.toarray()
    d_dense = d_mat.toarray()
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    wts = weights * np.exp(nodes**2)
    for j in range(n):
        for k in range(n):
            overlap = np.sum(
                wts * hermite_function_oracle(j, nodes) * nodes * hermite_function_oracle(k, nodes)
            )
            assert x_dense[j, k] == pytest.approx(overlap, abs=1e-10)
    assert_allclose(x_dense, x_dense.T, atol=1e-15)
    assert_allclose(d_dense, -d_dense.T, atol=1e-15)
    comm = (d_dense @ x_dense - x_dense @ d_dense)[: n - 1, : n - 1]
    assert_allclose(comm, np.eye(n - 1), atol=1e-14)


def test_assemble_matrix_identity_and_zero():
    cfg = BasisConfig(5, 4, CoordinateFrame(1.3, 0.7))
    ident = assemble_matrix(PhasePolyOperator({(0, 0, 0, 0): 1.0}), cfg)
    assert_allclose(ident.matrix.toarray(), np.eye(20), atol=1e-15)
    zero = assemble_matrix(PhasePolyOperator({}), cfg)
    assert zero.matrix.nnz == 0


def test_assemble_matrix_degree_cap():
    cfg = BasisConfig(4, 4, CoordinateFrame(1.0, 1.0))
    with pytest.raises(DegreeError):
        assemble_matrix(PhasePolyOperator({(3, 2, 0, 0): 1.0}), cfg)


def test_expand_stationary_state_is_ground_mode():
    state, cfg, _ = kl_setup(12)
    vec = expand(state, cfg).reshape(12, 12)
    peak = abs(vec[0, 0])
    assert peak > 0.1
    rest = vec.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) <= 1e-12 * peak


def test_expand_first_excited_mode_pattern():
    _, cfg, _ = kl_setup(12)
    f = kl_eigenfunction(EigenLabel(1, 1, 1), B, W0, GAM)
    vec = expand(f, cfg).reshape(12, 12)
    mags = np.abs(vec)
    top = mags.max()
    support = {tuple(idx) for idx in np.argwhere(mags > 1e-10 * top)}
    assert support == {(1, 0), (0, 1)}


def test_expand_reconstruct_round_trip():
    state, cfg, _ = kl_setup(20)
    rng = np.random.default_rng(77)
    coeffs = {
        (a, b): complex(rng.normal(), rng.normal())
        for a in range(4)
        for b in range(4)
        if a + b <= 3
    }
    # the polynomial in the operator pair (Q, r) times the Gaussian
    f = AppliedEigenfunction(
        label=EigenLabel(0, 0),
        eigenvalue=0.0,
        pi=PhasePolyOperator({(a, b, 0, 0): c for (a, b), c in coeffs.items()}),
        op_q=LinearPhaseOperator(q=1.0),
        op_r=LinearPhaseOperator(r=1.0),
        gaussian=state,
    )
    vec = expand(f, cfg)
    q = np.linspace(-2.5, 2.5, 9)[:, None]
    r = np.linspace(-1.8, 1.8, 8)[None, :]
    direct = sum(c * q**a * r**b for (a, b), c in coeffs.items()) * state.evaluate(q, r)
    assert_allclose(reconstruct(vec, cfg, q.ravel(), r.ravel()), direct, atol=1e-10)


def test_expand_refuses_other_types():
    """An object with a Gaussian but no polynomial is not its bare Gaussian."""
    state, cfg, _ = kl_setup(8)

    class GaussianOnly:
        gaussian = state

        def evaluate(self, q, r):
            return state.evaluate(q, r)

    with pytest.raises(TypeError, match="GaussianOnly"):
        expand(GaussianOnly(), cfg)


@pytest.mark.parametrize("nu", [-0.5, -0.7])
def test_expand_refuses_a_gaussian_that_cannot_be_normalized(nu):
    cfg = BasisConfig(8, 8, CoordinateFrame(1.0, 1.0))
    with pytest.raises(PositivityViolation, match="mu \\+ nu"):
        expand(GaussianState(0.5, 0.0, nu), cfg)


def test_a_gaussian_with_a_phase_is_one_basis_function_of_its_frame():
    state = GaussianState(mu=0.3, kappa=0.8, nu=0.5)
    cfg = BasisConfig(12, 12, state.frame())
    assert cfg.frame.kappa == 0.8
    vec = expand(state, cfg)
    assert abs(vec[0]) > 0.5
    assert np.max(np.abs(vec[1:])) <= 1e-13
    q = np.linspace(-2.5, 2.5, 9)
    r = np.linspace(-1.8, 1.8, 8)
    direct = state.evaluate(q[:, None], r[None, :])
    assert_allclose(reconstruct(vec, cfg, q, r), direct, atol=1e-13)


def test_expand_warns_on_frame_mismatch():
    _, cfg, _ = kl_setup(10)
    off_state = GaussianState(mu=0.4, kappa=0.0, nu=0.6)
    with pytest.warns(FrameMismatch):
        expand(off_state, cfg)


def test_residual_zero_vector_rejected():
    _, cfg, k_mat = kl_setup(8)
    with pytest.raises(ZeroVector):
        residual(k_mat, np.zeros(cfg.dim, dtype=complex), 0.0)


def test_trace_and_hermiticity_fixtures():
    state, cfg, _ = kl_setup(24)
    v0 = expand(state, cfg)
    trace, defect = trace_and_hermiticity(v0, cfg)
    assert trace == pytest.approx(1.0, abs=1e-12)
    assert defect <= 1e-12
    trace_i, defect_i = trace_and_hermiticity(1j * v0, cfg)
    assert trace_i == pytest.approx(1j, abs=1e-12)
    assert defect_i > 0.1
    plus = expand(kl_eigenfunction(EigenLabel(1, 1, 1), B, W0, GAM), cfg)
    minus = expand(kl_eigenfunction(EigenLabel(1, 1, -1), B, W0, GAM), cfg)
    _, defect_pair = trace_and_hermiticity(plus + minus, cfg)
    assert defect_pair <= 1e-10


def test_trace_functional_annihilates_image():
    """The trace is conserved, so trace(K f) vanishes for any f.

    The generator raises basis indices by at most two, so vectors kept
    clear of the top two ladder levels see no truncation defect at all.
    """
    _, cfg, k_mat = kl_setup(20)
    rng = np.random.default_rng(3)
    for _ in range(5):
        block = rng.normal(size=(cfg.n_q, cfg.n_r)) + 1j * rng.normal(
            size=(cfg.n_q, cfg.n_r)
        )
        block[-2:, :] = 0.0
        block[:, -2:] = 0.0
        vec = block.reshape(-1)
        vec /= np.linalg.norm(vec)
        trace, _ = trace_and_hermiticity(k_mat.matrix @ vec, cfg)
        assert abs(trace) <= 1e-12


def test_matrix_conjugation_symmetry():
    """Flipping the sign of odd r-modes conjugates the matrix exactly."""
    _, cfg, k_mat = kl_setup(14)
    signs = np.kron(np.ones(cfg.n_q), (-1.0) ** np.arange(cfg.n_r))
    mat = k_mat.matrix.toarray()
    flipped = signs[:, None] * mat * signs[None, :]
    assert np.array_equal(flipped, np.conj(mat))


def test_parity_blocks_decouple():
    _, cfg, k_mat = kl_setup(16)
    j = np.repeat(np.arange(cfg.n_q), cfg.n_r)
    k = np.tile(np.arange(cfg.n_r), cfg.n_q)
    even = (j + k) % 2 == 0
    mat = k_mat.matrix.toarray()
    assert np.max(np.abs(mat[np.ix_(even, ~even)])) == 0.0
    assert np.max(np.abs(mat[np.ix_(~even, even)])) == 0.0


def degree_raising_ratio(k_mat):
    """Largest entry mapping total degree j + k up, relative to the largest entry."""
    cfg = k_mat.config
    mat = k_mat.matrix.toarray()
    j = np.repeat(np.arange(cfg.n_q), cfg.n_r)
    k = np.tile(np.arange(cfg.n_r), cfg.n_q)
    deg = j + k
    raising = deg[:, None] > deg[None, :]
    return np.max(np.abs(mat[raising])) / np.max(np.abs(mat))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_stationary_similarity_respects_degree_grading(model):
    coeffs, params = MODELS[model]
    state, _ = stationary_preset(model, **params)
    op, frame = stationary_similarity(coeffs, state)
    k_mat = assemble_matrix(op, BasisConfig(24, 24, frame))
    assert degree_raising_ratio(k_mat) <= _GRADING_TOL


def test_all_eigenvalues_rejects_an_ungraded_matrix():
    cfg = BasisConfig(12, 12, CoordinateFrame(1.3, 0.7))
    k_mat = assemble_matrix(assemble_liouvillian(kl_coefficients(W0, GAM, B)), cfg)
    assert degree_raising_ratio(k_mat) > 1e-3
    with pytest.raises(DegreeError, match="raises the Hermite degree"):
        all_eigenvalues(k_mat)


def test_all_eigenvalues_contains_low_spectrum():
    _, cfg, k_mat = kl_setup(24)
    eigvals = all_eigenvalues(k_mat)
    assert eigvals.size == cfg.dim
    for lab in distinct_labels(1):
        lam = eigenvalue(lab, W0, GAM)
        assert np.min(np.abs(eigvals - lam)) <= 1e-8


def test_evolve_identity_and_eigenmode_decay():
    _, cfg, k_mat = kl_setup(28, gamma=0.5)
    f10 = expand(kl_eigenfunction(EigenLabel(1, 0, 1), B, W0, 0.5), cfg)
    assert_allclose(evolve_series(k_mat, f10, [0.0])[0], f10, atol=1e-14)
    t = 2.0
    moved = evolve_series(k_mat, f10, [t])[0]
    assert_allclose(moved, math.exp(-0.5 * t) * f10, atol=1e-10)


def test_evolve_preserves_trace_of_mixtures():
    state, cfg, k_mat = kl_setup(28, gamma=0.5)
    vec = expand(state, cfg) + 0.4 * expand(
        kl_eigenfunction(EigenLabel(1, 0, 1), B, W0, 0.5), cfg
    )
    t0, _ = trace_and_hermiticity(vec, cfg)
    t1, _ = trace_and_hermiticity(evolve_series(k_mat, vec, [3.0])[0], cfg)
    assert t1 == pytest.approx(t0, abs=1e-10)


def test_evolve_series_grid_handling():
    _, cfg, k_mat = kl_setup(20, gamma=0.5)
    f0 = expand(kl_eigenfunction(EigenLabel(1, 0, 1), B, W0, 0.5), cfg)
    times = np.linspace(0.0, 4.0, 5)
    rows = evolve_series(k_mat, f0, times)
    assert rows.shape == (5, cfg.dim)
    assert_allclose(rows[0], f0, atol=1e-12)
    assert_allclose(rows[-1], evolve_series(k_mat, f0, [4.0])[0], atol=1e-10)
    with pytest.raises(ValueError):
        evolve_series(k_mat, f0, np.array([0.0, 1.0, 3.0]))
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            evolve_series(k_mat, f0, [t])
    with pytest.raises(ValueError, match="must not be empty"):
        evolve_series(k_mat, f0, [])


TINY_GAMMA = 2.3447469302921906e-139


@pytest.mark.parametrize(
    "coeffs, preset, t_end",
    [
        (kl_coefficients(W0, TINY_GAMMA, B), ("kl", {"b": B}), 10.0 / TINY_GAMMA),
        (
            hpz_coefficients(1.0, TINY_GAMMA, 1.0, 0.2),
            ("hpz", {"omega0_prime": 1.0, "gamma": TINY_GAMMA, "b_hpz": 1.0, "d": 0.2}),
            10.0 / TINY_GAMMA,
        ),
        (kl_coefficients(W0, GAM, B), ("kl", {"b": B}), 1e308),
    ],
    ids=["kl-tiny-gamma", "hpz-tiny-gamma", "kl-t-1e308"],
)
def test_evolve_beyond_the_float_range_raises_typed_error(coeffs, preset, t_end):
    """The Taylor step count of the matrix exponential exceeds its budget;
    a one-point grid and an 81-point grid both raise EvolutionOverflow
    before scipy steps."""
    model, params = preset
    state, frame = stationary_preset(model, **params)
    cfg = BasisConfig(32, 32, frame)
    k_mat = assemble_matrix(assemble_liouvillian(coeffs), cfg)
    f0 = expand(state, cfg)
    with pytest.raises(EvolutionOverflow):
        evolve_series(k_mat, f0, [t_end])
    with pytest.raises(EvolutionOverflow):
        evolve_series(k_mat, f0, np.linspace(0.0, t_end, 81))


def test_refined_window_eigenvalues_small_case():
    gamma = 0.5
    state, _ = stationary_preset("kl", b=B)
    eigvals = refined_window_eigenvalues(
        kl_coefficients(W0, gamma, B), state, 24, 24, radius=1.2
    )
    expected = []
    for lab in distinct_labels(8):
        lam = eigenvalue(lab, W0, gamma)
        if abs(lam) <= 1.2:
            expected.append(lam)
    assert eigvals.size == len(expected) == 5
    for lam in expected:
        assert np.min(np.abs(eigvals - lam)) <= 1e-9


def test_stationary_similarity_refuses_a_gaussian_that_cannot_be_normalized():
    state = GaussianState(0.5, 0.0, -0.7)
    with pytest.raises(PositivityViolation):
        stationary_similarity(kl_coefficients(W0, GAM, B), state)
    with pytest.raises(PositivityViolation):
        refined_window_eigenvalues(kl_coefficients(W0, GAM, B), state, 12, 12, radius=4.0)


def test_refined_window_eigenvalues_rejects_non_stationary_state():
    state, _ = stationary_preset("kl", b=1.5)
    with pytest.raises(DegreeError):
        refined_window_eigenvalues(kl_coefficients(W0, GAM, B), state, 24, 24, radius=4.0)


@pytest.mark.parametrize("model", ["cl", "hpz"])
def test_refined_window_eigenvalues_cl_hpz(model):
    coeffs, params = MODELS[model]
    state, _ = stationary_preset(model, **params)
    h0, h1, h2 = coeffs.h
    omega0 = 0.5 * math.sqrt(h0 * h0 - h1 * h1 - h2 * h2)
    radius = 4.0 * max(omega0, coeffs.gamma)
    eigvals = refined_window_eigenvalues(coeffs, state, 20, 20, radius)
    analytic = np.array(
        [eigenvalue(lab, omega0, coeffs.gamma) for lab in distinct_labels(20)]
    )
    analytic = analytic[np.abs(analytic) <= radius]
    assert eigvals.size == analytic.size == 35
    for lam in eigvals:
        assert np.min(np.abs(analytic - lam)) <= 1e-6
    for lam in analytic:
        assert np.min(np.abs(eigvals - lam)) <= 1e-6


def test_biorthogonality_kl_low_modes():
    _, cfg, k_mat = kl_setup(32)
    modes = [kl_eigenfunction(lab, B, W0, GAM) for lab in distinct_labels(2)]
    report = biorthogonality_check(k_mat, modes, tol=1e-6)
    assert report.passed
    assert report.max_offdiag <= 1e-6
    assert report.gram.shape == (9, 9)
    assert_allclose(np.diag(report.gram_rescaled), np.ones(9), atol=1e-12)


def test_biorthogonality_single_mode():
    _, cfg, k_mat = kl_setup(16)
    report = biorthogonality_check(
        k_mat, [kl_eigenfunction(EigenLabel(0, 0, 1), B, W0, GAM)]
    )
    assert report.gram.shape == (1, 1)
    assert report.max_offdiag <= 1e-12
    assert report.passed


def test_biorthogonality_transported_modes():
    w0p, gam, b_cl = 1.0, 0.6, 1.0
    src = cl_coefficients(w0p, gam, b_cl)
    plan = reduce_to_kl(src, b_target=1.0)
    modes = [transformed_eigenfunction(plan, lab, src) for lab in distinct_labels(1)]
    cfg = BasisConfig(36, 36, modes[0].gaussian.frame())
    k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
    report = biorthogonality_check(k_mat, modes, tol=1e-6)
    assert report.passed


def test_biorthogonality_detects_wrong_spectrum():
    """Predicted eigenvalues from the wrong damping rate cannot pair up."""
    _, cfg, k_mat = kl_setup(24, gamma=0.8)
    bad_modes = [kl_eigenfunction(EigenLabel(1, 0, 1), B, W0, 0.3)]
    with pytest.raises(PairingFailure):
        biorthogonality_check(k_mat, bad_modes, tol=1e-6)
