"""Truncated-basis oracle: assembly, expansion, evolution, biorthogonality."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from klform import (
    AppliedEigenfunction,
    BasisConfig,
    BasisSizeError,
    CoordinateFrame,
    DegreeError,
    EigenLabel,
    EvolutionOverflow,
    FrameMismatch,
    GaussianState,
    KLFormError,
    LinearPhaseOperator,
    LiouvillianCoeffs,
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
    eigenvalues_in_window,
    evolve_series,
    expand,
    hpz_coefficients,
    kl_coefficients,
    reduce_to_kl,
    refined_window_eigenvalues,
    residual,
    stationary_preset,
    stationary_similarity,
    trace_and_hermiticity,
    transformed_eigenfunction,
)
from klform import verify
from klform.verify import (
    _GRADING_TOL,
    BandedMatrix,
    _DegreeEntries,
    OperatorMatrix,
    _check_grading,
    _ladder,
    _layout,
    _mode_coefficients,
    _pair_eigensystem,
)

from adjoint_oracle import linear_from_vector
from hermite_oracle import hermite_functions, reconstruct
from pairing_oracle import per_mode_pairing
from quadrature_oracle import quadrature_expand
from reference_fixtures import kl_eigenfunction
from symmetric_power_oracle import second_quantized, symmetric_power
from test_acceptance import criterion_02_source, random_scrambled_source

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
    x_dense, d_dense = _ladder(n).matrices
    assert not x_dense.flags.writeable and not d_dense.flags.writeable
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
    """Degree 2, that of every quadratic Liouvillian, is the cap: a cubic
    monomial, K @ K and a degree-5 monomial raise DegreeError."""
    cfg = BasisConfig(4, 4, CoordinateFrame(1.0, 1.0))
    op = assemble_liouvillian(kl_coefficients(W0, GAM, B))
    for bad in ({(3, 2, 0, 0): 1.0}, {(1, 0, 1, 1): 1.0}, (op @ op).terms):
        with pytest.raises(DegreeError, match="exceeds 2"):
            assemble_matrix(PhasePolyOperator(bad), cfg)


@pytest.mark.parametrize(
    "sizes", [(10.0, 10), (10, math.nan), (3, 10), (10, 3), (-4, 10), ("10", 10), (None, 10)]
)
def test_a_basis_size_that_is_no_integer_of_at_least_4_is_a_typed_error(sizes):
    """A float size, even an integral one, NaN, a size below 4, a string
    and None each raise BasisSizeError, which is a KLFormError and a
    ValueError, from BasisConfig itself."""
    with pytest.raises(BasisSizeError, match="not an integer of at least 4") as info:
        BasisConfig(*sizes, CoordinateFrame(1.0, 1.0))
    assert isinstance(info.value, KLFormError) and isinstance(info.value, ValueError)


def test_an_integer_basis_size_is_kept_as_an_int():
    cfg = BasisConfig(np.int64(6), np.int32(5), CoordinateFrame(1.0, 1.0))
    assert (type(cfg.n_q), type(cfg.n_r), cfg.dim) == (int, int, 30)
    assert cfg == BasisConfig(6, 5, CoordinateFrame(1.0, 1.0))


@pytest.mark.parametrize("sizes", [(10**8, 10**8), (10, 2**62)])
def test_a_basis_too_large_to_allocate_is_a_typed_error(sizes):
    """numpy refuses both bases before touching any memory: 1e8 x 1e8 with a
    MemoryError, 10 x 2^62 with a ValueError, past its largest array.
    assemble_matrix and expand raise BasisSizeError for both."""
    state, _ = stationary_preset("kl", omega0=W0, gamma=GAM, b=B)
    cfg = BasisConfig(*sizes, state.frame())
    k_op = assemble_liouvillian(kl_coefficients(W0, GAM, B))
    with pytest.raises(BasisSizeError, match="does not fit in memory"):
        assemble_matrix(k_op, cfg)
    with pytest.raises(BasisSizeError, match="does not fit in memory"):
        expand(state, cfg)


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


def commuting_pair(rng):
    """Two random degree-one operators, the second's r field solved so that
    their commutator dq1 q2 - q1 dq2 + dr1 r2 - r1 dr2 is zero."""
    b1, b2 = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
    b2[1] = (b1[0] * b2[2] + b1[1] * b2[3] - b1[2] * b2[0]) / b1[3]
    return linear_from_vector(b1), linear_from_vector(b2)


def test_expand_reconstruct_round_trip():
    """Words of degree up to 4 in a random commuting pair of degree-one
    operators, multiplications and derivatives mixed, applied to a Gaussian
    with and without a phase: the expansion evaluates to the product-rule
    polynomial (expanded_poly) times the Gaussian."""
    pair = commuting_pair(np.random.default_rng(77))
    q = np.linspace(-2.5, 2.5, 9)
    r = np.linspace(-1.8, 1.8, 8)
    for kappa in (0.0, 0.8):
        state = GaussianState(mu=0.3, kappa=kappa, nu=0.5)
        cfg = BasisConfig(20, 20, state.frame())
        for lab in distinct_labels(2):
            f = AppliedEigenfunction(label=lab, eigenvalue=0.0, raising=pair, gaussian=state)
            direct = f.evaluate(q[:, None], r[None, :])
            got = reconstruct(expand(f, cfg), cfg, q, r)
            assert_allclose(got, direct, atol=1e-10, err_msg=f"{kappa} {lab}")


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


def test_expand_raises_frame_mismatch():
    """Only a frame the Gaussian fits has its exact expansion; FrameMismatch
    is a typed error that warning filters may still name."""
    _, cfg, _ = kl_setup(10)
    off_state = GaussianState(mu=0.4, kappa=0.0, nu=0.6)
    with pytest.raises(FrameMismatch, match="does not match frame"):
        expand(off_state, cfg)
    assert issubclass(FrameMismatch, KLFormError)
    assert issubclass(FrameMismatch, UserWarning)


# the generic config of the CLI tests
GENERIC = LiouvillianCoeffs((2.2, 0.4, -0.3), 0.5, (-1.1, 0.2, 0.3))


def transported_modes(src, m_max):
    """The modes m <= m_max of src, transported by its plan to b = 1."""
    plan = reduce_to_kl(src, b_target=1.0)
    return [transformed_eigenfunction(plan, lab, src) for lab in distinct_labels(m_max)]


def test_expand_matches_the_quadrature_reference():
    """At 40x40 every mode m <= 4 of the presets, the generic config and
    criterion-02 sources 0-19 agrees with the Gauss-Hermite expansion to
    1e-13 of its largest coefficient; so do the presets' modes on a 6x5
    basis, whose degrees up to 8 pass its edge."""
    presets = [coeffs for coeffs, _ in MODELS.values()]
    sources = presets + [GENERIC] + [criterion_02_source(i) for i in range(20)]
    cases = [(src, 40, 40) for src in sources] + [(src, 6, 5) for src in presets]
    for i, (src, n_q, n_r) in enumerate(cases):
        modes = transported_modes(src, 4)
        cfg = BasisConfig(n_q, n_r, modes[0].gaussian.frame())
        for f in modes:
            ref = quadrature_expand(f, cfg)
            assert np.max(np.abs(expand(f, cfg) - ref)) <= 1e-13 * np.max(np.abs(ref)), (i, f.label)


def test_expand_is_exactly_zero_above_the_mode_degree():
    """A mode (m, n, sigma) is a polynomial of degree 2m - n times the
    frame's ground function: every coefficient of higher total degree
    j + k is exactly 0.0, and the top degree is occupied."""
    rng = np.random.default_rng(630948696)
    draw_432 = [random_scrambled_source(rng) for _ in range(433)][432]
    sources = [coeffs for coeffs, _ in MODELS.values()] + [GENERIC, draw_432]
    degree = np.add.outer(np.arange(24), np.arange(24))
    for i, src in enumerate(sources):
        modes = transported_modes(src, 3)
        cfg = BasisConfig(24, 24, modes[0].gaussian.frame())
        for f in modes:
            top = 2 * f.label.m - f.label.n
            vec = expand(f, cfg).reshape(24, 24)
            assert np.all(vec[degree > top] == 0.0), (i, f.label)
            assert np.any(vec[degree == top] != 0.0), (i, f.label)


def test_residual_zero_vector_rejected():
    _, cfg, k_mat = kl_setup(8)
    with pytest.raises(ZeroVector):
        residual(k_mat, np.zeros(cfg.dim, dtype=complex), 0.0)


def full_product_residual(k_mat, vec, lam):
    """|K v - lam v| / |v| with K v the product over every row."""
    return float(np.linalg.norm(k_mat.matrix @ vec - lam * vec)) / float(np.linalg.norm(vec))


def test_residual_equals_the_full_product_on_the_criterion_02_modes():
    """The 9 modes m <= 2 of the 100 criterion-02 sources at 40x40, by ==."""
    rng = np.random.default_rng(20260816)
    for index in range(100):
        src = random_scrambled_source(rng)
        modes = transported_modes(src, 2)
        cfg = BasisConfig(40, 40, modes[0].gaussian.frame())
        k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
        for f in modes:
            vec = expand(f, cfg)
            want = full_product_residual(k_mat, vec, f.eigenvalue)
            assert residual(k_mat, vec, f.eigenvalue) == want, (index, f.label)


@pytest.mark.parametrize("n_q, n_r", [(12, 12), (9, 14), (15, 7)])
def test_residual_equals_the_full_product_on_any_support(n_q, n_r):
    """The generic config's modes m <= 2, and random vectors with full
    support, with support ending anywhere, and with its last entry within
    the largest band offset of the end, on square and rectangular bases,
    by ==."""
    rng = np.random.default_rng(n_q * 100 + n_r)
    modes = transported_modes(GENERIC, 2)
    cfg = BasisConfig(n_q, n_r, modes[0].gaussian.frame())
    k_mat = assemble_matrix(assemble_liouvillian(GENERIC), cfg)
    for f in modes:
        vec = expand(f, cfg)
        assert residual(k_mat, vec, f.eigenvalue) == full_product_residual(k_mat, vec, f.eigenvalue)
    dim, pad = n_q * n_r, max(abs(s * n_r + t) for s, t in k_mat.matrix.bands)
    ends = [dim, dim - 1, *range(dim - pad, dim), *rng.integers(1, dim, 20), 1]
    for end in ends:
        vec = np.zeros(dim, dtype=complex)
        vec[:end] = rng.normal(size=end) + 1j * rng.normal(size=end)
        vec[: end - 1] *= rng.random(end - 1) < 0.7  # interior zeros, signed too
        vec[: end - 1] *= rng.choice([-1.0, 1.0], end - 1)
        lam = complex(*rng.normal(size=2))
        assert residual(k_mat, vec, lam) == full_product_residual(k_mat, vec, lam), end


def test_residual_of_a_matrix_with_an_infinite_entry_past_the_reach_is_not_finite():
    """inf * 0 is NaN: a row the vector does not reach still spoils the
    residual when its entry is infinite, as in the full product."""
    _, cfg, k_mat = kl_setup(8)
    vec = expand(kl_eigenfunction(EigenLabel(0, 0), B, W0, GAM), cfg)
    top = np.add.outer(np.arange(8), np.arange(8)).reshape(-1)[vec != 0].max()
    for value in (np.inf, np.nan):
        bands = {key: band.copy() for key, band in k_mat.matrix.bands.items()}
        bands[(0, 0)][7, 7] = value
        spoiled = replace(k_mat, matrix=BandedMatrix(bands, 8, 8))
        assert 7 + 7 > top + spoiled.matrix._layout.lift
        with np.errstate(invalid="ignore"):
            assert not math.isfinite(residual(spoiled, vec, 0.0))
            assert not math.isfinite(full_product_residual(spoiled, vec, 0.0))


@pytest.mark.parametrize("entry", ["residual", "matmul", "evolve_series"])
def test_a_vector_that_does_not_fit_is_a_typed_error(entry):
    """A (10,) vector against the 64x64 matrix of kl raises BasisSizeError,
    a KLFormError and a ValueError, from residual, `@` and evolve_series's
    f0 alike; a zero vector of the wrong shape is refused for its shape."""
    _, _, k_mat = kl_setup(8)
    calls = {
        "residual": lambda vec: residual(k_mat, vec, 0.0),
        "matmul": lambda vec: k_mat.matrix @ vec,
        "evolve_series": lambda vec: evolve_series(k_mat, vec, [0.0, 1.0]),
    }
    for vec in (np.ones(10), np.zeros(10), np.ones((8, 8)), 1.0):
        fit = r"of shape .* does not fit a \(64, 64\) matrix"
        with pytest.raises(BasisSizeError, match=fit) as info:
            calls[entry](vec)
        assert isinstance(info.value, KLFormError) and isinstance(info.value, ValueError)


def test_bands_and_vectors_that_do_not_fit_the_basis_are_typed_errors():
    """A band whose shape is not the basis's, flat or square or of another
    size, raises BasisSizeError from BandedMatrix, as a vector that does not
    fit does from trace_and_hermiticity; both are KLFormErrors and
    ValueErrors."""
    for band in (np.ones((3, 3)), np.ones(16), np.ones((4, 5)), np.ones(4)):
        with pytest.raises(BasisSizeError, match="do not fit the 4 x 4 basis") as info:
            BandedMatrix({(0, 0): np.ones((4, 4)), (0, 1): band}, 4, 4)
        assert isinstance(info.value, KLFormError) and isinstance(info.value, ValueError)
    _, cfg, _ = kl_setup(12)
    for vec in (np.ones(10), np.ones((12, 12)), np.ones(145)):
        fit = r"of shape .* does not fit the 12 x 12 basis"
        with pytest.raises(BasisSizeError, match=fit) as info:
            trace_and_hermiticity(vec, cfg)
        assert isinstance(info.value, KLFormError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "times",
    [[0.0, math.nan], [0.0, math.inf], [[0.0, 1.0]], [math.nan], [-math.inf, 0.0, 1.0], 0.0],
    ids=["nan-last", "inf-last", "2-d", "nan-alone", "inf-first", "0-d"],
)
def test_evolve_series_rejects_a_grid_not_finite_or_not_1d_first(times):
    """On kl at 12x12 from its ground function, a grid with a t that is not
    finite, or that is not 1-D, raises the one ValueError before any other
    check, an f0 that does not fit included: not the uniformity rule, not
    EvolutionOverflow from an inf times the generator's zero norm, and no
    TypeError."""
    state, cfg, k_mat = kl_setup(12)
    for f0 in (expand(state, cfg), np.ones(10)):
        with pytest.raises(ValueError, match="must be 1-D, and each t must be finite") as info:
            evolve_series(k_mat, f0, times)
        assert type(info.value) is ValueError


def shifted_per_band_product(mat, vec):
    """K vec by the definition of the bands: out = 0, then out += band *
    shifted for each band in shift order, shifted the vector moved onto the
    band's columns, zero where a column leaves the basis."""
    n_q, n_r = mat.n_q, mat.n_r
    grid = vec.reshape(n_q, n_r)
    out = np.zeros((n_q, n_r), dtype=complex)
    for (s, t), band in zip(mat._shifts, mat._stack):
        shifted = np.zeros((n_q, n_r), dtype=complex)
        rows = np.s_[max(0, -s) : max(0, n_q - max(0, s)), max(0, -t) : max(0, n_r - max(0, t))]
        cols = np.s_[max(0, s) : max(0, n_q + min(0, s)), max(0, t) : max(0, n_r + min(0, t))]
        shifted[rows] = grid[cols]
        out += band * shifted
    return out.reshape(-1)


def signed_zeros(rng, arr):
    """arr with about a third of its entries, real and imaginary parts
    apart, set to +0.0 or -0.0."""
    out = np.array(arr, dtype=complex)
    parts = out.view(np.float64)
    zero = rng.random(parts.shape) < 0.35
    parts[zero] = np.copysign(0.0, rng.choice([-1.0, 1.0], parts.shape))[zero]
    return out


def same_bits_but_nan(got, want):
    """Equal bit for bit, each NaN float but its sign and payload, which
    depend on the operand order a compiled add of two NaNs takes."""
    got, want = got.view(np.float64), want.view(np.float64)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def vectors_of_every_top_degree(rng, n_q, n_r):
    """For each top degree D of the basis a random complex vector that is
    exactly zero above degree D, with signed zeros below it."""
    degree = np.add.outer(np.arange(n_q), np.arange(n_r)).reshape(-1)
    for top in range(n_q + n_r - 1):
        vec = rng.normal(size=n_q * n_r) + 1j * rng.normal(size=n_q * n_r)
        vec = signed_zeros(rng, vec)
        vec[degree == top] += 1.0  # the top degree occupied
        vec[degree > top] = 0.0
        yield top, vec


@pytest.mark.parametrize("n_q, n_r", [(1, 1), (1, 5), (4, 4), (6, 5), (3, 9)])
def test_the_gathered_product_equals_the_per_band_reference(n_q, n_r):
    """`@` is the per-band sum bit for bit, signed zeros included: random
    complex bands of every shift a quadratic operator fills, with signed
    zeros, NaN and inf entries, entries whose column leaves the basis (read
    against zero), no (0, 0) band and a single band, on square, rectangular
    and one-row bases, against vectors of every top degree and a vector of
    signed zeros."""
    rng = np.random.default_rng(n_q * 31 + n_r)
    shifts = [(s, t) for s in range(-2, 3) for t in range(-2, 3) if abs(s) + abs(t) <= 2]
    for case in range(10):
        chosen = sorted(st for st in shifts if rng.random() < 0.7 and (case % 3 or st != (0, 0)))
        if case >= 8:  # one band: a row's sum of its one signed zero is +0.0
            chosen = [shifts[rng.integers(len(shifts))]]
        shape = (len(chosen), n_q, n_r)
        stack = signed_zeros(rng, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        spoilers = {5: [complex(np.inf, 1.0)], 6: [complex(0.0, np.nan)], 7: [np.inf, np.nan]}
        for value in spoilers.get(case, []) if stack.size else []:
            stack.reshape(-1)[rng.integers(stack.size)] = value
        mat = BandedMatrix._of_stack(chosen, stack)
        zeros = np.copysign(0.0, rng.choice([-1.0, 1.0], 2 * n_q * n_r)).view(complex)
        for top, vec in [*vectors_of_every_top_degree(rng, n_q, n_r), (-1, zeros)]:
            with np.errstate(invalid="ignore"):
                got, want = mat @ vec, shifted_per_band_product(mat, vec)
            assert same_bits_but_nan(got, want), (case, top)


@pytest.mark.parametrize("n_q, n_r", [(5, 5), (4, 7), (8, 4)])
def test_the_residual_rows_rule_holds_on_matrices_that_are_not_graded(n_q, n_r):
    """Random bands of every shift, those that raise the degree by up to 2
    too, with no zero forced anywhere but outside the basis: the residual
    over the rows of degree <= top + lift equals the full product's, by ==,
    on vectors of every top degree."""
    rng = np.random.default_rng(n_q * 7 + n_r)
    cfg = BasisConfig(n_q, n_r, CoordinateFrame(1.0, 1.0))
    for case in range(6):
        bands = random_bands(rng, n_q, n_r, real=case % 2 == 1)
        k_mat = OperatorMatrix(BandedMatrix(bands, n_q, n_r), cfg)
        for top, vec in vectors_of_every_top_degree(rng, n_q, n_r):
            lam = complex(*rng.normal(size=2))
            assert residual(k_mat, vec, lam) == full_product_residual(k_mat, vec, lam), (case, top)


def test_residual_multiplies_only_the_rows_a_mode_reaches(monkeypatch):
    """On kl at 40x40 the product of each mode m <= 2 runs on the rows of
    degree <= its top degree + 2, 6 to 28 of the 1,600."""
    _, cfg, k_mat = kl_setup(40)
    seen = []
    row_product = verify._row_product

    def counted(entries, columns, vec):
        seen.append(entries.shape[1])
        return row_product(entries, columns, vec)

    monkeypatch.setattr(verify, "_row_product", counted)
    src = kl_coefficients(W0, GAM, B)
    plan = reduce_to_kl(src, b_target=B)
    for lab in distinct_labels(2):
        mode = transformed_eigenfunction(plan, lab, src)
        residual(k_mat, expand(mode, cfg), mode.eigenvalue)
        top = 2 * lab.m - lab.n + 2
        assert seen.pop() == (top + 1) * (top + 2) // 2, lab


def test_the_taylor_steps_sum_as_the_per_band_loop(monkeypatch):
    """evolve_series from the CLI's evolve start on kl and on a generic
    source gives the same bits with its product replaced by the loop
    out = 0, out += entries[b] * vector[columns[b]] for each band b."""
    for src in (kl_coefficients(W0, GAM, B), GENERIC):
        plan = reduce_to_kl(src, b_target=1.0)
        state, _ = plan.transport(src)
        seed = transformed_eigenfunction(plan, EigenLabel(1, 0, 1), src)
        cfg = BasisConfig(40, 40, state.frame())
        k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
        v_seed = expand(seed, cfg)
        f0 = expand(state, cfg) + 0.2 * v_seed / np.linalg.norm(v_seed)
        times = np.linspace(0.0, 10.0 / src.gamma, 81)
        got = evolve_series(k_mat, f0, times)

        calls = []

        def looped(entries, columns, vec):
            calls.append(vec.size)
            extended = np.append(vec, 0.0)
            out = np.zeros(entries.shape[1], dtype=complex)
            for band, cols in zip(entries, columns):
                out += band * extended[cols]
            return out

        monkeypatch.setattr(verify, "_row_product", looped)
        assert got.tobytes() == evolve_series(k_mat, f0, times).tobytes()
        assert len(calls) > 100 and set(calls) == {9}  # the 3x3 functions of degree <= 2
        monkeypatch.undo()


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


@pytest.mark.parametrize("n_q, n_r", [(12, 12), (14, 9)], ids=["square", "rectangular"])
@pytest.mark.parametrize("kappa", [0.0, 0.7], ids=["plain", "phased"])
def test_hermiticity_defect_bounds_the_reflection_everywhere(n_q, n_r, kappa):
    """The defect bounds |f(Q, -r) - conj f(Q, r)| far beyond the frame:
    on a 241x241 grid out to eight frame scales, where the highest Hermite
    functions of the basis peak past three scales."""
    frame = CoordinateFrame(1.3, 0.6, kappa)
    cfg = BasisConfig(n_q, n_r, frame)
    rng = np.random.default_rng(n_q + n_r)
    vec = rng.normal(size=cfg.dim) + 1j * rng.normal(size=cfg.dim)
    _, defect = trace_and_hermiticity(vec, cfg)
    scales = np.linspace(-8.0, 8.0, 241)
    q, r = frame.s_q * scales, scales / frame.s_r
    gap = reconstruct(vec, cfg, q, -r) - reconstruct(vec, cfg, q, r).conj()
    assert defect >= np.max(np.abs(gap)) > 0.0


def test_hermite_functions_obey_indritz_bound():
    """|psi_j(u)| <= pi^(-1/4) for every j and u (Indritz 1961), the bound
    behind the hermiticity defect."""
    psi = hermite_functions(np.linspace(-14.0, 14.0, 2801), 64)
    assert np.max(np.abs(psi)) <= math.pi**-0.25 * (1.0 + 1e-12)


def test_psi_at_zero_equals_the_recurrence():
    """The closed form runs the recurrence's product at u = 0, bit for bit
    but for the sign of the zeros at odd j, which == does not tell apart,
    and is read-only."""
    for n in range(4, 201):
        at_zero = _ladder(n).at_zero
        assert (at_zero == hermite_functions(np.zeros(1), n)[0]).all(), n
        assert not at_zero.flags.writeable


def test_trace_covector_is_the_fourier_image_of_psi_at_zero():
    """The Hermite functions are eigenfunctions of the Fourier transform,
    integral psi_j(u) exp(-i k u) du = sqrt(2 pi) (-i)^j psi_j(k), so the
    trace parts are their values at k = 0 times sqrt(2 pi) (-i)^j."""
    for n in range(4, 201):
        phase = np.array([1.0, -1.0j, -1.0, 1.0j])[np.arange(n) % 4]
        fourier = math.sqrt(2.0 * math.pi) * phase * hermite_functions(np.zeros(1), n)[0]
        gap = np.abs(_ladder(n).trace - fourier)
        assert (gap <= 1e-15 * np.abs(fourier)).all(), n


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
    modes = [kl_eigenfunction(lab, B, W0, GAM) for lab in distinct_labels(1)]
    with pytest.raises(DegreeError, match="raises the Hermite degree"):
        biorthogonality_check(k_mat, modes)
    # an evolution may keep to the degrees of its start only on a graded matrix
    ground = np.eye(cfg.dim)[0]
    with pytest.raises(DegreeError, match="raises the Hermite degree"):
        evolve_series(k_mat, ground, [1.0])
    assert np.all(np.isfinite(evolve_series(k_mat, np.ones(cfg.dim), [1.0])))


def test_non_finite_entries_fail_the_grading_check():
    """A NaN entry is no roundoff: the check must not let it reach numpy."""
    state, frame = stationary_preset("kl", b=B)
    op = assemble_liouvillian(kl_coefficients(W0, GAM, B))
    op = op + PhasePolyOperator({(1, 0, 1, 0): float("nan")})
    k_mat = assemble_matrix(op, BasisConfig(8, 8, frame))
    with pytest.raises(DegreeError):
        all_eigenvalues(k_mat)
    modes = [kl_eigenfunction(lab, B, W0, GAM) for lab in distinct_labels(1)]
    with pytest.raises(DegreeError):
        biorthogonality_check(k_mat, modes)
    # an infinite entry passes the roundoff test: it reached LAPACK (an
    # untyped LinAlgError) and gave the pairing a max_offdiag of NaN
    for shift, at, check in (
        ((1, -1), (0, 1), all_eigenvalues),
        ((0, 0), (1, 0), lambda k: biorthogonality_check(k, modes)),
    ):
        k_mat = kl_setup(8)[2]
        k_mat.matrix.bands[shift][at] = math.inf
        with pytest.raises(DegreeError, match="infinite entry"):
            check(k_mat)


@pytest.mark.parametrize(
    "shift",
    [(-1, -1), (0, 0), (1, 1), (1, -1)],
    ids=["raising", "keeping", "lowering", "keeping-across"],
)
def test_a_nan_in_any_band_fails_the_grading_check(shift):
    """Every reader of the grading raises on a NaN or an infinite entry
    written into one band, whichever way that band moves the degree: the
    maximum over the per-band maxima must keep the NaN, and an infinite
    maximum, which passes the roundoff test, fails on its own."""
    modes = [kl_eigenfunction(lab, B, W0, GAM) for lab in distinct_labels(1)]
    cases = [(math.nan, "raises the Hermite degree")]
    cases += [(value, "infinite entry") for value in (math.inf, -math.inf)]
    for value, message in cases:
        _, cfg, k_mat = kl_setup(8)
        k_mat.matrix.bands[shift][3, 3] = value
        for check in (all_eigenvalues, lambda k: eigenvalues_in_window(k, 4.0)):
            with pytest.raises(DegreeError, match=message):
                check(k_mat)
        with pytest.raises(DegreeError, match=message):
            biorthogonality_check(k_mat, modes)
        # a start below the top degree keeps to its degrees, which needs the grading
        with pytest.raises(DegreeError, match=message):
            evolve_series(k_mat, np.eye(cfg.dim)[0], [1.0])


def assert_low_degree_spectrum(k_mat):
    """all_eigenvalues is, within 1e-9 both ways, the dense spectrum of the
    matrix restricted to degrees below m = min(n_q, n_r), an invariant
    subspace of a graded matrix: m (m + 1) / 2 eigenvalues."""
    mat = k_mat.matrix
    top = min(mat.n_q, mat.n_r)
    degree = np.add.outer(np.arange(mat.n_q), np.arange(mat.n_r)).reshape(-1)
    low = np.flatnonzero(degree < top)
    dense = np.linalg.eigvals(mat.toarray()[np.ix_(low, low)])
    eigvals = all_eigenvalues(k_mat)
    assert eigvals.size == dense.size == top * (top + 1) // 2
    gaps = np.abs(eigvals[:, None] - dense[None, :])
    assert np.max(np.min(gaps, axis=1)) <= 1e-9
    assert np.max(np.min(gaps, axis=0)) <= 1e-9
    return eigvals


@pytest.mark.parametrize("n_q, n_r", [(14, 9), (9, 14)])
def test_all_eigenvalues_on_a_rectangular_basis(n_q, n_r):
    """A rectangular basis holds whole the degree blocks below its shorter
    side, and the stacked solve keeps the per-block bits there too."""
    _, frame = stationary_preset("kl", b=B)
    cfg = BasisConfig(n_q, n_r, frame)
    k_mat = assemble_matrix(assemble_liouvillian(kl_coefficients(W0, GAM, B)), cfg)
    assert_low_degree_spectrum(k_mat)
    assert_stacked_solve_is_per_block(k_mat, 4.0 * max(W0, GAM))


def test_all_eigenvalues_contains_low_spectrum():
    _, _, k_mat = kl_setup(24)
    eigvals = assert_low_degree_spectrum(k_mat)
    for lab in distinct_labels(1):
        lam = eigenvalue(lab, W0, GAM)
        assert np.min(np.abs(eigvals - lam)) <= 1e-8


def assert_real_form(k_mat):
    """The degree-preserving entries of S^-1 M S, S = diag(i^k), have imaginary
    part exactly 0.0, and all_eigenvalues is complex128 and closed under
    conjugation bit for bit; returns the eigenvalues."""
    for (s, t), band in k_mat.matrix.bands.items():
        # band (s, t) keeps the degree when s + t = 0, and moves k by t
        if s + t == 0:
            assert np.all((band * [1, 1j, -1, -1j][t % 4]).imag == 0.0)
    eigvals = all_eigenvalues(k_mat)
    assert eigvals.dtype == np.complex128
    assert np.array_equal(np.sort_complex(eigvals), np.sort_complex(eigvals.conj()))
    return eigvals


@pytest.mark.parametrize(
    "model, n, even_degrees", [("kl", 32, 16), ("cl", 24, 12), ("hpz", 24, 12)]
)
def test_degree_blocks_are_real_after_the_similarity_diag_i_to_the_k(model, n, even_degrees):
    """A Liouvillian keeps functions Hermitian, so its blocks are real in the
    frame diag(i^k): each even degree 2m holds one real eigenvalue, m gamma,
    exactly real, and every other eigenvalue has its exact conjugate."""
    coeffs, params = MODELS[model]
    _, frame = stationary_preset(model, **params)
    k_mat = assemble_matrix(assemble_liouvillian(coeffs), BasisConfig(n, n, frame))
    eigvals = assert_real_form(k_mat)
    assert np.count_nonzero(eigvals.imag == 0.0) == even_degrees


def test_degree_blocks_of_the_criterion_02_sources_are_real():
    """The same on the 100 criterion-02 sources at 32x32, whose frames carry
    the phase of their stationary Gaussian."""
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        src = random_scrambled_source(rng)
        plan = reduce_to_kl(src, b_target=1.0)
        state = transformed_eigenfunction(plan, EigenLabel(0, 0, 1), src).gaussian
        cfg = BasisConfig(32, 32, state.frame())
        assert_real_form(assemble_matrix(assemble_liouvillian(src), cfg))


def test_all_eigenvalues_rejects_a_matrix_that_breaks_hermiticity():
    """An imaginary constant keeps the grading but not the conjugation
    symmetry of the spectrum, so the blocks have no real form; a real
    constant shifts the spectrum by itself."""
    _, cfg, k_mat = kl_setup(24)
    k_op = assemble_liouvillian(kl_coefficients(W0, GAM, B))
    broken = assemble_matrix(k_op + PhasePolyOperator({(0, 0, 0, 0): 0.25j}), cfg)
    assert degree_raising_ratio(broken) <= _GRADING_TOL
    with pytest.raises(DegreeError, match="hermiticity"):
        all_eigenvalues(broken)
    shifted = assemble_matrix(k_op + PhasePolyOperator({(0, 0, 0, 0): 0.25}), cfg)
    eigvals, moved = all_eigenvalues(k_mat), all_eigenvalues(shifted)
    assert moved.size == eigvals.size
    assert nearest_gap(moved, eigvals + 0.25) <= 1e-12


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


def test_evolve_series_keeps_to_the_degrees_of_its_start():
    """The stationary state plus a seed occupies degrees <= 2: on kl at
    40x40 the rows are exactly zero above them, and equal the rows of the
    same evolution on a 4x4 basis, which holds those degrees whole."""
    rows = {}
    for n in (40, 4):
        state, cfg, k_mat = kl_setup(n)
        seed = expand(kl_eigenfunction(EigenLabel(1, 0, 1), B, W0, GAM), cfg)
        f0 = expand(state, cfg) + 0.2 * seed
        times = np.linspace(0.0, 10.0 / GAM, 81)
        rows[n] = evolve_series(k_mat, f0, times).reshape(times.size, n, n)
    degree = np.add.outer(np.arange(40), np.arange(40))
    assert np.any(rows[40][0][degree == 2] != 0.0)
    assert np.all(rows[40][:, degree > 2] == 0.0)
    padded = np.zeros_like(rows[40])
    padded[:, :4, :4] = rows[4]
    for got, ref in zip(rows[40], padded):
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def test_evolve_series_on_matrices_without_a_diagonal_band():
    """The generator takes its shift on a diagonal band that a hand-built
    matrix may lack: the zero matrix with no band keeps f0, and a lone
    lowering band (1, 0), nilpotent, moves psi_1 psi_0 to -t psi_0 psi_0."""
    n = 5
    frame = CoordinateFrame(1.0, 1.0)
    f0 = np.zeros(n * n, dtype=complex)
    f0[n] = 1.0
    times = np.array([0.0, 0.5, 1.0])
    zero = OperatorMatrix(BandedMatrix({}, n, n), BasisConfig(n, n, frame))
    assert np.array_equal(evolve_series(zero, f0, times), np.tile(f0, (3, 1)))
    lowering = OperatorMatrix(
        BandedMatrix(in_basis({(1, 0): np.ones((n, n))}, n, n), n, n), BasisConfig(n, n, frame)
    )
    want = np.tile(f0, (3, 1))
    want[:, 0] = -times
    assert np.allclose(evolve_series(lowering, f0, times), want, rtol=0.0, atol=1e-15)


def per_band_generator_norm(gen):
    """The 1-norm of a generator as the per-band loop sums it: each column's
    moduli added band by band, in shift order, from zero."""
    norms = np.zeros((gen.n_q, gen.n_r))
    for (s, t), band in gen.bands.items():
        rows = verify._span(gen.n_q, s), verify._span(gen.n_r, t)
        norms[verify._span(gen.n_q, -s), verify._span(gen.n_r, -t)] += np.abs(band[rows])
    return float(norms.max())


def test_the_generator_norm_is_the_largest_column_sum():
    """The evolution's 1-norm, which sets the Taylor step count, equals the
    per-band loop's bit for bit and the dense matrix's largest column sum to
    1e-15 of it: on the presets from the start of `klform evolve`, and on
    random graded bands whose largest row sum is 20% or more off it."""
    cases = []
    for name in ("kl", "cl", "hpz"):
        src = MODELS[name][0]
        plan = reduce_to_kl(src, b_target=1.0)
        steady = transformed_eigenfunction(plan, EigenLabel(0, 0, 1), src)
        seed = transformed_eigenfunction(plan, EigenLabel(1, 0, 1), src)
        cfg = BasisConfig(24, 24, steady.gaussian.frame())
        k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
        cases.append((k_mat.matrix, expand(steady, cfg) + 0.2 * expand(seed, cfg)))
    rng = np.random.default_rng(7)
    shifts = [(0, 0), (1, -1), (-1, 1), (1, 1), (2, 0), (0, 2)]
    for n_q, n_r in ((6, 6), (5, 8)):
        bands = {st: rng.normal(size=(n_q, n_r)) + 1j * rng.normal(size=(n_q, n_r)) for st in shifts}
        bands = {(s, t): band * np.arange(1, n_r + 1) ** 2 for (s, t), band in bands.items()}
        cases.append((BandedMatrix(in_basis(bands, n_q, n_r), n_q, n_r), np.ones(n_q * n_r)))
    for mat, f0 in cases:
        gen, _, norm = verify._shifted_generator(mat, mat._fit(f0))
        assert norm == per_band_generator_norm(gen)
        dense = np.abs(gen.toarray())
        assert abs(norm - dense.sum(axis=0).max()) <= 1e-15 * norm
    assert abs(dense.sum(axis=1).max() - norm) >= 0.2 * norm


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
    with pytest.raises(ValueError, match="does not fit"):
        evolve_series(k_mat, f0[:-1], times)


@pytest.mark.parametrize(
    "model", ["kl", "cl", "hpz", "generic", *(f"c02-{i}" for i in (0, 1, 2, 3, 4, 87))]
)
def test_evolve_series_matches_expm_multiply(model):
    """scipy's expm_multiply (Al-Mohy & Higham's algorithm) on the whole
    basis is the oracle of the Taylor integrator, which keeps to the degrees
    its start occupies: on an 81-point grid from 0, a one-point grid and a
    grid starting at t > 0, every row agrees to 1e-12 of its norm."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import expm_multiply

    if model == "generic":
        coeffs = GENERIC
    elif model.startswith("c02-"):
        coeffs = criterion_02_source(int(model[4:]))
    else:
        coeffs = MODELS[model][0]
    plan = reduce_to_kl(coeffs, b_target=1.0)
    steady = transformed_eigenfunction(plan, EigenLabel(0, 0, 1), coeffs)
    seed = transformed_eigenfunction(plan, EigenLabel(1, 1, 1), coeffs)
    cfg = BasisConfig(24, 24, steady.gaussian.frame())
    k_mat = assemble_matrix(assemble_liouvillian(coeffs), cfg)
    f0 = expand(steady, cfg) + 0.3 * expand(seed, cfg)
    gen = -csc_matrix(k_mat.matrix.toarray())
    span = 10.0 / coeffs.gamma
    grids = [np.linspace(0.0, span, 81), np.array([0.37 * span]), np.linspace(2.0, 9.0, 15)]
    for times in grids:
        if times.size == 1:
            expected = expm_multiply(times[0] * gen, f0)[None, :]
        else:
            expected = expm_multiply(
                gen, f0, start=times[0], stop=times[-1], num=times.size, endpoint=True
            )
        got = evolve_series(k_mat, f0, times)
        assert got.shape == expected.shape
        for row, ref in zip(got, expected):
            assert np.linalg.norm(row - ref) <= 1e-12 * np.linalg.norm(ref), times


def test_evolve_series_stops_at_the_first_step_that_leaves_the_float_range(monkeypatch):
    """A start near the largest float overflows in the first Taylor step
    after t = 0; the integrator raises there instead of spending the rest
    of the grid's steps on inf and NaN."""
    _, cfg, k_mat = kl_setup(20, gamma=0.5)
    f0 = np.full(cfg.dim, 1e308)
    products = []
    row_product = verify._row_product

    def counted(*args):
        products.append(1)
        return row_product(*args)

    monkeypatch.setattr(verify, "_row_product", counted)
    with pytest.raises(EvolutionOverflow, match="float range"):
        evolve_series(k_mat, f0, np.linspace(0.0, 50.0, 81))
    # one Taylor step takes at most 55 products; the grid asks for hundreds of steps
    assert 0 < len(products) <= 55


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
    """From the stationary state plus a seed, as `klform evolve` starts, the
    Taylor step count exceeds its budget: a one-point grid and an 81-point
    grid both raise EvolutionOverflow before stepping.  The stationary state
    alone occupies degree 0, where the shifted generator vanishes, so it
    takes no step and returns itself."""
    model, params = preset
    state, frame = stationary_preset(model, **params)
    cfg = BasisConfig(32, 32, frame)
    k_mat = assemble_matrix(assemble_liouvillian(coeffs), cfg)
    plan = reduce_to_kl(coeffs, b_target=1.0)
    seed = transformed_eigenfunction(plan, EigenLabel(1, 0, 1), coeffs)
    steady = expand(state, cfg)
    f0 = steady + 0.2 * expand(seed, cfg)
    with pytest.raises(EvolutionOverflow):
        evolve_series(k_mat, f0, [t_end])
    with pytest.raises(EvolutionOverflow):
        evolve_series(k_mat, f0, np.linspace(0.0, t_end, 81))
    moved = evolve_series(k_mat, steady, [t_end])[0]
    assert np.linalg.norm(moved - steady) <= 1e-14 * np.linalg.norm(steady)


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


def window_spectrum(model):
    """Coefficients, stationary state, window radius 4 max(omega0, gamma)
    and the closed-form eigenvalues inside it of a reference model."""
    coeffs, params = MODELS[model]
    state, _ = stationary_preset(model, **params)
    h0, h1, h2 = coeffs.h
    omega0 = 0.5 * math.sqrt(h0 * h0 - h1 * h1 - h2 * h2)
    radius = 4.0 * max(omega0, coeffs.gamma)
    analytic = np.array(
        [eigenvalue(lab, omega0, coeffs.gamma) for lab in distinct_labels(20)]
    )
    return coeffs, state, radius, analytic[np.abs(analytic) <= radius]


def nearest_gap(a, b):
    """Largest distance from a point of either set to the nearest of the other."""
    gap = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return max(gap.min(axis=0).max(), gap.min(axis=1).max())


@pytest.mark.parametrize("model", ["cl", "hpz"])
def test_refined_window_eigenvalues_cl_hpz(model):
    coeffs, state, radius, analytic = window_spectrum(model)
    eigvals = refined_window_eigenvalues(coeffs, state, 20, 20, radius)
    assert eigvals.size == analytic.size == 35
    assert nearest_gap(eigvals, analytic) <= 1e-6


@pytest.mark.parametrize(
    "model, n", [("kl", 28), ("kl", 32), ("kl", 48), ("cl", 24), ("hpz", 24)]
)
def test_refined_window_eigenvalues_match_the_half_gaussian_route(model, n):
    """The matched frame and the stationary similarity give the same degree
    blocks up to a similarity.  The unpadded ladder products left kl at
    28x28 with 81 window eigenvalues."""
    coeffs, state, radius, analytic = window_spectrum(model)
    eigvals = refined_window_eigenvalues(coeffs, state, n, n, radius)
    op, frame = stationary_similarity(coeffs, state)
    reference = eigenvalues_in_window(assemble_matrix(op, BasisConfig(n, n, frame)), radius)
    assert eigvals.size == reference.size == analytic.size
    assert nearest_gap(eigvals, reference) <= 1e-12
    assert nearest_gap(eigvals, analytic) <= 1e-12


def closed_forms_in_disk(omega0, gamma, radius):
    """Closed-form eigenvalues with |lambda| <= radius and their degrees
    2m - n.  |lambda| bounds both (m - n/2) gamma >= m gamma / 2 and
    n omega0, so the labels below those bounds are all of them."""
    labels = [
        EigenLabel(m, n, sigma)
        for m in range(int(2.0 * radius / gamma) + 1)
        for n in range(min(m, int(radius / omega0)) + 1)
        for sigma in ((1,) if n == 0 else (1, -1))
    ]
    lam = np.array([eigenvalue(lab, omega0, gamma) for lab in labels])
    degree = np.array([2 * lab.m - lab.n for lab in labels])
    inside = np.abs(lam) <= radius
    return lam[inside], degree[inside]


def test_window_holds_only_the_closed_forms_of_the_exact_blocks():
    """On the 100 criterion-02 sources at 32x32, radius 4 max(omega0, gamma),
    the window returns every closed-form eigenvalue of degree < 32 inside
    the radius, and no eigenvalue more than 1e-6 from every closed form
    except on source 87, whose exact blocks of high degree are ill
    conditioned.  A closed form on the radius, or within its certified
    block's r_d of it, is on the edge and may be present or absent: label
    (4, 0, +1), of degree 8 and modulus 4 gamma, lies on the radius of 12
    sources, and 4 windows hold it.  Source 87's 9 strays are LAPACK's
    values of its blocks 23-29, none of which is certified.  With the
    blocks the truncation cuts, 21 sources had such an eigenvalue."""
    n = 32
    rng = np.random.default_rng(20260816)
    strays, homes = set(), set()
    for i in range(100):
        src = random_scrambled_source(rng)
        h0, h1, h2 = src.h
        omega0 = 0.5 * math.sqrt(h0 * h0 - h1 * h1 - h2 * h2)
        radius = 4.0 * max(omega0, src.gamma)
        plan = reduce_to_kl(src, b_target=1.0)
        state = transformed_eigenfunction(plan, EigenLabel(0, 0, 1), src).gaussian
        k_mat = assemble_matrix(assemble_liouvillian(src), BasisConfig(n, n, state.frame()))
        window = eigenvalues_in_window(k_mat, radius)
        blocks, cert = degree_blocks(k_mat.matrix)
        closed, degree = closed_forms_in_disk(omega0, src.gamma, radius + 1e-6)
        far = np.abs(window[:, None] - closed[None, :]).min(axis=1) > 1e-6
        if far.any():
            strays.add(i)
            lapack = per_block(all_eigenvalues(k_mat), blocks)
            for value in window[far]:
                home = [d for d, values in enumerate(lapack) if value in values]
                assert home and not cert.certified[home].any(), i
                homes.update(home)
        if i == 87:
            assert not cert.certified[23:30].any()
        closed, degree = closed[degree < n], degree[degree < n]
        edge = np.where(cert.certified[degree], cert.radius[degree], 0.0)
        wanted = closed[np.abs(closed) < radius - edge]
        assert np.abs(wanted[:, None] - window[None, :]).min(axis=1).max() <= 1e-6, i
    assert strays == {87} and homes <= set(range(23, 30))


def degree_blocks(mat):
    """The dense degree blocks of a matrix and their certificate, from one
    gather of its entries."""
    entries = _DegreeEntries(mat)
    return entries.blocks(), entries.certificate()


def bendixson_strip(blocks, radius):
    """The skip rule the certificate replaced, as a reference: a block all
    of whose off-diagonal entries are tridiagonal pairs with products <= 0
    is, after a diagonal similarity, its diagonal plus a skew-symmetric
    part, so by Bendixson's theorem (Acta Math. 25 (1902) 359) every
    Re lambda lies between its smallest and largest diagonal entry; it
    skipped a block whose strip misses [-radius, radius], and nothing when
    any block had an entry off the tridiagonal or a non-finite one."""
    if any(np.triu(b, 2).any() or np.tril(b, -2).any() or not np.isfinite(b).all() for b in blocks):
        return np.zeros(len(blocks), dtype=bool)
    return np.array(
        [
            not np.any(np.sign(np.diag(b, 1)) * np.sign(np.diag(b, -1)) > 0)
            and (np.diag(b).min() > radius or np.diag(b).max() < -radius)
            for b in blocks
        ]
    )


def per_block(values, blocks):
    """values, packed block after block in order of degree, split per block."""
    return np.split(values, np.cumsum([len(block) for block in blocks])[:-1])


def assert_window_holds_its_certificate(k_mat, radius):
    """eigenvalues_in_window against LAPACK's spectrum of each block
    (all_eigenvalues): every certified block has LAPACK's d + 1 values one
    in each disc of radius r_d about its predictions; a block whose floor
    lies outside the radius is tridiagonal, and LAPACK puts its whole
    spectrum at or above that floor; and the window is, bit for bit, the
    sorted radius filter of the predictions of the certified blocks kept
    and of LAPACK's values of the other blocks kept.  Every block
    Bendixson's strip skipped is skipped.  Returns the count skipped."""
    blocks, cert = degree_blocks(k_mat.matrix)
    lapack = per_block(all_eigenvalues(k_mat), blocks)
    predicted = per_block(cert.predicted, blocks)
    floor = cert.floor
    skipped = floor > radius
    kept = []
    for d, block in enumerate(blocks):
        if cert.certified[d]:
            inside = np.abs(lapack[d][:, None] - predicted[d][None, :]) <= cert.radius[d]
            assert np.all(inside.sum(axis=0) == 1) and np.all(inside.sum(axis=1) == 1), d
        if skipped[d]:
            assert np.all(np.abs(lapack[d]) >= floor[d])
            assert not np.any(np.triu(block, 2)) and not np.any(np.tril(block, -2))
        else:
            kept.append(predicted[d] if cert.certified[d] else lapack[d])
    inside = np.concatenate([np.zeros(0, dtype=complex), *kept])
    inside = inside[np.abs(inside) <= radius]
    expected = inside[np.lexsort((inside.imag, inside.real))]
    assert eigenvalues_in_window(k_mat, radius).tobytes() == expected.tobytes()
    assert not np.any(bendixson_strip(blocks, radius) & ~skipped)
    return int(np.count_nonzero(skipped))


@pytest.mark.parametrize(
    "model, n_q, n_r, skipped",
    [
        ("kl", 32, 32, 5),
        ("cl", 24, 24, 11),
        ("hpz", 24, 24, 11),
        ("kl", 32, 27, 0),
        ("kl", 25, 32, 0),
    ],
)
def test_the_strip_skips_only_blocks_outside_the_window(model, n_q, n_r, skipped):
    """At the window-spectrum sizes and on rectangular bases, at the
    workload's radius 4 max(omega0, gamma) (the pinned count) and at half and
    twice it.  cl and hpz skip degrees 13-23, whose diagonals reach down
    to 0 although every eigenvalue of block d has real part 0.3 d; the
    rectangular bases hold no block of degree 27 or more, the first kl
    skips."""
    coeffs, state, radius, _ = window_spectrum(model)
    k_mat = assemble_matrix(assemble_liouvillian(coeffs), BasisConfig(n_q, n_r, state.frame()))
    assert assert_window_holds_its_certificate(k_mat, radius) == skipped
    for scale in (0.5, 2.0):
        assert_window_holds_its_certificate(k_mat, scale * radius)


def test_a_write_into_a_band_reaches_every_reader():
    """A band given in Fortran order is copied into the C-ordered stack, and
    a later write through bands[...] reaches `@` and toarray()."""
    n = 4
    band = np.asfortranarray(np.arange(n * n, dtype=complex).reshape(n, n))
    mat = BandedMatrix({(0, 0): band}, n, n)
    mat.bands[(0, 0)][1, 1] = 100
    unit = np.zeros(n * n)
    unit[5] = 1.0
    assert mat.toarray()[5, 5] == 100 and (mat @ unit)[5] == 100


def test_a_write_into_an_assembled_band_reaches_the_blocks_and_the_pairing(monkeypatch):
    """Entry (1, 1) -> (1, 1) of kl at 12x10, a function of degree 2, moved
    through bands[(0, 0)] after assembly: toarray(), `@`, degree block 2
    and the leading block that the pairing inverts all see the move, and
    nothing else."""
    modes = [kl_eigenfunction(lab, B, W0, GAM) for lab in distinct_labels(2)]
    cfg = BasisConfig(12, 10, modes[0].gaussian.frame())
    k_mat = assemble_matrix(assemble_liouvillian(kl_coefficients(W0, GAM, B)), cfg)
    mat = k_mat.matrix
    inverted = []

    def recording_splu(stack):
        inverted.append(stack.copy())
        return np.linalg.inv(stack)

    monkeypatch.setattr(verify, "splu", recording_splu)
    dense, blocks = mat.toarray(), degree_blocks(mat)[0]
    biorthogonality_check(k_mat, modes)
    row, move = 1 * 10 + 1, 0.25
    mat.bands[(0, 0)][1, 1] += move
    dense[row, row] += move
    assert np.array_equal(mat.toarray(), dense)
    unit = np.zeros(mat.shape[0])
    unit[row] = 1.0
    assert np.array_equal(mat @ unit, dense[:, row])
    moved = degree_blocks(mat)[0]
    blocks[2][1, 1] += move
    assert all(np.array_equal(got, want) for got, want in zip(moved, blocks))
    with pytest.raises(PairingFailure):  # the moved entry shifts the modes' eigenvalues
        biorthogonality_check(k_mat, modes)
    # functions j + k <= 4 in basis order: (0, 0..4), (1, 0..3), so (1, 1) is the seventh
    change = inverted[1] - inverted[0]
    assert np.allclose(change[:, 6, 6], move, rtol=0.0, atol=1e-15)
    change[:, 6, 6] = 0.0
    assert not change.any()


def per_band_reference(bands, n_q, n_r, vec):
    """nnz, entries, finiteness and product of a matrix read from its bands
    by their definition: entry (j, k) of band (s, t) in row (j, k), column
    (j + s, k + t), the product added band by band in shift order, from zero."""
    nnz = sum(int(np.count_nonzero(band)) for band in bands.values())
    finite = all(np.isfinite(band).all() for band in bands.values())
    dense = np.zeros((n_q * n_r, n_q * n_r), dtype=complex)
    product = np.zeros((n_q, n_r), dtype=complex)
    grid = vec.reshape(n_q, n_r)
    for (s, t), band in sorted(bands.items()):
        rows = np.s_[max(0, -s) : n_q - max(0, s), max(0, -t) : n_r - max(0, t)]
        cols = np.s_[max(0, s) : n_q - max(0, -s), max(0, t) : n_r - max(0, -t)]
        product[rows] += band[rows] * grid[cols]
        j, k = np.nonzero(band)
        dense[j * n_r + k, (j + s) * n_r + (k + t)] = band[j, k]
    return nnz, dense, finite, product.reshape(-1)


def in_basis(bands, n_q, n_r):
    """The bands with every entry whose column leaves the basis set to zero,
    as BandedMatrix requires."""
    out = {}
    for (s, t), band in bands.items():
        inside = np.zeros((n_q, n_r), dtype=bool)
        inside[max(0, -s) : max(0, n_q - s), max(0, -t) : max(0, n_r - t)] = True
        out[(s, t)] = np.where(inside, band, 0.0)
    return out


def random_bands(rng, n_q, n_r, real):
    """Bands of a random subset of the shifts a quadratic operator fills,
    with random zeros, each zero where its column leaves the basis."""
    shifts = [(s, t) for s in range(-2, 3) for t in range(-2, 3) if abs(s) + abs(t) <= 2]
    bands = {}
    for s, t in [st for st in shifts if rng.random() < 0.7]:
        band = rng.normal(size=(n_q, n_r)) * (rng.random((n_q, n_r)) < 0.8)
        if not real:
            band = band + 1j * rng.normal(size=(n_q, n_r))
        bands[(s, t)] = band
    return in_basis(bands, n_q, n_r)


def test_a_band_entry_whose_column_leaves_the_basis_is_rejected():
    """Entry [0, 3] of band (0, 1) at 4x4 would sit in column (0, 4), outside
    the basis: the flat product read it into the wrapped column (1, 0) and
    toarray() raised IndexError.  The constructor names the band instead;
    the same band zero in its last column is a matrix."""
    with pytest.raises(DegreeError, match=r"band \(0, 1\)"):
        BandedMatrix({(0, 1): np.ones((4, 4))}, 4, 4)
    mat = BandedMatrix(in_basis({(0, 1): np.ones((4, 4))}, 4, 4), 4, 4)
    unit = np.zeros(16)
    unit[4] = 1.0
    assert (mat @ unit)[3] == 0 and mat.nnz == 12 and mat.toarray()[3, 4] == 0


@pytest.mark.parametrize("n_q, n_r", [(6, 6), (5, 8), (9, 4)])
def test_the_band_stack_equals_the_per_band_reference(n_q, n_r):
    """nnz, toarray(), the finiteness flag and `@` of the one-stack storage
    equal the per-band reference, on random complex and real bands, square
    and rectangular, and on the zero matrix with no band; the stack holds
    a copy of the bands, so a later write into them does not reach it."""
    rng = np.random.default_rng(n_q * 10 + n_r)
    cases = [random_bands(rng, n_q, n_r, real=index % 2 == 1) for index in range(12)]
    cases += [{}, {(0, 0): np.zeros((n_q, n_r))}]
    spoiled = random_bands(rng, n_q, n_r, real=False)
    band = spoiled[min(spoiled)]
    band[tuple(np.argwhere(band)[0])] = math.inf
    for bands in cases + [spoiled]:
        vec = rng.normal(size=n_q * n_r) + 1j * rng.normal(size=n_q * n_r)
        mat = BandedMatrix(bands, n_q, n_r)
        nnz, dense, finite, product = per_band_reference(bands, n_q, n_r, vec)
        assert list(mat.bands) == sorted(bands)
        assert all(np.array_equal(mat.bands[st], band) for st, band in bands.items())
        assert mat.nnz == nnz and mat._finite == finite
        assert np.array_equal(mat.toarray(), dense)
        if finite:
            assert np.array_equal(mat @ vec, product)
    mat = BandedMatrix(cases[0], n_q, n_r)
    dense = mat.toarray()
    for band in cases[0].values():
        band += 1.0
    assert np.array_equal(mat.toarray(), dense)


def test_the_grading_check_reads_every_band_of_the_stack():
    """_check_grading on hand-built bands: a degree-raising entry up to
    _GRADING_TOL of the largest entry is roundoff, one ulp more is not, a
    NaN anywhere fails the roundoff test and an infinite entry fails on its
    own; the zero matrix with no band passes."""
    n = 6
    _check_grading(BandedMatrix({}, n, n))
    at_tol = 2.0 * _GRADING_TOL
    cases = [
        ((-1, -1), at_tol, None),
        ((-1, -1), np.nextafter(at_tol, 1.0), "raises the Hermite degree"),
        ((0, -1), -np.nextafter(at_tol, 1.0), "raises the Hermite degree"),
        ((1, -1), math.nan, "raises the Hermite degree"),
        ((-1, -1), math.nan, "raises the Hermite degree"),
        ((1, 1), math.inf, "infinite entry"),
        ((0, 0), -math.inf, "infinite entry"),
    ]
    for shift, value, message in cases:
        bands = {st: np.zeros((n, n)) for st in [(-1, -1), (0, -1), (0, 0), (1, -1), (1, 1)]}
        bands[(0, 0)][:] = 2.0
        mat = BandedMatrix(bands, n, n)
        mat.bands[shift][2, 3] = value
        if message is None:
            _check_grading(mat)
        else:
            with pytest.raises(DegreeError, match=message):
                _check_grading(mat)


def test_the_strip_never_skips_a_pentadiagonal_block():
    """Blocks with diagonal -5, no tridiagonal entries, and symmetric
    entries 3 two places off the diagonal from the bands (2, -2) and
    (-2, 2), as no operator assemble_matrix takes gives.  Block 4 splits
    into chains of lengths 3 and 2: its diagonal lies left of -1, yet it
    holds the eigenvalue -5 + 6 cos(pi / 4), of modulus 0.76, so at radius
    1 it must be solved."""
    n = 8
    bands = {
        (0, 0): np.full((n, n), -5.0 + 0j),
        (2, -2): np.full((n, n), -3.0 + 0j),
        (-2, 2): np.full((n, n), -3.0 + 0j),
    }
    k_mat = OperatorMatrix(BandedMatrix(in_basis(bands, n, n), n, n), BasisConfig(n, n, CoordinateFrame(1.0, 1.0)))
    block = degree_blocks(k_mat.matrix)[0][4]
    assert np.diag(block).max() < -1.0 and np.triu(block, 2).any()
    assert np.abs(np.linalg.eigvals(block)).min() < 1.0
    assert assert_window_holds_its_certificate(k_mat, 1.0) == 0


def test_the_strip_never_skips_a_block_with_a_positive_product():
    """Blocks with diagonal 5 and both neighbours 3, symmetric: their
    eigenvalues 5 + 6 cos(k pi / (d + 2)) reach into the disk of radius 2
    that the diagonal misses.  Only block 0, the lone 5, is skipped."""
    n = 8
    bands = {
        (0, 0): np.full((n, n), 5.0 + 0j),
        (1, -1): np.full((n, n), 3j),
        (-1, 1): np.full((n, n), -3j),
    }
    k_mat = OperatorMatrix(BandedMatrix(in_basis(bands, n, n), n, n), BasisConfig(n, n, CoordinateFrame(1.0, 1.0)))
    assert eigenvalues_in_window(k_mat, 2.0).size > 0
    assert assert_window_holds_its_certificate(k_mat, 2.0) == 1


def test_the_strip_on_the_criterion_02_sources():
    """On the 100 criterion-02 sources at 32x32, radius 4 max(omega0, gamma),
    the certificate skips 1308 of the 3200 blocks (Bendixson's diagonal
    strip skipped 1006, all among them) and certifies 2912, each of which
    has LAPACK's values one per disc of radius r_d about its predictions
    (at most 7.5% of r_d from them)."""
    rng = np.random.default_rng(20260816)
    skipped = certified = 0
    for _ in range(100):
        src = random_scrambled_source(rng)
        h0, h1, h2 = src.h
        radius = 4.0 * max(0.5 * math.sqrt(h0 * h0 - h1 * h1 - h2 * h2), src.gamma)
        plan = reduce_to_kl(src, b_target=1.0)
        state = transformed_eigenfunction(plan, EigenLabel(0, 0, 1), src).gaussian
        k_mat = assemble_matrix(assemble_liouvillian(src), BasisConfig(32, 32, state.frame()))
        skipped += assert_window_holds_its_certificate(k_mat, radius)
        certified += int(np.count_nonzero(degree_blocks(k_mat.matrix)[1].certified))
    assert skipped == 1308 and certified == 2912


def per_block_eigenvalues(k_mat):
    """The spectrum of all_eigenvalues as a reference: block d on the
    functions (j, d - j), its entries read from the matrix entry by entry,
    each times the exact i^(k_col - k_row), and one np.linalg.eigvals call
    per block.  matrix_entries reads what toarray() holds, without the
    dense matrix, which takes 0.7 GB at 80x80 and 4.6 GB at 130x130."""
    mat = k_mat.matrix
    spectra = []
    for d in range(min(mat.n_q, mat.n_r)):
        j = np.arange(d + 1)
        rows = j * mat.n_r + (d - j)
        k_row, k_col = np.meshgrid(d - j, d - j, indexing="ij")
        phase = np.array([1, 1j, -1, -1j])[(k_col - k_row) % 4]
        block = matrix_entries(mat, rows, rows) * phase
        assert np.all(block.imag == 0.0)
        spectra.append(np.linalg.eigvals(block.real))
    return np.concatenate(spectra, dtype=complex)


def matrix_entries(mat, rows, cols):
    """toarray()[np.ix_(rows, cols)] of a BandedMatrix, read from its
    definition: entry (row, col) is bands[(s, t)][j, k] with row (j, k) and
    col (j + s, k + t), zero without such a band."""
    j, k = np.divmod(rows, mat.n_r)
    j_col, k_col = np.divmod(cols, mat.n_r)
    out = np.zeros((rows.size, cols.size), dtype=complex)
    for (s, t), band in mat.bands.items():
        row, col = np.nonzero((j_col == j[:, None] + s) & (k_col == k[:, None] + t))
        out[row, col] = band[j[row], k[row]]
    return out


def test_matrix_entries_read_what_toarray_holds():
    _, cfg, k_mat = kl_setup(12)
    index = np.arange(cfg.dim)
    assert np.array_equal(matrix_entries(k_mat.matrix, index, index), k_mat.matrix.toarray())


def assert_stacked_solve_is_per_block(k_mat, radius):
    """all_eigenvalues equals the per-block reference byte for byte, order
    included, and eigenvalues_in_window holds its certificate against it."""
    assert all_eigenvalues(k_mat).tobytes() == per_block_eigenvalues(k_mat).tobytes()
    assert_window_holds_its_certificate(k_mat, radius)


@pytest.mark.parametrize("n", [8, 24, 32, 48, 64, 75, 80, 130])
@pytest.mark.parametrize("model", ["kl", "hpz"])
def test_stacked_solve_keeps_the_bits_of_the_per_block_solve(model, n):
    """Blocks of up to 64 rows are solved zero-padded in stacks of 16
    degrees and keep their eigenvalues bit for bit; at 80x80 a stack padded
    past 64 rows, to 80, would change them."""
    coeffs, state, radius, _ = window_spectrum(model)
    k_mat = assemble_matrix(assemble_liouvillian(coeffs), BasisConfig(n, n, state.frame()))
    assert_stacked_solve_is_per_block(k_mat, radius)


def test_stacked_solve_on_the_criterion_02_sources():
    """all_eigenvalues equals the per-block reference byte for byte on the
    100 criterion-02 sources at 32x32, their frames carrying a phase; their
    windows are held to the certificate in
    test_the_strip_on_the_criterion_02_sources."""
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        src = random_scrambled_source(rng)
        plan = reduce_to_kl(src, b_target=1.0)
        state = transformed_eigenfunction(plan, EigenLabel(0, 0, 1), src).gaussian
        k_mat = assemble_matrix(assemble_liouvillian(src), BasisConfig(32, 32, state.frame()))
        assert all_eigenvalues(k_mat).tobytes() == per_block_eigenvalues(k_mat).tobytes()


@pytest.mark.parametrize("n", [8, 24])
@pytest.mark.parametrize("omega0", [1e154, 1e200, 1e300])
def test_the_strip_test_does_not_overflow(omega0, n):
    """Off-diagonal entries of order omega0: their products overflow past
    about 1e154, their signs do not, and no RuntimeWarning is raised."""
    state, _ = stationary_preset("kl", b=1.0)
    coeffs = kl_coefficients(omega0, 0.3, 1.0)
    window = refined_window_eigenvalues(coeffs, state, n, n, 4.0 * omega0)
    k_mat = assemble_matrix(assemble_liouvillian(coeffs), BasisConfig(n, n, state.frame()))
    assert window.tobytes() == eigenvalues_in_window(k_mat, 4.0 * omega0).tobytes()
    assert assert_window_holds_its_certificate(k_mat, 4.0 * omega0) == 0


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


@pytest.mark.parametrize("source", ["kl", "cl", "hpz", 0, 2, 75, 80, 87])
def test_stacked_pairing_equals_the_per_mode_loop(source):
    """The presets and criterion-02 sources at 32x32, modes m <= 2 and
    m <= 3: the word lattice and the stacked solve against per-mode
    expansions and solves."""
    src = MODELS[source][0] if source in MODELS else criterion_02_source(source)
    for m_max in (2, 3):
        modes = transported_modes(src, m_max)
        cfg = BasisConfig(32, 32, modes[0].gaussian.frame())
        k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
        report = biorthogonality_check(k_mat, modes)
        gram, max_offdiag = per_mode_pairing(k_mat, modes)
        assert np.max(np.abs(report.gram - gram)) <= 1e-12, m_max
        assert abs(report.max_offdiag - max_offdiag) <= 1e-12, m_max


def test_word_lattice_equals_the_per_mode_expansions():
    """The right vectors of biorthogonality_check, read from one word lattice
    per raising pair, equal each mode's own expand to a few ulps of its
    largest coefficient, scale included, on a basis that holds the degrees
    and on one that crops them."""
    sources = [coeffs for coeffs, _ in MODELS.values()] + [GENERIC]
    sources += [criterion_02_source(i) for i in (0, 2, 75, 80, 87)]
    for src in sources:
        modes = transported_modes(src, 3)
        for n_q, n_r in ((32, 32), (6, 5)):
            cfg = BasisConfig(n_q, n_r, modes[0].gaussian.frame())
            j, k, *_ = _layout(n_q, n_r, ()).pairing(6)
            lattice = np.zeros((len(modes), n_q, n_r), dtype=complex)
            lattice[:, j, k] = _mode_coefficients(modes, cfg.frame, 6)[:, j, k]
            for got, mode in zip(lattice, modes):
                want = expand(mode, cfg).reshape(n_q, n_r)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), mode.label


def test_modes_of_two_plans_in_shuffled_order_pair_as_per_mode():
    """Two plans of one source, to b = 1 and to b = 1.7, have different
    raising pairs and fit the same frame: the m <= 1 modes of one and the
    m = 2 modes of the other, shuffled, run as two word lattices and pair
    as the per-mode loop does."""
    src = MODELS["cl"][0]
    plans = [reduce_to_kl(src, b_target=b) for b in (1.0, 1.7)]
    assert plans[0].raising_pair != plans[1].raising_pair
    labels = distinct_labels(2)
    modes = [transformed_eigenfunction(plans[lab.m == 2], lab, src) for lab in labels]
    modes = [modes[i] for i in np.random.default_rng(7).permutation(len(modes))]
    cfg = BasisConfig(24, 20, modes[0].gaussian.frame())
    k_mat = assemble_matrix(assemble_liouvillian(src), cfg)
    report = biorthogonality_check(k_mat, modes)
    gram, max_offdiag = per_mode_pairing(k_mat, modes)
    assert report.passed
    assert np.max(np.abs(report.gram - gram)) <= 1e-12
    assert abs(report.max_offdiag - max_offdiag) <= 1e-12


def test_pairing_reports_frame_then_zero_then_rayleigh_failures():
    """With several failing modes the check raises FrameMismatch for a mode
    that does not fit the frame, wherever it stands, before ZeroVector for a
    mode whose letters are zero, and that before PairingFailure for a mode
    of the wrong spectrum."""
    _, _, k_mat = kl_setup(24, gamma=0.8)
    wrong = kl_eigenfunction(EigenLabel(1, 0, 1), B, W0, 0.3)
    zero = AppliedEigenfunction(
        EigenLabel(1, 0, 1), wrong.eigenvalue, (LinearPhaseOperator(),) * 2, wrong.gaussian
    )
    unfit = kl_eigenfunction(EigenLabel(1, 1, 1), 2.0 * B, W0, 0.8)
    with pytest.raises(FrameMismatch):
        biorthogonality_check(k_mat, [wrong, zero, unfit])
    with pytest.raises(ZeroVector):
        biorthogonality_check(k_mat, [wrong, zero])
    with pytest.raises(PairingFailure, match="does not match prediction"):
        biorthogonality_check(k_mat, [wrong])


def test_a_nan_prediction_fails_the_pairing():
    """A mode whose predicted eigenvalue is NaN, or beyond the float range,
    gives a NaN Rayleigh quotient, which the comparisons must not let pass:
    before, the check returned a report with max_offdiag NaN."""
    _, _, k_mat = kl_setup(12)
    modes = [kl_eigenfunction(lab, B, W0, GAM) for lab in distinct_labels(1)]
    for value in (complex(math.nan, 0), complex(math.inf, 0), complex(1e300, 1e300)):
        bad = modes[:1] + [replace(modes[1], eigenvalue=value)] + modes[2:]
        for pairing in (biorthogonality_check, per_mode_pairing):
            with pytest.raises(PairingFailure, match="does not match prediction"):
                pairing(k_mat, bad)


def quoted_eigenvalue(message):
    """An error message with the matrix eigenvalue it quotes taken out, and
    that eigenvalue (0 if none)."""
    match = re.search(r"matrix eigenvalue (\(.*?\)) does", message)
    if match is None:
        return message, 0j
    return message.replace(match.group(1), "{}"), complex(match.group(1))


def test_pairing_errors_equal_those_of_the_per_mode_loop():
    """A mode of the wrong spectrum and a mode that expands to zero (its
    letters are zero) raise the same types and messages, up to the roundoff
    of the quoted Rayleigh quotient."""
    _, _, k_mat = kl_setup(24, gamma=0.8)
    wrong = kl_eigenfunction(EigenLabel(1, 0, 1), B, W0, 0.3)
    zero = AppliedEigenfunction(
        EigenLabel(1, 0, 1), wrong.eigenvalue, (LinearPhaseOperator(),) * 2, wrong.gaussian
    )
    for modes, error in (([wrong], PairingFailure), ([zero], ZeroVector)):
        quoted = []
        for pairing in (biorthogonality_check, per_mode_pairing):
            with pytest.raises(error) as raised:
                pairing(k_mat, modes, tol=1e-6)
            quoted.append(quoted_eigenvalue(str(raised.value)))
        (text, lam), (oracle_text, oracle_lam) = quoted
        assert text == oracle_text and abs(lam - oracle_lam) <= 1e-12, quoted


def test_biorthogonality_refuses_an_empty_mode_list():
    _, _, k_mat = kl_setup(8)
    with pytest.raises(PairingFailure, match="no modes"):
        biorthogonality_check(k_mat, [])


def criterion_02_matrix(i, n=32):
    """The oracle matrix of criterion-02 source i at n x n in the frame of
    its stationary Gaussian."""
    src = criterion_02_source(i)
    plan = reduce_to_kl(src, b_target=1.0)
    state = transformed_eigenfunction(plan, EigenLabel(0, 0, 1), src).gaussian
    return assemble_matrix(assemble_liouvillian(src), BasisConfig(n, n, state.frame()))


def window_matrix(case):
    """The oracle matrix of a named model at the window-spectrum size, or of
    a criterion-02 source at 32x32."""
    if isinstance(case, int):
        return criterion_02_matrix(case)
    coeffs, state, _, _ = window_spectrum(case)
    n = 32 if case == "kl" else 24
    return assemble_matrix(assemble_liouvillian(coeffs), BasisConfig(n, n, state.frame()))


@pytest.mark.parametrize("case", ["kl", "cl", "hpz", 0, 75, 87])
def test_symmetric_powers_diagonalize_the_predicted_blocks(case):
    """The lemma under the window's certificate, from an independent route:
    P from LAPACK's eig of A = M_1 - c I, Sym^d(P) by binomial expansion.
    Sym^d(P) diagonalizes c I + dGamma_d(A) with the eigenvalues
    c + k w_1 + (d - k) w_0, that block is M_d up to roundoff, and the
    singular values of Sym^d(P) give cond = kappa^d, kappa the closed-form
    condition of _pair_eigensystem, wherever the SVD resolves it (kappa^d
    <= 1e8); source 87 has kappa 5.895."""
    blocks, cert = degree_blocks(window_matrix(case).matrix)
    floor = cert.floor
    c = blocks[0][0, 0]
    a = blocks[1] - c * np.eye(2)
    w, p = np.linalg.eig(a)
    kappa = _pair_eigensystem(*a.ravel().tolist())[2]
    assert kappa == pytest.approx(np.linalg.cond(p), rel=1e-12)
    resolved = 0
    for d, block in enumerate(blocks):
        predicted = second_quantized(c, a, d)
        assert np.linalg.norm(block - predicted) <= 1e-13 * max(1.0, np.linalg.norm(block))
        vecs = symmetric_power(p, d)
        lam = c + np.arange(d + 1) * w[1] + (d - np.arange(d + 1)) * w[0]
        miss = np.linalg.norm(predicted @ vecs - vecs * lam)
        assert miss <= 1e-12 * np.linalg.norm(predicted) * np.linalg.norm(vecs)
        assert floor[d] <= np.abs(np.linalg.eigvals(block)).min()
        if kappa**d <= 1e8:
            assert np.linalg.cond(vecs) == pytest.approx(kappa**d, rel=1e-6)
            resolved += 1
    assert resolved >= (11 if case == 87 else len(blocks))


def test_the_window_kappa_equals_the_modes_condition():
    """The window's kappa, the condition of the unit eigenvectors of
    A = M_1 - c I in closed form (_pair_eigensystem), is the condition of
    the modes themselves: of the unit degree-one parts p_1, p_2, the
    coefficients (0, 1) and (1, 0), of expand of (1, 1, +1) and (1, 1, -1),
    which is (1 + |p_1^H p_2|) / |det P|.  On kl, cl, hpz and the 100
    criterion-02 sources at 32x32, in the frame of the transported Gaussian,
    the two agree within 64 kappa^2 u relative.  Each side's eigenvectors
    carry an error of about kappa u: a 2x2 eigenvector moves by the
    backward error times the eigenvalue condition, which kappa bounds.
    |det P| of unit columns is linear in each column, so it moves by about
    that error, and relative to |det P| <= 2 / kappa the move is about
    kappa times larger: kappa^2 u per side.  The largest miss is
    9.9 kappa^2 u, on source 37 (kappa 1.12); source 87, of the largest
    kappa, 5.90, misses by 8.9e-15, 2.3 kappa^2 u."""
    u = np.finfo(float).eps / 2
    sources = [MODELS[model][0] for model in ("kl", "cl", "hpz")]
    sources += [criterion_02_source(i) for i in range(100)]
    for index, src in enumerate(sources):
        plan = reduce_to_kl(src, b_target=1.0)
        state, _ = plan.transport(src)
        cfg = BasisConfig(32, 32, state.frame())
        blocks, _ = degree_blocks(assemble_matrix(assemble_liouvillian(src), cfg).matrix)
        c = blocks[0][0, 0]
        kappa = _pair_eigensystem(*(blocks[1] - c * np.eye(2)).ravel().tolist())[2]
        columns = []
        for sigma in (1, -1):
            mode = transformed_eigenfunction(plan, EigenLabel(1, 1, sigma), src)
            coeffs = expand(mode, cfg).reshape(32, 32)
            part = np.array([coeffs[0, 1], coeffs[1, 0]])
            columns.append(part / np.linalg.norm(part))
        p1, p2 = columns
        condition = (1 + abs(np.vdot(p1, p2))) / abs(np.linalg.det(np.column_stack(columns)))
        assert abs(kappa - condition) <= 64 * kappa**2 * u * condition, index


def moved_block_entry(k_mat, d, j, shift, value):
    """k_mat with entry (j, j + shift) of degree block d moved by value: a
    band (shift, -shift) entry at [j, d - j], times i^(-shift) in the block."""
    mat = k_mat.matrix
    bands = {st: band.copy() for st, band in mat.bands.items()}
    band = bands.setdefault((shift, -shift), np.zeros((mat.n_q, mat.n_r), dtype=complex))
    band[j, d - j] += value / [1, 1j, -1, -1j][-shift % 4]
    return OperatorMatrix(BandedMatrix(bands, mat.n_q, mat.n_r), k_mat.config)


@pytest.mark.parametrize(
    "shift, value, skipped",
    [(0, 1e-3, 11), (1, 1e-3, 11), (0, 1e-2, 10), (-1, 1e-2, 10), (2, 1e-3, 0)],
)
def test_a_block_moved_off_its_prediction_is_solved_when_the_bound_says_so(shift, value, skipped):
    """cl at 24x24 with one entry of block 15 moved off the predicted block.
    Block 15's eigenvalues are predicted at modulus 4.6 or more, against a
    radius of 3.82, and kappa^15 is 104: a tridiagonal move of 1e-3 moves
    them by at most 0.104 (Bauer-Fike), so the block stays out and the
    floor still holds LAPACK's eigenvalues; a move of 1e-2 can move them
    by 1.04, and the block is solved.  An entry two places off the
    diagonal, which no quadratic operator fills, stops every skip.  The
    moved block is certified by no move, and the blocks of the disk by
    every move but the last."""
    coeffs, state, radius, _ = window_spectrum("cl")
    cfg = BasisConfig(24, 24, state.frame())
    k_mat = moved_block_entry(assemble_matrix(assemble_liouvillian(coeffs), cfg), 15, 7, shift, value)
    assert assert_window_holds_its_certificate(k_mat, radius) == skipped
    cert = degree_blocks(k_mat.matrix)[1]
    assert (cert.floor[15] > radius) == (skipped == 11)
    assert not cert.certified[15]
    assert cert.certified[:13].all() == (skipped > 0)


def recording_block_solves(monkeypatch):
    """The degrees each call of verify._block_eigenvalues is handed, in a
    list that grows as the calls come."""
    handed = []
    solve = verify._block_eigenvalues

    def recording(blocks, degrees):
        handed.append(np.asarray(degrees).tolist())
        return solve(blocks, degrees)

    monkeypatch.setattr(verify, "_block_eigenvalues", recording)
    return handed


@pytest.mark.parametrize("model", ["kl", "cl", "hpz"])
def test_the_window_spectrum_models_hand_lapack_no_block(model, monkeypatch):
    """At the window-spectrum sizes, kl at 32x32 and cl and hpz at 24x24,
    every block the window keeps is certified, so LAPACK solves none; the
    window holds the closed-form spectrum within 1e-14, closed under
    conjugation bit for bit, as all_eigenvalues is."""
    coeffs, state, radius, analytic = window_spectrum(model)
    n = 32 if model == "kl" else 24
    handed = recording_block_solves(monkeypatch)
    window = refined_window_eigenvalues(coeffs, state, n, n, radius)
    assert handed == [[]]
    assert window.size == analytic.size and nearest_gap(window, analytic) <= 1e-14
    assert np.array_equal(np.sort_complex(window), np.sort_complex(window.conj()))


def recording_calls(monkeypatch, owner, name):
    """A list that gains one entry per call of owner.name from now on."""
    calls = []
    wrapped = getattr(owner, name)

    def recording(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.mark.parametrize("model", ["kl", "cl", "hpz"])
def test_the_certified_windows_build_no_dense_blocks(model, monkeypatch):
    """At the window-spectrum sizes every block the window keeps is
    certified, so the window reads only the gathered entries and builds no
    dense block array; all_eigenvalues, which solves every block, builds
    it once."""
    coeffs, state, radius, _ = window_spectrum(model)
    n = 32 if model == "kl" else 24
    k_mat = assemble_matrix(assemble_liouvillian(coeffs), BasisConfig(n, n, state.frame()))
    built = recording_calls(monkeypatch, _DegreeEntries, "blocks")
    eigenvalues_in_window(k_mat, radius)
    assert built == []
    all_eigenvalues(k_mat)
    assert len(built) == 1


@pytest.mark.parametrize("case", ["kl", 87])
def test_all_eigenvalues_computes_no_certificate(case, monkeypatch):
    """all_eigenvalues returns LAPACK's values of every block and reads
    nothing of the certificate, so it never solves the 2x2 pair the
    certificate starts from; the window, on the same matrix, solves it
    once."""
    k_mat = window_matrix(case)
    solved = recording_calls(monkeypatch, verify, "_pair_eigensystem")
    all_eigenvalues(k_mat)
    assert solved == []
    eigenvalues_in_window(k_mat, 1.0)
    assert len(solved) == 1


@pytest.mark.parametrize("shift", [0, 1, -1])
def test_a_moved_entry_loses_its_blocks_certificate(shift, monkeypatch):
    """cl at 24x24 with one tridiagonal entry of block 5, inside the disk,
    moved by 1e-6: r_5 grows past 1e-8, so block 5 loses its certificate
    and alone is handed to LAPACK, whose values the window returns bit
    for bit; every other block the window keeps stays certified."""
    coeffs, state, radius, _ = window_spectrum("cl")
    cfg = BasisConfig(24, 24, state.frame())
    k_mat = assemble_matrix(assemble_liouvillian(coeffs), cfg)
    assert degree_blocks(k_mat.matrix)[1].certified[5]
    moved = moved_block_entry(k_mat, 5, 2, shift, 1e-6)
    cert = degree_blocks(moved.matrix)[1]
    assert np.flatnonzero(~cert.certified[:13]).tolist() == [5]
    handed = recording_block_solves(monkeypatch)
    eigenvalues_in_window(moved, radius)
    assert handed == [[5]]
    assert_window_holds_its_certificate(moved, radius)


def test_blocks_whose_predictions_coincide_are_solved(monkeypatch):
    """Hand-built bands whose block 1 is 0.5 + A, A the identity: block d is
    exactly (0.5 + d) I, and its d + 1 predictions coincide, so their discs
    overlap and only block 0 is certified, however small r_d is.  LAPACK
    solves every other block, and the window returns its values."""
    n = 6
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    bands = {(0, 0): (0.5 + j + k).astype(complex)}
    k_mat = OperatorMatrix(BandedMatrix(bands, n, n), BasisConfig(n, n, CoordinateFrame(1.0, 1.0)))
    cert = degree_blocks(k_mat.matrix)[1]
    assert cert.certified.tolist() == [True] + [False] * (n - 1)
    assert cert.radius.max() <= 1e-12
    handed = recording_block_solves(monkeypatch)
    window = eigenvalues_in_window(k_mat, 10.0)
    assert handed == [[1, 2, 3, 4, 5]]
    assert assert_window_holds_its_certificate(k_mat, 10.0) == 0
    assert window.tolist() == [0.5 + d for d in range(n) for _ in range(d + 1)]


def test_a_defective_first_block_skips_nothing():
    """Hand-built bands whose block 1 is 1 + A, A = [[7, 1], [-16, -1]], a
    defective matrix with the double eigenvalue 3: kappa = inf, and every
    block d >= 1 is exactly c I + dGamma_d(A), with the one eigenvalue
    3d + 1, outside the radius 2.  No eigenvector matrix bounds the blocks,
    so none is skipped, and no RuntimeWarning (inf times 0) is raised.
    Their diagonals 1 + 3d +- 4d reach into the disk, so Bendixson's strip
    skips none either; block 0, the lone 1, is inside."""
    n = 8
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    bands = {
        # block d = j + k: entry (j, j) is c + j A11 + k A00, entry (j, j + 1)
        # sqrt((j + 1) k) A01 times i, and entry (j, j - 1) sqrt(j (k + 1)) A10
        # times -i
        (0, 0): (1.0 - j + 7.0 * k).astype(complex),
        (1, -1): 1j * np.sqrt((j + 1.0) * k),
        (-1, 1): 16j * np.sqrt(j * (k + 1.0)),
    }
    k_mat = OperatorMatrix(BandedMatrix(in_basis(bands, n, n), n, n), BasisConfig(n, n, CoordinateFrame(1.0, 1.0)))
    blocks, cert = degree_blocks(k_mat.matrix)
    assert np.array_equal(blocks[1], [[8.0, 1.0], [-16.0, 0.0]])
    for d, block in enumerate(blocks):
        assert np.array_equal(block, second_quantized(1.0, blocks[1] - np.eye(2), d))
    assert _pair_eigensystem(7.0, 1.0, -16.0, -1.0)[2] == math.inf
    assert np.all(cert.floor[1:] == -np.inf) and not cert.certified.any()
    assert not bendixson_strip(blocks, 2.0).any()
    assert assert_window_holds_its_certificate(k_mat, 2.0) == 0
    assert eigenvalues_in_window(k_mat, 2.0).tolist() == [1.0]
