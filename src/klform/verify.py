"""Independent numerical oracle in a truncated orthonormal Hermite basis.

Functions f(Q, r) are expanded over products of orthonormal Hermite
functions psi_j(u) psi_k(v) of the scaled coordinates u = sqrt(2) Q/s_q,
v = sqrt(2) s_r r, where (s_q, s_r) form the expansion frame.  With a
frame matched to a stationary Gaussian the eigenfunctions of a quadratic
evolution operator are finite combinations, so truncation is exact for
low modes and every closed-form claim can be checked against plain
sparse linear algebra: residuals, evolution, traces, spectra, and
left/right biorthogonality.  Such a frame also grades the matrix by total
Hermite degree, so spectra come from small dense blocks, one per degree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, splu

from .errors import DegreeError, FrameMismatch, PairingFailure, ZeroVector
from .gauss import GaussianState
from .operators import (
    CoordinateFrame,
    PhasePolyOperator,
    assemble_liouvillian,
    rescale_coordinates,
)

__all__ = [
    "BasisConfig",
    "OperatorMatrix",
    "ladder_matrices",
    "assemble_matrix",
    "expand",
    "reconstruct",
    "residual",
    "evolve",
    "evolve_series",
    "trace_and_hermiticity",
    "all_eigenvalues",
    "eigenvalues_in_window",
    "stationary_similarity",
    "refined_window_eigenvalues",
    "BiorthReport",
    "biorthogonality_check",
]


@dataclass(frozen=True)
class BasisConfig:
    """Truncation sizes and expansion frame of the Hermite tensor basis."""

    n_q: int
    n_r: int
    frame: CoordinateFrame

    def __post_init__(self):
        if self.n_q < 4 or self.n_r < 4:
            raise ValueError("basis sizes must be at least 4")

    @property
    def dim(self) -> int:
        return self.n_q * self.n_r


@dataclass
class OperatorMatrix:
    """Sparse matrix of an operator in a fixed BasisConfig."""

    matrix: sp.csr_matrix
    config: BasisConfig

    @property
    def shape(self):
        return self.matrix.shape


@lru_cache(maxsize=None)
def ladder_matrices(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Tridiagonal matrices of u* and d/du* on n orthonormal Hermite functions.

    X is symmetric with X[j, j+1] = sqrt((j+1)/2); D is antisymmetric
    with D[j, j+1] = sqrt((j+1)/2), D[j+1, j] = -sqrt((j+1)/2).  On the
    interior block D X - X D = identity; the last row/column carries the
    truncation defect.
    """
    off = np.sqrt(np.arange(1, n) / 2.0)
    x_mat = sp.diags([off, off], [1, -1], shape=(n, n), format="csr")
    d_mat = sp.diags([off, -off], [1, -1], shape=(n, n), format="csr")
    return x_mat, d_mat


def assemble_matrix(op: PhasePolyOperator, cfg: BasisConfig) -> OperatorMatrix:
    """Matrix of a normal-ordered operator in the tensor basis.

    The operator is first rewritten in the frame's normalized
    coordinates; a monomial Qs^a rs^b dQs^c drs^d then maps to
    (X/sqrt2)^a (sqrt2 D)^c on the Q factor and likewise on the r factor,
    multiplication factors to the left of derivative factors.  Total
    degree above 4 is rejected: higher powers of the truncated ladder
    matrices lose the exact-representation property this oracle relies on.
    """
    if op.degree() > 4:
        raise DegreeError(f"operator degree {op.degree()} exceeds 4")
    scaled = rescale_coordinates(op, cfg.frame)
    xq, dq = ladder_matrices(cfg.n_q)
    xr, dr = ladder_matrices(cfg.n_r)
    mult_q = (xq / math.sqrt(2.0)).tocsr()
    dif_q = (dq * math.sqrt(2.0)).tocsr()
    mult_r = (xr / math.sqrt(2.0)).tocsr()
    dif_r = (dr * math.sqrt(2.0)).tocsr()
    total = sp.csr_matrix((cfg.dim, cfg.dim), dtype=complex)
    eye_q = sp.identity(cfg.n_q, format="csr")
    eye_r = sp.identity(cfg.n_r, format="csr")

    def power(mat, k, eye):
        out = eye
        for _ in range(k):
            out = out @ mat
        return out

    for (a, b, c, d), coeff in scaled.terms.items():
        factor_q = power(mult_q, a, eye_q) @ power(dif_q, c, eye_q)
        factor_r = power(mult_r, b, eye_r) @ power(dif_r, d, eye_r)
        total = total + coeff * sp.kron(factor_q, factor_r, format="csr")
    return OperatorMatrix(total.tocsr(), cfg)


@lru_cache(maxsize=None)
def _quadrature(n_nodes: int):
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    # total weights for integrating smooth f: sum w_i exp(x_i^2) f(x_i)
    return x, w * np.exp(x * x)


@lru_cache(maxsize=None)
def _basis_at(n_nodes: int, n_basis: int):
    """Matrix psi[i, j] = psi_j(x_i) of orthonormal Hermite functions at nodes."""
    x, _ = _quadrature(n_nodes)
    return _hermite_functions(x, n_basis)


def _hermite_functions(x: np.ndarray, n_basis: int) -> np.ndarray:
    psi = np.empty((x.size, n_basis))
    psi[:, 0] = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if n_basis > 1:
        psi[:, 1] = math.sqrt(2.0) * x * psi[:, 0]
    for j in range(1, n_basis - 1):
        psi[:, j + 1] = (
            math.sqrt(2.0 / (j + 1)) * x * psi[:, j]
            - math.sqrt(j / (j + 1)) * psi[:, j - 1]
        )
    return psi


def _gaussian_of(f):
    if isinstance(f, GaussianState):
        return f
    return getattr(f, "gaussian", None)


def expand(f, cfg: BasisConfig) -> np.ndarray:
    """Coefficient vector of f in the tensor basis, by Gauss-Hermite quadrature.

    f must expose evaluate(Q, r) supporting numpy broadcasting; Gaussian
    states and applied eigenfunctions both do.  The quadrature order is
    twice the larger basis size, exact for polynomial-times-envelope
    integrands of the matched frame.  If f carries a Gaussian whose
    quadratic form differs from the frame's, a FrameMismatch warning is
    emitted and the (slowly converging) expansion is still returned.
    """
    gauss = _gaussian_of(f)
    if gauss is not None:
        sq, sr = cfg.frame.s_q, cfg.frame.s_r
        width = gauss.width_sum
        mismatch = (
            abs(2.0 * gauss.mu * sq * sq - 1.0) > 1e-9
            or abs(2.0 * sr * sr / width - 1.0) > 1e-9
            or abs(gauss.kappa) * sq / (math.sqrt(2.0) * sr) > 1e-9
        )
        if mismatch:
            warnings.warn(
                f"Gaussian (mu={gauss.mu}, kappa={gauss.kappa}, nu={gauss.nu}) "
                f"does not match frame (s_q={sq}, s_r={sr}); expansion accuracy degrades",
                FrameMismatch,
                stacklevel=2,
            )
    n_nodes = 2 * max(cfg.n_q, cfg.n_r)
    x, wtot = _quadrature(n_nodes)
    sq, sr = cfg.frame.s_q, cfg.frame.s_r
    q_nodes = (sq / math.sqrt(2.0)) * x
    r_nodes = x / (math.sqrt(2.0) * sr)
    values = np.asarray(f.evaluate(q_nodes[:, None], r_nodes[None, :]), dtype=complex)
    psi_q = _basis_at(n_nodes, cfg.n_q)
    psi_r = _basis_at(n_nodes, cfg.n_r)
    pref = math.sqrt(sq / math.sqrt(2.0)) * math.sqrt(1.0 / (math.sqrt(2.0) * sr))
    coeffs = pref * (psi_q * wtot[:, None]).T @ values @ (psi_r * wtot[:, None])
    return coeffs.reshape(-1)


def reconstruct(vec: np.ndarray, cfg: BasisConfig, q, r) -> np.ndarray:
    """Evaluate an expansion on the outer grid of 1-D arrays q and r."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    sq, sr = cfg.frame.s_q, cfg.frame.s_r
    u = math.sqrt(2.0) * q / sq
    v = math.sqrt(2.0) * sr * r
    psi_q = _hermite_functions(u, cfg.n_q)
    psi_r = _hermite_functions(v, cfg.n_r)
    norm = math.sqrt(math.sqrt(2.0) / sq) * math.sqrt(math.sqrt(2.0) * sr)
    coeffs = np.asarray(vec, dtype=complex).reshape(cfg.n_q, cfg.n_r)
    return norm * psi_q @ coeffs @ psi_r.T


def residual(k_mat: OperatorMatrix, vec: np.ndarray, lam: complex) -> float:
    """Relative residual |K v - lam v| / |v| in the Euclidean norm."""
    vec = np.asarray(vec, dtype=complex)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVector("residual of the zero vector is undefined")
    return float(np.linalg.norm(k_mat.matrix @ vec - lam * vec)) / norm


def evolve(k_mat: OperatorMatrix, f0: np.ndarray, t: float) -> np.ndarray:
    """exp(-t K) f0 via scipy's Krylov-free expm_multiply."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return expm_multiply(-float(t) * k_mat.matrix.tocsc(), np.asarray(f0, dtype=complex))


def evolve_series(k_mat: OperatorMatrix, f0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-t K) f0 on a uniform time grid; rows follow `times`."""
    times = np.asarray(times, dtype=float)
    if times.size == 1:
        return evolve(k_mat, f0, float(times[0]))[None, :]
    gaps = np.diff(times)
    if not np.allclose(gaps, gaps[0], rtol=1e-12, atol=1e-12):
        raise ValueError("time grid must be uniform")
    return expm_multiply(
        -k_mat.matrix.tocsc(),
        np.asarray(f0, dtype=complex),
        start=float(times[0]),
        stop=float(times[-1]),
        num=times.size,
        endpoint=True,
    )


@lru_cache(maxsize=None)
def _trace_covector_parts(n: int) -> np.ndarray:
    """Integrals integral psi_j(u) du; zero for odd j."""
    out = np.zeros(n)
    ratio = 1.0  # sqrt((2t)!)/(2^t t!)
    base = math.sqrt(2.0 * math.pi) / math.pi**0.25
    for t in range(0, (n + 1) // 2):
        j = 2 * t
        if t > 0:
            ratio *= math.sqrt((2 * t - 1) / (2 * t))
        if j < n:
            out[j] = base * ratio
    return out


@lru_cache(maxsize=None)
def _psi_at_zero(n: int) -> np.ndarray:
    out = np.zeros(n)
    out[0] = math.pi ** (-0.25)
    for k in range(1, n - 1):
        out[k + 1] = -math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def trace_and_hermiticity(
    vec: np.ndarray, cfg: BasisConfig, grid_points: int = 33, grid_radius: float = 3.0
) -> tuple[complex, float]:
    """Trace functional and hermiticity defect of an expanded function.

    The trace is the closed-form integral of f(Q, 0) over Q (only even
    Q-indices and the psi_k(0) column enter).  The hermiticity defect is
    max |f(Q, -r) - conj(f(Q, r))| over a sample grid covering the frame
    scales; the reflected values are obtained by flipping the sign of
    odd-k coefficients, not by resampling.
    """
    coeffs = np.asarray(vec, dtype=complex).reshape(cfg.n_q, cfg.n_r)
    sq, sr = cfg.frame.s_q, cfg.frame.s_r
    norm = math.sqrt(math.sqrt(2.0) / sq) * math.sqrt(math.sqrt(2.0) * sr)
    tr_q = _trace_covector_parts(cfg.n_q) * (sq / math.sqrt(2.0)) * norm
    trace = complex(tr_q @ coeffs @ _psi_at_zero(cfg.n_r))
    q_grid = np.linspace(-grid_radius * sq, grid_radius * sq, grid_points)
    r_grid = np.linspace(-grid_radius / sr, grid_radius / sr, grid_points)
    direct = reconstruct(vec, cfg, q_grid, r_grid)
    flipped = coeffs * ((-1.0) ** np.arange(cfg.n_r))[None, :]
    reflected = reconstruct(flipped.reshape(-1), cfg, q_grid, r_grid)
    defect = float(np.max(np.abs(reflected - np.conj(direct))))
    return trace, defect


def _total_degree(cfg: BasisConfig) -> np.ndarray:
    """Total Hermite degree j + k of each basis index j * n_r + k."""
    idx = np.arange(cfg.dim)
    return idx // cfg.n_r + idx % cfg.n_r


# Degree-raising entries up to this fraction of the largest entry are
# roundoff (below 4e-16 for the presets), not structure.
_GRADING_TOL = 1e-12


def _is_graded(k_mat: OperatorMatrix) -> bool:
    """Whether no entry raises the total degree j + k beyond roundoff."""
    coo = k_mat.matrix.tocoo()
    deg = _total_degree(k_mat.config)
    raising = np.abs(coo.data[deg[coo.row] > deg[coo.col]])
    return bool(np.all(raising <= _GRADING_TOL * np.max(np.abs(coo.data), initial=0.0)))


def all_eigenvalues(k_mat: OperatorMatrix) -> np.ndarray:
    """Spectrum of the truncated matrix.

    In a frame matched to a stationary Gaussian the matrix never raises
    the total Hermite degree j + k: ordered by degree it is block
    upper-triangular, so its spectrum is the union of those of the small
    diagonal blocks, one per degree, each diagonalized densely.  A matrix
    that fails this check falls back to one dense solve.
    """
    mat = k_mat.matrix.tocsr()
    if not _is_graded(k_mat):
        return np.linalg.eigvals(mat.toarray())
    deg = _total_degree(k_mat.config)
    order = np.argsort(deg, kind="stable")
    graded = mat[order][:, order]
    edges = np.searchsorted(deg[order], np.arange(deg.max() + 2))
    blocks = [graded[lo:hi, lo:hi].toarray() for lo, hi in zip(edges[:-1], edges[1:])]
    return np.concatenate([np.linalg.eigvals(block) for block in blocks])


def eigenvalues_in_window(k_mat: OperatorMatrix, radius: float) -> np.ndarray:
    """Matrix eigenvalues with |lambda| <= radius, sorted by (re, im)."""
    ev = all_eigenvalues(k_mat)
    ev = ev[np.abs(ev) <= radius]
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def stationary_similarity(
    coeffs, state: GaussianState
) -> tuple[PhasePolyOperator, CoordinateFrame]:
    """Conjugate a Liouvillian by the square root of its stationary Gaussian.

    The evolution operator is strongly non-normal in the plain Hermite
    basis: its right eigenfunctions are polynomials times the stationary
    Gaussian while its left ones are bare polynomials, so left/right
    norms diverge with mode order and dense eigensolvers lose digits.
    Conjugating by the Gaussian's square root puts both families on the
    same footing (polynomial times half-Gaussian), which shrinks the
    eigenvalue condition numbers by many orders of magnitude without
    changing the spectrum.

    Returns the conjugated operator together with the coordinate frame
    whose basis weight matches the half-Gaussian, so the conjugated
    eigenfunctions are again finite basis combinations.
    """
    mu = state.mu
    kap = state.kappa
    w = state.width_sum
    if w <= 0.0:
        raise ValueError("stationary Gaussian must have positive width sum")
    # d/dQ and d/dr pick up the gradient of log sqrt(gaussian)
    sub_q = PhasePolyOperator(
        {(0, 0, 1, 0): 1.0, (1, 0, 0, 0): -2.0 * mu, (0, 1, 0, 0): -0.5j * kap}
    )
    sub_r = PhasePolyOperator(
        {(0, 0, 0, 1): 1.0, (1, 0, 0, 0): -0.5j * kap, (0, 1, 0, 0): -0.5 * w}
    )
    op = assemble_liouvillian(coeffs)
    out = PhasePolyOperator({})
    for (a, b, c, d), coeff in op.terms.items():
        term = PhasePolyOperator({(a, b, 0, 0): coeff})
        for _ in range(c):
            term = term @ sub_q
        for _ in range(d):
            term = term @ sub_r
        out = out + term
    frame = CoordinateFrame(1.0 / math.sqrt(mu), math.sqrt(w) / 2.0)
    return out, frame


def refined_window_eigenvalues(
    coeffs,
    state: GaussianState,
    n_q: int,
    n_r: int,
    radius: float,
) -> np.ndarray:
    """Truncated-matrix eigenvalues with |lambda| <= radius, sorted by (re, im).

    The Liouvillian is conjugated by the square root of the stationary
    Gaussian `state`, whose frame makes the matrix graded by Hermite
    degree; the eigenvalues then come from the small, well-conditioned
    blocks of all_eigenvalues.  A state that is not stationary for
    `coeffs` breaks the grading and raises DegreeError.
    """
    op, frame = stationary_similarity(coeffs, state)
    k_mat = assemble_matrix(op, BasisConfig(n_q, n_r, frame))
    if not _is_graded(k_mat):
        raise DegreeError(
            "conjugated matrix raises the Hermite degree beyond roundoff: "
            "the state is not stationary for these coefficients"
        )
    return eigenvalues_in_window(k_mat, radius)


@dataclass
class BiorthReport:
    """Left/right pairing summary for a set of constructed eigenfunctions."""

    labels: list
    predicted: np.ndarray
    computed: np.ndarray
    gram: np.ndarray
    gram_rescaled: np.ndarray
    max_offdiag: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_offdiag <= self.tol


def biorthogonality_check(
    k_mat: OperatorMatrix, modes, tol: float = 1e-6
) -> BiorthReport:
    """Pair numerically computed left eigenvectors with constructed right ones.

    For each mode the predicted eigenvalue seeds one shifted sparse LU;
    a few inverse-iteration steps on the adjoint system give the left
    eigenvector, and a Rayleigh quotient from the right system confirms
    the pairing (PairingFailure if it drifts from the prediction).  The
    report contains the Gram matrix of left/right vectors and its
    diagonal-rescaled deviation from identity.
    """
    cfg = k_mat.config
    mat = k_mat.matrix.tocsc()
    rng = np.random.default_rng(20240)
    rights = []
    lefts = []
    predicted = []
    computed = []
    labels = []
    eye = sp.identity(cfg.dim, format="csc", dtype=complex)
    for mode in modes:
        lam = complex(mode.eigenvalue)
        vec = expand(mode, cfg)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ZeroVector(f"mode {mode.label} expanded to the zero vector")
        vec = vec / norm
        shift = lam + 1e-8 * (1.0 + abs(lam)) * (1.0 + 1.0j) / math.sqrt(2.0)
        lu = splu(mat - shift * eye)
        # one inverse-iteration step from the constructed vector, then Rayleigh
        refined = lu.solve(vec)
        refined /= np.linalg.norm(refined)
        rayleigh = complex(np.vdot(refined, mat @ refined))
        if abs(rayleigh - lam) > 10.0 * tol:
            raise PairingFailure(
                f"mode {mode.label}: matrix eigenvalue {rayleigh} does not match "
                f"prediction {lam}"
            )
        left = rng.standard_normal(cfg.dim) + 1j * rng.standard_normal(cfg.dim)
        for _ in range(3):
            left = lu.solve(left, trans="H")
            left /= np.linalg.norm(left)
        rights.append(vec)
        lefts.append(left)
        predicted.append(lam)
        computed.append(rayleigh)
        labels.append(mode.label)
    right_mat = np.array(rights).T
    left_mat = np.array(lefts).T
    gram = left_mat.conj().T @ right_mat
    diag = np.diag(gram)
    if np.min(np.abs(diag)) < 1e-8:
        raise PairingFailure("a left/right pair is numerically orthogonal")
    rescaled = gram / diag[:, None]
    off = rescaled - np.eye(len(modes))
    max_offdiag = float(np.max(np.abs(off)))
    return BiorthReport(
        labels=labels,
        predicted=np.array(predicted),
        computed=np.array(computed),
        gram=gram,
        gram_rescaled=rescaled,
        max_offdiag=max_offdiag,
        tol=tol,
    )
