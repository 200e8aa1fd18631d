"""Independent numerical oracle in a truncated orthonormal Hermite basis.

Functions f(Q, r) are expanded over products of orthonormal Hermite
functions psi_j(u) psi_k(v) of the scaled coordinates u = sqrt(2) Q/s_q,
v = sqrt(2) s_r r, where (s_q, s_r) are the scales of the expansion frame;
a frame with phase kappa expands f * exp(i kappa Q r).  With a frame
matched to a stationary Gaussian the eigenfunctions of a quadratic
evolution operator are finite combinations, so truncation is exact for
low modes and every closed-form claim can be checked against plain
sparse linear algebra: residuals, evolution, traces, spectra, and
left/right biorthogonality.  Such a frame also grades the matrix by total
Hermite degree, so spectra come from small dense blocks, one per degree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegreeError, EvolutionOverflow, FrameMismatch, PairingFailure, ZeroVector
from .gauss import GaussianState
from .operators import (
    CoordinateFrame,
    PhasePolyOperator,
    assemble_liouvillian,
    exponential_similarity,
    rescale_coordinates,
)
from .spectrum import AppliedEigenfunction

# scipy is imported inside the functions that call it, so that the
# closed-form layers, and the CLI subcommands built on them alone, start
# without loading it.
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "BasisConfig",
    "OperatorMatrix",
    "ladder_matrices",
    "assemble_matrix",
    "expand",
    "reconstruct",
    "residual",
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


@lru_cache(maxsize=None)
def ladder_matrices(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Tridiagonal matrices of u* and d/du* on n orthonormal Hermite functions.

    X is symmetric with X[j, j+1] = sqrt((j+1)/2); D is antisymmetric
    with D[j, j+1] = sqrt((j+1)/2), D[j+1, j] = -sqrt((j+1)/2).  On the
    interior block D X - X D = identity; the last row/column carries the
    truncation defect.
    """
    import scipy.sparse as sp

    off = np.sqrt(np.arange(1, n) / 2.0)
    x_mat = sp.diags([off, off], [1, -1], shape=(n, n), format="csr")
    d_mat = sp.diags([off, -off], [1, -1], shape=(n, n), format="csr")
    return x_mat, d_mat


# Kronecker matrices kept, one per (monomial, n_q, n_r): a quadratic
# operator has at most 15 normal-ordered monomials, so this covers the
# basis sizes of several oracles at once
_BASIS_MONOMIALS = 128


@lru_cache(maxsize=_BASIS_MONOMIALS)
def _monomial_matrix(mono: tuple[int, int, int, int], n_q: int, n_r: int) -> sp.csr_matrix:
    """Read-only matrix of Qs^a rs^b dQs^c drs^d on n_q x n_r Hermite functions.

    (X/sqrt2)^a (sqrt2 D)^c on the Q factor and likewise on the r factor,
    multiplication factors to the left of derivative factors.
    """
    import scipy.sparse as sp

    def power(mat, k, eye):
        out = eye
        for _ in range(k):
            out = out @ mat
        return out

    def factor(n, mult_power, dif_power):
        x_mat, d_mat = ladder_matrices(n)
        eye = sp.identity(n, format="csr")
        mult = (x_mat / math.sqrt(2.0)).tocsr()
        dif = (d_mat * math.sqrt(2.0)).tocsr()
        return power(mult, mult_power, eye) @ power(dif, dif_power, eye)

    a, b, c, d = mono
    mat = sp.kron(factor(n_q, a, c), factor(n_r, b, d), format="csr")
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return mat


def assemble_matrix(op: PhasePolyOperator, cfg: BasisConfig) -> OperatorMatrix:
    """Matrix of a normal-ordered operator in the tensor basis.

    The operator is first conjugated by the frame's phase and rewritten
    in its normalized coordinates; a monomial Qs^a rs^b dQs^c drs^d then
    maps to (X/sqrt2)^a (sqrt2 D)^c on the Q factor and likewise on the r
    factor, multiplication factors to the left of derivative factors.  The
    monomial matrices are cached per basis size and summed in the
    operator's term order.  Total degree above 4 is rejected: higher
    powers of the truncated ladder matrices lose the exact-representation
    property this oracle relies on.
    """
    import scipy.sparse as sp

    if op.degree() > 4:
        raise DegreeError(f"operator degree {op.degree()} exceeds 4")
    scaled = rescale_coordinates(op, cfg.frame)
    total = sp.csr_matrix((cfg.dim, cfg.dim), dtype=complex)
    for mono, coeff in scaled.terms.items():
        total = total + coeff * _monomial_matrix(mono, cfg.n_q, cfg.n_r)
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


def _nodes(frame: CoordinateFrame, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes in Q and in r of the frame."""
    x, _ = _quadrature(n_nodes)
    return (frame.s_q / math.sqrt(2.0)) * x, x / (math.sqrt(2.0) * frame.s_r)


# Gaussians on the quadrature grid kept: every mode of a plan shares one
_PLAN_ENVELOPES = 1


@lru_cache(maxsize=_PLAN_ENVELOPES)
def _envelope(gauss: GaussianState, frame: CoordinateFrame, n_nodes: int) -> np.ndarray:
    """Read-only values of gauss times the frame's phase on the frame's grid."""
    q_nodes, r_nodes = _nodes(frame, n_nodes)
    gauss = replace(gauss, kappa=gauss.kappa - frame.kappa)  # phases cancel exactly
    values = gauss.evaluate(q_nodes[:, None], r_nodes[None, :])
    values.flags.writeable = False
    return values


def expand(f: GaussianState | AppliedEigenfunction, cfg: BasisConfig) -> np.ndarray:
    """Coefficient vector of f * exp(i kappa Q r) in the tensor basis of the
    frame (phase kappa), by Gauss-Hermite quadrature.

    f is a Gaussian state or an applied eigenfunction, whose polynomial
    multiplies its Gaussian; any other type raises TypeError, and a
    Gaussian with mu + nu <= 0 PositivityViolation.  The quadrature order
    is twice the larger basis size, exact for polynomial-times-envelope
    integrands of the matched frame.  If the Gaussian does not fit the
    frame (GaussianState.fits), a FrameMismatch warning is emitted and the
    (slowly converging) expansion is still returned.
    """
    if isinstance(f, GaussianState):
        gauss, poly = f, None
    elif isinstance(f, AppliedEigenfunction):
        gauss, poly = f.gaussian, f.expanded_poly
    else:
        raise TypeError(
            f"cannot expand {type(f).__name__}: need a GaussianState or an AppliedEigenfunction"
        )
    sq, sr = cfg.frame.s_q, cfg.frame.s_r
    if not gauss.fits(cfg.frame):
        warnings.warn(
            f"Gaussian (mu={gauss.mu}, kappa={gauss.kappa}, nu={gauss.nu}) does not "
            f"match frame (s_q={sq}, s_r={sr}, kappa={cfg.frame.kappa}); "
            "expansion accuracy degrades",
            FrameMismatch,
            stacklevel=2,
        )
    n_nodes = 2 * max(cfg.n_q, cfg.n_r)
    _, wtot = _quadrature(n_nodes)
    # the Gaussian factor, with the phase, is shared by every mode of a plan
    values = _envelope(gauss, cfg.frame, n_nodes)
    if poly is not None:
        q_nodes, r_nodes = _nodes(cfg.frame, n_nodes)
        values = poly.evaluate(q_nodes[:, None], r_nodes[None, :]) * values
    psi_q = _basis_at(n_nodes, cfg.n_q)
    psi_r = _basis_at(n_nodes, cfg.n_r)
    pref = math.sqrt(sq / math.sqrt(2.0)) * math.sqrt(1.0 / (math.sqrt(2.0) * sr))
    coeffs = pref * (psi_q * wtot[:, None]).T @ values @ (psi_r * wtot[:, None])
    return coeffs.reshape(-1)


def reconstruct(vec: np.ndarray, cfg: BasisConfig, q, r) -> np.ndarray:
    """Evaluate an expansion, the frame's phase taken off, on the outer grid
    of 1-D arrays q and r."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    sq, sr = cfg.frame.s_q, cfg.frame.s_r
    u = math.sqrt(2.0) * q / sq
    v = math.sqrt(2.0) * sr * r
    psi_q = _hermite_functions(u, cfg.n_q)
    psi_r = _hermite_functions(v, cfg.n_r)
    norm = math.sqrt(math.sqrt(2.0) / sq) * math.sqrt(math.sqrt(2.0) * sr)
    coeffs = np.asarray(vec, dtype=complex).reshape(cfg.n_q, cfg.n_r)
    phase = np.exp(-1j * cfg.frame.kappa * np.outer(q, r)) if cfg.frame.kappa else 1.0
    return norm * psi_q @ coeffs @ psi_r.T * phase


def residual(k_mat: OperatorMatrix, vec: np.ndarray, lam: complex) -> float:
    """Relative residual |K v - lam v| / |v| in the Euclidean norm."""
    vec = np.asarray(vec, dtype=complex)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVector("residual of the zero vector is undefined")
    return float(np.linalg.norm(k_mat.matrix @ vec - lam * vec)) / norm


# Taylor steps an evolution may take: at basis_n 32 one step costs about
# 1.5 ms (2-core Xeon, one BLAS thread), so the budget is a few minutes,
# 400 times what the kl preset needs over its default span 10/gamma.
MAX_TAYLOR_STEPS = 100_000
# scipy's largest Taylor degree m = 55 covers a 1-norm of theta_55 per step
_THETA_55 = 9.9


def _steppable(gen, f0: np.ndarray, span: float) -> np.ndarray:
    """f0 as a complex vector, once it fits gen and scipy can step gen over span.

    scipy's expm_multiply shifts gen by mu = trace(gen)/n and takes at
    least span * |gen - mu I|_1 / theta_55 Taylor steps.  Above
    MAX_TAYLOR_STEPS, or for a count that is not a number,
    EvolutionOverflow is raised before scipy starts stepping.
    """
    import scipy.sparse as sp

    f0 = np.asarray(f0, dtype=complex)
    if f0.shape[:1] != gen.shape[1:]:
        raise ValueError(f"f0 of shape {f0.shape} does not fit a {gen.shape} matrix")
    n = gen.shape[0]
    shifted = gen - (gen.trace() / n) * sp.identity(n, format="csc")
    steps = span * float(abs(shifted).sum(axis=0).max()) / _THETA_55
    if not steps <= MAX_TAYLOR_STEPS:
        raise EvolutionOverflow(
            f"time span too long for the matrix: about {steps:.3g} Taylor steps, "
            f"more than {MAX_TAYLOR_STEPS}"
        )
    return f0


def evolve_series(k_mat: OperatorMatrix, f0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-t K) f0 on a uniform time grid; rows follow `times`.

    A one-point grid is a single expm_multiply of t * (-K), and its t
    must be finite; an empty grid is refused too (ValueError).  Raises
    EvolutionOverflow when the grid is too long for the matrix or the
    evolution leaves the float range.
    """
    from scipy.sparse.linalg import expm_multiply

    times = np.asarray(times, dtype=float)
    gen = -k_mat.matrix.tocsc()
    if times.size == 0:
        raise ValueError("time grid must not be empty")
    if times.size == 1:
        t = float(times[0])
        if not math.isfinite(t):
            raise ValueError("t must be finite")
        f0 = _steppable(gen, f0, abs(t))  # before t * gen can overflow
        gen, kwargs = t * gen, {}
    else:
        gaps = np.diff(times)
        if not np.allclose(gaps, gaps[0], rtol=1e-12, atol=1e-12):
            raise ValueError("time grid must be uniform")
        start, stop = float(times[0]), float(times[-1])
        # scipy steps to the start, then across the grid
        f0 = _steppable(gen, f0, abs(start) + abs(stop - start))
        kwargs = dict(start=start, stop=stop, num=times.size, endpoint=True)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        series = expm_multiply(gen, f0, **kwargs)
    if not np.all(np.isfinite(series)):
        raise EvolutionOverflow("the evolution leaves the float range on this basis")
    return series[None, :] if times.size == 1 else series


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
    return _hermite_functions(np.zeros(1), n)[0]


def trace_and_hermiticity(vec: np.ndarray, cfg: BasisConfig) -> tuple[complex, float]:
    """Trace functional and hermiticity defect of an expanded function.

    The trace is the closed-form integral of f(Q, 0) over Q (only even
    Q-indices and the psi_k(0) column enter).  The hermiticity defect is
    max |f(Q, -r) - conj(f(Q, r))| over a 33x33 grid out to three frame
    scales; the reflected values are obtained by flipping the sign of
    odd-k coefficients, not by resampling.  Both read the expansion
    without the frame's phase, which is 1 at r = 0 and conjugated by r -> -r.
    """
    cfg = replace(cfg, frame=replace(cfg.frame, kappa=0.0))
    coeffs = np.asarray(vec, dtype=complex).reshape(cfg.n_q, cfg.n_r)
    sq, sr = cfg.frame.s_q, cfg.frame.s_r
    norm = math.sqrt(math.sqrt(2.0) / sq) * math.sqrt(math.sqrt(2.0) * sr)
    tr_q = _trace_covector_parts(cfg.n_q) * (sq / math.sqrt(2.0)) * norm
    trace = complex(tr_q @ coeffs @ _psi_at_zero(cfg.n_r))
    q_grid = np.linspace(-3.0 * sq, 3.0 * sq, 33)
    r_grid = np.linspace(-3.0 / sr, 3.0 / sr, 33)
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


def all_eigenvalues(k_mat: OperatorMatrix) -> np.ndarray:
    """Spectrum of the truncated matrix.

    In a frame matched to a stationary Gaussian the matrix never raises
    the total Hermite degree j + k: ordered by degree it is block
    upper-triangular, so its spectrum is the union of those of the small
    diagonal blocks, one per degree, each diagonalized densely.  A matrix
    with a degree-raising entry above roundoff raises DegreeError.
    """
    mat = k_mat.matrix.tocsr()
    deg = _total_degree(k_mat.config)
    coo = mat.tocoo()
    raising = np.abs(coo.data[deg[coo.row] > deg[coo.col]])
    if not np.all(raising <= _GRADING_TOL * np.max(np.abs(coo.data), initial=0.0)):
        raise DegreeError(
            "matrix raises the Hermite degree beyond roundoff: its frame does not "
            "match a Gaussian that is stationary for the operator"
        )
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
    """Conjugate a Liouvillian by the square root of its stationary Gaussian's
    modulus, and by the Gaussian's phase.

    The evolution operator is strongly non-normal in the plain Hermite
    basis: its right eigenfunctions are polynomials times the stationary
    Gaussian while its left ones are bare polynomials, so left/right
    norms diverge with mode order and dense eigensolvers lose digits.
    Conjugating by the Gaussian's square root puts both families on the
    same footing (polynomial times half-Gaussian), which shrinks the
    eigenvalue condition numbers by many orders of magnitude without
    changing the spectrum.

    Returns the operator conjugated by the real half-Gaussian, and the
    frame of its widths with the state's whole phase, which assemble_matrix
    conjugates by; the conjugated eigenfunctions are again finite basis
    combinations.
    """
    phase = state.frame().kappa  # PositivityViolation unless mu + nu > 0
    mu, w = state.mu, state.width_sum
    half = PhasePolyOperator({(2, 0, 0, 0): -mu, (0, 2, 0, 0): -0.25 * w})
    op = exponential_similarity(assemble_liouvillian(coeffs), half)
    return op, CoordinateFrame(1.0 / math.sqrt(mu), math.sqrt(w) / 2.0, phase)


def refined_window_eigenvalues(
    coeffs,
    state: GaussianState,
    n_q: int,
    n_r: int,
    radius: float,
) -> np.ndarray:
    """Truncated-matrix eigenvalues with |lambda| <= radius, sorted by (re, im).

    The Liouvillian is conjugated by stationary_similarity of the
    stationary Gaussian `state`, whose frame makes the matrix graded by
    Hermite degree; the eigenvalues then come from the small, well-conditioned
    blocks of all_eigenvalues.  A state that is not stationary for
    `coeffs` breaks the grading, and all_eigenvalues raises DegreeError.
    """
    op, frame = stationary_similarity(coeffs, state)
    return eigenvalues_in_window(assemble_matrix(op, BasisConfig(n_q, n_r, frame)), radius)


@dataclass
class BiorthReport:
    """Left/right pairing summary for a set of constructed eigenfunctions."""

    gram: np.ndarray
    gram_rescaled: np.ndarray
    max_offdiag: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_offdiag <= self.tol


def splu(mat):
    """scipy's sparse LU factorization, imported on first call."""
    from scipy.sparse.linalg import splu

    return splu(mat)


def biorthogonality_check(
    k_mat: OperatorMatrix, modes, tol: float = 1e-6
) -> BiorthReport:
    """Pair numerically computed left eigenvectors with constructed right ones.

    For each mode the predicted eigenvalue seeds one shifted sparse LU;
    a few inverse-iteration steps on the adjoint system, started from the
    mode's own vector (its pairing with the left eigenvector is nonzero,
    which the Gram diagonal tests), give the left eigenvector, and a
    Rayleigh quotient from the right system confirms the pairing
    (PairingFailure if it drifts from the prediction).  The
    report contains the Gram matrix of left/right vectors and its
    diagonal-rescaled deviation from identity.
    """
    import scipy.sparse as sp

    cfg = k_mat.config
    mat = k_mat.matrix.tocsc()
    rights = []
    lefts = []
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
        left = vec
        for _ in range(3):
            left = lu.solve(left, trans="H")
            left /= np.linalg.norm(left)
        rights.append(vec)
        lefts.append(left)
        # free this factorization before the next one is built
        del lu
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
        gram=gram, gram_rescaled=rescaled, max_offdiag=max_offdiag, tol=tol
    )
