"""Independent numerical oracle in a truncated orthonormal Hermite basis.

Functions f(Q, r) are expanded over products of orthonormal Hermite
functions psi_j(u) psi_k(v) of the scaled coordinates u = sqrt(2) Q/s_q,
v = sqrt(2) s_r r, where (s_q, s_r) are the scales of the expansion frame;
a frame with phase kappa expands f * exp(i kappa Q r).  In a frame
matched to a stationary Gaussian that Gaussian is the ground function and
each degree-one operator a sum of ladder matrices, so an eigenfunction, a
word of such letters applied to the Gaussian, has an exact finite
expansion, and every closed-form claim
can be checked against plain linear algebra: residuals, evolution, traces,
hermiticity, spectra, and left/right biorthogonality.  The trace and the
hermiticity defect are read from the coefficients, the defect as a bound
over the whole plane.  Such a frame also grades the
matrix by total Hermite degree, so spectra come from small dense blocks,
one per degree the basis holds whole, the left eigenvectors of low modes
from the leading block of low degrees, and an evolution keeps to the
degrees its start occupies.  A Liouvillian keeps functions Hermitian, so
the similarity diag(i^k), whose factors are exact, makes every degree
block real, and the spectra are solved in real arithmetic.

A polynomial operator moves each Hermite index by at most its degree in
that coordinate, so its matrix is stored as one coefficient array per
index shift (BandedMatrix) and applied with numpy alone; the evolution is
a truncated Taylor series on those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

__all__ = [
    "BasisConfig",
    "OperatorMatrix",
    "ladder_matrices",
    "assemble_matrix",
    "expand",
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


def _span(n: int, shift: int) -> slice:
    """Indices j of n basis functions with j + shift also among them."""
    return slice(max(0, -shift), n - max(0, shift))


class BandedMatrix:
    """Matrix on the n_q x n_r tensor basis, stored by index shift.

    bands[(s, t)][j, k] is the entry in row (j, k) and column (j + s, k + t),
    with basis index j * n_r + k; entries whose column falls outside the
    basis are zero.  A term of degree p in one coordinate moves its index
    by at most p, so a Liouvillian, whose terms have degree 0 or 2, fills
    at most 9 such arrays; they serve `@` on vectors and `nnz`.  `toarray()`
    and the structure (degree grading, column sums) read `_entries()`.
    """

    def __init__(self, bands: dict[tuple[int, int], np.ndarray], n_q: int, n_r: int):
        # sorted shifts sum each row in the column order of a sparse matrix
        self.bands = dict(sorted(bands.items()))
        self.n_q, self.n_r = n_q, n_r
        # In the flattened basis a shift (s, t) is the offset s * n_r + t; a
        # column that wraps past the end of a row meets a zero entry.
        self._offsets = [s * n_r + t for s, t in self.bands]
        self._pad = max(map(abs, self._offsets), default=0)
        self._flat = [band.reshape(-1) for band in self.bands.values()]

    @property
    def shape(self) -> tuple[int, int]:
        dim = self.n_q * self.n_r
        return dim, dim

    @property
    def nnz(self) -> int:
        return sum(int(np.count_nonzero(band)) for band in self.bands.values())

    def __matmul__(self, vec) -> np.ndarray:
        vec = np.asarray(vec)
        dim, pad = self.shape[0], self._pad
        if vec.shape != (dim,):
            raise ValueError(f"vector of shape {vec.shape} does not fit a {self.shape} matrix")
        padded = np.zeros(dim + 2 * pad, dtype=np.result_type(vec, complex))
        padded[pad : pad + dim] = vec
        out = np.zeros(dim, dtype=padded.dtype)
        product = np.empty_like(out)
        for off, band in zip(self._offsets, self._flat):
            out += np.multiply(band, padded[pad + off : pad + off + dim], out=product)
        return out

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row indices, column indices and values of the nonzero entries."""
        rows, cols, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
        for off, band in zip(self._offsets, self._flat):
            row = np.flatnonzero(band)
            rows.append(row)
            cols.append(row + off)
            vals.append(band[row])
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        rows, cols, vals = self._entries()
        out[rows, cols] = vals
        return out


@dataclass
class OperatorMatrix:
    """Matrix of an operator in a fixed BasisConfig."""

    matrix: BandedMatrix
    config: BasisConfig


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# Ladder matrices kept, one per size: a basis size n uses sizes n to n + 4
# (the products of _ladder_factor) and a word of k letters size k + 1
# (expand), so 16 serve two basis sizes and the words of the labels m <= 2
_LADDER_SIZES = 16


@lru_cache(maxsize=_LADDER_SIZES)
def ladder_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tridiagonal matrices of u* and d/du* on n orthonormal Hermite functions.

    X is symmetric with X[j, j+1] = sqrt((j+1)/2); D is antisymmetric
    with D[j, j+1] = sqrt((j+1)/2), D[j+1, j] = -sqrt((j+1)/2).  On the
    interior block D X - X D = identity; the last row/column carries the
    truncation defect.
    """
    off = np.sqrt(np.arange(1, n) / 2.0)
    upper, lower = np.diag(off, 1), np.diag(off, -1)
    return _read_only(upper + lower), _read_only(upper - lower)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b summed one index at a time, as a sparse product sums.

    BLAS fuses multiplies and adds, which rounds differently.
    """
    out = np.zeros((a.shape[0], b.shape[1]))
    for col, row in zip(a.T, b):
        out += np.multiply.outer(col, row)
    return out


# Ladder factors kept, one per (n, a, c): a + c <= 4, so 15 per basis size
_LADDER_FACTORS = 128


@lru_cache(maxsize=_LADDER_FACTORS)
def _ladder_factor(n: int, mult_power: int, dif_power: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Nonzero diagonals (shift s, read-only F[j, j+s]) of F = (X/sqrt2)^a (sqrt2 D)^c,
    the exact matrix of Qs^a dQs^c on n Hermite functions: the product runs on
    n + a + c of them and is cropped, so entries near the edge keep their terms
    through indices >= n, and interior ones gain only exact zeros."""
    reach = mult_power + dif_power
    size = n + reach
    x_mat, d_mat = ladder_matrices(size)

    def power(mat, k):
        out = np.eye(size)
        for _ in range(k):
            out = _product(out, mat)
        return out

    factor = _product(
        power(x_mat * (1.0 / math.sqrt(2.0)), mult_power),
        power(d_mat * math.sqrt(2.0), dif_power),
    )[:n, :n]
    diagonals = (factor.diagonal(s).copy() for s in range(-reach, reach + 1))
    return tuple(
        (s - reach, _read_only(diag)) for s, diag in enumerate(diagonals) if diag.any()
    )


def assemble_matrix(op: PhasePolyOperator, cfg: BasisConfig) -> OperatorMatrix:
    """Matrix of a normal-ordered operator in the tensor basis.

    The operator is first conjugated by the frame's phase and rewritten
    in its normalized coordinates; a monomial Qs^a rs^b dQs^c drs^d then
    maps to (X/sqrt2)^a (sqrt2 D)^c on the Q factor and likewise on the r
    factor, multiplication factors to the left of derivative factors.  The
    diagonals of the 1-D factors are cached per basis size.  Each band
    stacks the outer products of its diagonals, scaled by their
    coefficients in the operator's term order, and sums the stack in one
    reduction, which adds in that order.
    Every entry is that of the operator itself, restricted to the basis.
    Total degree above 4 is rejected, which bounds the factors cached per
    basis size at 15.
    """
    if op.degree() > 4:
        raise DegreeError(f"operator degree {op.degree()} exceeds 4")
    scaled = rescale_coordinates(op, cfg.frame)
    n_q, n_r = cfg.n_q, cfg.n_r
    # each band's coefficients and factor diagonals, in term order
    parts: dict[tuple[int, int], tuple[list, list, list]] = {}
    for (a, b, c, d), coeff in scaled.terms.items():
        for s, diag_q in _ladder_factor(n_q, a, c):
            for t, diag_r in _ladder_factor(n_r, b, d):
                coeffs, diags_q, diags_r = parts.setdefault((s, t), ([], [], []))
                coeffs.append(coeff)
                diags_q.append(diag_q)
                diags_r.append(diag_r)
    bands: dict[tuple[int, int], np.ndarray] = {}
    for (s, t), (coeffs, diags_q, diags_r) in parts.items():
        outer = np.stack(diags_q)[:, :, None] * np.stack(diags_r)[:, None, :]
        terms = np.array(coeffs)[:, None, None] * outer
        # added to zeros, not assigned, as the per-term sum started from them
        band = bands[(s, t)] = np.zeros((n_q, n_r), dtype=complex)
        band[_span(n_q, s), _span(n_r, t)] += np.add.reduce(terms, axis=0)
    return OperatorMatrix(BandedMatrix(bands, n_q, n_r), cfg)


def expand(f: GaussianState | AppliedEigenfunction, cfg: BasisConfig) -> np.ndarray:
    """Coefficient vector of f * exp(i kappa Q r) in the tensor basis of the
    frame (phase kappa), by the ladder algebra.

    f is a Gaussian state, the empty word, or an applied eigenfunction, a
    word of k degree-one letters applied to its Gaussian
    (AppliedEigenfunction.word); any other type raises TypeError, a Gaussian
    with mu + nu <= 0 PositivityViolation, and one that does not fit the
    frame (GaussianState.fits) FrameMismatch.  A fitting Gaussian is the
    frame's own sqrt(2 mu) psi_0(u) psi_0(v), and a letter
    q Q + r r + dq dQ + dr dr, conjugated by the phase, acts on the
    coefficient array C through the ladder matrices X, D as

        C -> [(q - i kappa dr) s_q/sqrt2 X + dq sqrt2/s_q D] C
             + C [(r - i kappa dq)/(sqrt2 s_r) X + dr sqrt2 s_r D]^T.

    Each letter moves an index by one, so the word runs on k + 1 functions
    per coordinate, whose edge it never reaches, and is cropped to the
    basis: the coefficients are exact, and exactly zero above total degree k.
    """
    if isinstance(f, GaussianState):
        gauss, (scale, powers) = f, (1.0, ())
    elif isinstance(f, AppliedEigenfunction):
        gauss, (scale, powers) = f.gaussian, f.word
    else:
        raise TypeError(
            f"cannot expand {type(f).__name__}: need a GaussianState or an AppliedEigenfunction"
        )
    sq, sr, kappa = cfg.frame.s_q, cfg.frame.s_r, cfg.frame.kappa
    if not gauss.fits(cfg.frame):
        raise FrameMismatch(
            f"Gaussian (mu={gauss.mu}, kappa={gauss.kappa}, nu={gauss.nu}) does not "
            f"match frame (s_q={sq}, s_r={sr}, kappa={kappa})"
        )
    size = 1 + sum(count for _, count in powers)
    x_mat, d_mat = ladder_matrices(size)
    coeffs = np.zeros((size, size), dtype=complex)
    root2 = math.sqrt(2.0)
    pref = math.sqrt(sq / root2) * math.sqrt(1.0 / (root2 * sr))
    coeffs[0, 0] = pref * math.sqrt(2.0 * gauss.mu) * scale
    for op, count in powers:
        on_q = (op.q - 1j * kappa * op.dr) * (sq / root2) * x_mat + op.dq * (root2 / sq) * d_mat
        on_r = (op.r - 1j * kappa * op.dq) / (root2 * sr) * x_mat + op.dr * (root2 * sr) * d_mat
        for _ in range(count):
            coeffs = on_q @ coeffs + coeffs @ on_r.T
    out = np.zeros((cfg.n_q, cfg.n_r), dtype=complex)
    keep_q, keep_r = min(size, cfg.n_q), min(size, cfg.n_r)
    out[:keep_q, :keep_r] = coeffs[:keep_q, :keep_r]
    return out.reshape(-1)


def residual(k_mat: OperatorMatrix, vec: np.ndarray, lam: complex) -> float:
    """Relative residual |K v - lam v| / |v| in the Euclidean norm."""
    vec = np.asarray(vec, dtype=complex)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVector("residual of the zero vector is undefined")
    return float(np.linalg.norm(k_mat.matrix @ vec - lam * vec)) / norm


# Taylor steps an evolution may take: at basis_n 32 one step costs about
# 1.1 ms, 3 ms at the full degree 55 (2-core Xeon, one BLAS thread), so the
# budget is a few minutes, 300 times the 320 steps the kl preset takes over
# its default span 10/gamma.
MAX_TAYLOR_STEPS = 100_000
# A Taylor series of degree 55 reaches unit roundoff on steps whose 1-norm
# is at most theta_55 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488).
_TAYLOR_DEGREE = 55
_THETA_55 = 9.9
_UNIT_ROUNDOFF = 2.0**-53


def _shifted_generator(mat: BandedMatrix, f0: np.ndarray) -> tuple[BandedMatrix, complex, float]:
    """B = -K - mu I on the degrees f0 occupies, mu, and the 1-norm of B.

    A graded matrix never raises the total Hermite degree j + k, so the
    degrees up to the largest of an exactly nonzero entry of f0 span an
    invariant subspace: B keeps the entries whose row and column both lie
    there, after checking the grading (DegreeError), or all of them when
    f0 reaches the largest degree.  Every kept entry, its column too, lies
    among the leading min(n_q, top + 1) x min(n_r, top + 1) functions, the
    basis B is returned on.  mu is the mean of the kept diagonal; the shift
    takes it out of the Taylor series, one exponential per step.
    """
    n_q, n_r = mat.n_q, mat.n_r
    degree = np.add.outer(np.arange(n_q), np.arange(n_r))
    top = degree.reshape(-1)[np.flatnonzero(f0)].max(initial=0)
    kept = degree <= top
    if not kept.all():
        _graded_entries(mat)
    bands = {
        (s, t): np.where(degree <= top - max(0, s + t), -band, 0.0)
        for (s, t), band in mat.bands.items()
    }
    diag = bands.get((0, 0), np.zeros((n_q, n_r), dtype=complex))
    mu = complex(diag.sum()) / np.count_nonzero(kept)
    bands[(0, 0)] = np.where(kept, diag - mu, 0.0)
    keep_q, keep_r = min(n_q, top + 1), min(n_r, top + 1)
    gen = BandedMatrix({st: band[:keep_q, :keep_r] for st, band in bands.items()}, keep_q, keep_r)
    _, cols, vals = gen._entries()
    return gen, mu, float(np.bincount(cols, np.abs(vals), minlength=keep_q * keep_r).max())


def _taylor_steps(norm: float, dt: float) -> float:
    """Steps of degree 55 across dt; inf or NaN when dt * norm is."""
    return float(np.ceil(abs(dt) * norm / _THETA_55))


def _sup(vec: np.ndarray) -> float:
    """Largest modulus of the real and imaginary parts; inf or NaN when vec is not finite."""
    return float(np.max(np.abs(vec.view(np.float64))))


def _taylor_advance(gen: BandedMatrix, mu: complex, vec: np.ndarray, dt: float, steps: int):
    """exp(dt (gen + mu I)) vec in `steps` truncated Taylor steps.

    A step ends early once two successive terms fall below unit roundoff
    of the partial sum; EvolutionOverflow is raised at the first step
    whose result is not finite.
    """
    degree = _TAYLOR_DEGREE if steps else 0
    steps = max(steps, 1)
    scale = np.exp(dt * mu / steps)
    size = _sup(vec)
    for _ in range(steps):
        total, term = vec.copy(), vec
        last = bound = size
        for j in range(1, degree + 1):
            term = gen @ term
            term *= dt / (steps * j)
            size = _sup(term)
            total += term
            bound += size
            # the partial sum is at most `bound`: only a small term needs its norm
            small = last + size
            if small <= _UNIT_ROUNDOFF * bound and small <= _UNIT_ROUNDOFF * _sup(total):
                break
            last = size
        vec = scale * total
        size = _sup(vec)
        if not math.isfinite(size):
            raise EvolutionOverflow("the evolution leaves the float range on this basis")
    return vec


def evolve_series(k_mat: OperatorMatrix, f0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-t K) f0 on a uniform time grid; rows follow `times`.

    A truncated Taylor series steps f0 to the first time and then across
    each interval of the grid, ceil(|dt| ||B||_1 / theta_55) steps of
    degree up to 55 per stretch dt, where B is -K on the degrees f0
    occupies, shifted by its mean diagonal (DegreeError if K is cut but not
    graded).  The steps run on the leading rectangle of functions that
    holds those degrees; the rows are exactly zero outside it.  A
    one-point grid must have a finite t; an empty grid, a
    non-uniform one and an f0 that does not fit raise ValueError.
    EvolutionOverflow is raised before stepping when the steps would exceed
    MAX_TAYLOR_STEPS, and at the first step that leaves the float range.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("time grid must not be empty")
    if times.size == 1 and not math.isfinite(float(times[0])):
        raise ValueError("t must be finite")
    start = float(times[0])
    gap = 0.0
    if times.size > 1:
        gaps = np.diff(times)
        if not np.allclose(gaps, gaps[0], rtol=1e-12, atol=1e-12):
            raise ValueError("time grid must be uniform")
        gap = (float(times[-1]) - start) / (times.size - 1)
    f0 = np.asarray(f0, dtype=complex)
    if f0.shape != k_mat.matrix.shape[1:]:
        raise ValueError(f"f0 of shape {f0.shape} does not fit a {k_mat.matrix.shape} matrix")
    gen, mu, norm = _shifted_generator(k_mat.matrix, f0)
    first, each = _taylor_steps(norm, start), _taylor_steps(norm, gap)
    steps = first + (times.size - 1) * each
    if not steps <= MAX_TAYLOR_STEPS:
        raise EvolutionOverflow(
            f"time span too long for the matrix: about {steps:.3g} Taylor steps, "
            f"more than {MAX_TAYLOR_STEPS}"
        )
    # f0 is exactly zero outside gen's leading rectangle, and so is its evolution
    n_q, n_r, keep_q, keep_r = k_mat.matrix.n_q, k_mat.matrix.n_r, gen.n_q, gen.n_r
    live = np.empty((times.size, keep_q * keep_r), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # checked at each step
        live[0] = _taylor_advance(
            gen, mu, f0.reshape(n_q, n_r)[:keep_q, :keep_r].reshape(-1), start, int(first)
        )
        for i in range(1, times.size):
            live[i] = _taylor_advance(gen, mu, live[i - 1], gap, int(each))
    series = np.zeros((times.size, n_q, n_r), dtype=complex)
    series[:, :keep_q, :keep_r] = live.reshape(times.size, keep_q, keep_r)
    return series.reshape(times.size, -1)


def _even_ratios(n: int) -> np.ndarray:
    """sqrt((2t - 1)/(2t)) for 0 < 2t < n: the ratio of sqrt((2t)!)/(2^t t!)
    to its value at t - 1."""
    two_t = np.arange(2, n, 2)
    return np.sqrt((two_t - 1) / two_t)


def _trace_covector_parts(n: int) -> np.ndarray:
    """Integrals integral psi_j(u) du: sqrt(2 pi) pi^(-1/4) sqrt((2t)!)/(2^t t!)
    at j = 2t, zero for odd j."""
    out = np.zeros(n)
    out[::2] = math.sqrt(2.0 * math.pi) / math.pi**0.25 * np.cumprod(np.r_[1.0, _even_ratios(n)])
    return out


def _psi_at_zero(n: int) -> np.ndarray:
    """Values psi_j(0): at u = 0 the Hermite recurrence reduces to
    psi_j+1(0) = -sqrt(j/(j+1)) psi_j-1(0), which the product runs in order;
    zero for odd j."""
    out = np.zeros(n)
    out[::2] = np.cumprod(np.r_[math.pi ** (-0.25), -_even_ratios(n)])
    return out


def trace_and_hermiticity(vec: np.ndarray, cfg: BasisConfig) -> tuple[complex, float]:
    """Trace functional and hermiticity defect of an expanded function.

    The trace is the closed-form integral of f(Q, 0) over Q (only even
    Q-indices and the psi_k(0) column enter).  The hermiticity defect bounds
    |f(Q, -r) - conj(f(Q, r))| over the whole plane.  The Hermite functions
    are real and psi_k(-v) = (-1)^k psi_k(v), so the difference is
    psi_q (C (-1)^k - conj C) psi_r^T of the coefficient array C, and by
    Indritz's inequality |psi_j| <= pi^(-1/4) its modulus is at most the
    basis normalization times pi^(-1/2) sum |C (-1)^k - conj C|.  Both read
    the expansion without the frame's phase, which is 1 at r = 0 and
    conjugated by r -> -r.
    """
    coeffs = np.asarray(vec, dtype=complex).reshape(cfg.n_q, cfg.n_r)
    sq, sr = cfg.frame.s_q, cfg.frame.s_r
    norm = math.sqrt(math.sqrt(2.0) / sq) * math.sqrt(math.sqrt(2.0) * sr)
    tr_q = _trace_covector_parts(cfg.n_q) * (sq / math.sqrt(2.0)) * norm
    trace = complex(tr_q @ coeffs @ _psi_at_zero(cfg.n_r))
    gap = coeffs * (-1.0) ** np.arange(cfg.n_r) - coeffs.conj()
    defect = norm / math.sqrt(math.pi) * float(np.sum(np.abs(gap)))
    return trace, defect


# Degree-raising entries up to this fraction of the largest entry are
# roundoff (below 4e-16 for the presets), not structure.
_GRADING_TOL = 1e-12


def _graded_entries(mat: BandedMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of mat's nonzero entries, and the total Hermite
    degree j + k of each basis function.  DegreeError unless every entry that
    raises the degree (row degree above column degree) is roundoff of the
    largest entry; a NaN entry makes a maximum NaN and fails too."""
    rows, cols, vals = mat._entries()
    degree = np.add.outer(np.arange(mat.n_q), np.arange(mat.n_r)).reshape(-1)
    magnitude = np.abs(vals)
    raising = magnitude[degree[rows] > degree[cols]]
    if not raising.max(initial=0.0) <= _GRADING_TOL * magnitude.max(initial=0.0):
        raise DegreeError(
            "matrix raises the Hermite degree beyond roundoff: its frame does not "
            "match a Gaussian that is stationary for the operator"
        )
    return rows, cols, vals, degree


def all_eigenvalues(k_mat: OperatorMatrix) -> np.ndarray:
    """Spectrum of the degree blocks the basis holds whole, as complex128.

    In a frame matched to a stationary Gaussian the matrix never raises the
    total Hermite degree j + k (else DegreeError), so ordered by degree it
    is block upper-triangular, and the degrees below any bound span an
    invariant subspace.  The entries are exact, so for d < m = min(n_q, n_r)
    the block of degree d, on the d + 1 functions (j, d - j), is the
    operator's own; those m blocks are diagonalized densely, m (m + 1) / 2
    eigenvalues in all.  The blocks of higher degree, cut by the
    truncation, are left out.  A Liouvillian keeps functions Hermitian,
    C -> conj(C) (-1)^k, so its matrix has P conj(M) P = M, P = diag((-1)^k)
    = S^2 with S = diag(i^k): S^-1 M S, each entry times the exact
    i^(k_col - k_row), is real, and so are the blocks diagonalized (an
    imaginary part beyond roundoff raises DegreeError).
    """
    rows, cols, vals, degree = _graded_entries(k_mat.matrix)
    n_r = k_mat.matrix.n_r
    top = min(k_mat.matrix.n_q, n_r)
    level = np.flatnonzero((degree[rows] == degree[cols]) & (degree[rows] < top))
    level = level[np.argsort(degree[rows[level]], kind="stable")]
    rows, cols = rows[level], cols[level]
    vals = vals[level] * np.array([1, 1j, -1, -1j])[(cols % n_r - rows % n_r) % 4]
    if not np.abs(vals.imag).max(initial=0.0) <= _GRADING_TOL * np.abs(vals).max(initial=0.0):
        raise DegreeError("matrix breaks hermiticity beyond roundoff: its blocks are not real")
    bounds, spectra = np.searchsorted(degree[rows], np.arange(top + 1)), []
    for d in range(top):
        at = slice(bounds[d], bounds[d + 1])
        block = np.zeros((d + 1, d + 1))
        # (j, d - j) is row j of block d
        block[rows[at] // n_r, cols[at] // n_r] = vals.real[at]
        spectra.append(np.linalg.eigvals(block))
    return np.concatenate(spectra, dtype=complex)


def eigenvalues_in_window(k_mat: OperatorMatrix, radius: float) -> np.ndarray:
    """Eigenvalues of all_eigenvalues with |lambda| <= radius, sorted by (re, im)."""
    ev = all_eigenvalues(k_mat)
    ev = ev[np.abs(ev) <= radius]
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def stationary_similarity(
    coeffs, state: GaussianState
) -> tuple[PhasePolyOperator, CoordinateFrame]:
    """Conjugate a Liouvillian by the square root of its stationary Gaussian's
    modulus, and by the Gaussian's phase.

    Both families of eigenfunctions become polynomials times the real
    half-Gaussian, so the conjugated operator's matrix is graded by Hermite
    degree too, with the same degree blocks up to a similarity: an
    independent route to the spectrum of refined_window_eigenvalues.
    Returns the operator conjugated by the real half-Gaussian, and the
    frame of its widths with the state's whole phase, which assemble_matrix
    conjugates by.
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
    """Liouvillian eigenvalues with |lambda| <= radius, sorted by (re, im).

    The Liouvillian is assembled in the frame of the stationary Gaussian
    `state`, which grades the matrix by Hermite degree, and the eigenvalues
    come from the degree blocks the basis holds whole (all_eigenvalues).  A
    state that is not stationary for `coeffs` breaks the grading, and
    all_eigenvalues raises DegreeError.
    """
    cfg = BasisConfig(n_q, n_r, state.frame())
    return eigenvalues_in_window(assemble_matrix(assemble_liouvillian(coeffs), cfg), radius)


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


def splu(mat: np.ndarray) -> np.ndarray:
    """Inverse of one mode's shifted leading block in biorthogonality_check,
    the step that perfbench's tracer times under this name."""
    return np.linalg.inv(mat)


def biorthogonality_check(k_mat: OperatorMatrix, modes, tol: float = 1e-6) -> BiorthReport:
    """Pair numerically computed left eigenvectors with constructed right ones.

    A matched frame's matrix never raises the total Hermite degree (else
    DegreeError), so degrees <= D = max(2m - n) over the modes (m, n, sigma;
    PairingFailure if there are none) span an invariant subspace holding
    every mode, and on it the left eigenvectors are those of the leading
    block on degrees <= D (15x15 for m <= 2).  For each mode the predicted
    eigenvalue seeds one shifted inverse of that block; a few inverse-iteration
    steps on the adjoint system, started from the mode's own vector (its
    pairing with the left eigenvector is nonzero, which the Gram diagonal
    tests), give the left eigenvector, and a Rayleigh quotient from the right
    system confirms the pairing (PairingFailure if it drifts from the
    prediction).  The report contains the Gram matrix of left/right vectors
    and its diagonal-rescaled deviation from identity.
    """
    if not modes:
        raise PairingFailure("no modes to pair")
    rows, cols, vals, degree = _graded_entries(k_mat.matrix)
    low = degree <= max(2 * mode.label.m - mode.label.n for mode in modes)
    index, position = np.flatnonzero(low), np.cumsum(low) - 1
    keep = low[rows] & low[cols]
    block = np.zeros((index.size, index.size), dtype=complex)
    block[position[rows[keep]], position[cols[keep]]] = vals[keep]
    rights, lefts = [], []
    for mode in modes:
        lam = complex(mode.eigenvalue)
        vec = expand(mode, k_mat.config)[index]
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ZeroVector(f"mode {mode.label} expanded to the zero vector")
        vec = vec / norm
        shift = lam + 1e-8 * (1.0 + abs(lam)) * (1.0 + 1.0j) / math.sqrt(2.0)
        inverse = splu(block - shift * np.eye(index.size))
        # one inverse-iteration step from the constructed vector, then Rayleigh
        refined = inverse @ vec
        refined /= np.linalg.norm(refined)
        rayleigh = complex(np.vdot(refined, block @ refined))
        if abs(rayleigh - lam) > 10.0 * tol:
            raise PairingFailure(
                f"mode {mode.label}: matrix eigenvalue {rayleigh} does not match "
                f"prediction {lam}"
            )
        left = vec
        for _ in range(3):
            left = inverse.conj().T @ left
            left /= np.linalg.norm(left)
        rights.append(vec)
        lefts.append(left)
    gram = np.array(lefts).conj() @ np.array(rights).T
    diag = np.diag(gram)
    if np.min(np.abs(diag)) < 1e-8:
        raise PairingFailure("a left/right pair is numerically orthogonal")
    rescaled = gram / diag[:, None]
    max_offdiag = float(np.max(np.abs(rescaled - np.eye(len(modes)))))
    return BiorthReport(gram=gram, gram_rescaled=rescaled, max_offdiag=max_offdiag, tol=tol)
