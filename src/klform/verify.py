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
degrees its start occupies.  The modes of one raising pair are words
c B1^n1 B2^n2 rho that share their prefixes, so the pairing reads them
from one lattice of words on the degrees it keeps.  A Liouvillian keeps
functions Hermitian, so the similarity diag(i^k), whose factors are
exact, makes every degree block real, and the spectra are solved in real
arithmetic.

A polynomial operator moves each Hermite index by at most its degree in
that coordinate, so its matrix is stored as one coefficient array per
index shift (BandedMatrix), from ladder factors in closed form for the
quadratic operators assembled, and applied with numpy alone; the evolution is
a truncated Taylor series on those arrays.  A shift (s, t) moves the total
degree by a fixed -(s + t), so the grading is checked on per-band maxima
and the blocks are gathered from the bands with s + t = 0.  A spectral
window skips each block that a Bauer-Fike certificate (Numer. Math. 2
(1960) 137) puts outside it: by the paper's first claim block d is the
second-quantized image of block 1, with the eigenvalues n1 alpha_1 +
n2 alpha_2 of its 2x2 part and the eigenvectors Sym^d(P), of condition
cond(P)^d (third quantization, Prosen, New J. Phys. 10 (2008) 043026), so
the distance of the block from that prediction, times cond(P)^d, bounds
how far its eigenvalues lie from the predicted ones.  The blocks left are
solved zero-padded, up to 16 successive degrees per LAPACK call, which
keeps each block's eigenvalues bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegreeError, EvolutionOverflow, FrameMismatch, PairingFailure, ZeroVector
from .gauss import GaussianState
from .operators import (
    CoordinateFrame,
    PhasePolyOperator,
    _exp_conjugated,
    _rescale_coordinates,
    assemble_liouvillian,
)
from .spectrum import AppliedEigenfunction, _word

__all__ = [
    "BasisConfig",
    "OperatorMatrix",
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
    at most 9 such arrays.  They are the layers of one complex C-ordered
    stack, in sorted shift order, and bands[(s, t)] is a view of its layer,
    so a write through it reaches every reader.  Band (s, t) maps a
    function of total Hermite degree e to degree e - (s + t), so the degree
    structure, `nnz`, `toarray()` and the finiteness test each read the
    whole stack in one numpy call; `@` on vectors (and residual on the
    leading rows a vector reaches) adds the bands one by one.  A matrix
    built from a dict of bands stacks a copy of them, and raises DegreeError
    for a nonzero entry whose column leaves the basis.
    """

    def __init__(self, bands: dict[tuple[int, int], np.ndarray], n_q: int, n_r: int):
        shifts = sorted(bands)
        stack = np.array([bands[st] for st in shifts], dtype=complex)
        stack = stack.reshape(len(shifts), n_q, n_r)
        for (s, t), band in zip(shifts, stack):
            inside = band[max(0, -s) : max(0, n_q - s), max(0, -t) : max(0, n_r - t)]
            if np.count_nonzero(inside) != np.count_nonzero(band):
                raise DegreeError(
                    f"band {(s, t)} has a nonzero entry whose column leaves the "
                    f"{n_q} x {n_r} basis"
                )
        self._adopt(shifts, stack)

    @classmethod
    def _of_stack(cls, shifts, stack: np.ndarray) -> BandedMatrix:
        """The matrix whose band shifts[i] is stack[i]: the sorted shifts and a
        C-ordered complex stack, kept without a copy."""
        mat = cls.__new__(cls)
        mat._adopt(shifts, stack)
        return mat

    def _adopt(self, shifts, stack: np.ndarray) -> None:
        # sorted shifts sum each row in the column order of a sparse matrix
        self._shifts = tuple(shifts)
        self._stack = stack
        self.n_q, self.n_r = stack.shape[1:]
        self.bands = dict(zip(self._shifts, stack))
        # In the flattened basis a shift (s, t) is the offset s * n_r + t; a
        # column that wraps past the end of a row meets a zero entry.
        self._offsets = [s * self.n_r + t for s, t in self._shifts]
        self._pad = max(map(abs, self._offsets), default=0)

    @property
    def shape(self) -> tuple[int, int]:
        dim = self.n_q * self.n_r
        return dim, dim

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._stack))

    @cached_property
    def _finite(self) -> bool:
        """Whether every entry is finite, read from the stack once, on first use:
        both parts of each, as floats, which numpy tests twice as fast."""
        return bool(np.isfinite(self._stack.view(np.float64)).all())

    def __matmul__(self, vec) -> np.ndarray:
        return self._leading_rows(vec, self.shape[0])

    def _leading_rows(self, vec, rows: int) -> np.ndarray:
        """The first `rows` entries of self @ vec, each summed as the full
        product sums it: band by band, in shift order, from zero."""
        vec = np.asarray(vec)
        dim, pad = self.shape[0], self._pad
        if vec.shape != (dim,):
            raise ValueError(f"vector of shape {vec.shape} does not fit a {self.shape} matrix")
        # a row reads at most pad entries beyond it
        padded = np.zeros(rows + 2 * pad, dtype=np.result_type(vec, complex))
        seen = vec[: rows + pad]
        padded[pad : pad + seen.size] = seen
        out = np.zeros(rows, dtype=padded.dtype)
        product = np.empty_like(out)
        leading = self._stack.reshape(len(self._offsets), dim)[:, :rows]
        for off, band in zip(self._offsets, leading):
            out += np.multiply(band, padded[pad + off : pad + off + rows], out=product)
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        flat = self._stack.reshape(len(self._offsets), self.shape[0])
        band, row = np.nonzero(flat)
        out[row, row + np.array(self._offsets, dtype=int)[band]] = flat[band, row]
        return out


@dataclass
class OperatorMatrix:
    """Matrix of an operator in a fixed BasisConfig."""

    matrix: BandedMatrix
    config: BasisConfig


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# Ladder matrices kept, one per size: a word of k letters uses size k + 1
# (expand), and a word lattice on degrees <= D size D + 1, so 16 serve the
# words of up to 15 letters
_LADDER_SIZES = 16


@lru_cache(maxsize=_LADDER_SIZES)
def _ladder_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tridiagonal matrices of u* and d/du* on n orthonormal Hermite functions.

    X is symmetric with X[j, j+1] = sqrt((j+1)/2); D is antisymmetric
    with D[j, j+1] = sqrt((j+1)/2), D[j+1, j] = -sqrt((j+1)/2).  On the
    interior block D X - X D = identity; the last row/column carries the
    truncation defect.
    """
    off = np.sqrt(np.arange(1, n) / 2.0)
    upper, lower = np.diag(off, 1), np.diag(off, -1)
    return _read_only(upper + lower), _read_only(upper - lower)


# Ladder factors kept, one per (n, a, c): a + c <= 2, so 6 per basis size
_LADDER_FACTORS = 128


@lru_cache(maxsize=_LADDER_FACTORS)
def _ladder_factor(n: int, mult_power: int, dif_power: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Nonzero diagonals (shift s, read-only F[j, j+s]) of F = (X/sqrt2)^a (sqrt2 D)^c,
    a + c <= 2, the exact matrix of Qs^a dQs^c on n Hermite functions.

    A letter L moves an index by one: L[j, j+1] = up[j] and L[j+1, j] = down[j],
    with up = down = sqrt((j+1)/2)/sqrt2 for X/sqrt2 and up = -down =
    sqrt2 sqrt((j+1)/2) for sqrt2 D.  A product of two letters A B keeps
    the diagonals -2, 0 and +2, and entry j of diagonal 0 adds its terms
    A[j, j-1] B[j-1, j] and A[j, j+1] B[j+1, j] in that order, from zero;
    the second runs through index j + 1 = n at the edge, so every entry is
    the operator's own.
    """
    link = np.sqrt(np.arange(1, n + 1) / 2.0)
    mult = link * (1.0 / math.sqrt(2.0))
    dif = link * math.sqrt(2.0)
    letters = [(mult, mult)] * mult_power + [(dif, -dif)] * dif_power
    if not letters:
        diagonals = [(0, np.ones(n))]
    elif len(letters) == 1:
        [(up, down)] = letters
        diagonals = [(-1, down[: n - 1]), (1, up[: n - 1])]
    else:
        (a_up, a_down), (b_up, b_down) = letters
        middle = np.zeros(n)
        middle[1:] += a_down[: n - 1] * b_up[: n - 1]
        middle += a_up * b_down
        diagonals = [
            (-2, a_down[1 : n - 1] * b_down[: n - 2]),
            (0, middle),
            (2, a_up[: n - 2] * b_up[1 : n - 1]),
        ]
    return tuple((s, _read_only(diag.copy())) for s, diag in diagonals)


# Two-sided outer products kept, one per (n_q, a, c, n_r, b, d): a term of
# degree 2 with a factor on each side has a + c = b + d = 1, so 4 per pair
# of basis sizes, about 0.2 MB at 40x40
_LADDER_OUTERS = 32


@lru_cache(maxsize=_LADDER_OUTERS)
def _ladder_outers(
    n_q: int, a: int, c: int, n_r: int, b: int, d: int
) -> tuple[tuple[int, int, np.ndarray], ...]:
    """(s, t, read-only diag_q[:, None] * diag_r) for every pair of nonzero
    diagonals of the factors (X/sqrt2)^a (sqrt2 D)^c on n_q functions and
    (X/sqrt2)^b (sqrt2 D)^d on n_r, in the order of _ladder_factor's."""
    return tuple(
        (s, t, _read_only(diag_q[:, None] * diag_r))
        for s, diag_q in _ladder_factor(n_q, a, c)
        for t, diag_r in _ladder_factor(n_r, b, d)
    )


def assemble_matrix(op: PhasePolyOperator, cfg: BasisConfig) -> OperatorMatrix:
    """Matrix of a normal-ordered operator of degree at most 2 in the tensor basis.

    The operator is first conjugated by the frame's phase and rewritten
    in its normalized coordinates; a monomial Qs^a rs^b dQs^c drs^d then
    maps to (X/sqrt2)^a (sqrt2 D)^c on the Q factor and likewise on the r
    factor, multiplication factors to the left of derivative factors.  The
    diagonals of the 1-D factors, in closed form, are cached per basis
    size, and so are the outer products of a term with a factor on each
    coordinate.  Each term adds the outer products of its diagonals,
    scaled by its coefficient, into its bands, in the operator's term
    order.  A term without a factor on one coordinate has the identity
    there, whose diagonal is exactly 1.0, so it adds its coefficient
    times its other diagonal broadcast along that coordinate, or its
    coefficient times 1.0: the same entries as the outer product, bit
    for bit.  Every entry is that of the operator itself, restricted to
    the basis.  Total degree above 2, beyond any quadratic Liouvillian,
    raises DegreeError, which bounds the factors cached per basis size
    at 6.
    """
    if op.degree() > 2:
        raise DegreeError(f"operator degree {op.degree()} exceeds 2")
    scaled = _rescale_coordinates(op, cfg.frame)
    n_q, n_r = cfg.n_q, cfg.n_r
    # a factor of degree p has the diagonals -p, -p + 2, ..., p
    degrees = {(a + c, b + d) for a, b, c, d in scaled.terms}
    shifts = sorted(
        {(s, t) for p, q in degrees for s in range(-p, p + 1, 2) for t in range(-q, q + 1, 2)}
    )
    stack = np.zeros((len(shifts), n_q, n_r), dtype=complex)
    # the entries of band (s, t) whose column lies in the basis
    spans = {(s, t): band[_span(n_q, s), _span(n_r, t)] for (s, t), band in zip(shifts, stack)}
    for (a, b, c, d), coeff in scaled.terms.items():
        # made one at a time, so that a term holds one array of entries
        if a + c and b + d:
            entries = ((s, t, coeff * outer) for s, t, outer in _ladder_outers(n_q, a, c, n_r, b, d))
        elif a + c:
            entries = ((s, 0, (coeff * diag)[:, None]) for s, diag in _ladder_factor(n_q, a, c))
        elif b + d:
            entries = ((0, t, coeff * diag) for t, diag in _ladder_factor(n_r, b, d))
        else:
            entries = ((0, 0, coeff * 1.0),)
        for s, t, values in entries:
            spans[(s, t)] += values
    return OperatorMatrix(BandedMatrix._of_stack(shifts, stack), cfg)


def _ground(gauss: GaussianState, frame: CoordinateFrame) -> float:
    """Coefficient of psi_0(u) psi_0(v) in the expansion of a Gaussian that
    fits the frame, sqrt(2 mu) times the basis normalization; FrameMismatch
    if it does not fit, PositivityViolation if mu + nu <= 0."""
    sq, sr = frame.s_q, frame.s_r
    if not gauss.fits(frame):
        raise FrameMismatch(
            f"Gaussian (mu={gauss.mu}, kappa={gauss.kappa}, nu={gauss.nu}) does not "
            f"match frame (s_q={sq}, s_r={sr}, kappa={frame.kappa})"
        )
    root2 = math.sqrt(2.0)
    pref = math.sqrt(sq / root2) * math.sqrt(1.0 / (root2 * sr))
    return pref * math.sqrt(2.0 * gauss.mu)


def _letter(op, frame: CoordinateFrame, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) with C -> L C + C R the action of the degree-one letter op,
    conjugated by the frame's phase, on size x size coefficient arrays."""
    sq, sr, kappa = frame.s_q, frame.s_r, frame.kappa
    x_mat, d_mat = _ladder_matrices(size)
    root2 = math.sqrt(2.0)
    on_q = (op.q - 1j * kappa * op.dr) * (sq / root2) * x_mat + op.dq * (root2 / sq) * d_mat
    on_r = (op.r - 1j * kappa * op.dq) / (root2 * sr) * x_mat + op.dr * (root2 * sr) * d_mat
    return on_q, on_r.T


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
    ground = _ground(gauss, cfg.frame)
    size = 1 + sum(count for _, count in powers)
    coeffs = np.zeros((size, size), dtype=complex)
    coeffs[0, 0] = ground * scale
    for op, count in powers:
        on_q, on_r = _letter(op, cfg.frame, size)
        for _ in range(count):
            coeffs = on_q @ coeffs + coeffs @ on_r
    out = np.zeros((cfg.n_q, cfg.n_r), dtype=complex)
    keep_q, keep_r = min(size, cfg.n_q), min(size, cfg.n_r)
    out[:keep_q, :keep_r] = coeffs[:keep_q, :keep_r]
    return out.reshape(-1)


def residual(k_mat: OperatorMatrix, vec: np.ndarray, lam: complex) -> float:
    """Relative residual |K v - lam v| / |v| in the Euclidean norm.

    Row i of K v reads the entries i + s n_r + t of v, so past the last
    nonzero entry of v and the largest such offset every row of a finite
    matrix is an exact zero: only the rows before are multiplied (a mode of
    m <= 2 in its own frame reaches at most 241 of 1,600 rows at 40x40),
    each summed as K @ v sums it, and K v - lam v is laid out at full
    length with zeros past them, so the norm is the full product's, bit
    for bit.  A matrix with an entry that is not finite (read once, on the
    first call) multiplies every row, so that inf * 0 gives NaN.
    """
    vec = np.asarray(vec, dtype=complex)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVector("residual of the zero vector is undefined")
    mat = k_mat.matrix
    reach = mat.shape[0]
    if mat._finite:
        reach = min(reach, int((vec != 0).nonzero()[0][-1]) + mat._pad + 1)
    diff = np.zeros_like(vec)
    diff[:reach] = mat._leading_rows(vec, reach) - lam * vec[:reach]
    return float(np.linalg.norm(diff)) / norm


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
        _check_grading(mat)
    if (0, 0) not in mat.bands:  # B holds the shift on its diagonal
        mat = BandedMatrix({**mat.bands, (0, 0): np.zeros((n_q, n_r))}, n_q, n_r)
    # band (s, t) lowers the degree of its row by s + t
    lowered = np.array([max(0, s + t) for s, t in mat._shifts])[:, None, None]
    stack = np.where(degree <= top - lowered, -mat._stack, 0.0)
    diag = stack[mat._shifts.index((0, 0))]
    mu = complex(diag.sum()) / np.count_nonzero(kept)
    diag[...] = np.where(kept, diag - mu, 0.0)
    keep_q, keep_r = min(n_q, top + 1), min(n_r, top + 1)
    gen = BandedMatrix._of_stack(mat._shifts, np.ascontiguousarray(stack[:, :keep_q, :keep_r]))
    # each column's moduli added in band order, from zero
    norms = np.zeros((keep_q, keep_r))
    for (s, t), band in gen.bands.items():
        rows = _span(keep_q, s), _span(keep_r, t)
        norms[_span(keep_q, -s), _span(keep_r, -t)] += np.abs(band[rows])
    return gen, mu, float(norms.max())


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


def _check_grading(mat: BandedMatrix) -> None:
    """DegreeError unless every entry that raises the total Hermite degree,
    those of the bands (s, t) with s + t < 0, is roundoff of the largest
    entry, and every entry is finite; a NaN entry makes a maximum NaN and
    fails the first test, an infinite one the second."""
    peaks = np.abs(mat._stack).max(axis=(1, 2), initial=0.0)
    raising = peaks[[s + t < 0 for s, t in mat._shifts]].max(initial=0.0)
    largest = peaks.max(initial=0.0)
    if not raising <= _GRADING_TOL * largest:
        raise DegreeError(
            "matrix raises the Hermite degree beyond roundoff: its frame does not "
            "match a Gaussian that is stationary for the operator"
        )
    if largest == math.inf:
        raise DegreeError("matrix has an infinite entry: no block of it is the operator's")


# Block layouts kept, one per basis size min(n_q, n_r)
_LAYOUTS = 8


@lru_cache(maxsize=_LAYOUTS)
def _block_layout(top: int) -> tuple[np.ndarray, ...]:
    """Read-only index arrays of the degree blocks d < top, packed row-major,
    block d in packed[ends[d] : ends[d + 1]]: over the pairs (d, j), j <= d,
    d, j and the position of entry (j, j); ends; the positions `tri` of
    the entries (j, j), then (j, j + 1), then (j + 1, j), and their degrees;
    the 5 x tri.size weights that give G_d at `tri` from (c, A00, A01, A10,
    A11) (_degree_blocks); and where each degree's pairs start."""
    deg, row = np.tril_indices(top)
    ends = np.cumsum(np.arange(top + 1) ** 2)
    diag = ends[deg] + row * (deg + 2)
    inner = row < deg
    upper = diag[inner] + 1
    lower = upper + deg[inner]
    ladder = np.sqrt((row[inner] + 1.0) * (deg - row)[inner])
    n_diag, n_off = diag.size, upper.size
    weights = np.zeros((5, n_diag + 2 * n_off))
    weights[0, :n_diag] = 1.0
    weights[1, :n_diag] = deg - row
    weights[2, n_diag : n_diag + n_off] = ladder
    weights[3, n_diag + n_off :] = ladder
    weights[4, :n_diag] = row
    tri = np.concatenate([diag, upper, lower])
    tri_deg = np.concatenate([deg, deg[inner], deg[inner]])
    starts = np.flatnonzero(row == 0)
    layout = (deg, row, ends, diag, tri, tri_deg, weights, starts)
    return tuple(_read_only(arr) for arr in layout)


# Gathers kept, one per (basis, band shifts): two sets of band shifts per layout
_KEEPING_GATHERS = 2 * _LAYOUTS


@lru_cache(maxsize=_KEEPING_GATHERS)
def _keeping_gather(top: int, n_q: int, n_r: int, shifts: tuple) -> tuple[np.ndarray, ...]:
    """Read-only positions, in the flattened band stack of the shifts given,
    of the entries band[j, d - j] that the degree-keeping bands (s, -s) hold
    in the blocks d < top, band by band and in the order of _block_layout's
    pairs (d, j); their positions in the packed blocks, row j, column j + s
    of block d; the exact phase i^(-s) of each; and the indices of those
    from a band with |s| > 1, which no quadratic operator fills."""
    deg, row, _, diag, *_ = _block_layout(top)
    source, dest, phase, far = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [], []
    for index, (s, t) in enumerate(shifts):
        if s + t == 0:
            inside = (row + s >= 0) & (row + s <= deg)
            source.append(index * n_q * n_r + row[inside] * n_r + (deg - row)[inside])
            dest.append(diag[inside] + s)
            phase += [(1, 1j, -1, -1j)[t % 4]] * dest[-1].size
            far += [abs(s) > 1] * dest[-1].size
    gather = (np.concatenate(source), np.concatenate(dest), np.array(phase, dtype=complex))
    return tuple(_read_only(arr) for arr in (*gather, np.flatnonzero(far)))


_U = np.finfo(float).eps / 2  # unit roundoff


def _pair_eigensystem(a00: float, a01: float, a10: float, a11: float):
    """Eigenvalues alpha_1, alpha_2 of the real 2x2 matrix A, in closed form;
    kappa >= cond_2(P) of their unit eigenvectors P, inf for a defective A;
    and delta >= ||A - P diag(alpha) P^-1||_2.

    For unit columns P^H P has eigenvalues 1 +- g, g = |p_1^H p_2|, so
    sigma_1 sigma_2 = |det P| and kappa = (1 + g) / |det P|, the
    determinant lowered by 4u for its rounding.  The computed pairs are
    exact for A - R P^-1, R = A P - P diag(alpha), so delta = ||R||_F /
    sigma_min(P), ||R||_F raised by its rounding 6u (||A||_F + max |alpha|).
    """
    half, mid = 0.5 * (a00 - a11), 0.5 * (a00 + a11)
    root = cmath.sqrt(half * half + a01 * a10)
    alphas = (mid + root, mid - root)
    columns = []
    for k, alpha in enumerate(alphas):
        # (A01, alpha - A00) and (alpha - A11, A10) both solve (A - alpha) p = 0
        pairs = ((a01, alpha - a00), (alpha - a11, a10))
        p0, p1 = max(pairs, key=lambda pair: math.hypot(abs(pair[0]), abs(pair[1])))
        norm = math.hypot(abs(p0), abs(p1))
        # both vanish only for a multiple of the identity: take the unit vectors
        columns.append((p0 / norm, p1 / norm) if norm else ((1.0, 0.0), (0.0, 1.0))[k])
    (u0, u1), (w0, w1) = columns
    g = abs(u0.conjugate() * w0 + u1.conjugate() * w1)
    det = abs(u0 * w1 - u1 * w0) - 4 * _U
    if det <= 0:
        return alphas[0], alphas[1], math.inf, math.inf
    misses = []
    for (p0, p1), alpha in zip(columns, alphas):
        misses += [a00 * p0 + a01 * p1 - alpha * p0, a10 * p0 + a11 * p1 - alpha * p1]
    residual = math.hypot(*map(abs, misses))
    residual += 6 * _U * (math.hypot(a00, a01, a10, a11) + max(map(abs, alphas)))
    return alphas[0], alphas[1], (1 + g) / det, residual * math.sqrt(1 + g) / det


def _degree_blocks(mat: BandedMatrix) -> tuple[list[np.ndarray], np.ndarray]:
    """The real blocks of all_eigenvalues, and floor[d] <= |lambda| for
    every eigenvalue LAPACK computes for block d, -inf where no bound
    applies.  Entry band[j, d - j] of a degree-keeping band (s, -s) lies in
    row j, column j + s of block d, times i^(-s).

    The floor is a Bauer-Fike certificate (Numer. Math. 2 (1960) 137)
    against the block that the paper's first claim predicts from blocks 0
    and 1.  In a frame matched to the stationary Gaussian the operator is
    c + dGamma(A) on the ladder pair, c = M_0 and A = M_1 - c I, so block d
    is G_d = c I + dGamma_d(A): diagonal c + j A11 + (d - j) A00, entry
    (j, j + 1) sqrt((j + 1)(d - j)) A01, entry (j + 1, j) the same times
    A10.  If A = P diag(alpha) P^-1, G_d has the eigenvalues c + k alpha_1
    + (d - k) alpha_2, k = 0..d, and the eigenvectors V_d = Sym^d(P),
    whose singular values are products of d of P's, so cond(V_d) =
    cond(P)^d = kappa^d (third quantization, Prosen, New J. Phys. 10
    (2008) 043026).  LAPACK's eigenvalues of M_d are the exact ones of
    M_d + E, ||E||_F <= p(d) u ||M_d||_F: p(d) = 10 (d + 1)^2 stands above
    the backward error of the Householder reduction and the QR sweeps,
    ||E|| ~ u ||M_d|| (Golub and Van Loan, 7.5.6; the balancing scales by
    exact powers of 2), so that a skipped block's computed eigenvalues lie
    outside the window too.  The 2x2 solve is exact for A - F, ||F||_2 <=
    delta (_pair_eigensystem), and ||dGamma_d(F)||_2 <= d ||F||_2; delta
    also holds 3u (|c| + max |alpha|), over the rounding of each predicted
    eigenvalue.  So by Bauer-Fike each computed eigenvalue lies within
    kappa^d (||M_d - G_d||_F + p(d) u ||M_d||_F + d delta) of a predicted
    one, and floor[d] is the least predicted modulus less that bound.  The
    rounding of G_d's entries, 6u sqrt(3d + 1) (|c| + (d + 1) max |A_ij|),
    joins the residual; for the test's own arithmetic the bound is raised
    by 1 + 8 (d + 2) u and the least modulus lowered by 4u.

    The test reads only the matrix, and a block whose structure is off
    has a large residual and is solved.  The norms run over the
    tridiagonal entries in units of a power of 2 near the largest entry,
    so no square overflows.  A band (s, -s) with |s| > 1, which no
    quadratic operator fills, a defective A or a kappa^d past the float
    range leave the floor at -inf; a non-finite entry fails the grading
    check (DegreeError).
    """
    _check_grading(mat)
    top = min(mat.n_q, mat.n_r)
    deg, row, ends, diag, tri, tri_deg, weights, starts = _block_layout(top)
    packed = np.zeros(ends[-1])
    source, dest, phase, far = _keeping_gather(top, mat.n_q, mat.n_r, mat._shifts)
    vals = mat._stack.reshape(-1)[source] * phase
    nonzero = vals != 0
    packed[dest[nonzero]] = vals.real[nonzero]
    wide = nonzero[far].any()
    if not np.abs(vals.imag).max(initial=0.0) <= _GRADING_TOL * np.abs(vals).max(initial=0.0):
        raise DegreeError("matrix breaks hermiticity beyond roundoff: its blocks are not real")
    blocks = [packed[ends[d] : ends[d + 1]].reshape(d + 1, d + 1) for d in range(top)]
    floor = np.full(top, -np.inf)
    if wide:
        return blocks, floor
    scale = math.ldexp(1.0, math.frexp(np.abs(packed).max())[1] - 1)
    x = packed / scale
    c = float(x[0])
    a00, a01, a10, a11 = (x[1:5] - c * np.array([1.0, 0.0, 0.0, 1.0])).tolist()
    alpha_1, alpha_2, kappa, delta = _pair_eigensystem(a00, a01, a10, a11)
    if kappa == math.inf:  # a defective A: no eigenvector matrix to bound by
        return blocks, floor
    delta += 3 * _U * (abs(c) + max(abs(alpha_1), abs(alpha_2)))
    entries = x[tri]
    miss = entries - np.array([c, a00, a01, a10, a11]) @ weights
    residual = np.sqrt(np.bincount(tri_deg, miss * miss, minlength=top))
    norm = np.sqrt(np.bincount(tri_deg, entries * entries, minlength=top))
    degrees = np.arange(top)
    roundoff = 1 + 8 * (degrees + 2) * _U
    largest = abs(c) + (degrees + 1) * max(map(abs, (a00, a01, a10, a11)))
    formation = 6 * _U * np.sqrt(3 * degrees + 1) * largest
    backward = 10 * (degrees + 1) ** 2 * _U * norm
    spread = roundoff * (residual + formation) + backward + degrees * delta
    predicted = np.abs(c + row * alpha_1 + (deg - row) * alpha_2)
    gap = np.minimum.reduceat(predicted, starts) * (1 - 4 * _U)
    with np.errstate(over="ignore"):
        # kappa^d past the float range bounds nothing; kappa^0 = 1
        growth = roundoff * kappa**degrees
        bounded = np.isfinite(growth)
        floor[bounded] = (gap[bounded] - growth[bounded] * spread[bounded]) * scale
    return blocks, floor


# Degrees solved per LAPACK call, and the most rows a padded stack may have.
# LAPACK's balancing splits zero rows and columns off a zero-padded block
# before any QR step, and the Hessenberg reduction and the QR run on the
# rows left, so the block keeps its eigenvalues bit for bit as long as
# dhseqr keeps its small-matrix QR, which it picks by the padded size: up
# to 75 rows (its NMIN in OpenBLAS 0.3.31).  One stack padded to the
# largest block changed the bits at bases 76, 80 and 100, and was slower
# from 64 rows on.
_STACK_DEGREES = 16
_STACK_ROWS = 64


def _block_eigenvalues(blocks: list[np.ndarray], degrees) -> np.ndarray:
    """Eigenvalues of blocks[d] for the increasing degrees given, as complex128,
    each block's in LAPACK's order: the blocks of up to _STACK_DEGREES
    successive degrees, zero-padded to the largest, in one np.linalg.eigvals
    call, and a block of more than _STACK_ROWS rows alone."""
    degrees = np.asarray(degrees, dtype=int)
    small = degrees[degrees < _STACK_ROWS]
    spectra = [np.zeros(0, dtype=complex)]
    for start in range(0, small.size, _STACK_DEGREES):
        chunk = small[start : start + _STACK_DEGREES]
        size = chunk[-1] + 1
        stack = np.zeros((chunk.size, size, size))
        for padded, d in zip(stack, chunk):
            padded[: d + 1, : d + 1] = blocks[d]
        # block d's eigenvalues are the first d + 1 of its row
        spectra.append(np.linalg.eigvals(stack)[np.arange(size) <= chunk[:, None]])
    spectra += [np.linalg.eigvals(blocks[d]) for d in degrees[degrees >= _STACK_ROWS]]
    return np.concatenate(spectra, dtype=complex)


def all_eigenvalues(k_mat: OperatorMatrix) -> np.ndarray:
    """Spectrum of the degree blocks the basis holds whole, as complex128.

    In a frame matched to a stationary Gaussian the matrix never raises the
    total Hermite degree j + k (else DegreeError), so ordered by degree it
    is block upper-triangular, and the degrees below any bound span an
    invariant subspace.  The entries are exact, so for d < m = min(n_q, n_r)
    the block of degree d, on the d + 1 functions (j, d - j), is the
    operator's own; those m blocks, read from the bands (s, -s), are
    diagonalized densely, m (m + 1) / 2 eigenvalues in all, in order of
    degree (_block_eigenvalues).  The blocks of higher degree, cut by the
    truncation, are left out.  A Liouvillian keeps functions Hermitian,
    C -> conj(C) (-1)^k, so its matrix has P conj(M) P = M,
    P = diag((-1)^k) = S^2 with S = diag(i^k): S^-1 M S, each entry times
    the exact i^(k_col - k_row), is real, and so are the blocks
    diagonalized (an imaginary part beyond roundoff raises DegreeError).
    """
    blocks, _ = _degree_blocks(k_mat.matrix)
    return _block_eigenvalues(blocks, range(len(blocks)))


def eigenvalues_in_window(k_mat: OperatorMatrix, radius: float) -> np.ndarray:
    """Eigenvalues of all_eigenvalues with |lambda| <= radius, sorted by (re, im).

    A block is not diagonalized when the matrix alone puts its spectrum,
    as LAPACK would compute it, outside the disk.  Blocks 0 and 1 give
    c = M_0 and the 2x2 A = M_1 - c I, whose eigenvalues alpha_1,2 and
    unit eigenvectors P, of condition kappa, come in closed form.  Block d
    is then predicted as G_d = c I + dGamma_d(A), with the eigenvalues
    c + k alpha_1 + (d - k) alpha_2 and the eigenvectors Sym^d(P), of
    condition kappa^d (Prosen, New J. Phys. 10 (2008) 043026), and by
    Bauer-Fike (Numer. Math. 2 (1960) 137) block d is skipped when

      min_k |c + k alpha_1 + (d - k) alpha_2|
          - kappa^d (||M_d - G_d||_F + p(d) u ||M_d||_F + d delta) > radius,

    p(d) u ||M_d||_F covering LAPACK's backward error and delta the 2x2
    roundoff (_degree_blocks derives both).  The closed forms of the
    spectrum play no part: a block off its prediction is solved.  On cl
    and hpz at 24x24 this skips degrees 13-23, whose diagonals reach down
    to 0 so that no diagonal strip can.
    """
    blocks, floor = _degree_blocks(k_mat.matrix)
    kept = np.flatnonzero(~(floor > radius))
    ev = _block_eigenvalues(blocks, kept)
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
    # phi = -mu Q^2 - (w/4) r^2, the exponent of the real half-Gaussian
    terms = _exp_conjugated(assemble_liouvillian(coeffs)._terms, -mu, 0, -0.25 * w)
    op = PhasePolyOperator._from_checked(terms)
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
    """Inverses of the stack of the modes' shifted leading blocks in
    biorthogonality_check, the step that perfbench's tracer times under
    this name."""
    return np.linalg.inv(mat)


# Leading-block layouts kept, one per (n_q, n_r, D, band shifts): the modes
# m <= 2 and m <= 3 on a few basis sizes
_PAIRING_LAYOUTS = 16


@lru_cache(maxsize=_PAIRING_LAYOUTS)
def _pairing_layout(n_q: int, n_r: int, top: int, shifts: tuple) -> tuple:
    """Read-only index arrays of the leading block on degrees j + k <= top:
    the coordinates j and k of its functions in basis order; the positions,
    in the flattened band stack of the shifts given, of the band entries
    whose row and column both lie in the block, band by band; and their
    flat positions in the block."""
    j, k = np.divmod(np.arange(n_q * n_r), n_r)
    low = j + k <= top
    index = np.flatnonzero(low)
    position = np.cumsum(low) - 1
    j, k = j[index], k[index]
    source, dest = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for band, (s, t) in enumerate(shifts):
        col_j, col_k = j + s, k + t
        inside = (col_j >= 0) & (col_j < n_q) & (col_k >= 0) & (col_k < n_r)
        inside &= col_j + col_k <= top
        rows = index[inside]
        source.append(band * n_q * n_r + rows)
        dest.append(position[rows] * index.size + position[rows + s * n_r + t])
    return tuple(_read_only(arr) for arr in (j, k, np.concatenate(source), np.concatenate(dest)))


def _mode_coefficients(modes, frame: CoordinateFrame, top: int) -> np.ndarray:
    """Coefficient arrays, (top + 1) x (top + 1), of the modes c B1^n1 B2^n2 rho
    with n1 + n2 <= top, in the frame, from one word lattice per raising pair
    and Gaussian.

    The modes of a pair share their prefixes: B2 runs once up to the largest
    n2, and B1 then runs on the stack of those prefixes up to the largest
    n1, so the 9 modes m <= 2 take 8 letter applications instead of the 18
    of their words.  Each Gaussian is checked as in expand (FrameMismatch,
    PositivityViolation), in the order of the modes, and each mode's scale
    c is applied last.  A word of n1 + n2 <= top letters never reaches the
    edge of top + 1 functions, so the coefficients are exact, as in expand.
    """
    size = top + 1
    groups: dict = {}
    for i, mode in enumerate(modes):
        key = (mode.raising, mode.gaussian)
        if key not in groups:
            groups[key] = (_ground(mode.gaussian, frame), [])
        groups[key][1].append((i, *_word(mode.label)))
    out = np.empty((len(modes), size, size), dtype=complex)
    for ((b1, b2), _), (ground, members) in groups.items():
        index, n1, n2, scale = map(np.array, zip(*members))
        prefixes = [np.zeros((size, size), dtype=complex)]
        prefixes[0][0, 0] = ground
        on_q, on_r = _letter(b2, frame, size)
        for _ in range(n2.max()):
            prefixes.append(on_q @ prefixes[-1] + prefixes[-1] @ on_r)
        lattice = [np.array(prefixes)]
        on_q, on_r = _letter(b1, frame, size)
        for _ in range(n1.max()):
            lattice.append(on_q @ lattice[-1] + lattice[-1] @ on_r)
        out[index] = np.array(lattice)[n1, n2] * scale[:, None, None]
    return out


def biorthogonality_check(k_mat: OperatorMatrix, modes, tol: float = 1e-6) -> BiorthReport:
    """Pair numerically computed left eigenvectors with constructed right ones.

    A matched frame's matrix never raises the total Hermite degree (else
    DegreeError), so degrees <= D = max(2m - n) over the modes (m, n, sigma;
    PairingFailure if there are none) span an invariant subspace holding
    every mode, and on it the left eigenvectors are those of the leading
    block on degrees <= D (15x15 for m <= 2), gathered from the bands
    through index arrays cached per basis, D and band shifts.  The right
    vectors are the modes' words read on that triangle j + k <= D, from one
    word lattice per raising pair (_mode_coefficients); nothing of the
    size of the basis is built.  For each mode the predicted eigenvalue
    seeds one shifted inverse of that block; a few inverse-iteration
    steps on the adjoint system, started from the mode's own vector (its
    pairing with the left eigenvector is nonzero, which the Gram diagonal
    tests), give the left eigenvector, and a Rayleigh quotient from the right
    system confirms the pairing (PairingFailure if it drifts from the
    prediction, or is NaN).  The modes run as one stack, so of several
    failing modes the first that does not fit the frame (FrameMismatch) is
    reported before the first to expand to zero (ZeroVector), and that
    before any Rayleigh failure.  The report contains the Gram matrix of
    left/right vectors and its diagonal-rescaled deviation from identity.
    """
    if not modes:
        raise PairingFailure("no modes to pair")
    mat = k_mat.matrix
    _check_grading(mat)
    top = max(2 * mode.label.m - mode.label.n for mode in modes)
    j, k, source, dest = _pairing_layout(mat.n_q, mat.n_r, top, mat._shifts)
    block = np.zeros(j.size * j.size, dtype=complex)
    block[dest] = mat._stack.reshape(-1)[source]
    block = block.reshape(j.size, j.size)
    rights = _mode_coefficients(modes, k_mat.config.frame, top)[:, j, k]
    norms = np.linalg.norm(rights, axis=1)
    for mode, norm in zip(modes, norms):
        if norm == 0:
            raise ZeroVector(f"mode {mode.label} expanded to the zero vector")
    rights /= norms[:, None]
    lams = np.array([complex(mode.eigenvalue) for mode in modes])
    # one inverse-iteration step from the constructed vector, then Rayleigh;
    # a prediction that is not finite, or so large that the step underflows,
    # gives a NaN quotient, which fails the test below
    with np.errstate(divide="ignore", invalid="ignore"):
        shifts = lams + 1e-8 * (1.0 + np.abs(lams)) * (1.0 + 1.0j) / math.sqrt(2.0)
        inverses = splu(block - shifts[:, None, None] * np.eye(j.size))
        refined = (inverses @ rights[:, :, None])[:, :, 0]
        refined /= np.linalg.norm(refined, axis=1)[:, None]
        rayleigh = np.sum(refined.conj() * (refined @ block.T), axis=1)
    for mode, lam, quotient in zip(modes, lams, rayleigh):
        if not abs(quotient - lam) <= 10.0 * tol:
            raise PairingFailure(
                f"mode {mode.label}: matrix eigenvalue {complex(quotient)} does not match "
                f"prediction {complex(lam)}"
            )
    lefts = rights
    adjoints = inverses.conj().transpose(0, 2, 1)
    for _ in range(3):
        lefts = (adjoints @ lefts[:, :, None])[:, :, 0]
        lefts /= np.linalg.norm(lefts, axis=1)[:, None]
    gram = lefts.conj() @ rights.T
    diag = np.diag(gram)
    if not np.min(np.abs(diag)) >= 1e-8:
        raise PairingFailure("a left/right pair is numerically orthogonal")
    rescaled = gram / diag[:, None]
    max_offdiag = float(np.max(np.abs(rescaled - np.eye(len(modes)))))
    return BiorthReport(gram=gram, gram_rescaled=rescaled, max_offdiag=max_offdiag, tol=tol)
