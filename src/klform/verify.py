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
quadratic operators assembled, and applied with numpy alone, as one gather
over the rows a vector reaches: band (s, t) maps a function of total
degree e to degree e - (s + t), so a vector zero above degree D reaches
only the rows up to D plus the most a band raises the degree.  The evolution is a
truncated Taylor series of such products.  A quadratic operator's bands
fall into three groups by the kind of term that fills them: the corners
(+-1, +-1) the terms with a factor on each coordinate, the off-centre
bands the terms on one coordinate, and the centre (0, 0) both kinds of
one-sided term of degree 2 and the constant.  Assembly sums each group
from zeros in the operator's term order, one call per term into the
corners or the off-centre rows and one add per term into the centre,
where the two coordinates meet in every entry; each entry is thus the
sum a loop adding every term into its bands makes, bit for bit, and the
operator's own.  A shift (s, t) moves the total
degree by a fixed -(s + t), so the grading is checked on per-band maxima
and the blocks are gathered from the bands with s + t = 0.  By the
paper's first claim block d is the second-quantized image of block 1,
with the eigenvalues n1 alpha_1 + n2 alpha_2 of its 2x2 part and the
eigenvectors Sym^d(P), of condition cond(P)^d (third quantization,
Prosen, New J. Phys. 10 (2008) 043026), so the distance of the block
from that prediction, times cond(P)^d, bounds how far its eigenvalues lie
from the predicted ones (Bauer-Fike, Numer. Math. 2 (1960) 137).  A
spectral window skips each block that this bound puts outside it, and
returns the predictions of each block it certifies; LAPACK solves each
block left alone.  Each set of rows worked on is a prefix of the rows by
degree.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import (
    BasisSizeError,
    DegreeError,
    EvolutionOverflow,
    FrameMismatch,
    PairingFailure,
    ZeroVector,
)
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
    """Truncation sizes and expansion frame of the Hermite tensor basis: each
    size an integer of at least 4, kept as an int (BasisSizeError else)."""

    n_q: int
    n_r: int
    frame: CoordinateFrame

    def __post_init__(self):
        for name in ("n_q", "n_r"):
            value = getattr(self, name)
            try:
                size = operator.index(value)
            except TypeError:
                size = None
            if size is None or size < 4:
                raise BasisSizeError(
                    f"basis size {name} = {value!r} is not an integer of at least 4"
                )
            object.__setattr__(self, name, size)

    @property
    def dim(self) -> int:
        return self.n_q * self.n_r


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _span(n: int, shift: int) -> slice:
    """Indices j of n basis functions with j + shift also among them."""
    return slice(max(0, -shift), n - max(0, shift))


# Hermite sizes kept: a word of k letters uses size k + 1 (expand), a word
# lattice on degrees <= D size D + 1, and an n_q x n_r basis the sizes n_q
# and n_r, so 32 serve the words of up to 15 letters and 8 basis sizes
_LADDER_SIZES = 32

class _Ladder:
    """The ladder algebra on n orthonormal Hermite functions, read-only.

    factors[a, c], a + c <= 2, are the nonzero diagonals (shift s,
    F[j, j+s]) of F = (X/sqrt2)^a (sqrt2 D)^c, the exact matrix of
    Qs^a dQs^c on n Hermite functions, and sides[a, c], p = a + c >= 1, the
    (2, n - p) stack of its diagonals -p and +p.  A letter L moves an index
    by one: L[j, j+1] = up[j] and L[j+1, j] = down[j], with up = down =
    sqrt((j+1)/2)/sqrt2 for X/sqrt2 and up = -down = sqrt2 sqrt((j+1)/2) for
    sqrt2 D.  A product of two letters A B keeps the diagonals -2, 0 and +2,
    and entry j of diagonal 0 adds its terms A[j, j-1] B[j-1, j] and
    A[j, j+1] B[j+1, j] in that order, from zero; the second runs through
    index j + 1 = n at the edge, so every entry is the operator's own.

    trace holds the integrals integral psi_j(u) du: sqrt(2 pi) pi^(-1/4)
    sqrt((2t)!)/(2^t t!) at j = 2t, zero for odd j; and at_zero the values
    psi_j(0): at u = 0 the Hermite recurrence reduces to psi_j+1(0) =
    -sqrt(j/(j+1)) psi_j-1(0), which the product runs in order; zero for odd
    j.  Both run on the ratios sqrt((2t - 1)/(2t)), 0 < 2t < n, of
    sqrt((2t)!)/(2^t t!) to its value at t - 1.
    """

    def __init__(self, n: int):
        self.n = n
        self.link = link = _read_only(np.sqrt(np.arange(1, n + 1) / 2.0))
        mult, dif = link * (1.0 / math.sqrt(2.0)), link * math.sqrt(2.0)
        self.factors, self.sides = factors, sides = {}, {}
        for a, c in [(a, c) for a in range(3) for c in range(3 - a)]:
            letters = [(mult, mult)] * a + [(dif, -dif)] * c
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
            factors[a, c] = tuple((s, _read_only(diag.copy())) for s, diag in diagonals)
            if a + c:
                sides[a, c] = _read_only(np.array([diagonals[0][1], diagonals[-1][1]]))
        two_t = np.arange(2, n, 2)
        ratios = np.sqrt((two_t - 1) / two_t)
        trace, at_zero = np.zeros(n), np.zeros(n)
        trace[::2] = math.sqrt(2.0 * math.pi) / math.pi**0.25 * np.cumprod(np.r_[1.0, ratios])
        at_zero[::2] = np.cumprod(np.r_[math.pi ** (-0.25), -ratios])
        self.trace, self.at_zero = _read_only(trace), _read_only(at_zero)

    @cached_property
    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Tridiagonal X and D of u* and d/du*, built for words on first use.

        X is symmetric with X[j, j+1] = sqrt((j+1)/2); D is antisymmetric
        with D[j, j+1] = sqrt((j+1)/2), D[j+1, j] = -sqrt((j+1)/2).  On the
        interior block D X - X D = identity; the last row/column carries the
        truncation defect.
        """
        upper, lower = np.diag(self.link[: self.n - 1], 1), np.diag(self.link[: self.n - 1], -1)
        return _read_only(upper + lower), _read_only(upper - lower)


@lru_cache(maxsize=_LADDER_SIZES)
def _ladder(n: int) -> _Ladder:
    return _Ladder(n)


# Bases kept, one per (n_q, n_r)
_BASES = 8


class _Basis:
    """The n_q x n_r tensor basis, each part built on its first use and
    read-only."""

    def __init__(self, n_q: int, n_r: int):
        self.n_q, self.n_r = n_q, n_r
        self._outers, self._bands = {}, {}

    @cached_property
    def degree(self) -> np.ndarray:
        """The total degree j + k of each function, in basis order j * n_r + k."""
        return _read_only(np.add.outer(np.arange(self.n_q), np.arange(self.n_r)).reshape(-1))

    @cached_property
    def float_degrees(self) -> np.ndarray:
        """The total degree of each float of a complex vector on the basis:
        each entry's degree twice, for its real and imaginary part."""
        return _read_only(np.repeat(self.degree, 2))

    def top_degree(self, vec: np.ndarray) -> int:
        """The largest total degree of an entry of the C-contiguous complex vec
        that is not exactly zero, 0 for the zero vector; read on its floats,
        which numpy compares with zero faster than complex numbers."""
        return int(self.float_degrees[vec.view(np.float64) != 0].max(initial=0))

    def outers(self, a: int, c: int, b: int, d: int) -> np.ndarray:
        """(4, n_q - 1, n_r - 1) stack of diag_q[:, None] * diag_r over the
        diagonals -1 and +1 of the factors (X/sqrt2)^a (sqrt2 D)^c on n_q
        functions and (X/sqrt2)^b (sqrt2 D)^d on n_r, a + c = b + d = 1, in
        the shift order (-1, -1), (-1, 1), (1, -1), (1, 1) of the corner
        bands, kept per exponents: 4 stacks at most.  Each product is kept
        as complex, imaginary part +0.0, the cast that a complex coefficient
        times the float product makes, so assemble_matrix's coeff * outers
        has the same bits without casting on every call."""
        if (a, c, b, d) not in self._outers:
            diags_q, diags_r = _ladder(self.n_q).sides[a, c], _ladder(self.n_r).sides[b, d]
            outers = (diags_q[:, None, :, None] * diags_r[None, :, None, :]).astype(complex)
            self._outers[a, c, b, d] = _read_only(outers.reshape(4, self.n_q - 1, self.n_r - 1))
        return self._outers[a, c, b, d]

    def bands(self, degrees: frozenset) -> tuple[tuple, tuple]:
        """The sorted band shifts of an operator whose terms have the degrees
        (a + c, b + d) given, and the span of each band's entries whose
        column lies in the basis, kept per set of degrees: sets of the six
        of a quadratic operator, so 64 at most."""
        if degrees not in self._bands:
            # a factor of degree p has the diagonals -p, -p + 2, ..., p
            steps = [range(-p, p + 1, 2) for p in range(3)]
            shifts = sorted({(s, t) for p, q in degrees for s in steps[p] for t in steps[q]})
            spans = tuple((_span(self.n_q, s), _span(self.n_r, t)) for s, t in shifts)
            self._bands[degrees] = tuple(shifts), spans
        return self._bands[degrees]


@lru_cache(maxsize=_BASES)
def _basis(n_q: int, n_r: int) -> _Basis:
    return _Basis(n_q, n_r)


# Layouts kept, one per (n_q, n_r, band shifts)
_LAYOUTS = 16

_Blocks = namedtuple("_Blocks", "deg row ends head_at tri_at tri_deg weights source dest phase far")


class _Layout:
    """The index arrays of a matrix on the n_q x n_r basis with the sorted
    band shifts given, each built on its first use and read-only, which
    BandedMatrix looks up once: each set of rows is a prefix of one order
    by degree (rows), and the pairing's is kept for the last degree only."""

    def __init__(self, n_q: int, n_r: int, shifts: tuple):
        self.n_q, self.n_r = n_q, n_r
        self.shift = _read_only(np.array(shifts, dtype=int).reshape(-1, 2))
        # the degree each band lowers a function's by, and the most one raises it
        self.drop = _read_only(self.shift.sum(axis=1))
        self.lift = max(0, -int(self.drop.min(initial=0)))
        self._pairing: tuple = (None, ())

    @cached_property
    def columns(self) -> np.ndarray:
        """The (bands, rows) array of the flat column that each band's entry
        in each row reads, in shift order and basis order, n_q n_r where the
        column leaves the basis: the zero that _row_product appends to the
        vector."""
        j, k = np.divmod(np.arange(self.n_q * self.n_r), self.n_r)
        col_j, col_k = j + self.shift[:, :1], k + self.shift[:, 1:]
        inside = (col_j >= 0) & (col_j < self.n_q) & (col_k >= 0) & (col_k < self.n_r)
        return _read_only(np.where(inside, col_j * self.n_r + col_k, self.n_q * self.n_r))

    @cached_property
    def _by_degree(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows sorted stably by total degree; the position in that
        order of the column each band's entry in each of them reads, n_q n_r
        where it leaves the basis; and ends[b], the count of rows of degree
        <= b."""
        degree = _basis(self.n_q, self.n_r).degree
        order = np.argsort(degree, kind="stable")
        # each sorted column mapped to its position in place: no second (bands, rows) array
        reads = self.columns.take(order, axis=1)
        np.append(order.argsort(), order.size).take(reads, out=reads, mode="clip")
        ends = np.cumsum(np.bincount(degree))
        return _read_only(order), _read_only(reads), _read_only(ends)

    def rows(self, bound: float) -> tuple[np.ndarray, np.ndarray]:
        """The rows of total degree j + k <= bound, by degree and then basis
        index, and the position among them of the column each of their
        entries reads, their count or more where it is not one of them:
        views of one sorted pair of arrays, since the rows of each bound
        lead it."""
        order, reads, ends = self._by_degree
        count = ends[min(bound, ends.size - 1)]
        return order[:count], reads[:, :count]

    @cached_property
    def blocks(self) -> _Blocks:
        """Read-only index arrays of the degree blocks d < top = min(n_q, n_r),
        packed row-major, block d in packed[ends[d] : ends[d + 1]]: over the
        pairs (d, j), j <= d, d (deg) and j (row); ends; the certificate's
        reads, as positions among the gathered entries below, that position
        being their count for an entry no band holds: packed[0:5], blocks 0
        and 1 (head_at), and the tridiagonal entries (j, j), then
        (j, j + 1), then (j + 1, j) (tri_at); the tridiagonal entries'
        degrees (tri_deg); the 5 x (their count) weights that give G_d there
        from (c, A00, A01, A10, A11) (_DegreeEntries.certificate); and the
        gather of the degree-keeping bands (s, -s) among the shifts: the
        positions, in the flattened band stack, of the entries band[j, d - j]
        they hold in those blocks, band by band and pair by pair (source);
        their positions in the packed blocks, row j, column j + s of block d
        (dest); the exact phase i^(-s) of each (phase); and the indices of
        those from a band with |s| > 1, which no quadratic operator fills
        (far)."""
        n_q, n_r = self.n_q, self.n_r
        top = min(n_q, n_r)
        # the rows of degree < top, by degree and then basis index, are the pairs (d, j)
        flat, reads = self.rows(top - 1)
        row, col = np.divmod(flat, n_r)
        deg = row + col
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
        # the entries in the rows (j, d - j) of the bands (s, -s) whose column is in the basis
        keeping = np.flatnonzero(self.drop == 0)
        band, pair = np.nonzero(reads[keeping] < flat.size)
        s = self.shift[keeping, 0][band]
        dest = diag[pair] + s
        # the gathered entry at each packed position, or one past the last
        at = np.full(ends[-1], dest.size)
        at[dest] = np.arange(dest.size)
        source = keeping[band] * (n_q * n_r) + flat[pair]
        phase = np.array([1, 1j, -1, -1j])[-s % 4]
        far = np.flatnonzero(abs(s) > 1)
        layout = (deg, row, ends, at[:5], at[tri], tri_deg, weights, source, dest, phase, far)
        return _Blocks(*(_read_only(arr) for arr in layout))

    def pairing(self, top: int) -> tuple[np.ndarray, ...]:
        """Read-only index arrays of the leading block on degrees
        j + k <= top, in basis order: the coordinates j and k of its
        functions; the positions, in the flattened band stack, of the band
        entries whose row and column both lie in the block, band by band,
        rows by degree (rows(top)); and their flat positions in the block.
        Kept for the last top asked for only."""
        if self._pairing[0] != top:
            rows, reads = self.rows(top)
            place = rows.argsort().argsort()  # each row's rank in basis order
            band, row = np.nonzero(reads < rows.size)
            source = band * (self.n_q * self.n_r) + rows[row]
            dest = place[row] * rows.size + place[reads[band, row]]
            arrays = *np.divmod(np.sort(rows), self.n_r), source, dest
            self._pairing = top, tuple(_read_only(arr) for arr in arrays)
        return self._pairing[1]


@lru_cache(maxsize=_LAYOUTS)
def _layout(n_q: int, n_r: int, shifts: tuple) -> _Layout:
    return _Layout(n_q, n_r, shifts)


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
    whole stack in one numpy call.  `@` on vectors, residual and the
    evolution's Taylor steps share one product: a gather over a set of
    rows, through the index arrays of the layout of the matrix's basis and
    band shifts (_Layout), looked up once, summed band by band, in shift
    order, from zero: `@` over every row, residual and the Taylor steps
    over the rows of degree up to a bound (_Layout.rows).  A matrix built
    from a dict of bands stacks a copy of them, and raises BasisSizeError
    for a band whose shape is not (n_q, n_r) and DegreeError for a nonzero
    entry whose column leaves the basis; a vector that does not fit the
    basis raises BasisSizeError.
    """

    def __init__(self, bands: dict[tuple[int, int], np.ndarray], n_q: int, n_r: int):
        shifts = sorted(bands)
        if any(np.shape(bands[st]) != (n_q, n_r) for st in shifts):
            shapes = sorted({np.shape(band) for band in bands.values()})
            raise BasisSizeError(f"bands of shapes {shapes} do not fit the {n_q} x {n_r} basis")
        stack = np.array([bands[st] for st in shifts], dtype=complex).reshape(-1, n_q * n_r)
        self._adopt(shifts, stack.reshape(-1, n_q, n_r))
        leaving = ((self._layout.columns == n_q * n_r) & (stack != 0)).any(axis=1)
        if leaving.any():
            band = shifts[leaving.argmax()]
            raise DegreeError(f"band {band} has a nonzero entry whose column leaves the basis")

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
        self._layout = _layout(self.n_q, self.n_r, self._shifts)

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

    def _fit(self, vec, name: str = "vector") -> np.ndarray:
        """vec as a C-contiguous complex array; BasisSizeError unless it has
        the basis's length."""
        if np.shape(vec) != self.shape[1:]:
            raise BasisSizeError(
                f"{name} of shape {np.shape(vec)} does not fit a {self.shape} matrix"
            )
        return np.ascontiguousarray(vec, dtype=complex)

    @property
    def _entries(self) -> np.ndarray:
        """The (bands, rows) view of the stack, every row in basis order."""
        return self._stack.reshape(len(self._shifts), self.n_q * self.n_r)

    def __matmul__(self, vec) -> np.ndarray:
        return _row_product(self._entries, self._layout.columns, self._fit(vec))

    def toarray(self) -> np.ndarray:
        entries, columns = self._entries, self._layout.columns
        band, row = np.nonzero((entries != 0) & (columns < self.shape[0]))
        out = np.zeros(self.shape, dtype=complex)
        out[row, columns[band, row]] = entries[band, row]
        return out


_APPENDED_ZERO = _read_only(np.zeros(1))


def _row_product(entries: np.ndarray, columns: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The rows of K vec, vec complex, that K's entries in them and the
    indices into vec they read give (_Layout.columns, _Layout.rows): each
    row the sum of its bands' entries times the vector entries they read,
    zero from vec's length on (clipped onto an appended zero), added band
    by band, in shift order, from zero.  np.add.reduce
    along the band axis adds row b to the running sums in order b, from its
    initial +0.0, so a sum of signed zeros is +0.0 as when adding into
    np.zeros; it runs on the floats of the complex products, whose real and
    imaginary parts add apart, since numpy sums a reduction over one complex
    row pairwise."""
    terms = np.concatenate((vec, _APPENDED_ZERO)).take(columns, mode="clip")
    np.multiply(entries, terms, out=terms)
    return np.add.reduce(terms.view(np.float64), axis=0, initial=0.0).view(complex)


@dataclass
class OperatorMatrix:
    """Matrix of an operator in a fixed BasisConfig."""

    matrix: BandedMatrix
    config: BasisConfig


def _zeros(shape, cfg: BasisConfig) -> np.ndarray:
    """np.zeros(shape, dtype=complex) of an array sized by the basis;
    BasisSizeError where numpy cannot allocate it."""
    try:
        return np.zeros(shape, dtype=complex)
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest size
        raise BasisSizeError(
            f"the {cfg.n_q} x {cfg.n_r} basis does not fit in memory: {exc}"
        ) from exc


def assemble_matrix(op: PhasePolyOperator, cfg: BasisConfig) -> OperatorMatrix:
    """Matrix of a normal-ordered operator of degree at most 2 in the tensor basis.

    The operator is first conjugated by the frame's phase and rewritten
    in its normalized coordinates; a monomial Qs^a rs^b dQs^c drs^d then
    maps to (X/sqrt2)^a (sqrt2 D)^c on the Q factor and likewise on the r
    factor, multiplication factors to the left of derivative factors, and
    moves the indices by its degrees p = a + c and q = b + d.  So the
    bands fall into three groups, each filled by its own kind of term:
    the corners (+-1, +-1) only by the two-sided terms, p = q = 1; the
    off-centre bands (+-1 or +-2, 0) and (0, +-1 or +-2) only by the terms
    on one coordinate; and the centre (0, 0) by the terms of degree 2 on
    one coordinate and the constant.  A term adds into its group with one
    numpy add: a two-sided term its coefficient times the stacked outer
    products of its diagonals into one sum of the four corners, a
    one-sided term its coefficient times its stacked diagonals -p and +p
    into one sum of their rows, which is the same along the other
    coordinate, whose factor is the identity; each sum is copied, or
    broadcast, into its bands once, at the end.  Only the centre takes the terms one by
    one, coefficient times diagonal 0 broadcast along the other
    coordinate, or times 1.0 for the constant, since there the terms of
    both coordinates meet in every entry.  Every sum starts from zero and
    adds in the operator's term order, so each entry is
    0 + v1 + v2 + ... as a loop adding each term's outer products into
    its bands sums it, bit for bit, and it is the operator's own entry,
    restricted to the basis.  The diagonals of the 1-D factors, in closed
    form, are cached per basis size (_ladder), the stacks of a term per
    basis and exponents, and the band shifts and spans per basis and term
    degrees (_Basis).  Total degree above 2, beyond any quadratic
    Liouvillian, raises DegreeError, which bounds the factors per size at
    6, the stacks per basis at 4 and the sets of degrees at 64; a basis
    numpy cannot allocate raises BasisSizeError.
    """
    if op.degree() > 2:
        raise DegreeError(f"operator degree {op.degree()} exceeds 2")
    terms = _rescale_coordinates(op, cfg.frame).terms
    n_q, n_r = cfg.n_q, cfg.n_r
    degrees = frozenset((a + c, b + d) for a, b, c, d in terms)
    basis = _basis(n_q, n_r)
    shifts, spans = basis.bands(degrees)
    stack = _zeros((len(shifts), n_q, n_r), cfg)
    # the zero-started sums of the corners and of each one-sided degree
    corners = _zeros((4, n_q - 1, n_r - 1), cfg) if (1, 1) in degrees else None
    sides = {
        (p, q): _zeros((2, n_q - p if p else n_r - q), cfg)
        for p, q in degrees
        if bool(p) != bool(q)
    }
    centre = stack[shifts.index((0, 0))] if (0, 0) in shifts else None
    ladder_q, ladder_r = _ladder(n_q), _ladder(n_r)
    for (a, b, c, d), coeff in terms.items():
        p, q = a + c, b + d
        if p and q:
            corners += coeff * basis.outers(a, c, b, d)
        elif p:
            sides[p, 0] += coeff * ladder_q.sides[a, c]
            if p == 2:  # diagonal 0 of the factor, the same along r
                centre += (coeff * ladder_q.factors[a, c][1][1])[:, None]
        elif q:
            sides[0, q] += coeff * ladder_r.sides[b, d]
            if q == 2:
                centre += coeff * ladder_r.factors[b, d][1][1]
        else:
            centre += coeff * 1.0
    for (s, t), span, band in zip(shifts, spans, stack):
        if s and t:
            band[span] = corners[2 * (s > 0) + (t > 0)]
        elif s:
            band[span] = sides[abs(s), 0][int(s > 0)][:, None]
        elif t:
            band[span] = sides[0, abs(t)][int(t > 0)]
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
    x_mat, d_mat = _ladder(size).matrices
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
    A basis numpy cannot allocate raises BasisSizeError.
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
    out = _zeros((cfg.n_q, cfg.n_r), cfg)
    keep_q, keep_r = min(size, cfg.n_q), min(size, cfg.n_r)
    out[:keep_q, :keep_r] = coeffs[:keep_q, :keep_r]
    return out.reshape(-1)


def residual(k_mat: OperatorMatrix, vec: np.ndarray, lam: complex) -> float:
    """Relative residual |K v - lam v| / |v| in the Euclidean norm.

    Band (s, t) maps a function of total degree e to degree e - (s + t), so
    v, exactly zero above its top degree D, reaches only the rows of degree
    at most D plus the most any band raises the degree (_Layout.lift),
    graded or not: every other row of a finite matrix is an exact zero.
    Only those rows are multiplied (6 to 28 of 1,600 for a mode of m <= 2
    in its own frame at 40x40), on v's entries there, each summed as K @ v
    sums it, and K v - lam v is laid out at full length with zeros past
    them, so the norm is the full product's, bit for bit.  A matrix with an
    entry that is not finite (read once, on the first call) multiplies
    every row, so that inf * 0 gives NaN.  A vector that does not fit the
    basis raises BasisSizeError, the zero vector ZeroVector.
    """
    mat = k_mat.matrix
    vec = mat._fit(vec)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVector("residual of the zero vector is undefined")
    bound = _basis(mat.n_q, mat.n_r).top_degree(vec) + mat._layout.lift if mat._finite else math.inf
    rows, reads = mat._layout.rows(bound)
    held = vec[rows]
    diff = np.zeros_like(vec)
    diff[rows] = _row_product(mat._entries.take(rows, axis=1), reads, held) - lam * held
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
_U = np.finfo(float).eps / 2  # unit roundoff


def _shifted_generator(mat: BandedMatrix, f0: np.ndarray) -> tuple:
    """B = -K - mu I on the degrees f0 occupies: its rows and, in them, its
    entries and their reads (_Layout.rows); mu; and the 1-norm of B.

    A graded matrix never raises the total Hermite degree j + k, so the
    degrees up to the largest of an exactly nonzero entry of f0 span an
    invariant subspace: B keeps the entries whose row and column both lie
    there, after checking the grading (DegreeError), or all of them when
    f0 reaches the largest degree.  mu is the mean of -K's diagonal there;
    the shift takes it out of the Taylor series, one exponential per step.
    """
    n_q, n_r = mat.n_q, mat.n_r
    basis = _basis(n_q, n_r)
    top = basis.top_degree(f0)
    kept = (basis.degree <= top).reshape(n_q, n_r)
    if not kept.all():
        _check_grading(mat)
    rows, reads = mat._layout.rows(top)
    entries = np.where(reads < rows.size, -mat._entries.take(rows, axis=1), 0.0)
    centre = mat.bands.get((0, 0), 0j)
    mu = complex(np.where(kept, -centre, 0.0).sum()) / np.count_nonzero(kept)
    if (0, 0) in mat.bands:
        entries[mat._shifts.index((0, 0))] -= mu
    # each column's moduli added in band order, from zero; bins from rows.size on: outside
    norms = np.bincount(reads.reshape(-1), np.abs(entries).reshape(-1))
    return rows, entries, reads, mu, float(norms[: rows.size].max(initial=0.0))


def _taylor_steps(norm: float, dt: float) -> float:
    """Steps of degree 55 across dt; inf or NaN when dt * norm is."""
    return float(np.ceil(abs(dt) * norm / _THETA_55))


def _sup(vec: np.ndarray) -> float:
    """Largest modulus of the real and imaginary parts; inf or NaN when vec is not finite."""
    return float(np.abs(vec.view(np.float64)).max())


def _taylor_advance(product, mu: complex, vec: np.ndarray, dt: float, steps: int):
    """exp(dt (B + mu I)) vec in `steps` truncated Taylor steps, product(v) = B v.

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
            term = product(term)
            term *= dt / (steps * j)
            size = _sup(term)
            total += term
            bound += size
            # the partial sum is at most `bound`: only a small term needs its norm
            small = last + size
            if small <= _U * bound and small <= _U * _sup(total):
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
    graded).  The steps run on f0's entries in the rows of those degrees
    (_Layout.rows), and the series is exactly zero past them.  Each term
    is the banded product of `@`, B's entries gathered once for all the
    steps.  A grid that is not 1-D or holds a t that is not finite raises
    ValueError before any other check; so do an empty grid and a
    non-uniform one, and an f0 that does not fit the basis raises
    BasisSizeError, a ValueError too.  EvolutionOverflow is raised before
    stepping when the steps would exceed MAX_TAYLOR_STEPS, and at the first
    step that leaves the float range.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.isfinite(times).all():
        raise ValueError(f"time grid of shape {times.shape} must be 1-D, and each t must be finite")
    if times.size == 0:
        raise ValueError("time grid must not be empty")
    start, gaps = float(times[0]), np.diff(times)
    if not np.allclose(gaps, gaps[:1], rtol=1e-12, atol=1e-12):
        raise ValueError("time grid must be uniform")
    gap = (float(times[-1]) - start) / max(times.size - 1, 1)
    f0 = k_mat.matrix._fit(f0, "f0")
    rows, entries, reads, mu, norm = _shifted_generator(k_mat.matrix, f0)
    first, each = _taylor_steps(norm, start), _taylor_steps(norm, gap)
    steps = first + (times.size - 1) * each
    if not steps <= MAX_TAYLOR_STEPS:
        raise EvolutionOverflow(
            f"time span too long for the matrix: about {steps:.3g} Taylor steps, "
            f"more than {MAX_TAYLOR_STEPS}"
        )
    product = partial(_row_product, entries, reads)
    series = np.zeros((times.size, f0.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # checked at each step
        series[0, rows] = vec = _taylor_advance(product, mu, f0[rows], start, int(first))
        for i in range(1, times.size):
            series[i, rows] = vec = _taylor_advance(product, mu, vec, gap, int(each))
    return series


def trace_and_hermiticity(vec: np.ndarray, cfg: BasisConfig) -> tuple:
    """Trace functional and hermiticity defect of an expanded function, or
    lists of them for each row of a (rows, n_q n_r) stack.

    The trace is the closed-form integral of f(Q, 0) over Q (only even
    Q-indices and the psi_k(0) column enter).  The hermiticity defect bounds
    |f(Q, -r) - conj(f(Q, r))| over the whole plane.  The Hermite functions
    are real and psi_k(-v) = (-1)^k psi_k(v), so the difference is
    psi_q (C (-1)^k - conj C) psi_r^T of the coefficient array C, and by
    Indritz's inequality |psi_j| <= pi^(-1/4) its modulus is at most the
    basis normalization times pi^(-1/2) sum |C (-1)^k - conj C|.  Both read
    the expansion without the frame's phase, which is 1 at r = 0 and
    conjugated by r -> -r.  Each row of a stack gives its vector's bits.
    A vector or stack that does not fit the basis raises BasisSizeError.
    """
    shape = np.shape(vec)
    if shape[-1:] != (cfg.dim,) or len(shape) > 2:
        fit = f"does not fit the {cfg.n_q} x {cfg.n_r} basis"
        raise BasisSizeError(f"vector of shape {shape} {fit}")
    coeffs = np.asarray(vec, dtype=complex).reshape(-1, cfg.n_q, cfg.n_r)
    sq, sr = cfg.frame.s_q, cfg.frame.s_r
    norm = math.sqrt(math.sqrt(2.0) / sq) * math.sqrt(math.sqrt(2.0) * sr)
    tr_q = _ladder(cfg.n_q).trace * (sq / math.sqrt(2.0)) * norm
    at_zero = _ladder(cfg.n_r).at_zero
    traces = [complex(tr_q @ row @ at_zero) for row in coeffs]
    gap = coeffs * (-1.0) ** np.arange(cfg.n_r) - coeffs.conj()
    defects = (norm / math.sqrt(math.pi) * np.sum(np.abs(gap), axis=(1, 2))).tolist()
    return (traces, defects) if len(shape) == 2 else (traces[0], defects[0])


# Degree-raising entries up to this fraction of the largest entry are
# roundoff (below 4e-16 for the presets), not structure.
_GRADING_TOL = 1e-12
# The largest Bauer-Fike radius, in the matrix's units, at which a degree
# block's predictions stand in for its eigenvalues (_DegreeEntries): 100
# times under the 1e-6 at which criterion 01 compares the window.
_PREDICTION_TOL = 1e-8


def _check_grading(mat: BandedMatrix) -> None:
    """DegreeError unless every entry that raises the total Hermite degree,
    those of the bands (s, t) with s + t < 0, is roundoff of the largest
    entry, and every entry is finite; a NaN entry makes a maximum NaN and
    fails the first test, an infinite one the second."""
    peaks = np.abs(mat._stack).max(axis=(1, 2), initial=0.0)
    raising = peaks[mat._layout.drop < 0].max(initial=0.0)
    largest = peaks.max(initial=0.0)
    if not raising <= _GRADING_TOL * largest:
        raise DegreeError(
            "matrix raises the Hermite degree beyond roundoff: its frame does not "
            "match a Gaussian that is stationary for the operator"
        )
    if largest == math.inf:
        raise DegreeError("matrix has an infinite entry: no block of it is the operator's")


def _pair_eigensystem(a00: float, a01: float, a10: float, a11: float):
    """mid and root of the eigenvalues alpha_1,2 = mid +- root of the real
    2x2 matrix A, in closed form, mid real and root real or imaginary;
    kappa >= cond_2(P) of their unit eigenvectors P, inf for a defective A;
    and delta >= ||A - P diag(alpha) P^-1||_2, alpha the rounded mid +- root.

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
        return mid, root, math.inf, math.inf
    misses = []
    for (p0, p1), alpha in zip(columns, alphas):
        misses += [a00 * p0 + a01 * p1 - alpha * p0, a10 * p0 + a11 * p1 - alpha * p1]
    residual = math.hypot(*map(abs, misses))
    residual += 6 * _U * (math.hypot(a00, a01, a10, a11) + max(map(abs, alphas)))
    return mid, root, (1 + g) / det, residual * math.sqrt(1 + g) / det


class _BlockCertificate(NamedTuple):
    """The certificate of each degree block d < min(n_q, n_r) against its
    prediction from blocks 0 and 1, as _DegreeEntries.certificate derives
    it: kappa^d (growth), ||M_d - G_d||_F (residual) and the Bauer-Fike
    radius r_d (radius), both in the matrix's units; the predictions, block
    d's at predicted[d (d + 1) / 2 : (d + 1) (d + 2) / 2], k = 0..d in
    order; and whether the block is certified.  radius is inf where no
    bound applies; a matrix that bounds no block has growth inf, and
    residual and predicted NaN."""

    growth: np.ndarray
    residual: np.ndarray
    radius: np.ndarray
    predicted: np.ndarray
    certified: np.ndarray

    @classmethod
    def unbounded(cls, top: int) -> _BlockCertificate:
        """The certificate of blocks d < top that nothing bounds."""
        return cls(
            growth=np.full(top, np.inf),
            residual=np.full(top, np.nan),
            radius=np.full(top, np.inf),
            predicted=np.full(top * (top + 1) // 2, np.nan, dtype=complex),
            certified=np.zeros(top, dtype=bool),
        )

    @property
    def floor(self) -> np.ndarray:
        """floor[d] <= |lambda| for every eigenvalue LAPACK computes for block
        d, -inf where no bound applies: the least predicted modulus, lowered
        by 4u for its rounding, less r_d."""
        degrees = np.arange(self.radius.size)
        least = np.minimum.reduceat(np.abs(self.predicted), degrees * (degrees + 1) // 2)
        floor = np.full(degrees.size, -np.inf)
        bounded = self.radius < np.inf
        floor[bounded] = least[bounded] * (1 - 4 * _U) - self.radius[bounded]
        return floor


class _DegreeEntries:
    """The entries of the real degree blocks d < top = min(n_q, n_r) of a
    matrix, gathered from its degree-keeping bands in one fancy index:
    entry band[j, d - j] of a band (s, -s) lies in row j, column j + s of
    block d, times i^(-s) (_Layout.blocks).  Gathering checks the grading
    (a non-finite entry fails it too) and that every entry gathered is real
    up to roundoff (DegreeError for either).  The certificate reads the
    gathered entries; the dense blocks are built only for LAPACK
    (_block_eigenvalues)."""

    __slots__ = ("top", "layout", "vals")

    def __init__(self, mat: BandedMatrix):
        _check_grading(mat)
        self.top = min(mat.n_q, mat.n_r)
        self.layout = layout = mat._layout.blocks
        self.vals = vals = mat._stack.reshape(-1)[layout.source] * layout.phase
        if not np.abs(vals.imag).max(initial=0.0) <= _GRADING_TOL * np.abs(vals).max(initial=0.0):
            raise DegreeError("matrix breaks hermiticity beyond roundoff: its blocks are not real")

    def blocks(self) -> list[np.ndarray]:
        """The blocks, block d a (d + 1) x (d + 1) view of one packed array,
        zero wherever no entry is gathered."""
        ends = self.layout.ends
        packed = np.zeros(ends[-1])
        nonzero = self.vals != 0
        packed[self.layout.dest[nonzero]] = self.vals.real[nonzero]
        return [packed[ends[d] : ends[d + 1]].reshape(d + 1, d + 1) for d in range(self.top)]

    def certificate(self) -> _BlockCertificate:
        """The blocks' certificate, Bauer-Fike's (Numer. Math. 2 (1960) 137)
        against the block that the paper's first claim predicts from blocks 0
        and 1.

        In a frame matched to the stationary Gaussian the operator is
        c + dGamma(A) on the ladder pair, c = M_0 and A = M_1 - c I, so block
        d is G_d = c I + dGamma_d(A): diagonal c + j A11 + (d - j) A00, entry
        (j, j + 1) sqrt((j + 1)(d - j)) A01, entry (j + 1, j) the same times
        A10.  If A = P diag(alpha) P^-1, G_d has the eigenvalues
        c + k alpha_1 + (d - k) alpha_2, k = 0..d, and the eigenvectors
        V_d = Sym^d(P), whose singular values are products of d of P's, so
        cond(V_d) = cond(P)^d = kappa^d (third quantization, Prosen, New J.
        Phys. 10 (2008) 043026).  LAPACK's eigenvalues of M_d are the exact
        ones of M_d + E, ||E||_F <= p(d) u ||M_d||_F: p(d) = 10 (d + 1)^2
        stands above the backward error of the Householder reduction and the
        QR sweeps, ||E|| ~ u ||M_d|| (Golub and Van Loan, 7.5.6; the
        balancing scales by exact powers of 2).  The 2x2 solve is exact for
        A - F, ||F||_2 <= delta, with the rounded alpha_1,2 = mid +- root
        (_pair_eigensystem), and ||dGamma_d(F)||_2 <= d ||F||_2.  The
        rounding of G_d's entries, 6u sqrt(3d + 1) (|c| + (d + 1) max |A_ij|),
        joins the residual.  So by Bauer-Fike every eigenvalue of M_d, and of
        M_d + E, lies within

          r_d = kappa^d (||M_d - G_d||_F + p(d) u ||M_d||_F + d delta)

        of one of those c + k alpha_1 + (d - k) alpha_2.  The predictions are
        formed as c + d mid + (2k - d) root, so that conjugate pairs are
        exact conjugates and the real one of an even degree has imaginary
        part 0.0; they miss the exact values by at most 2u |c| + 6 d u
        max |alpha|, which the 7u (|c| + max |alpha|) that delta also holds
        covers.  Block 0 is M_0 itself.  floor[d] is the least predicted
        modulus less r_d, so a block whose floor lies outside a window has
        every eigenvalue, LAPACK's too, outside it.  For the test's own
        arithmetic r_d is raised by 1 + 8 (d + 2) u and the least modulus
        lowered by 4u.

        Block d is certified when r_d <= _PREDICTION_TOL and its d + 1 discs
        of radius r_d about the predictions are pairwise disjoint: the exact
        values lie on a line, |alpha_1 - alpha_2| apart, so the test is
        2 r_d < |alpha_1 - alpha_2|.  Then each disc holds exactly one
        eigenvalue of M_d, and exactly one of LAPACK's.  On the path
        G + t (M - G), 0 <= t <= 1, from G = c I + dGamma_d(A - F) to M = M_d
        or M_d + E, every eigenvalue lies within t rho of one of G's simple
        eigenvalues, rho <= r_d less the predictions' rounding (Bauer-Fike
        again); the discs of radius rho about them stay disjoint and the
        eigenvalues move continuously, so each disc keeps the one eigenvalue
        it holds at t = 0.  That disc lies inside the prediction's, and
        every other eigenvalue lies more than |alpha_1 - alpha_2| - r_d > r_d
        from the prediction.  So the certified predictions, as a multiset,
        are within r_d of M_d's spectrum and of LAPACK's, one for one.

        The certificate reads only the matrix, never the closed forms of the
        spectrum, and a block whose structure is off has a large residual and
        is not certified.  It reads blocks 0 and 1 and the tridiagonal
        entries straight from the gathered entries, an entry that no band
        holds as 0.0, and its norms run over those entries in units of a
        power of 2 near the largest entry, so no square overflows.  A band
        (s, -s) with |s| > 1, which no quadratic operator fills, a defective
        A or a kappa^d past the float range bound nothing: the floor is -inf
        and no block is certified.
        """
        layout, top = self.layout, self.top
        deg, row = layout.deg, layout.row
        if self.vals[layout.far].any():
            return _BlockCertificate.unbounded(top)
        # the last entry, 0.0, stands for each one that no band holds
        real = np.append(self.vals.real, 0.0)
        scale = math.ldexp(1.0, math.frexp(np.abs(real).max())[1] - 1)
        head = real[layout.head_at] / scale
        c = float(head[0])
        a00, a01, a10, a11 = (head[1:] - c * np.array([1.0, 0.0, 0.0, 1.0])).tolist()
        mid, root, kappa, delta = _pair_eigensystem(a00, a01, a10, a11)
        if kappa == math.inf:  # a defective A: no eigenvector matrix to bound by
            return _BlockCertificate.unbounded(top)
        alpha_1, alpha_2 = mid + root, mid - root
        delta += 7 * _U * (abs(c) + max(abs(alpha_1), abs(alpha_2)))
        entries = real[layout.tri_at] / scale
        miss = entries - np.array([c, a00, a01, a10, a11]) @ layout.weights
        residual = np.sqrt(np.bincount(layout.tri_deg, miss * miss, minlength=top))
        norm = np.sqrt(np.bincount(layout.tri_deg, entries * entries, minlength=top))
        degrees = np.arange(top)
        roundoff = 1 + 8 * (degrees + 2) * _U
        largest = abs(c) + (degrees + 1) * max(map(abs, (a00, a01, a10, a11)))
        formation = 6 * _U * np.sqrt(3 * degrees + 1) * largest
        backward = 10 * (degrees + 1) ** 2 * _U * norm
        spread = roundoff * (residual + formation) + backward + degrees * delta
        twice = 2 * row - deg
        predicted = np.empty(row.size, dtype=complex)
        with np.errstate(over="ignore"):
            # a prediction past the float range lies outside every finite window
            predicted.real = (c + deg * mid + twice * root.real) * scale
            predicted.imag = twice * root.imag * scale + 0.0
            # kappa^d past the float range bounds nothing; kappa^0 = 1
            growth = kappa**degrees
            bound = roundoff * growth * spread
            radius = bound * scale
        spacing = abs(alpha_1 - alpha_2) * (1 - 4 * _U)
        disjoint = (degrees == 0) | (2 * bound < spacing)
        return _BlockCertificate(
            growth=growth,
            residual=residual * scale,
            radius=radius,
            predicted=predicted,
            certified=disjoint & (radius <= _PREDICTION_TOL),
        )


def _block_eigenvalues(entries: _DegreeEntries, degrees) -> np.ndarray:
    """Eigenvalues of block d for the increasing degrees given, as complex128,
    each block's in LAPACK's order, one np.linalg.eigvals call per block.
    The dense blocks are built only when some degree is given."""
    if not len(degrees):
        return np.zeros(0, dtype=complex)
    blocks = entries.blocks()
    return np.concatenate([np.linalg.eigvals(blocks[d]) for d in degrees], dtype=complex)


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
    Every block is LAPACK's, certified or not: this is the reference that
    the predictions of eigenvalues_in_window are held against, and no
    certificate is computed.
    """
    entries = _DegreeEntries(k_mat.matrix)
    return _block_eigenvalues(entries, range(entries.top))


def eigenvalues_in_window(k_mat: OperatorMatrix, radius: float) -> np.ndarray:
    """Eigenvalues of the degree blocks the basis holds whole with
    |lambda| <= radius, sorted by (re, im).

    Blocks 0 and 1 of the matrix predict every block d as
    c I + dGamma_d(A), with the eigenvalues c + k alpha_1 + (d - k) alpha_2
    and a Bauer-Fike radius r_d, and a block is certified when its
    predictions, within r_d <= 1e-8, stand one for one for its eigenvalues
    and for LAPACK's (_DegreeEntries.certificate states the rule and
    proves it).  A certified block gives its predictions, and the radius
    filter drops those outside the disk.  Of the other blocks, one whose
    floor, the least predicted modulus less r_d, lies outside the disk is
    left out, and the rest are solved by LAPACK (_block_eigenvalues), their
    values those of all_eigenvalues, bit for bit; the floor is computed
    only when some block is not certified, and the dense blocks only when
    LAPACK solves one.  So each returned value of a certified block lies
    within r_d of one of all_eigenvalues, and a value within r_d of the
    radius may fall on either side of it.  The closed forms of the
    spectrum play no part: a block off its prediction is solved.  On kl at
    32x32 and cl and hpz at 24x24, at radius 4 max(omega0, gamma), every
    block kept is certified: the window reads only the gathered entries,
    and LAPACK solves no block.
    """
    entries = _DegreeEntries(k_mat.matrix)
    cert = entries.certificate()
    # a certified block outside the disk leaves with the radius filter below
    held = np.repeat(cert.certified, np.arange(1, entries.top + 1))
    solve = np.flatnonzero(~cert.certified)
    if solve.size:
        solve = solve[~(cert.floor[solve] > radius)]
    ev = np.concatenate([cert.predicted[held], _block_eigenvalues(entries, solve)])
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
    come from the degree blocks the basis holds whole: the certified
    predictions, or LAPACK's values (eigenvalues_in_window).  A state that
    is not stationary for `coeffs` breaks the grading, and DegreeError is
    raised.
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
    through the layout's index arrays (_Layout.pairing).  The right vectors
    are the modes' words read on that triangle j + k <= D, from one word
    lattice per raising pair (_mode_coefficients); nothing of the size of
    the basis is built.  For each mode the predicted eigenvalue
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
    j, k, source, dest = mat._layout.pairing(top)
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
