"""The matrix-exponential oracle of the coefficient flows, and the 4-vector
form of the degree-one flows.

`klform.conjugate_coefficients` computes each flow exp(p*G) K exp(-p*G) in
closed form.  This module computes the same flow by another route: the
structure constants of the seven-generator algebra are read off the
commutators of the generator table by least squares, and scipy's `expm`
of p * ad_G is applied to the coefficient vector.  Nothing here uses the
closed forms, so the two routes check each other.

`klform.conjugate_linear` works on the four fields of a degree-one
operator one at a time.  `conjugate_linear_4vector` applies the same closed
form to the whole vector (Q, r, dQ, dr) with numpy, on a 4x4 matrix of ad_G
built here from the commutators, and must give the same bits.

The vector forms of `LinearPhaseOperator` and the inverse of
`LiouvillianCoeffs.as_vector` live here too, for the tests that build or
read operators as arrays.
"""

from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from klform import (
    GENERATOR_ORDER,
    GeneratorId,
    LinearPhaseOperator,
    LiouvillianCoeffs,
    PhasePolyOperator,
    generator,
)
from klform.operators import _commutator

from reference_fixtures import linear_as_poly


def linear_as_vector(op: LinearPhaseOperator) -> np.ndarray:
    """The fields (q, r, dq, dr) of a degree-one operator as a complex 4-vector."""
    return np.array([op.q, op.r, op.dq, op.dr], dtype=complex)


def linear_from_vector(vec) -> LinearPhaseOperator:
    """The degree-one operator with fields (q, r, dq, dr) = vec."""
    return LinearPhaseOperator(*np.asarray(vec, dtype=complex).tolist())


def coeffs_from_vector(vec) -> LiouvillianCoeffs:
    """The coefficients of a length-7 vector in GENERATOR_ORDER."""
    h0, h1, h2, gamma, *g = (float(x) for x in vec)
    return LiouvillianCoeffs((h0, h1, h2), gamma, tuple(g))


def _snap_half_integers(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Round entries to the nearest multiple of 1/2, asserting they are close.

    Structure constants of the seven-generator algebra are exact half
    integers; snapping removes least-squares rounding noise so that the
    matrix exponentials preserve invariant components exactly.
    """
    snapped = np.round(2.0 * mat) / 2.0
    if not np.allclose(snapped, mat, atol=tol, rtol=0):
        raise AssertionError("structure constants deviate from half-integer grid")
    return snapped


def _decompose_over_generators(op: PhasePolyOperator) -> np.ndarray:
    """Write op as sum_i x_i G_i + x_7 * I; raises if op is outside the span."""
    polys = [generator(g) for g in GENERATOR_ORDER] + [PhasePolyOperator.identity()]
    monos = sorted(set().union(*[set(p.terms) for p in polys], set(op.terms)))
    basis = np.array([[p.terms.get(m, 0) for p in polys] for m in monos], dtype=complex)
    rhs = np.array([op.terms.get(m, 0) for m in monos], dtype=complex)
    x, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    if not np.allclose(basis @ x, rhs, atol=1e-10):
        raise ValueError("operator is not in the span of the seven generators + I")
    if np.max(np.abs(x.imag)) > 1e-10:
        raise ValueError("decomposition coefficients are not real")
    return x.real


@lru_cache(maxsize=None)
def _adjoint_matrix_7(gid: GeneratorId) -> np.ndarray:
    """7x7 matrix of ad_G on the coefficient vector: [G, G_j] = sum_i A_ij G_i."""
    g_op = generator(gid)
    cols = []
    for other in GENERATOR_ORDER:
        x = _decompose_over_generators(_commutator(g_op, generator(other)))
        # Brackets of trace-killing operators are trace-killing: no identity part.
        if abs(x[7]) > 1e-12:
            raise AssertionError("commutator acquired an identity component")
        cols.append(x[:7])
    return _snap_half_integers(np.array(cols).T)


def adjoint_conjugate_coefficients(
    gid: GeneratorId, param: float, c: LiouvillianCoeffs
) -> LiouvillianCoeffs:
    """Conjugated coefficients via the matrix exponential of the adjoint action.

    The gamma row of every ad_G vanishes, so gamma passes through the
    exponential bit-identically.
    """
    mat = expm(float(param) * _adjoint_matrix_7(gid))
    return coeffs_from_vector(mat @ c.as_vector())


_LINEAR_BASIS = (
    LinearPhaseOperator(q=1),
    LinearPhaseOperator(r=1),
    LinearPhaseOperator(dq=1),
    LinearPhaseOperator(dr=1),
)


@lru_cache(maxsize=None)
def _adjoint_matrix_4(gid: GeneratorId) -> np.ndarray:
    """4x4 matrix of ad_G on (Q, r, dQ, dr)."""
    g_op = generator(gid)
    cols = []
    for e in _LINEAR_BASIS:
        bracket = _commutator(g_op, linear_as_poly(e))
        vec = np.zeros(4, dtype=complex)
        for term, coeff in bracket.terms.items():
            idx = {(1, 0, 0, 0): 0, (0, 1, 0, 0): 1, (0, 0, 1, 0): 2, (0, 0, 0, 1): 3}.get(term)
            if idx is None:
                raise AssertionError("bracket with a linear operator is not linear")
            vec[idx] = coeff
        cols.append(vec)
    # exact: each entry is a generator coefficient times 1 or 2, and the
    # other terms of the two products cancel exactly
    return np.array(cols).T


def conjugate_linear_4vector(
    gid: GeneratorId, param: float, op: LinearPhaseOperator
) -> LinearPhaseOperator:
    """exp(param*G) op exp(-param*G) as exp(p ad_G) applied to the vector of op:
    elementwise exponentials for the diagonal scalings IM2 and O0MI, and
    c v + s (ad_G @ v) for the others, whose ad_G squares to k times the
    identity."""
    p = float(param)
    ad = _adjoint_matrix_4(gid)
    vec = linear_as_vector(op)
    if gid in (GeneratorId.IM2, GeneratorId.O0MI):
        return linear_from_vector(np.exp(p * ad.diagonal().real) * vec)
    if gid is GeneratorId.IL0:
        c, s = np.cos(p / 2), 2 * np.sin(p / 2)
    elif gid is GeneratorId.IM1:
        c, s = np.cosh(p / 2), 2 * np.sinh(p / 2)
    else:
        c, s = 1.0, p
    return linear_from_vector(c * vec + s * (ad @ vec))
