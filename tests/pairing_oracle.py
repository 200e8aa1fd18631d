"""The per-mode inverse iteration that `verify.biorthogonality_check` runs
as one stack, kept as its reference.

Each mode gets its own shifted inverse of the leading block on degrees
<= D = max(2m - n), read here from the dense matrix: one inverse-iteration
step from the mode's vector and a Rayleigh quotient confirm the eigenvalue,
and three steps on the adjoint system give the left eigenvector.
"""

import math

import numpy as np

from klform import PairingFailure, ZeroVector, expand


def per_mode_pairing(k_mat, modes, tol=1e-6):
    """Gram matrix of left against right vectors and its largest rescaled
    off-diagonal entry; PairingFailure and ZeroVector as the check raises
    them, mode by mode."""
    mat = k_mat.matrix
    degree = np.add.outer(np.arange(mat.n_q), np.arange(mat.n_r)).reshape(-1)
    index = np.flatnonzero(degree <= max(2 * mode.label.m - mode.label.n for mode in modes))
    block = mat.toarray()[np.ix_(index, index)]
    rights, lefts = [], []
    for mode in modes:
        lam = complex(mode.eigenvalue)
        vec = expand(mode, k_mat.config)[index]
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ZeroVector(f"mode {mode.label} expanded to the zero vector")
        vec = vec / norm
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = lam + 1e-8 * (1.0 + abs(lam)) * (1.0 + 1.0j) / math.sqrt(2.0)
            inverse = np.linalg.inv(block - shift * np.eye(index.size))
            refined = inverse @ vec
            refined /= np.linalg.norm(refined)
            rayleigh = complex(np.vdot(refined, block @ refined))
        if not abs(rayleigh - lam) <= 10.0 * tol:
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
    if not np.min(np.abs(diag)) >= 1e-8:
        raise PairingFailure("a left/right pair is numerically orthogonal")
    rescaled = gram / diag[:, None]
    return gram, float(np.max(np.abs(rescaled - np.eye(len(modes)))))
