"""Pointwise Hermite functions and the evaluation of an expansion.

`klform.verify` never evaluates its basis functions: expansions, traces
and hermiticity defects come from the ladder algebra and closed forms.
The tests sample the functions here to check those against the
expanded functions' values.
"""

import math

import numpy as np


def hermite_functions(x: np.ndarray, n_basis: int) -> np.ndarray:
    """Orthonormal Hermite functions psi_j(x), j < n_basis, by their
    three-term recurrence; one row per point of x."""
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


def reconstruct(vec: np.ndarray, cfg, q, r) -> np.ndarray:
    """Evaluate an expansion in the basis of cfg (a klform BasisConfig), the
    frame's phase taken off, on the outer grid of 1-D arrays q and r."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    sq, sr = cfg.frame.s_q, cfg.frame.s_r
    u = math.sqrt(2.0) * q / sq
    v = math.sqrt(2.0) * sr * r
    psi_q = hermite_functions(u, cfg.n_q)
    psi_r = hermite_functions(v, cfg.n_r)
    norm = math.sqrt(math.sqrt(2.0) / sq) * math.sqrt(math.sqrt(2.0) * sr)
    coeffs = np.asarray(vec, dtype=complex).reshape(cfg.n_q, cfg.n_r)
    phase = np.exp(-1j * cfg.frame.kappa * np.outer(q, r)) if cfg.frame.kappa else 1.0
    return norm * psi_q @ coeffs @ psi_r.T * phase
