"""The Gauss-Hermite oracle of the expansion.

`klform.expand` computes the coefficients of a polynomial times its
Gaussian by the ladder algebra: the Gaussian is the frame's ground
function and each coordinate a ladder matrix.  This module computes the
same coefficients by another route: it samples the function on a grid of
Gauss-Hermite nodes and integrates it against the Hermite functions.
Nothing here uses the ladder matrices, so the two routes check each other.
"""

import math

import numpy as np

from klform import GaussianState

from hermite_oracle import hermite_functions


def quadrature_expand(f, cfg) -> np.ndarray:
    """Coefficient vector of f * exp(i kappa Q r) in the tensor basis of
    cfg's frame (phase kappa), for f a GaussianState or an
    AppliedEigenfunction.  The quadrature order is twice the larger basis
    size, exact for a polynomial times the Gaussian of a frame it fits."""
    gauss, poly = (f, None) if isinstance(f, GaussianState) else (f.gaussian, f.expanded_poly)
    sq, sr, kappa = cfg.frame.s_q, cfg.frame.s_r, cfg.frame.kappa
    x, w = np.polynomial.hermite.hermgauss(2 * max(cfg.n_q, cfg.n_r))
    wtot = w * np.exp(x * x)
    q_nodes = (sq / math.sqrt(2.0)) * x[:, None]
    r_nodes = x[None, :] / (math.sqrt(2.0) * sr)
    values = GaussianState(gauss.mu, gauss.kappa - kappa, gauss.nu).evaluate(q_nodes, r_nodes)
    if poly is not None:
        values = poly.evaluate(q_nodes, r_nodes) * values
    psi_q = hermite_functions(x, cfg.n_q) * wtot[:, None]
    psi_r = hermite_functions(x, cfg.n_r) * wtot[:, None]
    pref = math.sqrt(sq / math.sqrt(2.0)) * math.sqrt(1.0 / (math.sqrt(2.0) * sr))
    return (pref * psi_q.T @ values @ psi_r).reshape(-1)
