"""The degree-d blocks that the paper's first claim predicts from block 1,
and their eigenvectors, built term by term as the reference for the
window's certificate.

Block d acts on the functions (j, d - j), j = 0..d, the states with j
quanta of the ladder mode that block 1 lists second and d - j of the one
it lists first.  A quadratic generator c + dGamma(A), A = M_1 - c I, gives
the block second_quantized(c, A, d).  An eigenvector matrix P of A, column
m an eigenvector, lifts to the eigenvector matrix symmetric_power(P, d):
column k is (b^+(P e_1))^k (b^+(P e_0))^(d - k) |0>, normalized as the
state |k, d - k> it images, expanded by the binomial theorem.
"""

import math

import numpy as np


def second_quantized(c, a, d):
    """c I + dGamma_d(A) on the d + 1 functions of degree d: diagonal
    c + j A11 + (d - j) A00, entry (j, j + 1) sqrt((j + 1)(d - j)) A01 and
    entry (j + 1, j) sqrt((j + 1)(d - j)) A10."""
    j = np.arange(d + 1)
    out = np.diag(c + j * a[1, 1] + (d - j) * a[0, 0]).astype(np.result_type(c, a))
    ladder = np.sqrt((j[:-1] + 1.0) * (d - j[:-1]))
    out[j[:-1], j[:-1] + 1] = ladder * a[0, 1]
    out[j[:-1] + 1, j[:-1]] = ladder * a[1, 0]
    return out


def symmetric_power(p, d):
    """Sym^d(P) in the orthonormal basis |j, d - j>: entry (j, k) is the
    coefficient of (b_1^+)^j (b_0^+)^(d - j) in (P11 b_1^+ + P01 b_0^+)^k
    (P10 b_1^+ + P00 b_0^+)^(d - k), times sqrt(j! (d - j)! / (k! (d - k)!))."""
    out = np.zeros((d + 1, d + 1), dtype=complex)
    for k in range(d + 1):
        norm = math.factorial(k) * math.factorial(d - k)
        for j in range(d + 1):
            total = 0j
            # i quanta of mode 1 from the k factors P e_1, j - i from the rest
            for i in range(max(0, j - (d - k)), min(k, j) + 1):
                total += (
                    math.comb(k, i)
                    * p[1, 1] ** i
                    * p[0, 1] ** (k - i)
                    * math.comb(d - k, j - i)
                    * p[1, 0] ** (j - i)
                    * p[0, 0] ** (d - k - j + i)
                )
            out[j, k] = total * math.sqrt(math.factorial(j) * math.factorial(d - j) / norm)
    return out
