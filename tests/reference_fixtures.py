"""Hard-coded closed forms of the lowest modes of the named models, and
two small builders the tests share.

The tests compare the package's transported eigenfunctions with these
polynomials, written out by hand: they share nothing with the reduction,
the raising pair or the eigenpolynomial formula, and take only their
Gaussians and widths from the stationary presets.  kl_eigenfunction, the
normal form's modes as the transport of an empty plan, and linear_as_poly,
a degree-one operator as an element of the algebra, are not references.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from klform import (
    AppliedEigenfunction,
    CoordinateFrame,
    EigenLabel,
    GaussianState,
    KLFormError,
    LinearPhaseOperator,
    PhasePolyOperator,
    ReductionPlan,
    eigenvalue,
    kl_coefficients,
    stationary_preset,
    transformed_eigenfunction,
)
from klform.gauss import _reduced_frequency


def kl_eigenfunction(
    label: EigenLabel, b: float, omega0: float, gamma: float
) -> AppliedEigenfunction:
    """Normal-form eigenfunction at width b >= 1/2: the transport of the
    empty plan, whose raising pair is B1,2 = s_r (r +- dQ), s_r = sqrt(b/2).
    The plan is built by hand, so that it keeps omega0 as given;
    reduce_to_kl would recompute it through a square root."""
    target = kl_coefficients(omega0, gamma, b)
    return transformed_eigenfunction(ReductionPlan((), omega0, b, target), label, target)


def linear_as_poly(op: LinearPhaseOperator) -> PhasePolyOperator:
    """The degree-one operator q Q + r r + dq dQ + dr dr as a PhasePolyOperator."""
    return PhasePolyOperator(
        {(1, 0, 0, 0): op.q, (0, 1, 0, 0): op.r, (0, 0, 1, 0): op.dq, (0, 0, 0, 1): op.dr}
    )


class UnsupportedLabel(KLFormError):
    """No closed-form reference eigenfunction is tabulated for this label."""


@dataclass(frozen=True)
class ReferenceMode:
    """Pi(Qs, rs) times the Gaussian, Qs = Q/s_q and rs = s_r r of the frame."""

    eigenvalue: complex
    pi: PhasePolyOperator
    gaussian: GaussianState
    frame: CoordinateFrame

    def evaluate(self, q, r) -> np.ndarray:
        qs, rs = np.asarray(q) / self.frame.s_q, self.frame.s_r * np.asarray(r)
        return self.pi.evaluate(qs, rs) * self.gaussian.evaluate(q, r)


def reference_eigenfunction(model: str, label: EigenLabel, **params) -> ReferenceMode:
    """Hard-coded closed forms for the lowest modes, used as regression fixtures.

    Supported labels: (1, 1, +), (1, 1, -) and (1, 0).  Models:

      "kl"  params b, omega0, gamma.
            Pi(1,1,s) = -i(s*Qs + rs),  Pi(1,0) = 1/2 - Qs^2 + rs^2.
      "hpz" params omega0_prime, gamma, b_hpz, d.  With the split widths
            b- = b_hpz, b+ = b_hpz + d/(2 w0'), coordinates
            Qs = Q/sqrt(2 b+), rs = sqrt(b-/2) r, w = w0'/w0,
            p = sqrt(i w0') sqrt(b+ + b-) / w0 and
            lam(+-) = (+-) i w0 + gamma/2:
            Pi(1,1,+) = p (i sqrt(lam-/(2b+)) Qs + sqrt(lam+/(2b-)) rs)
            Pi(1,1,-) = p (sqrt(lam+/(2b+)) Qs - i sqrt(lam-/(2b-)) rs)
            Pi(1,0)   = w (b+ + b-)/(2b+) (w (1/2 - Qs^2 + (b+/b-) rs^2)
                        + i (gamma/w0) sqrt(b+/b-) Qs rs)
      "cl"  params omega0_prime, gamma, b_cl: "hpz" at b_hpz = b_cl, d = 0.

    Unsupported labels raise UnsupportedLabel.
    """
    name = model.lower()
    supported = {(1, 1, 1), (1, 1, -1), (1, 0, 1), (1, 0, -1)}
    if (label.m, label.n, label.sigma) not in supported:
        raise UnsupportedLabel(f"no closed form tabulated for {label}")
    if name == "cl":
        name, params = "hpz", {**params, "b_hpz": params["b_cl"], "d": 0.0}
    # ValueError for an unknown model
    state, frame = stationary_preset(name, **params)
    gamma = float(params["gamma"])

    if name == "kl":
        omega0 = float(params["omega0"])
        if label.n == 1:
            pi = PhasePolyOperator({(1, 0, 0, 0): -1j * label.sigma, (0, 1, 0, 0): -1j})
        else:
            pi = PhasePolyOperator({(0, 0, 0, 0): 0.5, (2, 0, 0, 0): -1.0, (0, 2, 0, 0): 1.0})
    else:
        omega0_prime = float(params["omega0_prime"])
        b_minus = float(params["b_hpz"])
        omega0 = _reduced_frequency(omega0_prime, gamma)
        lam_plus = complex(0.5 * gamma, omega0)
        lam_minus = complex(0.5 * gamma, -omega0)
        pref = cmath.sqrt(1j * omega0_prime) / omega0
        b_plus = b_minus + float(params["d"]) / (2.0 * omega0_prime)
        if label.n == 1:
            scale = math.sqrt(b_plus + b_minus)
            if label.sigma == 1:
                pi = PhasePolyOperator(
                    {
                        (1, 0, 0, 0): pref * scale * 1j * cmath.sqrt(lam_minus / (2.0 * b_plus)),
                        (0, 1, 0, 0): pref * scale * cmath.sqrt(lam_plus / (2.0 * b_minus)),
                    }
                )
            else:
                pi = PhasePolyOperator(
                    {
                        (1, 0, 0, 0): pref * scale * cmath.sqrt(lam_plus / (2.0 * b_plus)),
                        (0, 1, 0, 0): -pref * scale * 1j * cmath.sqrt(lam_minus / (2.0 * b_minus)),
                    }
                )
        else:
            wr = omega0_prime / omega0
            lead = wr * (b_plus + b_minus) / (2.0 * b_plus)
            pi = PhasePolyOperator(
                {
                    (0, 0, 0, 0): 0.5 * lead * wr,
                    (2, 0, 0, 0): -lead * wr,
                    (0, 2, 0, 0): lead * wr * (b_plus / b_minus),
                    (1, 1, 0, 0): 1j * lead * (gamma / omega0) * math.sqrt(b_plus / b_minus),
                }
            )
    return ReferenceMode(eigenvalue(label, omega0, gamma), pi, state, frame)
