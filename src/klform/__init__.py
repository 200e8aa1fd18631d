"""Quadratic damped-oscillator Liouvillians: algebra, normal form, spectra.

The package is organized bottom-up:

  operators   normal-ordered polynomial operators, the seven-generator
              algebra, conjugation flows on coefficients and on
              degree-one operators
  reduction   similarity reduction of a generic coefficient vector to
              the normal form (2*omega0, 0, 0; gamma; -2*gamma*b, 0, 0)
  gauss       Gaussian states, closed-form conjugation maps, positivity
              windows, stationary presets
  spectrum    closed-form eigenvalues and right eigenfunctions, and
              their transport through a reduction plan
  verify      truncated Hermite-basis oracle: matrices, expansions,
              residuals, evolution, biorthogonality
  cli         JSON-driven command line front end
"""

from .errors import (
    CriticalDampingError,
    DegenerateDenominator,
    DegreeError,
    FrameMismatch,
    IllConditionedReduction,
    KLFormError,
    LabelError,
    NonPositiveH0Error,
    OverdampedError,
    PairingFailure,
    PositivityViolation,
    SignError,
    SingularGError,
    UnsupportedLabel,
    ZeroVector,
)
from .gauss import (
    GaussianState,
    apply_plan_gaussian,
    delta,
    positivity_window,
    reduced_frequency,
    stationary_preset,
    transform_gaussian,
)
from .operators import (
    CoordinateFrame,
    GeneratorId,
    GENERATOR_ORDER,
    LinearPhaseOperator,
    LiouvillianCoeffs,
    PhasePolyOperator,
    adjoint_conjugate_coefficients,
    assemble_liouvillian,
    cl_coefficients,
    commutator,
    conjugate_coefficients,
    conjugate_linear,
    generator,
    hpz_coefficients,
    kl_coefficients,
    rescale_coordinates,
)
from .reduction import (
    ReductionPlan,
    reduce_to_kl,
    rescale_b,
    step1_solve,
    step2_matrix,
    step2_solve,
    u_matrix,
)
from .spectrum import (
    AppliedEigenfunction,
    BivariatePoly,
    EigenLabel,
    c_coefficient,
    distinct_labels,
    eigenvalue,
    hermite,
    hermite_coefficients,
    kl_eigenfunction,
    pi_polynomial,
    reference_eigenfunction,
    transformed_eigenfunction,
)
from .verify import (
    BasisConfig,
    BiorthReport,
    OperatorMatrix,
    all_eigenvalues,
    assemble_matrix,
    biorthogonality_check,
    eigenvalues_in_window,
    evolve,
    evolve_series,
    expand,
    ladder_matrices,
    reconstruct,
    refined_window_eigenvalues,
    residual,
    stationary_similarity,
    trace_and_hermiticity,
)

__version__ = "0.1.0"
