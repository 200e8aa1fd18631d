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
    EvolutionOverflow,
    FrameMismatch,
    IllConditionedReduction,
    KLFormError,
    LabelError,
    NonPositiveH0Error,
    OverdampedError,
    PairingFailure,
    PositivityViolation,
    SingularGError,
    ZeroVector,
)
from .gauss import (
    GaussianState,
    apply_plan_gaussian,
    positivity_window,
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
    assemble_liouvillian,
    cl_coefficients,
    conjugate_coefficients,
    conjugate_linear,
    generator,
    hpz_coefficients,
    kl_coefficients,
)
from .reduction import (
    ReductionPlan,
    reduce_to_kl,
)
from .spectrum import (
    AppliedEigenfunction,
    EigenLabel,
    distinct_labels,
    eigenvalue,
    kl_eigenfunction,
    pi_polynomial,
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
    evolve_series,
    expand,
    refined_window_eigenvalues,
    residual,
    stationary_similarity,
    trace_and_hermiticity,
)

__version__ = "0.1.0"
