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

The closed forms need only the standard library; numpy is imported by
the oracle and by the few functions that evaluate on arrays.  So
`klform.verify` is bound lazily: `import klform` registers it in
sys.modules through importlib.util.LazyLoader, and it runs, numpy with
it, on the first attribute read, such as `klform.expand` (served through
the module's __getattr__) or `klform.verify.expand`.  A PEP 562
__getattr__ alone would leave sys.modules["klform.verify"] absent until
that first read, and code that finds the oracle's functions there to wrap
them, as perfbench's span tracer does, would fail with KeyError.
"""

import importlib.util
import sys

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

_spec = importlib.util.find_spec(f"{__name__}.verify")
_spec.loader = importlib.util.LazyLoader(_spec.loader)
verify = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = verify
_spec.loader.exec_module(verify)  # binds the module; its code runs on the first read
del _spec

# verify.__all__, listed here because reading it would run the module
_VERIFY_NAMES = (
    "BasisConfig",
    "BiorthReport",
    "OperatorMatrix",
    "all_eigenvalues",
    "assemble_matrix",
    "biorthogonality_check",
    "eigenvalues_in_window",
    "evolve_series",
    "expand",
    "refined_window_eigenvalues",
    "residual",
    "stationary_similarity",
    "trace_and_hermiticity",
)


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_VERIFY_NAMES})


__version__ = "0.1.0"
