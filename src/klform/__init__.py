"""Quadratic damped-oscillator Liouvillians: algebra, normal form, spectra.

The package is organized bottom-up:

  operators   normal-ordered polynomial operators, the seven-generator
              algebra, conjugation flows on coefficients and on
              degree-one operators
  gauss       Gaussian states, closed-form conjugation maps, positivity
              windows, stationary presets
  reduction   similarity reduction of a generic coefficient vector to
              the normal form (2*omega0, 0, 0; gamma; -2*gamma*b, 0, 0),
              and the plan's transport of the normal form's stationary
              Gaussian and raising pair back to the source
  spectrum    closed-form eigenvalues and right eigenfunctions, words
              in a raising pair applied to a Gaussian
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

The public names are listed once, in each module's __all__ (errors has
none: its public names are its exception classes), and republished here
by wildcard imports.  verify's names are the one literal list,
_VERIFY_NAMES, because reading verify.__all__ would run the oracle.
"""

import importlib.util
import sys

from .errors import *
from .gauss import *
from .operators import *
from .reduction import *
from .spectrum import *

_spec = importlib.util.find_spec(f"{__name__}.verify")
_spec.loader = importlib.util.LazyLoader(_spec.loader)
verify = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = verify
_spec.loader.exec_module(verify)  # binds the module; its code runs on the first read
del _spec

# verify.__all__, a literal because reading it would run the module
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
