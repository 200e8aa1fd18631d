"""Batch front end: JSON-configured runs emitting JSON tables and CSV grids.

Subcommands
    spectrum    closed-form eigenvalue table for m <= m_max
    reduce      conjugation plan carrying the model to normal form
    eigfun      one eigenfunction: polynomial data plus a sampled grid
    stationary  stationary Gaussian parameters and coordinate frame
    verify      truncated-basis residual table and trace/hermiticity report
    evolve      time series for a seeded mode relaxing onto the steady state

Exit codes: 0 success, 2 validation error (nothing written) or an out
directory that cannot be written, 3 a numerical tolerance was exceeded
(the report is still written).
Identical configurations produce bit-identical output files.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

from . import verify
from .errors import (
    BasisSizeError,
    EvolutionOverflow,
    KLFormError,
    LabelError,
    PositivityViolation,
)
from .gauss import stationary_preset
from .operators import (
    LiouvillianCoeffs,
    assemble_liouvillian,
    cl_coefficients,
    hpz_coefficients,
    kl_coefficients,
)
from .reduction import reduce_to_kl
from .spectrum import (
    MAX_M,
    EigenLabel,
    distinct_labels,
    eigenvalue,
    pi_polynomial,
    transformed_eigenfunction,
)

__all__ = ["RunConfig", "GridSpec", "ConfigError", "load_config", "run", "main"]

DESK_PRESETS = {
    "kl": {"omega0": 1.0, "gamma": 0.3, "b": 1.0},
    "cl": {"omega0_prime": 1.0, "gamma": 0.6, "b_cl": 1.0},
    "hpz": {"omega0_prime": 1.0, "gamma": 0.6, "b_hpz": 1.0, "d": 0.2},
}

# coefficient builder per named model; its parameter names are the preset keys
MODELS = {"kl": kl_coefficients, "cl": cl_coefficients, "hpz": hpz_coefficients}


class ConfigError(KLFormError):
    """A run configuration violates the schema or an invariant."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite float, or an int that converts to one; never a bool."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling window for eigenfunction grids."""

    q_min: float = -3.0
    q_max: float = 3.0
    r_min: float = -3.0
    r_max: float = 3.0
    steps: int = 21

    def __post_init__(self):
        vals = (self.q_min, self.q_max, self.r_min, self.r_max)
        if not all(_is_real(v) for v in vals):
            raise ConfigError("grid bounds must be finite numbers")
        if not (self.q_min < self.q_max and self.r_min < self.r_max):
            raise ConfigError("grid bounds must satisfy min < max")
        if not _is_int(self.steps) or self.steps < 2:
            raise ConfigError("grid steps must be an integer >= 2")


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one CLI run.

    The "Config files" table of the README gives each field's type,
    default and constraint.

    Exactly one of `coefficients` (model "generic") and `preset`
    (models "kl", "cl", "hpz") is present.
    """

    model: str
    coefficients: LiouvillianCoeffs | None = None
    preset: dict | None = None
    m_max: int = 2
    basis_n: int = 32
    tol: float = 1e-8
    out: str = "klform-out"
    grid: GridSpec = field(default_factory=GridSpec)
    label: tuple[int, int, int] = (1, 1, 1)
    seed_label: tuple[int, int, int] = (1, 0, 1)
    b_target: float = 1.0
    t_max: float | None = None
    n_times: int = 81
    seed_amplitude: float = 0.2

    def __post_init__(self):
        if self.model not in ("generic", *MODELS):
            raise ConfigError(f"unknown model {self.model!r}")
        if (self.coefficients is None) == (self.preset is None):
            raise ConfigError("exactly one of coefficients/preset must be present")
        if self.model == "generic" and self.coefficients is None:
            raise ConfigError("model 'generic' requires explicit coefficients")
        if self.model != "generic" and self.preset is None:
            raise ConfigError(f"model {self.model!r} requires preset parameters")
        if self.preset is not None:
            required = set(DESK_PRESETS[self.model])
            if set(self.preset) != required:
                raise ConfigError(
                    f"model {self.model!r} needs preset keys {sorted(required)}"
                )
            for key, val in self.preset.items():
                if not _is_real(val):
                    raise ConfigError(f"preset parameter {key!r} must be a finite number")
            # every preset has gamma, and the reduction needs it positive
            if self.preset["gamma"] <= 0:
                raise ConfigError("preset parameter 'gamma' must be positive")
            try:
                MODELS[self.model](**self.preset)
            except ValueError as exc:  # a coefficient beyond the float range
                raise ConfigError(f"preset {self.model!r} coefficients: {exc}") from exc
        if not _is_int(self.m_max) or self.m_max < 0:
            raise ConfigError("m_max must be a non-negative integer")
        if not _is_int(self.basis_n) or self.basis_n < 4:
            raise ConfigError("basis_n must be an integer >= 4")
        if not (isinstance(self.tol, float) and math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError("tol must be a positive finite float")
        if not (isinstance(self.out, str) and self.out):
            raise ConfigError("out must be a non-empty path string")
        for name in ("label", "seed_label"):
            trip = getattr(self, name)
            if not isinstance(trip, tuple) or len(trip) != 3 or not all(map(_is_int, trip)):
                raise ConfigError(f"{name} must be three integers [m, n, sigma]")
        # the smallest width reduce_to_kl accepts
        if not _is_real(self.b_target) or self.b_target < 0.5:
            raise ConfigError("b_target must be a finite number >= 1/2")
        if self.t_max is not None and not (_is_real(self.t_max) and self.t_max > 0):
            raise ConfigError("t_max must be positive and finite")
        if not _is_int(self.n_times) or self.n_times < 2:
            raise ConfigError("n_times must be an integer >= 2")
        if not _is_real(self.seed_amplitude) or self.seed_amplitude == 0:
            raise ConfigError("seed_amplitude must be finite and nonzero")


# ---------------------------------------------------------------------------
# JSON to RunConfig.  The parsers turn JSON objects, arrays and ints standing
# for floats into the field types and check only what that needs; RunConfig
# and GridSpec check every field.


def _float(value):
    return float(value) if _is_int(value) and _is_real(value) else value


def _parse_coefficients(raw) -> LiouvillianCoeffs:
    if not isinstance(raw, dict) or set(raw) != {"h", "gamma", "g"}:
        raise ConfigError("coefficients must be an object with keys h, gamma, g")
    h, gamma, g = raw["h"], raw["gamma"], raw["g"]
    if not (isinstance(h, list) and len(h) == 3 and isinstance(g, list) and len(g) == 3):
        raise ConfigError("coefficient entries h and g must be length-3 arrays")
    if not all(map(_is_real, (*h, gamma, *g))):
        raise ConfigError("coefficients must be finite numbers")
    try:
        return LiouvillianCoeffs(tuple(h), gamma, tuple(g))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_preset(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("preset must be an object of named parameters")
    return {key: _float(val) for key, val in raw.items()}


def _parse_grid(raw) -> GridSpec:
    if not isinstance(raw, dict):
        raise ConfigError("grid must be an object")
    unknown = set(raw) - {f.name for f in fields(GridSpec)}
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    return GridSpec(**{k: v if k == "steps" else _float(v) for k, v in raw.items()})


def _parse_label(raw):
    return tuple(raw) if isinstance(raw, list) else raw


# config key -> JSON value parser; every other key is passed on unchanged
_PARSERS = {
    "coefficients": _parse_coefficients,
    "preset": _parse_preset,
    "grid": _parse_grid,
    "label": _parse_label,
    "seed_label": _parse_label,
    "tol": _float,
    "b_target": _float,
    "t_max": _float,
    "seed_amplitude": _float,
}


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file and flag overrides into a validated RunConfig."""
    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, too many digits
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if args.preset is not None:
        raw.pop("coefficients", None)
        raw["model"] = args.preset
        raw["preset"] = dict(DESK_PRESETS[args.preset])
    for key in ("m_max", "basis_n", "tol", "out"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    if "model" not in raw:
        raise ConfigError("no model selected; pass --preset or a config file")
    return RunConfig(
        **{key: _PARSERS[key](val) if key in _PARSERS else val for key, val in raw.items()}
    )


# ---------------------------------------------------------------------------
# Deterministic serialization: floats at 17 significant digits, insertion
# order preserved, two-space indentation, trailing newline.


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in obj)
        return "[\n" + rows + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):  # np.float64 too, a float subclass
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize the non-finite float {obj}")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(doc: dict) -> str:
    return _render(doc, 0) + "\n"


def _f(x: float) -> str:
    return format(float(x), ".17g")


def render_grid_csv(q_vals, r_vals, values) -> str:
    lines = ["Q,r,re_f,im_f"]
    for i, q in enumerate(q_vals):
        for j, r in enumerate(r_vals):
            z = values[i, j]
            lines.append(f"{_f(q)},{_f(r)},{_f(z.real)},{_f(z.imag)}")
    return "\n".join(lines) + "\n"


def _write_artifacts(out: str, artifacts: dict) -> None:
    """Write every artifact to a temporary file, then move them all into
    place, all or nothing: a target that is a directory is refused before
    anything is written, each file a move replaces is set aside until the
    last move succeeds, and a failure puts those files back and removes the
    temporary ones."""
    paths = {name: os.path.join(out, name) for name in sorted(artifacts)}
    for path in paths.values():
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory")
    os.makedirs(out, exist_ok=True)
    saved, placed = [], []  # old files set aside as <path>.old; new files moved in
    try:
        for name, path in paths.items():
            with open(f"{path}.tmp", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(artifacts[name])
        for path in paths.values():
            if os.path.isfile(path):
                os.replace(path, f"{path}.old")
                saved.append(path)
            os.replace(f"{path}.tmp", path)
            placed.append(path)
    except OSError:
        for path in placed:
            os.remove(path)
        for path in saved:
            os.replace(f"{path}.old", path)
        for path in paths.values():
            if os.path.isfile(f"{path}.tmp"):
                os.remove(f"{path}.tmp")
        raise
    for path in saved:
        os.remove(f"{path}.old")


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns ({filename: text}, passed).


def _reduce(cfg: RunConfig):
    """Source coefficients of the run and the plan carrying them to normal form."""
    coeffs = cfg.coefficients if cfg.model == "generic" else MODELS[cfg.model](**cfg.preset)
    return coeffs, reduce_to_kl(coeffs, b_target=cfg.b_target)


def _oracle(cfg: RunConfig, coeffs: LiouvillianCoeffs, state):
    """Truncated basis in the frame of the stationary Gaussian, and the matrix
    of K on it; ConfigError when the matrix does not fit in memory."""
    basis = verify.BasisConfig(cfg.basis_n, cfg.basis_n, state.frame())
    try:
        return basis, verify.assemble_matrix(assemble_liouvillian(coeffs), basis)
    except BasisSizeError as exc:
        raise ConfigError(f"basis_n {cfg.basis_n} is too large: {exc}") from exc


def _coeff_doc(c: LiouvillianCoeffs) -> dict:
    return {"h": list(c.h), "gamma": c.gamma, "g": list(c.g)}


def _label_doc(lab: EigenLabel) -> dict:
    return {"m": lab.m, "n": lab.n, "sigma": lab.sigma}


def _eigen_rows(m_max: int, omega0: float, gamma: float) -> list:
    rows = []
    for lab in distinct_labels(m_max):
        lam = eigenvalue(lab, omega0, gamma)
        row = _label_doc(lab)
        row["re_lambda"] = lam.real
        row["im_lambda"] = lam.imag
        rows.append(row)
    return rows


def cmd_spectrum(cfg: RunConfig):
    coeffs, plan = _reduce(cfg)
    doc = {
        "model": cfg.model,
        "omega0": plan.omega0,
        "gamma": coeffs.gamma,
        "m_max": cfg.m_max,
        "modes": _eigen_rows(cfg.m_max, plan.omega0, coeffs.gamma),
    }
    return {"spectrum.json": render_json(doc)}, True


def cmd_reduce(cfg: RunConfig):
    coeffs, plan = _reduce(cfg)
    doc = {
        "model": cfg.model,
        "source": _coeff_doc(coeffs),
        "target": _coeff_doc(plan.target),
        "omega0": plan.omega0,
        "b": plan.b,
        "replay_residual": plan.replay_residual(coeffs),
        "steps": [
            {"generator": gid.value, "parameter": param} for gid, param in plan.steps
        ],
    }
    return {"reduction.json": render_json(doc)}, True


def cmd_stationary(cfg: RunConfig):
    if cfg.model == "generic":
        coeffs, plan = _reduce(cfg)
        state, _ = plan.transport(coeffs)
        if not state.is_physical():  # as stationary_preset demands of a preset
            raise PositivityViolation(f"stationary Gaussian has nu = {state.nu} < 0")
        frame = state.frame()
    else:
        state, frame = stationary_preset(cfg.model, **cfg.preset)
    doc = {
        "model": cfg.model,
        "mu": state.mu,
        "kappa": state.kappa,
        "nu": state.nu,
        "frame": {"s_q": frame.s_q, "s_r": frame.s_r},
    }
    return {"stationary.json": render_json(doc)}, True


def cmd_eigfun(cfg: RunConfig):
    import numpy as np

    coeffs, plan = _reduce(cfg)
    mode = transformed_eigenfunction(plan, EigenLabel(*cfg.label), coeffs)
    lam = complex(mode.eigenvalue)

    def poly_rows(poly):
        # both polynomials are multiplication operators, with terms (a, b, 0, 0)
        return [
            {"q_power": a, "r_power": b, "re": c.real, "im": c.imag}
            for (a, b, _, _), c in sorted(poly.terms.items())
        ]

    g = mode.gaussian
    frame = g.frame()
    doc = {
        "model": cfg.model,
        "label": _label_doc(mode.label),
        "eigenvalue": {"re": lam.real, "im": lam.imag},
        "gaussian": {"mu": g.mu, "kappa": g.kappa, "nu": g.nu},
        "frame": {"s_q": frame.s_q, "s_r": frame.s_r},
        "operator_polynomial": poly_rows(pi_polynomial(mode.label)),
        "multiplier_polynomial": poly_rows(mode.expanded_poly),
    }
    grid = cfg.grid
    q_vals = np.linspace(grid.q_min, grid.q_max, grid.steps)
    r_vals = np.linspace(grid.r_min, grid.r_max, grid.steps)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value fails below
        values = mode.evaluate(q_vals[:, None], r_vals[None, :])
    if not np.isfinite(values).all():
        raise ConfigError(
            f"eigenfunction {list(cfg.label)} is not finite on the grid q in "
            f"[{grid.q_min}, {grid.q_max}], r in [{grid.r_min}, {grid.r_max}]"
        )
    return {
        "eigenfunction.json": render_json(doc),
        "eigenfunction.csv": render_grid_csv(q_vals, r_vals, values),
    }, True


def cmd_verify(cfg: RunConfig):
    if cfg.m_max > MAX_M:  # before transporting the labels below the cap
        raise LabelError(f"m = {cfg.m_max} exceeds the cap {MAX_M}")
    coeffs, plan = _reduce(cfg)
    labels = distinct_labels(cfg.m_max)
    modes = [transformed_eigenfunction(plan, lab, coeffs) for lab in labels]
    basis, k_mat = _oracle(cfg, coeffs, modes[0].gaussian)
    rows = _eigen_rows(cfg.m_max, plan.omega0, coeffs.gamma)
    worst = 0.0
    stationary_vec = None
    for mode, row in zip(modes, rows):
        vec = verify.expand(mode, basis)
        if mode.label.m == 0:
            stationary_vec = vec
        res = verify.residual(k_mat, vec, mode.eigenvalue)
        worst = max(worst, res)
        row["residual"] = res
    trace, defect = verify.trace_and_hermiticity(stationary_vec, basis)
    trace_error = abs(trace - 1.0)
    passed = worst <= cfg.tol and trace_error <= cfg.tol and defect <= cfg.tol
    doc = {
        "model": cfg.model,
        "m_max": cfg.m_max,
        "basis_n": cfg.basis_n,
        "tol": cfg.tol,
        "modes": rows,
        "max_residual": worst,
        "trace": {"re": trace.real, "im": trace.imag},
        "trace_error": trace_error,
        "hermiticity_defect": defect,
        "passed": passed,
    }
    return {"verify.json": render_json(doc)}, passed


def cmd_evolve(cfg: RunConfig):
    import numpy as np

    coeffs, plan = _reduce(cfg)
    gamma = coeffs.gamma
    seed = transformed_eigenfunction(plan, EigenLabel(*cfg.seed_label), coeffs)
    steady, _ = plan.transport(coeffs)
    basis, k_mat = _oracle(cfg, coeffs, steady)
    v_steady = verify.expand(steady, basis)
    v_seed = verify.expand(seed, basis)
    f0 = v_steady + cfg.seed_amplitude * v_seed / np.linalg.norm(v_seed)
    t_max = cfg.t_max if cfg.t_max is not None else 10.0 / gamma
    times = np.linspace(0.0, t_max, cfg.n_times)
    series = verify.evolve_series(k_mat, f0, times)
    rows = []
    overlaps = np.empty(cfg.n_times)
    # A seed amplitude near 1e308 overflows the norms, a tiny one (1e-150
    # on the kl preset) rounds the deviation to zero and a t_max near 1e-200
    # underflows the fit: raise instead of reporting inf or NaN.
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            dev0 = np.linalg.norm(series[0] - v_steady)
            traces, defects = verify.trace_and_hermiticity(series, basis)
            for i, (t, vec, trace) in enumerate(zip(times, series, traces)):
                overlaps[i] = np.linalg.norm(vec - v_steady) / dev0
                rows.append(
                    {
                        "t": float(t),
                        "re_trace": trace.real,
                        "im_trace": trace.imag,
                        "norm": float(np.linalg.norm(vec)),
                        "overlap": overlaps[i],
                    }
                )
            slope = np.polyfit(times, np.log(overlaps), 1)[0]
    except FloatingPointError as exc:
        raise EvolutionOverflow(
            f"the seeded deviation rounds to zero or its decay leaves the float range ({exc})"
        ) from exc
    expected = abs(complex(seed.eigenvalue).real)
    fitted = -float(slope)
    max_trace_error = max(abs(trace - 1.0) for trace in traces)
    max_defect = max(defects)
    doc = {
        "model": cfg.model,
        "gamma": gamma,
        "seed_label": _label_doc(seed.label),
        "t_max": float(t_max),
        "n_times": cfg.n_times,
        "rows": rows,
        "expected_rate": expected,
        "fitted_rate": fitted,
        "rate_rel_error": abs(fitted - expected) / expected if expected else 0.0,
        "max_trace_error": max_trace_error,
        "max_hermiticity_defect": max_defect,
    }
    # the roundoff of the trace and of the reflection grows with the seeded
    # deviation; both hold even when the span or the deviation is too small
    # to show the decay, so the fitted rate must match too
    scaled_tol = cfg.tol * max(1.0, abs(cfg.seed_amplitude))
    passed = (
        max_trace_error <= scaled_tol
        and max_defect <= scaled_tol
        and doc["rate_rel_error"] <= cfg.tol
    )
    return {"evolve.json": render_json(doc)}, passed


DISPATCH = {
    "spectrum": cmd_spectrum,
    "reduce": cmd_reduce,
    "eigfun": cmd_eigfun,
    "stationary": cmd_stationary,
    "verify": cmd_verify,
    "evolve": cmd_evolve,
}

COMMANDS = tuple(DISPATCH)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klform",
        description="Reductions, spectra and eigenfunctions of quadratic "
        "damped-oscillator evolution operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", help="path to a JSON run configuration")
        cmd.add_argument(
            "--preset",
            choices=sorted(DESK_PRESETS),
            help="use a named model at its reference parameters",
        )
        cmd.add_argument("--m-max", dest="m_max", type=int, help="largest mode index")
        cmd.add_argument(
            "--basis-n", dest="basis_n", type=int, help="basis size per coordinate"
        )
        cmd.add_argument("--tol", type=float, help="pass/fail tolerance")
        cmd.add_argument("--out", help="output directory")
    return parser


def run(command: str, cfg: RunConfig) -> tuple[dict, bool]:
    """Execute one subcommand; returns ({filename: text}, passed)."""
    return DISPATCH[command](cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        artifacts, passed = run(args.command, cfg)
        try:
            _write_artifacts(cfg.out, artifacts)
        except OSError as exc:
            raise ConfigError(f"cannot write to out: {exc}") from exc
    except KLFormError as exc:
        sys.stdout.write(render_json({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    except ValueError as exc:
        sys.stdout.write(render_json({"error": "ValueError", "message": str(exc)}))
        return 2
    status = "ok" if passed else "tolerance_failure"
    doc = {"status": status, "out": cfg.out, "files": sorted(artifacts)}
    sys.stdout.write(render_json(doc))
    return 0 if passed else 3


def console_main(argv=None):
    """The process entry, `python -m klform.cli` and the `klform` script:
    main, then gc.freeze() and exit with main's code.  Freezing leaves the
    interpreter's final collection no object to traverse; atexit handlers,
    the flush of stdout and stderr and the teardown of the modules still
    run, and main has written and closed every file before it returns.
    Callers in the process call main, whose heap stays collectable."""
    code = main(argv)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
