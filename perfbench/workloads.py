"""Seeded items of the three benchmark workloads and their correctness checks.

Each workload yields items in rounds, each round a seeded permutation of a
fixed set: the 100 sources of acceptance criterion 02 for generic-sweep, the
three named models (cl and hpz twice) for window-spectrum and the 6
subcommands x 4 configs for cli-batch.  The measurement loop ends only at a
round boundary, so every run times whole rounds.  Program calls go through
module attributes (``reduction.reduce_to_kl`` rather than a bound name) so
that the tracer's wrappers see them.  ``run`` is the timed part of an item and ``check``
compares its outputs with the pinned acceptance tolerances.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np

from klform import cli, gauss, operators, reduction, spectrum, verify
from tracing import NNZ

HERE = os.path.dirname(os.path.abspath(__file__))
LABELS = spectrum.distinct_labels(2)


class CheckFailed(Exception):
    """An item's output misses its acceptance tolerance."""


def scrambled_source(rng) -> operators.LiouvillianCoeffs:
    """Normal form with random (omega0, gamma, b), then 3-6 random flows."""
    omega0 = float(rng.uniform(0.5, 1.5))
    gamma = float(rng.uniform(0.05, 1.0))
    b = float(rng.uniform(0.6, 1.6))
    src = operators.kl_coefficients(omega0, gamma, b)
    for _ in range(int(rng.integers(3, 7))):
        gid = operators.GENERATOR_ORDER[rng.integers(7)]
        src = operators.conjugate_coefficients(gid, float(rng.uniform(-0.5, 0.5)), src)
    return src


# The source stream of acceptance criterion 02.  The benchmark draws from
# these 100 sources only, on all of which the program meets the pinned
# tolerances.  About 1.6% of other sources of the same distribution miss the
# 1e-7 residual in the 40x40 oracle: a known defect of the program, outside
# criterion 02, that a correctness change has to fix.
CRITERION_02_SEED = 20260816
CRITERION_02_SOURCES = 100

# The generic config of the CLI tests; every subcommand passes on it at the
# acceptance sizes (criterion-02 sources fail ``evolve`` about one time in five).
GENERIC_CONFIG = {"h": [2.2, 0.4, -0.3], "gamma": 0.5, "g": [-1.1, 0.2, 0.3]}


def closed_form_omega0(c: operators.LiouvillianCoeffs) -> float:
    h0, h1, h2 = c.h
    return 0.5 * math.sqrt(h0 * h0 - h1 * h1 - h2 * h2)


def model_coefficients(name: str) -> operators.LiouvillianCoeffs:
    build = {
        "kl": operators.kl_coefficients,
        "cl": operators.cl_coefficients,
        "hpz": operators.hpz_coefficients,
    }[name]
    return build(**cli.DESK_PRESETS[name])


class GenericSweep:
    """Criterion 02 as a library user runs it: reduce, transport, oracle check."""

    name = "generic-sweep"
    round_size = CRITERION_02_SOURCES
    min_rounds = 2
    calibration = "mix"
    trace_items = 30
    basis = 40
    residual_tol = 1e-7
    replay_tol = 1e-10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.max_residual = 0.0
        rng = np.random.default_rng(CRITERION_02_SEED)
        self._inputs = [self._prepare(scrambled_source(rng)) for _ in range(self.round_size)]

    @staticmethod
    def _prepare(src):
        """A source and the closed-form eigenvalues of the 9 labels."""
        omega0 = closed_form_omega0(src)
        return src, [spectrum.eigenvalue(lab, omega0, src.gamma) for lab in LABELS]

    def item(self, index: int):
        rnd, pos = divmod(index, self.round_size)
        source = int(np.random.default_rng([self.seed, rnd]).permutation(self.round_size)[pos])
        return f"source{source}", self._inputs[source]

    def warmup(self) -> None:
        self.run(self._inputs[0])

    def run(self, data):
        src, lams = data
        plan = reduction.reduce_to_kl(src, b_target=1.0)
        replay = plan.replay_residual(src)
        modes = [spectrum.transformed_eigenfunction(plan, lab, src) for lab in LABELS]
        cfg = verify.BasisConfig(self.basis, self.basis, modes[0].gaussian.frame())
        k_mat = verify.assemble_matrix(operators.assemble_liouvillian(src), cfg)
        residuals = []
        for mode, lam in zip(modes, lams):
            # the cached polynomial is built here so that its cost shows
            # as its own span; expand then reuses it
            mode.expanded_poly
            residuals.append(verify.residual(k_mat, verify.expand(mode, cfg), lam))
        return replay, residuals

    def check(self, data, out) -> None:
        replay, residuals = out
        self.max_residual = max(self.max_residual, *residuals)
        if not replay <= self.replay_tol:
            raise CheckFailed(f"replay residual {replay:.3e} > {self.replay_tol}")
        worst = max(residuals)
        if not worst <= self.residual_tol:
            raise CheckFailed(f"eigenfunction residual {worst:.3e} > {self.residual_tol}")

    def diagnostics(self) -> dict:
        return {"verify.max_residual": self.max_residual}


class WindowSpectrum:
    """Criterion 01 for kl, cl and hpz, plus biorthogonality of the m <= 2 modes.

    Each model runs in a basis where the dense seed has the closed-form
    count.  kl needs 32x32: at 28x28 its window shows 81 eigenvalues where
    the closed form has 78.  cl and hpz pass from 20x20 on and run at
    24x24.  A kl item takes about seven times as long as a cl or hpz one,
    so a round runs kl once and cl and hpz twice each: the median item is
    then one of the 12 cl and hpz items of three rounds, which steadies it.
    """

    name = "window-spectrum"
    models = {"kl": 32, "cl": 24, "hpz": 24}
    round_models = ("kl", "cl", "cl", "hpz", "hpz")
    round_size = len(round_models)
    min_rounds = 3
    calibration = "dense"
    trace_items = round_size
    eig_tol = 1e-6
    biorth_tol = 1e-6

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.max_err = 0.0
        self._inputs = {name: self._prepare(name, n) for name, n in self.models.items()}

    @staticmethod
    def _prepare(name: str, basis: int):
        coeffs = model_coefficients(name)
        state, _ = gauss.stationary_preset(name, **cli.DESK_PRESETS[name])
        omega0 = closed_form_omega0(coeffs)
        radius = 4.0 * max(omega0, coeffs.gamma)
        # Re(lambda) = (m - n/2) gamma >= m gamma / 2, so m_max labels suffice
        m_max = int(2.0 * radius / coeffs.gamma) + 1
        analytic = np.array(
            [
                spectrum.eigenvalue(lab, omega0, coeffs.gamma)
                for lab in spectrum.distinct_labels(m_max)
            ]
        )
        return coeffs, state, radius, basis, analytic[np.abs(analytic) <= radius]

    def item(self, index: int):
        rnd, pos = divmod(index, self.round_size)
        order = np.random.default_rng([self.seed, rnd]).permutation(self.round_size)
        name = self.round_models[order[pos]]
        return name, self._inputs[name]

    def warmup(self) -> None:
        self.run(self._inputs["hpz"])

    def run(self, data):
        coeffs, state, radius, basis, _ = data
        computed = verify.refined_window_eigenvalues(coeffs, state, basis, basis, radius)
        plan = reduction.reduce_to_kl(coeffs, b_target=1.0)
        modes = [spectrum.transformed_eigenfunction(plan, lab, coeffs) for lab in LABELS]
        cfg = verify.BasisConfig(basis, basis, modes[0].gaussian.frame())
        k_mat = verify.assemble_matrix(operators.assemble_liouvillian(coeffs), cfg)
        report = verify.biorthogonality_check(k_mat, modes, tol=self.biorth_tol)
        return computed, report.max_offdiag

    def check(self, data, out) -> None:
        analytic = data[4]
        computed, offdiag = out
        if computed.size != analytic.size:
            raise CheckFailed(
                f"{computed.size} window eigenvalues, closed form has {analytic.size}"
            )
        err = max(
            float(np.max(np.min(np.abs(analytic[None, :] - computed[:, None]), axis=1))),
            float(np.max(np.min(np.abs(computed[None, :] - analytic[:, None]), axis=1))),
        )
        self.max_err = max(self.max_err, err)
        if not err <= self.eig_tol:
            raise CheckFailed(f"window eigenvalue error {err:.3e} > {self.eig_tol}")
        if not offdiag <= self.biorth_tol:
            raise CheckFailed(f"biorthogonality off-diagonal {offdiag:.3e} > {self.biorth_tol}")

    def diagnostics(self) -> dict:
        return {"verify.window.max_err": self.max_err}


class CliBatch:
    """Every subcommand on kl, cl, hpz and one generic config.

    Each item is a fresh ``python -m klform.cli`` process, so import and
    set-up are paid per item.  The generic config is GENERIC_CONFIG at the
    acceptance sizes of criterion 02 (40x40 basis, tolerance 1e-7).  The
    first item is run once more, untimed, before the loop, so every run
    compares at least one repeated invocation byte for byte.
    """

    name = "cli-batch"
    configs = ("kl", "cl", "hpz", "generic")
    round_size = len(cli.COMMANDS) * len(configs)
    min_rounds = 2
    calibration = "mix"
    trace_items = round_size
    rate_tol = 0.01

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.max_residual = 0.0
        self.digests: dict[str, str] = {}
        self.tracer = None
        self.import_ms: list[float] = []
        self.write_ms = 0.0
        self.generic_config = os.path.join(workdir, "generic.json")
        with open(self.generic_config, "w", encoding="utf-8") as fh:
            json.dump(
                {"model": "generic", "coefficients": GENERIC_CONFIG, "basis_n": 40, "tol": 1e-7},
                fh,
            )
        self.runs = 0

    def item(self, index: int):
        rnd, pos = divmod(index, self.round_size)
        order = np.random.default_rng([self.seed, rnd]).permutation(self.round_size)
        command, config = divmod(int(order[pos]), len(self.configs))
        command, config = cli.COMMANDS[command], self.configs[config]
        source = ["--config", self.generic_config] if config == "generic" else ["--preset", config]
        return f"{command}:{config}", [command, *source]

    def warmup(self) -> None:
        # the repeated first item: its digest is what the timed copy must match
        _, argv = self.item(0)
        self.check(argv, self.run(argv))

    def attach(self, tracer) -> None:
        """Run later items under perfbench/cli_child.py and merge their spans."""
        self.tracer = tracer

    def run(self, argv):
        self.runs += 1
        out = os.path.join(self.workdir, f"out{self.runs}")
        if self.tracer is None:
            prefix = [sys.executable, "-m", "klform.cli"]
        else:
            trace_path = os.path.join(self.workdir, "child-trace.json")
            prefix = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_path, "--"]
        proc = subprocess.run(
            [*prefix, *argv, "--out", out], capture_output=True, text=True, timeout=120
        )
        if self.tracer is not None:
            with open(trace_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(trace_path)
            self.tracer.adopt(doc["spans"], self.tracer.current())
            self.tracer.counts[NNZ] += doc["nnz"]
            self.import_ms.append(doc["import_ms"])
            self.write_ms += doc["write_ms"]
        return proc, out

    def check(self, argv, out) -> None:
        proc, out_dir = out
        try:
            if proc.returncode != 0:
                raise CheckFailed(
                    f"exit {proc.returncode}: {proc.stdout[-300:]}{proc.stderr[-300:]}"
                )
            status = json.loads(proc.stdout)
            digest = hashlib.sha256()
            for name in status["files"]:
                with open(os.path.join(out_dir, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                if name == "verify.json":
                    doc = json.loads(data)
                    self.max_residual = max(self.max_residual, doc["max_residual"])
                    if doc["passed"] is not True:
                        raise CheckFailed(f"verify.json passed={doc['passed']}")
                if name == "evolve.json":
                    doc = json.loads(data)
                    if not doc["rate_rel_error"] <= self.rate_tol:
                        raise CheckFailed(f"evolve rate error {doc['rate_rel_error']:.3e}")
            key = " ".join(argv)
            first = self.digests.setdefault(key, digest.hexdigest())
            if first != digest.hexdigest():
                raise CheckFailed("repeated invocation produced different bytes")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def diagnostics(self) -> dict:
        out = {"verify.max_residual": self.max_residual, "cli.write_ms": self.write_ms}
        if self.import_ms:
            out["cli.import_ms"] = statistics.median(self.import_ms)
        return out


WORKLOADS = {w.name: w for w in (GenericSweep, WindowSpectrum, CliBatch)}
