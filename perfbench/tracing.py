"""In-memory span tracer that wraps klform functions at module boundaries.

A traced function is replaced under the name its callers look up: every
``klform`` module attribute bound to the original function object is
swapped for the wrapper, so ``klform.spectrum.conjugate_linear`` and
``klform.verify.splu`` are traced where the package calls them, not only
where they are defined.  Spans are ``[name, start, end, parent]`` rows kept
in a list; ``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# metric name -> attribute path below the klform package
LAYERS = {
    "reduction.reduce_to_kl": "reduction.reduce_to_kl",
    "operators.conjugate_coefficients": "operators.conjugate_coefficients",
    "operators.assemble_liouvillian": "operators.assemble_liouvillian",
    "operators.conjugate_linear": "operators.conjugate_linear",
    "gauss.apply_plan_gaussian": "gauss.apply_plan_gaussian",
    "spectrum.transformed_eigenfunction": "spectrum.transformed_eigenfunction",
    "spectrum.pi_polynomial": "spectrum.pi_polynomial",
    "spectrum.expanded_poly": "spectrum.AppliedEigenfunction.expanded_poly",
    "verify.assemble_matrix": "verify.assemble_matrix",
    "verify.expand": "verify.expand",
    "verify.residual": "verify.residual",
    "verify.evolve_series": "verify.evolve_series",
    "verify.trace_and_hermiticity": "verify.trace_and_hermiticity",
    "verify.eigenvalues_in_window": "verify.eigenvalues_in_window",
    "verify.refined_window_eigenvalues": "verify.refined_window_eigenvalues",
    "verify.stationary_similarity": "verify.stationary_similarity",
    "verify.biorthogonality_check": "verify.biorthogonality_check",
    "verify.splu": "verify.splu",
    "cli.run": "cli.run",
    "cli.render_json": "cli.render_json",
}

NNZ = "verify.assemble_matrix.nnz"


class Tracer:
    """Records spans for wrapped functions and harness-level sections."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {NNZ: 0}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self.current()])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        """Index of the innermost open span, -1 outside any span."""
        return self._stack[-1] if self._stack else -1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "verify.assemble_matrix":
                self.counts[NNZ] += int(out.matrix.nnz)
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer in LAYERS; klform must already be imported."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "klform" or key.startswith("klform."))
        ]
        for name, path in LAYERS.items():
            *owner_path, attr = path.split(".")
            owner = sys.modules["klform." + owner_path[0]]
            for part in owner_path[1:]:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self.wrap(name, original.func))
                replacement.__set_name__(owner, attr)
                self._swap(owner, attr, replacement)
                continue
            replacement = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._swap(mod, attr, replacement)

    def _swap(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded in a child process under span `parent`."""
        base = len(self.spans)
        for name, start, end, par in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par])


def layer_totals(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self time in ms).

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the traced code is serial.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        calls, self_ms = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, self_ms + 1000.0 * (end - start - child[i]))
    return totals
