"""Best-of-k per-call times of the oracle's layers, as JSON.

For each source, in the frame of the stationary Gaussian that its
reduction plan transports, on an n x n basis, it times:

- assemble_matrix: the Liouvillian's matrix;
- expand: the coefficient vector of one of the 9 modes m <= 2 (the mean
  over the 9);
- residual: one of those vectors' residuals (the mean over the 9);
- eigenvalues_in_window: the window at radius 4 max(omega0, gamma);
- biorthogonality_check: the pairing of the 9 modes;
- product: the matrix times a seeded vector with no zero entry, every row;
- evolve_series: the evolution `klform evolve` runs, from the stationary
  state plus 0.2 times the unit mode (1, 0, +1), over 81 times up to
  10/gamma, on the presets only (it overflows on some criterion-02
  sources).

The sources are the kl, cl and hpz presets, at the basis sizes of
perfbench's window-spectrum workload (32, 24 and 24), and the 100 sources
of acceptance criterion 02 (tools/oracle_digests.py draws them), at the
40 of its generic-sweep workload; `--n` sets one size for all.  Each
figure is the least over `--repeat` timings of `--number` calls each,
after one untimed call, in microseconds per call; `median_us` is the
median of each layer over the criterion-02 sources timed.  Next to each
figure, `minor_faults` holds the minor page faults per call over all its
timed calls (getrusage's ru_minflt): a figure whose calls fault, as when
the allocator hands back and re-maps a large temporary on every call,
times the allocator's state, not the layer.  klform is imported from
PYTHONPATH, so the figures of two checkouts can be taken in alternating
processes on one machine:

    PYTHONPATH=src python3 tools/layer_times.py > new.json
    PYTHONPATH=/path/to/other/checkout/src python3 tools/layer_times.py > old.json

Pin the process to one CPU and one BLAS thread (taskset,
OPENBLAS_NUM_THREADS=1) for figures that compare; on a shared host read
them as proportions.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import klform  # noqa: E402
from klform import verify  # noqa: E402

from oracle_digests import all_sources, evolve_start  # noqa: E402

LAYERS = (
    "assemble_matrix",
    "expand",
    "residual",
    "eigenvalues_in_window",
    "biorthogonality_check",
    "product",
    "evolve_series",
)
PRESET_SIZES = {"kl": 32, "cl": 24, "hpz": 24}
CRITERION_02_SIZE = 40


def layer_calls(src, n: int, evolve: bool) -> dict:
    """{layer: (a call of no arguments that runs it `per` times, per)} for one
    source on an n x n basis in its stationary frame; evolve_series only
    when `evolve` is true."""
    plan = klform.reduce_to_kl(src, b_target=1.0)
    state, _ = plan.transport(src)
    modes = [klform.transformed_eigenfunction(plan, lab, src) for lab in klform.distinct_labels(2)]
    h0, h1, h2 = src.h
    radius = 4.0 * max(0.5 * math.sqrt(h0 * h0 - h1 * h1 - h2 * h2), src.gamma)
    op = klform.assemble_liouvillian(src)
    cfg = verify.BasisConfig(n, n, state.frame())
    k_mat = verify.assemble_matrix(op, cfg)
    vecs = [verify.expand(mode, cfg) for mode in modes]
    rng = np.random.default_rng(n)
    dense = rng.uniform(0.5, 1.0, cfg.dim) + 1j * rng.uniform(0.5, 1.0, cfg.dim)
    calls = {
        "assemble_matrix": (lambda: verify.assemble_matrix(op, cfg), 1),
        "expand": (lambda: [verify.expand(mode, cfg) for mode in modes], len(modes)),
        "residual": (
            lambda: [verify.residual(k_mat, v, m.eigenvalue) for v, m in zip(vecs, modes)],
            len(modes),
        ),
        "eigenvalues_in_window": (lambda: verify.eigenvalues_in_window(k_mat, radius), 1),
        "biorthogonality_check": (lambda: verify.biorthogonality_check(k_mat, modes), 1),
        "product": (lambda: k_mat.matrix @ dense, 1),
    }
    if evolve:
        f0, times = evolve_start(plan, state, src, cfg)
        calls["evolve_series"] = (lambda: verify.evolve_series(k_mat, f0, times), 1)
    return calls


def best_time_us(call, per: int, repeat: int, number: int) -> tuple[float, float]:
    """The least over `repeat` timings of `number` calls, per layer call, in
    us, and the minor page faults per layer call over all of them."""
    call()
    best = math.inf
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    calls = repeat * number * per
    return best / (number * per) * 1e6, faults / calls


def layer_times(sources: dict, sizes: dict, repeat: int, number: int) -> tuple[dict, dict]:
    """{source: {"n": n, layer: us per call}} for the sources given, and
    {source: {layer: minor page faults per call}}."""
    times, faults = {}, {}
    for name, src in sources.items():
        calls = layer_calls(src, sizes[name], evolve=name in PRESET_SIZES)
        times[name], faults[name] = {"n": sizes[name]}, {}
        for layer in LAYERS:
            if layer in calls:
                call, per = calls[layer]
                times[name][layer], faults[name][layer] = best_time_us(call, per, repeat, number)
    return times, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sources", nargs="+", help="names: kl, cl, hpz, c02-<i> (default: all)")
    parser.add_argument("--n", type=int, help="basis size for every source")
    parser.add_argument("--repeat", type=int, default=7, help="timings per figure (default 7)")
    parser.add_argument("--number", type=int, default=20, help="calls per timing (default 20)")
    args = parser.parse_args(argv)
    sources = all_sources()
    unknown = sorted(set(args.sources or ()) - set(sources))
    if unknown:
        parser.error(f"unknown sources {unknown}")
    if args.sources:
        sources = {name: sources[name] for name in args.sources}
    sizes = {name: args.n or PRESET_SIZES.get(name, CRITERION_02_SIZE) for name in sources}
    times, faults = layer_times(sources, sizes, args.repeat, args.number)
    generic = [row for name, row in times.items() if name not in PRESET_SIZES]
    doc = {
        "klform": os.path.dirname(klform.__file__),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "repeat": args.repeat,
        "number": args.number,
        "times_us": times,
        "minor_faults": faults,
        "median_us": {
            layer: statistics.median(row[layer] for row in generic)
            for layer in LAYERS
            if generic and layer in generic[0]
        },
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
