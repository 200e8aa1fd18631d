"""One measuring process of the benchmark; started by run.py, never by hand.

The worker sets up (imports klform and, for the library workloads, runs one
untimed warm-up item), prints ``ready`` so that the parent can time set-up
from process start, then runs items one at a time until ``--seconds`` have
passed, and at least ``min_rounds`` rounds, at a round boundary.  With
``--trace 1`` it then replays the first ``trace_items`` items under the span
tracer.  The last stdout line is a JSON report; run.py turns it into the
result line.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAL_SHARE = 0.05  # share of a run spent calibrating


def ready() -> None:
    print("ready", flush=True)


def calibrate() -> float:
    """Seconds taken by a fixed mix of Python and LAPACK work: the host's speed.

    The garbage collector is off while it runs, so that the time does not
    depend on how many objects the workload keeps alive.
    """
    import numpy

    matrix = numpy.random.default_rng(0).standard_normal((96, 96))
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        table: dict = {}
        for i in range(8000):
            table[(i, i + 1)] = table.get((i - 1, i), 0.0) + 1.5
        numpy.linalg.eigvals(matrix)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def calibrate_dense() -> float:
    """Seconds taken by one complex 160x160 eigen-solve: the host's speed for
    dense linear algebra.

    The window items follow this one more closely than the mix: over one
    minute on one host the coefficient of variation of a cl item was 10%
    raw, 14% over the mix and 6% over this.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    matrix = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    t0 = time.perf_counter()
    numpy.linalg.eigvals(matrix)
    return time.perf_counter() - t0


# calibration of each kind, and its time on the reference host the figures refer to
CALIBRATIONS = {"mix": (calibrate, 0.010), "dense": (calibrate_dense, 0.035)}


def measure(wl, seconds: float, min_items: int, max_items: int | None, tracer=None):
    """Run items from index 0.

    Returns ([(label, latency s, normalized latency s)], failure messages).
    Between items the workload's calibration loop runs whenever its total
    time is below CAL_SHARE of the elapsed time, and once more at the end.
    An item's normalized latency is its latency times the loop's reference
    time over the mean of the median loop times of the calibrations just
    before and just after it.
    """
    from workloads import CheckFailed

    raw: list[tuple[str, float, int]] = []
    cal: list[float] = []  # median loop time of each gap that calibrated
    failures: list[str] = []
    cal_loop, cal_ref_s = CALIBRATIONS[wl.calibration]
    cal_loop()  # the first LAPACK call of a process is slow; not a sample
    start = time.perf_counter()
    cal_total = 0.0

    def calibrate_gap(at_least_once: bool) -> None:
        nonlocal cal_total
        loops = []
        while (at_least_once and not loops) or cal_total <= CAL_SHARE * (
            time.perf_counter() - start
        ):
            loops.append(cal_loop())
            cal_total += loops[-1]
        if loops:
            cal.append(statistics.median(loops))

    index = 0
    while True:
        calibrate_gap(at_least_once=False)
        label, data = wl.item(index)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(data)
            else:
                with tracer.span("item"):
                    out = wl.run(data)
        except Exception as exc:  # a failed item is counted, the run goes on
            raw.append((label, time.perf_counter() - t0, len(cal) - 1))
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            raw.append((label, time.perf_counter() - t0, len(cal) - 1))
            try:
                wl.check(data, out)
            except CheckFailed as exc:
                failures.append(f"{label}: {exc}")
        index += 1
        if max_items is not None and index >= max_items:
            break
        if (
            index % wl.round_size == 0
            and index >= min_items
            and time.perf_counter() - start >= seconds
        ):
            break
    calibrate_gap(at_least_once=True)
    samples = [
        (label, t, t * cal_ref_s / (0.5 * (cal[b] + cal[b + 1]))) for label, t, b in raw
    ]
    return samples, failures


def end_to_end(samples: list[tuple[str, float, float]], rss_kb: int) -> dict:
    """Throughput and latency quantiles, normalized to the reference host speed.

    The shared host's speed drifted by up to 1.5x over tens of seconds, so
    raw figures moved by 10-45% between runs; the calibration loop follows
    that drift, and the normalized figures moved by a few percent.  The raw
    ones are reported alongside.
    """
    out = {}
    for prefix, col in (("", 2), ("raw_", 1)):
        ms = [1000.0 * s[col] for s in samples]
        out[prefix + "items_per_s"] = 1000.0 * len(ms) / sum(ms)
        out[prefix + "item_p50_ms"] = statistics.median(ms)
        out[prefix + "item_p90_ms"] = (
            statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
        )
    out["peak_rss_mb"] = rss_kb / 1024.0
    return out


def per_layer(tracer, wl, untraced: list[tuple], traced: list[tuple]) -> dict:
    from tracing import LAYERS, NNZ, layer_totals

    totals = layer_totals(tracer.spans)
    out = {}
    for name in LAYERS:
        calls, self_ms = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = self_ms
    plans = out["reduction.reduce_to_kl.calls"]
    out["spectrum.transport_per_plan"] = (
        out["gauss.apply_plan_gaussian.calls"] / plans if plans else 0.0
    )
    out[NNZ] = tracer.counts[NNZ]
    for name in ("cli.import_ms", "cli.write_ms", "verify.max_residual", "verify.window.max_err"):
        out[name] = 0.0
    out.update(wl.diagnostics())
    n = len(traced)
    out["trace.items_per_s_delta"] = n / sum(s[2] for s in traced) - n / sum(
        s[2] for s in untraced[:n]
    )
    return out


def blas_threads() -> int | None:
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--items", type=int, default=None)
    args = parser.parse_args()
    # one CPU for the worker and its CLI children, so that the calibration
    # loop measures the speed of the CPU the items run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload == "cli-batch":
        import klform.cli  # noqa: F401  (set-up of cli-batch is this import)

        ready()
        if args.setup_only:
            return 0
    from klform import FrameMismatch
    from workloads import WORKLOADS

    # criterion 02 expands modes outside their own frame on purpose
    warnings.simplefilter("ignore", FrameMismatch)
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.warmup()
    if args.workload != "cli-batch":
        ready()
        if args.setup_only:
            return 0

    n_trace = wl.trace_items if args.items is None else min(wl.trace_items, args.items)
    samples, failures = measure(
        wl, args.seconds, max(wl.min_rounds * wl.round_size, n_trace), args.items
    )
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" else resource.RUSAGE_SELF
    report = {
        "attempted": len(samples),
        "end_to_end": end_to_end(samples, resource.getrusage(usage).ru_maxrss),
        "environment": environment(),
    }
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        if args.workload == "cli-batch":
            wl.attach(tracer)
        tracer.install()
        try:
            traced, traced_failures = measure(wl, 0.0, n_trace, n_trace, tracer)
        finally:
            tracer.uninstall()
        report["attempted"] += len(traced)
        failures += traced_failures
        report["per_layer"] = per_layer(tracer, wl, samples, traced)
        spans_path = os.path.join(
            ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json"
        )
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    report["failed"] = len(failures)
    report["failures"] = failures[:20]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
