"""klform benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

Run from the root of a source checkout (it imports ``src/klform``):

    python3 perfbench/run.py --workload generic-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table
    python3 perfbench/run.py --smoke                        # a few items per workload
    python3 -m pytest perfbench                              # the harness's own tests

Workloads (see perfbench/README.md for why each exists and which metric a
layer should move):

    generic-sweep    reduce -> transport -> 40x40 oracle check of criterion-02 sources
    window-spectrum  refined window eigenvalues + biorthogonality, kl/cl/hpz
    cli-batch        6 subcommands x {kl, cl, hpz, generic}, one process each

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (fresh
interpreter to ready, median of five set-ups), ``items_per_s``,
``item_p50_ms`` and ``peak_rss_mb``; ``item_p90_ms`` is printed but not
gated.  With ``--trace 1`` they are the per-layer spans and counts.  Failed
items are reported as ``failed`` out of ``attempted`` (their ratio is
fail_frac).  The last stdout line is one JSON object; the full report, with
the environment, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("generic-sweep", "window-spectrum", "cli-batch")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# per-layer metric units; every other per-layer metric is a span's calls/self_ms
UNITS = {
    "calls": "count",
    "self_ms": "ms",
    "nnz": "count",
    "transport_per_plan": "ratio",
    "import_ms": "ms",
    "write_ms": "ms",
    "max_residual": "1",
    "max_err": "1",
    "items_per_s_delta": "1/s",
}


def is_count(name: str) -> bool:
    """Per-layer counts, which must repeat exactly for one seed and item list."""
    return name.endswith((".calls", ".nnz", ".transport_per_plan"))


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: with the default two on a shared 2-core host the same
    # item took 16-145 ms instead of 10-19 ms, and runs switched between a
    # fast and a slow mode, so no run-to-run comparison held.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    paths = [os.path.join(ROOT, "src"), HERE]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; returns (seconds to its ``ready`` line, final stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
        start_new_session=True,  # so that a stuck CLI child is killed with it
    )
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise HarnessError(f"worker did not get ready: {line!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError("worker exceeded the run deadline") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, lines[-1] if lines else ""


def run_workload(name: str, seed: int, seconds: float, trace: int, items: int | None) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker([*common, "--setup-only"], deadline)[0])
        extra = ["--seconds", str(seconds), "--trace", str(trace)]
        if items is not None:
            extra += ["--items", str(items)]
        ready_s, last = run_worker([*common, *extra], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = json.loads(last)
    setups.append(ready_s)
    report["end_to_end"]["setup_s"] = statistics.median(setups)
    report["setup_samples_s"] = setups
    report.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in report["per_layer"].items()}
    else:
        metrics = {
            k: {"value": report["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()
        }
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_table(reports: list[dict]) -> None:
    for rep in reports:
        e2e = rep["end_to_end"]
        print(
            f"{rep['workload']:16s} "
            + "  ".join(f"{k} {e2e[k]:.4g} {u}" for k, u in END_TO_END.items())
            + f"  item_p90_ms {e2e['item_p90_ms']:.4g} ms"
            + f"  fail_frac {rep['failed'] / rep['attempted']:.4g} "
            f"({rep['failed']}/{rep['attempted']})"
        )
        for failure in rep["failures"]:
            print(f"  FAIL {failure}")
        for key, value in rep.get("per_layer", {}).items():
            print(f"  {key} {value:.6g} {unit_of(key)}")
    print("environment " + json.dumps(reports[0]["environment"]))


def smoke() -> int:
    """A few items per workload, traced twice; the counts must repeat exactly."""
    problems = []
    for name, items in (("generic-sweep", 3), ("window-spectrum", 1), ("cli-batch", 3)):
        # seed 0 starts window-spectrum with cl, one of the cheap models
        first, second = (run_workload(name, 0, 0.0, 1, items) for _ in range(2))
        print_table([first])
        for key, value in first["per_layer"].items():
            if is_count(key) and second["per_layer"][key] != value:
                problems.append(
                    f"harness bug, {name} {key} read {value} then {second['per_layer'][key]}"
                )
        if first["failed"] or second["failed"]:
            problems.append(f"{name}: {first['failed'] + second['failed']} failed items")
    for problem in problems:
        print(f"SMOKE {problem}")
    print("SMOKE " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few items per workload")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "klform", "__init__.py")):
        print("perfbench: src/klform not found; run from a klform checkout", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")
    try:
        if args.smoke:
            return smoke()
        if args.workload != "all":
            report = run_workload(args.workload, args.seed, args.seconds, args.trace, None)
            print_table([report])
            print(json.dumps(result_line(report)))
            return 0
        reports = [
            run_workload(name, args.seed, args.seconds, args.trace, None) for name in WORKLOADS
        ]
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_table(reports)
    lines = [result_line(rep) for rep in reports]
    print(
        json.dumps(
            {
                "correct": all(line["correct"] for line in lines),
                "attempted": sum(line["attempted"] for line in lines),
                "failed": sum(line["failed"] for line in lines),
                "metrics": {
                    f"{rep['workload']}.{k}": v
                    for rep, line in zip(reports, lines)
                    for k, v in line["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
