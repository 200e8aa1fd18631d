"""Per-process wall times of the klform CLI, split by stage, as JSON.

Each of the six subcommands runs on the kl, cl and hpz presets and on the
generic config of the cli-batch benchmark (40x40 basis, tolerance 1e-7),
one fresh process per run, as `python -m klform.cli` runs it: the child
imports `klform.cli`, then executes the body of that module's
`if __name__ == "__main__":` block in the module's namespace, with its
`main` wrapped to take a time stamp when it returns.  Each run's wall time
is split into three stages:

- startup_ms: from just before the parent starts the process to the end of
  `import klform.cli` in the child (interpreter start-up and imports);
- main_ms: `main`, from that import to its return;
- tail_ms: from `main`'s return to the end of the process as the parent
  sees it (what the `__main__` block does after main, then the
  interpreter's shutdown: atexit handlers, the final collection, the
  teardown of the modules).

The child writes its two stamps with `time.perf_counter`, which is
CLOCK_MONOTONIC on Linux, a clock the parent reads too.  Each figure is the
median over `--repeat` runs; `sum_ms` adds an entry's medians over the
runs timed.  `--src` names one or more directories to put on PYTHONPATH,
each holding a `klform` package; the runs of a repeat take them in turn,
and the order flips from one repeat to the next, so the figures of two
checkouts come from alternating processes on one machine:

    python3 tools/cli_times.py --src /path/to/other/checkout/src src > times.json

Every run starts in a fresh directory with the relative output directory
`out`; a run that does not exit 0, or that writes other bytes (stdout and
artifacts) than the first run of its command and config, stops the tool.
Pin it to one CPU and one BLAS thread (taskset, OPENBLAS_NUM_THREADS=1)
for figures that compare; on a shared host read them as proportions.
"""

import argparse
import ast
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

COMMANDS = ("spectrum", "reduce", "eigfun", "stationary", "verify", "evolve")
GENERIC = {
    "model": "generic",
    "coefficients": {"h": [2.2, 0.4, -0.3], "gamma": 0.5, "g": [-1.1, 0.2, 0.3]},
    "basis_n": 40,
    "tol": 1e-7,
}
CONFIGS = ("kl", "cl", "hpz", "generic")
STAGES = ("startup_ms", "main_ms", "tail_ms")

# argv: stamp file, the __main__ block's source, then the CLI's arguments
CHILD = """\
import os, sys, time
fd, block = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT), sys.argv[2]
sys.argv = ["klform", *sys.argv[3:]]
import klform.cli as cli
imported = time.perf_counter()
main = cli.main
def stamped(argv=None):
    code = main(argv)
    os.write(fd, f"{imported!r} {time.perf_counter()!r}".encode())
    return code
cli.main = stamped
exec(block, vars(cli))
"""


def main_block(src: str) -> str:
    """The source of the body of klform/cli.py's `__main__` block under src."""
    tree = ast.parse(pathlib.Path(src, "klform", "cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            return "\n".join(ast.unparse(stmt) for stmt in node.body)
    raise SystemExit(f"no __main__ block in {src}/klform/cli.py")


def run_once(src: str, block: str, argv: list, workdir: str) -> tuple[dict, str]:
    """One process in a fresh directory under workdir: its stage times and
    the sha256 of its stdout and artifacts."""
    cwd = tempfile.mkdtemp(dir=workdir)
    stamps = os.path.join(cwd, "stamps")
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, stamps, block, *argv, "--out", "out"],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=300,
    )
    end = time.perf_counter()
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {' '.join(argv)} exited {proc.returncode}: {proc.stdout!r} {proc.stderr!r}")
    with open(stamps, encoding="ascii") as fh:
        imported, returned = map(float, fh.read().split())
    digest = hashlib.sha256(proc.stdout)
    out = pathlib.Path(cwd, "out")
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    times = {
        "startup_ms": 1e3 * (imported - start),
        "main_ms": 1e3 * (returned - imported),
        "tail_ms": 1e3 * (end - returned),
    }
    return times, digest.hexdigest()


def cli_times(blocks: dict, items: dict, repeat: int) -> dict:
    """{src: {item: [stage times of each run]}} for blocks {src: its
    __main__ block}, the runs of a repeat alternating over the srcs."""
    srcs = list(blocks)
    runs = {src: {item: [] for item in items} for src in srcs}
    digests = {}
    with tempfile.TemporaryDirectory() as workdir:
        generic = os.path.join(workdir, "generic.json")
        with open(generic, "w", encoding="utf-8") as fh:
            json.dump(GENERIC, fh)
        for r in range(repeat):
            for item, (command, config) in items.items():
                source = ["--config", generic] if config == "generic" else ["--preset", config]
                for src in srcs if r % 2 == 0 else srcs[::-1]:
                    times, digest = run_once(src, blocks[src], [command, *source], workdir)
                    if digests.setdefault(item, digest) != digest:
                        raise SystemExit(f"{src}: {item} wrote other bytes than its first run")
                    runs[src][item].append(times)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", nargs="+", default=["src"], help="PYTHONPATH of each side (default: src)")
    parser.add_argument("--commands", nargs="+", choices=COMMANDS, default=COMMANDS)
    parser.add_argument("--configs", nargs="+", choices=CONFIGS, default=CONFIGS)
    parser.add_argument("--repeat", type=int, default=7, help="runs per figure (default 7)")
    args = parser.parse_args(argv)
    blocks = {src: main_block(src) for src in map(os.path.abspath, args.src)}
    items = {f"{c}:{s}": (c, s) for c in args.commands for s in args.configs}
    runs = cli_times(blocks, items, args.repeat)
    times = {
        src: {
            item: {stage: statistics.median(t[stage] for t in rows) for stage in STAGES}
            for item, rows in by_item.items()
        }
        for src, by_item in runs.items()
    }
    doc = {
        "python": platform.python_version(),
        "clock": time.get_clock_info("perf_counter").implementation,
        "repeat": args.repeat,
        "main_block": blocks,
        "times_ms": times,
        "sum_ms": {
            src: {stage: sum(row[stage] for row in by_item.values()) for stage in STAGES}
            for src, by_item in times.items()
        },
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
