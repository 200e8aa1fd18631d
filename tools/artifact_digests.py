"""Exit code and sha256 of stdout plus artifacts for a fixed set of CLI runs.

Runs `klform.cli.main` in-process for the six subcommands on ten sources:
the kl, cl and hpz presets, the generic config of the cli-batch benchmark
(40x40 basis, tolerance 1e-7), a second generic source whose transported
Gaussian has a large phase kappa (draw 432 of the criterion-02 recipe at
seed 630948696, same basis and tolerance), two cl and two hpz configs away
from the preset values, and the kl preset as a config with a label.
`eigfun` runs at the label (2, 0, +1) on cl-b, at (3, 2, -1) on hpz-b, at
(5, 2, +1) on kl-b, whose eigenpolynomial is the first to hold terms that
cancel exactly, and at the default (1, 1, +1) on the others.  Each run
starts in a fresh directory with the relative output directory `out`, so
the printed JSON depends only on the exit codes, stdout and artifact
bytes.  klform is imported from PYTHONPATH, which makes two checkouts
comparable:

    PYTHONPATH=src python3 tools/artifact_digests.py > new.json
    PYTHONPATH=/path/to/other/checkout/src python3 tools/artifact_digests.py > old.json
    diff old.json new.json

`--dump DIR` also writes each run's exit code, stdout and artifacts to
DIR/<command>:<source>/, and `--compare OLD NEW` reads two dumps and
prints, per run, whether its files are identical and otherwise the largest
absolute difference between their numbers, `n/a` when the only files that
differ changed their count of numbers.  It flags a run whose exit
code, file set or count of numbers per file changed, and then exits 1:

    PYTHONPATH=/path/to/other/checkout/src python3 tools/artifact_digests.py --dump old > /dev/null
    PYTHONPATH=src python3 tools/artifact_digests.py --dump new > /dev/null
    PYTHONPATH=src python3 tools/artifact_digests.py --compare old new
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile

from klform import cli

SOURCES = {
    "kl": ["--preset", "kl"],
    "cl": ["--preset", "cl"],
    "hpz": ["--preset", "hpz"],
    "generic": {
        "model": "generic",
        "coefficients": {"h": [2.2, 0.4, -0.3], "gamma": 0.5, "g": [-1.1, 0.2, 0.3]},
        "basis_n": 40,
        "tol": 1e-7,
    },
    "generic-b": {
        "model": "generic",
        "coefficients": {
            "h": [1.9109153716086482, 0.0, -1.0290809590950434],
            "gamma": 0.9831829473770743,
            "g": [-1.8696805952981936, 0.8812674395635763, 1.525608071675152],
        },
        "basis_n": 40,
        "tol": 1e-7,
    },
    "cl-a": {"model": "cl", "preset": {"omega0_prime": 1.3, "gamma": 0.5, "b_cl": 0.8}},
    "cl-b": {
        "model": "cl",
        "preset": {"omega0_prime": 0.9, "gamma": 0.4, "b_cl": 1.7},
        "b_target": 1.5,
        "label": [2, 0, 1],
    },
    "hpz-a": {
        "model": "hpz",
        "preset": {"omega0_prime": 1.2, "gamma": 0.5, "b_hpz": 0.9, "d": 0.3},
    },
    "hpz-b": {
        "model": "hpz",
        "preset": {"omega0_prime": 0.8, "gamma": 0.3, "b_hpz": 1.4, "d": -0.1},
        "m_max": 3,
        "label": [3, 2, -1],
    },
    "kl-b": {"model": "kl", "preset": dict(cli.DESK_PRESETS["kl"]), "label": [5, 2, 1]},
}


def digest(command: str, source, dump=None) -> dict:
    """Run one subcommand in a fresh directory; hash stdout and every artifact.

    With `dump`, a directory, the exit code, stdout and artifacts go there too.
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            if isinstance(source, dict):
                with open("config.json", "w", encoding="utf-8") as fh:
                    json.dump(source, fh)
                source = ["--config", "config.json"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([command, *source, "--out", "out"])
            sha = hashlib.sha256(stdout.getvalue().encode())
            names = sorted(os.listdir("out")) if os.path.isdir("out") else []
            for name in names:
                with open(os.path.join("out", name), "rb") as fh:
                    sha.update(name.encode() + b"\0" + fh.read())
            if dump is not None:
                os.makedirs(os.path.join(dump, "out"))
                for name in names:
                    shutil.copy(os.path.join("out", name), os.path.join(dump, "out", name))
                with open(os.path.join(dump, "exit"), "w", encoding="utf-8") as fh:
                    fh.write(f"{code}\n")
                with open(os.path.join(dump, "stdout"), "w", encoding="utf-8") as fh:
                    fh.write(stdout.getvalue())
        finally:
            os.chdir(cwd)
    return {"exit": code, "sha256": sha.hexdigest()}


# a decimal number, inf or nan standing alone, so not the 0 of "omega0"
_NUMBER = re.compile(r"(?<![\w.])-?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def _read_run(path: str):
    """(exit code, {file: text}) of one dumped run; stdout counts as a file."""
    files = {"stdout": os.path.join(path, "stdout")}
    for name in os.listdir(os.path.join(path, "out")):
        files[f"out/{name}"] = os.path.join(path, "out", name)
    texts = {}
    for name, file in files.items():
        with open(file, encoding="utf-8") as fh:
            texts[name] = fh.read()
    with open(os.path.join(path, "exit"), encoding="utf-8") as fh:
        return int(fh.read()), texts


def _difference(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a - b) else math.inf


def compare(old: str, new: str) -> int:
    """Print one line per run of two dumps; 1 if any run changed shape."""
    changed = False
    for run in sorted(set(os.listdir(old)) | set(os.listdir(new))):
        if not (os.path.isdir(os.path.join(old, run)) and os.path.isdir(os.path.join(new, run))):
            print(f"{run}  FLAG: only in one dump")
            changed = True
            continue
        code_a, files_a = _read_run(os.path.join(old, run))
        code_b, files_b = _read_run(os.path.join(new, run))
        flags = []
        if code_a != code_b:
            flags.append(f"exit {code_a} -> {code_b}")
        if set(files_a) != set(files_b):
            flags.append(f"files {sorted(files_a)} -> {sorted(files_b)}")
        worst, uncounted = 0.0, False
        for name in sorted(set(files_a) & set(files_b)):
            a, b = ([float(x) for x in _NUMBER.findall(f[name])] for f in (files_a, files_b))
            if len(a) != len(b):
                flags.append(f"{name}: {len(a)} -> {len(b)} numbers")
                uncounted = True
                continue
            worst = max([worst, *(_difference(x, y) for x, y in zip(a, b))])
        changed = changed or bool(flags)
        # a file whose count changed has no difference to report: 0 would claim one
        diff = "n/a" if uncounted and worst == 0.0 else f"{worst:.3g}"
        state = "identical" if files_a == files_b else f"moved, max_abs_diff {diff}"
        print(f"{run}  exit {code_b}  {state}" + "".join(f"  FLAG: {f}" for f in flags))
    return 1 if changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--dump", metavar="DIR", help="also write each run's files to DIR")
    group.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two dumps")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    print(f"klform from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    runs = {}
    for name, source in SOURCES.items():
        for command in cli.COMMANDS:
            run = f"{command}:{name}"
            dump = os.path.join(os.path.abspath(args.dump), run) if args.dump else None
            runs[run] = digest(command, source, dump)
    print(json.dumps(runs, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
