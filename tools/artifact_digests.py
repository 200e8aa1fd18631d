"""Exit code and sha256 of stdout plus artifacts for a fixed set of CLI runs.

Runs `klform.cli.main` in-process for the six subcommands on nine sources:
the kl, cl and hpz presets, the generic config of the cli-batch benchmark
(40x40 basis, tolerance 1e-7), a second generic source whose transported
Gaussian has a large phase kappa (draw 432 of the criterion-02 recipe at
seed 630948696, same basis and tolerance), and two cl and two hpz configs
away from the preset values.  `eigfun` runs at the label (2, 0, +1) on cl-b, at (3, 2, -1)
on hpz-b and at the default (1, 1, +1) on the others.  Each run starts in a
fresh directory with the relative output directory `out`, so the printed
JSON depends only on the exit codes, stdout and artifact bytes.  klform is imported from PYTHONPATH, which makes
two checkouts comparable:

    PYTHONPATH=src python3 tools/artifact_digests.py > new.json
    PYTHONPATH=/path/to/other/checkout/src python3 tools/artifact_digests.py > old.json
    diff old.json new.json
"""

import contextlib
import hashlib
import io
import json
import os
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
}


def digest(command: str, source) -> dict:
    """Run one subcommand in a fresh directory; hash stdout and every artifact."""
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
        finally:
            os.chdir(cwd)
    return {"exit": code, "sha256": sha.hexdigest()}


def main() -> int:
    print(f"klform from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    runs = {
        f"{command}:{name}": digest(command, source)
        for name, source in SOURCES.items()
        for command in cli.COMMANDS
    }
    print(json.dumps(runs, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
