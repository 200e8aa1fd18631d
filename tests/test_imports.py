"""scipy is loaded only by the code that calls it.

The closed-form layers and the Hermite-basis oracle run on numpy alone, so
`import klform.cli` and every subcommand start and run without scipy; the
sparse LU of `biorthogonality_check` and the oracle
`adjoint_conjugate_coefficients` import it inside the functions that use it.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "klform"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _import_time_scipy_imports(body):
    """Line numbers of scipy imports that run when the module is imported.

    Function bodies run later and `if TYPE_CHECKING:` blocks never run;
    every other block, class bodies included, runs at import.
    """
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _import_time_scipy_imports(node.orelse)
            continue
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "scipy" for alias in node.names
        ):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            yield node.lineno
        for field in ("body", "orelse", "finalbody"):
            yield from _import_time_scipy_imports(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _import_time_scipy_imports(handler.body)


def test_no_module_level_scipy_import():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _import_time_scipy_imports(ast.parse(path.read_text()).body)
    ]
    assert not found, "scipy imported at module level: " + ", ".join(found)


def test_import_check_sees_nested_and_exempt_blocks():
    source = (
        "import numpy\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import scipy.sparse\n"
        "else:\n"
        "    from scipy import linalg\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    from scipy.sparse import linalg\n"
        "def f():\n"
        "    import scipy.sparse\n"
    )
    assert list(_import_time_scipy_imports(ast.parse(source).body)) == [6, 8, 12]


# Runs CLI commands in one fresh interpreter, in order, and reports the
# scipy modules loaded after the import and after each command.
_PROBE = """
import json, sys
import klform.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    report[name] = [klform.cli.main(argv), loaded()]
print(json.dumps(report))
"""


def _probe(runs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_closed_form_subcommands_run_without_scipy(tmp_path):
    commands = ("spectrum", "reduce", "stationary", "eigfun", "verify", "evolve")
    report = _probe([[c, [c, "--preset", "kl", "--out", str(tmp_path)]] for c in commands])
    assert report["import"] == []
    for command in commands:
        assert report[command] == [0, []], command


def test_transport_runs_without_scipy(tmp_path):
    """Transporting modes through a plan is closed form on every model, and
    the oracle behind verify and evolve is numpy only."""
    config = tmp_path / "generic.json"
    config.write_text(
        json.dumps(
            {
                "model": "generic",
                "coefficients": {"h": [2.2, 0.4, -0.3], "gamma": 0.5, "g": [-1.1, 0.2, 0.3]},
                "basis_n": 24,
            }
        )
    )
    sources = {
        "cl": ["--preset", "cl"],
        "hpz": ["--preset", "hpz"],
        "generic": ["--config", str(config)],
    }
    runs = [[f"eigfun:{name}", ["eigfun", *args]] for name, args in sources.items()]
    runs += [[f"{c}:generic", [c, *sources["generic"]]] for c in ("stationary", "verify", "evolve")]
    report = _probe([[name, [*argv, "--out", str(tmp_path / "out")]] for name, argv in runs])
    for name, _ in runs:
        assert report[name] == [0, []], name
