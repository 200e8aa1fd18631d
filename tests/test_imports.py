"""scipy is loaded only by the code that calls it.

The closed-form layers run on numpy alone, so `import klform.cli` and the
subcommands built on them start without scipy; the oracle and the
matrix-exponential routes import it inside the functions that use it.
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


# Runs subcommands in one fresh interpreter and reports the scipy modules
# loaded after the import and after each step.
_PROBE = """
import json, sys
import klform.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"import": loaded()}
for command in sys.argv[2:]:
    code = klform.cli.main([command, "--preset", "kl", "--out", sys.argv[1]])
    report[command] = [code, loaded()]
print(json.dumps(report))
"""


def _probe(tmp_path, *commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path), *commands],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_closed_form_subcommands_run_without_scipy(tmp_path):
    report = _probe(tmp_path, "spectrum", "reduce", "stationary", "eigfun", "verify")
    assert report["import"] == []
    for command in ("spectrum", "reduce", "stationary", "eigfun"):
        assert report[command] == [0, []], command
    code, after_verify = report["verify"]
    assert code == 0
    assert "scipy.sparse" in after_verify
