"""The package runs on numpy alone.

No module of `src/klform` imports scipy, and `import klform.cli`, every
subcommand and `biorthogonality_check` start and run in a fresh
interpreter without loading it.  scipy serves only the tests' oracles.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "klform"


def _scipy_imports(body, scope="<module>"):
    """(enclosing function, line number) of every scipy import.

    Every block is searched, function bodies and `if TYPE_CHECKING:`
    blocks included; a class body keeps the scope around it.
    """
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scipy_imports(node.body, node.name)
            continue
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "scipy" for alias in node.names
        ):
            yield scope, node.lineno
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            yield scope, node.lineno
        for field in ("body", "orelse", "finalbody"):
            yield from _scipy_imports(getattr(node, field, []), scope)
        for handler in getattr(node, "handlers", []):
            yield from _scipy_imports(handler.body, scope)


def test_no_scipy_import():
    found = [
        (path.name, scope, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, line in _scipy_imports(ast.parse(path.read_text()).body)
    ]
    assert found == [], f"scipy imported at {found}"


def _unbounded_caches(tree):
    """(function, line number) of every functools.cache and of every
    lru_cache that does not state a finite maxsize, however it is spelt."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "cache":
                yield node.name, dec.lineno
            elif name == "lru_cache":
                # a bare @lru_cache or lru_cache() keeps 128 entries but states no bound
                sizes = []
                if call:
                    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                if not sizes or (isinstance(sizes[0], ast.Constant) and sizes[0].value is None):
                    yield node.name, dec.lineno


def test_no_unbounded_cache():
    found = [
        (path.name, name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _unbounded_caches(ast.parse(path.read_text()))
    ]
    assert found == [], f"unbounded caches at {found}"


def test_cache_check_sees_every_spelling():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(n): pass\n"
        "@functools.lru_cache\n"
        "def b(n): pass\n"
        "@lru_cache()\n"
        "def c(n): pass\n"
        "@functools.cache\n"
        "def d(n): pass\n"
        "class A:\n"
        "    @cache\n"
        "    def e(self): pass\n"
        "@lru_cache(None)\n"
        "def f(n): pass\n"
        "@lru_cache(maxsize=_SIZE)\n"
        "def g(n): pass\n"
        "@functools.lru_cache(16)\n"
        "def h(n): pass\n"
    )
    assert sorted(_unbounded_caches(ast.parse(source))) == [
        ("a", 3),
        ("b", 5),
        ("c", 7),
        ("d", 9),
        ("e", 12),
        ("f", 14),
    ]


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
        "    def g(self):\n"
        "        import scipy.linalg\n"
        "def f():\n"
        "    import scipy.sparse\n"
    )
    assert list(_scipy_imports(ast.parse(source).body)) == [
        ("<module>", 4),
        ("<module>", 6),
        ("<module>", 8),
        ("<module>", 12),
        ("g", 14),
        ("f", 16),
    ]


def _unused_imports(tree):
    """(name, line number) of every name an import binds, at any depth, that
    the module never references and does not list in its `__all__`.

    `import a.b` binds `a`, `import a as b` and `from m import a as b` bind
    `b`; `from __future__` imports and star imports bind nothing checked.
    """
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return [(name, line) for name, line in bound if name not in used]


# (module, name) imported on purpose and never referenced: the benchmark's
# tracer test (perfbench/test_perfbench.py) looks conjugate_linear up on
# spectrum, which no longer calls it since the plan transports its pair
_KEPT_UNUSED = {("spectrum.py", "conjugate_linear")}


def test_no_unused_import():
    """Every name a module of the package imports is referenced there, or
    re-exported: by `__init__.py`, whose imports are the package's names, or
    through the module's `__all__`."""
    found = [
        (path.name, name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name, line in _unused_imports(ast.parse(path.read_text()))
        if (path.name, name) not in _KEPT_UNUSED
    ]
    assert found == [], f"unused imports at {found}"


def test_unused_import_check_sees_every_spelling():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "import json as js\n"
        "from math import pi, tau as two_pi\n"
        "from .errors import KLFormError, LabelError\n"
        "from . import gauss\n"
        "__all__ = ['LabelError']\n"
        "def f(x: KLFormError):\n"
        "    import sys\n"
        "    from re import compile\n"
        "    return np.sin(x) + pi + sys.maxsize\n"
    )
    assert sorted(_unused_imports(ast.parse(source))) == [
        ("compile", 12),
        ("gauss", 8),
        ("js", 5),
        ("os", 2),
        ("os", 3),
        ("two_pi", 6),
    ]


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


# Runs biorthogonality_check on the m <= 2 modes of the kl preset at 32x32
# in a fresh interpreter and reports the scipy modules loaded.
_BIORTH_PROBE = """
import json, sys
from klform import (BasisConfig, assemble_liouvillian, assemble_matrix,
    biorthogonality_check, distinct_labels, kl_coefficients, kl_eigenfunction,
    stationary_preset)

_, frame = stationary_preset("kl", b=1.0)
cfg = BasisConfig(32, 32, frame)
k_mat = assemble_matrix(assemble_liouvillian(kl_coefficients(1.0, 0.3, 1.0)), cfg)
modes = [kl_eigenfunction(lab, 1.0, 1.0, 0.3) for lab in distinct_labels(2)]
report = biorthogonality_check(k_mat, modes)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps([report.passed, loaded]))
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _probe(runs):
    return _run(_PROBE, json.dumps(runs))


def test_biorthogonality_check_runs_without_scipy():
    assert _run(_BIORTH_PROBE) == [True, []]


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
