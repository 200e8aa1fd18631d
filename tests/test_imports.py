"""The package runs on numpy alone, and its closed forms on the standard library.

No module of `src/klform` imports scipy, and `import klform.cli`, every
subcommand and `biorthogonality_check` start and run in a fresh
interpreter without loading it.  scipy serves only the tests' oracles.
Neither do the CLI's import and subcommands load `fractions` or
`decimal`, which only positivity_window's exact arithmetic needs and
which would add their import time to every process.  numpy is loaded by
the oracle and by the subcommands that evaluate on arrays, not by
`import klform.cli` nor by the subcommands that only read closed forms.
The package's names are one list: its modules' `__all__` and the typed
errors.
"""

import ast
import collections
import json
import os
import pathlib
import subprocess
import sys
import types

import klform
from klform import errors, gauss, operators, reduction, spectrum, verify

from test_cli import GENERIC, UNREDUCIBLE

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "klform"
PERFBENCH = PACKAGE.parents[1] / "perfbench"


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
    lru_cache whose maxsize is not a named constant, however it is spelt:
    no bound, None, or a bare number that says nothing of what it counts."""
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
                if not sizes or not isinstance(sizes[0], ast.Name):
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
        ("h", 18),
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


def test_package_names_are_the_modules_all_and_the_typed_errors():
    """`klform` exports exactly the names its five modules list in `__all__`
    and the KLFormError classes of `errors`: one list of public names.  Read
    through dir() and getattr, which also see the names `klform` serves
    from its lazily bound `verify`."""
    public = {
        name
        for name in dir(klform)
        if not name.startswith("_") and not isinstance(getattr(klform, name), types.ModuleType)
    }
    listed = set().union(*(m.__all__ for m in (gauss, operators, reduction, spectrum, verify)))
    typed = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.KLFormError)
    }
    assert public == listed | typed
    assert len(public) == 54


# Runs CLI commands in one fresh interpreter, in order, and reports the
# scipy, fractions and decimal modules loaded and whether numpy is, after
# the import and after each command, with each command's exit code and
# printed JSON.
_PROBE = """
import contextlib, io, json, sys
import klform.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "fractions", "decimal"))

report = {"import": [loaded(), "numpy" in sys.modules]}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = klform.cli.main(argv)
    report[name] = [code, loaded(), "numpy" in sys.modules, json.loads(out.getvalue())]
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


def _python(*args):
    """`python *args` with src on PYTHONPATH; raises on a nonzero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )


def _run(script, *args):
    """The JSON on the last line that `python -c script *args` prints."""
    return json.loads(_python("-c", script, *args).stdout.splitlines()[-1])


def _probe(runs):
    return _run(_PROBE, json.dumps(runs))


def test_biorthogonality_check_runs_without_scipy():
    assert _run(_BIORTH_PROBE) == [True, []]


def test_closed_form_subcommands_run_without_scipy(tmp_path):
    """The first three read closed forms only; eigfun samples its grid with
    numpy, and verify and evolve run the oracle."""
    commands = ("spectrum", "reduce", "stationary", "eigfun", "verify", "evolve")
    report = _probe([[c, [c, "--preset", "kl", "--out", str(tmp_path)]] for c in commands])
    assert report["import"] == [[], False]
    for command in commands:
        assert report[command][:3] == [0, [], command in ("eigfun", "verify", "evolve")], command


def test_transport_runs_without_scipy(tmp_path):
    """Transporting modes through a plan is closed form on every model, and
    the oracle behind verify and evolve is numpy only."""
    config = tmp_path / "generic.json"
    config.write_text(json.dumps({**GENERIC, "basis_n": 24}))
    sources = {
        "cl": ["--preset", "cl"],
        "hpz": ["--preset", "hpz"],
        "generic": ["--config", str(config)],
    }
    runs = [[f"eigfun:{name}", ["eigfun", *args]] for name, args in sources.items()]
    runs += [[f"{c}:generic", [c, *sources["generic"]]] for c in ("stationary", "verify", "evolve")]
    report = _probe([[name, [*argv, "--out", str(tmp_path / "out")]] for name, argv in runs])
    for name, _ in runs:
        assert report[name][:2] == [0, []], name


def test_closed_form_subcommands_run_without_numpy(tmp_path):
    """reduce and spectrum on every model, and stationary on the presets,
    compute closed forms: step 2's solve included, they load no numpy.
    stationary on a generic source transports the raising pair, whose
    certificate [K, B1] = lambda_1 B1 needs numpy's exponentials, and on
    the h ~ 1e64 source that certificate still stops it."""
    generic = tmp_path / "generic.json"
    generic.write_text(json.dumps(GENERIC))
    _, h, gamma, g, b_target, _ = UNREDUCIBLE["non-commuting-pair"]
    pair = tmp_path / "pair.json"
    pair.write_text(
        json.dumps(
            {
                "model": "generic",
                "coefficients": {"h": h, "gamma": gamma, "g": g},
                "b_target": b_target,
            }
        )
    )
    sources = {
        "kl": ["--preset", "kl"],
        "cl": ["--preset", "cl"],
        "hpz": ["--preset", "hpz"],
        "generic": ["--config", str(generic)],
    }
    runs = [[f"{c}:{name}", [c, *args]] for c in ("reduce", "spectrum") for name, args in sources.items()]
    runs += [[f"stationary:{name}", ["stationary", *sources[name]]] for name in ("kl", "cl", "hpz")]
    closed = [name for name, _ in runs]
    runs += [["stationary:generic", ["stationary", *sources["generic"]]]]
    runs += [["stationary:pair", ["stationary", "--config", str(pair)]]]
    report = _probe([[name, [*argv, "--out", str(tmp_path / "out")]] for name, argv in runs])
    for name in closed:
        assert report[name][:3] == [0, [], False], name
    assert report["stationary:generic"][:3] == [0, [], True]
    code, _, _, printed = report["stationary:pair"]
    assert code == 2 and printed["error"] == "IllConditionedReduction"
    assert "transported raising pair misses [K, B]" in printed["message"]


# perfbench's span tracer wraps each layer it names through
# sys.modules["klform.<module>"], so every such module is bound by the
# import, the lazily bound verify included, before any of them runs.
_LAYER_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import LAYERS
import klform.cli

modules = sorted({"klform." + path.split(".")[0] for path in LAYERS.values()})
print(json.dumps([[m for m in modules if m not in sys.modules], "numpy" in sys.modules]))
"""


def test_the_tracers_modules_are_bound_by_the_import_without_numpy():
    assert _run(_LAYER_PROBE, str(PERFBENCH)) == [[], False]


# span name -> count of the traced cli-batch items below, as before verify
# was bound lazily
_TRACED = {
    "reduce": {"cli.render_json": 2, "cli.run": 1, "reduction.reduce_to_kl": 1},
    "verify": {
        "cli.render_json": 2,
        "cli.run": 1,
        "gauss.apply_plan_gaussian": 9,
        "operators.assemble_liouvillian": 1,
        "operators.conjugate_coefficients": 7,
        "operators.conjugate_linear": 10,
        "reduction.reduce_to_kl": 1,
        "spectrum.transformed_eigenfunction": 9,
        "verify.assemble_matrix": 1,
        "verify.expand": 9,
        "verify.residual": 9,
        "verify.trace_and_hermiticity": 1,
    },
}


def test_the_traced_cli_items_keep_their_spans(tmp_path):
    """perfbench/cli_child.py installs the tracer after `import klform.cli`
    and runs one subcommand: reduce on kl, and verify on the cli-batch
    generic config (40x40, tolerance 1e-7), trace the same spans as they
    did when verify was imported eagerly."""
    generic = tmp_path / "generic.json"
    generic.write_text(json.dumps({**GENERIC, "basis_n": 40, "tol": 1e-7}))
    argvs = {
        "reduce": ["reduce", "--preset", "kl"],
        "verify": ["verify", "--config", str(generic)],
    }
    for name, argv in argvs.items():
        trace = tmp_path / f"{name}.json"
        child = [str(PERFBENCH / "cli_child.py"), str(trace), "--", *argv]
        _python(*child, "--out", str(tmp_path / "out"))
        spans = json.loads(trace.read_text())["spans"]
        assert collections.Counter(span[0] for span in spans) == _TRACED[name], name
