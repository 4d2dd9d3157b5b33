"""Every name a module of the package imports is read in that module, and
numpy stays off the exact path.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library: an imported name counts as used when a load of
it appears anywhere in the module, annotations included (a string
annotation is parsed as the expression it names).  ``__init__.py`` is left
out: its imports are the package's exports.

numpy serves only the float regime, so no module imports it when the
package is imported, and exact commands run in a fresh interpreter without
ever loading it.  No module imports ``dataclasses`` either: a frozen
dataclass generates and compiles its methods at import, and the module
itself loads ``inspect``; the package's records are NamedTuples.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "cone_audit")
SOURCES = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
MODULES = [p for p in SOURCES if os.path.basename(p) != "__init__.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, ``from __future__`` left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        if annotation is not None:
            yield annotation


def _read(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, string annotations parsed."""
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {
        node.id
        for root in trees
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_read(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    read = _read(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in read)
    assert not unused, f"{os.path.basename(path)} imports names it never reads: {', '.join(unused)}"


def _imported_on_import(body):
    """Modules a block imports when it runs at import time: function bodies
    and ``if TYPE_CHECKING:`` blocks are left out, class bodies kept."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            yield from _imported_on_import(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        for block in ("body", "orelse", "finalbody", "handlers"):
            yield from _imported_on_import(getattr(node, block, []))


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_numpy_is_not_imported_at_module_level(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    numpy = [name for name in _imported_on_import(tree.body) if name.split(".")[0] == "numpy"]
    assert not numpy, f"{os.path.basename(path)} imports numpy at module level"


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_dataclasses_is_never_imported(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "dataclasses" not in {name.split(".")[0] for name in modules}, os.path.basename(path)


EXACT_PROBLEM = {
    "version": "1",
    "constraint": {"type": "polyhedron", "dimension": 2,
                   "inequalities": {"rows": [["-1", "0"], ["0", "-1"], ["1", "1"]], "bounds": ["0", "0", "1"]}},
    "objective": {"type": "quadratic", "matrix": [["1", "0"], ["0", "-1"]], "linear": ["1", "0"]},
    "query": {"regime": "exact", "point": ["0", "0"], "directions": [["0", "1"], ["1", "1/3"], ["1" + "0" * 400, "0"]],
              "z_candidates": [["1/2", "-1"]]},
}

# Runs in a fresh interpreter: argv[1] is a scratch directory, argv[2] the
# exact problem file, argv[3] a float-regime ex31 problem file.
NUMPY_PROBE = """
import contextlib, io, os, sys
from cone_audit.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

for module in ("numpy", "dataclasses", "inspect"):
    assert module not in sys.modules, f"import cone_audit.cli loaded {module}"
directory, exact, ex31 = sys.argv[1:]
for command in ("cones", "first-order", "second-order", "qp", "theorem41"):
    code, out = run(command, "--input", exact, "--format", "json")
    assert code in (0, 1), (command, code)
    report = os.path.join(directory, command + ".json")
    with open(report, "w") as handle:
        handle.write(out)
    assert run("verify", "--input", report)[0] == 0, command
    assert "numpy" not in sys.modules, f"exact {command} and its verify loaded numpy"
assert run("second-order", "--input", ex31, "--format", "json")[0] in (0, 1)
assert "numpy" in sys.modules, "a float-regime ex31 run did not load numpy"
"""


def test_exact_commands_never_load_numpy(tmp_path):
    exact = tmp_path / "exact.json"
    exact.write_text(json.dumps(EXACT_PROBLEM))
    ex31 = os.path.join(PACKAGE, "..", "..", "problems", "ex31_second_order.json")
    env = {**os.environ, "PYTHONPATH": os.path.join(PACKAGE, "..")}
    probe = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(tmp_path), str(exact), ex31],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
