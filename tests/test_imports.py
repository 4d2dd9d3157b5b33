"""Every name a module of the package imports is read in that module, and
the package never imports numpy.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library: an imported name counts as used when a load of
it appears anywhere in the module, annotations included (a string
annotation is parsed as the expression it names).  ``__init__.py`` is left
out: its imports are the package's exports.

Across the package, every private name a module defines at its top level
is read somewhere in ``src/``: a helper only tests call is dead code.  And
every field of a NamedTuple the package defines is read as an attribute
somewhere in ``src/``, ``tests/`` or ``clibench/``.

The float regime computes on tuples of Python floats and ``math``, so no
module imports numpy anywhere, and every command, exact or float, runs in a
fresh interpreter without loading it; tests and the benchmark keep numpy for
their oracles.  No module imports ``dataclasses`` either: a frozen dataclass
generates and compiles its methods at import, and the module itself loads
``inspect``; the package's records are NamedTuples.
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


def _private_definitions(tree: ast.Module):
    """(name, line) of each private function, class or constant the module
    binds at its top level; dunder names are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_definition_is_read_in_the_package():
    """A private helper that only tests call is dead code of the package."""
    trees = {}
    for path in SOURCES:
        with open(path, encoding="utf-8") as handle:
            trees[os.path.basename(path)] = ast.parse(handle.read(), filename=path)
    read = set().union(*map(_read, trees.values()))
    unread = sorted(
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in read
    )
    assert not unread, f"private names the package never reads: {', '.join(unread)}"


def _namedtuple_fields(tree: ast.Module):
    """(class, field) of each field a ``NamedTuple`` class of the module declares."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                    yield node.name, statement.target.id


def test_every_namedtuple_field_is_read():
    """Every field of a record the package defines is read as an attribute
    somewhere in ``src/``, ``tests/`` or ``clibench/``: a field nothing reads
    is dead data that every construction still has to fill."""
    root = os.path.join(PACKAGE, "..", "..")
    trees = {}
    for path in SOURCES + glob.glob(os.path.join(root, "tests", "*.py")) + glob.glob(os.path.join(root, "clibench", "*.py")):
        with open(path, encoding="utf-8") as handle:
            trees[path] = ast.parse(handle.read(), filename=path)
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{os.path.basename(path)}: {cls}.{field}"
        for path in SOURCES
        for cls, field in _namedtuple_fields(trees[path])
        if field not in read
    )
    assert not unread, f"record fields nothing reads: {', '.join(unread)}"


def _top_level_modules(path) -> set[str]:
    """The top-level package of every module an ``Import``/``ImportFrom``
    node anywhere in the file names: function bodies and ``if
    TYPE_CHECKING:`` blocks included."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    return {name.split(".")[0] for name in modules}


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_numpy_is_not_imported_at_module_level(path):
    """Nor anywhere else: numpy is not a runtime dependency."""
    assert "numpy" not in _top_level_modules(path), f"{os.path.basename(path)} imports numpy"


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_dataclasses_is_never_imported(path):
    assert "dataclasses" not in _top_level_modules(path), os.path.basename(path)


EXACT_PROBLEM = {
    "version": "1",
    "constraint": {"type": "polyhedron", "dimension": 2,
                   "inequalities": {"rows": [["-1", "0"], ["0", "-1"], ["1", "1"]], "bounds": ["0", "0", "1"]}},
    "objective": {"type": "quadratic", "matrix": [["1", "0"], ["0", "-1"]], "linear": ["1", "0"]},
    "query": {"regime": "exact", "point": ["0", "0"], "directions": [["0", "1"], ["1", "1/3"], ["1" + "0" * 400, "0"]],
              "z_candidates": [["1/2", "-1"]]},
}

# Runs in a fresh interpreter: argv[1] is a scratch directory, argv[2] the
# exact problem file, argv[3] and argv[4] the shipped float-regime ex31 and
# ex41 problem files.
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
directory, exact, ex31, ex41 = sys.argv[1:]
runs = [(exact, command) for command in ("cones", "first-order", "second-order", "qp", "theorem41")]
for problem, command in runs + [(ex31, "second-order"), (ex41, "ssd"), (ex41, "theorem41")]:
    code, out = run(command, "--input", problem, "--format", "json")
    assert code in (0, 1), (problem, command, code)
    report = os.path.join(directory, command + ".json")
    with open(report, "w") as handle:
        handle.write(out)
    assert run("verify", "--input", report)[0] == 0, (problem, command)
    assert "numpy" not in sys.modules, f"{command} on {problem} and its verify loaded numpy"
"""


def test_exact_commands_never_load_numpy(tmp_path):
    exact = tmp_path / "exact.json"
    exact.write_text(json.dumps(EXACT_PROBLEM))
    problems = os.path.join(PACKAGE, "..", "..", "problems")
    float_problems = [os.path.join(problems, name) for name in ("ex31_second_order.json", "ex41_theorem41.json")]
    env = {**os.environ, "PYTHONPATH": os.path.join(PACKAGE, "..")}
    probe = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(tmp_path), str(exact), *float_problems],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
