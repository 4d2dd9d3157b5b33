"""Every name a module of the package imports is read in that module.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library: an imported name counts as used when a load of
it appears anywhere in the module, annotations included (a string
annotation is parsed as the expression it names).  ``__init__.py`` is left
out: its imports are the package's exports.
"""

import ast
import glob
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "cone_audit")
MODULES = sorted(p for p in glob.glob(os.path.join(PACKAGE, "*.py")) if os.path.basename(p) != "__init__.py")


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
