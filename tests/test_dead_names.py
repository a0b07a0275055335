"""Every name the package defines is reached from outside the tests of it.

The project ships no linter, so these stdlib ``ast`` checks stand in for the
unused-name part of one.  A ``_private`` function, class or assignment at
module level in ``src/isoflag/*.py`` that no module of the package loads,
by name or as an attribute, is dead code.  A public name, one that
``isoflag/__init__`` imports, stays only while another module of the
package, the benchmark in ``bench/`` or the acceptance suite loads it: a
name that only its own tests reach checks no claim of the paper.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "isoflag"


def private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def loaded_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_module_name_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in loaded_names(tree)}
    dead = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in private_definitions(tree)
        if name not in used
    ]
    assert dead == []


def test_every_public_name_is_reached():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    public = [a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    readers = [p for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    readers += [*(ROOT / "bench").rglob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = {name for path in readers for name in loaded_names(ast.parse(path.read_text()))}
    assert public and [name for name in public if name not in used] == []
