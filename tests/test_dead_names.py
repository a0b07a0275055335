"""Every name the package defines is reached from outside the tests of it.

The project ships no linter, so these stdlib ``ast`` checks stand in for the
unused-name part of one.  A ``_private`` function, class or assignment at
module level in ``src/isoflag/*.py`` that no module of the package loads,
by name or as an attribute, is dead code.  A public name, one that
``isoflag/__init__`` imports, stays only while another module of the
package, the benchmark in ``bench/`` or the acceptance suite loads it: a
name that only its own tests reach checks no claim of the paper.  The same
holds for each method and property of a class that ``isoflag/__init__``
exports.
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


def public_names():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]


def outside_readers():
    """The package's other modules, ``bench/`` and the acceptance suite, parsed."""
    paths = [p for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    paths += [*(ROOT / "bench").rglob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    return [ast.parse(path.read_text()) for path in paths]


def test_every_public_name_is_reached():
    public = public_names()
    used = {name for tree in outside_readers() for name in loaded_names(tree)}
    assert public and [name for name in public if name not in used] == []


def test_every_method_of_a_public_class_is_reached():
    """Each method, property or classmethod, dunders aside, defined in the body
    of an exported class is read as an attribute, ``obj.name``, from outside
    the tests; a plain name such as a local ``m`` does not reach a method."""
    public = set(public_names())
    classes = [
        node
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name in public
    ]
    methods = [
        (cls.name, node.name)
        for cls in classes
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__")
    ]
    used = {node.attr for tree in outside_readers() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert methods
    assert [f"{c}.{name}" for c, name in methods if name not in used] == []
