"""Every call of the symmetric eigen-solver in the package goes through
``embed._eigh``, which raises LAPACK's failure to converge as the package's
``EigenSolverFailed``.  A direct ``eigh``/``eigvalsh`` call elsewhere in
``src/isoflag/*.py`` would let numpy's ``LinAlgError`` escape the CLI's exit
codes, so this stdlib ``ast`` check fails on one.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isoflag"
SOLVERS = {"eigh", "eigvalsh"}


def solver_calls(tree: ast.Module):
    """(enclosing function, solver name) for each eigen-solver call."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SOLVERS:
                yield function, name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def test_eigen_solver_is_called_only_in_the_helper():
    calls = [
        (path.stem, function, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, name in solver_calls(ast.parse(path.read_text()))
    ]
    assert sorted(calls) == [("embed", "_eigh", "eigh"), ("embed", "_eigh", "eigvalsh")]
