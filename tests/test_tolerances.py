"""Every tolerance of the package lives in one table in ``flagcore``, and
only the three tolerances the CLI sets are parameters, with two private
ones that have no default, so every caller sets them:
``geometry._nearest_image(gap_tol)`` (``nearest_point`` passes its own,
``_retract_step`` ``SPECTRUM_GAP_TOL``) and ``embed._check_on_model(eig_tol)``
(``recover`` passes its own, ``EmbeddedFlag`` and ``_model_image``
``EIG_TOL``).

The matrix model is exact, so a tolerance only absorbs roundoff; a per-call
tolerance parameter that no caller sets is an untested configuration, and
a ``*_TOL`` constant outside ``flagcore`` is a second table.  This stdlib
``ast`` check fails on either.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isoflag"


def tolerance_names(tree: ast.Module):
    """(owner, name) for each parameter or class field whose name ends in
    ``tol``; the owner is the function or class that declares it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            yield from ((node.name, p.arg) for p in params if p.arg.lower().endswith("tol"))
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.target.id.lower().endswith("tol"):
                        yield node.name, stmt.target.id


def tol_constants(tree: ast.Module):
    """Names ending in ``_TOL`` that the module assigns."""
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for t in targets:
            if isinstance(t, ast.Name) and t.id.endswith("_TOL"):
                yield t.id


def modules():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def test_only_the_cli_tolerances_are_parameters():
    found = sorted((stem, owner, name) for stem, tree in modules() for owner, name in tolerance_names(tree))
    assert found == [
        ("embed", "_check_on_model", "eig_tol"),
        ("embed", "recover", "eig_tol"),
        ("geometry", "_nearest_image", "gap_tol"),
        ("geometry", "gradient_descent", "grad_tol"),
        ("geometry", "nearest_point", "gap_tol"),
    ]


def test_tolerance_constants_are_assigned_only_in_flagcore():
    found = sorted((stem, name) for stem, tree in modules() for name in tol_constants(tree))
    assert found, "no *_TOL constant found"
    assert {stem for stem, _ in found} == {"flagcore"}, found
