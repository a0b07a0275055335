"""``bounds`` and ``repdim`` compute in exact integers: neither imports
numpy or calls ``float``, so no floating-point value can reach the module
dimensions and bounds they report.  This stdlib ``ast`` check fails on
either.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isoflag"


def floating_point_uses(tree: ast.Module):
    """Each numpy import and each ``float(...)`` call, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            yield node.lineno, "float()"
            continue
        else:
            continue
        yield from ((node.lineno, m) for m in modules if m.split(".")[0] == "numpy")


@pytest.mark.parametrize("module", ["bounds", "repdim"])
def test_integer_layer_uses_no_floating_point(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert list(floating_point_uses(tree)) == []
