"""``bounds`` and ``repdim`` compute in exact integers: neither imports
numpy or calls ``float``, so no floating-point value can reach the module
dimensions and bounds they report.  This stdlib ``ast`` check fails on
either.  Their functions refuse a non-integer argument rather than compute
with it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from isoflag import (
    fundamental_weight,
    gunther_bound,
    isospectral_bound,
    single_row_dim,
    spin_dimension,
    traceless_sym_dim,
    wang_bound,
    whitney_bound,
)
from isoflag.errors import NotAnInteger

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


@pytest.mark.parametrize("call, args", [
    (spin_dimension, (7.5,)),
    (spin_dimension, (float("nan"),)),
    (spin_dimension, ("7",)),
    (traceless_sym_dim, (7.5,)),
    (isospectral_bound, (2.5,)),
    (gunther_bound, (1.5,)),
    (whitney_bound, (1.5,)),
    (wang_bound, (2, 1.5)),
    (single_row_dim, (7, 1.5)),
    (fundamental_weight, (7.5, 1)),
    (fundamental_weight, (7, 1.5)),
])
def test_non_integer_argument_raises_not_an_integer(call, args):
    with pytest.raises(NotAnInteger, match=r" must be an integer, got (float|str)$"):
        call(*args)


def test_numpy_integer_arguments_pass():
    assert spin_dimension(np.int64(9)) == 16
    assert wang_bound(np.int32(2), np.uint8(3)) == 6
    assert fundamental_weight(np.int64(7), np.int64(1)).doubled == (2, 0, 0)
