"""``bounds`` and ``repdim`` compute in exact integers: neither imports
numpy or calls ``float``, so no floating-point value can reach the module
dimensions and bounds they report.  This stdlib ``ast`` check fails on
either.  Their functions, and the integer parameters (seeds, iteration
counts) of ``flagcore``, ``embed`` and ``geometry``, refuse a non-integer
argument rather than compute with it, and each integer's range is checked
once, by ``errors._at_least``.
"""

import ast
import collections.abc
import importlib
import inspect
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from isoflag import (
    bounds,
    default_traceless_spectrum,
    embed,
    flagcore,
    fundamental_weight,
    geometry,
    gunther_bound,
    identity_flag,
    isospectral_bound,
    make_signature,
    parse_weight,
    repdim,
    single_row_dim,
    spin_dimension,
    traceless_sym_dim,
    wang_bound,
    whitney_bound,
)
from isoflag.errors import IsoflagError, NotAnInteger, ValidationError

embed_module = importlib.import_module("isoflag.embed")  # ``isoflag.embed`` is the function

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
    (parse_weight, ("7", "1")),
    (parse_weight, (7.5, "1")),
])
def test_non_integer_argument_raises_not_an_integer(call, args):
    with pytest.raises(NotAnInteger, match=r" must be an integer, got (float|str)$"):
        call(*args)


def test_numpy_integer_arguments_pass():
    assert spin_dimension(np.int64(9)) == 16
    assert wang_bound(np.int32(2), np.uint8(3)) == 6
    assert fundamental_weight(np.int64(7), np.int64(1)).doubled == (2, 0, 0)


@pytest.mark.parametrize("n", [-5, 0, 1])
def test_traceless_sym_dim_refuses_n_below_2(n):
    with pytest.raises(ValidationError) as err:
        traceless_sym_dim(n)
    assert (type(err.value), str(err.value)) == (ValidationError, f"need n >= 2, got {n}")


SIG = make_signature(4, [1, 3])
SPEC = default_traceless_spectrum(SIG)
TARGET = np.diag([3.0, 1.0, 0.5, -2.0])


def toward_target(x):
    """The Euclidean gradient of half the squared distance to ``TARGET``."""
    return x - TARGET


# One valid call of every function the generated test covers, sized small:
# n <= 40, and max_dim at most the bound (n-1)(n+2)/2.
VALID_CALLS = {
    bounds.gunther_bound: {"m": 5},
    bounds.isospectral_bound: {"n": 7},
    bounds.whitney_bound: {"m": 5},
    bounds.wang_bound: {"d": 10, "group_order": 3},
    bounds.bound_table: {"sig": make_signature(7, [2, 4]), "group_order": 3},
    bounds.all_signatures: {"n": 5},
    repdim.parse_weight: {"n": 8, "text": "1,1"},
    repdim.fundamental_weight: {"n": 8, "i": 2},
    repdim.spin_dimension: {"n": 9},
    repdim.single_row_dim: {"n": 9, "s": 3},
    repdim.enumerate_low_dim: {"n": 9, "max_dim": 44},
    repdim.traceless_sym_dim: {"n": 9},
    repdim.verify_classification: {"n": 17},
    flagcore.make_signature: {"n": 7, "ks": [2, 4]},
    flagcore.random_flag_point: {"sig": SIG, "seed": 3},
    flagcore.random_tangent_block: {"sig": SIG, "seed": 3},
    geometry.gradient_descent: {"objective_grad": toward_target, "spec": SPEC,
                                "init": embed(identity_flag(SIG), SPEC), "max_iters": 3},
}

# The results that compare by identity (``eq=False`` dataclasses), as the
# array that holds their value.
BY_VALUE = {
    flagcore.random_flag_point: lambda f: f.q.tolist(),
    flagcore.random_tangent_block: lambda b: b.matrix.tolist(),
    geometry.gradient_descent: lambda r: r.point.x.entries.tolist(),
}

# The integer parameters that have no lower bound: below any sensible
# value they give a correct, empty, result.
EMPTY_BELOW_RANGE = {
    (repdim.enumerate_low_dim, "max_dim"): lambda report: report.hits == (),
    (bounds.all_signatures, "n"): lambda signatures: signatures == [],
}


def integer_parameters(f):
    """The parameters of ``f`` annotated as an int, an optional int, or an
    iterable of ints."""
    for p in inspect.signature(f, eval_str=True).parameters.values():
        a = p.annotation
        if a in (int, int | None) or (
                typing.get_origin(a) is collections.abc.Iterable and typing.get_args(a) == (int,)):
            yield p.name


def integer_functions():
    """Every public function of ``bounds``, ``repdim``, ``flagcore``,
    ``embed`` and ``geometry`` that takes an integer."""
    for module in (bounds, repdim, flagcore, embed_module, geometry):
        for name, f in vars(module).items():
            if (inspect.isfunction(f) and f.__module__ == module.__name__
                    and not name.startswith("_") and any(integer_parameters(f))):
                yield f


def call(f, kwargs):
    result = f(**kwargs)
    if f in BY_VALUE:
        return BY_VALUE[f](result)
    return list(result) if isinstance(result, collections.abc.Iterator) else result


def with_value(f, param, value):
    """The valid call of ``f`` with ``param`` set to ``value`` (for an
    iterable of ints, its first entry)."""
    kwargs = dict(VALID_CALLS[f])
    old = kwargs[param]
    kwargs[param] = [value, *old[1:]] if isinstance(old, list) else value
    return kwargs


CASES = [pytest.param(f, param, id=f"{f.__name__}-{param}")
         for f in integer_functions() for param in integer_parameters(f)]


def test_every_case_is_covered():
    assert {case.values[0] for case in CASES} == set(VALID_CALLS)


@pytest.mark.parametrize("f, param", CASES)
@pytest.mark.parametrize("value", [7.5, float("nan"), "7"], ids=["float", "nan", "str"])
def test_non_integer_is_refused(f, param, value):
    with pytest.raises(NotAnInteger):
        call(f, with_value(f, param, value))


@pytest.mark.parametrize("f, param", CASES)
def test_numpy_integer_gives_the_same_result(f, param):
    old = VALID_CALLS[f][param]
    value = np.int64(old[0] if isinstance(old, list) else old)
    assert call(f, with_value(f, param, value)) == call(f, VALID_CALLS[f])


@pytest.mark.parametrize("f, param", CASES)
def test_value_below_range_is_refused(f, param):
    empty = EMPTY_BELOW_RANGE.get((f, param))
    try:
        result = call(f, with_value(f, param, -1))
    except IsoflagError:
        assert empty is None
    else:
        assert empty is not None and empty(result)


RANGE_REFUSAL = re.compile(r"^need .+ >= .+, got \{\}")


def range_refusals(tree: ast.Module):
    """The name of each function that raises an error whose message reads
    ``need ... >= ..., got {value}``."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                message = node.exc.args[0]
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                template = "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in parts)
                if RANGE_REFUSAL.match(template):
                    yield func.name


def test_range_checks_are_written_once():
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in range_refusals(ast.parse(path.read_text()))}
    assert found == {("errors", "_at_least"), ("bounds", "wang_bound")}
