"""The calls that carry a policy are each made only where the policy allows.

- Every call of the symmetric eigen-solver goes through ``embed._eigh``,
  which raises LAPACK's failure to converge as the package's
  ``EigenSolverFailed``.  A direct ``eigh``/``eigvalsh`` call elsewhere would
  let numpy's ``LinAlgError`` escape the CLI's exit codes.
- Every floating-point error state is set by ``flagcore._quietly``, the one
  overflow policy: numpy's warnings off, and a non-finite result either
  refused with a ``NumericalError`` or left to fail its tolerance test.
- A determinant is taken only by ``flagcore._check_special_orthogonal`` and by
  ``flagcore._oriented_flag``, the one sign fix of a computed frame.
- No code calls ``np.linalg.norm``; ``flagcore._frobenius`` computes the same
  bits without its argument handling.
- The validating constructors ``SymmetricMatrix``, ``FlagPoint`` and
  ``EmbeddedFlag`` run only on input from outside the library and where the
  library cannot prove their checks; its own results are built through
  ``flagcore._prechecked``.
- Array input is tested for finiteness by ``flagcore._frozen_array``, which
  every validating constructor calls, ``Spectrum`` too, so a file reader or
  a command leaves that test to the constructor it feeds; the other
  finiteness tests are each on a value no constructor reads.
- A real number is read by one rule, ``errors._real``: the two scalar
  readers of ``errors`` and the array reader ``flagcore._float_array`` use
  it, and nothing else does.

This stdlib ``ast`` check fails on a call of one of them, or a use of
``_real``, anywhere else in ``src/isoflag/*.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isoflag"


def nodes_by_function(tree: ast.Module):
    """(enclosing function, node) for every node, the function None at module level."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield function, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def numpy_calls(tree: ast.Module):
    """(enclosing function, called name) for each call by a plain or dotted name."""
    for function, node in nodes_by_function(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name is not None:
                yield function, name


def call_sites(*names):
    """Sorted (module, enclosing function, name) of every call of one of ``names``."""
    return sorted(
        (path.stem, function, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, name in numpy_calls(ast.parse(path.read_text()))
        if name in names
    )


def test_eigen_solver_is_called_only_in_the_helper():
    assert call_sites("eigh", "eigvalsh") == [("embed", "_eigh", "eigh"), ("embed", "_eigh", "eigvalsh")]


def test_error_state_is_set_only_by_the_overflow_policy():
    assert call_sites("errstate", "seterr") == [("flagcore", "_quietly", "errstate")]


def test_linalg_norm_is_never_called():
    assert call_sites("norm") == []


def test_validating_constructors_run_only_where_a_check_can_fail():
    """The CLI's matrix files, all read by ``_matrix_and_spectrum``, and its
    ``--q-file``; the LAPACK frames of ``random_flag_point`` and ``recover``,
    both built by ``flagcore._oriented_flag``; and ``act``'s rotation, its
    product and, where that is refused, the product repaired."""
    assert call_sites("SymmetricMatrix", "FlagPoint", "EmbeddedFlag") == [
        ("cli", "_matrix_and_spectrum", "SymmetricMatrix"),
        ("cli", "cmd_embed", "FlagPoint"),
        ("embed", "act", "FlagPoint"),
        ("embed", "act", "FlagPoint"),
        ("embed", "act", "FlagPoint"),
        ("flagcore", "_oriented_flag", "FlagPoint"),
    ]


def test_orientation_is_fixed_in_one_place():
    """A determinant is taken only to check a rotation and, in
    ``_oriented_flag``, to move a computed frame onto SO(n), which
    ``random_flag_point`` and ``recover`` both call."""
    assert call_sites("det") == [
        ("flagcore", "_check_special_orthogonal", "det"),
        ("flagcore", "_oriented_flag", "det"),
    ]


def test_finiteness_is_tested_only_where_nothing_else_tests_it():
    """``_frozen_array`` for array input, a spectrum's values too, and
    ``errors._finite_factor`` for a scalar that scales a matrix;
    ``_quietly`` for a result that overflows; ``_retract_step`` for a step that
    overflowed, after projecting it failed; and ``_checked_gradient`` for the
    caller's gradient, which no constructor reads.  A file reader leaves the
    test to the constructor it feeds."""
    assert call_sites("isfinite") == [
        ("errors", "_finite_factor", "isfinite"),
        ("flagcore", "_frozen_array", "isfinite"),
        ("flagcore", "_quietly", "isfinite"),
        ("geometry", "_checked_gradient", "isfinite"),
        ("geometry", "_retract_step", "isfinite"),
    ]


def test_a_real_number_is_read_by_one_rule():
    """``_real`` reads a tolerance or a step (``_check_tolerance``), a scale
    factor (``_finite_factor``) and each object in an array
    (``_float_array``, which reads a spectrum's values too); no other code
    decides what a real number is."""
    assert sorted(
        (path.stem, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, node in nodes_by_function(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "_real" and isinstance(node.ctx, ast.Load)
    ) == [("errors", "_check_tolerance"), ("errors", "_finite_factor"), ("flagcore", "_float_array")]
