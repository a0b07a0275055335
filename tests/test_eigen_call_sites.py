"""The calls that carry a policy are each made only where the policy allows.

- Every call of the symmetric eigen-solver goes through ``embed._eigh``,
  which raises LAPACK's failure to converge as the package's
  ``EigenSolverFailed``.  A direct ``eigh``/``eigvalsh`` call elsewhere would
  let numpy's ``LinAlgError`` escape the CLI's exit codes.
- Every floating-point error state is set by ``flagcore._quietly``, the one
  overflow policy: numpy's warnings off, and a non-finite result either
  refused with a ``NumericalError`` or left to fail its tolerance test.
- A determinant is taken only by ``flagcore._orthogonal_det``, the one rotation
  check, which ``FlagPoint`` runs on caller input and ``flagcore._oriented_flag``
  on every frame the library computes.
- No code calls ``np.linalg.norm``; ``flagcore._frobenius`` computes the same
  bits without its argument handling.
- The validating constructors ``SymmetricMatrix``, ``FlagPoint`` and
  ``EmbeddedFlag`` run only on input from outside the library; its own
  results are built through ``flagcore._prechecked``, after
  ``_oriented_flag``'s check where the library cannot prove one.
- Array input is tested for finiteness by ``flagcore._frozen_array``, which
  every validating constructor calls, ``Spectrum`` too, so a file reader or
  a command leaves that test to the constructor it feeds; the other
  finiteness tests are each on a value no constructor reads.
- A real number is read by one rule, ``errors._real``: the two scalar
  readers of ``errors`` and the array reader ``flagcore._float_array`` use
  it, and nothing else does.

This stdlib ``ast`` check fails on a call of one of them, or a use of
``_real``, anywhere else in ``src/isoflag/*.py``.  A method is named with its
class, as ``FlagPoint.__post_init__``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isoflag"


def nodes_by_function(tree: ast.Module):
    """(enclosing function, node) for every node, the function None at module level
    and a method named with its class."""

    def visit(node, function, cls=None):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, cls = node.name if cls is None else f"{cls}.{node.name}", None
        yield function, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function, cls)

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


def test_validating_constructors_run_only_on_caller_input():
    """The CLI's matrix files, all read by ``_matrix_and_spectrum``, its
    ``--q-file`` and ``act``'s rotation.  The frames the library computes, of
    ``random_flag_point``, ``recover`` and ``act``'s product, are checked by
    ``flagcore._oriented_flag`` and built through ``_prechecked``."""
    assert call_sites("SymmetricMatrix", "FlagPoint", "EmbeddedFlag") == [
        ("cli", "_matrix_and_spectrum", "SymmetricMatrix"),
        ("cli", "cmd_embed", "FlagPoint"),
        ("embed", "act", "FlagPoint"),
    ]


def test_a_determinant_is_taken_only_by_the_rotation_check():
    """One LU call site: ``_orthogonal_det`` returns det q once q is orthogonal
    within ``ORTH_TOL``, and its callers test only the sign."""
    assert call_sites("det") == [("flagcore", "_orthogonal_det", "det")]


def test_every_frame_is_checked_by_the_rotation_check():
    """``FlagPoint`` checks caller input with it and ``_oriented_flag`` every
    frame the library computes, so neither check can go unnoticed."""
    assert call_sites("_orthogonal_det") == [
        ("flagcore", "FlagPoint.__post_init__", "_orthogonal_det"),
        ("flagcore", "_oriented_flag", "_orthogonal_det"),
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
