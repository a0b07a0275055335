"""Exception hierarchy.

Two families: ``ValidationError`` for inputs that violate a documented
precondition (the CLI maps these to exit code 2), and ``NumericalError``
for degeneracies discovered mid-computation where any answer would be
meaningless (exit code 3).  ``_index`` is the integer coercion that every
integer argument goes through, so that a float or string is refused with
a ``ValidationError`` rather than truncated or passed to ``int()``.
``_at_least`` adds the lower bound: every range check of an integer
argument of ``bounds`` and ``repdim`` is one call to it, where the
argument enters, and reads ``need {what} >= {least}, got {value}``.
``_entries`` refuses an integer list that is a text or byte string or not iterable.
``_real``, the one rule for a real number, reads a numpy bool as a bool and refuses a string,
bytes, a ``Decimal``, ``None``, a complex or an array: ``_check_tolerance``, ``_finite_factor``
and ``flagcore._float_array`` (each entry of an array or a ``Spectrum``) are built on it.
"""

import contextlib
import math
import numbers
import operator
import sys

_STRINGS = (str, bytes, bytearray, memoryview)  # Python iterates them as characters or byte codes, numpy reads a uint8 buffer


class IsoflagError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(IsoflagError, ValueError):
    """Input violates a documented precondition."""


class NumericalError(IsoflagError, ArithmeticError):
    """Numerically degenerate configuration; refusing to guess."""


class AmbientTooSmall(ValidationError):
    """Ambient dimension below 2 admits no proper flag."""


class KOutOfRange(ValidationError):
    """A subspace dimension lies outside the open interval (0, n)."""


class NonIncreasingKs(ValidationError):
    """Subspace dimensions must be strictly increasing."""


class NotAnInteger(ValidationError):
    """A dimension or weight entry is not an integer (a float, string or NaN)."""


def _index(value, what: str) -> int:
    """``value`` as an int through ``operator.index``: ints, bools and numpy
    integers pass, and anything else raises ``NotAnInteger``."""
    try:
        return operator.index(value)
    except TypeError:
        raise NotAnInteger(f"{what} must be an integer, got {type(value).__name__}") from None


def _entries(values, what: str):
    """An iterator over ``values``, or ``NotAnInteger`` if it is a text or byte string or not iterable."""
    with contextlib.suppress(TypeError):
        if not isinstance(values, _STRINGS):
            return iter(values)
    raise NotAnInteger(f"{what} must be a sequence, got {type(values).__name__}")


def _at_least(value, what: str, least: int, error=ValidationError) -> int:
    """``value`` through ``_index``, refused with ``error`` below ``least``."""
    value = _index(value, what)
    if value < least:
        raise error(f"need {what} >= {least}, got {value}")
    return value


def _real(value) -> float | None:
    """``float(value)`` for a real number that a double holds: an int, a
    float, a ``Fraction``, a numpy integer, float or bool.  ``None`` for anything
    else: a string, bytes, a ``Decimal``, a complex, an array, ``None`` or an int past a double."""
    with contextlib.suppress(OverflowError):  # np.bool_ is not a numbers.Real; numpy is looked up, not imported
        if isinstance(value, numbers.Real) or isinstance(value, getattr(sys.modules.get("numpy"), "bool_", ())):
            return float(value)
    return None


def _check_tolerance(name: str, value) -> float:
    """``value`` as a float, or ``ValidationError`` unless the parameter
    ``name`` is a real number (``_real``), finite and >= 0."""
    v = _real(value)
    if v is None or not 0 <= v < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    return v


def _finite_factor(c, error) -> float:
    """The scalar ``c`` as a float, read as ``flagcore._frozen_array`` reads
    an entry of the matrix that it scales, and refused with the same errors."""
    v = _real(c)
    if v is None:
        raise error("entries must be real numbers")
    if not math.isfinite(v):
        raise error("entries must be finite")
    return v


class SignatureMismatch(ValidationError):
    """Operands were built over different flag signatures."""


class SpectrumInvalid(ValidationError):
    """Spectrum values collide, are mis-ordered, or have the wrong length."""


class NotSpecialOrthogonal(ValidationError):
    """Matrix is not orthogonal with determinant +1 within tolerance."""


class NotSymmetric(ValidationError):
    """Matrix is not symmetric within tolerance."""


class NotSkewSymmetric(ValidationError):
    """Matrix is not skew-symmetric with vanishing diagonal blocks."""


class NotDominant(ValidationError):
    """Weight fails a dominance or parity constraint."""


class MixedParity(ValidationError):
    """Weight entries mix integers with half-integers."""


class IndexOutOfRange(ValidationError):
    """Fundamental-weight index outside 1..m."""


class HypothesisViolated(ValidationError):
    """Classification check requested below its supported dimension."""


class SpectrumMismatch(NumericalError):
    """Matrix eigenvalues do not match the prescribed spectrum."""


class EigenvalueGapTooSmall(NumericalError):
    """Spectrum values too close together to assign eigenvalues reliably."""


class DegenerateBoundaryGap(NumericalError):
    """Eigenvalue tie at a block boundary: nearest point is non-unique."""

    def __init__(self, message: str, gap: float | None = None):
        super().__init__(message)
        self.gap = gap


class EigenSolverFailed(NumericalError):
    """The symmetric eigen-solver did not converge (numpy's LinAlgError)."""


class StepNotFinite(NumericalError):
    """Objective gradient returned non-finite entries."""
