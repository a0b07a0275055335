"""The real-number boundary of the numeric layers.

Every array that enters ``flagcore`` or ``embed``, a spectrum's values too,
is read once, by ``flagcore._frozen_array``: a byte string, a ragged nesting
or an entry that is not a real number a double holds (a string, bytes, a
``Decimal``, ``None``, a complex, a 0-d array inside a list, an int past a
double) is refused as "entries must be real numbers", and a NaN or infinity
as "entries must be finite", each with the constructor's own error class.
Each entry, and every real-number parameter (a tolerance, a step, a scale
factor), is read by one rule, ``errors._real``.  The generated test below
feeds 13 public entry points 12 hostile values with every warning turned
into an error: each call must raise an ``IsoflagError``, never a bare numpy
exception, a warning or a wrong value.
An ndarray subclass is read as the plain array of its data, so a mask hides
no NaN.  The second half checks that valid input of other types (int lists,
float32 arrays, a ``np.matrix``, a memmap, lists of numpy scalars,
``Fraction`` and numpy floats) still passes, with the same result.
"""

import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from isoflag import (
    FlagPoint,
    Spectrum,
    SymmetricMatrix,
    TangentBlock,
    act,
    default_traceless_spectrum,
    embed,
    gradient_descent,
    identity_flag,
    make_signature,
    nearest_point,
    project_to_tangent,
    random_flag_point,
    random_tangent_block,
    recover,
    retract,
)
from isoflag.errors import (
    IsoflagError,
    NotSkewSymmetric,
    NotSpecialOrthogonal,
    NotSymmetric,
    NumericalError,
    SpectrumInvalid,
    StepNotFinite,
    ValidationError,
)
from isoflag.geometry import _checked_gradient

SIG = make_signature(4, [1, 3])
SPEC = default_traceless_spectrum(SIG)
BASE = embed(identity_flag(SIG), SPEC)
SYM = np.arange(16.0).reshape(4, 4) + np.arange(16.0).reshape(4, 4).T
TANGENT = project_to_tangent(SymmetricMatrix(SYM), BASE)
BLOCK = random_tangent_block(SIG, 0)

HOSTILE = {
    "string": "abc",
    "numeric-string": "1.5",
    "bytes": b"1",
    "decimal": Decimal("1.5"),
    "object-array-string": np.array([[1.0, "0.5"], ["0.5", 1.0]], dtype=object),
    "None": None,
    "ragged": [[1.0, 2.0], [3.0]],
    "complex": 1j,
    "complex-array": np.eye(4) * (1 + 1j),
    "int-past-double": 10**400,
    "nan": float("nan"),
    "inf": float("inf"),
}
NON_REAL = set(HOSTILE) - {"nan", "inf"}


def descend(**kwargs):
    return gradient_descent(lambda x: x - SYM, SPEC, BASE, max_iters=2, **kwargs)


ENTRY_POINTS = {
    "FlagPoint": lambda v: FlagPoint(v, SIG),
    "SymmetricMatrix": SymmetricMatrix,
    "TangentBlock": lambda v: TangentBlock(SIG, v),
    "TangentBlock.from_block_map": lambda v: TangentBlock.from_block_map(SIG, {(0, 1): v}),
    "act": lambda v: act(v, identity_flag(SIG)),
    "Spectrum": lambda v: Spectrum((v, 0.0, -1.0), SIG),
    "recover.eig_tol": lambda v: recover(BASE.x, SPEC, eig_tol=v),
    "nearest_point.gap_tol": lambda v: nearest_point(BASE.x, SPEC, gap_tol=v),
    "gradient_descent.grad_tol": lambda v: descend(grad_tol=v),
    "gradient_descent.step": lambda v: descend(step=v),
    "retract.step": lambda v: retract(BASE, TANGENT, v),
    "TangentBlock.scaled": BLOCK.scaled,
    "objective_grad": lambda v: gradient_descent(lambda x: v, SPEC, BASE, max_iters=2),
}

# The error each array reader raises: its constructor's class, or for a
# scalar factor the class that the scaled matrix would raise.
ENTRY_ERROR = {
    "FlagPoint": NotSpecialOrthogonal,
    "SymmetricMatrix": NotSymmetric,
    "TangentBlock": NotSkewSymmetric,
    "TangentBlock.from_block_map": NotSkewSymmetric,
    "act": NotSpecialOrthogonal,
    "Spectrum": SpectrumInvalid,
    "retract.step": NotSymmetric,
    "TangentBlock.scaled": NotSkewSymmetric,
}
TOLERANCES = {
    "recover.eig_tol": "eig_tol",
    "nearest_point.gap_tol": "gap_tol",
    "gradient_descent.grad_tol": "grad_tol",
    "gradient_descent.step": "step",
}


def expected_error(entry: str, name: str, value):
    """The class and message the probe (entry, name) must raise."""
    non_real = name in NON_REAL
    if entry in ENTRY_ERROR:
        return ENTRY_ERROR[entry], "entries must be " + ("real numbers" if non_real else "finite")
    if entry in TOLERANCES:
        return ValidationError, f"{TOLERANCES[entry]} must be finite and >= 0, got {value}"
    assert entry == "objective_grad"
    if non_real:
        return NotSymmetric, "entries must be real numbers"
    return StepNotFinite, "objective gradient returned non-finite entries"


@pytest.mark.parametrize("name", list(HOSTILE))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_hostile_value_raises_an_isoflag_error(entry, name):
    value = HOSTILE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if (entry, name) == ("gradient_descent.step", "None"):
            descend(step=value)  # None is the documented default step
            return
        with pytest.raises(IsoflagError) as refusal:
            ENTRY_POINTS[entry](value)
    error, message = expected_error(entry, name, value)
    assert type(refusal.value) is error
    assert str(refusal.value).startswith(message)


def test_complex_input_is_refused_not_truncated():
    with pytest.raises(NotSymmetric, match="entries must be real numbers"):
        SymmetricMatrix(np.eye(2) * (1 + 1j))
    sig = make_signature(2, [1])
    for value in (1 + 1j, np.complex128(1 + 1j), np.complex64(1)):
        with pytest.raises(SpectrumInvalid, match="real numbers"):
            Spectrum((value, 0.0), sig)


def test_not_iterable_spectrum_values_are_refused():
    """A scalar or a nesting is not one value per block; a 1-D list of the
    wrong length keeps its count in the message."""
    sig = make_signature(2, [1])
    for values, got in [(5, "shape ()"), ([[1.0, -1.0]], "shape (1, 2)"), ((1.0, 0.0, -1.0), "3")]:
        with pytest.raises(SpectrumInvalid) as refusal:
            Spectrum(values, sig)
        assert str(refusal.value) == f"need 2 values for FlagSignature(n=2, ks=(1,)), got {got}"


@pytest.mark.parametrize("values", [(Decimal("0.5"), b"-1"), (1.5, Decimal("-1.5")), (b"1", -1.0),
                                    (np.array(1.5), -1.0), b"12", bytearray(b"12"), {1.0: "a", -1.0: "b"},
                                    {1.0, -1.0}, (v for v in (1.0, -1.0))])
def test_spectrum_values_that_are_not_real_numbers_are_refused_not_parsed(values):
    """A spectrum value is read as a matrix entry, a tolerance or a step is:
    bytes, a ``Decimal`` and a 0-d array are refused, not converted.  A byte
    string is refused whole, not read as its codes, and a dict, a set or a generator
    is not an array of values; the CLI parses ``--spectrum`` into floats
    before ``Spectrum`` sees it."""
    with pytest.raises(SpectrumInvalid, match=r"^entries must be real numbers$"):
        Spectrum(values, make_signature(2, [1]))


@pytest.mark.parametrize("error, build", [
    (NotSymmetric, lambda: SymmetricMatrix([[np.array(1.0), 0.0], [0.0, 1.0]])),
    (NotSymmetric, lambda: SymmetricMatrix(np.array([[np.array(1.0), 0.0], [0.0, 1.0]], dtype=object))),
    (NotSkewSymmetric, lambda: TangentBlock(make_signature(2, [1]), [[0.0, np.array(1.0)], [-1.0, 0.0]])),
    (NotSpecialOrthogonal, lambda: FlagPoint([[np.array(1.0), 0.0], [0.0, 1.0]], make_signature(2, [1]))),
    (SpectrumInvalid, lambda: Spectrum([np.array(1.5), -1.0], make_signature(2, [1]))),
], ids=["list", "object-array", "TangentBlock", "FlagPoint", "Spectrum"])
def test_a_zero_dimensional_array_is_not_a_real_number_anywhere(error, build):
    """numpy would read a 0-d array inside a list as its value; the array
    reader keeps it an object, which ``errors._real`` refuses, as it refuses
    a 0-d array given as a scale factor."""
    with pytest.raises(error, match="^entries must be real numbers$"):
        build()


@pytest.mark.parametrize("entries", [
    np.array([[1.0, b"0.5"], [b"0.5", 1.0]], dtype=object),
    np.array([[1.0, None], [None, 1.0]], dtype=object),
    [[Decimal(1), Decimal("0.5")], [Decimal("0.5"), Decimal(1)]],
], ids=["bytes", "None", "Decimal-list"])
def test_object_entries_are_read_by_the_real_number_rule(entries):
    """Each object in an array is read as a scale factor is, so an entry that
    is not a real number is refused, not parsed; ``None`` is not a NaN."""
    with pytest.raises(NotSymmetric, match="^entries must be real numbers$"):
        SymmetricMatrix(entries)


def test_finiteness_is_checked_before_the_shape():
    bad = np.full((3, 3), np.nan)
    for error, build in [(NotSymmetric, SymmetricMatrix), (NotSkewSymmetric, lambda a: TangentBlock(SIG, a)),
                         (NotSpecialOrthogonal, lambda a: FlagPoint(a, SIG))]:
        with pytest.raises(error, match="^entries must be finite$"):
            build(bad)


def test_a_longdouble_past_a_double_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSymmetric, match="^entries must be finite$"):
            SymmetricMatrix(np.array([[np.longdouble("1e400")]]))


def test_an_overflowing_scale_factor_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSkewSymmetric, match="entries must be finite"):
            TangentBlock.from_block_map(SIG, {(0, 1): [[4.0, 0.0]]}).scaled(1e308)


@pytest.mark.parametrize("call, error, message", [
    (lambda: project_to_tangent(SymmetricMatrix(np.full((4, 4), 1e308)), BASE),
     NumericalError, "tangent projection overflows"),
    (lambda: BLOCK.scaled(1e200).frobenius_norm(), NumericalError, "Frobenius norm overflows"),
    (lambda: retract(BASE, project_to_tangent(SymmetricMatrix(1e3 * SYM), BASE), 1e308),
     NotSymmetric, "entries must be finite"),
], ids=["project_to_tangent", "frobenius_norm", "retract"])
def test_a_finite_input_whose_result_overflows_raises_without_a_warning(call, error, message):
    """Finite input whose result passes the largest double raises the
    package's error, and numpy's overflow warning does not escape first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{message}$"):
            call()


def as_matrix(a) -> np.matrix:
    """``a`` as a ``np.matrix``, whose constructor's ``PendingDeprecationWarning`` pyproject makes an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        return np.matrix(a)


@pytest.mark.parametrize("masked, error, message", [
    (lambda: SymmetricMatrix(np.ma.array([[1.0, np.nan], [np.nan, 1.0]], mask=[[0, 1], [1, 0]])),
     NotSymmetric, "entries must be finite"),
    (lambda: SymmetricMatrix(np.ma.array([[1.0, 5.0], [2.0, 1.0]], mask=[[0, 1], [0, 0]])),
     NotSymmetric, "asymmetry 4.243e+00 exceeds"),
    (lambda: Spectrum(np.ma.array([0.5, np.nan], mask=[0, 1]), make_signature(2, [1])),
     SpectrumInvalid, "entries must be finite"),
], ids=["SymmetricMatrix-nan", "SymmetricMatrix-asymmetric", "Spectrum-nan"])
def test_a_mask_hides_no_entry(masked, error, message):
    """A masked array is read as the plain array of its data, so a NaN or an
    asymmetric pair under the mask is refused as an unmasked one is."""
    with pytest.raises(error, match="^" + re.escape(message)):
        masked()


# -- valid input of other types passes unchanged ------------------------------


def test_a_matrix_or_memmap_reads_as_the_plain_array_of_its_data(tmp_path):
    """An ndarray subclass is read as a plain ndarray: a ``np.matrix`` gives
    the results of its data, and its ``*`` never reaches the numeric layers."""
    eye = as_matrix(np.eye(4))
    mapped = np.memmap(tmp_path / "sym.bin", dtype=float, mode="w+", shape=SYM.shape)
    mapped[:] = SYM
    for stored, data in [(SymmetricMatrix(as_matrix(SYM)).entries, SYM), (SymmetricMatrix(mapped).entries, SYM),
                         (FlagPoint(eye, SIG).q, np.eye(4)), (act(eye, identity_flag(SIG)).q, np.eye(4)),
                         (TangentBlock(SIG, as_matrix(BLOCK.matrix)).matrix, BLOCK.matrix)]:
        assert type(stored) is np.ndarray and np.array_equal(stored, data)
    plain = descend(grad_tol=0)
    matrix = gradient_descent(lambda x: as_matrix(x - SYM), SPEC, BASE, max_iters=2, grad_tol=0)
    assert matrix.grad_norms == plain.grad_norms
    assert np.array_equal(matrix.point.x.entries, plain.point.x.entries)



def test_int_and_float32_arrays_read_as_float():
    for a in ([[2, 1], [1, 0]], np.array([[2, 1], [1, 0]], dtype=np.float32),
              np.array([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(0)]], dtype=object)):
        entries = SymmetricMatrix(a).entries
        assert entries.dtype == np.float64 and not entries.flags.writeable
        assert entries.tolist() == [[2.0, 1.0], [1.0, 0.0]]
    eye = np.eye(4, dtype=int)
    assert np.array_equal(FlagPoint(eye.tolist(), SIG).q, np.eye(4))
    assert np.array_equal(act(eye.astype(np.float32), identity_flag(SIG)).q, np.eye(4))
    b = BLOCK.matrix
    assert np.array_equal(TangentBlock(SIG, b.astype(np.float32)).matrix, b.astype(np.float32).astype(float))
    ints = TangentBlock.from_block_map(SIG, {(0, 1): [[1, 2]], (1, 2): [[3], [4]]})
    sl = SIG.block_slices()
    assert ints.matrix[sl[0], sl[1]].tolist() == [[1.0, 2.0]]
    assert ints.matrix[sl[2], sl[1]].tolist() == [[-3.0, -4.0]]


def test_lists_of_numpy_scalars_and_rows_read_as_numpy_reads_them():
    """A list is read entry by entry, yet numpy bools, integers and floats
    and rows given as 1-D arrays keep the values numpy's own reading gives."""
    rows = [[np.True_, np.int64(1)], [np.float32(1.0), np.False_]]
    assert SymmetricMatrix(rows).entries.tolist() == [[1.0, 1.0], [1.0, 0.0]]
    assert np.array_equal(SymmetricMatrix(list(SYM)).entries, SYM)
    assert Spectrum((np.True_, np.False_), make_signature(2, [1])).values == (1.0, 0.0)


def test_the_reader_copies_its_input():
    a = SYM.copy()
    m = SymmetricMatrix(a)
    a[0, 0] = 99.0
    assert m.entries[0, 0] == SYM[0, 0]


def test_fraction_and_numpy_float_spectra():
    spec = Spectrum((Fraction(3, 4), np.float32(0.25), np.float64(-1), 0), make_signature(5, [1, 2, 4]))
    assert spec.values == (0.75, 0.25, -1.0, 0.0)
    assert all(type(v) is float for v in spec.values)


@pytest.mark.parametrize("value", [Fraction(1, 10**8), np.float64(1e-8), np.float32(1e-8), 1e-8])
def test_fraction_and_numpy_float_tolerances(value):
    q = recover(BASE.x, SPEC, eig_tol=value).q
    assert np.array_equal(embed(FlagPoint(q, SIG), SPEC).x.entries, BASE.x.entries)
    assert np.array_equal(nearest_point(BASE.x, SPEC, gap_tol=value).x.entries, BASE.x.entries)


def test_zero_tolerances_are_accepted():
    assert np.array_equal(nearest_point(BASE.x, SPEC, gap_tol=0).x.entries, BASE.x.entries)
    assert descend(grad_tol=0).iterations == 2


def test_a_numpy_bool_factor_scales_as_a_bool_does():
    """``errors._real`` reads ``np.True_`` as ``True``, as the array reader
    reads it in a list; a 0-d array stays refused."""
    assert BLOCK.scaled(np.True_).matrix.tobytes() == BLOCK.scaled(True).matrix.tobytes()
    with pytest.raises(NotSkewSymmetric, match="^entries must be real numbers$"):
        BLOCK.scaled(np.array(True))


def test_numpy_bool_tolerances_are_accepted_as_bools_are():
    assert np.array_equal(nearest_point(BASE.x, SPEC, gap_tol=np.False_).x.entries,
                          nearest_point(BASE.x, SPEC, gap_tol=False).x.entries)
    assert descend(grad_tol=np.False_).grad_norms == descend(grad_tol=False).grad_norms


def test_steps_of_other_real_types_give_the_float_result():
    f = random_flag_point(SIG, 3)
    init = embed(f, SPEC)

    def run(step):
        return gradient_descent(lambda x: x - SYM, SPEC, init, step=step, max_iters=5, grad_tol=0)

    want = run(0.25)
    for step in (Fraction(1, 4), np.float64(0.25), np.float32(0.25)):
        got = run(step)
        assert got.grad_norms == want.grad_norms
        assert np.array_equal(got.point.x.entries, want.point.x.entries)
    v = project_to_tangent(SymmetricMatrix(SYM), init)
    assert np.array_equal(retract(init, v, Fraction(1, 100)).x.entries, retract(init, v, 0.01).x.entries)
    assert np.array_equal(BLOCK.scaled(Fraction(1, 2)).matrix, BLOCK.scaled(0.5).matrix)
    assert np.array_equal(BLOCK.scaled(2).matrix, 2.0 * BLOCK.matrix)


def test_gradients_of_other_types_are_converted_and_a_float_one_is_not_copied():
    g = SYM.copy()
    assert _checked_gradient(g, SIG) is g
    assert np.array_equal(_checked_gradient(SYM.astype(int).tolist(), SIG), SYM)
    assert np.array_equal(_checked_gradient(SYM.astype(np.float32), SIG), SYM)
    with pytest.raises(StepNotFinite):
        _checked_gradient([[np.nan] * 4] * 4, SIG)
