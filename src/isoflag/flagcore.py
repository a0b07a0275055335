"""Core domain types for flags in R^n.

A flag is a nested chain of subspaces with prescribed dimensions
k_1 < ... < k_p inside R^n.  The chain splits R^n into p+1 blocks of sizes
n_i = k_i - k_{i-1}; everything downstream (the matrix model, its geometry,
the ambient-dimension bounds) is parameterized by the ``FlagSignature``
defined here, together with a ``Spectrum`` assigning one real number to
each block.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    AmbientTooSmall,
    KOutOfRange,
    NonIncreasingKs,
    NotSkewSymmetric,
    NotSpecialOrthogonal,
    NotSymmetric,
    NumericalError,
    SignatureMismatch,
    SpectrumInvalid,
    _STRINGS,
    _at_least,
    _entries,
    _finite_factor,
    _index,
    _real,
)

# Every tolerance of the package.  The matrix model is exact, so each one
# only absorbs floating-point roundoff.
ORTH_TOL = 1e-10  # ||Q'Q - I||_F of a rotation
_DET_TOL = 1e-9  # |det Q - 1| of a rotation
SYM_TOL = 1e-10  # asymmetry of a SymmetricMatrix; skew defect and zero diagonal blocks of a TangentBlock
EIG_TOL = 1e-8  # eigenvalues against the spectrum, which bounds the trace by n * EIG_TOL; flags_equal
SPECTRUM_GAP_TOL = 1e-8  # spectrum values, and nearest_point's gaps at block boundaries


# The largest n * max|a_i| a Spectrum may have.  Every entry of q diag(a) q'
# for a frame q is then at most max|a_i| in magnitude up to roundoff, and its
# symmetrization, its trace, the model trace sum n_i a_i and the differences
# the eigenvalue check takes stay at least a factor 4 below the largest
# double, so none of them overflows.
SPECTRUM_MAX = 2.0**1020


def _quietly(compute, overflow: str | None = None):
    """``compute()`` with numpy's overflow and invalid warnings off: the one policy for
    finite input whose result passes the largest double.  Given a message, a non-finite
    result raises ``NumericalError(overflow)``; without one the inf or NaN stands, so an
    overflowing defect fails its tolerance test."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    if overflow is not None and not np.isfinite(out).all():
        raise NumericalError(overflow)
    return out


def _float_array(a, error) -> np.ndarray:
    """``a`` as a plain float array: a bool, int or float array, an ndarray subclass (a matrix, a masked
    array, a memmap) as the plain array of its data, any other ``a`` entry by entry by ``errors._real``."""
    with contextlib.suppress(TypeError, ValueError):
        if isinstance(a, np.ndarray) and a.dtype.kind in "biuf":  # a longdouble past a double: inf, refused later
            return _quietly(lambda: np.asarray(a, dtype=float)) if a.dtype.itemsize > 8 else np.asarray(a, dtype=float)
        out = np.asarray(a, dtype=object)  # unlike numpy's own reading, a 0-d array inside a list stays an object
        vals = [_real(v) for v in out.flat]
        if not isinstance(a, _STRINGS) and None not in vals:
            return np.array(vals, dtype=float).reshape(out.shape)
    raise error("entries must be real numbers")


def _frozen_array(a, error) -> np.ndarray:
    """The one reader of array input: a read-only float copy of ``a``.  A byte
    string, a ragged nesting or an entry that ``errors._real`` refuses, a 0-d
    array inside a list too, raises ``error("entries must be real numbers")``, and
    a NaN or infinity ``error("entries must be finite")``, both before the shape is looked at."""
    out = _float_array(a, error).copy()
    if not np.isfinite(out).all():
        raise error("entries must be finite")
    out.setflags(write=False)
    return out


def _prechecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, built
    without running its ``__post_init__``: for values that a private step has
    already checked as that validator would, so the check does not run twice."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _frobenius(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` of a float array, computed as numpy computes it,
    the square root of the dot product of ``a`` raveled in memory order with
    itself, without ``norm``'s argument handling."""
    r = a.ravel(order="K")
    return math.sqrt(r.dot(r))


def _orth_defect(q: np.ndarray) -> float:
    """||q'q - I||_F of a square float array: how far q is from orthogonal."""
    e = q.T @ q
    e.flat[:: e.shape[0] + 1] -= 1.0
    return _frobenius(e)


@dataclass(frozen=True)
class FlagSignature:
    """Subspace dimensions 0 < k_1 < ... < k_p < n of a flag in R^n.

    The Grassmannian of k-planes is the single-step case ``ks = (k,)``.
    """

    n: int
    ks: tuple[int, ...]

    def __post_init__(self):
        n = _index(self.n, "ambient dimension")  # both are integers before n's range is checked
        ks = tuple(_index(k, "subspace dimension") for k in _entries(self.ks, "subspace dimensions"))
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "n", _at_least(n, "ambient dimension", 2, AmbientTooSmall))
        if not self.ks:
            raise KOutOfRange("at least one subspace dimension is required")
        for k in self.ks:
            if not 0 < k < self.n:
                raise KOutOfRange(f"subspace dimension {k} outside (0, {self.n})")
        if any(a >= b for a, b in zip(self.ks, self.ks[1:])):
            raise NonIncreasingKs(f"subspace dimensions must strictly increase, got {self.ks}")

    @property
    def num_blocks(self) -> int:
        return len(self.ks) + 1

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(s.stop - s.start for s in self._block_slices)

    def block_slices(self) -> tuple[slice, ...]:
        return self._block_slices

    @cached_property
    def _block_slices(self) -> tuple[slice, ...]:
        cuts = (0,) + self.ks + (self.n,)
        return tuple(slice(a, b) for a, b in zip(cuts, cuts[1:]))


def make_signature(n: int, ks: Iterable[int]) -> FlagSignature:
    """Validate and build a flag signature; ``ks`` of length 1 is a Grassmannian."""
    return FlagSignature(n, ks)


def _check_same_signature(a: FlagSignature, b: FlagSignature) -> None:
    if a != b:
        raise SignatureMismatch(f"signatures differ: {a} vs {b}")


def _check_size(a: np.ndarray, sig: FlagSignature) -> None:
    """Raise ``SignatureMismatch`` unless the square matrix a is n x n."""
    if (n := a.shape[0]) != sig.n:
        raise SignatureMismatch(f"matrix is {n}x{n}, signature has n={sig.n}")


@dataclass(frozen=True)
class Spectrum:
    """One real value per block of a signature.

    ``values`` is read by ``_frozen_array``: one finite real number per block.
    Blocks carrying equal values would merge into a single eigenspace, so
    the values must be pairwise separated by more than ``SPECTRUM_GAP_TOL``;
    and n * max|a_i| must be at most ``SPECTRUM_MAX`` (about 1.1e307), so
    that the model matrix can be formed and checked without overflow.
    """

    values: tuple[float, ...]
    signature: FlagSignature

    def __post_init__(self):
        vals = _frozen_array(self.values, SpectrumInvalid)
        if vals.shape != (self.signature.num_blocks,):
            got = len(vals) if vals.ndim == 1 else f"shape {vals.shape}"
            raise SpectrumInvalid(f"need {self.signature.num_blocks} values for {self.signature}, got {got}")
        object.__setattr__(self, "values", tuple(vals.tolist()))
        n = self.signature.n
        if not self._max_abs <= SPECTRUM_MAX / n:
            raise SpectrumInvalid(
                f"spectrum too large: n * max|a_i| must be at most {SPECTRUM_MAX:.3e}, "
                f"got n={n} and max|a_i| = {self._max_abs:.3e}"
            )
        if self.min_gap <= SPECTRUM_GAP_TOL:
            raise SpectrumInvalid(
                f"spectrum values too close: min gap {self.min_gap:.3e} <= {SPECTRUM_GAP_TOL:.3e}"
            )

    @property
    def min_gap(self) -> float:
        s = sorted(self.values)
        return min(b - a for a, b in zip(s, s[1:]))

    @property
    def max_gap(self) -> float:
        return max(self.values) - min(self.values)

    def repeated(self) -> np.ndarray:
        """Eigenvalue multiset in block order: a_i repeated n_i times."""
        return np.repeat(self.values, self.signature.block_sizes)

    # The descent steps read these on every iteration; a Spectrum is
    # immutable, so each is computed once, on first use.  Each of them and
    # FlagSignature.block_slices() was worth 3-13% of descent-small's
    # ops_per_kprobe, measured one at a time.
    @cached_property
    def _diagonal(self) -> np.ndarray:
        """``repeated()``, read-only."""
        d = self.repeated()
        d.setflags(write=False)
        return d

    @cached_property
    def _max_abs(self) -> float:
        """max|a_i|."""
        return max(map(abs, self.values))

    @cached_property
    def _frame_columns(self) -> np.ndarray:
        """For each block position, the column of eigh's ascending-order
        eigenvectors that belongs there: the inverse of the stable argsort of
        ``repeated()``, which lists the block positions by ascending value,
        in block order within each value.  The inverse is a scatter, not a
        second argsort: sorting the integer order faults in about 320 KB of
        numpy's sort code that nothing else in a descent runs."""
        order = np.argsort(self._diagonal, kind="stable")
        inv = np.empty_like(order)
        inv[order] = np.arange(order.size)
        return inv


def default_traceless_spectrum(sig: FlagSignature) -> Spectrum:
    """Canonical spectrum for a signature: strictly decreasing, traceless.

    Starts from the integer ladder p, p-1, ..., 0 over the blocks, removes
    the block-size-weighted mean so the model matrix is traceless, and
    scales so the total spread max(a) - min(a) is exactly 1.  Consecutive
    values then differ by 1/p, uniformly for every signature, which keeps
    tolerances and step sizes meaningful across signatures.
    """
    sizes = sig.block_sizes
    r = sig.num_blocks
    ladder = [r - 1 - i for i in range(r)]
    mean = Fraction(sum(s * c for s, c in zip(sizes, ladder)), sig.n)
    spread = r - 1
    vals = tuple(float(Fraction(c - mean, spread)) for c in ladder)
    return Spectrum(vals, sig)


def _check_special_orthogonal(q: np.ndarray, n: int) -> None:
    """Raise ``NotSpecialOrthogonal`` unless q, read by ``_frozen_array``, is n x n,
    orthogonal within ORTH_TOL and of determinant +1; an overflowing defect fails."""
    if q.shape != (n, n):
        raise NotSpecialOrthogonal(f"expected a {n}x{n} matrix, got shape {q.shape}")
    defect = _quietly(lambda: _orth_defect(q))
    if not defect <= ORTH_TOL:
        raise NotSpecialOrthogonal(f"Q'Q - I has Frobenius norm {defect:.3e} > {ORTH_TOL:.3e}")
    det = float(np.linalg.det(q))
    if not abs(det - 1.0) <= _DET_TOL:
        raise NotSpecialOrthogonal(f"det Q = {det!r}, want +1")


@dataclass(frozen=True, eq=False)
class FlagPoint:
    """A flag represented by a special orthogonal matrix Q.

    The column blocks of Q (sliced by the signature) span the successive
    increments of the flag.  Q is only fixed up to the block stabilizer, so
    two FlagPoints represent the same flag exactly when their embedded
    images agree; use :func:`flags_equal`, never ``==`` on Q.
    """

    q: np.ndarray
    signature: FlagSignature

    def __post_init__(self):
        q = _frozen_array(self.q, NotSpecialOrthogonal)
        _check_special_orthogonal(q, self.signature.n)
        object.__setattr__(self, "q", q)


def identity_flag(sig: FlagSignature) -> FlagPoint:
    """The base flag spanned by the first k_1, ..., k_p coordinate vectors."""
    q = np.eye(sig.n)
    q.setflags(write=False)
    return _prechecked(FlagPoint, q=q, signature=sig)  # an exact frame: FlagPoint's check cannot fail


def _generator(seed) -> np.random.Generator:
    """``seed`` itself if it is a numpy ``Generator``, else a fresh one seeded
    by it; a seed that is not a non-negative integer raises ``ValidationError``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_at_least(seed, "seed", 0))


def _oriented_flag(q: np.ndarray, sig: FlagSignature) -> FlagPoint:
    """``FlagPoint(q, sig)`` of a computed orthogonal frame q, its last column negated in place if det q < 0."""
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return FlagPoint(q, sig)


def random_flag_point(sig: FlagSignature, seed: int = 0) -> FlagPoint:
    """Haar-uniform random flag, deterministic for a fixed seed.

    QR of a Gaussian matrix with the R-diagonal sign fix gives a uniform
    orthogonal matrix; a final column flip moves the det = -1 half onto
    SO(n) without breaking uniformity.
    """
    a = _generator(seed).standard_normal((sig.n, sig.n))
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)  # rebound: QR's q is freed before FlagPoint copies (peak RSS)
    return _oriented_flag(q, sig)


def _check_symmetric(a: np.ndarray) -> None:
    """Raise ``NotSymmetric`` unless the finite array a is a square matrix within
    SYM_TOL of its transpose in the Frobenius norm; an overflowing defect fails."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    defect = _quietly(lambda: _frobenius(a - a.T))
    if not defect <= SYM_TOL:
        raise NotSymmetric(f"asymmetry {defect:.3e} exceeds {SYM_TOL:.3e}")


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """A real symmetric n x n matrix (validated on construction)."""

    entries: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.entries, NotSymmetric)
        _check_symmetric(a)
        object.__setattr__(self, "entries", a)


def _trusted_symmetric(a: np.ndarray) -> SymmetricMatrix:
    """``SymmetricMatrix(a)`` for an array the library has just computed as (v + v') / 2, made read-only
    in place, without checks that cannot fail: it is exactly symmetric, as float addition commutes; a tangent
    projection is finite by its ``_quietly`` refusal, and a model image as ``embed._model_image`` accepts it
    only with a finite certificate or finite eigenvalues.  It is C-ordered, like the checked copy."""
    a.setflags(write=False)
    return _prechecked(SymmetricMatrix, entries=a)


@dataclass(frozen=True, eq=False)
class TangentBlock:
    """Velocity of a flag: a read-only skew n x n ``matrix`` B with zero diagonal blocks; the
    constructor keeps its argument's upper blocks bit for bit and sets B_ji = -B_ij', B_ii = 0."""

    signature: FlagSignature
    matrix: np.ndarray

    def __post_init__(self):
        sig = self.signature
        a = _frozen_array(self.matrix, NotSkewSymmetric)
        if a.shape != (sig.n, sig.n):
            raise NotSkewSymmetric(f"expected shape {(sig.n, sig.n)}, got {a.shape}")
        skew, *blocks = _quietly(lambda: [_frobenius(a + a.T), *(_frobenius(a[s, s]) for s in sig.block_slices())])
        if not skew <= SYM_TOL:
            raise NotSkewSymmetric("matrix is not skew-symmetric")
        upper = np.triu(a, 1)
        for i, (s, defect) in enumerate(zip(sig.block_slices(), blocks)):
            if not defect <= SYM_TOL:
                raise NotSkewSymmetric(f"diagonal block {i} is nonzero")
            upper[s, s] = 0.0
        upper -= upper.T
        upper.setflags(write=False)
        object.__setattr__(self, "matrix", upper)

    @classmethod
    def from_block_map(cls, sig: FlagSignature, blocks: Mapping[tuple[int, int], np.ndarray]) -> "TangentBlock":
        """B with upper blocks B_ij = ``blocks[(i, j)]``, i < j; absent pairs are zero."""
        sizes, sl = sig.block_sizes, sig.block_slices()
        a = np.zeros((sig.n, sig.n))
        for i, j in itertools.combinations(range(sig.num_blocks), 2):
            if (i, j) in blocks:
                blk = _frozen_array(blocks[i, j], NotSkewSymmetric)
                if blk.shape != (sizes[i], sizes[j]):
                    raise NotSkewSymmetric(f"block ({i},{j}) must have shape {(sizes[i], sizes[j])}, got {blk.shape}")
                a[sl[i], sl[j]] = blk
                a[sl[j], sl[i]] = -blk.T
        return cls(sig, a)

    def to_matrix(self) -> np.ndarray:
        return self.matrix.copy()

    def frobenius_norm(self) -> float:
        return _quietly(lambda: _frobenius(self.matrix), "Frobenius norm overflows")

    def scaled(self, c: float) -> "TangentBlock":
        c = _finite_factor(c, NotSkewSymmetric)
        return TangentBlock(self.signature, _quietly(lambda: c * self.matrix))  # an inf product is refused as not finite


def random_tangent_block(sig: FlagSignature, seed: int = 0) -> TangentBlock:
    rng = _generator(seed)
    sizes = sig.block_sizes
    pairs = itertools.combinations(range(sig.num_blocks), 2)
    return TangentBlock.from_block_map(sig, {(i, j): rng.standard_normal((sizes[i], sizes[j])) for i, j in pairs})


def _embedded_image(q: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """Conjugate the block-scalar model by the frame q, q diag(a) q' with a
    the repeated spectrum; symmetrized, so the result is exactly symmetric."""
    x = (q * spectrum._diagonal) @ q.T
    return (x + x.T) / 2.0


def flags_equal(x: FlagPoint, y: FlagPoint) -> bool:
    """Coset equality: do x and y represent the same flag?

    Tested through the embedded images under the canonical spectrum, which
    kills the stabilizer ambiguity of the representatives.
    """
    _check_same_signature(x.signature, y.signature)
    spec = default_traceless_spectrum(x.signature)
    return _frobenius(_embedded_image(x.q, spec) - _embedded_image(y.q, spec)) <= EIG_TOL
