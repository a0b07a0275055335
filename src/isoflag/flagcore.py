"""Core domain types for flags in R^n.

A flag is a nested chain of subspaces with prescribed dimensions
k_1 < ... < k_p inside R^n.  The chain splits R^n into p+1 blocks of sizes
n_i = k_i - k_{i-1}; everything downstream (the matrix model, its geometry,
the ambient-dimension bounds) is parameterized by the ``FlagSignature``
defined here, together with a ``Spectrum`` assigning one real number to
each block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AmbientTooSmall,
    KOutOfRange,
    NonIncreasingKs,
    NotSkewSymmetric,
    NotSpecialOrthogonal,
    NotSymmetric,
    SignatureMismatch,
    SpectrumInvalid,
)

# Every tolerance of the package.  The matrix model is exact, so each one
# only absorbs floating-point roundoff.
ORTH_TOL = 1e-10  # ||Q'Q - I||_F of a rotation or an orthonormal frame
_DET_TOL = 1e-9  # |det Q - 1| of a rotation
SYM_TOL = 1e-10  # asymmetry of a SymmetricMatrix; skew defect of TangentBlock.from_matrix
EIG_TOL = 1e-8  # eigenvalues against the spectrum (trace: n * EIG_TOL); flags_equal
SPECTRUM_GAP_TOL = 1e-8  # spectrum values, and nearest_point's gaps at block boundaries


def _frozen_array(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
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


@dataclass(frozen=True)
class FlagSignature:
    """Subspace dimensions 0 < k_1 < ... < k_p < n of a flag in R^n.

    The Grassmannian of k-planes is the single-step case ``ks = (k,)``.
    """

    n: int
    ks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if self.n < 2:
            raise AmbientTooSmall(f"ambient dimension must be at least 2, got {self.n}")
        if not self.ks:
            raise KOutOfRange("at least one subspace dimension is required")
        for k in self.ks:
            if not 0 < k < self.n:
                raise KOutOfRange(f"subspace dimension {k} outside (0, {self.n})")
        if any(a >= b for a, b in zip(self.ks, self.ks[1:])):
            raise NonIncreasingKs(f"subspace dimensions must strictly increase, got {self.ks}")

    @property
    def p(self) -> int:
        """Number of proper subspaces in the chain."""
        return len(self.ks)

    @property
    def num_blocks(self) -> int:
        return len(self.ks) + 1

    @property
    def block_sizes(self) -> tuple[int, ...]:
        cuts = (0,) + self.ks + (self.n,)
        return tuple(b - a for a, b in zip(cuts, cuts[1:]))

    def block_slices(self) -> tuple[slice, ...]:
        return self._block_slices

    @cached_property
    def _block_slices(self) -> tuple[slice, ...]:
        cuts = (0,) + self.ks + (self.n,)
        return tuple(slice(a, b) for a, b in zip(cuts, cuts[1:]))

    def block_pairs(self) -> tuple[tuple[int, int], ...]:
        """Index pairs (i, j), i < j, of the off-diagonal upper blocks."""
        r = self.num_blocks
        return tuple((i, j) for i in range(r) for j in range(i + 1, r))


def make_signature(n: int, ks: Iterable[int]) -> FlagSignature:
    """Validate and build a flag signature; ``ks`` of length 1 is a Grassmannian."""
    return FlagSignature(n, tuple(ks))


def _check_same_signature(a: FlagSignature, b: FlagSignature) -> None:
    if a != b:
        raise SignatureMismatch(f"signatures differ: {a} vs {b}")


def _check_size(a: np.ndarray, sig: FlagSignature) -> None:
    """Raise ``SignatureMismatch`` unless the square matrix a is n x n."""
    n = a.shape[0]
    if n != sig.n:
        raise SignatureMismatch(f"matrix is {n}x{n}, signature has n={sig.n}")


@dataclass(frozen=True)
class Spectrum:
    """One real value per block of a signature.

    Blocks carrying equal values would merge into a single eigenspace, so
    the values must be pairwise separated by more than ``SPECTRUM_GAP_TOL``.
    """

    values: tuple[float, ...]
    signature: FlagSignature

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.signature.num_blocks:
            raise SpectrumInvalid(
                f"need {self.signature.num_blocks} values for {self.signature}, got {len(vals)}"
            )
        if not all(np.isfinite(vals)):
            raise SpectrumInvalid(f"spectrum values must be finite, got {vals}")
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

    @cached_property
    def block_trace(self) -> float:
        """Trace of the model matrix: sum of n_i * a_i."""
        return float(np.dot(self.signature.block_sizes, self.values))

    def repeated(self) -> np.ndarray:
        """Eigenvalue multiset in block order: a_i repeated n_i times."""
        return np.repeat(self.values, self.signature.block_sizes)

    # The descent steps read these on every iteration; a Spectrum is
    # immutable, so each is computed once, on first use.  Each of them and
    # the cached block_trace and FlagSignature.block_slices() was worth 3-13%
    # of descent-small's ops_per_kprobe, measured one at a time.
    @cached_property
    def _diagonal(self) -> np.ndarray:
        """``repeated()``, read-only."""
        return _frozen_array(self.repeated())

    @cached_property
    def _block_order(self) -> np.ndarray:
        """The stable argsort of ``repeated()``: the block positions listed by
        ascending value, in block order within each value."""
        return np.argsort(self._diagonal, kind="stable")


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


def complete_traceless_spectrum(sig: FlagSignature, base: Sequence[float]) -> Spectrum:
    """Extend strictly decreasing positive values a_1 > ... > a_p > 0 to a
    traceless spectrum by solving for the last value:

        a_{p+1} = -(n_1 a_1 + ... + n_p a_p) / n_{p+1}
    """
    base = tuple(float(b) for b in base)
    if len(base) != sig.p:
        raise SpectrumInvalid(f"need {sig.p} base values, got {len(base)}")
    if any(b <= 0 for b in base):
        raise SpectrumInvalid(f"base values must be positive, got {base}")
    if any(nxt >= prev for prev, nxt in zip(base, base[1:])):
        raise SpectrumInvalid(f"base values must strictly decrease, got {base}")
    sizes = sig.block_sizes
    last = -Fraction(sum(Fraction(s) * Fraction(b) for s, b in zip(sizes, base)), sizes[-1])
    return Spectrum(base + (float(last),), sig)


def _check_special_orthogonal(q: np.ndarray, n: int) -> None:
    """Raise ``NotSpecialOrthogonal`` unless q is n x n, finite, orthogonal
    within ORTH_TOL and of determinant +1.  Overflow in Q'Q can still make
    the defect NaN, which fails the ``not defect <= tol`` comparison."""
    if q.shape != (n, n):
        raise NotSpecialOrthogonal(f"expected a {n}x{n} matrix, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise NotSpecialOrthogonal("entries must be finite")
    defect = np.linalg.norm(q.T @ q - np.eye(n))
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
        q = _frozen_array(self.q)
        _check_special_orthogonal(q, self.signature.n)
        object.__setattr__(self, "q", q)


def identity_flag(sig: FlagSignature) -> FlagPoint:
    """The base flag spanned by the first k_1, ..., k_p coordinate vectors."""
    return FlagPoint(np.eye(sig.n), sig)


def random_flag_point(sig: FlagSignature, seed: int = 0) -> FlagPoint:
    """Haar-uniform random flag, deterministic for a fixed seed.

    QR of a Gaussian matrix with the R-diagonal sign fix gives a uniform
    orthogonal matrix; a final column flip moves the det = -1 half onto
    SO(n) without breaking uniformity.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((sig.n, sig.n))
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, -1] = -q[:, -1]
    return FlagPoint(q, sig)


def _check_symmetric(a: np.ndarray) -> None:
    """Raise ``NotSymmetric`` unless the finite array a is a square matrix
    within SYM_TOL of its transpose in the Frobenius norm."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    defect = np.linalg.norm(a - a.T)
    if not defect <= SYM_TOL:
        raise NotSymmetric(f"asymmetry {defect:.3e} exceeds {SYM_TOL:.3e}")


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """A real symmetric n x n matrix (validated on construction)."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float, copy=True)
        if not np.all(np.isfinite(a)):
            raise NotSymmetric("entries must be finite")
        _check_symmetric(a)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))

    def __array__(self, dtype=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True, eq=False)
class TangentBlock:
    """Velocity of a flag: the off-diagonal blocks B_ij, i < j, of a
    skew-symmetric matrix whose diagonal blocks vanish.

    Stored as the upper blocks only, in the pair order of
    ``signature.block_pairs()``; the lower blocks are determined by
    B_ji = -B_ij'.
    """

    signature: FlagSignature
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        sizes = self.signature.block_sizes
        pairs = self.signature.block_pairs()
        if len(self.blocks) != len(pairs):
            raise NotSkewSymmetric(
                f"need {len(pairs)} blocks for {self.signature}, got {len(self.blocks)}"
            )
        frozen = []
        for (i, j), b in zip(pairs, self.blocks):
            arr = _frozen_array(b)
            if arr.shape != (sizes[i], sizes[j]):
                raise NotSkewSymmetric(
                    f"block ({i},{j}) must have shape {(sizes[i], sizes[j])}, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise NotSkewSymmetric(f"block ({i},{j}) has non-finite entries")
            frozen.append(arr)
        object.__setattr__(self, "blocks", tuple(frozen))

    @classmethod
    def from_block_map(cls, sig: FlagSignature, blocks: Mapping[tuple[int, int], np.ndarray]) -> "TangentBlock":
        sizes = sig.block_sizes
        full = []
        for i, j in sig.block_pairs():
            full.append(np.asarray(blocks.get((i, j), np.zeros((sizes[i], sizes[j]))), dtype=float))
        return cls(sig, tuple(full))

    @classmethod
    def from_matrix(cls, sig: FlagSignature, mat: np.ndarray) -> "TangentBlock":
        """Split a skew-symmetric matrix with zero diagonal blocks into blocks."""
        a = np.asarray(mat, dtype=float)
        if a.shape != (sig.n, sig.n):
            raise NotSkewSymmetric(f"expected shape {(sig.n, sig.n)}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NotSkewSymmetric("entries must be finite")
        if not np.linalg.norm(a + a.T) <= SYM_TOL:
            raise NotSkewSymmetric("matrix is not skew-symmetric")
        sl = sig.block_slices()
        for i, s in enumerate(sl):
            if not np.linalg.norm(a[s, s]) <= SYM_TOL:
                raise NotSkewSymmetric(f"diagonal block {i} is nonzero")
        return cls(sig, tuple(a[sl[i], sl[j]] for i, j in sig.block_pairs()))

    def block(self, i: int, j: int) -> np.ndarray:
        """Block (i, j) for any i != j; lower blocks come from skew-symmetry."""
        pairs = self.signature.block_pairs()
        if i < j:
            return self.blocks[pairs.index((i, j))]
        if i > j:
            return -self.blocks[pairs.index((j, i))].T
        sizes = self.signature.block_sizes
        return np.zeros((sizes[i], sizes[i]))

    def to_matrix(self) -> np.ndarray:
        n = self.signature.n
        sl = self.signature.block_slices()
        out = np.zeros((n, n))
        for (i, j), b in zip(self.signature.block_pairs(), self.blocks):
            out[sl[i], sl[j]] = b
            out[sl[j], sl[i]] = -b.T
        return out

    def frobenius_norm(self) -> float:
        """Norm of the assembled skew matrix, sqrt(2 * sum ||B_ij||^2)."""
        return float(np.sqrt(2.0 * sum(float(np.sum(b * b)) for b in self.blocks)))

    def scaled(self, c: float) -> "TangentBlock":
        return TangentBlock(self.signature, tuple(c * b for b in self.blocks))


def random_tangent_block(sig: FlagSignature, seed: int = 0) -> TangentBlock:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sizes = sig.block_sizes
    return TangentBlock(sig, tuple(rng.standard_normal((sizes[i], sizes[j])) for i, j in sig.block_pairs()))


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
    return bool(np.linalg.norm(_embedded_image(x.q, spec) - _embedded_image(y.q, spec)) <= EIG_TOL)
