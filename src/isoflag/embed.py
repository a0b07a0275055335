"""The fixed-spectrum matrix model of a flag manifold.

A flag with signature (k_1, ..., k_p) and spectrum (a_1, ..., a_{p+1}) is
realized as the symmetric matrix X = Q M Q' where M is the block-scalar
diagonal matrix diag(a_1 I_{n_1}, ..., a_{p+1} I_{n_{p+1}}) and Q is any
representative of the flag.  The realization is independent of the choice
of representative, turns the rotation action on flags into conjugation,
and is invertible: the flag is recovered from the eigenspaces of X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenSolverFailed, EigenvalueGapTooSmall, SpectrumMismatch
from .flagcore import (
    EIG_TOL,
    FlagPoint,
    FlagSignature,
    Spectrum,
    SymmetricMatrix,
    _check_same_signature,
    _check_size,
    _check_special_orthogonal,
    _embedded_image,
    _prechecked,
)


def _eigh(a: np.ndarray, vectors: bool = True):
    """``np.linalg.eigh(a)``, or ``eigvalsh(a)`` without the vectors: the one
    call site of the symmetric eigen-solver, which raises LAPACK's failure
    to converge as ``EigenSolverFailed``."""
    try:
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as e:
        n = a.shape[0]
        raise EigenSolverFailed(f"symmetric eigen-solver failed on a {n}x{n} matrix: {e}") from None


def _block_frame(vec: np.ndarray, spec: Spectrum) -> np.ndarray:
    """Put the eigenvectors ``vec`` of a matrix whose eigenvalues match the
    spectrum, in eigh's ascending order, into block order: the stable
    argsort of the repeated spectrum lists the block positions by ascending
    value, so each column goes to its block and keeps its order there."""
    q = np.empty(vec.shape)
    q[:, spec._block_order] = vec
    return q


def _eig_deviation(x: np.ndarray, spec: Spectrum) -> float:
    """Largest distance between the sorted eigenvalues of the n x n symmetric
    x and the spectrum values repeated by block size."""
    target = np.sort(spec.repeated())
    actual = _eigh(x, vectors=False)
    return float(np.max(np.abs(actual - target)))


def _check_on_model(x: np.ndarray, spec: Spectrum) -> None:
    """Raise ``SpectrumMismatch`` unless the n x n symmetric x has the
    eigenvalues of the model within EIG_TOL and its trace within n * EIG_TOL."""
    worst = _eig_deviation(x, spec)
    if not worst <= EIG_TOL:
        raise SpectrumMismatch(
            f"eigenvalues deviate from the prescribed spectrum by {worst:.3e} > {EIG_TOL:.3e}"
        )
    drift = abs(float(x.trace()) - spec.block_trace)
    if not drift <= EIG_TOL * x.shape[0]:
        raise SpectrumMismatch(f"trace off by {drift:.3e}")


_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def _gamma(m: int) -> float:
    """m u / (1 - m u), u the unit roundoff: the relative error bound of a
    sum or dot product of m terms in double precision."""
    mu = m * _UNIT_ROUNDOFF
    return mu / (1 - mu)


def _ostrowski_certifies(x: np.ndarray, q: np.ndarray, spec: Spectrum) -> bool:
    """Does one matrix product prove that x, computed from the frame q by
    ``_embedded_image``, passes ``_check_on_model``?

    Ostrowski's theorem (Horn & Johnson, *Matrix Analysis*, Thm 4.5.9): the
    k-th smallest eigenvalue of q diag(a) q' is theta_k times the k-th
    smallest a, with theta_k between the extreme eigenvalues of q'q.  So each
    lies within max|a| * ||q'q - I||_2 <= max|a| * ||q'q - I||_F of its value.
    Rounding adds at most max|a| * 4 n gamma(n + 3) for the two products and
    the symmetrization (Weyl's inequality carries it to the eigenvalues), and
    a relative gamma(n^2 + 1) to the computed norm; both hold while that norm
    is at most 1/2, which keeps ||q||_F^2 below 2n.  That bounds the exact
    eigenvalues of x.  ``_check_on_model`` reads the ones eigvalsh computes,
    the exact eigenvalues of x + E with ||E||_2 <= p(n) u ||x||_2 (LAPACK
    Users' Guide, section 4.7, p(n) "a modestly growing function of n");
    with p(n) taken as 4n and ||x||_2 <= 2 max|a|, the bound leaves
    max|a| * 8 n u for them.  The trace is compared directly, as
    ``_check_on_model`` compares it.
    """
    n = x.shape[0]
    e = q.T @ q
    e.flat[:: n + 1] -= 1.0
    delta = float(np.linalg.norm(e))
    if not delta <= 0.5:
        return False
    rounding = 4 * n * _gamma(n + 3) + 8 * n * _UNIT_ROUNDOFF
    bound = max(map(abs, spec.values)) * (delta * (1 + _gamma(n * n + 1)) + rounding)
    drift = abs(float(x.trace()) - spec.block_trace)
    return bound <= EIG_TOL and drift <= EIG_TOL * n


def _model_image(q: np.ndarray, spec: Spectrum) -> np.ndarray:
    """q diag(a) q' for a frame q, checked to lie on the model as
    ``EmbeddedFlag`` checks it, and read-only.

    The Ostrowski certificate stands in for the eigenvalue check.  It
    accepts only a matrix whose exact eigenvalues are within EIG_TOL of the
    spectrum, less the margin it leaves for eigvalsh's backward error, so
    the eigenvalue check accepts it too whenever that error is within the
    margin.  When the certificate cannot prove membership, the eigenvalue
    check itself runs and gives the verdict and the error message."""
    x = _embedded_image(q, spec)
    if not _ostrowski_certifies(x, q, spec):
        _check_on_model(x, spec)
    x.setflags(write=False)
    return x


@dataclass(frozen=True, eq=False)
class EmbeddedFlag:
    """A point of the matrix model: symmetric, with eigenvalue a_i of
    multiplicity n_i for each block.  Validated on construction."""

    x: SymmetricMatrix
    spectrum: Spectrum

    def __post_init__(self):
        _check_size(self.x.entries, self.spectrum.signature)
        _check_on_model(self.x.entries, self.spectrum)

    @property
    def signature(self) -> FlagSignature:
        return self.spectrum.signature


def _certified_flag(x: np.ndarray, spec: Spectrum) -> EmbeddedFlag:
    """The EmbeddedFlag of a matrix that ``_model_image`` returned: it is
    already checked against the spectrum, so that check does not run again.
    ``SymmetricMatrix`` takes its own copy: keeping the image itself leaves
    the freed temporaries that built it between the kept matrices, and
    embedding 216 points at n = 96..160 then took about 1 MB more peak RSS."""
    return _prechecked(EmbeddedFlag, x=SymmetricMatrix(x), spectrum=spec)


def block_diagonal_model(spec: Spectrum) -> SymmetricMatrix:
    """The base point diag(a_1 I_{n_1}, ..., a_{p+1} I_{n_{p+1}})."""
    return SymmetricMatrix(np.diag(spec.repeated()))


def embed(f: FlagPoint, spec: Spectrum) -> EmbeddedFlag:
    """Realize the flag f as the symmetric matrix Q M Q'.

    The output depends only on the flag, not on the representative Q, and
    its eigenvalue multiset is {a_i with multiplicity n_i} exactly.
    """
    _check_same_signature(f.signature, spec.signature)
    return _certified_flag(_model_image(f.q, spec), spec)


def act(r: np.ndarray, f: FlagPoint) -> FlagPoint:
    """Rotate a flag: the representative becomes r Q.

    Equivariance: embedding the rotated flag equals conjugating the
    embedded matrix, embed(act(r, f)) = r embed(f) r'.
    """
    r = np.asarray(r, dtype=float)
    _check_special_orthogonal(r, f.signature.n)
    return FlagPoint(r @ f.q, f.signature)


def membership(x: SymmetricMatrix, spec: Spectrum) -> bool:
    """Does x lie on the model manifold, i.e. does its eigenvalue multiset
    match {a_i repeated n_i times} within EIG_TOL?"""
    _check_size(x.entries, spec.signature)
    return _eig_deviation(x.entries, spec) <= EIG_TOL


def recover(x: SymmetricMatrix, spec: Spectrum, eig_tol: float = EIG_TOL) -> FlagPoint:
    """Invert the embedding: read the flag off the eigenspaces of x.

    Eigenvalues are matched greedily to the nearest spectrum value; the
    match must be unambiguous (spectrum gaps > 2 * eig_tol) and complete
    (each eigenvalue within eig_tol of its value, multiplicities exact).
    The assembled eigenvector matrix is flipped to determinant +1 by
    negating one column of the last block, which fixes the representative
    without moving the flag.
    """
    sig = spec.signature
    _check_size(x.entries, sig)
    if spec.min_gap <= 2 * eig_tol:
        raise EigenvalueGapTooSmall(
            f"spectrum min gap {spec.min_gap:.3e} <= 2 * eig_tol = {2 * eig_tol:.3e}"
        )
    lam, vec = _eigh(x.entries)
    values = np.asarray(spec.values)
    found = [0] * len(values)
    for ev in lam:
        j = int(np.argmin(np.abs(values - ev)))
        if abs(values[j] - ev) > eig_tol:
            raise SpectrumMismatch(
                f"eigenvalue {float(ev)!r} is {abs(values[j] - ev):.3e} from the nearest "
                f"spectrum value {float(values[j])!r}"
            )
        found[j] += 1
    for j, (count, size) in enumerate(zip(found, sig.block_sizes)):
        if count != size:
            raise SpectrumMismatch(
                f"value {float(values[j])!r} needs multiplicity {size}, found {count}"
            )
    q = _block_frame(vec, spec)
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return FlagPoint(q, sig)


def traceless_split(x: SymmetricMatrix) -> tuple[SymmetricMatrix, float]:
    """Split x into its traceless part and its scalar part:
    x = x0 + c * I with trace(x0) = 0 and c = trace(x) / n."""
    c = x.trace / x.n
    return SymmetricMatrix(x.entries - c * np.eye(x.n)), c
