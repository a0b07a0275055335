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
    q[:, np.argsort(spec.repeated(), kind="stable")] = vec
    return q


def _eig_deviation(x: SymmetricMatrix, spec: Spectrum) -> float:
    """Largest distance between the sorted eigenvalues of x and the spectrum
    values repeated by block size."""
    _check_size(x, spec.signature)
    target = np.sort(spec.repeated())
    actual = _eigh(x.entries, vectors=False)
    return float(np.max(np.abs(actual - target)))


@dataclass(frozen=True, eq=False)
class EmbeddedFlag:
    """A point of the matrix model: symmetric, with eigenvalue a_i of
    multiplicity n_i for each block.  Validated on construction."""

    x: SymmetricMatrix
    spectrum: Spectrum

    def __post_init__(self):
        worst = _eig_deviation(self.x, self.spectrum)
        if worst > EIG_TOL:
            raise SpectrumMismatch(
                f"eigenvalues deviate from the prescribed spectrum by {worst:.3e} > {EIG_TOL:.3e}"
            )
        drift = abs(self.x.trace - self.spectrum.block_trace)
        if drift > EIG_TOL * self.x.n:
            raise SpectrumMismatch(f"trace off by {drift:.3e}")

    @property
    def signature(self) -> FlagSignature:
        return self.spectrum.signature


def block_diagonal_model(spec: Spectrum) -> SymmetricMatrix:
    """The base point diag(a_1 I_{n_1}, ..., a_{p+1} I_{n_{p+1}})."""
    return SymmetricMatrix(np.diag(spec.repeated()))


def embed(f: FlagPoint, spec: Spectrum) -> EmbeddedFlag:
    """Realize the flag f as the symmetric matrix Q M Q'.

    The output depends only on the flag, not on the representative Q, and
    its eigenvalue multiset is {a_i with multiplicity n_i} exactly.
    """
    _check_same_signature(f.signature, spec.signature)
    return EmbeddedFlag(SymmetricMatrix(_embedded_image(f, spec)), spec)


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
    return _eig_deviation(x, spec) <= EIG_TOL


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
    _check_size(x, sig)
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
