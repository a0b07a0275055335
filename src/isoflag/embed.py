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
from functools import lru_cache

import numpy as np

from .errors import (
    EigenSolverFailed,
    EigenvalueGapTooSmall,
    NotSpecialOrthogonal,
    SpectrumMismatch,
    _check_tolerance,
)
from .flagcore import (
    EIG_TOL,
    FlagPoint,
    FlagSignature,
    Spectrum,
    SymmetricMatrix,
    _check_same_signature,
    _check_size,
    _embedded_image,
    _orth_defect,
    _oriented_flag,
    _prechecked,
    _trusted_symmetric,
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
    return vec.take(spec._frame_columns, axis=1)


def _eig_deviation(lam: np.ndarray, spec: Spectrum) -> float:
    """Largest distance between the ascending eigenvalues lam of an n x n
    symmetric matrix and the spectrum values repeated by block size."""
    return float(np.max(np.abs(lam - np.sort(spec._diagonal))))


def _check_on_model(lam: np.ndarray, spec: Spectrum, eig_tol: float) -> None:
    """Raise ``SpectrumMismatch`` unless the ascending eigenvalues lam of an
    n x n symmetric x are those of the model within eig_tol.

    That bounds the trace too, so it is not compared on its own: with
    lambda_j the sorted eigenvalues of x and t_j the sorted repeated
    spectrum, |tr x - sum n_i a_i| = |sum (lambda_j - t_j)|
    <= n * max |lambda_j - t_j| <= n * eig_tol, up to the rounding of the
    trace itself and of eigvalsh."""
    worst = _eig_deviation(lam, spec)
    if not worst <= eig_tol:
        raise SpectrumMismatch(
            f"eigenvalues deviate from the prescribed spectrum by {worst:.3e} > {eig_tol:.3e}"
        )


_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def _gamma(m: int) -> float:
    """m u / (1 - m u), u the unit roundoff: the relative error bound of a
    sum or dot product of m terms in double precision."""
    mu = m * _UNIT_ROUNDOFF
    return mu / (1 - mu)


@lru_cache(maxsize=None)
def _rounding_terms(n: int) -> tuple[float, float]:
    """The two rounding terms of the certificate at size n: the factor
    1 + gamma(n^2 + 1) on the computed norm, and 4 n gamma(n + 3) + 8 n u
    for the products, the symmetrization and eigvalsh."""
    return 1 + _gamma(n * n + 1), 4 * n * _gamma(n + 3) + 8 * n * _UNIT_ROUNDOFF


def _ostrowski_certifies(delta: float, n: int, spec: Spectrum) -> bool:
    """Does the defect delta = ||q'q - I||_F of an n x n frame q prove that
    q diag(a) q', computed by ``_embedded_image``, passes ``_check_on_model``?

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
    max|a| * 8 n u for them.
    """
    if not delta <= 0.5:
        return False
    growth, rounding = _rounding_terms(n)
    bound = spec._max_abs * (delta * growth + rounding)
    return bound <= EIG_TOL


def _newton_schulz(q: np.ndarray) -> np.ndarray:
    """q(3I - q'q)/2: one Newton-Schulz step toward the orthogonal polar
    factor of q (Higham, *Functions of Matrices*, 2008, ch. 8).  For
    ||q'q - I||_F = delta <= 1/2 the new defect is at most about 3/4 delta^2,
    and the column span of each block moves by O(delta)."""
    return q @ ((3.0 * np.eye(q.shape[0]) - q.T @ q) / 2.0)


def _model_image(q: np.ndarray, spec: Spectrum) -> np.ndarray:
    """q diag(a) q' for a frame q, checked to lie on the model as
    ``EmbeddedFlag`` checks it, and read-only.

    The frame is settled first and its one image formed after.  The Ostrowski
    certificate stands in for the eigenvalue check.  It accepts only a matrix
    whose exact eigenvalues are within EIG_TOL of the spectrum, less the
    margin it leaves for eigvalsh's backward error, so the eigenvalue check
    accepts it too whenever that error is within the margin.  When it declines
    a frame for its defect alone, one that an orthogonal frame would pass, and
    the defect is at most 1/2, one Newton-Schulz step repairs the frame before
    its image is formed: LAPACK's eigenvectors of a matrix with clustered
    eigenvalues can be orthonormal to within only 1e-5.  When the certificate
    still cannot prove membership, the eigenvalue check itself runs on the
    image and gives the verdict and the error message."""
    n, delta = q.shape[0], _orth_defect(q)
    certified = _ostrowski_certifies(delta, n, spec)
    if not certified and delta <= 0.5 and _ostrowski_certifies(0.0, n, spec):
        q = _newton_schulz(q)
        certified = _ostrowski_certifies(_orth_defect(q), n, spec)
    x = _embedded_image(q, spec)
    if not certified:
        _check_on_model(_eigh(x, vectors=False), spec, EIG_TOL)
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
        _check_on_model(_eigh(self.x.entries, vectors=False), self.spectrum, EIG_TOL)

    @property
    def signature(self) -> FlagSignature:
        return self.spectrum.signature


def _certified_flag(x: np.ndarray, spec: Spectrum) -> EmbeddedFlag:
    """The EmbeddedFlag of an image that ``_model_image`` certified, built with no check.
    It keeps a copy: keeping the image itself leaves the freed temporaries that built
    it between the kept matrices, and embedding 216 points at n = 96..160 then took
    about 1 MB more peak RSS."""
    return _prechecked(EmbeddedFlag, x=_trusted_symmetric(x.copy()), spectrum=spec)


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
    r = FlagPoint(r, f.signature).q  # r read and checked as a frame is
    q = r @ f.q
    try:
        return _oriented_flag(q, f.signature)
    except NotSpecialOrthogonal:  # the defects of r and f.q add up: repair the product
        return _oriented_flag(_newton_schulz(q), f.signature)


def membership(x: SymmetricMatrix, spec: Spectrum) -> bool:
    """Does x lie on the model manifold, i.e. does its eigenvalue multiset
    match {a_i repeated n_i times} within EIG_TOL?"""
    _check_size(x.entries, spec.signature)
    return _eig_deviation(_eigh(x.entries, vectors=False), spec) <= EIG_TOL


def recover(x: SymmetricMatrix, spec: Spectrum, eig_tol: float = EIG_TOL) -> FlagPoint:
    """Invert the embedding: read the flag off the eigenspaces of x.

    The spectrum gaps must exceed 2 * eig_tol, and the sorted eigenvalues of
    x must each lie within eig_tol of the sorted repeated spectrum.  The gap
    guard makes that one sorted comparison exact: the intervals of radius
    eig_tol around the spectrum values are then disjoint, so it accepts
    exactly when each eigenvalue lies within eig_tol of its nearest value
    and each value is found with its block's multiplicity, and eigh's
    ascending eigenvectors then go to their blocks in order.  The assembled
    eigenvector matrix is flipped to determinant +1 by negating one column
    of the last block, which fixes the representative without moving the
    flag.
    """
    sig = spec.signature
    _check_size(x.entries, sig)
    eig_tol = _check_tolerance("eig_tol", eig_tol)
    if spec.min_gap <= 2 * eig_tol:
        raise EigenvalueGapTooSmall(
            f"spectrum min gap {spec.min_gap:.3e} <= 2 * eig_tol = {2 * eig_tol:.3e}"
        )
    lam, vec = _eigh(x.entries)
    _check_on_model(lam, spec, eig_tol)
    return _oriented_flag(_block_frame(vec, spec), sig)
