"""Shared sampling and file-writing helpers for the tests."""

from __future__ import annotations

import numpy as np

from isoflag import FlagSignature, make_signature


def random_signature(rng: np.random.Generator, n_min: int = 2, n_max: int = 12) -> FlagSignature:
    n = int(rng.integers(n_min, n_max + 1))
    p = int(rng.integers(1, n))
    ks = sorted(rng.choice(np.arange(1, n), size=p, replace=False).tolist())
    return make_signature(n, ks)


def haar_special_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, -1] = -q[:, -1]
    return q


def random_block_stabilizer(sig: FlagSignature, rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal orthogonal matrix with overall determinant +1."""
    n = sig.n
    s = np.zeros((n, n))
    for sl, size in zip(sig.block_slices(), sig.block_sizes):
        block = haar_special_orthogonal(size, rng) if size > 1 else np.array([[1.0]])
        if rng.random() < 0.5:
            block = block.copy()
            block[:, 0] = -block[:, 0]
        s[sl, sl] = block
    if np.linalg.det(s) < 0:
        last = sig.block_slices()[-1]
        s[:, last.stop - 1] = -s[:, last.stop - 1]
    return s


def no_convergence(*args, **kwargs):
    """Stand-in for a LAPACK eigen-solver that fails, as numpy reports it."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def random_symmetric(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def format_matrix_file(a: np.ndarray) -> str:
    """The matrix-file text the CLI reads: the size n, then n rows of
    17-significant-digit entries."""
    a = np.asarray(a)
    rows = (" ".join(format(float(v), ".17g") for v in row) for row in a)
    return "\n".join([str(a.shape[0]), *rows]) + "\n"
