"""Shared sampling and file-writing helpers for the tests."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from isoflag import FlagSignature, make_signature, random_flag_point


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


@functools.cache
def frame_within_orth_tol(n: int) -> np.ndarray:
    """A rotation scaled by 1 + 4.9e-11/sqrt(n), read-only: ||Q'Q - I||_F is about
    9.8e-11, inside ORTH_TOL, and det Q about 1 + 4.9e-11 sqrt(n), more than 1e-9
    from 1 for n > 416."""
    q = random_flag_point(make_signature(n, [n // 2]), n).q * (1 + 4.9e-11 / math.sqrt(n))
    q.setflags(write=False)
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


@functools.cache
def branching_dim(n: int, doubled: tuple[int, ...]) -> int:
    """The dimension of the SO(n) module of doubled highest weight ``doubled``
    by Gelfand-Tsetlin branching: the sum of the dimensions of the SO(n-1)
    weights e that interlace it, down to SO(2), whose modules have dimension 1.
    Entries step by 2.  From n = 2m+1, e_i in [d_{i+1}, d_i] for i < m and
    e_m in [-d_m, d_m]; from n = 2m, e_i in [d_{i+1}, d_i] for i < m-1 and
    e_{m-1} in [|d_m|, d_{m-1}].  It shares no formula with ``weyl_dim``."""
    if n == 2:
        return 1
    d, m = doubled, n // 2
    if n % 2:
        ranges = [(d[i + 1], d[i]) for i in range(m - 1)] + [(-d[-1], d[-1])]
    else:
        ranges = [(d[i + 1], d[i]) for i in range(m - 2)] + [(abs(d[-1]), d[-2])]
    return sum(branching_dim(n - 1, e)
               for e in itertools.product(*(range(lo, hi + 1, 2) for lo, hi in ranges)))


def exact_ladder(sig: FlagSignature) -> tuple[Fraction, ...]:
    """The canonical spectrum by its definition in exact rationals: the ladder
    p, ..., 1, 0 over the blocks less its block-size-weighted mean, over p."""
    r = sig.num_blocks
    ladder = [r - 1 - i for i in range(r)]
    mean = Fraction(sum(s * c for s, c in zip(sig.block_sizes, ladder)), sig.n)
    return tuple(Fraction(c - mean, r - 1) for c in ladder)


def gauss_jordan(rows: list[list[Fraction]], cols: int) -> int:
    """Reduce the ``Fraction`` rows in place to reduced row echelon form over
    their first ``cols`` columns, and return the rank of those columns."""
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and (f := rows[r][c]):
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def exact_rank(rows) -> int:
    """The rank of a matrix of rationals, by ``Fraction`` elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    return gauss_jordan(rows, len(rows[0])) if rows else 0


def random_integer_skew(n: int, rng: np.random.Generator, bound: int = 3) -> list[list[int]]:
    """A skew n x n matrix of integers in [-bound, bound]."""
    s = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        s[i][j] = int(rng.integers(-bound, bound + 1))
        s[j][i] = -s[i][j]
    return s


def cayley_frame(s: list[list[int]]) -> list[list[Fraction]]:
    """Q = (I + S)^{-1} (I - S) of a skew S, exactly: a rotation with rational
    entries (I + S is invertible, and det Q = det(I - S) / det(I + S) = 1)."""
    n = len(s)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = [[Fraction(e + v) for e, v in zip(ei, si)] + [Fraction(e - v) for e, v in zip(ei, si)]
            for ei, si in zip(eye, s)]
    gauss_jordan(rows, n)
    return [row[n:] for row in rows]


def exact_image(q: list[list[Fraction]], sig: FlagSignature, values) -> list[list[Fraction]]:
    """X = Q diag(a) Q' in rationals, a the ``values`` repeated by block size."""
    diag = [a for a, size in zip(values, sig.block_sizes) for _ in range(size)]
    return [[sum(qi[k] * diag[k] * qj[k] for k in range(sig.n)) for qj in q] for qi in q]


def isotropy_generators(sig: FlagSignature) -> tuple[list[list[list[int]]], list[list[list[int]]]]:
    """Integer n x n matrices that generate H = S(O(n_1) x ... x O(n_b)), the
    isotropy group of the base flag: the so(n_i) generators
    E_{a,a+1} - E_{a+1,a} inside each block, which generate the identity
    component, and the det-1 sign pairs, -1 on the first coordinate of block 0
    and of block j, which meet every other component."""
    n, blocks = sig.n, sig.block_slices()

    def matrix(entries: dict) -> list[list[int]]:
        return [[entries.get((i, j), 0) for j in range(n)] for i in range(n)]

    algebra = [matrix({(a, a + 1): 1, (a + 1, a): -1}) for s in blocks for a in range(s.start, s.stop - 1)]
    signs = [matrix({(i, i): -1 if i in (0, s.start) else 1 for i in range(n)}) for s in blocks[1:]]
    return algebra, signs


def _basis_product(indices: tuple[int, ...], alternating: bool) -> tuple[int, tuple[int, ...]]:
    """(sign, key) with e_{i_1} ... e_{i_q} = sign * e_key, key the sorted
    indices: in the exterior algebra the sign of the sorting permutation, 0
    for a repeated index; in the symmetric algebra 1."""
    key = tuple(sorted(indices))
    if not alternating:
        return 1, key
    if len(set(key)) < len(key):
        return 0, key
    return (-1) ** sum(a > b for a, b in itertools.combinations(indices, 2)), key


def induced_action(x: list[list[int]], q: int, alternating: bool, derivation: bool) -> list[list[int]]:
    """The integer matrix of the integer n x n matrix x on the q-th exterior
    (``alternating``) or symmetric power of R^n, over the sorted index tuples:
    by the Leibniz rule for a Lie algebra element (``derivation``), else as
    the group element x (x) ... (x) x."""
    n = len(x)
    powers = itertools.combinations if alternating else itertools.combinations_with_replacement
    basis = list(powers(range(n), q))
    index = {key: c for c, key in enumerate(basis)}
    m = [[0] * len(basis) for _ in basis]
    for c, key in enumerate(basis):
        images = [[(r, x[r][i]) for r in range(n) if x[r][i]] for i in key]
        if derivation:
            terms = [(key[:k] + (r,) + key[k + 1:], v) for k, image in enumerate(images) for r, v in image]
        else:
            terms = [(tuple(r for r, _ in choice), math.prod(v for _, v in choice)) for choice in itertools.product(*images)]
        for indices, v in terms:
            sign, out = _basis_product(indices, alternating)
            if sign:
                m[index[out]][c] += sign * v
    return m


def tangent_rank(v, generators) -> int:
    """The exact rank of {rho(X) v}, the orbit's tangent space at the vector
    ``v`` of a module: ``generators`` are the matrices rho(X) of a basis of the
    Lie algebra acting on it."""
    return exact_rank([[sum(a * b for a, b in zip(row, v)) for row in x] for x in generators])


def fixed_space_dim(sig: FlagSignature, q: int, alternating: bool) -> int:
    """dim V^H, exactly, for V the q-th exterior (``alternating``) or symmetric
    power of R^n and H the isotropy group of ``isotropy_generators``: dim V
    less the exact rank of the stacked generator actions and (sign pair - I)."""
    algebra, signs = isotropy_generators(sig)
    rows = [row for x in algebra for row in induced_action(x, q, alternating, True)]
    for g in signs:
        rows += [[v - (c == d) for d, v in enumerate(row)] for c, row in enumerate(induced_action(g, q, alternating, False))]
    dim = math.comb(sig.n, q) if alternating else math.comb(sig.n + q - 1, q)
    return dim - exact_rank(rows)
