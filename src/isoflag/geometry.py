"""Invariant-metric geometry of the matrix model.

The rotation-invariant metric on flag velocities is

    <B, C> = 2 * sum_{i<j} (a_i - a_j)^2 tr(B_ij' C_ij),

and the matrix model realizes it isometrically: pushing a velocity B
forward gives the commutator Q [B, M] Q', whose Frobenius norm squared
equals <B, B> identically.  On top of this sit the tangent projector, the
nearest-point map onto the model manifold, the induced retraction, and a
projected-gradient descent loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embed import EmbeddedFlag, _block_frame, _eigh, embed
from .errors import DegenerateBoundaryGap, SpectrumInvalid, StepNotFinite
from .flagcore import (
    SPECTRUM_GAP_TOL,
    FlagPoint,
    Spectrum,
    SymmetricMatrix,
    TangentBlock,
    _check_same_signature,
    _check_size,
)


def metric_inner(b: TangentBlock, c: TangentBlock, spec: Spectrum) -> float:
    """<B, C> = 2 sum_{i<j} (a_i - a_j)^2 tr(B_ij' C_ij), the invariant metric
    determined by the spectrum; each weight (a_i - a_j)^2 is positive since
    the values are distinct."""
    _check_same_signature(b.signature, c.signature)
    _check_same_signature(b.signature, spec.signature)
    v = spec.values
    total = 0.0
    for (i, j), bb, cc in zip(b.signature.block_pairs(), b.blocks, c.blocks):
        total += (v[i] - v[j]) ** 2 * float(np.sum(bb * cc))
    return 2.0 * total


@dataclass(frozen=True, eq=False)
class EmbeddedTangent:
    """A tangent vector v of the model manifold at base.x: a symmetric
    matrix whose diagonal blocks vanish in the eigenframe of the base."""

    v: SymmetricMatrix
    base: EmbeddedFlag


def _bracket_with_model(b: TangentBlock, spec: Spectrum) -> np.ndarray:
    """[B, M] for the block-scalar model M: block (i, j) is (a_j - a_i) B_ij."""
    sig = b.signature
    sl = sig.block_slices()
    vals = spec.values
    out = np.zeros((sig.n, sig.n))
    for (i, j), blk in zip(sig.block_pairs(), b.blocks):
        scaled = (vals[j] - vals[i]) * blk
        out[sl[i], sl[j]] = scaled
        out[sl[j], sl[i]] = scaled.T
    return out


def push_tangent(b: TangentBlock, f: FlagPoint, spec: Spectrum) -> EmbeddedTangent:
    """Pushforward of the velocity B at the flag f: v = Q [B, M] Q',
    the derivative at t = 0 of t -> (Q e^{tB}) M (Q e^{tB})'."""
    _check_same_signature(b.signature, f.signature)
    _check_same_signature(b.signature, spec.signature)
    v = f.q @ _bracket_with_model(b, spec) @ f.q.T
    return EmbeddedTangent(SymmetricMatrix((v + v.T) / 2.0), embed(f, spec))


def isometry_defect(b: TangentBlock, spec: Spectrum) -> float:
    """| ||[B, M]||_F^2 - <B, B> |; identically zero up to roundoff, which
    is what makes the model an isometric realization."""
    _check_same_signature(b.signature, spec.signature)
    bracket = _bracket_with_model(b, spec)
    lhs = float(np.sum(bracket * bracket))
    rhs = metric_inner(b, b, spec)
    return abs(lhs - rhs)


def project_to_tangent(g: SymmetricMatrix, base: EmbeddedFlag) -> EmbeddedTangent:
    """Frobenius-orthogonal projection of g onto the tangent space at base.x:
    conjugate into the eigenframe, zero the diagonal blocks, conjugate back.

    The frame is the eigenvectors of base.x in block order, taken afresh on
    each call.  base was checked against its spectrum when it was built, so
    no eigenvalue matching, orthogonality or determinant check runs here;
    the sign of a column does not change the projector.
    """
    _check_size(g, base.signature)
    q = _block_frame(_eigh(base.x.entries)[1], base.spectrum)
    m = q.T @ g.entries @ q
    for s in base.signature.block_slices():
        m[s, s] = 0.0
    v = q @ m @ q.T
    return EmbeddedTangent(SymmetricMatrix((v + v.T) / 2.0), base)


def nearest_point(a: SymmetricMatrix, spec: Spectrum, gap_tol: float = SPECTRUM_GAP_TOL) -> EmbeddedFlag:
    """Closest point of the model manifold to an arbitrary symmetric matrix.

    Sort the eigenvalues of a in decreasing order, to match the strictly
    decreasing spectrum block by block, and replace them with the model
    values: a = U L U' maps to U M U'.  Ties across a block boundary make
    the answer non-unique and raise ``DegenerateBoundaryGap``.
    """
    sig = spec.signature
    _check_size(a, sig)
    if any(nxt >= prev for prev, nxt in zip(spec.values, spec.values[1:])):
        raise SpectrumInvalid(f"nearest point needs a strictly decreasing spectrum, got {spec.values}")
    lam, vec = _eigh(a.entries)
    lam = lam[::-1]
    vec = vec[:, ::-1]
    for k in sig.ks:
        gap = float(lam[k - 1] - lam[k])
        if gap <= gap_tol:
            raise DegenerateBoundaryGap(
                f"eigenvalue gap {gap:.3e} at block boundary {k} is <= {gap_tol:.3e}", gap=gap
            )
    x = (vec * spec.repeated()) @ vec.T
    return EmbeddedFlag(SymmetricMatrix((x + x.T) / 2.0), spec)


def distance_to_model(a: SymmetricMatrix, spec: Spectrum) -> float:
    """Frobenius distance from a to the model manifold."""
    return float(np.linalg.norm(a.entries - nearest_point(a, spec).x.entries))


def retract(base: EmbeddedFlag, v: EmbeddedTangent, step: float) -> EmbeddedFlag:
    """Projection retraction: nearest point to base.x + step * v.

    Lands exactly on the manifold and agrees with the straight line to
    first order, so the deviation from base.x + step * v is O(step^2).
    """
    if step == 0.0:
        return base
    moved = SymmetricMatrix(base.x.entries + step * v.v.entries)
    return nearest_point(moved, base.spectrum)


def default_step(spec: Spectrum) -> float:
    """0.1 / max_{i,j} (a_i - a_j)^2: invariant under rescaling the spectrum."""
    return 0.1 / spec.max_gap**2


@dataclass(frozen=True)
class DescentResult:
    point: EmbeddedFlag
    grad_norms: tuple[float, ...]
    iterations: int
    converged: bool

    @property
    def final_grad_norm(self) -> float:
        return self.grad_norms[-1]


def gradient_descent(
    objective_grad: Callable[[np.ndarray], np.ndarray],
    spec: Spectrum,
    init: EmbeddedFlag,
    step: float | None = None,
    max_iters: int = 500,
    grad_tol: float = 1e-6,
) -> DescentResult:
    """Projected-gradient descent on the model manifold.

    ``objective_grad`` maps a manifold point (as an ndarray) to the ambient
    Euclidean gradient there.  Each iteration projects the gradient onto
    the tangent space, records its Frobenius norm, and retracts along the
    negative direction; iteration stops once the projected-gradient norm
    falls to ``grad_tol`` or after ``max_iters`` steps.  The recorded norm
    trace is diagnostic only; monotone decrease is not guaranteed.
    ``init`` must be embedded with ``spec`` itself: the default step comes
    from ``spec`` and every retraction lands on ``init.spectrum``.
    """
    _check_same_signature(init.signature, spec.signature)
    if init.spectrum != spec:
        raise SpectrumInvalid(f"init has spectrum {init.spectrum.values}, descent was given {spec.values}")
    if step is None:
        step = default_step(spec)
    x = init
    norms: list[float] = []
    iterations = 0
    while True:
        g = np.asarray(objective_grad(np.asarray(x.x.entries)), dtype=float)
        if not np.all(np.isfinite(g)):
            raise StepNotFinite("objective gradient returned non-finite entries")
        t = project_to_tangent(SymmetricMatrix(g), x)
        gn = float(np.linalg.norm(t.v.entries))
        norms.append(gn)
        converged = gn <= grad_tol
        if converged or iterations >= max_iters:
            break
        x = retract(x, t, -step)
        iterations += 1
    return DescentResult(x, tuple(norms), iterations, converged)
