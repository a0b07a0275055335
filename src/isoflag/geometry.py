"""Invariant-metric geometry of the matrix model.

The rotation-invariant metric on flag velocities is

    <B, C> = 2 * sum_{i<j} (a_i - a_j)^2 tr(B_ij' C_ij),

and the matrix model realizes it isometrically: pushing a velocity B
forward gives the commutator Q [B, M] Q', whose Frobenius norm squared
equals <B, B> identically.  On top of this sit the tangent projector, the
nearest-point map onto the model manifold, the induced retraction, and a
projected-gradient descent loop.

``project_to_tangent`` and ``retract`` check their inputs and wrap the
result of one private array step (``_tangent_step``, ``_retract_step``);
``nearest_point`` and ``_retract_step`` share the eigen-solve
``_descending_eigh`` and the model image ``embed._model_image``, each with
its own gap tolerance.  The descent loop runs the array steps: it checks
``init`` and ``spec`` once, the user's gradient on every iteration, and
builds no wrapper until it returns.  Every model point a step produces is
checked by the Ostrowski certificate in ``embed._model_image``, which runs
the eigenvalue check of ``EmbeddedFlag`` only where it cannot decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embed import EmbeddedFlag, _block_frame, _certified_flag, _eigh, _model_image, embed
from .errors import DegenerateBoundaryGap, NotSymmetric, NumericalError, SpectrumInvalid, StepNotFinite
from .flagcore import (
    SPECTRUM_GAP_TOL,
    FlagPoint,
    FlagSignature,
    Spectrum,
    SymmetricMatrix,
    TangentBlock,
    _check_same_signature,
    _check_size,
    _check_symmetric,
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


def _tangent_step(g: np.ndarray, x: np.ndarray, spec: Spectrum) -> np.ndarray:
    """``project_to_tangent`` on arrays: g projected onto the tangent space
    at the model point x, in the eigenframe of x."""
    q = _block_frame(_eigh(x)[1], spec)
    m = q.T @ g @ q
    for s in spec.signature.block_slices():
        m[s, s] = 0.0
    v = q @ m @ q.T
    return (v + v.T) / 2.0


def project_to_tangent(g: SymmetricMatrix, base: EmbeddedFlag) -> EmbeddedTangent:
    """Frobenius-orthogonal projection of g onto the tangent space at base.x:
    conjugate into the eigenframe, zero the diagonal blocks, conjugate back.

    The frame is the eigenvectors of base.x in block order, taken afresh on
    each call.  base was checked against its spectrum when it was built, so
    no eigenvalue matching, orthogonality or determinant check runs here;
    the sign of a column does not change the projector.
    """
    _check_size(g.entries, base.signature)
    v = _tangent_step(g.entries, base.x.entries, base.spectrum)
    return EmbeddedTangent(SymmetricMatrix(v), base)


def _check_decreasing(spec: Spectrum) -> None:
    if any(nxt >= prev for prev, nxt in zip(spec.values, spec.values[1:])):
        raise SpectrumInvalid(f"nearest point needs a strictly decreasing spectrum, got {spec.values}")


def _descending_eigh(a: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The eigenvalues of the symmetric a in decreasing order, and the
    eigenvectors as columns in that order: the eigen-solve of
    ``nearest_point``, whose callers test the gaps at the block boundaries
    and take ``_model_image`` of the vectors."""
    lam, vec = _eigh(a)
    return lam.tolist()[::-1], vec[:, ::-1]


def nearest_point(a: SymmetricMatrix, spec: Spectrum, gap_tol: float = SPECTRUM_GAP_TOL) -> EmbeddedFlag:
    """Closest point of the model manifold to an arbitrary symmetric matrix.

    Sort the eigenvalues of a in decreasing order, to match the strictly
    decreasing spectrum block by block, and replace them with the model
    values: a = U L U' maps to U M U'.  Ties across a block boundary make
    the answer non-unique and raise ``DegenerateBoundaryGap``.
    """
    _check_size(a.entries, spec.signature)
    _check_decreasing(spec)
    lam, vec = _descending_eigh(a.entries)
    for k in spec.signature.ks:
        gap = lam[k - 1] - lam[k]
        if not gap > gap_tol:
            raise DegenerateBoundaryGap(
                f"eigenvalue gap {gap:.3e} at block boundary {k} is <= {gap_tol:.3e}", gap=gap
            )
    return _certified_flag(_model_image(vec, spec), spec)


def _retract_step(x: np.ndarray, v: np.ndarray, step: float, spec: Spectrum) -> np.ndarray:
    """``retract`` on arrays, for a nonzero step and a strictly decreasing
    spectrum: the read-only nearest point to x + step * v, certified on the
    model.  A step that overflows raises ``NotSymmetric``, as building
    x + step * v as a ``SymmetricMatrix`` would, and not the error that the
    eigen-solve or the gap test raises first on it; the finiteness test
    runs only after such an error, so a normal step does not pay for it."""
    moved = x + step * v
    try:
        lam, vec = _descending_eigh(moved)
        for k in spec.signature.ks:
            gap = lam[k - 1] - lam[k]
            if not gap > SPECTRUM_GAP_TOL:
                raise DegenerateBoundaryGap(
                    f"eigenvalue gap {gap:.3e} at block boundary {k} is <= {SPECTRUM_GAP_TOL:.3e}", gap=gap
                )
        return _model_image(vec, spec)
    except NumericalError:
        if not np.isfinite(moved).all():
            raise NotSymmetric("entries must be finite") from None
        raise


def retract(base: EmbeddedFlag, v: EmbeddedTangent, step: float) -> EmbeddedFlag:
    """Projection retraction: nearest point to base.x + step * v.

    Lands exactly on the manifold and agrees with the straight line to
    first order, so the deviation from base.x + step * v is O(step^2).
    """
    if step == 0.0:
        return base
    spec = base.spectrum
    _check_decreasing(spec)
    return _certified_flag(_retract_step(base.x.entries, v.v.entries, step, spec), spec)


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

    What is checked, and where: ``init`` and ``spec`` on entry; the array
    ``objective_grad`` returns on every iteration (non-finite entries raise
    ``StepNotFinite``, a non-square or asymmetric one ``NotSymmetric``, a
    wrong size ``SignatureMismatch``); a non-decreasing spectrum at the
    first retraction, as ``nearest_point`` checks it; and every iterate,
    by the Ostrowski certificate or, where that cannot decide, by the
    eigenvalue check of ``EmbeddedFlag``.  ``objective_grad`` receives each
    iterate as a read-only array.  The returned point is that last
    iterate, or ``init`` itself when no step was taken.
    """
    _check_same_signature(init.signature, spec.signature)
    if init.spectrum != spec:
        raise SpectrumInvalid(f"init has spectrum {init.spectrum.values}, descent was given {spec.values}")
    if step is None:
        step = default_step(spec)
    x = init.x.entries
    norms: list[float] = []
    iterations = 0
    while True:
        g = _checked_gradient(objective_grad(x), spec.signature)
        v = _tangent_step(g, x, spec)
        gn = float(np.linalg.norm(v))
        norms.append(gn)
        converged = gn <= grad_tol
        if converged or iterations >= max_iters:
            break
        if step != 0.0:
            if iterations == 0:
                _check_decreasing(spec)  # where the first retraction checks it
            x = _retract_step(x, v, -step, spec)
        iterations += 1
    point = init if x is init.x.entries else _certified_flag(x, spec)
    return DescentResult(point, tuple(norms), iterations, converged)


def _checked_gradient(g, sig: FlagSignature) -> np.ndarray:
    """The user's gradient as a float array, checked as ``SymmetricMatrix``
    and ``project_to_tangent`` check theirs."""
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise StepNotFinite("objective gradient returned non-finite entries")
    _check_symmetric(g)
    _check_size(g, sig)
    return g
