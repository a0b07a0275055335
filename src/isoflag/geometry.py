"""Invariant-metric geometry of the matrix model.

The rotation-invariant metric on flag velocities is

    <B, C> = 2 * sum_{i<j} (a_i - a_j)^2 tr(B_ij' C_ij),

and the matrix model realizes it isometrically: pushing a velocity B
forward gives the commutator Q [B, M] Q', whose Frobenius norm squared
equals <B, B> identically.  On top of this sit the tangent projector, the
nearest-point map onto the model manifold, the induced retraction, and a
projected-gradient descent loop.

``project_to_tangent`` and ``retract`` check their inputs and run one
private array step (``_tangent_step``, ``_retract_step``) under the one
overflow policy, ``flagcore._quietly``.  ``nearest_point`` and
``_retract_step`` both call ``_nearest_image``: the descending eigen-solve,
the one refusal of a tie at a block boundary, and ``embed._model_image``.
No result is checked again; ``flagcore._trusted_symmetric`` says why.
The descent loop runs the array steps and builds no wrapper until it
returns.  It checks ``init``, ``spec``, ``step``, ``max_iters`` and
``grad_tol`` once, on entry.  Each iteration then checks three things,
each in one place: the user's gradient, in ``_checked_gradient`` (one
asymmetry defect, with the ordered checks of ``SymmetricMatrix`` run only
when that defect cannot accept it); the gaps at the block boundaries, in
``_nearest_image``; and the new iterate, by the Ostrowski certificate in
``embed._model_image``, which repairs a frame it declines for its defect
alone by one Newton-Schulz step and runs the eigenvalue check of
``EmbeddedFlag`` only where it still cannot decide.  An iteration makes two
eigen-solves, one in each step.  The whole loop, ``objective_grad``
included, runs under ``_quietly`` once per call, so an overflowing
gradient, projection or step is refused, or recorded as an inf norm,
without a warning, and no iteration sets an error state of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embed import EmbeddedFlag, _block_frame, _certified_flag, _eigh, _model_image, embed
from .errors import (
    DegenerateBoundaryGap,
    NotSymmetric,
    NumericalError,
    SpectrumInvalid,
    StepNotFinite,
    _at_least,
    _check_tolerance,
    _finite_factor,
)
from .flagcore import (
    SPECTRUM_GAP_TOL,
    SYM_TOL,
    FlagPoint,
    FlagSignature,
    Spectrum,
    SymmetricMatrix,
    TangentBlock,
    _check_same_signature,
    _check_size,
    _check_symmetric,
    _float_array,
    _frobenius,
    _quietly,
    _trusted_symmetric,
)


def _max_gap_squared(spec: Spectrum) -> float:
    """max_{i,j} (a_i - a_j)^2, the largest weight of the metric, or
    ``SpectrumInvalid`` where it overflows (a spread above about 1.3e154)."""
    try:
        return spec.max_gap**2
    except OverflowError:
        raise SpectrumInvalid(
            f"spectrum spread {spec.max_gap:.3e} is too large: its square overflows"
        ) from None


def metric_inner(b: TangentBlock, c: TangentBlock, spec: Spectrum) -> float:
    """<B, C> = 2 sum_{i<j} (a_i - a_j)^2 tr(B_ij' C_ij), the invariant metric of
    the spectrum, summed over all entries with d the repeated spectrum; each
    weight (a_i - a_j)^2 is positive since the values are distinct.  A sum past
    the largest double raises ``NumericalError``."""
    _check_same_signature(b.signature, c.signature)
    _check_same_signature(b.signature, spec.signature)
    _max_gap_squared(spec)  # every weight is finite
    d = spec._diagonal
    w = (d[:, None] - d[None, :]) ** 2
    return _quietly(lambda: float(np.sum(w * b.matrix * c.matrix)), "metric sum <B, C> overflows")


@dataclass(frozen=True, eq=False)
class EmbeddedTangent:
    """A tangent vector v of the model manifold at base.x: a symmetric
    matrix whose diagonal blocks vanish in the eigenframe of the base."""

    v: SymmetricMatrix
    base: EmbeddedFlag


def _bracket_with_model(b: TangentBlock, spec: Spectrum) -> np.ndarray:
    """[B, M] for the block-scalar model M: block (i, j) is (a_j - a_i) B_ij."""
    d = spec._diagonal
    return b.matrix * (d[None, :] - d[:, None])


def push_tangent(b: TangentBlock, f: FlagPoint, spec: Spectrum) -> EmbeddedTangent:
    """Pushforward of the velocity B at the flag f: v = Q [B, M] Q',
    the derivative at t = 0 of t -> (Q e^{tB}) M (Q e^{tB})'.

    Raises ``NumericalError`` where a finite block times the spectrum gaps,
    or its conjugate, overflows, which numpy would only warn about."""
    _check_same_signature(b.signature, f.signature)
    _check_same_signature(b.signature, spec.signature)

    def conjugated():
        v = f.q @ _bracket_with_model(b, spec) @ f.q.T
        return (v + v.T) / 2.0

    return EmbeddedTangent(_trusted_symmetric(_quietly(conjugated, "pushforward overflows")), embed(f, spec))


def isometry_defect(b: TangentBlock, spec: Spectrum) -> float:
    """| ||[B, M]||_F^2 - <B, B> |; identically zero up to roundoff, which
    is what makes the model an isometric realization."""
    rhs = metric_inner(b, b, spec)
    lhs = _quietly(lambda: float(np.sum(np.square(_bracket_with_model(b, spec)))), "||[B, M]||_F^2 overflows")
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
    the sign of a column does not change the projector.  A finite g whose
    projection overflows raises ``NumericalError``.
    """
    _check_size(g.entries, base.signature)
    v = _quietly(lambda: _tangent_step(g.entries, base.x.entries, base.spectrum), "tangent projection overflows")
    return EmbeddedTangent(_trusted_symmetric(v), base)


def _check_decreasing(spec: Spectrum) -> None:
    if any(nxt >= prev for prev, nxt in zip(spec.values, spec.values[1:])):
        raise SpectrumInvalid(f"nearest point needs a strictly decreasing spectrum, got {spec.values}")


def _nearest_image(a: np.ndarray, spec: Spectrum, gap_tol: float) -> np.ndarray:
    """``nearest_point`` on arrays, for a strictly decreasing spectrum: the
    eigenvectors of the symmetric a in decreasing order of eigenvalue, a gap
    at a block boundary of at most gap_tol refused with
    ``DegenerateBoundaryGap``, and ``_model_image`` of those vectors."""
    lam, vec = _eigh(a)
    lam = lam.tolist()[::-1]
    for k in spec.signature.ks:
        gap = lam[k - 1] - lam[k]
        if not gap > gap_tol:
            raise DegenerateBoundaryGap(
                f"eigenvalue gap {gap:.3e} at block boundary {k} is <= {gap_tol:.3e}", gap=gap
            )
    return _model_image(vec[:, ::-1], spec)


def nearest_point(a: SymmetricMatrix, spec: Spectrum, gap_tol: float = SPECTRUM_GAP_TOL) -> EmbeddedFlag:
    """Closest point of the model manifold to an arbitrary symmetric matrix.

    Sort the eigenvalues of a in decreasing order, to match the strictly
    decreasing spectrum block by block, and replace them with the model
    values: a = U L U' maps to U M U'.  Ties across a block boundary make
    the answer non-unique and raise ``DegenerateBoundaryGap``.
    """
    _check_size(a.entries, spec.signature)
    gap_tol = _check_tolerance("gap_tol", gap_tol)
    _check_decreasing(spec)
    return _certified_flag(_nearest_image(a.entries, spec, gap_tol), spec)


def _retract_step(x: np.ndarray, v: np.ndarray, step: float, spec: Spectrum) -> np.ndarray:
    """``retract`` on arrays, for a nonzero step and a strictly decreasing
    spectrum: the read-only nearest point to x + step * v, certified on the
    model.  A step that overflows raises ``NotSymmetric``, as the matrix
    x + step * v would, not the error that projecting it raises first; the
    finiteness test runs only after that error, so a normal step skips it."""
    moved = x + step * v
    try:
        return _nearest_image(moved, spec, SPECTRUM_GAP_TOL)
    except NumericalError:
        if not np.isfinite(moved).all():
            raise NotSymmetric("entries must be finite") from None
        raise


def retract(base: EmbeddedFlag, v: EmbeddedTangent, step: float) -> EmbeddedFlag:
    """Projection retraction: nearest point to base.x + step * v.

    Lands exactly on the manifold and agrees with the straight line to
    first order, so the deviation from base.x + step * v is O(step^2).
    A step that is not a finite real number, or one so long that
    base.x + step * v overflows, raises ``NotSymmetric``, as the matrix
    base.x + step * v would.
    """
    _check_size(v.v.entries, base.signature)
    step = _finite_factor(step, NotSymmetric)
    if step == 0.0:
        return base
    spec = base.spectrum
    _check_decreasing(spec)
    return _certified_flag(_quietly(lambda: _retract_step(base.x.entries, v.v.entries, step, spec)), spec)


def default_step(spec: Spectrum) -> float:
    """0.1 / max_{i,j} (a_i - a_j)^2: invariant under rescaling the spectrum."""
    return 0.1 / _max_gap_squared(spec)


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

    What is checked, and where: ``init``, ``spec`` and ``grad_tol`` on
    entry, and ``step`` (``None`` or finite and >= 0) and ``max_iters`` (an
    integer >= 0), each refused with ``ValidationError``; the array
    ``objective_grad`` returns on every iteration
    (non-real entries raise ``NotSymmetric``, non-finite ones
    ``StepNotFinite``, a non-square or asymmetric array ``NotSymmetric``, a
    wrong size ``SignatureMismatch``); a
    non-decreasing spectrum at the first retraction, as ``nearest_point``
    checks it; and every iterate, by the Ostrowski certificate or, where
    that cannot decide, by the eigenvalue check of ``EmbeddedFlag``.
    ``objective_grad`` receives each iterate as a read-only array, and runs
    with numpy's overflow and invalid-operation warnings off.  The
    returned point is that last iterate, or ``init`` itself when no step
    was taken.
    """
    _check_same_signature(init.signature, spec.signature)
    grad_tol = _check_tolerance("grad_tol", grad_tol)
    if step is not None:
        step = _check_tolerance("step", step)
    max_iters = _at_least(max_iters, "max_iters", 0)
    if init.spectrum != spec:
        raise SpectrumInvalid(f"init has spectrum {init.spectrum.values}, descent was given {spec.values}")
    if step is None:
        step = default_step(spec)

    def descend():
        x = init.x.entries
        norms: list[float] = []
        iterations = 0
        while True:
            g = _checked_gradient(objective_grad(x), spec.signature)
            v = _tangent_step(g, x, spec)
            gn = _frobenius(v)
            norms.append(gn)
            converged = gn <= grad_tol
            if converged or iterations >= max_iters:
                return x, norms, iterations, converged
            if step != 0.0:
                if iterations == 0:
                    _check_decreasing(spec)  # where the first retraction checks it
                x = _retract_step(x, v, -step, spec)
            iterations += 1

    x, norms, iterations, converged = _quietly(descend)
    point = init if x is init.x.entries else _certified_flag(x, spec)
    return DescentResult(point, tuple(norms), iterations, converged)


def _checked_gradient(g, sig: FlagSignature) -> np.ndarray:
    """The user's gradient as a float array, checked as ``SymmetricMatrix``
    and ``project_to_tangent`` check theirs.  ``_float_array`` converts it
    and refuses non-real entries; a float array is taken as it is, with no
    copy and no pass over it.

    A gradient of the right shape whose asymmetry defect is within the
    tolerance is accepted on that defect alone: a NaN or infinite entry, or
    one so large that g - g' overflows, makes the defect NaN or inf, which
    the test refuses, so only finite gradients pass it.  Any other gradient
    goes through the checks in their order, which raise the error with its
    message; the descent loop runs them with numpy's warnings off."""
    g = _float_array(g, NotSymmetric)
    if g.shape == (sig.n, sig.n) and _frobenius(g - g.T) <= SYM_TOL:
        return g
    if not np.isfinite(g).all():
        raise StepNotFinite("objective gradient returned non-finite entries")
    _check_symmetric(g)
    _check_size(g, sig)
    return g
