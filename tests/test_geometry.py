import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from isoflag import (
    EmbeddedFlag,
    EmbeddedTangent,
    FlagPoint,
    Spectrum,
    SymmetricMatrix,
    TangentBlock,
    default_step,
    default_traceless_spectrum,
    embed,
    gradient_descent,
    identity_flag,
    isometry_defect,
    make_signature,
    membership,
    metric_inner,
    nearest_point,
    project_to_tangent,
    push_tangent,
    random_flag_point,
    random_tangent_block,
    recover,
    retract,
)
from isoflag.errors import (
    DegenerateBoundaryGap,
    EigenSolverFailed,
    NotAnInteger,
    NotSymmetric,
    NumericalError,
    SignatureMismatch,
    SpectrumInvalid,
    StepNotFinite,
    ValidationError,
)
from isoflag.flagcore import SPECTRUM_GAP_TOL
from isoflag.geometry import _bracket_with_model, _nearest_image

from _helpers import no_convergence, random_signature, random_symmetric


def distance_to_model(a, spec):
    """Frobenius distance from a to the model manifold (the reference for
    ``nearest_point``'s fixed points; no library code needs it)."""
    return float(np.linalg.norm(a.entries - nearest_point(a, spec).x.entries))


def pairwise_metric(b, c, spec):
    """<B, C> = 2 sum_{i<j} (a_i - a_j)^2 tr(B_ij' C_ij) summed block pair by
    block pair, as the formula reads: the reference for ``metric_inner``."""
    v, sl = spec.values, spec.signature.block_slices()
    total = 0.0
    for i, j in itertools.combinations(range(spec.signature.num_blocks), 2):
        total += (v[i] - v[j]) ** 2 * float(np.sum(b.matrix[sl[i], sl[j]] * c.matrix[sl[i], sl[j]]))
    return 2.0 * total


def pairwise_bracket(b, spec):
    """[B, M] assembled block pair by block pair, block (i, j) being
    (a_j - a_i) B_ij: the reference for ``_bracket_with_model``."""
    sig = b.signature
    sl = sig.block_slices()
    v = spec.values
    out = np.zeros((sig.n, sig.n))
    for i, j in itertools.combinations(range(sig.num_blocks), 2):
        scaled = (v[j] - v[i]) * b.matrix[sl[i], sl[j]]
        out[sl[i], sl[j]] = scaled
        out[sl[j], sl[i]] = scaled.T
    return out


class TestAgainstPairwiseReferences:
    def test_random_signatures_and_spectra(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            sig = random_signature(rng, n_max=12)
            spec = Spectrum(tuple(rng.standard_normal(sig.num_blocks)), sig)
            b, c = random_tangent_block(sig, rng), random_tangent_block(sig, rng)
            f = random_flag_point(sig, int(rng.integers(1_000_000)))
            bracket = pairwise_bracket(b, spec)
            assert np.array_equal(_bracket_with_model(b, spec), bracket)
            v = f.q @ bracket @ f.q.T
            assert np.array_equal(push_tangent(b, f, spec).v.entries, (v + v.T) / 2.0)
            bound = 1e-12 * np.sqrt(pairwise_metric(b, b, spec) * pairwise_metric(c, c, spec))
            assert abs(metric_inner(b, c, spec) - pairwise_metric(b, c, spec)) <= bound


def one_block(sig, beta):
    return TangentBlock.from_block_map(sig, {(0, 1): np.array([[beta]])})


class TestMetric:
    def test_zero_vector(self):
        sig = make_signature(4, [2])
        spec = default_traceless_spectrum(sig)
        z = TangentBlock.from_block_map(sig, {})
        assert metric_inner(z, z, spec) == 0.0

    @pytest.mark.parametrize("beta", [0.5, 1.0, -2.3])
    def test_rank_one_closed_form(self, beta):
        # weight (a1 - a2)^2 = 4, so <B, B> = 2 * 4 * beta^2
        sig = make_signature(2, [1])
        spec = Spectrum((1.0, -1.0), sig)
        b = one_block(sig, beta)
        assert metric_inner(b, b, spec) == pytest.approx(8 * beta**2)

    def test_symmetric_bilinear_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sig = random_signature(rng, n_max=9)
            spec = default_traceless_spectrum(sig)
            b = random_tangent_block(sig, rng)
            c = random_tangent_block(sig, rng)
            assert metric_inner(b, c, spec) == pytest.approx(metric_inner(c, b, spec))
            assert metric_inner(b, b, spec) > 0.0

    def test_signature_mismatch(self):
        b = random_tangent_block(make_signature(4, [1]), 0)
        c = random_tangent_block(make_signature(4, [2]), 0)
        spec = default_traceless_spectrum(make_signature(4, [1]))
        with pytest.raises(SignatureMismatch):
            metric_inner(b, c, spec)


class TestPushTangent:
    def test_zero_maps_to_zero(self):
        sig = make_signature(4, [2])
        spec = default_traceless_spectrum(sig)
        v = push_tangent(TangentBlock.from_block_map(sig, {}), identity_flag(sig), spec)
        assert np.allclose(v.v.entries, 0.0)

    def test_two_dim_closed_form(self):
        # [B, diag(1,-1)] = [[0, -2b], [-2b, 0]]
        sig = make_signature(2, [1])
        spec = Spectrum((1.0, -1.0), sig)
        v = push_tangent(one_block(sig, 0.7), identity_flag(sig), spec)
        assert np.allclose(v.v.entries, np.array([[0.0, -1.4], [-1.4, 0.0]]))

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(12):
            sig = random_signature(rng, n_max=8)
            spec = default_traceless_spectrum(sig)
            f = random_flag_point(sig, int(rng.integers(1_000_000)))
            b = random_tangent_block(sig, rng)
            b = b.scaled(1.0 / b.frobenius_norm())
            v = push_tangent(b, f, spec).v.entries
            bm = b.to_matrix()

            def curve(t):
                return embed(FlagPoint(f.q @ expm(t * bm), sig), spec).x.entries

            fd = (curve(h) - curve(-h)) / (2 * h)
            assert np.linalg.norm(fd - v) <= 1e-6


class TestIsometry:
    def test_zero_defect_for_zero_block(self):
        sig = make_signature(4, [1])
        spec = default_traceless_spectrum(sig)
        assert isometry_defect(TangentBlock.from_block_map(sig, {}), spec) == 0.0

    def test_defect_vanishes_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            sig = random_signature(rng, n_max=12)
            spec = default_traceless_spectrum(sig)
            b = random_tangent_block(sig, rng)
            norm2 = b.frobenius_norm() ** 2
            assert isometry_defect(b, spec) <= 1e-10 * (1.0 + norm2)

    def test_quadratic_scaling(self):
        sig = make_signature(6, [2, 4])
        spec = default_traceless_spectrum(sig)
        b = random_tangent_block(sig, 4)
        assert metric_inner(b.scaled(2.0), b.scaled(2.0), spec) == pytest.approx(
            4.0 * metric_inner(b, b, spec)
        )
        v1 = push_tangent(b, identity_flag(sig), spec).v.entries
        v2 = push_tangent(b.scaled(2.0), identity_flag(sig), spec).v.entries
        assert np.sum(v2 * v2) == pytest.approx(4.0 * np.sum(v1 * v1))


class TestProjection:
    def _setup(self, seed, n_max=9):
        rng = np.random.default_rng(seed)
        sig = random_signature(rng, n_max=n_max)
        spec = default_traceless_spectrum(sig)
        base = embed(random_flag_point(sig, int(rng.integers(1_000_000))), spec)
        return rng, sig, spec, base

    def test_tangent_vectors_are_fixed(self):
        rng, sig, spec, _ = self._setup(4)
        f = random_flag_point(sig, 77)
        base = embed(f, spec)
        v = push_tangent(random_tangent_block(sig, rng), f, spec)
        w = project_to_tangent(v.v, base)
        assert np.linalg.norm(w.v.entries - v.v.entries) <= 1e-12 * (1 + np.linalg.norm(v.v.entries))

    def test_base_point_projects_to_zero(self):
        _, _, _, base = self._setup(5)
        w = project_to_tangent(base.x, base)
        assert np.linalg.norm(w.v.entries) <= 1e-12

    def test_idempotent(self):
        rng, sig, spec, base = self._setup(6)
        g = SymmetricMatrix(random_symmetric(sig.n, rng))
        w1 = project_to_tangent(g, base)
        w2 = project_to_tangent(w1.v, base)
        assert np.linalg.norm(w1.v.entries - w2.v.entries) <= 1e-12

    def test_residual_orthogonal_to_image(self):
        rng, sig, spec, base = self._setup(7)
        g = SymmetricMatrix(random_symmetric(sig.n, rng))
        w = project_to_tangent(g, base).v.entries
        assert abs(np.sum((g.entries - w) * w)) <= 1e-10

    def test_self_adjoint(self):
        rng, sig, spec, base = self._setup(8)
        g = SymmetricMatrix(random_symmetric(sig.n, rng))
        h = SymmetricMatrix(random_symmetric(sig.n, rng))
        pg = project_to_tangent(g, base).v.entries
        ph = project_to_tangent(h, base).v.entries
        assert np.sum(pg * h.entries) == pytest.approx(np.sum(g.entries * ph), abs=1e-10)


def reference_frame(x, spec):
    """Reference frame by eigenvalue matching: send each ascending
    eigenvalue to its nearest spectrum value, concatenate the eigenvectors
    block by block, flip one column to determinant +1."""
    lam, vec = np.linalg.eigh(x.entries)
    values = np.asarray(spec.values)
    columns = [[] for _ in values]
    for col, ev in enumerate(lam):
        columns[int(np.argmin(np.abs(values - ev)))].append(col)
    q = np.concatenate([vec[:, cols] for cols in columns], axis=1)
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def reference_projection(g, base):
    q = reference_frame(base.x, base.spectrum)
    m = q.T @ g.entries @ q
    for s in base.signature.block_slices():
        m[s, s] = 0.0
    v = q @ m @ q.T
    return (v + v.T) / 2.0


class TestProjectionBlockOrder:
    """The eigenframe puts eigh's ascending eigenvectors in block order for
    every order of the spectrum values, not only the decreasing one that
    nearest_point requires: recover and project_to_tangent agree bit for
    bit with the reference."""

    @pytest.mark.parametrize("order", ["decreasing", "increasing", "shuffled"])
    def test_bit_identical_to_reference(self, order):
        rng = np.random.default_rng({"decreasing": 40, "increasing": 41, "shuffled": 42}[order])
        for _ in range(100):
            sig = random_signature(rng, n_max=12)
            values = default_traceless_spectrum(sig).values
            if order == "increasing":
                values = values[::-1]
            elif order == "shuffled":
                values = tuple(rng.permutation(values))
            spec = Spectrum(values, sig)
            base = embed(random_flag_point(sig, int(rng.integers(1_000_000))), spec)
            g = SymmetricMatrix(random_symmetric(sig.n, rng))
            assert np.array_equal(recover(base.x, spec).q, reference_frame(base.x, spec))
            assert np.array_equal(project_to_tangent(g, base).v.entries, reference_projection(g, base))


class TestNearestPoint:
    def test_eigen_solver_failure_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        spec = default_traceless_spectrum(make_signature(4, [2]))
        with pytest.raises(EigenSolverFailed, match="did not converge") as err:
            nearest_point(SymmetricMatrix(np.eye(4)), spec)
        assert isinstance(err.value, NumericalError)

    def test_fixed_points_on_manifold(self):
        sig = make_signature(6, [2])
        spec = default_traceless_spectrum(sig)
        x = embed(random_flag_point(sig, 3), spec).x
        y = nearest_point(x, spec)
        assert np.linalg.norm(y.x.entries - x.entries) <= 1e-10
        assert distance_to_model(x, spec) <= 1e-10

    def test_diagonal_case_reduces_to_sorting(self):
        sig = make_signature(3, [1])
        spec = Spectrum((2.0, -1.0), sig)
        y = nearest_point(SymmetricMatrix(np.diag([5.0, 0.1, -7.0])), spec)
        assert np.allclose(y.x.entries, np.diag([2.0, -1.0, -1.0]))

    def test_beats_random_search(self):
        # sampled points of the manifold never come out closer than the answer
        rng = np.random.default_rng(10)
        sig = make_signature(3, [1])
        spec = Spectrum((2.0, -1.0), sig)
        a = random_symmetric(3, rng, scale=2.0)
        best = nearest_point(SymmetricMatrix(a), spec).x.entries
        d_best = np.linalg.norm(a - best)
        model = np.diag(spec.repeated())
        from _helpers import haar_special_orthogonal

        for _ in range(4000):
            q = haar_special_orthogonal(3, rng)
            d = np.linalg.norm(a - q @ model @ q.T)
            assert d >= d_best - 1e-9

    def test_boundary_tie_is_loud(self):
        sig = make_signature(3, [1])
        spec = Spectrum((2.0, -1.0), sig)
        with pytest.raises(DegenerateBoundaryGap) as err:
            nearest_point(SymmetricMatrix(np.diag([1.0, 1.0, 0.0])), spec)
        assert err.value.gap is not None

    def test_requires_decreasing_spectrum(self):
        # the identity also ties at the block boundary: the order is refused first
        sig = make_signature(3, [1])
        spec = Spectrum((-1.0, 2.0), sig)
        with pytest.raises(SpectrumInvalid, match="strictly decreasing"):
            nearest_point(SymmetricMatrix(np.eye(3)), spec)

    @pytest.mark.parametrize("values", [(-1.0, 0.5, 2.0), (0.5, 2.0, -1.0)], ids=["increasing", "shuffled"])
    def test_array_core_refuses_a_spectrum_out_of_order_before_solving(self, values, monkeypatch):
        """``_nearest_image`` is the one place the order is checked: the
        retraction and ``nearest_point`` both reach it, and it refuses before
        its eigen-solve."""
        def no_solve(a):
            raise AssertionError("the eigen-solve ran")

        monkeypatch.setattr(sys.modules["isoflag.geometry"], "_eigh", no_solve)
        spec = Spectrum(values, make_signature(4, [1, 3]))
        with pytest.raises(SpectrumInvalid, match=r"^nearest point needs a strictly decreasing spectrum, got "):
            _nearest_image(np.diag([3.0, 2.0, 1.0, 0.0]), spec, SPECTRUM_GAP_TOL)

    @pytest.mark.parametrize("gap_tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_gap_tol(self, gap_tol):
        # the identity ties at the boundary: a negative tolerance would pass it
        spec = default_traceless_spectrum(make_signature(3, [1]))
        with pytest.raises(ValidationError, match=r"^gap_tol must be finite and >= 0, got "):
            nearest_point(SymmetricMatrix(np.eye(3)), spec, gap_tol=gap_tol)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        sig = make_signature(5, [1, 3])
        spec = default_traceless_spectrum(sig)
        a = SymmetricMatrix(random_symmetric(5, rng))
        y1 = nearest_point(a, spec)
        y2 = nearest_point(y1.x, spec)
        assert np.linalg.norm(y1.x.entries - y2.x.entries) <= 1e-10


class TestRetract:
    def _base_and_tangent(self, seed):
        rng = np.random.default_rng(seed)
        sig = make_signature(5, [2])
        spec = default_traceless_spectrum(sig)
        base = embed(random_flag_point(sig, seed), spec)
        v = project_to_tangent(SymmetricMatrix(random_symmetric(5, rng)), base)
        return spec, base, v

    def test_zero_step_returns_base(self):
        _, base, v = self._base_and_tangent(1)
        assert retract(base, v, 0.0) is base

    def test_zero_step_returns_base_for_an_increasing_spectrum(self):
        """A zero step takes no nearest point, so the spectrum's order is
        not checked; a nonzero one is refused."""
        sig = make_signature(5, [2])
        spec = Spectrum(default_traceless_spectrum(sig).values[::-1], sig)
        base = embed(random_flag_point(sig, 1), spec)
        v = project_to_tangent(SymmetricMatrix(random_symmetric(5, np.random.default_rng(1))), base)
        assert retract(base, v, 0.0) is base
        with pytest.raises(SpectrumInvalid, match="strictly decreasing"):
            retract(base, v, 0.1)

    def test_lands_on_manifold(self):
        spec, base, v = self._base_and_tangent(2)
        for h in (1e-3, 0.1, 1.0):
            assert membership(retract(base, v, h).x, spec)

    def test_tangent_of_another_size(self):
        _, base, _ = self._base_and_tangent(1)
        sig = make_signature(4, [2])
        other = embed(identity_flag(sig), default_traceless_spectrum(sig))
        v = project_to_tangent(SymmetricMatrix(np.eye(4)), other)
        for step in (0.1, 0.0):
            with pytest.raises(SignatureMismatch, match=r"^matrix is 4x4, signature has n=5$"):
                retract(base, v, step)

    def test_second_order_agreement(self):
        spec, base, v = self._base_and_tangent(3)
        defects = []
        for h in (1e-2, 1e-3, 1e-4):
            r = retract(base, v, h)
            defects.append(np.linalg.norm(r.x.entries - (base.x.entries + h * v.v.entries)))
        assert 50 <= defects[0] / defects[1] <= 200
        assert 50 <= defects[1] / defects[2] <= 200

    def test_boundary_tie_is_loud(self):
        """At the base diag(1/2, 0, -1/2), the step h along the tangent that
        couples blocks 0 and 1 moves the lower eigenvalue of its 2x2 block to
        1/4 - sqrt(1/16 + h^2), which meets -1/2 at h = sqrt(1/2): the moved
        point ties at block boundary 2, as nearest_point refuses it."""
        sig = make_signature(3, [1, 2])
        base = embed(identity_flag(sig), default_traceless_spectrum(sig))
        g = np.zeros((3, 3))
        g[0, 1] = g[1, 0] = 1.0
        v = project_to_tangent(SymmetricMatrix(g), base)
        with pytest.raises(DegenerateBoundaryGap, match=r"^eigenvalue gap \S+ at block boundary 2 is <= 1\.000e-08$") as err:
            retract(base, v, np.sqrt(0.5))
        assert err.value.gap is not None and 0.0 <= err.value.gap <= 1e-8


class TestGradientDescent:
    def test_default_step_for_canonical_spectrum(self):
        spec = default_traceless_spectrum(make_signature(7, [2, 5]))
        assert default_step(spec) == pytest.approx(0.1)

    def test_converges_to_embedded_target(self):
        sig = make_signature(6, [2, 4])
        spec = default_traceless_spectrum(sig)
        target = embed(random_flag_point(sig, 21), spec)
        init = embed(random_flag_point(sig, 22), spec)
        res = gradient_descent(lambda x: x - target.x.entries, spec, init)
        assert res.converged
        assert res.final_grad_norm <= 1e-6
        assert np.linalg.norm(res.point.x.entries - target.x.entries) <= 1e-5
        assert membership(res.point.x, spec)

    def test_converges_to_nearest_point_of_generic_target(self):
        rng = np.random.default_rng(30)
        sig = make_signature(5, [1, 3])
        spec = default_traceless_spectrum(sig)
        a = random_symmetric(5, rng)
        best = nearest_point(SymmetricMatrix(a), spec)
        init = embed(random_flag_point(sig, 31), spec)
        res = gradient_descent(lambda x: x - a, spec, init)
        assert res.converged
        assert np.linalg.norm(res.point.x.entries - best.x.entries) <= 1e-6

    def test_norm_trace_is_recorded(self):
        sig = make_signature(4, [2])
        spec = default_traceless_spectrum(sig)
        target = embed(random_flag_point(sig, 1), spec)
        init = embed(random_flag_point(sig, 2), spec)
        res = gradient_descent(lambda x: x - target.x.entries, spec, init, max_iters=50)
        assert len(res.grad_norms) >= 1
        assert res.final_grad_norm == res.grad_norms[-1]

    def test_nonfinite_gradient_is_loud(self):
        sig = make_signature(4, [2])
        spec = default_traceless_spectrum(sig)
        init = embed(random_flag_point(sig, 3), spec)
        with pytest.raises(StepNotFinite):
            gradient_descent(lambda x: np.full_like(x, np.nan), spec, init)

    def test_rejects_init_on_another_spectrum(self):
        # Gr(1, R^3): init on (5, -2.5) would descend on its own manifold
        sig = make_signature(3, [1])
        spec = default_traceless_spectrum(sig)
        assert spec.values == (2 / 3, -1 / 3)
        init = embed(random_flag_point(sig, 6), Spectrum((5.0, -2.5), sig))
        with pytest.raises(SpectrumInvalid):
            gradient_descent(lambda x: x, spec, init)

    def test_max_iters_caps_the_run(self):
        sig = make_signature(4, [1])
        spec = default_traceless_spectrum(sig)
        target = embed(random_flag_point(sig, 4), spec)
        init = embed(random_flag_point(sig, 5), spec)
        res = gradient_descent(
            lambda x: x - target.x.entries, spec, init, step=1e-6, max_iters=10, grad_tol=1e-12
        )
        assert res.iterations == 10
        assert not res.converged
        assert len(res.grad_norms) == 11

    @pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_rejects_bad_step(self, step):
        spec, target, init = descent_case(5, 2, 4)
        with pytest.raises(ValidationError, match=f"^step must be finite and >= 0, got {step}$"):
            gradient_descent(lambda x: x - target, spec, init, step=step)

    @pytest.mark.parametrize("max_iters, error, message", [
        (-1, ValidationError, "need max_iters >= 0, got -1"),
        (2.5, NotAnInteger, "max_iters must be an integer, got float"),
        ("10", NotAnInteger, "max_iters must be an integer, got str"),
    ])
    def test_rejects_bad_max_iters(self, max_iters, error, message):
        spec, target, init = descent_case(5, 2, 4)
        with pytest.raises(error, match=f"^{message}$"):
            gradient_descent(lambda x: x - target, spec, init, max_iters=max_iters)

    def test_numpy_integer_max_iters(self):
        spec, target, init = descent_case(5, 2, 4)
        assert gradient_descent(lambda x: x - target, spec, init, max_iters=np.int64(3)).iterations == 3


def reference_descent(objective_grad, spec, init, step=None, max_iters=500, grad_tol=1e-6):
    """The descent loop as it ran on the public wrappers: every gradient and
    step wrapped in ``SymmetricMatrix``/``EmbeddedTangent``, and every
    iterate checked by ``EmbeddedFlag``'s eigenvalue test.  The reference
    that ``gradient_descent``'s array loop must match bit for bit."""
    if step is None:
        step = default_step(spec)
    x = init
    norms = []
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
        x = EmbeddedFlag(SymmetricMatrix(retract(x, t, -step).x.entries), spec)
        iterations += 1
    return x, tuple(norms), iterations, converged


def descent_case(n, p, seed):
    """A target near a random model point and a random start, as the
    benchmark draws them."""
    rng = np.random.default_rng([n, p, seed])
    ks = sorted(int(k) for k in rng.choice(np.arange(1, n), size=p, replace=False))
    sig = make_signature(n, ks)
    spec = default_traceless_spectrum(sig)
    model = embed(random_flag_point(sig, int(rng.integers(2**62))), spec).x.entries
    noise = rng.standard_normal((n, n))
    target = model + 0.1 / np.sqrt(n) * (noise + noise.T) / 2.0
    init = embed(random_flag_point(sig, int(rng.integers(2**62))), spec)
    return spec, target, init


class TestOptimalityOracle:
    """For ½|X - T|², the global minimiser on the model is ``nearest_point(T)``,
    one eigen-solve: every other critical point is a saddle (Brockett 1991).
    So a converged descent has an exact oracle."""

    @given(n=st.integers(3, 8), p=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_converged_descent_ends_at_the_nearest_point_distance(self, n, p, seed):
        """Near the model the default step converges.  At grad_tol 1e-10 the
        gradient's share of the distance gap, of order grad_tol², is below
        rounding, so the gap is within 4 n eps (1 + |T|): 1,697 converged runs
        of these strata stayed within 0.84 of that unit.  At the default
        grad_tol 1e-6 the gap reached 15,000 units."""
        assume(p < n)
        spec, target, init = descent_case(n, p, seed)
        res = gradient_descent(lambda x: x - target, spec, init, grad_tol=1e-10)
        assume(res.converged)
        best = nearest_point(SymmetricMatrix(target), spec).x.entries
        gap = np.linalg.norm(res.point.x.entries - target) - np.linalg.norm(best - target)
        assert abs(gap) <= 4 * n * np.finfo(float).eps * (1 + np.linalg.norm(target))


SMALL_STRATA = [(n, p) for n in range(4, 13) for p in range(1, 5) if p < n]


class TestDescentMatchesWrapperLoop:
    """``gradient_descent`` runs on plain arrays with the certificate in
    place of the per-iterate eigenvalue check; the iterates, norms, counts
    and verdict are those of the wrapper-based loop."""

    @staticmethod
    def assert_same(spec, target, init, step):
        got = gradient_descent(lambda x: x - target, spec, init, step=step)
        x, norms, iterations, converged = reference_descent(lambda x: x - target, spec, init, step=step)
        assert np.array_equal(got.point.x.entries, x.x.entries)
        assert got.grad_norms == norms
        assert got.iterations == iterations
        assert got.converged == converged
        assert got.point.x.entries.flags.writeable is False

    @pytest.mark.parametrize("n,p", SMALL_STRATA)
    def test_small_default_step(self, n, p):
        self.assert_same(*descent_case(n, p, 0), None)

    @pytest.mark.parametrize("n,p", [(96, 1), (96, 4), (160, 1), (160, 4)])
    def test_large_unit_step(self, n, p):
        self.assert_same(*descent_case(n, p, 0), 1.0)

    def test_no_step_returns_init(self):
        spec, target, init = descent_case(6, 2, 1)
        for kwargs in ({"max_iters": 0}, {"step": 0.0, "max_iters": 5}):
            assert gradient_descent(lambda x: x - target, spec, init, **kwargs).point is init


class TestDescentCallCounts:
    def test_two_eigen_solves_and_no_wrappers_per_iteration(self, monkeypatch):
        """Between two gradient calls an iteration makes its two eigen-solves
        and no call of ``np.linalg.norm``, ``np.isfinite`` or ``np.errstate``,
        and builds no wrapper."""
        events = []
        geometry_module = sys.modules["isoflag.geometry"]
        embed_module = sys.modules["isoflag.embed"]
        solver = embed_module._eigh

        def counted_eigh(*args, **kwargs):
            events.append("eigh")
            return solver(*args, **kwargs)

        for module in (geometry_module, embed_module):
            monkeypatch.setattr(module, "_eigh", counted_eigh)
        for cls in (SymmetricMatrix, EmbeddedFlag, EmbeddedTangent):
            def counted_init(self, *args, _init=cls.__init__, **kwargs):
                events.append(f"new {type(self).__name__}")
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)
        prechecked = embed_module._prechecked

        def counted_prechecked(cls, **fields):
            events.append(f"new {cls.__name__}")
            return prechecked(cls, **fields)

        for module in (embed_module, sys.modules["isoflag.flagcore"]):
            monkeypatch.setattr(module, "_prechecked", counted_prechecked)
        for owner, name in ((np.linalg, "norm"), (np, "isfinite"), (np, "errstate")):
            def counted(*args, _name=name, _call=getattr(owner, name), **kwargs):
                events.append(_name)
                return _call(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        spec, target, init = descent_case(8, 2, 2)

        def grad(x):
            events.append("grad")
            return x - target

        res = gradient_descent(grad, spec, init)
        assert res.converged and res.iterations > 50
        first = events.index("grad")
        last = len(events) - 1 - events[::-1].index("grad")
        per_iteration = [part.split() for part in " ".join(events[first:last + 1]).split("grad")[1:-1]]
        assert per_iteration == [["eigh", "eigh"]] * res.iterations
        # after the last gradient: its projection, then the returned point,
        # built with no check
        assert events[last + 1:] == ["eigh", "new SymmetricMatrix", "new EmbeddedFlag"]


class TestDescentGradientContract:
    """The user's gradient is checked on every iteration, with the errors
    ``SymmetricMatrix`` and ``project_to_tangent`` raised for it."""

    @pytest.mark.parametrize(
        "make,error,message",
        [
            (lambda x: np.full_like(x, np.nan), StepNotFinite, "objective gradient returned non-finite entries"),
            (lambda x: np.full((4, 3), np.inf), StepNotFinite, "objective gradient returned non-finite entries"),
            (lambda x: np.triu(np.ones_like(x)), NotSymmetric, r"asymmetry 3\.464e\+00 exceeds 1\.000e-10"),
            (lambda x: np.ones((4, 3)), NotSymmetric, r"expected a square matrix, got shape \(4, 3\)"),
            (lambda x: np.ones(4), NotSymmetric, r"expected a square matrix, got shape \(4,\)"),
            (lambda x: np.eye(5), SignatureMismatch, "matrix is 5x5, signature has n=4"),
            (lambda x: x + np.diag([np.inf, 0.0, 0.0, 0.0]), StepNotFinite,
             "objective gradient returned non-finite entries"),
            (lambda x: x + np.array([[0, 1e308, 0, 0], [-1e308, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
             NotSymmetric, r"asymmetry inf exceeds 1\.000e-10"),
        ],
        ids=["nan", "nan-non-square", "asymmetric", "non-square", "vector", "wrong-n", "inf-diagonal",
             "overflowing-asymmetry"],
    )
    def test_errors(self, make, error, message):
        """Each bad gradient raises its error and no RuntimeWarning (which the
        test configuration turns into an error): a symmetric gradient with
        one infinite diagonal entry, or a finite one whose g - g' overflows,
        fails the fast check without computing g - g' and then fails the
        ordered checks."""
        sig = make_signature(4, [2])
        spec = default_traceless_spectrum(sig)
        init = embed(random_flag_point(sig, 3), spec)
        target = random_symmetric(4, np.random.default_rng(3))
        calls = []

        def grad(x):  # a bad gradient on the third iteration
            calls.append(None)
            return make(x) if len(calls) == 3 else x - target

        with pytest.raises(error, match=f"^{message}$"):
            gradient_descent(grad, spec, init)
        with pytest.raises(error, match=f"^{message}$"):
            calls.clear()
            reference_descent(grad, spec, init)
        assert len(calls) == 3

    @pytest.mark.parametrize("make, max_iters", [
        (lambda x, t: x - t + np.triu(np.full_like(x, 1e-11), 1), 20),  # asymmetry 4.5e-11 <= SYM_TOL
        (lambda x, t: 1e155 * x, 0),  # its squared norm overflows: the ordered checks accept it
    ], ids=["asymmetric-within-tolerance", "huge"])
    def test_accepted_gradients_match_the_wrapper_loop(self, make, max_iters):
        spec, target, init = descent_case(5, 2, 3)
        got = gradient_descent(lambda x: make(x, target), spec, init, max_iters=max_iters)
        x, norms, iterations, _ = reference_descent(lambda x: make(x, target), spec, init, max_iters=max_iters)
        assert np.array_equal(got.point.x.entries, x.x.entries)
        assert got.grad_norms == norms and got.iterations == iterations == max_iters

    def test_gradient_sees_read_only_iterates(self):
        spec, target, init = descent_case(5, 2, 3)
        seen = []

        def grad(x):
            seen.append(x.flags.writeable)
            return x - target

        gradient_descent(grad, spec, init, max_iters=20)
        assert len(seen) == 21 and not any(seen)

    def test_increasing_spectrum_rejected_at_first_step_only(self):
        sig = make_signature(3, [1])
        spec = Spectrum((-1 / 3, 2 / 3), sig)
        init = embed(random_flag_point(sig, 4), spec)
        target = random_symmetric(3, np.random.default_rng(4))
        with pytest.raises(SpectrumInvalid, match="strictly decreasing"):
            gradient_descent(lambda x: x - target, spec, init)
        # no retraction, no check: as when the loop called retract
        assert gradient_descent(lambda x: x - target, spec, init, max_iters=0).point is init
        assert gradient_descent(lambda x: x - target, spec, init, step=0.0, max_iters=3).iterations == 3


class TestOverflowedStep:
    """A step so long that x + step * v overflows raises ``NotSymmetric``, as
    building x + step * v as a ``SymmetricMatrix`` does, and not the error
    of the eigen-solve that the overflowed matrix fails first.  Both
    ``retract`` and ``gradient_descent`` raise it without a warning, and the
    descent takes a finite gradient whose projection or its norm overflows
    without a warning too."""

    def test_retract(self):
        spec, target, init = descent_case(6, 2, 1)
        v = project_to_tangent(SymmetricMatrix(1e3 * (init.x.entries - target)), init)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSymmetric, match="^entries must be finite$"):
                retract(init, v, 1e308)

    def test_descent(self):
        spec, target, init = descent_case(6, 2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSymmetric, match="^entries must be finite$"):
                gradient_descent(lambda x: 1e3 * (x - target), spec, init, step=1e308)
            with pytest.raises(NotSymmetric, match="^entries must be finite$"):
                reference_descent(lambda x: 1e3 * (x - target), spec, init, step=1e308)

    @pytest.mark.parametrize("n, ks, target, refused", [
        # the norm of v overflows in its dot product: each norm is inf, each step finite
        (3, [1], [[1e300, 1e300, 0], [1e300, -1e300, 0], [0, 0, 1]], False),
        # q' g q overflows in its matmul: the first step is not finite
        (4, [2], np.full((4, 4), 1.7e308), True),
    ], ids=["dot", "matmul"])
    def test_huge_gradient(self, n, ks, target, refused):
        sig = make_signature(n, ks)
        spec = default_traceless_spectrum(sig)
        init = embed(random_flag_point(sig, 0), spec)  # where `isoflag optimize` starts
        target = np.asarray(target, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                with pytest.raises(NotSymmetric, match="^entries must be finite$"):
                    gradient_descent(lambda x: x - target, spec, init)
            else:
                result = gradient_descent(lambda x: x - target, spec, init)
                assert (result.iterations, result.converged) == (500, False)
                assert set(result.grad_norms) == {float("inf")}


class TestErrorStateOncePerCall:
    """``gradient_descent`` runs its whole loop, ``objective_grad`` included,
    under one overflow policy call: warnings are off in every iteration, and
    the number of error states entered does not grow with the iterations."""

    def test_objective_grad_runs_quietly(self):
        spec, target, init = descent_case(6, 2, 1)
        seen = []

        def grad(x):
            seen.append(np.geterr())
            return x - target

        gradient_descent(grad, spec, init, max_iters=40, grad_tol=0)
        assert len(seen) == 41
        assert all(state["over"] == state["invalid"] == "ignore" for state in seen)

    def test_error_states_do_not_grow_with_iterations(self, monkeypatch):
        spec, target, init = descent_case(6, 2, 1)
        entered = []

        class CountedErrstate(np.errstate):
            def __enter__(self):
                entered.append(self)
                return super().__enter__()

        monkeypatch.setattr(np, "errstate", CountedErrstate)
        counts = []
        for max_iters in (1, 40):
            entered.clear()
            result = gradient_descent(lambda x: x - target, spec, init, max_iters=max_iters, grad_tol=0)
            assert result.iterations == max_iters
            counts.append(len(entered))
        assert counts[0] == counts[1]


class TestOverflowingSpectrum:
    """A finite spectrum spread past about 1.3e154, or finite blocks whose
    weighted products pass the largest double, give an isoflag error and
    no warning: ``SpectrumInvalid`` where the squared spread overflows,
    ``NumericalError`` where a metric sum does."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_squared_spread_overflows(self):
        spec = Spectrum((1e200, -1e200), make_signature(3, [1]))
        b = random_tangent_block(spec.signature, 0)
        for call in (lambda: default_step(spec), lambda: metric_inner(b, b, spec),
                     lambda: isometry_defect(b, spec)):
            with pytest.raises(SpectrumInvalid, match="square overflows"):
                call()

    def test_metric_sum_overflows(self):
        spec = Spectrum((1e100, -1e100), make_signature(3, [1]))
        big = np.zeros((3, 3))
        big[0, 1:] = 1e150
        b = TangentBlock(spec.signature, big - big.T)
        assert default_step(spec) == 0.1 / (2e100) ** 2
        for call in (lambda: metric_inner(b, b, spec), lambda: isometry_defect(b, spec)):
            with pytest.raises(NumericalError, match="overflows"):
                call()

    def test_pushforward_overflows(self):
        spec = Spectrum((1e100, -1e100), make_signature(3, [1]))
        f = identity_flag(spec.signature)
        big = np.zeros((3, 3))
        big[0, 1:] = 1e250
        with pytest.raises(NumericalError, match="^pushforward overflows$"):
            push_tangent(TangentBlock(spec.signature, big - big.T), f, spec)
        big[0, 1:] = 1e200  # times the gap 2e100 stays finite, and keeps every bit
        b = TangentBlock(spec.signature, big - big.T)
        v = _bracket_with_model(b, spec)
        assert np.array_equal(push_tangent(b, f, spec).v.entries, (v + v.T) / 2.0)

    def test_largest_squarable_spread(self):
        half = np.nextafter(np.sqrt(np.finfo(float).max), 0.0) / 2.0
        spec = Spectrum((half, -half), make_signature(2, [1]))
        b = TangentBlock.from_block_map(spec.signature, {(0, 1): np.array([[1e-100]])})
        assert default_step(spec) == 0.1 / spec.max_gap**2
        assert np.isfinite(metric_inner(b, b, spec)) and np.isfinite(isometry_defect(b, spec))


def trusted_calls(sig, seed):
    """For each function that builds its result without a validator, a call on
    arguments built here, before the call."""
    rng = np.random.default_rng(seed)
    spec = default_traceless_spectrum(sig)
    f = random_flag_point(sig, seed)
    base = embed(f, spec)
    target = SymmetricMatrix(random_symmetric(sig.n, rng))
    b = random_tangent_block(sig, seed)
    v = project_to_tangent(target, base)
    return {
        "embed": lambda: embed(f, spec),
        "nearest_point": lambda: nearest_point(target, spec),
        "retract": lambda: retract(base, v, -0.1),
        "project_to_tangent": lambda: project_to_tangent(target, base),
        "push_tangent": lambda: push_tangent(b, f, spec),
        "gradient_descent": lambda: gradient_descent(lambda x: x - target.entries, spec, base, max_iters=3).point,
        "identity_flag": lambda: identity_flag(sig),
    }


VALIDATED = (SymmetricMatrix, FlagPoint, EmbeddedFlag)


class TestResultsBuiltWithoutValidators:
    """The library's own results are built without re-running the checks of
    ``SymmetricMatrix``, ``FlagPoint`` and ``EmbeddedFlag``, and equal what
    those constructors build from the same array."""

    @pytest.mark.parametrize("name", list(trusted_calls(make_signature(6, [2, 3]), 0)))
    def test_no_validator_runs(self, name, monkeypatch):
        call = trusted_calls(make_signature(6, [2, 3]), 0)[name]
        runs = []
        for cls in VALIDATED:
            def counted(self, _check=cls.__post_init__):
                runs.append(type(self).__name__)
                _check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        call()
        assert runs == []

    def test_built_without_the_validator_yet_equal_to_validated(self, monkeypatch):
        rng = np.random.default_rng(23)
        cases = [trusted_calls(random_signature(rng, n_max=13), seed) for seed in range(60)]

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} validator ran")

        for cls in VALIDATED:
            monkeypatch.setattr(cls, "__post_init__", refuse)
        results = [{name: call() for name, call in calls.items()} for calls in cases]
        monkeypatch.undo()
        for got in results:
            f = got["identity_flag"]
            pairs = [(f.q, FlagPoint(f.q, f.signature).q)]
            for name in ("project_to_tangent", "push_tangent"):
                v = got[name].v.entries
                pairs.append((v, SymmetricMatrix(v).entries))
            for name in ("embed", "nearest_point", "retract", "gradient_descent"):
                x = got[name].x.entries
                pairs.append((x, EmbeddedFlag(SymmetricMatrix(x), got[name].spectrum).x.entries))
            for trusted, checked in pairs:
                assert trusted.dtype == checked.dtype and trusted.strides == checked.strides
                assert trusted.tobytes() == checked.tobytes()
                assert not trusted.flags.writeable
