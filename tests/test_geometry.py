import numpy as np
import pytest
from scipy.linalg import expm

from isoflag import (
    FlagPoint,
    Spectrum,
    SymmetricMatrix,
    TangentBlock,
    default_step,
    default_traceless_spectrum,
    distance_to_model,
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
    NumericalError,
    SignatureMismatch,
    SpectrumInvalid,
    StepNotFinite,
)

from _helpers import no_convergence, random_signature, random_symmetric


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
        sig = make_signature(3, [1])
        spec = Spectrum((-1.0, 2.0), sig)
        with pytest.raises(SpectrumInvalid):
            nearest_point(SymmetricMatrix(np.eye(3)), spec)

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

    def test_lands_on_manifold(self):
        spec, base, v = self._base_and_tangent(2)
        for h in (1e-3, 0.1, 1.0):
            assert membership(retract(base, v, h).x, spec)

    def test_second_order_agreement(self):
        spec, base, v = self._base_and_tangent(3)
        defects = []
        for h in (1e-2, 1e-3, 1e-4):
            r = retract(base, v, h)
            defects.append(np.linalg.norm(r.x.entries - (base.x.entries + h * v.v.entries)))
        assert 50 <= defects[0] / defects[1] <= 200
        assert 50 <= defects[1] / defects[2] <= 200


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
