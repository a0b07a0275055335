import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflag import (
    EIG_TOL,
    EmbeddedFlag,
    FlagPoint,
    Spectrum,
    SymmetricMatrix,
    act,
    block_diagonal_model,
    default_traceless_spectrum,
    embed,
    flags_equal,
    gradient_descent,
    identity_flag,
    make_signature,
    membership,
    nearest_point,
    project_to_tangent,
    random_flag_point,
    recover,
    traceless_split,
)
from isoflag.errors import (
    EigenSolverFailed,
    EigenvalueGapTooSmall,
    NotSpecialOrthogonal,
    SignatureMismatch,
    SpectrumMismatch,
)

from isoflag.embed import _check_on_model, _eig_deviation, _ostrowski_certifies
from isoflag.flagcore import _embedded_image

from _helpers import (
    haar_special_orthogonal,
    no_convergence,
    random_block_stabilizer,
    random_signature,
    random_symmetric,
)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


class TestBlockDiagonalModel:
    def test_two_points(self):
        spec = Spectrum((1.0, -1.0), make_signature(2, [1]))
        assert np.array_equal(block_diagonal_model(spec).entries, np.diag([1.0, -1.0]))

    def test_grassmannian(self):
        spec = Spectrum((3.0, -2.0), make_signature(5, [2]))
        model = block_diagonal_model(spec)
        assert np.array_equal(model.entries, np.diag([3.0, 3.0, -2.0, -2.0, -2.0]))
        assert model.trace == 0.0

    def test_complete_flag(self):
        spec = Spectrum((2.0, 1.0, -3.0), make_signature(3, [1, 2]))
        assert np.array_equal(block_diagonal_model(spec).entries, np.diag([2.0, 1.0, -3.0]))


class TestEmbed:
    def test_identity_representative(self):
        sig = make_signature(5, [2])
        spec = Spectrum((3.0, -2.0), sig)
        x = embed(identity_flag(sig), spec).x
        assert np.allclose(x.entries, block_diagonal_model(spec).entries)

    @pytest.mark.parametrize("theta", [0.1, 0.7, 2.0, -1.2])
    def test_rotation_closed_form(self, theta):
        # Q diag(1,-1) Q' expands to [[cos 2t, sin 2t], [sin 2t, -cos 2t]]
        sig = make_signature(2, [1])
        spec = Spectrum((1.0, -1.0), sig)
        x = embed(FlagPoint(rotation(theta), sig), spec).x.entries
        expected = np.array(
            [[np.cos(2 * theta), np.sin(2 * theta)], [np.sin(2 * theta), -np.cos(2 * theta)]]
        )
        assert np.abs(x - expected).max() <= 1e-14

    def test_eigenvalues_are_the_spectrum(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            sig = random_signature(rng, n_max=10)
            spec = default_traceless_spectrum(sig)
            f = random_flag_point(sig, int(rng.integers(1_000_000)))
            x = embed(f, spec).x
            got = np.linalg.eigvalsh(x.entries)
            want = np.sort(spec.repeated())
            assert np.abs(got - want).max() <= 1e-10

    def test_well_defined_on_cosets(self):
        rng = np.random.default_rng(3)
        sig = make_signature(6, [1, 4])
        spec = default_traceless_spectrum(sig)
        f = random_flag_point(sig, 1)
        g = FlagPoint(f.q @ random_block_stabilizer(sig, rng), sig)
        assert np.allclose(embed(f, spec).x.entries, embed(g, spec).x.entries, atol=1e-12)

    def test_signature_mismatch(self):
        f = random_flag_point(make_signature(4, [1]), 0)
        spec = default_traceless_spectrum(make_signature(4, [2]))
        with pytest.raises(SignatureMismatch):
            embed(f, spec)

    def test_invariant_enforced_on_construction(self):
        sig = make_signature(3, [1])
        spec = Spectrum((1.0, -0.5), sig)
        with pytest.raises(SpectrumMismatch):
            EmbeddedFlag(SymmetricMatrix(np.eye(3)), spec)


class TestAct:
    def test_identity_rotation(self):
        f = random_flag_point(make_signature(5, [2]), 3)
        g = act(np.eye(5), f)
        assert np.allclose(g.q, f.q)

    def test_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            sig = random_signature(rng, n_max=10)
            spec = default_traceless_spectrum(sig)
            f = random_flag_point(sig, int(rng.integers(1_000_000)))
            r = haar_special_orthogonal(sig.n, rng)
            lhs = embed(act(r, f), spec).x.entries
            rhs = r @ embed(f, spec).x.entries @ r.T
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_stabilizer_fixes_base_flag(self):
        rng = np.random.default_rng(5)
        sig = make_signature(6, [2, 3])
        base = identity_flag(sig)
        for _ in range(5):
            s = random_block_stabilizer(sig, rng)
            assert flags_equal(act(s, base), base)

    def test_conjugated_stabilizer_fixes_any_flag(self):
        rng = np.random.default_rng(6)
        sig = make_signature(5, [1, 3])
        f = random_flag_point(sig, 8)
        s = random_block_stabilizer(sig, rng)
        r = f.q @ s @ f.q.T
        assert flags_equal(act(r, f), f)

    def test_rejects_reflections(self):
        f = random_flag_point(make_signature(3, [1]), 0)
        with pytest.raises(NotSpecialOrthogonal):
            act(np.diag([1.0, 1.0, -1.0]), f)

    def test_rejects_non_orthogonal(self):
        f = random_flag_point(make_signature(3, [1]), 0)
        with pytest.raises(NotSpecialOrthogonal, match="Q'Q - I"):
            act(2.0 * np.eye(3), f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        f = random_flag_point(make_signature(3, [1]), 0)
        r = np.eye(3)
        r[1, 2] = bad
        with pytest.raises(NotSpecialOrthogonal):
            act(r, f)

    def test_rejects_wrong_shape(self):
        f = random_flag_point(make_signature(3, [1]), 0)
        with pytest.raises(NotSpecialOrthogonal, match="expected a 3x3"):
            act(np.eye(4), f)


class TestRecover:
    def test_base_model_recovers_base_flag(self):
        sig = make_signature(5, [2])
        spec = Spectrum((3.0, -2.0), sig)
        f = recover(block_diagonal_model(spec), spec)
        assert flags_equal(f, identity_flag(sig))

    def test_round_trip_images(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            sig = random_signature(rng, n_max=10)
            spec = default_traceless_spectrum(sig)
            f = random_flag_point(sig, int(rng.integers(1_000_000)))
            x = embed(f, spec).x
            g = recover(x, spec)
            y = embed(g, spec).x
            assert np.linalg.norm(x.entries - y.entries) <= 1e-8
            assert flags_equal(f, g)

    def test_determinant_is_plus_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            sig = random_signature(rng, n_max=8)
            spec = default_traceless_spectrum(sig)
            x = embed(random_flag_point(sig, int(rng.integers(1_000_000))), spec).x
            q = recover(x, spec).q
            assert abs(np.linalg.det(q) - 1.0) <= 1e-10

    def test_wrong_spectrum_is_loud(self):
        sig = make_signature(4, [2])
        spec = Spectrum((1.0, -1.0), sig)
        scaled = SymmetricMatrix(2.0 * block_diagonal_model(spec).entries)
        with pytest.raises(SpectrumMismatch):
            recover(scaled, spec)

    def test_wrong_multiplicities_are_loud(self):
        sig = make_signature(4, [2])
        spec = Spectrum((1.0, -1.0), sig)
        bad = SymmetricMatrix(np.diag([1.0, 1.0, 1.0, -1.0]))
        with pytest.raises(SpectrumMismatch):
            recover(bad, spec)

    @pytest.mark.parametrize("diagonal, message", [
        ([-2.0, -2.0, 2.0, 2.0], "eigenvalue -2.0 is 1.000e+00 from the nearest spectrum value -1.0"),
        ([1.0, 1.0, 1.0, -1.0], "value 1.0 needs multiplicity 2, found 3"),
    ])
    def test_errors_print_plain_floats(self, diagonal, message):
        # numpy 2 reprs its scalars as np.float64(...); messages must not
        spec = Spectrum((1.0, -1.0), make_signature(4, [2]))
        with pytest.raises(SpectrumMismatch) as err:
            recover(SymmetricMatrix(np.diag(diagonal)), spec)
        assert str(err.value) == message
        assert "np.float64" not in str(err.value)

    def test_narrow_gap_is_loud(self):
        sig = make_signature(2, [1])
        spec = Spectrum((1.5e-8, 0.0), sig)  # above construction tol, below 2*eig_tol
        with pytest.raises(EigenvalueGapTooSmall):
            recover(SymmetricMatrix(np.diag([1.5e-8, 0.0])), spec)


class TestMembership:
    def test_eigen_solver_failure_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        spec = default_traceless_spectrum(make_signature(4, [2]))
        with pytest.raises(EigenSolverFailed, match="did not converge"):
            membership(SymmetricMatrix(np.eye(4)), spec)

    def test_embedded_points_belong(self):
        sig = make_signature(6, [3])
        spec = default_traceless_spectrum(sig)
        x = embed(random_flag_point(sig, 5), spec).x
        assert membership(x, spec)

    def test_zero_matrix_does_not(self):
        sig = make_signature(3, [1])
        spec = Spectrum((2.0, -1.0), sig)
        assert not membership(SymmetricMatrix(np.zeros((3, 3))), spec)

    def test_perturbation_beyond_tolerance(self):
        sig = make_signature(5, [2])
        spec = Spectrum((3.0, -2.0), sig)
        for bump, member in ((10 * EIG_TOL, False), (0.5 * EIG_TOL, True)):
            bumped = block_diagonal_model(spec).entries.copy()
            bumped[0, 0] += bump
            assert membership(SymmetricMatrix(bumped), spec) is member


class TestCertificate:
    """A matrix built as q diag(a) q' from a frame q is checked by Ostrowski's
    bound on ||q'q - I|| instead of by an eigen-solve; when the bound cannot
    prove membership, the eigen-solve runs as before."""

    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        log_scale=st.floats(min_value=-3.0, max_value=3.0),
        log_noise=st.floats(min_value=-17.0, max_value=-5.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_accepts_only_what_the_eigenvalue_check_accepts(self, n, seed, log_scale, log_noise):
        rng = np.random.default_rng(seed)
        sig = random_signature(rng, n_min=n, n_max=n)
        spec = Spectrum(tuple(10.0**log_scale * v for v in default_traceless_spectrum(sig).values), sig)
        q = haar_special_orthogonal(n, rng) + 10.0**log_noise * rng.standard_normal((n, n))
        x = _embedded_image(q, spec)
        if _ostrowski_certifies(x, q, spec):
            assert _eig_deviation(x, spec) <= EIG_TOL
            assert abs(x.trace() - spec.block_trace) <= n * EIG_TOL

    @pytest.mark.parametrize("n", [2, 8, 40, 160])
    def test_accepts_orthogonal_frames(self, n):
        rng = np.random.default_rng(n)
        sig = random_signature(rng, n_min=n, n_max=n)
        spec = default_traceless_spectrum(sig)
        q = haar_special_orthogonal(n, rng)
        assert _ostrowski_certifies(_embedded_image(q, spec), q, spec)

    def test_embed_solves_nothing(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        sig = make_signature(7, [2, 3])
        x = embed(random_flag_point(sig, 1), default_traceless_spectrum(sig)).x.entries
        assert x.flags.writeable is False

    def test_embed_falls_back_at_large_scale(self):
        """The bound grows with max|a| and cannot decide at (1e8, -1e8);
        embed's verdict is then the eigenvalue check's, whatever it is."""
        sig = make_signature(50, [25])
        spec = Spectrum((1e8, -1e8), sig)
        f = random_flag_point(sig, 2)
        x = _embedded_image(f.q, spec)
        assert not _ostrowski_certifies(x, f.q, spec)

        def verdict(check):
            try:
                check()
            except SpectrumMismatch as err:
                return str(err)
            return None

        assert verdict(lambda: embed(f, spec)) == verdict(lambda: _check_on_model(x, spec))

    def test_non_orthonormal_eigenvectors_fail_through_the_eigenvalue_check(self, monkeypatch):
        """An eigen-solver whose vectors are off by 1e-6 from orthonormal: the
        certificate cannot prove the projection, and the eigenvalue check
        rejects it with the message it always gave."""
        rng = np.random.default_rng(12)
        sig = make_signature(6, [2, 4])
        spec = default_traceless_spectrum(sig)
        a = random_symmetric(6, rng)
        stretch = 1.0 + 1e-6 * np.arange(1, 7) / 6

        def skewed_eigh(m, vectors=True):
            lam, vec = np.linalg.eigh(m)
            return lam, vec * stretch

        q = skewed_eigh(a)[1][:, ::-1]
        assert 1e-7 < np.linalg.norm(q.T @ q - np.eye(6)) < 1e-5
        x = (q * spec.repeated()) @ q.T
        x = (x + x.T) / 2.0
        worst = np.max(np.abs(np.linalg.eigvalsh(x) - np.sort(spec.repeated())))
        message = f"eigenvalues deviate from the prescribed spectrum by {worst:.3e} > {EIG_TOL:.3e}"
        monkeypatch.setattr(sys.modules["isoflag.geometry"], "_eigh", skewed_eigh)
        with pytest.raises(SpectrumMismatch) as err:
            nearest_point(SymmetricMatrix(a), spec)
        assert str(err.value) == message
        init = embed(random_flag_point(sig, 3), spec)
        with pytest.raises(SpectrumMismatch, match=r"^eigenvalues deviate from the prescribed spectrum by 1\.000e-06 > "):
            gradient_descent(lambda x: x - a, spec, init)


class TestTracelessSplit:
    def test_traceless_input_passes_through(self):
        x = SymmetricMatrix(np.diag([1.0, -1.0]))
        x0, c = traceless_split(x)
        assert c == 0.0
        assert np.array_equal(x0.entries, x.entries)

    def test_identity(self):
        x0, c = traceless_split(SymmetricMatrix(np.eye(4)))
        assert c == 1.0
        assert np.allclose(x0.entries, 0.0)

    def test_shifted_model(self):
        base = np.diag([3.0, 3.0, -2.0, -2.0, -2.0])
        x0, c = traceless_split(SymmetricMatrix(base + np.eye(5)))
        assert c == 1.0
        assert np.allclose(x0.entries, base)

    def test_idempotent_and_exact_recombination(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6))
        x = SymmetricMatrix((a + a.T) / 2)
        x0, c = traceless_split(x)
        assert abs(x0.trace) <= 1e-13
        again, c2 = traceless_split(x0)
        assert abs(c2) <= 1e-14
        assert np.allclose(again.entries, x0.entries, atol=1e-14)
        assert np.allclose(x0.entries + c * np.eye(6), x.entries, atol=1e-14)


@pytest.mark.parametrize(
    "call",
    [
        lambda x, spec: EmbeddedFlag(x, spec),
        lambda x, spec: membership(x, spec),
        lambda x, spec: recover(x, spec),
        lambda x, spec: nearest_point(x, spec),
        lambda x, spec: project_to_tangent(x, embed(identity_flag(spec.signature), spec)),
    ],
    ids=["EmbeddedFlag", "membership", "recover", "nearest_point", "project_to_tangent"],
)
def test_wrong_size_matrix_gives_one_message(call):
    spec = default_traceless_spectrum(make_signature(3, [1]))
    with pytest.raises(SignatureMismatch, match=r"^matrix is 4x4, signature has n=3$"):
        call(SymmetricMatrix(np.eye(4)), spec)
