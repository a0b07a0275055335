import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isoflag import (
    EIG_TOL,
    ORTH_TOL,
    EmbeddedFlag,
    FlagPoint,
    Spectrum,
    SymmetricMatrix,
    act,
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
)
from isoflag.errors import (
    EigenSolverFailed,
    EigenvalueGapTooSmall,
    NotSpecialOrthogonal,
    SignatureMismatch,
    SpectrumMismatch,
    ValidationError,
)

from isoflag.embed import _check_on_model, _eig_deviation, _ostrowski_certifies
from isoflag.flagcore import _embedded_image, _orth_defect

from _helpers import (
    haar_special_orthogonal,
    no_convergence,
    random_block_stabilizer,
    random_signature,
    random_symmetric,
)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def greedy_spectrum_match(lam, spec: Spectrum, eig_tol: float) -> bool:
    """The oracle for ``recover``'s spectrum test: each eigenvalue goes to its
    nearest spectrum value, which must lie within eig_tol, and each value
    must be found exactly as often as its block's size."""
    values = np.asarray(spec.values)
    found = [0] * len(values)
    for ev in lam:
        j = int(np.argmin(np.abs(values - ev)))
        if abs(values[j] - ev) > eig_tol:
            return False
        found[j] += 1
    return found == list(spec.signature.block_sizes)


@st.composite
def perturbed_spectra(draw):
    """(spectrum, eig_tol, x): a spectrum whose gaps exceed 2 * eig_tol, and
    a permuted diagonal x holding the repeated spectrum, in 3 of 10 draws
    with the multiplicities of two values swapped, each entry moved up or
    down by {0, 0.5, 0.999999, 1, 1.000001, 2} * eig_tol."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    sig = make_signature(sum(sizes), np.cumsum(sizes)[:-1].tolist())
    eig_tol = 10.0 ** draw(st.floats(-8.0, -2.0))
    values = [draw(st.floats(-10.0, 10.0))]
    for _ in sizes[1:]:
        values.append(values[-1] - eig_tol * draw(st.floats(2.0, 8.0, exclude_min=True)))
    values = draw(st.permutations(values))
    spec = Spectrum(tuple(values), sig)
    assume(spec.min_gap > 2 * eig_tol)
    found = list(sizes)
    if draw(st.integers(0, 9)) < 3:
        i, j = draw(st.lists(st.integers(0, len(sizes) - 1), min_size=2, max_size=2, unique=True))
        found[i], found[j] = found[j], found[i]
    lam = np.repeat(values, found)
    for k in range(lam.size):
        lam[k] += draw(st.sampled_from([-1.0, 1.0])) * draw(
            st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0])) * eig_tol
    order = draw(st.permutations(range(lam.size)))
    return spec, eig_tol, np.diag(lam)[np.ix_(order, order)]


class TestEmbed:
    def test_identity_representative(self):
        sig = make_signature(5, [2])
        spec = Spectrum((3.0, -2.0), sig)
        x = embed(identity_flag(sig), spec).x
        assert np.allclose(x.entries, np.diag(spec.repeated()))

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

    def test_repairs_a_product_of_two_accepted_frames(self):
        """Two frames each 9e-11 off orthonormal, within ORTH_TOL, make a
        product 1.8e-10 off, which ``FlagPoint`` refuses; ``act`` repairs it."""
        sig = make_signature(6, [2])
        rng = np.random.default_rng(0)
        r, q = (haar_special_orthogonal(6, rng) * (1 + 9e-11 / (2 * np.sqrt(6))) for _ in range(2))
        for frame in (r, q):
            assert 8.9e-11 < _orth_defect(frame) <= ORTH_TOL
        assert _orth_defect(r @ q) > ORTH_TOL
        spec = default_traceless_spectrum(sig)
        f = FlagPoint(q, sig)
        g = act(r, f)
        assert _orth_defect(g.q) <= 1e-14
        assert np.linalg.norm(embed(g, spec).x.entries - r @ embed(f, spec).x.entries @ r.T) <= 1e-10


class TestRecover:
    def test_base_model_recovers_base_flag(self):
        sig = make_signature(5, [2])
        spec = Spectrum((3.0, -2.0), sig)
        f = recover(SymmetricMatrix(np.diag(spec.repeated())), spec)
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
        scaled = SymmetricMatrix(2.0 * np.diag(spec.repeated()))
        with pytest.raises(SpectrumMismatch):
            recover(scaled, spec)

    def test_wrong_multiplicities_are_loud(self):
        sig = make_signature(4, [2])
        spec = Spectrum((1.0, -1.0), sig)
        bad = SymmetricMatrix(np.diag([1.0, 1.0, 1.0, -1.0]))
        with pytest.raises(SpectrumMismatch):
            recover(bad, spec)

    @pytest.mark.parametrize("diagonal, worst", [
        ([-2.0, -2.0, 2.0, 2.0], "1.000e+00"),
        ([1.0, 1.0, 1.0, -1.0], "2.000e+00"),
    ], ids=["wrong-values", "wrong-multiplicity"])
    def test_errors_print_plain_floats(self, diagonal, worst):
        """Wrong values and a wrong multiplicity get the model's one message,
        with recover's own tolerance; numpy 2 reprs its scalars as
        np.float64(...), and the message must not."""
        spec = Spectrum((1.0, -1.0), make_signature(4, [2]))
        with pytest.raises(SpectrumMismatch) as err:
            recover(SymmetricMatrix(np.diag(diagonal)), spec, eig_tol=1e-3)
        assert str(err.value) == f"eigenvalues deviate from the prescribed spectrum by {worst} > 1.000e-03"
        assert "np.float64" not in str(err.value)

    @given(perturbed_spectra())
    @settings(max_examples=500, deadline=None)
    def test_accepts_exactly_what_nearest_value_matching_accepts(self, case):
        """With every spectrum gap above 2 * eig_tol, as recover requires, its
        one sorted comparison accepts exactly the eigenvalues that greedy
        nearest-value matching with exact multiplicities accepts."""
        spec, eig_tol, x = case
        expected = greedy_spectrum_match(np.linalg.eigh(x)[0], spec, eig_tol)
        try:
            recover(SymmetricMatrix(x), spec, eig_tol=eig_tol)
        except SpectrumMismatch:
            assert not expected
        else:
            assert expected

    @pytest.mark.parametrize("eig_tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_eig_tol(self, eig_tol):
        spec = Spectrum((0.5, -0.5), make_signature(4, [2]))
        with pytest.raises(ValidationError, match=r"^eig_tol must be finite and >= 0, got "):
            recover(SymmetricMatrix(np.diag([5.0, 5.0, -5.0, -5.0])), spec, eig_tol=eig_tol)

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
            bumped = np.diag(spec.repeated())
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
        if _ostrowski_certifies(_orth_defect(q), n, spec):
            assert _eig_deviation(np.linalg.eigvalsh(x), spec) <= EIG_TOL
            assert abs(x.trace() - np.dot(sig.block_sizes, spec.values)) <= n * EIG_TOL

    @pytest.mark.parametrize("n", [2, 8, 40, 160])
    def test_accepts_orthogonal_frames(self, n):
        rng = np.random.default_rng(n)
        sig = random_signature(rng, n_min=n, n_max=n)
        spec = default_traceless_spectrum(sig)
        q = haar_special_orthogonal(n, rng)
        assert _ostrowski_certifies(_orth_defect(q), n, spec)

    def test_embed_solves_nothing(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        sig = make_signature(7, [2, 3])
        x = embed(random_flag_point(sig, 1), default_traceless_spectrum(sig)).x.entries
        assert x.flags.writeable is False

    @pytest.mark.parametrize("delta, certified", [(0.49, True), (0.51, False)])
    def test_declines_a_frame_past_half_a_unit_off_orthonormal(self, delta, certified):
        """Its rounding terms hold only while ||q'q - I||_F <= 1/2, so past that
        it declines before it forms the bound, even where the bound alone would
        accept: here q = c I with ||q'q - I||_F = delta and max|a| = 1.5e-8, so
        max|a| * delta is below EIG_TOL either way."""
        spec = Spectrum((1.5e-8, -1.5e-8), make_signature(2, [1]))
        q = np.sqrt(1 + delta / np.sqrt(2)) * np.eye(2)
        assert np.linalg.norm(q.T @ q - np.eye(2)) == pytest.approx(delta)
        assert _ostrowski_certifies(_orth_defect(q), 2, spec) is certified

    def test_embed_falls_back_at_large_scale(self):
        """The bound grows with max|a| and cannot decide at (1e8, -1e8);
        embed's verdict is then the eigenvalue check's, whatever it is."""
        sig = make_signature(50, [25])
        spec = Spectrum((1e8, -1e8), sig)
        f = random_flag_point(sig, 2)
        x = _embedded_image(f.q, spec)
        assert not _ostrowski_certifies(_orth_defect(f.q), 50, spec)

        def verdict(check):
            try:
                check()
            except SpectrumMismatch as err:
                return str(err)
            return None

        lam = np.linalg.eigvalsh(x)
        assert verdict(lambda: embed(f, spec)) == verdict(lambda: _check_on_model(lam, spec, EIG_TOL))

    def test_non_orthonormal_eigenvectors_fail_through_the_eigenvalue_check(self, monkeypatch):
        """An eigen-solver whose vectors are off by 3e-3 from orthonormal: one
        Newton-Schulz step leaves them off by 4e-6, too far for the
        certificate to prove the projection, and the eigenvalue check rejects
        the repaired frame's image with the message it always gave."""
        rng = np.random.default_rng(12)
        sig = make_signature(6, [2, 4])
        spec = default_traceless_spectrum(sig)
        a = random_symmetric(6, rng)
        stretch = 1.0 + 1e-3 * np.arange(1, 7) / 6

        def skewed_eigh(m, vectors=True):
            lam, vec = np.linalg.eigh(m)
            return lam, vec * stretch

        q = skewed_eigh(a)[1][:, ::-1]
        assert 1e-3 < np.linalg.norm(q.T @ q - np.eye(6)) < 1e-2
        q = q @ ((3.0 * np.eye(6) - q.T @ q) / 2.0)
        assert 1e-6 < np.linalg.norm(q.T @ q - np.eye(6)) < 1e-5
        x = (q * spec.repeated()) @ q.T
        x = (x + x.T) / 2.0
        worst = np.max(np.abs(np.linalg.eigvalsh(x) - np.sort(spec.repeated())))
        message = f"eigenvalues deviate from the prescribed spectrum by {worst:.3e} > {EIG_TOL:.3e}"
        monkeypatch.setattr(sys.modules["isoflag.geometry"], "_eigh", skewed_eigh)
        with pytest.raises(SpectrumMismatch) as err:
            nearest_point(SymmetricMatrix(a), spec)
        assert str(err.value) == message
        init = embed(random_flag_point(sig, 3), spec)
        with pytest.raises(SpectrumMismatch, match=r"^eigenvalues deviate from the prescribed spectrum by 1\.500e-06 > "):
            gradient_descent(lambda x: x - a, spec, init)


embed_mod = sys.modules["isoflag.embed"]  # the package's ``embed`` is the function


class TestFrameRepair:
    """A frame the certificate declines only for its defect, at most 1/2, is
    repaired by one Newton-Schulz step and certified again."""

    def test_a_frame_off_by_1e_5_is_repaired(self, monkeypatch):
        """LAPACK's syevd can return eigenvectors of a matrix with clustered
        eigenvalues that are orthonormal to within only 1e-5: here the
        eigen-solve that ``_nearest_image`` calls is made to return such a
        frame, vec (I + E) with E symmetric."""
        rng = np.random.default_rng(9)
        sig = make_signature(12, [3, 7])
        spec = default_traceless_spectrum(sig)
        a = SymmetricMatrix(random_symmetric(12, rng))
        exact = nearest_point(a, spec).x.entries
        e = random_symmetric(12, rng)
        e *= 5e-6 / np.linalg.norm(e)

        def perturbed_eigh(m, vectors=True):
            lam, vec = np.linalg.eigh(m)
            return lam, vec @ (np.eye(12) + e)

        assert 5e-6 < _orth_defect(perturbed_eigh(a.entries)[1]) < 2e-5
        repairs = []
        newton_schulz = embed_mod._newton_schulz
        monkeypatch.setattr(sys.modules["isoflag.geometry"], "_eigh", perturbed_eigh)
        monkeypatch.setattr(embed_mod, "_newton_schulz", lambda q: repairs.append(q) or newton_schulz(q))
        x = nearest_point(a, spec).x.entries
        assert len(repairs) == 1
        assert np.linalg.norm(x - exact) <= 1e-9
        assert _eig_deviation(np.linalg.eigvalsh(x), spec) <= EIG_TOL

    def test_no_repair_where_the_certificate_accepts(self, monkeypatch):
        def refuse(q):
            raise AssertionError("a certified frame was repaired")

        monkeypatch.setattr(embed_mod, "_newton_schulz", refuse)
        rng = np.random.default_rng(10)
        for n in (2, 8, 40, 160):
            sig = random_signature(rng, n_min=n, n_max=n)
            spec = default_traceless_spectrum(sig)
            f = random_flag_point(sig, n)
            embed(f, spec)
            act(haar_special_orthogonal(n, rng), f)
            target = random_symmetric(n, rng)
            gradient_descent(lambda x: x - target, spec, embed(f, spec), max_iters=3)

    def test_no_repair_where_only_the_scale_declines(self, monkeypatch):
        """At (1e5, -1e5) and n = 50 the rounding terms alone exceed EIG_TOL,
        so a repaired frame could not be certified either: the image is the
        frame's own, bit for bit, and the eigenvalue check accepts it."""
        def refuse(q):
            raise AssertionError("a frame was repaired that no repair could certify")

        monkeypatch.setattr(embed_mod, "_newton_schulz", refuse)
        sig = make_signature(50, [25])
        spec = Spectrum((1e5, -1e5), sig)
        assert not _ostrowski_certifies(0.0, 50, spec)
        f = random_flag_point(sig, 2)
        assert np.array_equal(embed(f, spec).x.entries, _embedded_image(f.q, spec))


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
