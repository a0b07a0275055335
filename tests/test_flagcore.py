import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflag import (
    FlagPoint,
    Spectrum,
    SymmetricMatrix,
    TangentBlock,
    act,
    all_signatures,
    default_traceless_spectrum,
    embed,
    flags_equal,
    identity_flag,
    make_signature,
    random_flag_point,
    random_tangent_block,
    recover,
)
from isoflag.errors import (
    AmbientTooSmall,
    KOutOfRange,
    NonIncreasingKs,
    NotAnInteger,
    NotSkewSymmetric,
    NotSpecialOrthogonal,
    NotSymmetric,
    SignatureMismatch,
    SpectrumInvalid,
    ValidationError,
)
from isoflag.flagcore import ORTH_TOL, SPECTRUM_MAX, _orth_defect, _oriented_flag

from _helpers import exact_ladder, frame_within_orth_tol, random_block_stabilizer, random_signature


@st.composite
def signatures(draw, n_max=12):
    n = draw(st.integers(min_value=2, max_value=n_max))
    ks = draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1))
    return make_signature(n, sorted(ks))


class TestSignature:
    def test_grassmannian(self):
        sig = make_signature(5, [2])
        assert sig.block_sizes == (2, 3)
        assert len(sig.ks) == 1

    def test_complete_flag(self):
        sig = make_signature(3, [1, 2])
        assert sig.block_sizes == (1, 1, 1)
        assert sig.num_blocks == 3

    def test_rejects_nonincreasing(self):
        with pytest.raises(NonIncreasingKs):
            make_signature(4, [3, 2])
        with pytest.raises(NonIncreasingKs):
            make_signature(4, [2, 2])

    def test_rejects_out_of_range(self):
        with pytest.raises(KOutOfRange):
            make_signature(5, [0])
        with pytest.raises(KOutOfRange):
            make_signature(5, [5])
        with pytest.raises(KOutOfRange):
            make_signature(5, [])

    def test_rejects_tiny_ambient(self):
        with pytest.raises(AmbientTooSmall):
            make_signature(1, [1])

    def test_rejects_infinite_ambient(self):
        with pytest.raises(NotAnInteger, match=r"^ambient dimension must be an integer, got float$"):
            make_signature(float("inf"), [1])

    def test_rejects_fractional_k_instead_of_truncating(self):
        with pytest.raises(NotAnInteger, match=r"^subspace dimension must be an integer, got float$"):
            make_signature(5, [1.5])

    def test_numpy_integers_become_ints(self):
        sig = make_signature(np.int64(5), [np.int32(1), np.uint8(3)])
        assert sig == make_signature(5, [1, 3])
        assert type(sig.n) is int and all(type(k) is int for k in sig.ks)

    @given(signatures())
    def test_block_sizes_partition_n(self, sig):
        assert sum(sig.block_sizes) == sig.n
        assert all(s >= 1 for s in sig.block_sizes)
        assert len(sig.block_sizes) == len(sig.ks) + 1


class TestSpectrum:
    def test_rejects_duplicate_values(self):
        sig = make_signature(3, [1])
        with pytest.raises(SpectrumInvalid):
            Spectrum((1.0, 1.0), sig)

    def test_rejects_wrong_length(self):
        sig = make_signature(3, [1])
        with pytest.raises(SpectrumInvalid):
            Spectrum((1.0, 0.0, -1.0), sig)

    def test_magnitude_limit(self):
        """n * max|a_i| may reach SPECTRUM_MAX = 2^1020 and no further; at
        the limit the model of a frame forms and passes its check with no
        warning."""
        sig = make_signature(4, [1, 2])
        top = SPECTRUM_MAX / 4
        with pytest.raises(SpectrumInvalid, match=r"^spectrum too large: n \* max\|a_i\| must be at most "):
            Spectrum((np.nextafter(top, np.inf), 0.0, -1.0), sig)
        with pytest.raises(SpectrumInvalid, match="spectrum too large"):
            Spectrum((1.0, 0.0, -np.nextafter(top, np.inf)), sig)
        spec = Spectrum((top, top / 2, -top), sig)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = embed(identity_flag(sig), spec).x.entries
        assert np.array_equal(np.diag(x), [top, top / 2, -top, -top])

    def test_gap_tolerance_is_overridable(self):
        # the boundary is SPECTRUM_GAP_TOL = 1e-8
        sig = make_signature(3, [1])
        with pytest.raises(SpectrumInvalid):
            Spectrum((1e-9, 0.0), sig)
        Spectrum((2e-8, 0.0), sig)

    @given(signatures())
    @settings(max_examples=60)
    def test_default_spectrum_shape(self, sig):
        spec = default_traceless_spectrum(sig)
        vals = spec.values
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert abs(np.dot(sig.block_sizes, spec.values)) <= 1e-12
        assert abs(spec.max_gap - 1.0) <= 1e-12

    def test_default_spectrum_symmetric_pair(self):
        # two blocks of equal size force the +-c shape
        spec = default_traceless_spectrum(make_signature(2, [1]))
        a, b = spec.values
        assert a > 0
        assert a == pytest.approx(-b, abs=1e-15)

    def test_default_spectrum_is_the_rounded_rational_ladder(self):
        # the reference is the exact ladder in Fractions, each value rounded once
        rng = np.random.default_rng(37)
        small = [sig for n in range(2, 13) for sig in all_signatures(n)]
        large = [random_signature(rng, 13, 5000) for _ in range(60)]
        for sig in small + large:
            assert default_traceless_spectrum(sig).values == tuple(map(float, exact_ladder(sig)))

    def test_repeated_multiset(self):
        sig = make_signature(5, [2])
        spec = Spectrum((3.0, -2.0), sig)
        assert spec.repeated().tolist() == [3.0, 3.0, -2.0, -2.0, -2.0]


class TestRandomFlagPoint:
    def test_deterministic(self):
        sig = make_signature(6, [2, 4])
        a = random_flag_point(sig, 123)
        b = random_flag_point(sig, 123)
        assert np.array_equal(a.q, b.q)

    def test_seeds_differ(self):
        sig = make_signature(6, [2, 4])
        a = random_flag_point(sig, 1)
        b = random_flag_point(sig, 2)
        assert not np.allclose(a.q, b.q)

    @pytest.mark.parametrize("seed", range(8))
    def test_special_orthogonal(self, seed):
        sig = make_signature(7, [3])
        f = random_flag_point(sig, seed)
        assert np.linalg.norm(f.q.T @ f.q - np.eye(7)) <= 1e-12
        assert abs(np.linalg.det(f.q) - 1.0) <= 1e-10

    def test_rejects_non_orthogonal(self):
        sig = make_signature(3, [1])
        with pytest.raises(NotSpecialOrthogonal):
            FlagPoint(np.ones((3, 3)), sig)
        with pytest.raises(NotSpecialOrthogonal):
            FlagPoint(np.diag([1.0, 1.0, -1.0]), sig)  # det -1

    def test_rejects_tolerance_scale_perturbation(self):
        # ORTH_TOL = 1e-10 bounds ||Q'Q - I||_F, and a bump e of one entry moves it by about 2e
        sig = make_signature(6, [3])
        for bump, accepted in ((1e-9, False), (1e-12, True)):
            q = np.eye(6)
            q[0, 0] += bump
            if accepted:
                FlagPoint(q, sig)
            else:
                with pytest.raises(NotSpecialOrthogonal, match="^Q'Q - I has Frobenius norm"):
                    FlagPoint(q, sig)


class TestRotationRule:
    """A rotation is orthogonal within ORTH_TOL and of positive determinant, at
    any n; every frame the library computes passes the same check, once."""

    @pytest.mark.parametrize("n", [500, 1000])
    def test_a_frame_within_orth_tol_is_accepted_at_any_n(self, n):
        q = frame_within_orth_tol(n)
        assert _orth_defect(q) <= ORTH_TOL and np.linalg.det(q) - 1.0 > 1e-9
        sig = make_signature(n, [n // 2])
        assert np.array_equal(FlagPoint(q, sig).q, q)
        f = random_flag_point(sig, 1)
        assert np.linalg.norm(act(q, f).q - q @ f.q) <= 1e-9

    def test_a_reflection_within_orth_tol_is_refused(self):
        q = frame_within_orth_tol(500).copy()
        q[:, -1] = -q[:, -1]
        sig = make_signature(500, [250])
        with pytest.raises(NotSpecialOrthogonal, match=r"^det Q = -1\.0000000\d*, want \+1$"):
            FlagPoint(q, sig)
        with pytest.raises(NotSpecialOrthogonal, match=r"^det Q = -1\.0000000\d*, want \+1$"):
            act(q, random_flag_point(sig, 1))

    def test_random_flag_point_checks_its_frame(self, monkeypatch):
        qr = np.linalg.qr

        def off_by_1e_6(a):
            q, r = qr(a)
            return q * (1 + 1e-6), r

        monkeypatch.setattr(np.linalg, "qr", off_by_1e_6)
        with pytest.raises(NotSpecialOrthogonal, match="^Q'Q - I has Frobenius norm "):
            random_flag_point(make_signature(6, [2, 4]), 0)

    def test_a_computed_frame_is_oriented_in_place_and_kept(self):
        sig = make_signature(5, [2])
        q = random_flag_point(sig, 3).q.copy()
        q[:, -1] = -q[:, -1]
        want = q.copy()
        want[:, -1] = -want[:, -1]
        f = _oriented_flag(q, sig)
        assert f.q is q and not q.flags.writeable
        assert np.array_equal(q, want) and np.linalg.det(q) > 0

    def test_computed_frames_are_c_contiguous(self):
        sig = make_signature(7, [2, 5])
        spec = default_traceless_spectrum(sig)
        f = random_flag_point(sig, 4)
        r = np.asfortranarray(random_flag_point(sig, 5).q)
        for q in (f.q, recover(embed(f, spec).x, spec).q, act(r, f).q):
            assert q.flags.c_contiguous and not q.flags.writeable


@pytest.mark.parametrize("draw, field", [(random_flag_point, "q"), (random_tangent_block, "matrix")])
class TestSeed:
    """Both samplers take a non-negative integer seed or a numpy Generator."""

    @pytest.mark.parametrize("seed, error, message", [
        (-1, ValidationError, r"^need seed >= 0, got -1$"),
        (1.5, NotAnInteger, r"^seed must be an integer, got float$"),
        ("3", NotAnInteger, r"^seed must be an integer, got str$"),
    ])
    def test_rejects_bad_seed(self, draw, field, seed, error, message):
        with pytest.raises(error, match=message):
            draw(make_signature(4, [2]), seed)

    def test_generator_draws_as_its_seed(self, draw, field):
        sig = make_signature(4, [2])
        a, b = draw(sig, 5), draw(sig, np.random.default_rng(5))
        assert np.array_equal(getattr(a, field), getattr(b, field))


class TestFlagsEqual:
    def test_reflexive(self):
        f = random_flag_point(make_signature(5, [1, 3]), 4)
        assert flags_equal(f, f)

    def test_stabilizer_invariance(self):
        rng = np.random.default_rng(0)
        sig = make_signature(6, [2, 3])
        f = random_flag_point(sig, 9)
        for _ in range(10):
            s = random_block_stabilizer(sig, rng)
            g = FlagPoint(f.q @ s, sig)
            assert flags_equal(f, g)

    def test_distinct_lines(self):
        sig = make_signature(2, [1])
        th = 0.3
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert not flags_equal(identity_flag(sig), FlagPoint(rot, sig))

    def test_signature_mismatch(self):
        a = random_flag_point(make_signature(4, [1]), 0)
        b = random_flag_point(make_signature(4, [2]), 0)
        with pytest.raises(SignatureMismatch):
            flags_equal(a, b)

    def test_equivalence_on_separated_triples(self):
        rng = np.random.default_rng(5)
        sig = make_signature(5, [2])
        x = random_flag_point(sig, 10)
        x2 = FlagPoint(x.q @ random_block_stabilizer(sig, rng), sig)
        x3 = FlagPoint(x2.q @ random_block_stabilizer(sig, rng), sig)
        y = random_flag_point(sig, 11)
        # reflexive, symmetric, transitive along the stabilizer chain
        assert flags_equal(x, x2) and flags_equal(x2, x)
        assert flags_equal(x2, x3)
        assert flags_equal(x, x3)
        # and distinct flags stay distinct from every member of the chain
        for rep in (x, x2, x3):
            assert not flags_equal(rep, y)


class TestTangentBlock:
    def test_matrix_round_trip(self):
        sig = make_signature(5, [1, 3])
        b = random_tangent_block(sig, 3)
        mat = b.to_matrix()
        assert np.linalg.norm(mat + mat.T) == 0.0
        c = TangentBlock(sig, mat)
        assert np.allclose(c.to_matrix(), mat)

    def test_block_accessor(self):
        sig = make_signature(4, [2])
        b = random_tangent_block(sig, 1)
        sl = sig.block_slices()
        assert np.allclose(b.matrix[sl[1], sl[0]], -b.matrix[sl[0], sl[1]].T)
        assert np.allclose(b.matrix[sl[0], sl[0]], 0.0)

    def test_from_matrix_rejects_nonzero_diagonal_block(self):
        sig = make_signature(4, [2])
        mat = np.zeros((4, 4))
        mat[0, 1] = 1.0
        mat[1, 0] = -1.0  # inside the first 2x2 diagonal block
        with pytest.raises(NotSkewSymmetric):
            TangentBlock(sig, mat)

    def test_from_matrix_rejects_nonskew(self):
        sig = make_signature(4, [2])
        with pytest.raises(NotSkewSymmetric):
            TangentBlock(sig, np.eye(4))

    def test_frobenius_norm_matches_assembled(self):
        sig = make_signature(6, [1, 4])
        b = random_tangent_block(sig, 8)
        assert b.frobenius_norm() == pytest.approx(np.linalg.norm(b.to_matrix()))

    def test_deterministic_sampling(self):
        sig = make_signature(5, [2])
        b = random_tangent_block(sig, 7)
        c = random_tangent_block(sig, 7)
        assert np.array_equal(b.matrix, c.matrix)


def blockwise_random_tangent(sig, seed):
    """The skew matrix assembled from upper blocks drawn pair by pair, in the
    order (0, 1), (0, 2), ..., (1, 2), ...: the reference that
    ``random_tangent_block`` must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    sizes, sl = sig.block_sizes, sig.block_slices()
    out = np.zeros((sig.n, sig.n))
    for i, j in itertools.combinations(range(sig.num_blocks), 2):
        b = rng.standard_normal((sizes[i], sizes[j]))
        out[sl[i], sl[j]] = b
        out[sl[j], sl[i]] = -b.T
    return out


class TestTangentBlockStorage:
    def test_random_draws_match_blockwise_reference(self):
        rng = np.random.default_rng(12)
        for seed in range(300):
            sig = random_signature(rng, n_max=12)
            assert np.array_equal(random_tangent_block(sig, seed).to_matrix(), blockwise_random_tangent(sig, seed))

    def test_near_skew_input_is_stored_exactly_skew(self):
        """Upper blocks kept bit for bit, lower blocks exactly minus their
        transpose, diagonal blocks exactly zero."""
        sig = make_signature(5, [2, 3])
        rng = np.random.default_rng(4)
        a = blockwise_random_tangent(sig, 4) + 1e-12 * rng.standard_normal((5, 5))
        b = TangentBlock(sig, a)
        sl = sig.block_slices()
        for i, j in itertools.combinations(range(sig.num_blocks), 2):
            assert np.array_equal(b.matrix[sl[i], sl[j]], a[sl[i], sl[j]])
            assert np.array_equal(b.matrix[sl[j], sl[i]], -a[sl[i], sl[j]].T)
        for i in range(sig.num_blocks):
            assert not b.matrix[sl[i], sl[i]].any()
        assert not b.matrix.flags.writeable

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((4, 5)), r"^expected shape \(4, 4\), got \(4, 5\)$"),
        (np.eye(4), r"^matrix is not skew-symmetric$"),
    ])
    def test_constructor_messages(self, bad, message):
        with pytest.raises(NotSkewSymmetric, match=message):
            TangentBlock(make_signature(4, [2]), bad)

    def test_block_map_shape_message(self):
        sig = make_signature(4, [1, 2])
        with pytest.raises(NotSkewSymmetric, match=r"^block \(0,2\) must have shape \(1, 2\), got \(2, 1\)$"):
            TangentBlock.from_block_map(sig, {(0, 2): np.ones((2, 1))})

    @pytest.mark.parametrize("key", [(1, 0), (0, 3), (0, 1, 2), "x", (0.0, 2.0)],
                             ids=["descending", "past-the-blocks", "triple", "string", "floats"])
    def test_block_map_refuses_a_key_that_is_no_block_pair(self, key):
        """A key other than a pair i < j of block indices is refused before
        any block is read: the wrong-shaped block (1, 2) never raises."""
        blocks = {(1, 2): np.ones((5, 5)), key: np.ones((1, 1))}
        with pytest.raises(NotSkewSymmetric, match=r"^block key .+ is not a pair i < j of the 3 block indices$"):
            TangentBlock.from_block_map(make_signature(4, [1, 2]), blocks)

    def test_block_map_reads_numpy_integer_keys(self):
        sig = make_signature(5, [1, 3])
        blocks = {(0, 1): np.arange(2.0).reshape(1, 2), (1, 2): np.arange(4.0).reshape(2, 2)}
        numpy_keys = {(np.int64(i), np.int32(j)): blk for (i, j), blk in blocks.items()}
        got = TangentBlock.from_block_map(sig, numpy_keys).matrix
        assert np.array_equal(got, TangentBlock.from_block_map(sig, blocks).matrix)
        sl = sig.block_slices()
        assert np.array_equal(got[sl[1], sl[2]], blocks[1, 2]) and not got[sl[0], sl[2]].any()

    def test_absent_block_map_pairs_are_zero(self):
        sig = make_signature(4, [1, 2])
        b = TangentBlock.from_block_map(sig, {(1, 2): np.array([[3.0, 4.0]])})
        sl = sig.block_slices()
        assert not b.matrix[sl[0], sl[1]].any() and not b.matrix[sl[0], sl[2]].any()
        assert np.array_equal(b.matrix[sl[2], sl[1]], np.array([[-3.0], [-4.0]]))


class TestOverflowingDefects:
    """Finite entries so large that a defect overflows fail the check they
    are given to, without a numpy RuntimeWarning before the answer."""

    def _quiet(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return build()

    def test_flag_point(self):
        with pytest.raises(NotSpecialOrthogonal, match="Frobenius norm inf"):
            self._quiet(lambda: FlagPoint(np.full((2, 2), 1e200), make_signature(2, [1])))

    def test_symmetric_matrix(self):
        a = np.array([[1e308, 1e308], [-1e308, 1e308]])
        with pytest.raises(NotSymmetric, match="^asymmetry inf exceeds"):
            self._quiet(lambda: SymmetricMatrix(a))

    @pytest.mark.parametrize("where, message", [
        ("symmetric_pair", "^matrix is not skew-symmetric$"),
        ("diagonal_block", "^diagonal block 0 is nonzero$"),
    ])
    def test_tangent_block(self, where, message):
        a = np.zeros((4, 4))
        if where == "symmetric_pair":
            a[0, 3] = a[3, 0] = 1e308
        else:
            a[0, 1], a[1, 0] = 1e200, -1e200
        with pytest.raises(NotSkewSymmetric, match=message):
            self._quiet(lambda: TangentBlock(make_signature(4, [2]), a))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteEntries:
    """Every public constructor rejects a non-finite entry with its own
    ValidationError, not with a numpy error later on."""

    def test_flag_point(self, bad):
        q = np.eye(3)
        q[0, 0] = bad
        with pytest.raises(NotSpecialOrthogonal):
            FlagPoint(q, make_signature(3, [1]))

    def test_symmetric_matrix_diagonal(self, bad):
        with pytest.raises(NotSymmetric):
            SymmetricMatrix(np.diag([1.0, bad, 0.0]))

    def test_symmetric_matrix_symmetric_pair(self, bad):
        a = np.zeros((3, 3))
        a[0, 2] = a[2, 0] = bad
        with pytest.raises(NotSymmetric):
            SymmetricMatrix(a)

    def test_tangent_block(self, bad):
        sig = make_signature(4, [1, 2])
        sl = sig.block_slices()
        blk = random_tangent_block(sig, 0).matrix[sl[1], sl[2]].copy()
        blk[0, 0] = bad
        with pytest.raises(NotSkewSymmetric):
            TangentBlock.from_block_map(sig, {(1, 2): blk})

    def test_tangent_block_from_matrix(self, bad):
        sig = make_signature(4, [2])
        mat = random_tangent_block(sig, 1).to_matrix()
        mat[0, 3], mat[3, 0] = bad, -bad
        with pytest.raises(NotSkewSymmetric):
            TangentBlock(sig, mat)

    @pytest.mark.parametrize("check", ["flag_point", "act", "from_matrix"])
    def test_finite_check_runs_first(self, bad, check):
        """The finite check runs before any defect is computed, so the error
        names the input and numpy warns of no invalid value."""
        sig = make_signature(4, [2])
        q = np.eye(4)
        q[0, 3] = bad
        skew = random_tangent_block(sig, 1).to_matrix()
        skew[0, 3], skew[3, 0] = bad, -bad
        build, error = {
            "flag_point": (lambda: FlagPoint(q, sig), NotSpecialOrthogonal),
            "act": (lambda: act(q, identity_flag(sig)), NotSpecialOrthogonal),
            "from_matrix": (lambda: TangentBlock(sig, skew), NotSkewSymmetric),
        }[check]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error, match="^entries must be finite$"):
                build()

    @pytest.mark.parametrize("where", ["diagonal", "symmetric_pair"])
    def test_symmetric_matrix_message_names_no_nan(self, bad, where):
        a = np.zeros((3, 3))
        if where == "diagonal":
            a[1, 1] = bad
        else:
            a[0, 2] = a[2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in the defect
            with pytest.raises(NotSymmetric) as info:
                SymmetricMatrix(a)
        assert str(info.value) == "entries must be finite"  # no "nan" from the defect
