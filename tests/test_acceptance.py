"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
Tolerances and runtime budgets are pinned here, not configurable."""

import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import expm

from isoflag import (
    FlagPoint,
    HighestWeight,
    Spectrum,
    SymmetricMatrix,
    act,
    all_signatures,
    bound_table,
    default_traceless_spectrum,
    embed,
    flag_dimension,
    flags_equal,
    fundamental_weight,
    gradient_descent,
    gunther_bound,
    isometry_defect,
    isospectral_bound,
    make_signature,
    membership,
    nearest_point,
    project_to_tangent,
    random_flag_point,
    random_tangent_block,
    recover,
    push_tangent,
    retract,
    single_row_dim,
    spin_dimension,
    verify_classification,
    wang_bound,
    weyl_dim,
    whitney_bound,
)

from _helpers import haar_special_orthogonal, random_signature, random_symmetric


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL (runtime {elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s")
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_closed_form_dimension_identities():
    with criterion(1, "closed-form dimension identities, 5 <= n <= 50", budget=1.0):
        for n in range(5, 51):
            m = n // 2
            assert weyl_dim(HighestWeight.from_halves(n, (1,) + (0,) * (m - 1))) == n
            assert weyl_dim(HighestWeight.from_halves(n, (1, 1) + (0,) * (m - 2))) \
                == n * (n - 1) // 2
            assert weyl_dim(HighestWeight.from_halves(n, (2,) + (0,) * (m - 1))) \
                == (n - 1) * (n + 2) // 2
            for s in range(5):  # the single-row form behind the classification's last check
                assert single_row_dim(n, s) == weyl_dim(HighestWeight.from_halves(n, (s,) + (0,) * (m - 1)))


def test_criterion_2_spin_dimensions():
    with criterion(2, "spin dimensions match the product formula, 5 <= n <= 25", budget=1.0):
        for n in range(5, 26):
            m = n // 2
            expected = 2**m if n % 2 == 1 else 2 ** (m - 1)
            assert spin_dimension(n) == expected
            if n % 2 == 1:
                assert weyl_dim(fundamental_weight(n, m)) == expected
            else:
                d_minus = weyl_dim(fundamental_weight(n, m - 1))
                d_plus = weyl_dim(fundamental_weight(n, m))
                assert d_minus == d_plus == expected


def test_criterion_3_low_dimension_classification():
    with criterion(3, "classification verified for 17 <= n <= 26", budget=60.0):
        for n in range(17, 27):
            report = verify_classification(n)
            assert report.passed, [c for c in report.checks if not c.passed]
            m = n // 2
            expected_weights = {
                (0,) * m,
                (2,) + (0,) * (m - 1),
                (2, 2) + (0,) * (m - 2),
                (4,) + (0,) * (m - 1),
            }
            assert {h.weight.doubled for h in report.hits} == expected_weights
            assert report.bound == (n - 1) * (n + 2) // 2


def test_criterion_4_equivariance():
    with criterion(4, "equivariance on 1000 random triples, n <= 12", budget=10.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            sig = random_signature(rng, n_max=12)
            spec = default_traceless_spectrum(sig)
            f = random_flag_point(sig, int(rng.integers(1 << 31)))
            r = haar_special_orthogonal(sig.n, rng)
            lhs = embed(act(r, f), spec).x.entries
            rhs = r @ embed(f, spec).x.entries @ r.T
            assert np.linalg.norm(lhs - rhs) <= 1e-10
            assert membership(SymmetricMatrix(rhs), spec)  # the model is SO(n)-invariant


def test_criterion_5_isometry_identity_and_pushforward():
    with criterion(5, "isometry identity (1000 blocks) + finite-difference pushforward"):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            sig = random_signature(rng, n_max=12)
            spec = default_traceless_spectrum(sig)
            b = random_tangent_block(sig, rng)
            assert isometry_defect(b, spec) <= 1e-10 * (1.0 + b.frobenius_norm() ** 2)

        h = 1e-5
        for _ in range(25):
            sig = random_signature(rng, n_max=8)
            spec = default_traceless_spectrum(sig)
            f = random_flag_point(sig, int(rng.integers(1 << 31)))
            b = random_tangent_block(sig, rng)
            b = b.scaled(1.0 / b.frobenius_norm())
            pushed = push_tangent(b, f, spec)
            v = pushed.v.entries
            bm = b.to_matrix()

            def curve(t):
                return embed(FlagPoint(f.q @ expm(t * bm), sig), spec).x.entries

            fd = (curve(h) - curve(-h)) / (2 * h)
            assert np.linalg.norm(fd - v) <= 1e-6
            # a pushforward is tangent, and a retraction follows the line to first order
            base = pushed.base
            assert np.linalg.norm(project_to_tangent(pushed.v, base).v.entries - v) <= 1e-10
            moved = retract(base, pushed, h).x.entries
            assert np.linalg.norm(moved - (base.x.entries + h * v)) <= 10 * h**2


def test_criterion_6_round_trip():
    with criterion(6, "embed -> recover -> embed on 200 random flags, n <= 10"):
        rng = np.random.default_rng(6)
        for _ in range(200):
            sig = random_signature(rng, n_max=10)
            spec = default_traceless_spectrum(sig)
            f = random_flag_point(sig, int(rng.integers(1 << 31)))
            x = embed(f, spec).x
            g = recover(x, spec)
            y = embed(g, spec).x
            assert np.linalg.norm(x.entries - y.entries) <= 1e-8
            assert flags_equal(g, f)


def _haar_batch(count, n, rng):
    a = rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(a)
    signs = np.where(np.diagonal(r, axis1=1, axis2=2) >= 0, 1.0, -1.0)
    q = q * signs[:, None, :]
    dets = np.linalg.det(q)
    q[dets < 0, :, -1] *= -1.0
    return q


def test_criterion_7_descent_and_nearest_point():
    with criterion(7, "descent reaches the nearest point (20 seeds) + search oracle"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sig = random_signature(rng, n_min=3, n_max=8)
            spec = default_traceless_spectrum(sig)
            a = random_symmetric(sig.n, rng)
            best = nearest_point(SymmetricMatrix(a), spec)
            init = embed(random_flag_point(sig, seed + 1000), spec)
            # polish well past the 1e-6 requirement (within the iteration
            # budget) so the iterate itself lands within 1e-6 of the
            # analytic minimizer, not just its gradient
            result = gradient_descent(lambda x: x - a, spec, init, max_iters=500, grad_tol=1e-9)
            assert result.iterations <= 500
            assert result.final_grad_norm <= 1e-6, f"seed {seed}"
            assert np.linalg.norm(result.point.x.entries - best.x.entries) <= 1e-6, f"seed {seed}"

        rng = np.random.default_rng(999)
        sig = make_signature(3, [1])
        spec = Spectrum((2.0, -1.0), sig)
        a = random_symmetric(3, rng, scale=2.0)
        d_best = np.linalg.norm(a - nearest_point(SymmetricMatrix(a), spec).x.entries)
        model = np.diag(spec.repeated())
        qs = _haar_batch(100_000, 3, rng)
        samples = np.einsum("nij,jk,nlk->nil", qs, model, qs)
        dists = np.linalg.norm(samples - a, axis=(1, 2))
        assert float(dists.min()) >= d_best - 1e-9


def test_criterion_8_bound_comparisons_exhaustive():
    with criterion(8, "bound comparisons over all signatures", budget=30.0):
        for n in range(2, 13):
            for sig in all_signatures(n):
                report = bound_table(sig)
                assert report.comparisons["isospectral_lt_gunther"], sig
                assert report.flag_dim >= n - 1, sig
        # and at every n: Gunther's bound increases in m, and at the least
        # dimension, m = n - 1, it exceeds the model's by max(5, n - 1)
        values = [gunther_bound(m) for m in range(1, 500 * 499 // 2 + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))
        for n in range(2, 501):
            assert gunther_bound(n - 1) - isospectral_bound(n) == max(5, n - 1), n
        # Whitney's bound 2m against the model, directly and through the
        # block sizes: sum n_i (n_i + 1) <= 2 [1 + sum_{i<j} n_i n_j];
        # and Wang's bound d|G| composed with Whitney's, d = 2m
        for n in range(2, 11):
            for sig in all_signatures(n):
                m = flag_dimension(sig)
                direct = isospectral_bound(n) <= whitney_bound(m)
                sizes = sig.block_sizes
                cross = sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1:])
                assert (sum(s * (s + 1) for s in sizes) <= 2 * (1 + cross)) == direct, sig
                assert bound_table(sig).comparisons["whitney_condition"] == direct, sig
                for g in (1, 3):
                    assert bound_table(sig, g).wang == wang_bound(whitney_bound(m), g), sig


def test_criterion_9_spot_values_recomputed():
    with criterion(9, "spot values recomputed from the defining formulas"):
        # Gr(2, R^5): blocks (2, 3)
        n, blocks = 5, (2, 3)
        m = (n**2 - sum(b**2 for b in blocks)) // 2
        expected = {
            "flag_dim": m,
            "isospectral": (n - 1) * (n + 2) // 2,
            "gunther": max(m * (m + 3) // 2 + 5, m * (m + 5) // 2),
            "whitney": 2 * m,
        }
        assert expected == {"flag_dim": 6, "isospectral": 14, "gunther": 33, "whitney": 12}
        report = bound_table(make_signature(5, [2]))
        assert report.flag_dim == expected["flag_dim"]
        assert report.isospectral == expected["isospectral"]
        assert report.gunther == expected["gunther"]
        assert report.whitney == expected["whitney"]

        n = 17
        expected_dims = sorted({1, n, n * (n - 1) // 2, (n - 1) * (n + 2) // 2})
        assert expected_dims == [1, 17, 136, 152]
        hits = verify_classification(n).hits
        assert sorted(h.dimension for h in hits) == expected_dims
