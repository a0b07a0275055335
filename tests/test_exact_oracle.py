"""The matrix model against an exact oracle.

A Cayley transform Q = (I + S)^{-1}(I - S) of an integer skew S is a
rotation with rational entries, so X = Q diag(a) Q' can be formed exactly in
``Fraction``s (``tests/_helpers.py``).  The exact points check the paper's
claim (i) without roundoff: the model's affine span is the whole traceless
space, of dimension (n-1)(n+2)/2.  Their rounded floats check that the
library's float path accepts and round-trips points that lie on the model
to within one rounding.

The isotropy step of claim (ii) is exact too: an equivariant map from the
flag manifold into a module V is fixed by its value at the base flag, which
must be fixed by the isotropy group H = S(O(n_1) x ... x O(n_b)).  dim V^H is
the nullity of integer matrices: the so(n_i) generators and the det-1 sign
pairs acting on V.  No exterior power Λ^q R^n with 0 < q < n has a fixed
vector, and the fixed traceless symmetric matrices are the block-scalar
diagonals, of dimension p = b - 1, which the model's spectrum fills.  n = 2
is left out: there H = {I, -I} is central and fixes all of Sym²_0 R².

The model is an immersion, exactly: the differential of the orbit map
g ↦ g D g' at a rational rotation Q sends the so(n) basis E_ij - E_ji
(i < j) to Q [E_ij - E_ji, D] Q', and those matrices span a space of the
flag's dimension when D's block values are distinct.  Two equal adjacent
values collapse D to the coarser flag without that k, whose dimension the
rank then takes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflag import (
    FlagPoint,
    SymmetricMatrix,
    all_signatures,
    default_traceless_spectrum,
    embed,
    flag_dimension,
    flags_equal,
    make_signature,
    membership,
    recover,
)

from _helpers import (
    cayley_frame,
    exact_image,
    exact_ladder,
    exact_rank,
    fixed_space_dim,
    induced_action,
    random_integer_skew,
    random_signature,
    tangent_rank,
)


def rounded(m) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in m])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_affine_span_is_the_traceless_space(n):
    """(n-1)(n+2)/2 + 1 exact points of the model differ by vectors of rank
    (n-1)(n+2)/2, the dimension of the traceless symmetric matrices, which
    holds every difference; so no smaller affine space holds the model."""
    rng = np.random.default_rng(n)
    sig = make_signature(n, [1, n - 1]) if n > 3 else make_signature(n, [1])
    values = exact_ladder(sig)
    dim = (n - 1) * (n + 2) // 2
    points = [exact_image(cayley_frame(random_integer_skew(n, rng)), sig, values) for _ in range(dim + 1)]
    upper = [[x[i][j] for i in range(n) for j in range(i, n)] for x in points]
    assert all(sum(x[i][i] for i in range(n)) == 0 for x in points)
    assert exact_rank([[a - b for a, b in zip(row, upper[0])] for row in upper[1:]]) == dim


def test_the_cayley_frame_is_an_exact_rotation():
    q = cayley_frame(random_integer_skew(5, np.random.default_rng(0)))
    gram = [[sum(a * b for a, b in zip(ci, cj)) for cj in zip(*q)] for ci in zip(*q)]
    assert gram == [[int(i == j) for j in range(5)] for i in range(5)]
    assert exact_rank(q) == 5
    assert np.linalg.det(rounded(q)) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_rounded_cayley_points_round_trip(seed):
    rng = np.random.default_rng(seed)
    sig = random_signature(rng, 2, 6)
    spec = default_traceless_spectrum(sig)
    q = cayley_frame(random_integer_skew(sig.n, rng))
    x = rounded(exact_image(q, sig, exact_ladder(sig)))
    f = FlagPoint(rounded(q), sig)
    assert np.linalg.norm(embed(f, spec).x.entries - x) <= 1e-12
    assert membership(SymmetricMatrix(x), spec)
    assert flags_equal(recover(SymmetricMatrix(x), spec), f)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_no_exterior_power_has_a_fixed_vector(n):
    """(Λ^q R^n)^H is 0 for 0 < q < n at every signature: H fixes only the
    empty form and the volume form."""
    for sig in all_signatures(n):
        assert [fixed_space_dim(sig, q, alternating=True) for q in range(n + 1)] == [1] + [0] * (n - 1) + [1], sig


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_fixed_symmetric_matrices_are_the_block_scalars(n):
    """(Sym² R^n)^H has one dimension per block, so (Sym²_0 R^n)^H has p."""
    for sig in all_signatures(n):
        assert fixed_space_dim(sig, 2, alternating=False) == sig.num_blocks, sig


def test_the_middle_exterior_power_at_n_8_has_no_fixed_vector():
    """Λ⁴R⁸, the real form of n = 8's extra modules (1,1,1,1)±, at each Gr(k, 8)."""
    assert [fixed_space_dim(make_signature(8, [k]), 4, alternating=True) for k in range(1, 8)] == [0] * 7


def orbit_tangent_rank(q, sig, values) -> int:
    """The exact rank of the orbit map's differential at the rotation ``q``:
    of the matrices Q [E_ij - E_ji, D] Q' for i < j, each as its upper
    triangle, with D = diag(``values`` repeated by block size)."""
    n = sig.n
    d = [a for a, size in zip(values, sig.block_sizes) for _ in range(size)]
    rows = []
    for i, j in itertools.combinations(range(n), 2):
        # [A, D] = AD - DA, for a diagonal D entry (u, v) = A_uv (d_v - d_u)
        bracket = [(u, v, a * (d[v] - d[u])) for u, v, a in ((i, j, 1), (j, i, -1))]
        rows.append([sum(w * q[r][u] * q[c][v] for u, v, w in bracket) for r in range(n) for c in range(r, n)])
    return exact_rank(rows)


def symmetric_square_tangent_rank(q, sig, values) -> int:
    """``tangent_rank`` of X = Q D Q' in Sym² R^n, under the so(n) basis
    L = E_ij - E_ji (i < j) acting by the Leibniz rule.  The basis vector e_i e_j
    stands for E_ij + E_ji, so X has the coordinates X_ij for i < j and X_ii / 2,
    and rho(L) X is [L, X]."""
    n, x = sig.n, exact_image(q, sig, values)
    skews = [[[(r == i and c == j) - (r == j and c == i) for c in range(n)] for r in range(n)]
             for i, j in itertools.combinations(range(n), 2)]
    generators = [induced_action(s, 2, alternating=False, derivation=True) for s in skews]
    v = [x[i][j] / (1 + (i == j)) for i, j in itertools.combinations_with_replacement(range(n), 2)]
    return tangent_rank(v, generators)


SMALL_SIGNATURES = [sig for n in range(2, 7) for sig in all_signatures(n)]  # all 57


@pytest.mark.parametrize("sig", SMALL_SIGNATURES, ids=str)
def test_the_model_is_an_immersion_and_equal_values_collapse_it(sig):
    """At a Cayley frame, with the exact canonical values, the tangent rank is
    the flag's dimension; with the values of blocks t and t+1 made equal (t
    from 0) it is the dimension of the flag without k_t, the k between them.
    ``tangent_rank`` of the induced action on Sym² R^n gives the same ranks."""
    q = cayley_frame(random_integer_skew(sig.n, np.random.default_rng(sig.n)))
    values = exact_ladder(sig)
    assert orbit_tangent_rank(q, sig, values) == symmetric_square_tangent_rank(q, sig, values) == flag_dimension(sig)
    for t in range(len(sig.ks) if len(sig.ks) > 1 else 0):  # p >= 2, so a coarser flag remains
        merged = values[:t + 1] + values[t:t + 1] + values[t + 2:]
        coarser = make_signature(sig.n, sig.ks[:t] + sig.ks[t + 1:])
        rank = orbit_tangent_rank(q, sig, merged)
        assert rank == symmetric_square_tangent_rank(q, sig, merged) == flag_dimension(coarser), t
