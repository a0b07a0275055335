import inspect
import itertools
import sys
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflag import (
    HighestWeight,
    enumerate_low_dim,
    fundamental_weight,
    parse_weight,
    single_row_dim,
    spin_dimension,
    traceless_sym_dim,
    verify_classification,
    weyl_dim,
)
from isoflag import cli, repdim
from isoflag.flagcore import _prechecked
from isoflag.repdim import EnumerationHit, EnumerationReport
from isoflag.errors import (
    HypothesisViolated,
    IndexOutOfRange,
    IsoflagError,
    MixedParity,
    NotAnInteger,
    NotDominant,
    ValidationError,
)

from _helpers import branching_dim

HALF = Fraction(1, 2)


def proof_case_check_by_halves(n: int) -> tuple[bool, str]:
    """``passed`` and ``detail`` of the comparison-weight check, with the
    weights (2,1^{q-1},0,...), q = 2..m, and (1^q,0,...), q = 3..m, written
    in halves and built through ``from_halves``: the reference for
    verify_classification's doubled list."""
    m = n // 2
    bound = traceless_sym_dim(n)
    comparison = [(2,) + (1,) * (q - 1) + (0,) * (m - q) for q in range(2, m + 1)]
    comparison += [(1,) * q + (0,) * (m - q) for q in range(3, m + 1)]
    dims = [weyl_dim(HighestWeight.from_halves(n, halves)) for halves in comparison]
    detail = f"{len(comparison)} comparison weights, smallest dimension {min(dims)} vs bound {bound}"
    return all(d > bound for d in dims), detail


def dim_by_positive_roots(n: int, halves) -> Fraction:
    """Independent oracle: the character-theoretic dimension as the product
    of <lam+rho, alpha> / <rho, alpha> over the positive roots e_i +- e_j
    (plus e_i when n is odd), with the standard inner product."""
    m = n // 2
    lam = [Fraction(v) for v in halves]
    if n % 2 == 1:
        rho = [Fraction(n - 2 * i, 2) for i in range(1, m + 1)]
    else:
        rho = [Fraction(m - i) for i in range(1, m + 1)]
    top = [a + b for a, b in zip(lam, rho)]
    num = Fraction(1)
    den = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            num *= (top[i] - top[j]) * (top[i] + top[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
        if n % 2 == 1:
            num *= top[i]
            den *= rho[i]
    return num / den


def weyl_dim_pairwise(w: HighestWeight) -> int:
    """Reference for weyl_dim: the factors (d_i - d_j + 2(j - i)) and
    (d_i + d_j + 2(n - i - j)) over the doubled entries, each pair with its
    own denominator 4(j - i)(n - i - j), and d_i + n - 2i over n - 2i for
    odd n, multiplied out before one exact division."""
    n, d, m = w.n, w.doubled, w.n // 2
    num = 1
    den = 1
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            num *= (d[i - 1] - d[j - 1] + 2 * (j - i)) * (d[i - 1] + d[j - 1] + 2 * (n - i - j))
            den *= 4 * (j - i) * (n - i - j)
    if n % 2 == 1:
        for i in range(1, m + 1):
            num *= d[i - 1] + n - 2 * i
            den *= n - 2 * i
    q, r = divmod(num, den)
    assert r == 0 and q > 0
    return q


def shifted_product(n: int, doubled) -> int:
    """prod_{i<j} (l_i^2 - l_j^2), times prod_i l_i for odd n, over the
    doubled lam+rho coordinates l_i = doubled[i-1] + n - 2i: the Weyl factors
    <lam+rho, e_i -+ e_j> and <lam+rho, e_i> are (l_i -+ l_j)/2 and l_i/2,
    and the halves cancel against the same product at lam = 0."""
    shifted = [d + n - 2 * i for i, d in enumerate(doubled, 1)]
    sq = [x * x for x in shifted]
    return prod([a - b for i, a in enumerate(sq) for b in sq[i + 1:]] + (shifted if n % 2 else []))


def weyl_dim_shifted(w: HighestWeight) -> int:
    """Reference for weyl_dim: the whole lam+rho product, multiplied out,
    over the same product at lam = 0, divided exactly."""
    q, r = divmod(shifted_product(w.n, w.doubled), shifted_product(w.n, (0,) * (w.n // 2)))
    assert r == 0 and q > 0
    return q


def hook_dim(n: int, q: int) -> int:
    """q C(n+1, q+1) - C(n, q-1), the dimension of (2, 1^{q-1}, 0, ..., 0)
    for 1 <= q <= m; at q = m for even n, half of it, one chiral half."""
    return (q * comb(n + 1, q + 1) - comb(n, q - 1)) // (2 if 2 * q == n else 1)


def fundamental_by_cases(n: int, i: int) -> tuple[int, ...]:
    """Reference for fundamental_weight: the i-th fundamental weight of
    SO(n), doubled, written case by case for each parity of n."""
    m = n // 2
    if n % 2 == 1:
        if i <= m - 1:
            return (2,) * i + (0,) * (m - i)
        return (1,) * m
    if i <= m - 2:
        return (2,) * i + (0,) * (m - i)
    if i == m - 1:
        return (1,) * (m - 1) + (-1,)
    return (1,) * m


def all_dominant_doubled(n: int, cap_doubled: int, parity: int, include_negative=False):
    m = n // 2
    vals = list(range(cap_doubled - (cap_doubled - parity) % 2, parity - 1, -2))
    for tup in itertools.combinations_with_replacement(vals, m):
        yield tup
        if include_negative and n % 2 == 0 and tup[-1] > 0:
            yield tup[:-1] + (-tup[-1],)


def box_dimensions(n: int, cap_doubled: int):
    """Every tuple of the mu1_cap box, both parities, with its dimension."""
    return [
        (doubled, weyl_dim(HighestWeight(n, doubled)))
        for parity in (0, 1)
        for doubled in all_dominant_doubled(n, cap_doubled, parity)
    ]


def enumerate_low_dim_box(n: int, max_dim: int, cap_doubled: int, box) -> EnumerationReport:
    """Reference for enumerate_low_dim: filter the whole box (from
    box_dimensions) by dimension, with no pruning."""
    m = n // 2
    hits = []
    for doubled, dim in box:
        if dim > max_dim:
            continue
        sign_pair = n % 2 == 0 and doubled[-1] > 0
        if sign_pair:
            assert weyl_dim(HighestWeight(n, doubled[:-1] + (-doubled[-1],))) == dim
        real_form = doubled[-1] == 0 and (n % 2 == 1 or m < 2 or doubled[-2] == 0)
        hits.append(EnumerationHit(HighestWeight(n, doubled), dim, real_form, sign_pair))
    hits.sort(key=lambda h: (h.dimension, h.weight.doubled))
    return EnumerationReport(n, max_dim, tuple(hits), Fraction(cap_doubled, 2), len(box), 0, 0)


class TestHighestWeight:
    def test_rejects_mixed_parity(self):
        with pytest.raises(MixedParity):
            HighestWeight(5, (2, 1))

    def test_rejects_increasing(self):
        with pytest.raises(NotDominant):
            HighestWeight(5, (0, 2))

    def test_rejects_negative_last_for_odd_n(self):
        with pytest.raises(NotDominant):
            HighestWeight(5, (2, -2))

    def test_even_n_allows_negative_last_within_dominance(self):
        HighestWeight(8, (1, 1, 1, -1))
        with pytest.raises(NotDominant):
            HighestWeight(8, (2, 2, 0, -2))

    def test_wrong_length(self):
        with pytest.raises(NotDominant):
            HighestWeight(5, (2, 0, 0))

    def test_string_form(self):
        assert str(HighestWeight.from_halves(5, (HALF, HALF))) == "1/2,1/2"
        assert str(HighestWeight.from_halves(7, (2, 1, 0))) == "2,1,0"

    def test_rejects_nan_entry(self):
        with pytest.raises(NotAnInteger, match=r"^doubled weight entry must be an integer, got float$"):
            HighestWeight(7, (float("nan"), 0, 0))

    def test_rejects_string_entry(self):
        with pytest.raises(NotAnInteger, match=r"^doubled weight entry must be an integer, got str$"):
            HighestWeight(7, ("abc", 0, 0))

    def test_rejects_fractional_entry_instead_of_truncating(self):
        with pytest.raises(NotAnInteger):
            HighestWeight(7, (2.5, 0, 0))

    def test_rejects_float_n(self):
        with pytest.raises(NotAnInteger, match=r"^n must be an integer, got float$"):
            HighestWeight(7.0, (2, 0, 0))

    def test_numpy_integers_become_ints(self):
        w = HighestWeight(np.int64(7), (np.int32(4), np.uint8(2), 0))
        assert w == HighestWeight(7, (4, 2, 0))
        assert type(w.n) is int and all(type(d) is int for d in w.doubled)


def weight_text_by_fractions(doubled) -> str:
    """The weight text as ``Fraction`` prints each entry d/2."""
    return ",".join(str(Fraction(d, 2)) for d in doubled)


class TestWeightText:
    """Weights print from their doubled ints, byte for byte as ``Fraction``
    prints them: negative half-integers too."""

    def test_entries_print_as_their_fractions(self):
        entries = [*range(-301, 302), *(s * 10**40 + t for s in (1, -1) for t in (1, -1))]
        w = _prechecked(HighestWeight, n=2 * len(entries), doubled=tuple(entries))  # mixed parity: not checked
        assert str(w) == weight_text_by_fractions(entries)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_every_hit_and_its_mirror_print_as_their_fractions(self, n):
        for h in enumerate_low_dim(n, 2 * traceless_sym_dim(n), None).hits:
            assert str(h.weight) == weight_text_by_fractions(h.weight.doubled)
            if h.sign_pair:
                mirror = HighestWeight(n, h.weight.doubled[:-1] + (-h.weight.doubled[-1],))
                assert str(mirror) == weight_text_by_fractions(mirror.doubled)


class TestParseWeight:
    def test_full_integral(self):
        w = parse_weight(17, "2,0,0,0,0,0,0,0")
        assert w.doubled == (4,) + (0,) * 7

    def test_padding_integral(self):
        assert parse_weight(17, "1,1").doubled == (2, 2) + (0,) * 6

    def test_spin(self):
        assert parse_weight(5, "1/2,1/2").doubled == (1, 1)

    def test_rejects_mixed_parity(self):
        with pytest.raises(MixedParity):
            parse_weight(9, "2,1,1/2,1/2")

    def test_rejects_short_spin(self):
        with pytest.raises(MixedParity):
            parse_weight(7, "1/2,1/2")

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_weight(5, "a,b")


# Entries Fraction() refuses: a bad string (ValueError), x/0 (ZeroDivisionError),
# NaN (ValueError) and inf (OverflowError).
NOT_FRACTIONS = ["abc", "1/0", float("nan"), float("inf"), None, [1]]


class TestEntriesThatAreNotNumbers:
    """Each entry point that reads a half-integer raises its own error, with
    its own message, where Fraction() raises a bare Python error."""

    @pytest.mark.parametrize("bad", NOT_FRACTIONS)
    def test_from_halves_words_it_as_parse_weight(self, bad):
        with pytest.raises(ValidationError, match=r"^bad weight entry ") as err:
            HighestWeight.from_halves(7, [bad, 0, 0])
        assert type(err.value) is ValidationError
        if isinstance(bad, str):
            with pytest.raises(ValidationError) as parsed:
                parse_weight(7, f"{bad},0,0")
            assert str(err.value) == str(parsed.value)

    # None is left out: it asks for the walk without a cap (TestWalkOracle)
    @pytest.mark.parametrize("bad", [b for b in NOT_FRACTIONS if b is not None],
                             ids=["abc", "1/0", "nan", "inf", "bad5"])
    def test_enumerate_cap(self, bad):
        with pytest.raises(ValidationError, match=r"^mu1_cap must be a half-integer >= 2, got "):
            enumerate_low_dim(7, 30, bad)


class TestWeylDim:
    def test_trivial_module(self):
        assert weyl_dim(HighestWeight.from_halves(5, (0, 0))) == 1

    def test_small_odd_values(self):
        assert weyl_dim(HighestWeight.from_halves(5, (2, 0))) == 14
        assert weyl_dim(HighestWeight.from_halves(5, (1, 1))) == 10
        assert weyl_dim(HighestWeight.from_halves(5, (HALF, HALF))) == 4

    def test_n17_traceless_symmetric(self):
        w = HighestWeight.from_halves(17, (2,) + (0,) * 7)
        assert weyl_dim(w) == 152 == traceless_sym_dim(17)

    def test_so3_is_odd_dimensions(self):
        for j2 in range(0, 9):  # doubled spins 0, 1, ..., 8
            assert weyl_dim(HighestWeight(3, (j2,))) == j2 + 1

    @pytest.mark.parametrize("n", range(5, 51))
    def test_closed_form_identities(self, n):
        m = n // 2
        vector = HighestWeight.from_halves(n, (1,) + (0,) * (m - 1))
        skew = HighestWeight.from_halves(n, (1, 1) + (0,) * (m - 2))
        sym0 = HighestWeight.from_halves(n, (2,) + (0,) * (m - 1))
        assert weyl_dim(vector) == n
        assert weyl_dim(skew) == n * (n - 1) // 2
        assert weyl_dim(sym0) == (n - 1) * (n + 2) // 2

    @pytest.mark.parametrize("n", range(5, 13))
    def test_matches_positive_root_oracle(self, n):
        m = n // 2
        for parity in (0, 1):
            for doubled in all_dominant_doubled(n, 4, parity, include_negative=True):
                w = HighestWeight(n, doubled)
                oracle = dim_by_positive_roots(n, [Fraction(d, 2) for d in w.doubled])
                assert oracle.denominator == 1
                assert weyl_dim(w) == int(oracle)

    @pytest.mark.parametrize("n", range(6, 21, 2))
    def test_even_sign_flip_invariance(self, n):
        for doubled in all_dominant_doubled(n, 4, 0):
            if doubled[-1] == 0:
                continue
            w = HighestWeight(n, doubled)
            mirror = HighestWeight(n, doubled[:-1] + (-doubled[-1],))
            assert weyl_dim(w) == weyl_dim(mirror)

    @given(
        n=st.integers(min_value=5, max_value=14),
        data=st.data(),
    )
    @settings(max_examples=120)
    def test_always_positive_integer(self, n, data):
        m = n // 2
        parity = data.draw(st.integers(min_value=0, max_value=1))
        entries = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=5).map(lambda v: 2 * v + parity),
                    min_size=m,
                    max_size=m,
                )
            ),
            reverse=True,
        )
        dim = weyl_dim(HighestWeight(n, tuple(entries)))
        assert isinstance(dim, int) and dim >= 1


    @given(n=st.integers(min_value=3, max_value=60), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_reference(self, n, data):
        m = n // 2
        parity = data.draw(st.integers(min_value=0, max_value=1), label="parity")
        entries = sorted(
            data.draw(
                st.lists(st.integers(min_value=0, max_value=12).map(lambda v: 2 * v + parity),
                         min_size=m, max_size=m),
                label="entries",
            ),
            reverse=True,
        )
        if n % 2 == 0 and entries[-1] > 0 and data.draw(st.booleans(), label="negative last"):
            entries[-1] = -entries[-1]
        w = HighestWeight(n, tuple(entries))
        assert weyl_dim(w) == weyl_dim_pairwise(w)


# The real SO(4) modules of dimension at most 9, as (weight, dimension,
# sign_pair): each pair (mu_1, +-mu_2), mu_2 != 0, listed once.
N4_MODULES = [("0,0", 1, False), ("1,1", 3, True), ("1,0", 4, False), ("2,2", 5, True),
              ("3,3", 7, True), ("2,1", 8, True), ("2,0", 9, False), ("4,4", 9, True)]


def integer_modules_below_the_bound(n: int) -> list[tuple[str, int, bool]]:
    """The integer-weight modules of dimension at most (n-1)(n+2)/2: trivial,
    R^n, Λ²R^n and Sym²_0 R^n, with Λ²R³ = R³ at n = 3, ``N4_MODULES`` at
    n = 4, and the halves of Λ³R⁶ and Λ⁴R⁸ at n = 6 and 8."""
    if n == 3:
        return [("0", 1, False), ("1", 3, False), ("2", 5, False)]
    if n == 4:
        return N4_MODULES
    m = n // 2
    zeros = ",0" * (m - 2)
    extra = {6: [("1,1,1", 10, True)], 8: [("1,1,1,1", 35, True)]}.get(n, [])
    return [("0,0" + zeros, 1, False), ("1,0" + zeros, n, False), ("1,1" + zeros, comb(n, 2), False),
            ("2,0" + zeros, traceless_sym_dim(n), False), *extra]


class TestBranchingOracle:
    """``weyl_dim`` and the walk's dimensions against Gelfand-Tsetlin
    branching, which shares no formula with the Weyl product."""

    def test_matches_weyl_dim_in_the_box(self):
        weights = [(n, doubled) for n in range(3, 13) for parity in (0, 1)
                   for doubled in all_dominant_doubled(n, 8, parity, include_negative=True)]
        assert len(weights) == 1447
        for n, doubled in weights:
            assert branching_dim(n, doubled) == weyl_dim(HighestWeight(n, doubled)), (n, doubled)

    def test_matches_every_hit_below_the_bound(self):
        hits = [(n, h) for n in range(3, 17) for h in enumerate_low_dim(n, traceless_sym_dim(n), None).hits]
        assert len(hits) == 81
        for n, h in hits:
            assert branching_dim(n, h.weight.doubled) == h.dimension, (n, h.weight)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_names_every_integer_hit_below_the_bound(self, n):
        """The classification below the bound, weight by weight: the walk's
        non-spin hits are exactly the listed modules, whose dimensions the
        test above checks against branching."""
        hits = enumerate_low_dim(n, traceless_sym_dim(n), None).hits
        assert sorted((str(h.weight), h.dimension, h.sign_pair) for h in hits if not h.spin) == sorted(
            integer_modules_below_the_bound(n))


class TestWeylDimByCancellation:
    """weyl_dim counts the factors and cancels them; the reference multiplies
    the whole lam+rho product out."""

    @given(n=st.integers(min_value=3, max_value=69), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_shifted_product(self, n, data):
        m = n // 2
        parity = data.draw(st.integers(min_value=0, max_value=1), label="parity")
        entries = sorted(
            data.draw(
                st.lists(st.integers(min_value=0, max_value=20).map(lambda v: 2 * v + parity),
                         min_size=m, max_size=m),
                label="entries",
            ),
            reverse=True,
        )
        if n % 2 == 0 and entries[-1] > 0 and data.draw(st.booleans(), label="negative last"):
            entries[-1] = -entries[-1]
        w = HighestWeight(n, tuple(entries))
        assert weyl_dim(w) == weyl_dim_shifted(w)

    @pytest.mark.parametrize("n", [4, 5, 160])
    def test_entries_far_past_n(self, n):
        m = n // 2
        for doubled in [(2 * 10**12,) + (0,) * (m - 1), (10**9 + 1,) * m, tuple(range(2000, 2000 - 2 * m, -2))]:
            w = HighestWeight(n, doubled)
            assert weyl_dim(w) == weyl_dim_shifted(w)

    def test_a_remainder_is_loud(self, monkeypatch):
        count = repdim._count_factors

        def skewed(ends, n, doubled, c):
            count(ends, n, doubled, c)
            if c < 0:  # one more factor 3 below the line than the product has
                ends[3] = ends.get(3, 0) - 1
                ends[5] = ends.get(5, 0) + 1

        monkeypatch.setattr(repdim, "_count_factors", skewed)
        with pytest.raises(ArithmeticError, match="^dimension product is not integral for weight 1,0$"):
            weyl_dim(HighestWeight(5, (2, 0)))


class TestFundamentalWeights:
    def test_odd_cases(self):
        assert [Fraction(d, 2) for d in fundamental_weight(7, 2).doubled] == [1, 1, 0]
        assert [Fraction(d, 2) for d in fundamental_weight(7, 3).doubled] == [HALF, HALF, HALF]

    def test_even_cases(self):
        assert [Fraction(d, 2) for d in fundamental_weight(8, 3).doubled] == [HALF, HALF, HALF, -HALF]
        assert [Fraction(d, 2) for d in fundamental_weight(8, 4).doubled] == [HALF, HALF, HALF, HALF]
        assert [Fraction(d, 2) for d in fundamental_weight(8, 2).doubled] == [1, 1, 0, 0]

    @pytest.mark.parametrize("n", range(3, 41))
    def test_built_weights_pass_the_validator(self, n):
        for i in range(1, n // 2 + 1):
            w = fundamental_weight(n, i)
            assert HighestWeight(n, w.doubled) == w  # raises on a bad weight
            assert w.doubled == fundamental_by_cases(n, i)

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            fundamental_weight(7, 0)
        with pytest.raises(IndexOutOfRange):
            fundamental_weight(7, 4)


class TestSpinDimension:
    def test_headline_values(self):
        assert spin_dimension(17) == 256
        assert spin_dimension(16) == 128

    def test_cross_check_n9(self):
        assert weyl_dim(HighestWeight.from_halves(9, (HALF,) * 4)) == 16 == spin_dimension(9)

    @pytest.mark.parametrize("n", range(3, 61))
    def test_matches_weyl_dim_at_spin_weights(self, n):
        m = n // 2
        if n % 2 == 1:
            assert weyl_dim(fundamental_weight(n, m)) == spin_dimension(n)
        else:
            d1 = weyl_dim(fundamental_weight(n, m - 1))
            d2 = weyl_dim(fundamental_weight(n, m))
            assert d1 == d2 == spin_dimension(n)


class TestSingleRowDim:
    def test_zero_row(self):
        assert single_row_dim(9, 0) == 1

    def test_matches_vector_module(self):
        for n in range(5, 20):
            assert single_row_dim(n, 1) == n

    def test_s2_n17(self):
        assert single_row_dim(17, 2) == 152

    @pytest.mark.parametrize("n", range(5, 61))
    def test_matches_weyl_dim(self, n):
        m = n // 2
        for s in range(0, 9):
            w = HighestWeight.from_halves(n, (s,) + (0,) * (m - 1))
            assert single_row_dim(n, s) == weyl_dim(w)


def shift_decreases(w: HighestWeight, dd: int) -> bool:
    """Does the dimension drop when dd/2 is taken from every entry of w up to
    its last nonzero one?  That takes away a dominant weight, and
    ``enumerate_low_dim`` prunes on the dimension growing with each one added."""
    d = w.doubled
    k = max(i for i, v in enumerate(d) if v != 0)
    shifted = HighestWeight(w.n, tuple(v - dd for v in d[: k + 1]) + d[k + 1 :])
    return weyl_dim(w) > weyl_dim(shifted)


class TestShiftDecrease:
    def test_example_17(self):
        w = HighestWeight.from_halves(17, (3, 1) + (0,) * 6)
        assert shift_decreases(w, 2)

    def test_example_two_zero(self):
        w = HighestWeight.from_halves(5, (2, 0))
        assert weyl_dim(HighestWeight.from_halves(5, (1, 0))) == 5
        assert shift_decreases(w, 2)  # 14 > 5

    def test_example_one_one(self):
        w = HighestWeight.from_halves(5, (1, 1))
        assert shift_decreases(w, 2)  # 10 > 1

    def test_spin_shift(self):
        w = HighestWeight.from_halves(9, (Fraction(3, 2),) * 4)
        assert shift_decreases(w, 1)
        assert shift_decreases(w, 2)

    @pytest.mark.parametrize("n", range(5, 21))
    def test_exhaustive_integral_box(self, n):
        for doubled in all_dominant_doubled(n, 8, 0):
            nonzero = [d for d in doubled if d != 0]
            if not nonzero:
                continue
            for dd in range(2, nonzero[-1] + 1, 2):
                assert shift_decreases(HighestWeight(n, doubled), dd)


class TestEnumerate:
    def test_n17_hits(self):
        report = enumerate_low_dim(17, 152)
        dims = [h.dimension for h in report.hits]
        weights = [h.weight.doubled for h in report.hits]
        assert dims == [1, 17, 136, 152]
        assert weights == [
            (0,) * 8,
            (2,) + (0,) * 7,
            (2, 2) + (0,) * 6,
            (4,) + (0,) * 7,
        ]
        assert all(h.real_form for h in report.hits)

    def test_n17_matches_brute_force(self):
        # independent path: raw product scan instead of the package DFS
        m = 8
        expected = set()
        for parity in (0, 1):
            vals = range(parity, 9, 2)
            for tup in itertools.product(vals, repeat=m):
                if any(a < b for a, b in zip(tup, tup[1:])):
                    continue
                if weyl_dim(HighestWeight(17, tup)) <= 152:
                    expected.add(tup)
        got = {h.weight.doubled for h in enumerate_low_dim(17, 152).hits}
        assert got == expected

    def test_n17_tighter_cutoff(self):
        report = enumerate_low_dim(17, 135)
        assert [h.dimension for h in report.hits] == [1, 17]

    def test_trivial_cutoff(self):
        report = enumerate_low_dim(6, 1, mu1_cap=2)
        assert len(report.hits) == 1
        assert report.hits[0].weight.doubled == (0, 0, 0)

    def test_even_n_sign_pairs_flagged(self):
        report = enumerate_low_dim(8, 60, mu1_cap=2)
        paired = {h.weight.doubled: h.sign_pair for h in report.hits}
        assert paired[(1, 1, 1, 1)] is True  # its mirror (1,1,1,-1) shares dim 35
        assert paired[(0, 0, 0, 0)] is False

    def test_spin_hits_flagged(self):
        report = enumerate_low_dim(5, 4)
        flags = {h.weight.doubled: (h.spin, h.real_form) for h in report.hits}
        assert flags[(1, 1)] == (True, False)
        assert flags[(0, 0)] == (False, True)

    def test_sorted_and_boxed(self):
        report = enumerate_low_dim(9, 200)
        dims = [h.dimension for h in report.hits]
        assert dims == sorted(dims)
        assert all(h.dimension <= 200 for h in report.hits)
        assert report.mu1_cap == 4

    def test_rejects_small_cap(self):
        with pytest.raises(ValidationError):
            enumerate_low_dim(9, 10, mu1_cap=1)

    def test_rejects_infinite_max_dim(self):
        with pytest.raises(NotAnInteger, match=r"^max_dim must be an integer, got float$"):
            enumerate_low_dim(7, float("inf"))

    def test_rejects_fractional_n(self):
        with pytest.raises(NotAnInteger, match=r"^n must be an integer, got float$"):
            enumerate_low_dim(7.5, 30)

    def test_numpy_integer_arguments(self):
        assert repr(enumerate_low_dim(np.int64(9), np.int64(200))) == repr(enumerate_low_dim(9, 200))

    @pytest.mark.parametrize("n", range(3, 34))
    def test_matches_whole_box_reference(self, n):
        bound = traceless_sym_dim(n)
        max_dims = (1, n, n * (n - 1) // 2, bound, 2 * bound, 10**6)
        for cap in (2, Fraction(5, 2), 3, Fraction(7, 2), 4):
            box = box_dimensions(n, int(2 * cap))
            for max_dim in max_dims:
                expected = enumerate_low_dim_box(n, max_dim, int(2 * cap), box)
                assert repr(enumerate_low_dim(n, max_dim, cap)) == repr(expected)

    def test_pruning_visits_few_weights(self):
        # the n=32 box holds 5,814 tuples, of which 4 are hits
        report = enumerate_low_dim(32, traceless_sym_dim(32))
        assert len(report.hits) == 4
        assert report.visited <= 100
        assert 0 < report.pruned <= report.visited


def reference_walk(n: int, max_dim: int, cap_doubled, floor_pruned=None):
    """Reference for enumerate_low_dim's walk: the same depth-first walk and
    pruning, with every node's dimension from weyl_dim.  Returns the hits
    as (doubled, dimension) in walk order, visited and pruned.  A list given
    as ``floor_pruned`` gets each pruned raise of a lead of K entries whose
    floor, weyl_dim at (1^K, 0, ..., 0), already exceeds max_dim."""
    m = n // 2
    hits, visited, pruned = [], 0, 0
    todo = [(m - 1, (), parity, None) for parity in (0, 1)]
    while todo:
        k, suffix, lo, dim = todo.pop()
        for v in itertools.count(lo, 2) if cap_doubled is None else range(lo, cap_doubled + 1, 2):
            if v > lo or dim is None:
                visited += 1
                dim = weyl_dim(HighestWeight(n, (v,) * (k + 1) + suffix))
                if dim > max_dim:
                    pruned += 1
                    if floor_pruned is not None and v > lo \
                            and weyl_dim(HighestWeight(n, (2,) * (k + 1) + (0,) * (m - k - 1))) > max_dim:
                        floor_pruned.append((v,) * (k + 1) + suffix)
                    break
            if k > 0:
                todo.append((k - 1, (v,) + suffix, v, dim))
            else:
                hits.append(((v,) + suffix, dim))
    return hits, visited, pruned


def as_runs(suffix, runs=None):
    """The walk's run list of a nonincreasing tuple: cells (s, c, rest) of c
    copies of s, then the cells rest, which end in ``runs``."""
    for s, copies in itertools.groupby(reversed(suffix)):
        runs = (s, len(list(copies)), runs)
    return runs


def run_cells(runs) -> list:
    """The cells of a run list, checked to be well formed: each a (value,
    count, rest) triple of ints and a run list, with a positive count except
    in a root's empty cell (parity, 0, None), which may only end the list."""
    cells = []
    while runs is not None:
        assert isinstance(runs, tuple) and len(runs) == 3, runs[:4]
        cells.append(runs)
        s, c, runs = runs
        assert type(s) is int and type(c) is int and (c > 0 or (c == 0 and runs is None)), cells[-1][:2]
    return cells


def run_entries(runs) -> tuple:
    return tuple(s for s, c, _ in run_cells(runs) for _ in range(c))


class TestLeadStep:
    """``_lead_step`` against the ratio of two weyl_dim products."""

    @given(n=st.integers(min_value=3, max_value=69), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_weyl_dim_ratio(self, n, data):
        m = n // 2
        K = data.draw(st.integers(min_value=1, max_value=m), label="K")
        parity = data.draw(st.integers(min_value=0, max_value=1), label="parity")
        v = parity + 2 * data.draw(st.integers(min_value=0, max_value=10), label="v")
        suffix = tuple(sorted(data.draw(
            st.lists(st.integers(min_value=0, max_value=(v - parity) // 2).map(lambda x: 2 * x + parity),
                     min_size=m - K, max_size=m - K), label="suffix"), reverse=True))
        assert run_entries(as_runs(suffix)) == suffix
        p, q = repdim._lead_step(n, K, v, as_runs(suffix))
        before = weyl_dim(HighestWeight(n, (v,) * K + suffix))
        after = weyl_dim(HighestWeight(n, (v + 2,) * K + suffix))
        assert p > 0 and q > 0
        assert after * q == before * p
        # a root's empty cell, which ends the walk's run lists, adds no factor
        assert repdim._lead_step(n, K, v, as_runs(suffix, (parity, 0, None))) == (p, q)


def test_lead_step_cancels_the_shared_progressions():
    """A run of c equal suffix entries leaves min(c, K) factors of each
    progression: at n = 8192 a run of 4095 zeros against K = 1 leaves four
    small factors, where multiplying out whole progressions gives integers
    of tens of thousands of bits."""
    assert max(repdim._lead_step(8192, 1, 0, as_runs((0,) * 4095))).bit_length() <= 64


class TestWalkOracle:
    """The ratio-stepped walk gives the hits, ``visited`` and ``pruned`` of
    the same walk evaluated by weyl_dim at every node."""

    @pytest.mark.parametrize("n", range(3, 60))
    def test_matches_reference_walk(self, n):
        bound = traceless_sym_dim(n)
        for cap in (2, Fraction(5, 2), 3, Fraction(7, 2), 4, None):
            cap_doubled = None if cap is None else int(2 * cap)
            for max_dim in (1, n, n * (n - 1) // 2, bound, n * n, 2 * bound):
                report = enumerate_low_dim(n, max_dim, cap)
                hits, visited, pruned = reference_walk(n, max_dim, cap_doubled)
                assert {h.weight.doubled: h.dimension for h in report.hits} == dict(hits)
                assert len(report.hits) == len(hits)
                assert (report.visited, report.pruned) == (visited, pruned)

    @pytest.mark.parametrize("n", range(17, 120))
    def test_no_cap_sees_what_cap_4_sees_at_the_bound(self, n):
        bound = traceless_sym_dim(n)
        boxed, free = enumerate_low_dim(n, bound, 4), enumerate_low_dim(n, bound, None)
        assert free.mu1_cap is None and boxed.mu1_cap == 4
        assert (free.hits, free.visited, free.pruned) == (boxed.hits, boxed.visited, boxed.pruned)

    def test_no_cap_lists_weights_past_any_box(self):
        report = enumerate_low_dim(3, 40, None)
        assert [h.dimension for h in report.hits] == list(range(1, 41))
        assert max(h.weight.doubled[0] for h in report.hits) == 39


class TestFloorPruning:
    """A raise whose closed-form floor already exceeds max_dim is pruned
    without ``_lead_step``: the same nodes as the reference walk finds by
    weyl_dim, and no step at all where the floor decides every raise."""

    @pytest.mark.parametrize("n", range(3, 60))
    def test_floor_count_matches_reference_walk(self, n):
        bound = traceless_sym_dim(n)
        for cap in (2, Fraction(5, 2), 3, Fraction(7, 2), 4, None):
            cap_doubled = None if cap is None else int(2 * cap)
            for max_dim in (1, n, n * (n - 1) // 2, bound, n * n, 2 * bound):
                floored = []
                reference_walk(n, max_dim, cap_doubled, floored)
                assert enumerate_low_dim(n, max_dim, cap).floor_pruned == len(floored)

    @pytest.fixture
    def lead_steps(self, monkeypatch):
        seen = []
        lead_step = repdim._lead_step
        monkeypatch.setattr(repdim, "_lead_step", lambda n, K, v, runs: seen.append(K) or lead_step(n, K, v, runs))
        return seen

    def test_trivial_cutoff_at_4096_takes_no_step(self, lead_steps):
        report = enumerate_low_dim(4096, 1, None)
        assert lead_steps == []
        assert (report.visited, report.pruned, report.floor_pruned) == (2050, 2049, 2048)
        assert [h.dimension for h in report.hits] == [1]

    @pytest.mark.parametrize("n", [17, 18, 64, 1001])
    def test_verify_takes_six_steps(self, n, lead_steps):
        assert verify_classification(n).passed
        assert len(lead_steps) == 6 and max(lead_steps) <= 2

    def test_steps_share_short_run_lists(self, monkeypatch):
        """The walk hands ``_lead_step`` its fixed entries as a run list of a
        few cells, not as a copied tuple of m - K entries."""
        seen = []
        lead_step = repdim._lead_step
        monkeypatch.setattr(repdim, "_lead_step", lambda n, K, v, runs: seen.append((K, runs)) or lead_step(n, K, v, runs))
        assert verify_classification(8192).passed
        assert len(seen) == 6
        for K, runs in seen:
            assert len(run_cells(runs)) <= 3
            assert len(run_entries(runs)) == 4096 - K


class TestTrustedWalk:
    """The walk and its hits are built without the validator, so every
    weight whose dimension it steps to, and every hit, must pass it anyway.
    An even-n hit's mirror is not evaluated: it has the hit's dimension
    (``test_even_sign_flip_invariance``).  The comparison weights of
    verify_classification are not built at all: their closed forms stand in
    for them, and must equal weyl_dim at each of them."""

    @pytest.fixture
    def revalidated(self, monkeypatch):
        seen = []

        def checked_lead_step(n, K, v, runs):
            suffix = run_entries(runs)
            HighestWeight(n, (v,) * K + suffix)  # raises on a bad weight
            seen.append(HighestWeight(n, (v + 2,) * K + suffix))
            return lead_step(n, K, v, runs)

        lead_step = repdim._lead_step
        monkeypatch.setattr(repdim, "_lead_step", checked_lead_step)
        return seen

    @pytest.mark.parametrize("n", range(3, 25))
    def test_walk_weights_are_dominant(self, n, revalidated):
        for cap in (2, Fraction(5, 2), 3, Fraction(7, 2), 4, None):
            report = enumerate_low_dim(n, traceless_sym_dim(n), cap)
            # the two roots have closed forms, and a floor-pruned raise takes no step
            assert len(revalidated) + report.floor_pruned + 2 == report.visited
            for h in report.hits:
                assert HighestWeight(n, h.weight.doubled) == h.weight  # raises on a bad weight
            revalidated.clear()

    @pytest.mark.parametrize("n", range(5, 65))
    def test_comparison_weights_are_dominant(self, n):
        m = n // 2
        for q in range(1, m + 1):
            wedge = HighestWeight(n, (2,) * q + (0,) * (m - q))  # raises on a bad weight
            hook = HighestWeight(n, (4,) + (2,) * (q - 1) + (0,) * (m - q))
            assert repdim._wedge_dim(n, q) == weyl_dim(wedge)
            assert hook_dim(n, q) == weyl_dim(hook)

    @pytest.mark.parametrize("n", [3, 4, 9, 12, 17, 18, 24])
    def test_walk_runs_no_validator(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(HighestWeight, "__post_init__", lambda w: calls.append(w.doubled))
        for max_dim in (n, traceless_sym_dim(n), 2 * traceless_sym_dim(n)):
            assert enumerate_low_dim(n, max_dim).hits
            assert enumerate_low_dim(n, max_dim, None).hits
        assert calls == []


class TestVerifyClassification:
    def test_n17_passes(self):
        report = verify_classification(17)
        assert report.passed
        assert report.bound == 152
        assert sorted(h.dimension for h in report.hits) == [1, 17, 136, 152]

    def test_n18_passes_with_expected_dims(self):
        report = verify_classification(18)
        assert report.passed
        assert sorted(h.dimension for h in report.hits) == [1, 18, 153, 170]

    @pytest.mark.parametrize("n", range(17, 65))
    def test_four_weights_up_to_64(self, n):
        m = n // 2
        report = verify_classification(n)
        assert report.passed
        assert {h.weight.doubled: h.dimension for h in report.hits} == {
            (0,) * m: 1,
            (2,) + (0,) * (m - 1): n,
            (2, 2) + (0,) * (m - 2): n * (n - 1) // 2,
            (4,) + (0,) * (m - 1): traceless_sym_dim(n),
        }

    @pytest.mark.parametrize("n", range(17, 65))
    def test_proof_case_check_matches_halves_reference(self, n):
        checks = {c.name: c for c in verify_classification(n).checks}
        check = checks["proof_case_weights_exceed_bound"]
        assert (check.passed, check.detail) == proof_case_check_by_halves(n)

    @pytest.mark.parametrize("n", range(17, 201))
    def test_comparison_dims_match_the_closed_forms(self, n):
        m = n // 2
        expected = [hook_dim(n, q) for q in range(2, m + 1)] + [repdim._wedge_dim(n, q) for q in range(3, m + 1)]
        assert repdim._comparison_dims(n) == expected

    def test_n400_passes(self):
        report = verify_classification(400)
        assert report.passed
        assert report.checks[2].detail == "397 comparison weights, smallest dimension 10586800 vs bound 80199"

    def test_the_walk_has_no_box(self, monkeypatch):
        caps = []
        walk = repdim._walk
        monkeypatch.setattr(repdim, "_walk", lambda n, max_dim, cap: caps.append(cap) or walk(n, max_dim, cap))
        assert verify_classification(17).passed
        assert caps == [None]
        assert list(inspect.signature(verify_classification).parameters) == ["n"]

    def test_below_hypothesis_is_loud(self):
        with pytest.raises(HypothesisViolated):
            verify_classification(16)

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=(
        "the spin check's detail prints 2^14285, 4,301 digits, past int's "
        "default 4,300-digit str limit; n = 28,569 passes"))
    def test_past_the_int_str_limit_reports_or_refuses(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # CPython's default
        try:
            assert verify_classification(28571).n == 28571
        except IsoflagError:
            pass
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("bad", ["abc", None, 17.0, float("nan")])
    def test_rejects_non_integer_n(self, bad):
        with pytest.raises(NotAnInteger, match="^n must be an integer"):
            verify_classification(bad)

    def test_numpy_integer_n(self):
        assert repr(verify_classification(np.int64(17))) == repr(verify_classification(17))

    def test_check_names_are_stable(self):
        report = verify_classification(17)
        assert [c.name for c in report.checks] == [
            "spin_exceeds_bound",
            "only_four_low_weights",
            "proof_case_weights_exceed_bound",
            "single_row_exceeds_bound",
        ]


class TestVerifyBuildsNoFraction:
    """The classification and its output run in ints: ``Fraction`` is only
    for ``mu1_cap`` and for parsing entries and caps."""

    @pytest.fixture
    def fractions_built(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(repdim, "Fraction", counting)
        return built

    def test_the_counter_sees_a_cap(self, fractions_built):
        enumerate_low_dim(17, 152)
        assert fractions_built

    @pytest.mark.parametrize("n", range(17, 41))
    def test_verify_classification(self, n, fractions_built):
        report = verify_classification(n)
        assert [str(h.weight) for h in report.hits]
        assert fractions_built == []

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_repdim_verify_command(self, fmt, fractions_built, capsys):
        assert cli.main(["repdim", "verify", "--n", "24", "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert fractions_built == []
