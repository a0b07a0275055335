import itertools

import numpy as np
import pytest

from isoflag import (
    FlagSignature,
    all_signatures,
    bound_table,
    flag_dimension,
    gunther_bound,
    isospectral_bound,
    make_signature,
    verify_classification,
    wang_bound,
    whitney_bound,
)
from isoflag.bounds import _walk_chains
from isoflag.errors import HypothesisViolated, KOutOfRange, ValidationError


def flag_dimension_by_blocks(sig: FlagSignature) -> int:
    """(n^2 - sum n_i^2) / 2 over the block sizes n_i: the reference for
    flag_dimension, which sums n_i (n - k_i) over the chain."""
    n2 = sig.n**2 - sum(s**2 for s in sig.block_sizes)
    assert n2 % 2 == 0
    return n2 // 2


def gunther_bound_alt(m: int) -> int:
    """Gunther's bound with the constant folded inside the max:
    max{m(m+3) + 10, m(m+5)} / 2, the reference for gunther_bound."""
    return max(m * (m + 3) + 10, m * (m + 5)) // 2


def whitney_comparison(sig: FlagSignature) -> bool:
    """True iff the matrix model beats (or ties) Whitney's bound, via the
    block-size inequality

        sum n_i (n_i + 1) <= 2 [1 + sum_{i<j} n_i n_j],

    which is equivalent to the direct comparison
    isospectral_bound(n) <= n^2 - sum n_i^2: the reference for
    bound_table's ``whitney_condition``."""
    sizes = sig.block_sizes
    lhs = sum(s * (s + 1) for s in sizes)
    rhs = 2 * (1 + sum(a * b for a, b in itertools.combinations(sizes, 2)))
    return lhs <= rhs


def gunther_comparison(sig: FlagSignature) -> bool:
    """True iff the matrix model beats Gunther's bound strictly, the
    reference for bound_table's ``isospectral_lt_gunther``."""
    return isospectral_bound(sig.n) < gunther_bound(flag_dimension(sig))


def wang_whitney_composed(m: int, group_order: int) -> int:
    """2m |G|: Wang's bound fed with Whitney's embedding, the reference for
    bound_table's ``wang`` column."""
    return wang_bound(whitney_bound(m), group_order)


class TestFlagDimension:
    def test_complete_flag_r3(self):
        assert flag_dimension(make_signature(3, [1, 2])) == 3

    def test_grassmannian_2_5(self):
        assert flag_dimension(make_signature(5, [2])) == 6

    def test_circle_of_lines(self):
        assert flag_dimension(make_signature(2, [1])) == 1

    def test_lower_bound_exhaustive(self):
        for n in range(2, 15):
            for sig in all_signatures(n):
                assert flag_dimension(sig) >= n - 1

    def test_equals_block_size_form_exhaustive(self):
        for n in range(2, 15):
            for sig in all_signatures(n):
                assert flag_dimension(sig) == flag_dimension_by_blocks(sig)

    def test_equals_block_size_form_on_random_chains(self):
        rng = np.random.default_rng(200)
        for _ in range(300):
            p = int(rng.integers(1, 200))
            ks = sorted(int(k) for k in rng.choice(np.arange(1, 200), size=p, replace=False))
            sig = make_signature(200, ks)
            assert flag_dimension(sig) == flag_dimension_by_blocks(sig)


class TestGunther:
    def test_values(self):
        assert gunther_bound(6) == 33
        assert gunther_bound(3) == 14
        assert gunther_bound(1) == 7

    def test_both_written_forms_agree(self):
        for m in range(1, 301):
            assert gunther_bound(m) == gunther_bound_alt(m)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            gunther_bound(0)


class TestIsospectral:
    def test_values(self):
        assert isospectral_bound(5) == 14
        assert isospectral_bound(17) == 152
        assert isospectral_bound(2) == 2


class TestWhitney:
    def test_values(self):
        assert whitney_bound(6) == 12
        assert whitney_bound(1) == 2

    def test_gr25_whitney_beats_isospectral(self):
        sig = make_signature(5, [2])
        assert whitney_bound(flag_dimension(sig)) == 12 < isospectral_bound(5) == 14
        assert whitney_comparison(sig) is False

    def test_complete_flag_r3_isospectral_wins(self):
        sig = make_signature(3, [1, 2])
        assert isospectral_bound(3) == 5 <= whitney_bound(flag_dimension(sig)) == 6
        assert whitney_comparison(sig) is True

    def test_lines_in_rn(self):
        # blocks (1, n-1): the direct comparison flips at n = 2
        assert whitney_comparison(make_signature(2, [1])) is True
        for n in range(3, 12):
            assert whitney_comparison(make_signature(n, [1])) is False

    def test_condition_equals_direct_comparison_exhaustive(self):
        for n in range(2, 11):
            for sig in all_signatures(n):
                direct = isospectral_bound(n) <= 2 * flag_dimension(sig)
                assert whitney_comparison(sig) == direct


class TestGuntherComparison:
    def test_examples(self):
        assert gunther_comparison(make_signature(5, [2]))  # 14 < 33
        assert gunther_comparison(make_signature(2, [1]))  # 2 < 7

    def test_exhaustive(self):
        for n in range(2, 13):
            for sig in all_signatures(n):
                assert gunther_comparison(sig)


class TestWang:
    def test_product(self):
        assert wang_bound(12, 3) == 36
        assert wang_bound(7, 1) == 7

    def test_whitney_composed(self):
        assert wang_whitney_composed(6, 2) == 24 > isospectral_bound(5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            wang_bound(0, 3)


class TestBoundTable:
    def test_gr25_row(self):
        r = bound_table(make_signature(5, [2]))
        assert (r.flag_dim, r.isospectral, r.gunther, r.whitney) == (6, 14, 33, 12)
        assert r.wang is None
        assert r.comparisons["isospectral_lt_gunther"] is True
        assert r.comparisons["whitney_condition"] is False
        assert r.isospectral_label == "achieved upper bound"

    def test_complete_flag_r3_row(self):
        r = bound_table(make_signature(3, [1, 2]))
        assert (r.flag_dim, r.isospectral, r.gunther, r.whitney) == (3, 5, 14, 6)

    def test_group_order_column(self):
        r = bound_table(make_signature(5, [2]), group_order=2)
        assert r.wang == 24
        assert r.comparisons["wang_composed_gt_isospectral"] is True
        tiny = bound_table(make_signature(5, [2]), group_order=1)
        assert tiny.wang == 12
        assert tiny.comparisons["wang_composed_gt_isospectral"] is False

    def test_minimum_label_above_17(self):
        r = bound_table(make_signature(17, [4]))
        assert r.isospectral_label == "exact equivariant minimum"

    def test_minimum_label_exactly_where_the_classification_runs(self):
        """The label names the proven minimum at exactly the n that
        ``verify_classification`` accepts: both read one threshold."""
        for n in range(3, 41):
            try:
                verify_classification(n)
                classified = True
            except HypothesisViolated:
                classified = False
            label = bound_table(make_signature(n, [1])).isospectral_label
            assert (label == "exact equivariant minimum") == classified, n

    def test_invariants_exhaustive(self):
        for n in range(2, 9):
            for sig in all_signatures(n):
                r = bound_table(sig)
                for v in (r.flag_dim, r.isospectral, r.gunther, r.whitney):
                    assert isinstance(v, int)
                assert r.comparisons["isospectral_lt_gunther"]
                assert r.flag_dim == (n * n - sum(s * s for s in sig.block_sizes)) // 2

    def test_columns_equal_the_public_functions(self):
        for group_order, n in itertools.product((3, None, 1, 10**12), range(2, 13)):
            for sig in all_signatures(n):
                r = bound_table(sig, group_order=group_order)
                assert (r.isospectral, r.gunther, r.whitney) == (
                    isospectral_bound(n), gunther_bound(r.flag_dim), whitney_bound(r.flag_dim))
                expected = {
                    "isospectral_lt_gunther": gunther_comparison(sig),
                    "whitney_condition": whitney_comparison(sig),
                }
                if group_order is None:
                    assert r.wang is None
                else:
                    expected["wang_composed_gt_isospectral"] = (
                        wang_whitney_composed(r.flag_dim, group_order) > r.isospectral)
                    assert r.wang == wang_whitney_composed(r.flag_dim, group_order)
                assert list(r.comparisons.items()) == list(expected.items())


class TestSignatureEnumeration:
    def test_counts(self):
        for n in range(2, 11):
            assert sum(1 for _ in all_signatures(n)) == 2 ** (n - 1) - 1

    def test_all_valid(self):
        for sig in all_signatures(6):
            assert sig.n == 6
            assert sum(sig.block_sizes) == 6

    def test_built_without_the_validator_yet_equal_to_validated(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"FlagSignature validator ran on {self}")

        monkeypatch.setattr(FlagSignature, "__post_init__", refuse)
        swept = {n: list(all_signatures(n)) for n in range(2, 13)}
        monkeypatch.undo()
        for n, sigs in swept.items():
            chains = [ks for p in range(1, n) for ks in itertools.combinations(range(1, n), p)]
            assert [sig.ks for sig in sigs] == chains
            for sig in sigs:
                checked = FlagSignature(n, sig.ks)
                assert sig == checked and hash(sig) == hash(checked)
                assert sig.block_slices() == checked.block_slices()
                assert type(sig.n) is int and type(sig.ks) is tuple
                assert all(type(k) is int for k in sig.ks)

    def test_numpy_integer_n(self):
        sigs = list(all_signatures(np.int64(4)))
        assert len(sigs) == 7 and all(type(sig.n) is int for sig in sigs)


class TestChainWalk:
    """The walk against a fresh computation of each chain: one level per
    chain length, ``combinations`` order, its last entry, ``flag_dimension``
    and the head followed by ``str.join``."""

    @pytest.mark.parametrize("sep", [",", " ", ",\n        "])
    def test_matches_the_reference_for_every_chain(self, sep):
        for n in range(15):
            for head in ("", f"n={n} ks="):
                levels = list(_walk_chains(n, sep, head))
                chains = [list(itertools.combinations(range(1, n), p)) for p in range(1, n)]
                assert [len(level) for level in levels] == [len(level) for level in chains]
                for level, reference in zip(levels, chains):
                    for (last, m, text), ks in zip(level, reference):
                        assert last == ks[-1], (n, ks)
                        assert m == flag_dimension(FlagSignature(n, ks)), (n, ks)
                        assert text == head + sep.join(map(str, ks)), (n, ks)
