import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqnn import stats


def wilcoxon_enumeration_oracle(a, b):
    """Independent enumeration over sign tuples via itertools."""
    diffs = np.asarray(a, float) - np.asarray(b, float)
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        return 0.0, 1.0
    order = np.argsort(np.abs(diffs), kind="stable")
    ranks = np.empty(n)
    sorted_abs = np.abs(diffs)[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1
        i = j + 1
    total = ranks.sum()
    w_plus = ranks[diffs > 0].sum()
    observed = min(w_plus, total - w_plus)
    count = 0
    for signs in itertools.product((1, -1), repeat=n):
        t = sum(rank for rank, sign in zip(ranks, signs) if sign > 0)
        if min(t, total - t) <= observed + 1e-12:
            count += 1
    return observed, count / 2**n


class TestChi2Tail:
    def test_against_scipy(self):
        from scipy.stats import chi2 as scipy_chi2

        for df in range(1, 31):
            for x in (0.01, 0.5, 1.0, 3.0, 6.0, 15.0, 40.0, 80.0, 200.0):
                assert stats.chi2_sf(x, df) == pytest.approx(
                    scipy_chi2.sf(x, df), abs=1e-10
                )

    def test_closed_form_df2(self):
        # with two degrees of freedom the tail is exp(-x/2)
        assert stats.chi2_sf(6.0, 2) == pytest.approx(np.exp(-3.0), abs=1e-12)

    def test_edge_values(self):
        assert stats.chi2_sf(0.0, 4) == 1.0
        assert stats.chi2_sf(-1.0, 4) == 1.0
        with pytest.raises(ValueError):
            stats.chi2_sf(1.0, 0)


class TestRankWithTies:
    @settings(max_examples=200)
    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=12),
        st.sampled_from([1.0, 0.1, 1e-3, 7.25]),
    )
    def test_matches_scipy_average_ranks(self, values, scale):
        from scipy.stats import rankdata

        values = np.array(values, dtype=float) * scale  # few distinct values: many ties
        np.testing.assert_array_equal(
            stats._rank_with_ties(values), rankdata(values, method="average")
        )


class TestFriedman:
    def test_identical_scores(self):
        scores = np.full((3, 3), 0.8)
        chi2, p = stats.friedman_test(scores)
        assert chi2 == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_fixed_ranking(self):
        # one model always best, fixed order: ranks (1, 2, 3) in every fold
        scores = np.array([[0.9, 0.8, 0.85], [0.5, 0.4, 0.45], [0.1, 0.2, 0.15]])
        chi2, p = stats.friedman_test(scores)
        assert chi2 == pytest.approx(6.0, abs=1e-12)
        assert p == pytest.approx(np.exp(-3.0), abs=1e-12)

    def test_tied_column(self):
        scores = np.array([[0.5, 0.7], [0.5, 0.6], [0.5, 0.5]])
        chi2, p = stats.friedman_test(scores)
        assert chi2 >= 0.0
        assert 0.0 <= p <= 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            stats.friedman_test(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            stats.friedman_test(np.zeros((3, 1)))

    def test_two_models_agree_with_wilcoxon_on_unanimous_order(self):
        # with k=2 and a unanimous ordering both tests reach the same
        # retain/reject answer at any common alpha they can express
        a = np.array([0.9, 0.8, 0.85])
        b = np.array([0.5, 0.4, 0.45])
        chi2, friedman_p = stats.friedman_test(np.vstack([a, b]))
        _, wilcoxon_p = stats.wilcoxon_signed_rank(a, b)
        assert (friedman_p < 0.1) == (wilcoxon_p < 0.3)  # both flag it as the extreme case
        assert friedman_p == pytest.approx(stats.chi2_sf(3.0, 1))
        assert wilcoxon_p == pytest.approx(0.25)


class TestWilcoxon:
    def test_identical_samples(self):
        w, p = stats.wilcoxon_signed_rank([0.7, 0.8, 0.9], [0.7, 0.8, 0.9])
        assert (w, p) == (0.0, 1.0)

    def test_all_positive_differences(self):
        w, p = stats.wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        assert w == 0.0
        assert p == pytest.approx(0.25)

    def test_balanced_mixed_signs(self):
        # |d| ranks (1, 2, 3) with the negative sign on rank 3: both rank
        # sums are 3, the least extreme configuration, so the exact
        # two-sided p is 1 (verified against the enumeration oracle).
        a = np.array([1.0, 2.0, 0.0])
        b = np.array([0.9, 1.8, 0.3])
        w, p = stats.wilcoxon_signed_rank(a, b)
        assert w == 3.0
        oracle_w, oracle_p = wilcoxon_enumeration_oracle(a, b)
        assert (w, p) == (oracle_w, oracle_p)
        assert p == pytest.approx(1.0)

    def test_matches_enumeration_oracle_randomly(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = rng.integers(1, 11)
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            w, p = stats.wilcoxon_signed_rank(a, b)
            ow, op = wilcoxon_enumeration_oracle(a, b)
            assert w == pytest.approx(ow)
            assert p == pytest.approx(op, abs=1e-12)

    @settings(max_examples=30)
    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=8),
        st.lists(st.integers(-5, 5), min_size=8, max_size=8),
    )
    def test_p_is_multiple_of_two_to_one_minus_n(self, a_values, b_values):
        a = np.array(a_values, dtype=float)
        b = np.array(b_values[: len(a)], dtype=float)
        diffs = a - b
        n = int(np.count_nonzero(diffs))
        _, p = stats.wilcoxon_signed_rank(a, b)
        if n == 0:
            assert p == 1.0
        else:
            multiple = p / 2.0 ** (1 - n)
            assert multiple == pytest.approx(round(multiple), abs=1e-9)

    @pytest.mark.parametrize("n", range(21, 26))
    def test_matches_scipy_exact_beyond_twenty(self, n):
        from scipy.stats import wilcoxon

        rng = np.random.default_rng(n)
        diffs = rng.permutation(np.arange(1, n + 1)) * rng.choice([-1.0, 1.0], n) * 0.01
        w, p = stats.wilcoxon_signed_rank(diffs, np.zeros(n))
        reference = wilcoxon(diffs, method="exact")
        assert w == reference.statistic
        assert p == pytest.approx(reference.pvalue, abs=1e-12)

    def test_ties_beyond_twenty_match_chunked_enumeration(self):
        # 21 differences in 7 tied groups: all 2^21 sign rows, in chunks
        rng = np.random.default_rng(7)
        diffs = rng.integers(1, 8, size=21) * rng.choice([-1.0, 1.0], 21)
        ranks = stats._rank_with_ties(np.abs(diffs))
        total = ranks.sum()
        w_plus = ranks[diffs > 0].sum()
        observed = min(w_plus, total - w_plus)
        count = 0
        for start in range(0, 1 << 21, 1 << 16):
            rows = np.arange(start, start + (1 << 16))[:, None] >> np.arange(21) & 1
            t = rows @ ranks
            count += int(np.count_nonzero(np.minimum(t, total - t) <= observed + 1e-12))
        assert stats.wilcoxon_signed_rank(diffs, np.zeros(21)) == (observed, count / 2**21)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            stats.wilcoxon_signed_rank([1.0], [1.0, 2.0])


class TestBonferroni:
    def test_three_tests(self):
        corrected, flags = stats.bonferroni([0.01, 0.02, 0.5])
        assert corrected == pytest.approx(0.05 / 3)
        assert round(corrected, 4) == 0.0167
        assert flags == [True, False, False]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats.bonferroni([])


class TestCompareModels:
    def test_identical_models_retain_everywhere(self):
        scores = {"C": [0.8, 0.7, 0.9], "DV": [0.8, 0.7, 0.9], "CV": [0.8, 0.7, 0.9]}
        report = stats.compare_models(scores)
        assert report.friedman_p == pytest.approx(1.0)
        assert report.alpha_corrected == pytest.approx(0.05 / 3)
        names = [pair.name for pair in report.pairwise]
        assert names == ["C-DV", "C-CV", "DV-CV"]
        for pair in report.pairwise:
            assert pair.p_value == 1.0
