import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqnn import metrics
from medqnn.errors import UndefinedMetric


def pairwise_auc_oracle(scores, truth):
    """All-pairs statistic: P(score_pos > score_neg) + 0.5 P(tie).

    Mathematically identical to the trapezoidal area over all-threshold
    ROC points; an independent check of the curve construction.
    """
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=int)
    pos = scores[truth == 1]
    neg = scores[truth == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        cm = metrics.confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.all(cm == np.diag(np.diag(cm)))
        assert cm.sum() == 4

    def test_swapped_binary(self):
        cm = metrics.confusion_matrix([0, 1], [1, 0], 2)
        np.testing.assert_array_equal(cm, [[0, 1], [1, 0]])

    def test_per_class_partition_sums_to_total(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 3, 60)
        pred = rng.integers(0, 3, 60)
        cm = metrics.confusion_matrix(truth, pred, 3)
        k = 1  # the "class B" decomposition
        tp = cm[k, k]
        fn = cm[k].sum() - tp
        fp = cm[:, k].sum() - tp
        tn = cm.sum() - tp - fn - fp
        assert tp + fn + fp + tn == cm.sum()

    def test_errors(self):
        with pytest.raises(ValueError):
            metrics.confusion_matrix([0, 1], [0], 2)
        with pytest.raises(ValueError):
            metrics.confusion_matrix([0, 3], [0, 1], 2)


class TestMicroMetrics:
    def test_diagonal_is_perfect(self):
        cm = np.diag([3, 4, 5])
        assert metrics.micro_metrics(cm) == (1.0, 1.0, 1.0, 1.0)

    def test_symmetric_binary(self):
        cm = np.array([[5, 5], [5, 5]])
        assert metrics.micro_metrics(cm) == (0.5, 0.5, 0.5, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetric):
            metrics.micro_metrics(np.zeros((2, 2), dtype=int))

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_acc_recall_f1_identity(self, rows):
        counts = np.array(rows)
        if counts.sum() == 0:
            return
        acc, p, r, f1 = metrics.micro_metrics(counts)
        assert acc == r == f1 == p


class TestMacroPrecision:
    def test_diagonal(self):
        cm = np.diag([2, 2])
        assert metrics.macro_precision(cm) == 1.0

    def test_empty_column_scores_zero(self):
        cm = np.array([[1, 1], [0, 0]])
        # class 0 precision 1, class 1 precision 0
        assert metrics.macro_precision(cm) == pytest.approx(0.5)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            counts = rng.integers(0, 9, size=(4, 4))
            if counts.sum() == 0:
                continue
            assert metrics.macro_precision(counts) <= 1.0


class TestRocCurve:
    def test_perfect_separation(self):
        truth = np.array([0, 0, 1, 1, 1])
        assert metrics.roc_curve(truth.astype(float), truth).area == pytest.approx(1.0)

    def test_constant_scores_are_chance(self):
        truth = np.array([0, 1, 0, 1])
        curve = metrics.roc_curve(np.full(4, 0.3), truth)
        assert curve.area == pytest.approx(0.5)
        np.testing.assert_array_equal(curve.points, [[0, 0], [1, 1]])

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0, 1, 10000)
        truth = rng.integers(0, 2, 10000)
        assert abs(metrics.roc_curve(scores, truth).area - 0.5) < 0.05

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=50)
            truth = rng.integers(0, 2, 50)
            if truth.sum() in (0, 50):
                continue
            area = metrics.roc_curve(scores, truth).area
            assert area == pytest.approx(pairwise_auc_oracle(scores, truth), abs=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0, 1, 200)
        truth = rng.integers(0, 2, 200)
        a = metrics.roc_curve(scores, truth).area
        b = metrics.roc_curve(1.0 - scores, truth).area
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0, 1, 300)
        truth = rng.integers(0, 2, 300)
        a = metrics.roc_curve(scores, truth).area
        b = metrics.roc_curve(np.exp(3 * scores), truth).area
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetric):
            metrics.roc_curve([0.1, 0.2], [1, 1])

    def test_points_monotone_in_x(self):
        rng = np.random.default_rng(6)
        scores = rng.uniform(0, 1, 100)
        truth = rng.integers(0, 2, 100)
        curve = metrics.roc_curve(scores, truth)
        assert np.all(np.diff(curve.points[:, 0]) >= 0)


class TestPrCurve:
    def test_perfect_scores(self):
        truth = np.array([0, 1, 0, 1, 1])
        assert metrics.pr_curve(truth.astype(float), truth).area == pytest.approx(1.0)

    def test_constant_scores_give_prevalence(self):
        truth = np.array([1, 0, 0, 0, 1])
        curve = metrics.pr_curve(np.full(5, 0.4), truth)
        assert curve.area == pytest.approx(0.4)
        assert curve.baseline == pytest.approx(0.4)

    def test_no_positives_rejected(self):
        with pytest.raises(UndefinedMetric):
            metrics.pr_curve([0.4, 0.6], [0, 0])

    def test_area_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            scores = rng.uniform(0, 1, 40)
            truth = rng.integers(0, 2, 40)
            if truth.sum() == 0:
                continue
            assert 0.0 <= metrics.pr_curve(scores, truth).area <= 1.0


class TestOvr:
    def test_one_hot_perfect(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        probs = np.eye(3)[truth]
        result = metrics.ovr_areas(probs, truth)
        assert result["auroc_mean"] == pytest.approx(1.0)
        assert result["auprc_mean"] == pytest.approx(1.0)

    def test_uniform_probabilities_are_chance(self):
        truth = np.array([0, 1, 2, 0, 1, 2, 1, 0])
        probs = np.full((8, 3), 1 / 3)
        result = metrics.ovr_areas(probs, truth)
        assert result["auroc_mean"] == pytest.approx(0.5)

    def test_per_class_matches_binary_oracle(self):
        rng = np.random.default_rng(8)
        truth = rng.integers(0, 3, 60)
        probs = rng.uniform(0, 1, size=(60, 3))
        result = metrics.ovr_areas(probs, truth)
        for cls in range(3):
            binary = (truth == cls).astype(int)
            assert result["auroc_per_class"][cls] == pytest.approx(
                pairwise_auc_oracle(probs[:, cls], binary), abs=1e-12
            )

    def test_missing_class_excluded_with_warning(self):
        truth = np.array([0, 1, 0, 1])
        probs = np.full((4, 3), 1 / 3)
        with pytest.warns(UserWarning):
            result = metrics.ovr_areas(probs, truth)
        assert np.isnan(result["auroc_per_class"][2])
        assert np.isfinite(result["auroc_mean"])
        assert sorted(result["curves"]) == [0, 1]
        assert result["curves"][1][0].area == result["auroc_per_class"][1]

    def test_binary_rejected(self):
        with pytest.raises(ValueError):
            metrics.ovr_areas(np.full((4, 2), 0.5), [0, 1, 0, 1])


@settings(max_examples=40)
@given(st.data())
def test_micro_identity_generated(data):
    size = data.draw(st.integers(min_value=2, max_value=5))
    counts = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, 20), min_size=size, max_size=size),
                min_size=size,
                max_size=size,
            )
        )
    )
    if counts.sum() == 0:
        return
    acc, p, r, f1 = metrics.micro_metrics(counts)
    assert acc == p == r == f1
    assert 0.0 <= acc <= 1.0
