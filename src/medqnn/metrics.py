"""Confusion-matrix metrics and ROC / precision-recall curves.

A confusion matrix is its (C, C) int64 counts array, which the metric
functions take and ``eval.json`` writes as nested lists. Micro averaging
pools per-class TP/FP/FN before dividing, which makes accuracy, recall
and F1 collapse to the same number (correct / total); that identity is
contractual and is why result tables repeat the value across those
columns. Precision is reported separately as the macro average, the only
combination under which it can differ.

Curves place one threshold at every distinct score (ties grouped) and
integrate with trapezoids. Multiclass problems are scored one-vs-rest
with unweighted class means.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetric


@dataclass(frozen=True)
class Curve:
    points: np.ndarray      # (N, 2) of (x, y) in [0, 1]^2
    thresholds: np.ndarray  # (N,), +inf for the synthetic anchor point
    area: float
    baseline: float | None = None  # positive prevalence (pr curves only)


def confusion_matrix(truth, predicted, num_classes: int) -> np.ndarray:
    """Counts with rows the true class and columns the predicted one."""
    truth = np.asarray(truth, dtype=int)
    predicted = np.asarray(predicted, dtype=int)
    if truth.shape != predicted.shape:
        raise ValueError("truth and predicted must have equal length")
    if truth.size and (truth.min() < 0 or truth.max() >= num_classes):
        raise ValueError("true label out of range")
    if predicted.size and (predicted.min() < 0 or predicted.max() >= num_classes):
        raise ValueError("predicted label out of range")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (truth, predicted), 1)
    return counts


def micro_metrics(counts: np.ndarray) -> tuple[float, float, float, float]:
    """(ACC, P, R, F1) with micro pooling; all four equal by construction."""
    total = int(counts.sum())
    if total == 0:
        raise UndefinedMetric("empty confusion matrix")
    value = float(np.trace(counts)) / total
    return value, value, value, value


def macro_precision(counts: np.ndarray) -> float:
    """Unweighted mean of per-class precision; empty predicted columns score 0."""
    if counts.sum() == 0:
        raise UndefinedMetric("empty confusion matrix")
    col_sums = counts.sum(axis=0)
    diag = np.diag(counts)
    per_class = np.where(col_sums > 0, diag / np.maximum(col_sums, 1), 0.0)
    return float(per_class.mean())


def metric_set(counts: np.ndarray) -> dict[str, float]:
    """The reported row: micro ACC, R, F1 and macro precision."""
    acc, _, recall, f1 = micro_metrics(counts)
    return {"acc": acc, "precision": macro_precision(counts), "recall": recall, "f1": f1}


def _trapezoid(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    return float(np.sum((x[1:] - x[:-1]) * 0.5 * (y[1:] + y[:-1])))


def _grouped_counts(scores: np.ndarray, truth: np.ndarray):
    """Distinct scores descending with cumulative TP/FP at 'predict >= score'."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = truth[order]
    boundaries = np.nonzero(np.diff(s))[0]  # last index of each tie group
    group_ends = np.concatenate([boundaries, [len(s) - 1]])
    cum_tp = np.cumsum(t)[group_ends]
    cum_fp = (group_ends + 1) - cum_tp
    return s[group_ends], cum_tp, cum_fp


def roc_curve(scores, truth) -> Curve:
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=int)
    pos = int(truth.sum())
    neg = len(truth) - pos
    if pos == 0 or neg == 0:
        raise UndefinedMetric("ROC needs both classes in the truth labels")
    thresholds, cum_tp, cum_fp = _grouped_counts(scores, truth)
    fpr = np.concatenate([[0.0], cum_fp / neg])
    tpr = np.concatenate([[0.0], cum_tp / pos])
    thr = np.concatenate([[np.inf], thresholds])
    points = np.column_stack([fpr, tpr])
    return Curve(points=points, thresholds=thr, area=_trapezoid(points))


def pr_curve(scores, truth) -> Curve:
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=int)
    pos = int(truth.sum())
    if pos == 0:
        raise UndefinedMetric("PR needs at least one positive sample")
    thresholds, cum_tp, cum_fp = _grouped_counts(scores, truth)
    recall = cum_tp / pos
    precision = cum_tp / (cum_tp + cum_fp)
    # Horizontal anchor at recall 0 so the single-threshold curve still has
    # a well-defined trapezoidal area.
    rec = np.concatenate([[0.0], recall])
    prec = np.concatenate([[precision[0]], precision])
    thr = np.concatenate([[np.inf], thresholds])
    points = np.column_stack([rec, prec])
    prevalence = pos / len(truth)
    return Curve(points=points, thresholds=thr, area=_trapezoid(points), baseline=prevalence)


def ovr_areas(probabilities: np.ndarray, truth) -> dict:
    """One-vs-rest AUROC/AUPRC per class plus their unweighted means.

    Classes absent from the truth labels get NaN areas, are excluded from
    the means, and trigger a warning. ``curves`` maps every other class to
    its (roc, pr) curve pair.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    truth = np.asarray(truth, dtype=int)
    num_classes = probabilities.shape[1]
    if num_classes < 3:
        raise ValueError("ovr_areas is for >= 3 classes; use roc_curve/pr_curve directly")
    auroc = np.full(num_classes, np.nan)
    auprc = np.full(num_classes, np.nan)
    curves = {}
    for cls in range(num_classes):
        binary = (truth == cls).astype(int)
        if binary.sum() == 0 or binary.sum() == len(binary):
            warnings.warn(f"class {cls} missing from truth; excluded from OvR means")
            continue
        roc, pr = roc_curve(probabilities[:, cls], binary), pr_curve(probabilities[:, cls], binary)
        auroc[cls], auprc[cls] = roc.area, pr.area
        curves[cls] = roc, pr
    return {
        "auroc_mean": float(np.nanmean(auroc)),
        "auprc_mean": float(np.nanmean(auprc)),
        "auroc_per_class": auroc.tolist(),
        "auprc_per_class": auprc.tolist(),
        "curves": curves,
    }
