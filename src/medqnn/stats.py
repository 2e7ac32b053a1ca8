"""Nonparametric model comparison: Friedman, exact Wilcoxon, Bonferroni.

With only a handful of cross-validation folds per model the usual
large-sample approximations are meaningless, so the Wilcoxon signed-rank
p value is computed exactly over all 2^n sign assignments, counted by the
rank sum they produce rather than listed one by one (n is the fold count,
2 or more). The Friedman chi-square tail uses the closed form that the
regularized upper gamma function has at integer degrees of freedom: a
finite Poisson sum for even df, erfc plus a finite sum for odd df.
``compare_models`` returns one metric's ``stats.json`` entry, each H0
verdict included, so no caller decides one again.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X >= x) of a chi-square with integer ``df`` degrees of freedom.

    With y = x/2 the tail is Q(df/2, y) = e^-y sum_{j < df/2} y^j / j! for
    even df, and erfc(sqrt y) + e^-y sum_{j < (df-1)/2} y^(j+1/2) / Gamma(j+3/2)
    for odd df. Each term is the previous one times y / order; e^-y rides
    in the first term, so a large x underflows to 0 instead of 0 * inf.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    if df % 2:
        tail = math.erfc(math.sqrt(y))
        term = math.exp(-y) * 2.0 * math.sqrt(y / math.pi)  # e^-y y^(1/2) / Gamma(3/2)
        order = 1.5
    else:
        tail = 0.0
        term = math.exp(-y)
        order = 1.0
    for _ in range(df // 2):
        tail += term
        term *= y / order
        order += 1.0
    return min(tail, 1.0)  # a probability; the sum can round a hair past 1


def _rank_with_ties(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n, ties replaced by the mean rank of the tied group.

    A group of c equal values that ends at sorted position e holds ranks
    e - c + 1 .. e, whose mean is e - (c - 1) / 2.
    """
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[group]


def friedman_test(scores: np.ndarray) -> tuple[float, float]:
    """Friedman rank test on a (k models) x (n folds) score matrix.

    chi2 = 12n / (k (k+1)) * sum_j Rbar_j^2 - 3 n (k+1), with mean ranks
    Rbar_j over folds (average ranks on ties, no tie variance correction);
    p from the chi-square upper tail with k - 1 degrees of freedom.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise ValueError("scores must be a models x folds matrix")
    k, n = scores.shape
    if k < 2 or n < 2:
        raise ValueError(f"need >= 2 models and >= 2 folds, got {k} x {n}")
    ranks = np.column_stack([_rank_with_ties(scores[:, fold]) for fold in range(n)])
    mean_ranks = ranks.mean(axis=1)
    chi2 = 12.0 * n / (k * (k + 1)) * float(np.sum(mean_ranks**2)) - 3.0 * n * (k + 1)
    chi2 = max(chi2, 0.0)  # tie-heavy inputs can round a hair below zero
    return chi2, chi2_sf(chi2, k - 1)


def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """Exact two-sided Wilcoxon signed-rank test for paired samples.

    Zero differences are dropped. W is the smaller of the two signed rank
    sums; the p value is the exact probability, over all 2^n equally
    likely sign assignments, of a min rank sum <= the observed one. All
    differences zero is degenerate and returns (0, 1).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
        raise ValueError("need two equal-length 1-d samples")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        return 0.0, 1.0
    ranks = _rank_with_ties(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    total = float(ranks.sum())
    w = min(w_plus, total - w_plus)

    # Mean ranks of ties are half-integers, so doubled rank sums are
    # integers: ways[s] counts the sign assignments whose positive ranks
    # sum to s / 2, built up one rank at a time (Python ints stay exact).
    doubled = (2.0 * ranks).astype(int)
    ways = np.zeros(int(doubled.sum()) + 1, dtype=object)
    ways[0] = 1
    for r in doubled:
        ways[r:] += ways[:-r].copy()
    sums = np.arange(len(ways))
    count = ways[np.minimum(sums, sums[-1] - sums) <= 2.0 * w].sum()
    return w, count / (1 << n)


def bonferroni(p_values, alpha: float = 0.05) -> tuple[float, list[bool]]:
    """Corrected level alpha / m and per-test reject flags (p < corrected)."""
    p_values = list(p_values)
    if not p_values:
        raise ValueError("need at least one p value")
    corrected = alpha / len(p_values)
    return corrected, [p < corrected for p in p_values]


def compare_models(model_scores: dict[str, np.ndarray], alpha: float = 0.05) -> dict:
    """Friedman over all models plus pairwise Wilcoxon with Bonferroni, as
    one metric's ``stats.json`` entry of JSON values: ``friedman_chi2``,
    ``friedman_p``, ``friedman_h0_retained``, ``alpha_corrected`` and
    ``pairwise``, which maps each pair to its ``W``, ``p`` and ``h0_retained``.

    ``model_scores`` maps model name to its per-fold score vector; pairs
    are formed in the given key order (e.g. C-DV, C-CV, DV-CV). Friedman's
    H0 is retained when its p >= ``alpha``; a pair's H0 is retained unless
    ``bonferroni`` rejects it, that is when its p >= ``alpha_corrected``,
    ``alpha`` over the number of pairs.
    """
    names = list(model_scores)
    matrix = np.vstack([np.asarray(model_scores[name], dtype=float) for name in names])
    chi2, chi2_p = friedman_test(matrix)
    pairs = list(itertools.combinations(range(len(names)), 2))
    tests = [wilcoxon_signed_rank(matrix[i], matrix[j]) for i, j in pairs]
    corrected, rejected = bonferroni([p for _, p in tests], alpha)
    return {
        "friedman_chi2": chi2,
        "friedman_p": chi2_p,
        "friedman_h0_retained": bool(chi2_p >= alpha),
        "alpha_corrected": corrected,
        "pairwise": {
            f"{names[i]}-{names[j]}": {"W": w, "p": p, "h0_retained": not reject}
            for (i, j), (w, p), reject in zip(pairs, tests, rejected)
        },
    }
