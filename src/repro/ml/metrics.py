"""Binary classification metrics: ROC, AUROC, confusion-based scores, lift.

The paper's headline measurement is the **area under the ROC curve** of
the churn score at each evaluation window (Figure 1).  AUROC is computed
by the rank statistic (equivalent to the Mann-Whitney U), with the
standard midrank correction for tied scores — this matches trapezoidal
integration of the ROC curve exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataError

__all__ = [
    "auroc",
    "roc_curve",
    "RocCurve",
    "confusion_at_threshold",
    "ConfusionMatrix",
    "precision_recall_f1",
    "lift_at_fraction",
]


def _validate_scores(y_true: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.ndim != 1 or scores.ndim != 1 or y_true.shape != scores.shape:
        raise DataError(
            f"labels and scores must be 1-D and same length, got "
            f"{y_true.shape} vs {scores.shape}"
        )
    labels = set(np.unique(y_true).tolist())
    if not labels <= {0, 1}:
        raise DataError(f"labels must be 0/1, got {sorted(labels)}")
    if not np.isfinite(scores).all():
        raise DataError("scores contain non-finite values")
    return y_true, scores


def auroc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the midrank (Mann-Whitney) statistic.

    Higher scores must indicate the positive class.  Requires at least
    one positive and one negative example.

    Raises
    ------
    DataError
        If only one class is present (AUROC is undefined).
    """
    y_true, scores = _validate_scores(y_true, scores)
    n_pos = int(y_true.sum())
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC undefined: need both classes present")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    # Midranks: average rank within each tie group.
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum_pos = float(ranks[y_true == 1].sum())
    u_statistic = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_statistic / (n_pos * n_neg)


@dataclass(frozen=True)
class RocCurve:
    """An ROC curve: parallel arrays of FPR, TPR and the thresholds used."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def area(self) -> float:
        """Trapezoidal area under the curve."""
        return float(np.trapezoid(self.tpr, self.fpr))


def roc_curve(y_true: np.ndarray, scores: np.ndarray) -> RocCurve:
    """ROC curve points at every distinct score threshold.

    Thresholds are the distinct scores in decreasing order, preceded by
    ``+inf`` (the all-negative operating point); the curve therefore
    starts at (0, 0) and ends at (1, 1).
    """
    y_true, scores = _validate_scores(y_true, scores)
    n_pos = int(y_true.sum())
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC curve undefined: need both classes present")
    order = np.argsort(-scores, kind="mergesort")
    sorted_labels = y_true[order]
    sorted_scores = scores[order]
    tps = np.cumsum(sorted_labels)
    fps = np.cumsum(1 - sorted_labels)
    # Keep only the last point of each tie group.
    distinct = np.r_[np.flatnonzero(np.diff(sorted_scores)), len(sorted_scores) - 1]
    tpr = np.r_[0.0, tps[distinct] / n_pos]
    fpr = np.r_[0.0, fps[distinct] / n_neg]
    thresholds = np.r_[np.inf, sorted_scores[distinct]]
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 confusion matrix counts."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.n if self.n else 0.0

    @property
    def tpr(self) -> float:
        positives = self.tp + self.fn
        return self.tp / positives if positives else 0.0

    @property
    def fpr(self) -> float:
        negatives = self.fp + self.tn
        return self.fp / negatives if negatives else 0.0


def confusion_at_threshold(
    y_true: np.ndarray, scores: np.ndarray, threshold: float
) -> ConfusionMatrix:
    """Confusion matrix when predicting positive for ``score >= threshold``."""
    y_true, scores = _validate_scores(y_true, scores)
    predicted = scores >= threshold
    actual = y_true == 1
    return ConfusionMatrix(
        tp=int(np.sum(predicted & actual)),
        fp=int(np.sum(predicted & ~actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
    )


def precision_recall_f1(
    y_true: np.ndarray, scores: np.ndarray, threshold: float
) -> tuple[float, float, float]:
    """Precision, recall and F1 at a score threshold (0 when undefined)."""
    cm = confusion_at_threshold(y_true, scores, threshold)
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return precision, recall, f1


def lift_at_fraction(y_true: np.ndarray, scores: np.ndarray, fraction: float) -> float:
    """Lift of the top ``fraction`` of customers by score.

    Lift = (positive rate among the targeted top fraction) / (base rate).
    This is the metric a retailer cares about when budgeting a retention
    campaign for the riskiest X% of customers.
    """
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    y_true, scores = _validate_scores(y_true, scores)
    base_rate = float(y_true.mean())
    if base_rate == 0.0:
        raise DataError("lift undefined: no positive examples")
    k = max(1, int(round(fraction * len(y_true))))
    top = np.argsort(-scores, kind="mergesort")[:k]
    top_rate = float(y_true[top].mean())
    return top_rate / base_rate
