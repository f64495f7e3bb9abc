"""Confusion matrix, macro-averaged classification metrics, Cohen's kappa."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np


@dataclass
class FoldMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    kappa: float

    def as_row(self) -> list[float]:
        return [getattr(self, name) for name in METRIC_NAMES]


METRIC_NAMES = tuple(f.name for f in fields(FoldMetrics))  # the report columns, in order


@dataclass
class EvalReport:
    folds: list[FoldMetrics] = field(default_factory=list)

    def _column(self, name: str) -> np.ndarray:
        return np.array([getattr(f, name) for f in self.folds])

    def mean(self, name: str) -> float:
        return float(self._column(name).mean())

    def std(self, name: str) -> float:
        col = self._column(name)
        return float(col.std(ddof=1)) if len(col) > 1 else 0.0

    def summary(self) -> str:
        """The `mean±std` CSV cells, one per metric in METRIC_NAMES order."""
        return ",".join(f"{self.mean(n):.6f}±{self.std(n):.6f}" for n in METRIC_NAMES)

    def to_csv(self) -> str:
        lines = ["fold," + ",".join(METRIC_NAMES)]
        for i, f in enumerate(self.folds):
            lines.append(f"{i}," + ",".join(f"{v:.6f}" for v in f.as_row()))
        lines.append("mean±std," + self.summary())
        return "\n".join(lines) + "\n"


def confusion(labels, predictions, num_classes: int) -> np.ndarray:
    """[C, C] int64 counts; rows are the truth, columns the prediction."""
    labels = np.asarray(labels, dtype=int)
    predictions = np.asarray(predictions, dtype=int)
    if labels.shape != predictions.shape:
        raise ValueError(f"length mismatch: {labels.shape} labels vs {predictions.shape} predictions")
    for name, arr in (("label", labels), ("prediction", predictions)):
        bad = (arr < 0) | (arr >= num_classes)
        if bad.any():
            raise ValueError(f"{name} out of range [0, {num_classes}): {arr[bad][:5].tolist()}")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (labels, predictions), 1)
    return counts


def metrics(counts) -> FoldMetrics:
    """Accuracy, macro precision/recall/F1, and Cohen's kappa of `[C, C]`
    confusion counts (rows = truth, columns = prediction).

    Degenerate 0/0 cells (class never predicted or never present) define
    to 0 with a warning.
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(counts)
    pred_totals = counts.sum(axis=0)
    true_totals = counts.sum(axis=1)
    if np.any((pred_totals == 0) | (true_totals == 0)):
        warnings.warn("degenerate confusion matrix: 0/0 metric cells defined as 0",
                      stacklevel=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision_c = np.where(pred_totals > 0, tp / pred_totals, 0.0)
        recall_c = np.where(true_totals > 0, tp / true_totals, 0.0)
        denom = precision_c + recall_c
        f1_c = np.where(denom > 0, 2 * precision_c * recall_c / denom, 0.0)

    accuracy = tp.sum() / total
    p_o = accuracy
    p_e = float((true_totals * pred_totals).sum()) / (total * total)
    kappa = 0.0 if abs(1.0 - p_e) < 1e-15 else (p_o - p_e) / (1.0 - p_e)
    return FoldMetrics(accuracy=float(accuracy),
                       precision=float(precision_c.mean()),
                       recall=float(recall_c.mean()),
                       f1=float(f1_c.mean()),
                       kappa=float(kappa))
