"""Evaluation metrics: confusion counts, per-class and support-weighted
F1, accuracy, and subset reporting that drops configured minority classes."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # rows = gold, cols = predicted

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(golds, preds, num_classes: int) -> ConfusionMatrix:
    golds, preds = list(golds), list(preds)
    if len(golds) != len(preds):
        raise ContractError("confusion: golds and preds must have equal length")
    if num_classes < 1:
        raise ContractError("confusion: num_classes must be positive")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for g, p in zip(golds, preds):
        if not (0 <= g < num_classes and 0 <= p < num_classes):
            raise ContractError(f"confusion: label pair ({g}, {p}) out of range")
        counts[g, p] += 1
    return ConfusionMatrix(counts=counts)


def per_class_f1(cm: ConfusionMatrix) -> list:
    """F1 per class with the 0/0 -> 0 convention."""
    out = []
    for c in range(cm.num_classes):
        tp = float(cm.counts[c, c])
        fp = float(cm.counts[:, c].sum() - tp)
        fn = float(cm.counts[c, :].sum() - tp)
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        out.append(2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
    return out


def weighted_f1(cm: ConfusionMatrix, class_subset=None) -> float:
    """Support-weighted mean of per-class F1, optionally over a class subset."""
    classes = list(range(cm.num_classes)) if class_subset is None else list(class_subset)
    if not classes:
        raise ContractError("weighted_f1: empty class subset")
    for c in classes:
        if not 0 <= c < cm.num_classes:
            raise ContractError(f"weighted_f1: class {c} out of range")
    f1s = per_class_f1(cm)
    supports = [float(cm.counts[c, :].sum()) for c in classes]
    total = sum(supports)
    if total == 0:
        raise ContractError("weighted_f1: no support over the requested classes")
    return sum(s * f1s[c] for c, s in zip(classes, supports)) / total


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ContractError("accuracy: empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def metrics_report(cm: ConfusionMatrix, subset=None) -> dict:
    """JSON-ready summary used by evaluation and the ablation tables."""
    rep = {
        "per_class_f1": per_class_f1(cm),
        "weighted_f1": weighted_f1(cm),
        "accuracy": accuracy(cm),
        "confusion": cm.counts.tolist(),
        "class_names": [str(c) for c in range(cm.num_classes)],
        "total": cm.total,
    }
    if subset is not None:
        rep["subset_classes"] = list(subset)
        gold = cm.counts.sum(axis=1)
        # no gold label in the subset leaves its F1 nothing to weight by
        unsupported = all(0 <= c < cm.num_classes and gold[c] == 0 for c in subset)
        rep["subset_weighted_f1"] = None if subset and unsupported else weighted_f1(cm, subset)
    return rep
