"""Multi-label evaluation: per-class AP, mAP, CF1, OF1, session aggregates.

AP is the non-interpolated precision-at-each-positive form over a stable
descending sort. F1 decisions use a fixed 0.5 threshold on probabilities.
Classes with no test positives are excluded from the mAP and CF1 means
(their AP is undefined); they still contribute false positives to OF1's
global pool. All figures are reported in percent. Pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


F1_THRESHOLD = 0.5  # on probabilities, for CF1 and OF1


class UndefinedAPError(ValueError):
    """AP requested for a class with zero positives."""


@dataclass
class EvalBatch:
    scores: np.ndarray  # [n, N] in [0, 1]
    truths: np.ndarray  # [n, N] binary

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.truths = np.asarray(self.truths)
        if self.scores.shape != self.truths.shape:
            raise ValueError(f"shape mismatch {self.scores.shape} vs {self.truths.shape}")
        if self.scores.ndim != 2:
            raise ValueError("scores must be [n_examples, n_classes]")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("non-finite scores")


@dataclass
class MetricsRecord:
    session: int
    map: float  # percent
    cf1: float
    of1: float
    per_class_ap: list = field(default_factory=list)  # percent, None where undefined

    def to_dict(self) -> dict:
        return {
            "session": self.session,
            "map": self.map,
            "cf1": self.cf1,
            "of1": self.of1,
            "per_class_ap": self.per_class_ap,
        }


def average_precision(scores, truths) -> float:
    """AP in [0, 1]; ties keep input order (stable descending sort)."""
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths)
    positives = int(truths.sum())
    if positives == 0:
        raise UndefinedAPError("no positives: AP undefined, skip this class")
    order = np.argsort(-scores, kind="stable")
    hits = np.cumsum(truths[order])
    ranks = np.arange(1, len(scores) + 1)
    mask = truths[order] == 1
    return float((hits[mask] / ranks[mask]).sum() / positives)


def evaluate(batch: EvalBatch, session: int = 0) -> MetricsRecord:
    """mAP / CF1 / OF1 for one cumulative test pass."""
    n, k = batch.scores.shape
    if n == 0 or k == 0:
        raise ValueError("empty evaluation batch")
    preds = batch.scores >= F1_THRESHOLD
    truths = batch.truths == 1

    aps: list = []
    f1s = []
    per_class_ap: list = []
    for c in range(k):
        tp = int(np.sum(preds[:, c] & truths[:, c]))
        fp = int(np.sum(preds[:, c] & ~truths[:, c]))
        fn = int(np.sum(~preds[:, c] & truths[:, c]))
        if truths[:, c].any():
            ap = average_precision(batch.scores[:, c], batch.truths[:, c])
            aps.append(ap)
            per_class_ap.append(100.0 * ap)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        else:
            per_class_ap.append(None)

    tp_all = int(np.sum(preds & truths))
    fp_all = int(np.sum(preds & ~truths))
    fn_all = int(np.sum(~preds & truths))
    of1 = 2 * tp_all / (2 * tp_all + fp_all + fn_all) if 2 * tp_all + fp_all + fn_all else 0.0
    if not aps:
        raise ValueError("no class has a positive example")
    return MetricsRecord(
        session=session,
        map=100.0 * float(np.mean(aps)),
        cf1=100.0 * float(np.mean(f1s)),
        of1=100.0 * of1,
        per_class_ap=per_class_ap,
    )


def aggregate(per_session: list) -> tuple:
    """(average mAP over sessions, last mAP, last CF1, last OF1)."""
    if not per_session:
        raise ValueError("no session records to aggregate")
    maps = [r.map for r in per_session]
    last = per_session[-1]
    return (float(np.mean(maps)), last.map, last.cf1, last.of1)
