"""Multi-label evaluation: per-class AP, mAP, CF1, OF1, session aggregates.

`evaluate` takes the [n, N] score and truth arrays of a test pass. Each
class's TP/FP/FN counts are column sums of the decision masks, and CF1's
per-class F1 an array division of them; OF1 pools the same counts. AP is
the non-interpolated precision-at-each-positive form over a stable
descending sort, one `average_precision` call per class with positives.
F1 decisions use a fixed 0.5 threshold on probabilities. Classes with no
test positives are excluded from the mAP and CF1 means (their AP is
undefined); they still contribute false positives to OF1's pool. All
figures are in percent. Pure functions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np


F1_THRESHOLD = 0.5  # on probabilities, for CF1 and OF1

# a run's headline figures, as `aggregate` names them in results.json
HEADLINE = ("avg_map", "last_map", "last_cf1", "last_of1")


class UndefinedAPError(ValueError):
    """AP requested for a class with zero positives."""


@dataclass
class MetricsRecord:
    session: int
    map: float  # percent
    cf1: float
    of1: float
    per_class_ap: list = field(default_factory=list)  # percent, None where undefined

    def to_dict(self) -> dict:
        return asdict(self)


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


def _ratio(num, den) -> np.ndarray:
    """num / den where den > 0, else 0."""
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def evaluate(scores, truths, session: int = 0) -> MetricsRecord:
    """mAP / CF1 / OF1 for one cumulative test pass: [n, N] scores in [0, 1] and binary truths."""
    scores, truths = np.asarray(scores, dtype=np.float64), np.asarray(truths)
    if scores.shape != truths.shape:
        raise ValueError(f"shape mismatch {scores.shape} vs {truths.shape}")
    if scores.ndim != 2:
        raise ValueError("scores must be [n_examples, n_classes]")
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite scores")
    preds, hits = scores >= F1_THRESHOLD, truths == 1
    defined = hits.any(axis=0)
    if not defined.any():  # an empty pass too
        raise ValueError("no class has a positive example")

    tp, fp, fn = (preds & hits).sum(axis=0), (preds & ~hits).sum(axis=0), (~preds & hits).sum(axis=0)
    prec, rec = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
    f1 = _ratio(2 * prec * rec, prec + rec)[defined]
    of1 = 2 * tp.sum() / (2 * tp.sum() + fp.sum() + fn.sum())  # a positive makes the pool non-empty
    aps = {c: average_precision(scores[:, c], truths[:, c]) for c in np.flatnonzero(defined).tolist()}
    return MetricsRecord(
        session=session,
        map=100.0 * float(np.mean(list(aps.values()))),
        cf1=100.0 * float(np.mean(f1)),
        of1=100.0 * float(of1),
        per_class_ap=[100.0 * aps[c] if c in aps else None for c in range(len(defined))],
    )


def aggregate(per_session: list) -> dict:
    """The `HEADLINE` figures: mean mAP over sessions, then the last session's mAP, CF1 and OF1."""
    if not per_session:
        raise ValueError("no session records to aggregate")
    last = per_session[-1]
    return dict(zip(HEADLINE, (float(np.mean([r.map for r in per_session])), last.map, last.cf1, last.of1)))
