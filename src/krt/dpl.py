"""Dynamic pseudo-label generation.

The frozen previous model scores each training image once per session
against every old class; scores at or above a threshold become pseudo
labels. The threshold starts at 0.8 and walks in 1e-2 steps until the
average number of pseudo labels per image lands within 1e-1 of the session
target mu_t = (old classes / all classes) * mu. Everything here is a pure
function of that score matrix: the walk counts cells at each threshold
eta_init + k * eta_step (integer k, rounded to 12 decimals, clamped to the
bounds) and thresholds the matrix once, at the eta it settles on.

Pseudo labels, like the exclusions, are boolean masks of the score
matrix's shape [images, old classes]: `exclude` marks the cells an image
is already annotated with, which are never issued again.

`protocol.run_dpl` is the one driver of the walk: a training session and
`krt dpl` (the file mode below) both go through it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class DplConfig:
    eta_init: float = 0.8
    mu: float = 2.9
    eta_step: float = 1e-2
    tolerance: float = 1e-1
    eta_bounds: tuple[float, float] = (0.01, 0.99)
    max_iters: int = 500

    def __post_init__(self):
        if not 0.0 < self.eta_init < 1.0:
            raise ValueError(f"eta_init {self.eta_init} outside (0, 1)")
        if self.eta_step <= 0 or self.tolerance <= 0:
            raise ValueError("eta_step and tolerance must be positive")
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu {self.mu} must be finite and non-negative")
        if self.max_iters < 1:
            raise ValueError(f"max_iters {self.max_iters} must be positive")
        low, high = self.eta_bounds
        if low > high:
            raise ValueError(f"eta_bounds low {low} above high {high}")


@dataclass
class PseudoLabelReport:
    final_eta: float
    beta: float  # pseudo labels per image at final_eta
    mu_t: float
    iterations: int  # threshold adjustments performed
    converged: bool
    labels: np.ndarray  # [images, old classes] bool, the pseudo labels at final_eta

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "labels"}


def session_target(old_class_count: int, total_class_count: int, mu: float) -> float:
    """Per-session pseudo-label budget, scaled by the share of old classes."""
    if total_class_count <= 0:
        raise ValueError("total class count must be positive")
    if not 0 <= old_class_count <= total_class_count:
        raise ValueError(f"old class count {old_class_count} outside 0..{total_class_count}")
    return (old_class_count / total_class_count) * mu


def _validate_scores(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be a matrix, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite scores")
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise ValueError("scores outside [0, 1]")
    return scores


def generate_pseudo_labels(scores: np.ndarray, eta: float, exclude=None) -> np.ndarray:
    """The pseudo-label mask at `eta`: scores at or above it, minus the `exclude` mask."""
    picked = _validate_scores(scores) >= eta
    return picked if exclude is None else picked & ~exclude


def dynamic_threshold_search(
    scores: np.ndarray, config: DplConfig, mu_t: float, exclude=None
) -> PseudoLabelReport:
    """Walk the threshold until pseudo labels per image meet the target.

    Too many labels raise the threshold, too few lower it; the walk stops on
    |beta - mu_t| <= tolerance, on leaving the threshold bounds, at its first
    reversal (it has then seen both thresholds it would oscillate between),
    or at the iteration cap. A non-convergent walk is not an error: the best
    threshold seen (smallest |beta - mu_t|) is returned with converged=False.
    """
    scores = _validate_scores(scores)
    n = scores.shape[0]
    if n < 1:
        raise ValueError("need at least one image")
    lo, hi = config.eta_bounds
    eligible = scores if exclude is None else np.where(exclude, -np.inf, scores)

    def eta_at(k: int) -> float:
        # rounding drops the float residue: 0.8 - 9 * 0.01 reads 0.71, not 0.7100000000000001
        return min(max(round(config.eta_init + k * config.eta_step, 12), lo), hi)

    def beta_at(eta: float) -> float:
        return int(np.count_nonzero(eligible >= eta)) / n

    k, eta = 0, eta_at(0)
    k_prev = None
    beta = beta_at(eta)
    best = (abs(beta - mu_t), eta, beta)
    iterations = 0

    while abs(beta - mu_t) > config.tolerance and iterations < config.max_iters:
        k_next = k + 1 if beta > mu_t else k - 1
        if k_next == k_prev:
            break  # reversal: beta depends on eta alone, so the walk would only oscillate
        nxt = eta_at(k_next)
        if nxt == eta:
            break  # already at the bound and pushed outwards
        k_prev, k, eta = k, k_next, nxt
        beta = beta_at(eta)
        iterations += 1
        gap = abs(beta - mu_t)
        if gap < best[0] - 1e-12:
            best = (gap, eta, beta)

    converged = bool(abs(beta - mu_t) <= config.tolerance)
    if not converged:
        _, eta, beta = best
    return PseudoLabelReport(
        final_eta=float(eta),
        beta=float(beta),
        mu_t=mu_t,
        iterations=iterations,
        converged=converged,
        labels=generate_pseudo_labels(scores, eta, exclude),
    )


# ---------------------------------------------------------------------------
# standalone file mode


def read_score_csv(path: str):
    """Score matrix CSV: header row of class ids, one row per image."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty score file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric score") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{lineno}: non-finite score")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no score rows")
    class_ids = [h.strip() for h in header]
    if len(set(class_ids)) != len(class_ids):
        raise ValueError(f"{path}: class ids repeat in the header")
    return class_ids, np.array(rows, dtype=np.float64)


def read_labels_jsonl(path: str):
    """Label file: one JSON object {"image_id": ..., "labels": [...]} per line.

    Labels are class ids, strings or integers.
    """
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: bad JSON ({e.msg})") from None
            labels = obj.get("labels") if isinstance(obj, dict) else None
            if not isinstance(labels, list) or "image_id" not in obj:
                raise ValueError(f"{path}:{lineno}: need an object with image_id and a labels list")
            for label in labels:
                if not isinstance(label, (str, int)) or isinstance(label, bool):
                    raise ValueError(
                        f"{path}:{lineno}: label {json.dumps(label)} is not a string or an integer"
                    )
            records.append((obj["image_id"], labels))
    if not records:
        raise ValueError(f"{path}: no label records")
    return records


def write_merged_jsonl(path: str, records, class_ids: list, pseudo: np.ndarray) -> None:
    """Emit the input label records with a `pseudo` field: the sorted ids of `pseudo`'s row."""
    with open(path, "w") as fh:
        for (image_id, labels), row in zip(records, pseudo):
            restored = sorted(class_ids[k] for k in np.flatnonzero(row))
            fh.write(
                json.dumps(
                    {"image_id": image_id, "labels": labels, "pseudo": restored},
                    sort_keys=True,
                )
                + "\n"
            )
