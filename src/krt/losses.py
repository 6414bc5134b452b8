"""Training losses: asymmetric classification, token retention, pooled-feature KD.

The asymmetric loss is binary cross-entropy with separate focusing
exponents on positives and negatives, taped as one op (`T.asl`). The token
loss penalises any drift of the old session embeddings relative to the
previous model's snapshot (one cosine over the concatenated prefix per
item, averaged over the batch). The pooled-feature distillation loss exists
only for the ablation baseline arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class LossConfig:
    gamma_pos: float = 0.0
    gamma_neg: float = 4.0
    lam: float = 100.0  # weight of the token loss
    neg_margin: float = 0.0  # optional probability shift on negatives, off by default

    def __post_init__(self):
        if self.gamma_pos < 0 or self.gamma_neg < 0:
            raise ValueError("focusing parameters must be non-negative")
        if not 0.0 <= self.neg_margin < 1.0:
            raise ValueError(f"neg_margin {self.neg_margin} must be in [0, 1)")
        if self.lam < 0:
            raise ValueError("token loss weight must be non-negative")


def asl_loss(probs: Tensor, targets, config: LossConfig) -> Tensor:
    """Mean ASL (`T.asl`) of probs in (0, 1) against same-shaped constant 0/1 targets."""
    y = np.asarray(targets, dtype=probs.dtype)
    if y.shape != probs.shape:
        raise ValueError(f"targets shape {y.shape} != probs shape {probs.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("targets must be binary")
    return T.asl(probs, y, config.gamma_pos, config.gamma_neg, config.neg_margin)


def token_loss(e_prev: np.ndarray, e_curr: Tensor) -> Tensor:
    """1 - cosine between old embeddings and the current model's prefix.

    e_prev is the frozen previous model's [t-1, B, d] embedding stack and
    e_curr the current model's [t, B, d] stack, computed on the same batch.
    Per item the prefix embeddings are concatenated, session-major, into
    one vector and compared with a single cosine; the batch mean is
    returned.
    """
    if e_prev.ndim != 3 or e_curr.shape != (len(e_prev) + 1, *e_prev.shape[1:]):
        raise ValueError(f"want a [t, B, d] stack one session past {e_prev.shape}, got {e_curr.shape}")
    t, bsz, d = e_curr.shape
    if t < 2:
        raise ValueError("token loss needs at least one previous-session embedding")
    curr_flat = T.transpose(e_curr.slice(0, 0, t - 1), (1, 0, 2)).reshape(bsz, (t - 1) * d)
    prev_flat = e_prev.transpose(1, 0, 2).reshape(bsz, (t - 1) * d)
    cos = T.cosine_similarity(curr_flat, Tensor(prev_flat))  # [B]
    return T.add(T.scale(cos.mean(), -1.0), 1.0)


def kd_pooled_loss(feat_prev: np.ndarray, feat_curr: Tensor) -> Tensor:
    """1 - mean cosine between pooled features of the snapshot and the live model."""
    prev = Tensor(feat_prev)
    if prev.shape != feat_curr.shape:
        raise ValueError(f"feature shapes differ: {prev.shape} vs {feat_curr.shape}")
    cos = T.cosine_similarity(feat_curr, prev)
    return T.add(T.scale(cos.mean(), -1.0), 1.0)


def total_loss(asl: Tensor, token: Optional[Tensor], config: LossConfig, session: int) -> Tensor:
    """Session 1 trains on classification alone; later sessions add the token term."""
    if session < 1:
        raise ValueError(f"session index {session} < 1")
    if session == 1 or token is None or config.lam == 0.0:
        return asl
    return T.add(asl, T.scale(token, config.lam))
