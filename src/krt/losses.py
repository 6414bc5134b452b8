"""Training losses: asymmetric classification, token retention, pooled-feature KD.

The asymmetric loss is binary cross-entropy with separate focusing
exponents on positives and negatives. The token loss penalises any drift
of the old session embeddings relative to the previous model's snapshot
(one cosine over the concatenated prefix per item, averaged over the
batch). The pooled-feature distillation loss exists only for the ablation
baseline arm.
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
        if self.lam < 0:
            raise ValueError("token loss weight must be non-negative")


def asl_loss(probs: Tensor, targets, config: LossConfig) -> Tensor:
    """Mean asymmetric loss over every (sample, class) cell.

    probs must already live in (0, 1) (the sigmoid op clamps); targets are
    a same-shaped 0/1 array treated as a constant.
    """
    y = np.asarray(targets if not isinstance(targets, Tensor) else targets.data, dtype=probs.dtype)
    if y.shape != probs.shape:
        raise ValueError(f"targets shape {y.shape} != probs shape {probs.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("targets must be binary")

    pos_mask = Tensor(y)
    neg_mask = Tensor(1.0 - y)
    one_minus_p = T.add(T.scale(probs, -1.0), 1.0)
    if config.neg_margin > 0.0:
        # negatives judged on max(p - margin, 0); needs gamma_neg >= 1
        shifted = T.add(probs, -config.neg_margin)
        gate = Tensor((shifted.data > 0.0).astype(probs.dtype))
        p_neg = T.mul(shifted, gate)
    else:
        p_neg = probs
    one_minus_p_neg = T.add(T.scale(p_neg, -1.0), 1.0)

    pos_term = T.mul(T.power(one_minus_p, config.gamma_pos), T.log(probs))
    neg_term = T.mul(T.power(p_neg, config.gamma_neg), T.log(one_minus_p_neg))
    cellwise = T.add(T.mul(pos_mask, pos_term), T.mul(neg_mask, neg_term))
    return T.scale(cellwise.mean(), -1.0)


def token_loss(e_prev: list, e_curr: list) -> Tensor:
    """1 - cosine between old embeddings and the current model's prefix.

    e_prev holds t-1 per-session [B,d] arrays from the frozen previous
    model; e_curr holds t [B,d] tensors from the current model, computed on
    the same batch. Per item the prefix embeddings are concatenated into
    one vector and compared with a single cosine; the batch mean is
    returned.
    """
    if len(e_curr) != len(e_prev) + 1:
        raise ValueError(
            f"expected one more current embedding than previous, got {len(e_curr)} vs {len(e_prev)}"
        )
    if not e_prev:
        raise ValueError("token loss needs at least one previous-session embedding")
    prefix = e_curr[: len(e_prev)]
    curr_flat = T.concat(prefix, axis=1) if len(prefix) > 1 else prefix[0]
    cos = T.cosine_similarity(curr_flat, Tensor(np.concatenate(e_prev, axis=1)))  # [B]
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
