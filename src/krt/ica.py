"""Incremental cross-attention with knowledge tokens.

One shared attention block serves every session. A single transfer token
(the query) is trained throughout; each session contributes one retention
token that joins the patch sequence as key/value and is frozen once its
session ends. Pairing the transfer token with session s's retention token
yields that session's embedding, so a model that has seen t sessions emits
t embeddings per image.

Session s attends with the same query over {kr_s} and the same patches, so
the keys split into two blocks: the patches, shared by every session, and
kr_s's one row. Per head, a block's scores s_i and values v_i give its
context c = sum_i softmax(s)_i v_i and its log-sum-exp lse = log sum_i
exp(s_i). Softmax over the union gives each block the total weight
exp(lse_block) / (exp(lse_r) + exp(lse_patches)), so the union's context is
softmax([lse_r, lse_patches]) . [c_r, c_patches], exactly (the online-softmax
merge of Milakov & Gimelshein, arXiv 1805.02867). The patch block is
computed once per forward (`patch_side`); each session adds a one-row block
and a two-entry softmax, so a step costs O(L + t) rather than O(t * L).
The one-row block's context is v_r up to rounding, because
`attention_block` pools rows before the value projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .tensor import Tensor, TensorError


@dataclass
class IcaConfig:
    """Block shape. Tokens and the attention embedding share dimension d."""

    d: int = 384  # token and attention embedding dimension
    heads: int = 8
    mlp_hidden: int = 0  # 0 -> 4*d

    def __post_init__(self):
        if self.d < 1 or self.heads < 1:
            raise ValueError(f"d {self.d} and heads {self.heads} must be positive")
        if self.mlp_hidden < 0:
            raise ValueError(f"mlp_hidden {self.mlp_hidden} must be non-negative")
        if self.mlp_hidden == 0:
            self.mlp_hidden = 4 * self.d
        if self.d % self.heads != 0:
            raise ValueError(f"embedding dim {self.d} not divisible by {self.heads} heads")

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    @property
    def attn_scale(self) -> float:
        return 1.0 / np.sqrt(self.d / self.heads)


@dataclass
class IcaState:
    """Shared attention block plus the token bank.

    kr_tokens[0..t-2] are frozen while session t runs; only the newest
    retention token and the transfer token keep training. Exclusively
    owned by one trainer; frozen snapshots may be read concurrently.
    """

    config: IcaConfig
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    b_o: Tensor
    norm1_gain: Tensor
    norm1_bias: Tensor
    norm2_gain: Tensor
    norm2_bias: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    kt_token: Tensor = None
    kr_tokens: list = field(default_factory=list)

    @property
    def session_count(self) -> int:
        return len(self.kr_tokens)

    @property
    def frozen_flags(self) -> list:
        return [not kr.requires_grad for kr in self.kr_tokens]

    def block_parameters(self) -> list:
        """Shared-block weights, excluding tokens."""
        return [t for name, t in tensor_fields(self) if name != "kt_token"]

    def trainable_parameters(self) -> list:
        params = self.block_parameters() + [self.kt_token]
        params += [kr for kr in self.kr_tokens if kr.requires_grad]
        return params


def tensor_fields(record) -> list:
    """(name, tensor) for each Tensor-valued field of a dataclass, in field order."""
    pairs = [(f.name, getattr(record, f.name)) for f in fields(record)]
    return [(name, value) for name, value in pairs if isinstance(value, Tensor)]


def init_ica(config: IcaConfig, rng: np.random.Generator, dtype=np.float64) -> IcaState:
    """Fresh block with the transfer token but no sessions yet."""
    d, hid = config.d, config.mlp_hidden
    state = IcaState(
        config=config,
        w_q=T.uniform_param(rng, (d, d), dtype=dtype),
        w_k=T.uniform_param(rng, (d, d), dtype=dtype),
        w_v=T.uniform_param(rng, (d, d), dtype=dtype),
        w_o=T.uniform_param(rng, (d, d), dtype=dtype),
        b_o=T.uniform_param(rng, (d,), fan_in=d, dtype=dtype),
        norm1_gain=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        norm1_bias=Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
        norm2_gain=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        norm2_bias=Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
        mlp_w1=T.uniform_param(rng, (d, hid), dtype=dtype),
        mlp_b1=T.uniform_param(rng, (hid,), fan_in=d, dtype=dtype),
        mlp_w2=T.uniform_param(rng, (hid, d), dtype=dtype),
        mlp_b2=T.uniform_param(rng, (d,), fan_in=hid, dtype=dtype),
    )
    state.kt_token = T.uniform_param(rng, (d,), fan_in=d, dtype=dtype)
    return state


def add_session(state: IcaState, rng: np.random.Generator) -> None:
    """Start a session: freeze existing retention tokens, append a new one."""
    for kr in state.kr_tokens:
        kr.requires_grad = False
    d = state.config.d
    state.kr_tokens.append(T.uniform_param(rng, (d,), fan_in=d, dtype=state.kt_token.dtype))


def _as_batch(patches: Tensor):
    """Accept [L,d] or [B,L,d]; return ([B,L,d] tensor, had_batch flag)."""
    if patches.ndim == 2:
        return patches.reshape(1, *patches.shape), False
    if patches.ndim == 3:
        return patches, True
    raise TensorError(f"patches must be [L,d] or [B,L,d], got {patches.shape}")


class PatchSide(NamedTuple):
    """What every session's attention shares: the query and the patch block."""

    kt: Tensor  # normalised transfer token, [d]
    patches: Tensor  # normalised patches, [B, L, d]
    q: Tensor  # projected query, [d]
    block: Tensor  # attention_block over the patches, [B, heads, dh+1]


def _norm1(state: IcaState, t: Tensor) -> Tensor:
    return T.layer_norm(t, state.norm1_gain, state.norm1_bias)


def _attend_patches(state: IcaState, kt: Tensor, patches: Tensor) -> PatchSide:
    """Project the query and attend over the patch rows (inputs pre-normalised)."""
    cfg = state.config
    q = T.matmul(kt.reshape(1, cfg.d), state.w_q).reshape(cfg.d)
    block = T.attention_block(q, patches, state.w_k, state.w_v, cfg.heads, cfg.attn_scale)
    return PatchSide(kt, patches, q, block)


def patch_side(state: IcaState, patches: Tensor) -> PatchSide:
    """The session-independent half of ICA for [L,d] or [B,L,d] patches."""
    p3 = _as_batch(patches)[0]
    return _attend_patches(state, _norm1(state, state.kt_token), _norm1(state, p3))


def _attention_weights(state: IcaState, q: Tensor, kr: Tensor, patches: Tensor) -> np.ndarray:
    """[B, heads, L+1] softmax weights, retention token first; off the tape."""
    cfg = state.config
    bsz, _, d = patches.shape
    seq = np.concatenate([np.broadcast_to(kr.data, (bsz, 1, d)), patches.data], axis=1)
    a = T.absorb_query(q.data, state.w_k.data, cfg.heads)  # [d, heads]
    s = (seq @ a).transpose(0, 2, 1) * cfg.attn_scale
    e = np.exp(s - s.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def cross_attention(
    state: IcaState,
    kt: Tensor,
    kr: Tensor,
    patches: Tensor,
    attn_out: list = None,
    shared: PatchSide = None,
) -> Tensor:
    """Single-query multi-head cross-attention over {kr} and the patches.

    `kt` is the query row; keys/values are the retention token prepended to
    the patch rows. Inputs are expected pre-normalised by the caller.
    Returns [d] for [L,d] patches, [B,d] for [B,L,d]. When `attn_out` is a
    list, the softmax weights are appended to it as a [B, heads, L+1] array.

    `shared` carries the patch block, computed here when not given. The
    one-row block of kr has context v_r up to rounding and lse exactly its
    score s_r. Merging it with the patch block through softmax_rows over
    [lse_r, lse_patches] and weighted_rows_sum over [c_r, c_patches] is the
    softmax over {kr} and the patches (see the module docstring), and stays
    finite however far the two lse values lie apart, because softmax_rows
    subtracts the row max.
    """
    cfg = state.config
    d, nh, dh = cfg.d, cfg.heads, cfg.head_dim
    if kt.shape != (d,) or kr.shape != (d,):
        raise TensorError(f"token shapes {kt.shape}/{kr.shape} do not match d={d}")
    p3, batched = _as_batch(patches)
    bsz, _, pd = p3.shape
    if pd != d:
        raise TensorError(f"patch dim {pd} does not match d={d}")
    if shared is None:
        shared = _attend_patches(state, kt, p3)

    own = T.attention_block(
        shared.q, kr.reshape(1, 1, d), state.w_k, state.w_v, nh, cfg.attn_scale
    )  # [1, heads, dh+1]
    blocks = T.concat(
        [
            T.repeat_rows(own, bsz).reshape(bsz * nh, 1, dh + 1),
            shared.block.reshape(bsz * nh, 1, dh + 1),
        ],
        axis=1,
    )  # [B*heads, 2, dh+1]
    weights = T.softmax_rows(blocks.slice(2, dh, dh + 1).reshape(bsz * nh, 2))
    z = T.weighted_rows_sum(weights, blocks.slice(2, 0, dh)).reshape(bsz, d)
    out = T.affine(z, state.w_o, state.b_o)  # [B, d]
    if attn_out is not None:
        attn_out.append(_attention_weights(state, shared.q, kr, p3))
    return out if batched else out.reshape(d)


def ica_forward(
    state: IcaState,
    session_index: int,
    patches: Tensor,
    attn_out: list = None,
    shared: PatchSide = None,
) -> Tensor:
    """Session-specific embedding: pre-norm attention plus MLP, both residual.

    `shared` is `patch_side(state, patches)`, computed here when not given.
    """
    if not 1 <= session_index <= state.session_count:
        raise TensorError(
            f"session index {session_index} out of range 1..{state.session_count}"
        )
    cfg = state.config
    if shared is None:
        shared = patch_side(state, patches)
    bsz = shared.patches.shape[0]

    kt_row = state.kt_token.reshape(1, cfg.d)
    kr = state.kr_tokens[session_index - 1]
    ca = cross_attention(
        state, shared.kt, _norm1(state, kr), shared.patches, attn_out=attn_out, shared=shared
    )  # [B, d]
    e1 = T.add(T.repeat_rows(kt_row, bsz), ca)
    h = T.layer_norm(e1, state.norm2_gain, state.norm2_bias)
    h = T.affine(h, state.mlp_w1, state.mlp_b1)
    h = T.gelu(h)
    h = T.affine(h, state.mlp_w2, state.mlp_b2)
    e = T.add(e1, h)
    return e if patches.ndim == 3 else e.reshape(cfg.d)


def forward_all_sessions(state: IcaState, patches: Tensor, attn_out: list = None) -> list:
    """Embeddings for every session seen so far, in session order.

    The patch block is computed once and shared by all sessions.
    """
    shared = patch_side(state, patches)
    return [
        ica_forward(state, s, patches, attn_out=attn_out, shared=shared)
        for s in range(1, state.session_count + 1)
    ]
