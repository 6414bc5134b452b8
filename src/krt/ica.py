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
merge of Milakov & Gimelshein, arXiv 1805.02867). Column 0 of those
two-entry weights is the attention mass on the retention token.

`forward_all_sessions` is the one forward path. The query and the patch
block run once, and one op, `T.retention_blocks`, runs every retention
token's one-row block. norm1 sits inside both block ops (they take its
gain and bias), so the normalised [B, L, d] patches are never formed and
the patch side is one taped op. One op, `T.merge_blocks`, pairs every
(session, image, head) with its two blocks into a [t, B, d] stack. `w_o`,
the transfer-token residual, norm2, the MLP and the last residual run once
on that stack, which is returned: slice s holds session s+1's embeddings.
A forward thus records the same 17 taped ops at any session count, and
costs O(L + t) rather than O(t * L).

Old sessions' embeddings must keep their bits when a session is added
(frozen tokens, unchanged weights). Two layouts that look equivalent
break that, because a float GEMM rounds each output row in a way that
depends on the call's shape:
- The tail's products go through `affine` on the [t, B, d] stack, which
  is one np.matmul that runs the same BLAS call on each [B, d] slice as a
  rank-2 call would. A flat [t*B, d] product is one bigger GEMM, and its
  rows round differently from the [B, d] product at some shapes.
- `T.retention_blocks` runs its score and value products once per token
  slice of the [t, 1, d] token stack, as t one-row `T.attention_block`
  calls would. One [t, d] GEMM would round its rows differently from t
  one-row products.
The one-row block's context is v_r up to rounding, because the block ops
pool rows before the value projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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


def forward_all_sessions(state: IcaState, patches: Tensor) -> Tensor:
    """The [t, B, d] stack of every session's embedding of [B, L, d] patches.

    Slice s holds session s+1's embeddings e1 + MLP(norm2(e1)), where e1 =
    kt + w_o . attention(norm1(kt) over {norm1(kr_s)} and norm1(patches)) +
    b_o. norm1 runs inside the block ops.
    """
    cfg = state.config
    d, nh = cfg.d, cfg.heads
    if patches.ndim != 3 or patches.shape[2] != d:
        raise TensorError(f"patches must be [B, L, {d}], got {patches.shape}")
    bsz, t = patches.shape[0], state.session_count

    g1, b1 = state.norm1_gain, state.norm1_bias
    block = (g1, b1, state.w_k, state.w_v, nh, cfg.attn_scale)
    q = T.matmul(T.layer_norm(state.kt_token, g1, b1).reshape(1, d), state.w_q).reshape(d)
    # the patch block is taped first: the tape order fixes the order in
    # which the q, w_k, w_v and norm1 gradients of all blocks are summed
    patch_block = T.attention_block(q, patches, *block)  # [B, heads, dh+1]
    own = T.retention_blocks(q, state.kr_tokens, *block)  # [t, heads, dh+1]
    z = T.merge_blocks(own, patch_block)  # [t, B, d]

    kt = T.repeat_rows(state.kt_token.reshape(1, d), t * bsz).reshape(t, bsz, d)
    e1 = T.add(kt, T.affine(z, state.w_o, state.b_o))
    h = T.layer_norm(e1, state.norm2_gain, state.norm2_bias)
    h = T.affine(T.gelu(T.affine(h, state.mlp_w1, state.mlp_b1)), state.mlp_w2, state.mlp_b2)
    return T.add(e1, h)


def ica_forward(state: IcaState, session_index: int, patches: Tensor) -> Tensor:
    """Session `session_index`'s [B, d] embedding (1-based); see forward_all_sessions."""
    if not 1 <= session_index <= state.session_count:
        raise TensorError(
            f"session index {session_index} out of range 1..{state.session_count}"
        )
    e = forward_all_sessions(state, patches).slice(0, session_index - 1, session_index)
    return e.reshape(*e.shape[1:])
