"""Minimal dense tensor library with reverse-mode automatic differentiation.

Only the operations the cross-attention model and its losses need are
implemented. Arrays are numpy (float32 or float64), gradients are recorded
on an explicit Tape and replayed in exact reverse execution order. Every op
computes in its inputs' dtype: the model runs in float32 (see `protocol`),
and the finite-difference and oracle tests run the same ops in float64.

Ops are module-level functions; `Tensor` has no operator sugar. There is no
broadcasting: `add` takes a python scalar operand, `scale` multiplies by one,
and anything else needs an explicit reshape/repeat. Every op output is
checked for NaN/Inf and raises instead of propagating silently.

The model's patch-sized work is two fused ops with analytic backwards, so
no [B, h*w, d] intermediate is taped: `patch_embed` (3x3 conv, exact GELU,
projection and position code) and `attention_block` (norm1 and
single-query attention over the patch rows). Five more are each bit for
bit a chain of small ops: `retention_blocks` (every retention token's
one-row block), `merge_blocks` (each session's retention block merged with
the patch block), `session_heads`, the loss `asl` and `cosine_distance`
(the token and pooled-feature losses). Shared arithmetic lives in private
helpers (`_gelu_phi`, `_gelu_slope`, `_normalise_rows`, and
`attention_block`'s `_weight_grads` and `_rows_grad`), so a fused op and
its standalone counterpart agree by construction. Exact GELU's erf is
`_erf`, cephes' erf (its polevl and p1evl as `_polevl`) written in numpy
and bit for bit scipy's on float32, so numpy is the library's only
dependency.

Tape-free, the ops that take a `Stem` (`patch_embed`'s arguments) share
one walk, `_walk_stem`: `attention_block` (the ICA forward's patch block)
and `weighted_rows_sum` (the pooled path's global pool). It runs the stem
by image blocks and hands each block's rows to the op, so no chunk's
[B, h*w, d] patch rows are formed and each block's arrays are small enough
to be reused from the heap. Each block makes the same numpy calls on its
image slice, whose rows equal those of the whole-chunk calls
(`_walk_stem` says how blocks are sized for that), so results are
bit for bit those of `patch_embed`'s rows. Every op, taped or not, runs
on the calling thread; the library starts no thread of its own.

`conv3x3_same`, `mul`, `power`, `log`, `softmax_rows`, `concat`,
`transpose`, `cosine_similarity` and `mean_all` have no caller in `krt`.
They stay only because the benchmark's tracer (`perfbench/probe.py`) wraps
them by name; they also build the test references of `patch_embed`, `asl`,
`retention_blocks`, `merge_blocks`, `session_heads` and `cosine_distance`.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_ERF_BLOCK = 2**15  # elements per float64 pass of _erf

SIGMOID_EPS = 1e-7  # probabilities are clamped to [eps, 1-eps] before any log
LN_EPS = 1e-5  # LayerNorm variance floor

_ACTIVE_TAPE: Optional["Tape"] = None


class TensorError(ValueError):
    """Shape mismatch, non-finite values, or misuse of the tape."""


def _as_array(data, dtype) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype if dtype is not None else None)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """Dense n-dimensional float array, optionally participating in a tape.

    A Tensor outside any active Tape is a plain immutable value; ops on it
    never record gradients. `requires_grad` marks leaves whose gradient
    should be accumulated into `.grad` by `backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        if not np.isfinite(self.data).all():
            raise TensorError("non-finite values in tensor data")
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional[Tape] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape)


class Tape:
    """Ordered record of executed differentiable ops.

    Use as a context manager; ops executed inside record themselves. The
    backward pass walks records in exact reverse execution order. Clearing
    drops all records (and with them the saved intermediates captured in
    the backward closures).

    Single-threaded: no two threads may record onto one tape.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], list]]] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TensorError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _record(self, out: Tensor, backward_fn):
        self._records.append((out, backward_fn))

    def __len__(self):
        return len(self._records)

    def clear(self):
        self._records.clear()

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

        Repeated calls without zeroing the leaves accumulate again.
        """
        if loss.data.size != 1:
            raise TensorError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise TensorError("loss was not recorded on this tape")
        # pass-local gradients; reverse execution order is a valid
        # topological order, so each record sees its output's full gradient
        pending: dict[int, tuple[Tensor, np.ndarray]] = {
            id(loss): (loss, np.ones_like(loss.data))
        }
        for out, backward_fn in reversed(self._records):
            entry = pending.pop(id(out), None)
            if entry is None:
                continue
            for inp, contrib in backward_fn(entry[1]):
                key = id(inp)
                if key in pending:
                    pending[key] = (inp, pending[key][1] + contrib)
                else:
                    pending[key] = (inp, contrib)
        # entries never popped belong to leaves (tensors no record produced)
        for tensor, g in pending.values():
            if tensor.requires_grad:
                if tensor.grad is None:
                    tensor.grad = g.copy()
                else:
                    tensor.grad = tensor.grad + g


def backward(loss: Tensor):
    """Run the backward pass for `loss` on the tape that recorded it."""
    if loss._tape is None:
        raise TensorError("loss is not attached to any tape")
    loss._tape.backward(loss)


def _taped(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over these inputs records: a tape is active and one of them needs a gradient."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def _result(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result; record it if a tape is active and grads are needed."""
    needs = _taped(inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        out._tape = _ACTIVE_TAPE
        _ACTIVE_TAPE._record(out, backward_fn)
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise TensorError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise suite


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; `b` may be a python scalar."""
    if not isinstance(b, Tensor):
        c = float(b)

        def bwd_s(g, a=a):
            return [(a, g)] if a.requires_grad else []

        return _result(a.data + c, [a], bwd_s)
    _check_same_shape(a, b, "add")

    def bwd(g, a=a, b=b):
        out = []
        if a.requires_grad:
            out.append((a, g))
        if b.requires_grad:
            out.append((b, g))
        return out

    return _result(a.data + b.data, [a, b], bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape."""
    _check_same_shape(a, b, "mul")

    def bwd(g, a=a, b=b):
        out = []
        if a.requires_grad:
            out.append((a, g * b.data))
        if b.requires_grad:
            out.append((b, g * a.data))
        return out

    return _result(a.data * b.data, [a, b], bwd)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)

    def bwd(g, a=a):
        return [(a, g * c)] if a.requires_grad else []

    return _result(a.data * c, [a], bwd)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for scalar p; differentiable for positive base."""
    p = float(p)

    def bwd(g, a=a):
        if not a.requires_grad:
            return []
        if p == 0.0:
            return [(a, np.zeros_like(a.data))]
        return [(a, g * p * np.power(a.data, p - 1.0))]

    return _result(np.power(a.data, p), [a], bwd)


def log(a: Tensor) -> Tensor:
    """Elementwise natural log; input must be strictly positive."""

    def bwd(g, a=a):
        return [(a, g / a.data)] if a.requires_grad else []

    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return _result(out, [a], bwd)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function with outputs clamped to [eps, 1-eps], eps=1e-7.

    Clamping keeps subsequent logs finite; the gradient uses the clamped
    output, so it is ~eps (not exactly zero) in deep saturation. exp(-x)
    overflows to inf below x = -88.7 in float32 (-709 in float64); the
    quotient is then 0, which the clamp lifts to eps.
    """
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-a.data))
    s = np.clip(s, SIGMOID_EPS, 1.0 - SIGMOID_EPS)

    def bwd(g, a=a, s=s):
        return [(a, g * s * (1.0 - s))] if a.requires_grad else []

    return _result(s, [a], bwd)


# Cephes' erf (ndtr.c), the one scipy.special.erf runs: Horner coefficients,
# highest power first; U and Q are monic, their leading 1 implied.
_ERF_T = (  # erf(x) = x T(x^2) / U(x^2) for |x| <= 1
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERF_P = (  # erfc(x) = exp(-x^2) P(x) / Q(x) for 1 < x < 8
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERF_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)


def _polevl(v: np.ndarray, coefs: Sequence[float], out: np.ndarray, monic: bool) -> np.ndarray:
    """cephes' polevl at v into out, or p1evl (a leading 1 before coefs) if `monic`."""
    if monic:  # 1 * v + coefs[0]
        np.add(v, coefs[0], out=out)
    else:  # coefs[0] * v + coefs[1]
        np.multiply(v, coefs[0], out=out)
        out += coefs[1]
    for c in coefs[1 if monic else 2 :]:
        out *= v
        out += c
    return out


def _erf(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """erf(x) elementwise as cephes computes it, into a new array or `out` (which may be x).

    `out` must be C-contiguous, of x's shape. Every entry is evaluated in
    float64 and rounded once to out's dtype, so on float32 the result is
    bit for bit scipy.special.erf's (which rounds cephes' float64 erf).
    |x| <= 1 takes x T(x^2) / U(x^2), odd in x as cephes' -erf(-x) is, in
    blocks of `_ERF_BLOCK` entries, each copied to float64 once. 1 < |x| < 8
    takes 1 - exp(-x^2) P(|x|) / Q(|x|), signed like x, for all such
    entries at once: they are few in the model, and the calls it takes cost
    the same for one entry as for thousands. |x| >= 8 is clamped to 8,
    where erfc is far below half an ulp of 1, giving +-1 for +-inf too. NaN
    stays NaN. The second branch runs numpy's float64 exp where scipy runs
    the C library's, so float64 results may differ from scipy's in the last
    bit.
    """
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    elif not out.flags.c_contiguous or out.shape != x.shape:
        raise TensorError(f"_erf: out must be C-contiguous of shape {x.shape}")
    xs, outs = x.reshape(-1), out.reshape(-1)
    big = (np.abs(xs) > 1.0).nonzero()[0]
    if big.size:  # the second branch first, from x, which out may overwrite
        v = np.abs(xs[big], dtype=np.float64)
        np.minimum(v, 8.0, out=v)
        p = _polevl(v, _ERF_P, np.empty_like(v), monic=False)
        q = _polevl(v, _ERF_Q, np.empty_like(v), monic=True)
        v *= -v
        np.exp(v, out=v)
        v *= p
        v /= q
        tail = np.copysign(1.0 - v, xs[big])
    x64, z, t, u = np.empty((4, min(xs.size, _ERF_BLOCK)))
    # the first branch overflows for huge |x|, whose entries the second overwrites
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, xs.size, _ERF_BLOCK):
            n = min(xs.size - lo, _ERF_BLOCK)
            xb, zb, tb, ub = x64[:n], z[:n], t[:n], u[:n]
            xb[...] = xs[lo : lo + n]
            np.multiply(xb, xb, out=zb)
            _polevl(zb, _ERF_T, tb, monic=False)
            tb *= xb
            tb /= _polevl(zb, _ERF_U, ub, monic=True)
            outs[lo : lo + n] = tb
    if big.size:
        outs[big] = tail
    return out


def _gelu_phi(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt(2))), the normal CDF, in one new array (or `out`)."""
    phi = np.multiply(x, _INV_SQRT2, out=out)
    _erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


def _gelu_slope(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """d gelu / dx = phi + (x / sqrt(2 pi)) * exp(-x^2 / 2), given phi = _gelu_phi(x)."""
    pdf = x * -0.5
    with np.errstate(over="ignore"):  # -x^2 / 2 = -inf, exp 0: the slope is exactly phi
        pdf *= x
    np.exp(pdf, out=pdf)
    slope = x * _INV_SQRT2PI
    slope *= pdf
    slope += phi
    return slope


def gelu(a: Tensor) -> Tensor:
    """Exact gaussian error linear unit, x * Phi(x)."""
    x = a.data
    phi = _gelu_phi(x)

    def bwd(g, a=a, x=x, phi=phi):
        return [(a, g * _gelu_slope(x, phi))] if a.requires_grad else []

    return _result(x * phi, [a], bwd)


def mean_all(a: Tensor) -> Tensor:
    """Mean of all elements, as a scalar tensor."""
    n = a.data.size

    def bwd(g, a=a, n=n):
        return [(a, np.full_like(a.data, float(g) / n))] if a.requires_grad else []

    return _result(np.asarray(a.data.mean(), dtype=a.data.dtype), [a], bwd)


def _power_slope(g: np.ndarray, gamma: float, base: np.ndarray) -> np.ndarray:
    """`power`'s backward of base**gamma for upstream g, but 0 where base is 0."""
    zeros = np.zeros_like(base)
    return zeros if gamma == 0.0 else g * gamma * np.power(base, gamma - 1.0, where=base > 0.0, out=zeros)


def asl(probs: Tensor, targets: np.ndarray, gamma_pos: float, gamma_neg: float, neg_margin: float) -> Tensor:
    """Mean asymmetric loss (ASL, arXiv 2009.14119) over all cells, as a scalar.

    A positive cell costs -(1-p)^gamma_pos log p, a negative one -q^gamma_neg
    log(1-q), q = max(p - neg_margin, 0); probs lie in (0, 1), targets is a
    constant 0/1 array of their shape and dtype. Loss and gradient are bit for
    bit the taped chain of `scale`, `add`, `power`, `log`, `mul` and `mean_all`
    (four gradient terms summed in the tape's order), but a margin-gated q = 0
    gets q^gamma_neg's limit slope, 0, not NaN for gamma_neg < 1.
    """
    p, y = probs.data, np.asarray(targets)
    if y.shape != p.shape or y.dtype != p.dtype:
        raise TensorError(f"asl: targets {y.shape} {y.dtype} do not match probs {p.shape} {p.dtype}")
    gamma_pos, gamma_neg, neg_margin = float(gamma_pos), float(gamma_neg), float(neg_margin)
    not_y, one_minus_p = 1.0 - y, 1.0 - p
    gate = (p - neg_margin > 0.0).astype(p.dtype) if neg_margin > 0.0 else None
    q = p if gate is None else (p - neg_margin) * gate
    one_minus_q = 1.0 - q
    with np.errstate(divide="ignore", invalid="ignore"):  # a non-finite log fails the output check
        log_p, log_one_minus_q = np.log(p), np.log(one_minus_q)
    pow_pos, pow_neg = np.power(one_minus_p, gamma_pos), np.power(q, gamma_neg)
    cells = y * (pow_pos * log_p) + not_y * (pow_neg * log_one_minus_q)

    def bwd(g, probs=probs):  # recorded only when probs needs a gradient
        g_cell = np.full_like(p, -float(g) / p.size)
        g_pos, g_neg = g_cell * y, g_cell * not_y
        neg_pow = _power_slope(g_neg * log_one_minus_q, gamma_neg, q)
        pos_log = g_pos * pow_pos / p
        neg_scale = -(g_neg * pow_neg / one_minus_q)
        pos_scale = -_power_slope(g_pos * log_p, gamma_pos, one_minus_p)
        if gate is None:
            return [(probs, neg_pow + pos_log + neg_scale + pos_scale)]
        return [(probs, pos_log + (neg_pow + neg_scale) * gate + pos_scale)]

    return _result(-np.asarray(cells.mean(), dtype=p.dtype), [probs], bwd)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def bwd(g, a=a):
        return [(a, g.reshape(a.shape))] if a.requires_grad else []

    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise TensorError(f"reshape {a.shape} -> {shape}: {e}") from None
    return _result(out, [a], bwd)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute the axes (`np.transpose`'s `axes`) into a fresh C-contiguous array."""
    if sorted(axes) != list(range(a.ndim)):
        raise TensorError(f"transpose: {axes} is not a permutation of {a.ndim} axes")

    def bwd(g, a=a):
        return [(a, g.transpose(np.argsort(axes)))] if a.requires_grad else []

    return _result(np.transpose(a.data, axes).copy(), [a], bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along `axis`; all other extents must agree."""
    tensors = list(tensors)
    if not tensors:
        raise TensorError("concat of zero tensors")
    nd = tensors[0].ndim
    for t in tensors:
        if t.ndim != nd:
            raise TensorError("concat: rank mismatch")
    if not -nd <= axis < nd:
        raise TensorError(f"concat: axis {axis} out of range for rank {nd}")
    axis = axis % nd
    sizes = [t.shape[axis] for t in tensors]
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise TensorError(f"concat: {e}") from None
    offsets = np.cumsum([0] + sizes)

    def bwd(g, tensors=tensors, offsets=offsets, axis=axis):
        res = []
        idx = [slice(None)] * g.ndim
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx[axis] = slice(lo, hi)
                res.append((t, g[tuple(idx)]))
        return res

    return _result(out, tensors, bwd)


def slice_along(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along `axis`."""
    if not -a.ndim <= axis < a.ndim:
        raise TensorError(f"slice: axis {axis} out of range for rank {a.ndim}")
    axis = axis % a.ndim
    n = a.shape[axis]
    if not (0 <= start <= stop <= n):
        raise TensorError(f"slice [{start}:{stop}) out of range for extent {n}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def bwd(g, a=a, idx=idx):
        if not a.requires_grad:
            return []
        full = np.zeros_like(a.data)
        full[idx] = g
        return [(a, full)]

    return _result(a.data[idx].copy(), [a], bwd)


def repeat_rows(a: Tensor, times: int) -> Tensor:
    """Repeat a leading-extent-1 tensor `times` times along axis 0."""
    if a.shape[0] != 1:
        raise TensorError(f"repeat_rows expects leading extent 1, got {a.shape}")

    def bwd(g, a=a):
        return [(a, g.sum(axis=0, keepdims=True))] if a.requires_grad else []

    return _result(np.repeat(a.data, times, axis=0), [a], bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard matrix product of two rank-2 tensors."""
    if a.ndim != 2 or b.ndim != 2:
        raise TensorError(f"matmul expects matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul: inner dims differ, {a.shape} x {b.shape}")

    def bwd(g, a=a, b=b):
        out = []
        if a.requires_grad:
            out.append((a, g @ b.data.T))
        if b.requires_grad:
            out.append((b, a.data.T @ g))
        return out

    return _result(a.data @ b.data, [a, b], bwd)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x:[..., n, k], w:[k, m], b:[m] (a fused linear layer).

    A stacked x is one np.matmul, which runs on each [n, k] slice the same
    BLAS call as a rank-2 affine of that slice, so every slice's output is
    bit for bit the rank-2 result. The weight and bias gradients sum over
    all slices at once, which reassociates their sums.
    """
    if x.ndim < 2 or w.ndim != 2 or b.ndim != 1:
        raise TensorError(f"affine: bad ranks {x.shape}, {w.shape}, {b.shape}")
    k, m = w.shape
    if x.shape[-1] != k or b.shape[0] != m:
        raise TensorError(f"affine: dims differ, {x.shape} @ {w.shape} + {b.shape}")

    def bwd(g, x=x, w=w, b=b):
        out = []
        if x.requires_grad:
            out.append((x, g @ w.data.T))
        if w.requires_grad:
            out.append((w, x.data.reshape(-1, k).T @ g.reshape(-1, m)))
        if b.requires_grad:
            out.append((b, g.reshape(-1, m).sum(axis=0)))
        return out

    return _result(np.matmul(x.data, w.data) + b.data, [x, w, b], bwd)


def session_heads(x: Tensor, heads: Sequence) -> Tensor:
    """Every session's classifier head in one op: [B, N] logits in session order.

    heads holds one (w:[d, n_s], b:[n_s]) pair per session; x is the [t, B, d]
    stack of session embeddings, one slice per head, or one [B, d] that every
    head reads. Output and gradients are bit for bit one `affine` per head and
    a `concat`. A shared x gets one gradient per head, in reverse session
    order, which is the order that chain's tape summed them in.
    """
    heads, stacked = list(heads), x.ndim == 3
    if not heads or x.ndim not in (2, 3) or (stacked and x.shape[0] != len(heads)):
        raise TensorError(f"session_heads: {len(heads)} heads for input {x.shape}")
    for w, b in heads:
        if w.ndim != 2 or w.shape[0] != x.shape[-1] or b.shape != (w.shape[1],):
            raise TensorError(f"session_heads: head {w.shape}/{b.shape} does not fit input {x.shape}")
    xs = list(x.data) if stacked else [x.data] * len(heads)
    cuts = np.cumsum([0] + [w.shape[1] for w, _ in heads])

    def bwd(g, x=x, heads=heads):
        res, dx = [], []  # dx in reverse session order
        for s in reversed(range(len(heads))):
            (w, b), g_s = heads[s], g[:, cuts[s] : cuts[s + 1]]
            if x.requires_grad:
                dx.append(g_s @ w.data.T)
            if w.requires_grad:
                res.append((w, xs[s].T @ g_s))
            if b.requires_grad:
                res.append((b, g_s.sum(axis=0)))
        if x.requires_grad:
            res += [(x, np.stack(dx[::-1]))] if stacked else [(x, d) for d in dx]
        return res

    out = np.concatenate([np.matmul(x_s, w.data) + b.data for x_s, (w, b) in zip(xs, heads)], axis=1)
    return _result(out, [x] + [p for head in heads for p in head], bwd)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a matrix, stabilised by per-row max subtraction."""
    if a.ndim != 2:
        raise TensorError(f"softmax_rows expects a matrix, got {a.shape}")
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def bwd(g, a=a, s=s):
        if not a.requires_grad:
            return []
        dot = (g * s).sum(axis=1, keepdims=True)
        return [(a, s * (g - dot))]

    return _result(s, [a], bwd)


def _normalise_rows(x: np.ndarray, eps: float, out=(None, None)):
    """(xhat, inv) over the last axis: xhat = (x - mean) * inv, inv = 1/sqrt(var + eps).

    Centres once and takes the variance as the mean square of the centred
    rows, which is np.var's own arithmetic, so the statistics are np.var's
    to the bit and `layer_norm` and `attention_block` share xhat exactly.
    `out` may give the (xhat, inv) arrays to write, e.g. x itself to
    normalise in place.
    """
    with np.errstate(over="ignore"):  # an infinite variance raises; a NaN one fails the op's output check
        xc = np.subtract(x, x.mean(axis=-1, keepdims=True), out=out[0])
        var = (xc * xc).mean(axis=-1, keepdims=True)
    if np.isinf(var).any():
        raise TensorError(f"layer norm: a row's variance overflows {var.dtype}")
    inv = np.divide(1.0, np.sqrt(var + eps), out=out[1])
    xc *= inv
    return xc, inv


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise over the last dimension (variance floor `LN_EPS`), then apply gain and bias."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise TensorError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match last dim {d}"
        )
    xhat, inv = _normalise_rows(a.data, LN_EPS)

    def bwd(g, a=a, gain=gain, bias=bias, xhat=xhat, inv=inv, d=d):
        out = []
        if a.requires_grad:
            gy = g * gain.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            out.append((a, inv * (gy - m1 - xhat * m2)))
        if gain.requires_grad:
            out.append((gain, (g * xhat).reshape(-1, d).sum(axis=0)))
        if bias.requires_grad:
            out.append((bias, g.reshape(-1, d).sum(axis=0)))
        return out

    return _result(xhat * gain.data + bias.data, [a, gain, bias], bwd)


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between matching rows: [B, d] x [B, d] -> [B]."""
    _check_same_shape(a, b, "cosine_similarity")
    if a.ndim != 2:
        raise TensorError(f"cosine_similarity expects rank 2, got {a.shape}")
    x = a.data
    y = b.data
    nx = np.linalg.norm(x, axis=1)
    ny = np.linalg.norm(y, axis=1)
    if np.any(nx == 0.0) or np.any(ny == 0.0):
        raise TensorError("cosine_similarity of a zero-norm vector")
    cos = (x * y).sum(axis=1) / (nx * ny)

    def bwd(g, a=a, b=b, x=x, y=y, nx=nx, ny=ny, cos=cos):
        out = []
        gc = g.reshape(-1, 1)
        if a.requires_grad:
            da = gc * (y / (nx * ny)[:, None] - cos[:, None] * x / (nx * nx)[:, None])
            out.append((a, da))
        if b.requires_grad:
            db = gc * (x / (nx * ny)[:, None] - cos[:, None] * y / (ny * ny)[:, None])
            out.append((b, db))
        return out

    return _result(np.asarray(cos, dtype=a.data.dtype), [a, b], bwd)


def cosine_distance(x: Tensor, y: np.ndarray) -> Tensor:
    """1 - the batch mean of each item's cosine between x and the constant y, as a scalar.

    x:[B, d] pairs with y:[B, d]. A [t, B, d] stack x pairs with y:[m, B, d],
    m <= t: item b's vector is its first m slices' rows, concatenated in
    slice order, in both. Loss and x's gradient are bit for bit the taped
    chain of `slice_along`, `transpose`, `reshape`, `cosine_similarity`,
    `mean_all`, `scale(-1)` and `add(1)`.
    """
    y = _as_array(y, None)
    stacked = x.ndim == 3
    if x.ndim not in (2, 3) or y.ndim != x.ndim or y.shape[-2:] != x.shape[-2:] or (
        stacked and not 1 <= len(y) <= x.shape[0]
    ):
        raise TensorError(f"cosine_distance: bad shapes x {x.shape}, y {y.shape}")
    m, bsz = len(y), x.shape[-2]
    if stacked:  # item-major copies: [B, m * d]
        xs, y = x.data[:m].transpose(1, 0, 2).reshape(bsz, -1), y.transpose(1, 0, 2).reshape(bsz, -1)
    else:
        xs = x.data
    nx, ny = np.linalg.norm(xs, axis=1), np.linalg.norm(y, axis=1)
    if np.any(nx == 0.0) or np.any(ny == 0.0):
        raise TensorError("cosine_distance of a zero-norm vector")
    cos = (xs * y).sum(axis=1) / (nx * ny)

    def bwd(g, x=x):  # recorded only when x needs a gradient
        gc = np.full_like(cos, -float(g) / bsz, dtype=x.dtype).reshape(-1, 1)
        d_xs = gc * (y / (nx * ny)[:, None] - cos[:, None] * xs / (nx * nx)[:, None])
        if not stacked:
            return [(x, d_xs)]
        d_x = np.zeros_like(x.data)
        d_x[:m] = d_xs.reshape(bsz, m, -1).transpose(1, 0, 2)
        return [(x, d_x)]

    # the chain's roundings: `cosine_similarity`'s cast, `mean_all`, `scale` and `add`
    mean = np.asarray(np.asarray(cos, dtype=x.dtype).mean(), dtype=x.dtype)
    return _result(mean * -1.0 + 1.0, [x], bwd)


def weighted_rows_sum(weights: Tensor, values) -> Tensor:
    """Per-batch weighted sum of rows: [B,n] x [B,n,m] -> [B,m].

    values may be a `Stem`: taped, the op then runs on `patch_embed`'s
    rows; tape-free it streams them (`_walk_stem`), one einsum per block.
    The einsum is no BLAS call and sums each image's rows alone, so any
    block gives the whole chunk's bits.
    """
    if isinstance(values, Stem):
        if not _taped([weights, *values]):
            bsz, h, wd, _, _, d, dtype = _stem_dims(*values)
            if weights.shape != (bsz, h * wd):
                raise TensorError(f"weighted_rows_sum: incompatible shapes {weights.shape} and {(bsz, h * wd, d)}")
            out = np.empty((bsz, d), dtype=np.result_type(weights.data, dtype))
            _walk_stem(values, lambda lo, hi, rows: np.einsum("bn,bnm->bm", weights.data[lo:hi], rows, out=out[lo:hi]))
            return _result(out, [weights, *values], None)
        values = patch_embed(*values)
    if weights.ndim != 2 or values.ndim != 3 or weights.shape != values.shape[:2]:
        raise TensorError(
            f"weighted_rows_sum: incompatible shapes {weights.shape} and {values.shape}"
        )

    def bwd(g, weights=weights, values=values):
        out = []
        if weights.requires_grad:
            out.append((weights, np.einsum("bm,bnm->bn", g, values.data)))
        if values.requires_grad:
            out.append((values, np.einsum("bn,bm->bnm", weights.data, g)))
        return out

    return _result(np.einsum("bn,bnm->bm", weights.data, values.data), [weights, values], bwd)


def absorb_query(q: np.ndarray, w_k: np.ndarray, heads: int) -> np.ndarray:
    """[d, heads] = w_k @ Q, where Q:[l, heads] is q split block-diagonally by head.

    Row x's head-h score is x @ a[:, h], the dot product of its key x @ w_k
    with q over the head's dims, without forming the key.
    """
    l = q.shape[0]
    q_cols = np.zeros((l, heads), dtype=q.dtype)
    q_cols[np.arange(l), np.arange(l) // (l // heads)] = q
    return w_k @ q_cols


def _block_dims(op: str, q: Tensor, d: int, gain, bias, w_k, w_v, heads: int) -> int:
    """dh, once a block op's q:[l], gain/bias:[d] and w_k/w_v:[d, l] fit rows of width d and l splits into heads."""
    if w_k.ndim != 2 or w_v.shape != w_k.shape or w_k.shape[0] != d or q.shape != (w_k.shape[1],) or (
        gain.shape != (d,) or bias.shape != (d,)
    ):
        raise TensorError(
            f"{op}: bad shapes q {q.shape}, rows of width {d}, gain {gain.shape}, bias {bias.shape}, "
            f"w_k {w_k.shape}, w_v {w_v.shape}"
        )
    if heads < 1 or q.shape[0] % heads:
        raise TensorError(f"{op}: {q.shape[0]} query dims do not split into {heads} heads")
    return q.shape[0] // heads


def _weight_grads(q, gain, bias, w_k, w_v, a, xhat, px, pooled, g_ctx, d_s, d_pooled) -> list:
    """(tensor, gradient) for each of q, w_k, gain, bias and w_v that needs one.

    The arrays are one `attention_block` call's: a = absorb_query(q, w_k),
    xhat:[B, n, d] its normalised rows, px = p^T xhat and pooled:[B, heads, d]
    the pooled rows before and after the LayerNorm's gain and bias, g_ctx:[B,
    heads, dh] the context gradient, d_s:[B, heads, n] the score gradient and
    d_pooled:[B, heads, d] the pooled rows' gradient.
    """
    g, beta = gain.data, bias.data
    d, l = w_k.shape
    head_of = np.arange(l) // (l // a.shape[1])
    out = []
    if q.requires_grad or w_k.requires_grad or gain.requires_grad:
        # per image, then over images: one [heads, B*n] @ [B*n, d] product
        # would split its long sum by the BLAS thread count at some B
        d_ga = np.matmul(d_s, xhat).sum(axis=0).T  # [d, heads]
    if q.requires_grad or w_k.requires_grad:
        d_a = d_ga * g[:, None] + np.outer(beta, d_s.sum(axis=(0, 2)))
        d_a_cols = d_a[:, head_of]  # [d, l]
        if q.requires_grad:
            out.append((q, (w_k.data * d_a_cols).sum(axis=0)))
        if w_k.requires_grad:
            out.append((w_k, d_a_cols * q.data))
    if gain.requires_grad:
        out.append((gain, (d_ga * a).sum(axis=1) + (d_pooled * px).sum(axis=(0, 1))))
    if bias.requires_grad:
        out.append((bias, a @ d_s.sum(axis=(0, 2)) + d_pooled.sum(axis=(0, 1))))
    if w_v.requires_grad:
        d_w_v = np.matmul(pooled.transpose(1, 2, 0), g_ctx.transpose(1, 0, 2))
        out.append((w_v, d_w_v.transpose(1, 0, 2).reshape(d, l)))
    return out


def _rows_grad(xhat, inv, xga, ga, p, d_s, d_p, d_px) -> np.ndarray:
    """The [B, n, d] gradient of one `attention_block` call's raw rows.

    xhat and inv are the rows' LayerNorm statistics, xga:[B, heads, n] = xhat
    @ (gain * a), p:[B, heads, n] the softmax weights, d_s and d_p the score
    and weight gradients, d_px:[B, heads, d] that of p^T xhat.

    d loss / d xhat is gy = d_s^T (g*a)^T + p^T (g*d_pooled), one product of
    the stacked [d_s; p] with [(g*a)^T; g*d_pooled]. The LayerNorm backward
    is inv * (gy - m1 - xhat * m2), whose row means m1 = mean(gy) and m2 =
    mean(gy * xhat) come from [B, heads, n] products; a last stacked row of
    m1 against -1 subtracts m1 in the same product, which leaves the xhat
    term alone to a second pass. At B=16, n=196, d=128, 8 heads (float32, 1
    BLAS thread, 2-core Xeon) this takes 0.87 ms against 2.6 ms for forming
    gy and taking `layer_norm`'s backward of it, and `incr_paper` trains 9%
    more items/s (ahead in 18 of 20 alternating perfbench runs).
    """
    (bsz, heads, n), d = d_s.shape, xhat.shape[2]
    k = 2 * heads
    lhs = np.empty((bsz, k + 1, n), dtype=xhat.dtype)
    lhs[:, :heads], lhs[:, heads:k] = d_s, p
    rhs = np.empty((bsz, k + 1, d), dtype=xhat.dtype)
    rhs[:, :heads], rhs[:, heads:k], rhs[:, k] = ga.T, d_px, -1.0
    lhs[:, k] = (lhs[:, :k] * rhs[:, :k].mean(axis=2)[..., None]).sum(axis=1)
    m2 = ((d_s * xga).sum(axis=1) + (p * d_p).sum(axis=1)) / d
    lhs *= inv.reshape(bsz, 1, n)
    d_x = np.matmul(lhs.transpose(0, 2, 1), rhs)
    d_x -= xhat * (inv * m2[..., None])
    return d_x


class Stem(NamedTuple):
    """`patch_embed`'s arguments, for `attention_block` or `weighted_rows_sum` to form its rows from."""

    images: Tensor
    conv_w: Tensor
    conv_b: Tensor
    proj_w: Tensor
    proj_b: Tensor
    pos: Tensor


def attention_block(
    q: Tensor,
    rows,
    gain: Tensor,
    bias: Tensor,
    w_k: Tensor,
    w_v: Tensor,
    heads: int,
    scale: float,
) -> Tensor:
    """Single-query multi-head attention over one block of layer-normed rows.

    q:[l] is the projected query, rows:[B,n,d] the block's raw rows (or a
    `Stem`, see below), gain/bias:[d] the LayerNorm applied to them (eps
    `LN_EPS`), and w_k/w_v:[d,l] the key/value projections. Head h scores
    q[h*dh:(h+1)*dh] (dh = l/heads) against the key of each normalised row,
    times `scale`. Returns [B, heads, dh+1]: each head's softmax-weighted
    value context, then the log-sum-exp of its scores. Two blocks' results
    merge exactly into attention over the union of their rows: the contexts
    weighted by the softmax of the two lse values.

    With one query no row needs its own key or value. The key projection
    absorbs the query (`absorb_query`, a:[d, heads]), so the scores are one
    [B*n, d] @ [d, heads] product; the rows are pooled by each head's
    softmax before the value projection, which then maps B*heads pooled rows
    instead of B*n. That is the weight absorption of DeepSeek-V2's MLA
    (arXiv 2405.04434) for a single query, and it brings forward and
    backward from O(B*n*d*l) to O(B*n*d*heads + B*heads*d*l).

    The LayerNorm y = xhat * gain + bias is absorbed the same way and never
    formed: y @ a = xhat @ (gain[:, None] * a) + bias @ a, and since each
    head's softmax weights p sum to one, p^T y = gain * (p^T xhat) + bias.
    xhat is `layer_norm`'s to the bit. The backward forms one [B, n, d]
    gradient for the rows and takes the LayerNorm's row means from
    [B, heads, n] products; the absorbed key gradient xhat^T d_s is
    summed per image and then over images, in an order that does not depend
    on the BLAS thread count.

    rows may be a `Stem`, `patch_embed`'s arguments. Taped, the op then
    calls `patch_embed` and runs on its rows. Tape-free the rows come from
    `_walk_stem` instead: in the manner of FlashAttention's tiling (arXiv
    2205.14135) the op never forms a chunk's [B, n, d] rows, nor its 3x3
    columns, conv output or Phi. Each image block is normalised in place
    and scored, softmaxed and pooled while its rows are in cache; only
    p^T xhat [B, heads, d] and lse [B, heads] are kept, and the value
    projection runs once, as it does on rows. The walk sizes its blocks so
    that their score products round as the chunk's would, so a Stem's
    result is bit for bit that of the rows `patch_embed` gives.
    """
    streamed = isinstance(rows, Stem) and not _taped([q, gain, bias, w_k, w_v, *rows])
    if streamed:
        bsz, h, wd, _, _, d, dtype = _stem_dims(*rows)
        n = h * wd
    else:
        rows = patch_embed(*rows) if isinstance(rows, Stem) else rows
        if rows.ndim != 3:
            raise TensorError(f"attention_block: rows must be [B, n, d], got {rows.shape}")
        (bsz, n, d), dtype = rows.shape, rows.dtype
    dh = _block_dims("attention_block", q, d, gain, bias, w_k, w_v, heads)
    g, beta, scale = gain.data, bias.data, float(scale)
    a = absorb_query(q.data, w_k.data, heads)  # [d, heads]
    ga, shift = g[:, None] * a, beta @ a
    px = np.empty((bsz, heads, d), dtype=np.result_type(dtype, ga, shift))  # p^T xhat
    lse = np.empty((bsz, heads), dtype=px.dtype)

    def pool(lo, hi, xhat):  # the scores, softmax and pooling of images lo:hi's normalised rows
        # xga = xhat @ ga laid out [k, heads, n], so the softmax reduces along
        # rows; the product is one call, as its rows round by call size
        xga = (xhat.reshape(-1, d) @ ga).reshape(hi - lo, n, heads).transpose(0, 2, 1).copy()
        s = (xga + shift[:, None]) * scale
        m = s.max(axis=2, keepdims=True)
        e = np.exp(s - m)
        z = e.sum(axis=2, keepdims=True)
        p = e / z
        lse[lo:hi] = (m + np.log(z))[..., 0]
        np.matmul(p, xhat, out=px[lo:hi])
        return xga, p

    if streamed:  # norm1 in place on each block's rows, then the pooling
        _walk_stem(
            rows, lambda lo, hi, x: pool(lo, hi, _normalise_rows(x, LN_EPS, out=(x, None))[0]), n * d * heads
        )
    else:
        xhat, inv = _normalise_rows(rows.data, LN_EPS)
        xga, p = pool(0, bsz, xhat)  # [B, heads, n] twice
    pooled = px * g + beta
    w_v_heads = w_v.data.reshape(d, heads, dh).transpose(1, 0, 2)  # [heads, d, dh]
    out = np.empty((bsz, heads, dh + 1), dtype=dtype)
    out[..., :dh] = np.matmul(pooled.transpose(1, 0, 2), w_v_heads).transpose(1, 0, 2)
    out[..., dh] = lse

    def bwd(g_out, q=q, rows=rows, gain=gain, bias=bias, w_k=w_k, w_v=w_v):  # recorded on rows only
        g_ctx, g_lse = g_out[..., :dh], g_out[..., dh]
        # [B, heads, d]: the context gradient taken back through the value projection
        d_pooled = np.matmul(
            g_ctx.transpose(1, 0, 2), w_v_heads.transpose(0, 2, 1)
        ).transpose(1, 0, 2)
        d_px = d_pooled * g
        d_p = np.matmul(xhat, d_px.transpose(0, 2, 1)).transpose(0, 2, 1).copy()  # [B, heads, n]
        # d lse / d s = p, so the lse gradient joins the softmax's
        d_s = p * (d_p - (p * d_p).sum(axis=2, keepdims=True) + g_lse[..., None]) * scale
        out = _weight_grads(q, gain, bias, w_k, w_v, a, xhat, px, pooled, g_ctx, d_s, d_pooled)
        if rows.requires_grad:
            out.append((rows, _rows_grad(xhat, inv, xga, ga, p, d_s, d_p, d_px)))
        return out

    return _result(out, [q, gain, bias, w_k, w_v, *(rows if streamed else [rows])], bwd)


_BLOCK_BYTES = 800 * 1024  # of [k, h*w, d] rows per image block of a tape-free Stem walk
_MIN_BLOCK = 8  # images; no shorter block unless the whole chunk is
_SMALL_GEMM = 10**6  # M*N*K up to which OpenBLAS's sgemm rounds its rows another way


def _walk_stem(stem: Stem, per_block: Callable[[int, int, np.ndarray], None], row_macs: int = 0) -> None:
    """Form a tape-free `Stem`'s patch rows by image blocks and call per_block(lo, hi, rows) on each.

    rows:[k, h*w, d] are images lo:hi's, in a buffer the next block
    overwrites. A block holds about `_BLOCK_BYTES` of rows (8 images at
    14x14, d=128; a whole 64-image chunk at 8x8, d=32). Each block costs a
    fixed number of numpy calls, so small rows take more images per block,
    and none takes fewer than `_MIN_BLOCK` unless the whole chunk does: a
    shorter remainder joins the block before it. Each block makes the same
    numpy calls on its image slice as `patch_embed` makes on the chunk.

    row_macs is one image's share of the M*N*K of a product that per_block
    runs on the block's rows (n*d*heads for `attention_block`'s scores; 0
    for none). A block must round that product's rows as the whole chunk's
    product would, because a product's rows round by call size. OpenBLAS's
    sgemm rounds the rows of a [k*n, d] @ [d, heads] score product with
    M*N*K <= 10^6 (`_SMALL_GEMM`, likely its small-matrix kernel) in their
    last bits differently from the same rows of a larger call, and alike
    within each side of that bound (OpenBLAS 0.3.31, 2-core Xeon, float32,
    1 or 2 threads; checked at seven shapes). So when the chunk's product
    exceeds the bound, no block may be within it: at 14x14, d=128, 8 heads
    a block takes at least 5 images, at 14x14, d=32, 4 heads at least 40.
    The stem's products [k*n, 9c] @ [9c, m] and [k*n, m] @ [m, d] give the
    same rows at every chunk size at both workload shapes, and a split at
    8x8, d=32 never crosses the bound. See `protocol.INFER_CHUNK` for what
    this means for the chunk size.
    """
    bsz, h, wd, _, m, d, dtype = _stem_dims(*stem)
    images, conv_w, conv_b, proj_w, proj_b, pos = (t.data for t in stem)
    n = h * wd
    least = max(_MIN_BLOCK, 1 if bsz * row_macs <= _SMALL_GEMM else _SMALL_GEMM // row_macs + 1)
    size = max(least, _BLOCK_BYTES // (n * d * dtype.itemsize))
    starts = list(range(0, bsz, size))
    if len(starts) > 1 and bsz - starts[-1] < least:  # a short remainder joins the block before
        starts.pop()
    blocks = list(zip(starts, starts[1:] + [bsz]))
    most = max((hi - lo for lo, hi in blocks), default=0)
    z, phi = np.empty((2, most * n, m), dtype=dtype)
    rows = np.empty((most, n, d), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows fail the output check
        for lo, hi in blocks:
            k = hi - lo
            _stem_into(images[lo:hi], conv_w, conv_b, proj_w, proj_b, pos, z[: k * n], phi[: k * n], rows[:k])
            per_block(lo, hi, rows[:k])


def retention_blocks(
    q: Tensor,
    tokens: Sequence[Tensor],
    gain: Tensor,
    bias: Tensor,
    w_k: Tensor,
    w_v: Tensor,
    heads: int,
    scale: float,
) -> Tensor:
    """Every retention token's one-row `attention_block`, stacked: [t, heads, dh+1].

    tokens holds t [d] tensors; the other arguments are `attention_block`'s.
    Output and gradients are bit for bit t one-row `attention_block` calls
    and a `concat`. Over one row the softmax weight is exactly 1, so each
    head's lse is its score and its pooled row is norm1(token) = xhat * gain
    + bias. Both products run once per token slice, as the per-token calls
    ran them: a float GEMM rounds its rows by the call's shape, so one [t, d]
    score product would round differently from t one-row products. The
    backward takes each token's q, w_k, w_v, gain and bias gradients with
    `_weight_grads` on that token's slices and sums them from token t down
    to token 1, the order in which the tape summed the per-token calls'.
    The tokens' own gradients come from `_rows_grad` over the stack.
    """
    tokens = list(tokens)
    if not tokens or tokens[0].ndim != 1 or any(tok.shape != tokens[0].shape for tok in tokens):
        raise TensorError(f"retention_blocks: want [d] tokens, got {[tok.shape for tok in tokens]}")
    t, d = len(tokens), tokens[0].shape[0]
    dh, scale = _block_dims("retention_blocks", q, d, gain, bias, w_k, w_v, heads), float(scale)
    xhat, inv = _normalise_rows(np.stack([tok.data for tok in tokens])[:, None], LN_EPS)  # [t, 1, d]
    g, beta = gain.data, bias.data
    a = absorb_query(q.data, w_k.data, heads)  # [d, heads]
    ga = g[:, None] * a
    xga = np.matmul(xhat, ga).transpose(0, 2, 1)  # [t, heads, 1], one product per token
    s = (xga + (beta @ a)[:, None]) * scale
    px = np.broadcast_to(xhat, (t, heads, d))  # p^T xhat with p = 1
    pooled = np.broadcast_to(xhat * g + beta, (t, heads, d))
    w_v_heads = w_v.data.reshape(d, heads, dh).transpose(1, 0, 2)  # [heads, d, dh]
    out = np.empty((t, heads, dh + 1), dtype=xhat.dtype)
    out[..., :dh] = np.matmul(pooled[:, :, None], w_v_heads)[:, :, 0]
    out[..., dh] = s[..., 0]

    def bwd(g_out, q=q, tokens=tokens, gain=gain, bias=bias, w_k=w_k, w_v=w_v):
        g_ctx = g_out[..., :dh]
        d_pooled = np.matmul(g_ctx[:, :, None], w_v_heads.transpose(0, 2, 1))[:, :, 0]  # [t, heads, d]
        d_s = g_out[..., dh:] * scale  # [t, heads, 1]

        def token_grads(k):  # token k+1's gradients of q, w_k, gain, bias and w_v
            one = slice(k, k + 1)
            return _weight_grads(
                q, gain, bias, w_k, w_v, a, xhat[one], px[one], pooled[one], g_ctx[one], d_s[one], d_pooled[one]
            )

        out = token_grads(t - 1)
        for k in reversed(range(t - 1)):  # token t first, as the tape summed them
            out = [(x, total + dx) for (x, total), (_, dx) in zip(out, token_grads(k))]
        if any(tok.requires_grad for tok in tokens):
            d_px = d_pooled * g
            d_p = np.matmul(xhat, d_px.transpose(0, 2, 1)).transpose(0, 2, 1)  # [t, heads, 1]
            d_x = _rows_grad(xhat, inv, xga, ga, np.ones_like(d_s), d_s, d_p, d_px)
            out += [(tok, d_x[k].reshape(d)) for k, tok in enumerate(tokens) if tok.requires_grad]
        return out

    return _result(out, [q, gain, bias, w_k, w_v] + tokens, bwd)


def merge_blocks(own: Tensor, shared: Tensor) -> Tensor:
    """Merge each session's one-row block with the shared block: [t, B, heads*dh].

    own:[t, heads, dh+1] stacks the sessions' `attention_block` results over
    their own row, shared:[B, heads, dh+1] is the result over the rows they
    share. Per (session, image, head) the union's context is
    softmax([lse_own, lse_shared]) . [c_own, c_shared]. Output and gradients
    are bit for bit the chain of `repeat_rows`, `concat`, `softmax_rows` and
    `weighted_rows_sum` it replaced: the same numpy arithmetic on arrays of
    that chain's shapes. own's gradient sums over images, shared's over
    sessions, each in order.
    """
    if own.ndim != 3 or shared.ndim != 3 or own.shape[1:] != shared.shape[1:] or own.shape[2] < 2:
        raise TensorError(f"merge_blocks: bad shapes own {own.shape}, shared {shared.shape}")
    t, (bsz, heads, k) = own.shape[0], shared.shape
    dh, rows = k - 1, t * bsz * heads
    pairs = np.empty((t, bsz, heads, 2, k), dtype=np.result_type(own.data, shared.data))
    pairs[:, :, :, 0], pairs[:, :, :, 1] = own.data[:, None], shared.data[None]
    pairs = pairs.reshape(rows, 2, k)  # (own, shared) per session, image and head
    lse, values = pairs[..., dh].copy(), pairs[..., :dh].copy()
    e = np.exp(lse - lse.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)

    def bwd(g, own=own, shared=shared):
        g = g.reshape(rows, dh)
        d_w = np.einsum("bm,bnm->bn", g, values)
        d_pairs = np.empty((t, bsz, heads, 2, k), dtype=values.dtype)
        d_pairs.reshape(rows, 2, k)[..., :dh] = np.einsum("bn,bm->bnm", w, g)
        d_pairs.reshape(rows, 2, k)[..., dh] = w * (d_w - (d_w * w).sum(axis=1, keepdims=True))
        grads = [(own, d_pairs[:, :, :, 0].sum(axis=1)), (shared, d_pairs[:, :, :, 1].sum(axis=0))]
        return [(x, d) for x, d in grads if x.requires_grad]

    z = np.einsum("bn,bnm->bm", w, values).reshape(t, bsz, heads * dh)
    return _result(z, [own, shared], bwd)


# ---------------------------------------------------------------------------
# tiny patch extractor convolution


def _im2col3(x: np.ndarray) -> np.ndarray:
    """[B,h,w,c] -> [B*h*w, 9c] of 3x3 neighbourhoods, zero-padded."""
    b, h, w, c = x.shape
    padded = np.zeros((b, h + 2, w + 2, c), dtype=x.dtype)
    padded[:, 1:-1, 1:-1, :] = x
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))  # [B, h, w, c, dy, dx]
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(b * h * w, 9 * c)


def conv3x3_same(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3 same-padding convolution mixing local patches: [B,h,w,c] -> [B,h,w,m].

    Weights are [9c, m] (neighbourhood offsets unrolled row-major), bias [m].
    The images x are a constant, as in `patch_embed`; they get no gradient.
    """
    if x.ndim != 4:
        raise TensorError(f"conv3x3_same expects [B,h,w,c], got {x.shape}")
    bsz, h, wd, c = x.shape
    if w.ndim != 2 or w.shape[0] != 9 * c or b.shape != (w.shape[1],):
        raise TensorError(f"conv3x3_same: weight {w.shape} / bias {b.shape} mismatch c={c}")
    if x.requires_grad:
        raise TensorError("conv3x3_same: the images are a constant; they get no gradient")
    m = w.shape[1]
    cols = _im2col3(x.data)
    out = (cols @ w.data + b.data).reshape(bsz, h, wd, m)

    def bwd(g, w=w, b=b, cols=cols, m=m):
        res = []
        g2 = g.reshape(-1, m)
        if w.requires_grad:
            res.append((w, cols.T @ g2))
        if b.requires_grad:
            res.append((b, g2.sum(axis=0)))
        return res

    return _result(out, [w, b], bwd)


def _stem_dims(images: Tensor, conv_w: Tensor, conv_b: Tensor, proj_w: Tensor, proj_b: Tensor, pos: Tensor) -> tuple:
    """(B, h, w, c, m, d, dtype) of `patch_embed`'s arguments, once they fit and images and pos are constants."""
    if images.ndim != 4:
        raise TensorError(f"patch_embed expects images [B,h,w,c], got {images.shape}")
    bsz, h, wd, c = images.shape
    m, d = conv_w.shape[-1], proj_w.shape[-1]
    if (conv_w.shape, conv_b.shape, proj_w.shape, proj_b.shape, pos.shape) != (
        (9 * c, m), (m,), (m, d), (d,), (1, h * wd, d)
    ):
        raise TensorError(
            f"patch_embed: bad shapes images {images.shape}, conv {conv_w.shape}/{conv_b.shape}, "
            f"proj {proj_w.shape}/{proj_b.shape}, pos {pos.shape}"
        )
    if images.requires_grad or pos.requires_grad:
        raise TensorError("patch_embed: images and pos are constants; they get no gradient")
    return bsz, h, wd, c, m, d, np.result_type(images.data, conv_w.data)


def _stem_into(images, conv_w, conv_b, proj_w, proj_b, pos, z, phi, out, keep_z: bool = False) -> None:
    """The patch rows of images:[k, h, w, c] into out:[k, h*w, d]; all arguments are arrays.

    z:[k*h*w, m] receives the conv output and phi Phi(z). gelu(z) = z *
    Phi(z) then overwrites z, unless `keep_z`: the backward needs both.
    """
    np.matmul(_im2col3(images), conv_w, out=z)
    z += conv_b
    _gelu_phi(z, out=phi)
    feats = z * phi if keep_z else np.multiply(z, phi, out=z)
    np.matmul(feats, proj_w, out=out.reshape(-1, out.shape[-1]))
    out += proj_b
    out += pos


def patch_embed(
    images: Tensor,
    conv_w: Tensor,
    conv_b: Tensor,
    proj_w: Tensor,
    proj_b: Tensor,
    pos: Tensor,
) -> Tensor:
    """The patch stem as one op: [B,h,w,c] images -> [B, h*w, d] patch rows.

    Each grid cell's row is gelu(conv3x3_same(images, conv_w, conv_b)) at
    that cell, projected by proj_w:[m, d] and proj_b:[d], plus its row of
    the position code pos:[1, h*w, d]. Output and the bias gradients are bit
    for bit those of the taped chain conv3x3_same, gelu, affine and add: the
    same numpy arithmetic on arrays of the same shapes (gelu's through
    `_gelu_phi` and `_gelu_slope`), done in place. The weight gradients sum
    the chain's products per image, so no GEMM splits a sum by thread.

    images and pos are constants. The backward keeps the conv output z and
    Phi(z) only; it rebuilds the 3x3 columns from the images and gelu(z) as
    z * Phi(z). The op forms the chunk's arrays whole. The one output
    check also covers z and gelu(z): a non-finite entry there makes its
    whole output row non-finite. Tape-free, `krt` never calls it:
    `attention_block` and `weighted_rows_sum` take its arguments as a
    `Stem` and stream the stem by image blocks.
    """
    bsz, h, wd, c, m, d, dtype = _stem_dims(images, conv_w, conv_b, proj_w, proj_b, pos)
    n = h * wd
    # z, phi and out are allocated before the columns, so freeing them leaves no hole below them
    z, phi = np.empty((2, bsz * n, m), dtype=dtype)
    out = np.empty((bsz, n, d), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows fail the output check
        _stem_into(images.data, conv_w.data, conv_b.data, proj_w.data, proj_b.data, pos.data, z, phi, out, True)

    def per_image(a, g2):  # a^T g2 for a:[B*h*w, k], summed per image and then over images
        return np.matmul(a.reshape(bsz, h * wd, -1).transpose(0, 2, 1), g2.reshape(bsz, h * wd, -1)).sum(0)

    def bwd(g, images=images, conv_w=conv_w, conv_b=conv_b, proj_w=proj_w, proj_b=proj_b):
        res = []
        g2 = g.reshape(-1, d)
        if proj_w.requires_grad:
            res.append((proj_w, per_image(z * phi, g2)))
        if proj_b.requires_grad:
            res.append((proj_b, g2.sum(axis=0)))
        if conv_w.requires_grad or conv_b.requires_grad:
            g_z = g2 @ proj_w.data.T
            g_z *= _gelu_slope(z, phi)
            if conv_w.requires_grad:
                res.append((conv_w, per_image(_im2col3(images.data), g_z)))
            if conv_b.requires_grad:
                res.append((conv_b, g_z.sum(axis=0)))
        return res

    return _result(out, [conv_w, conv_b, proj_w, proj_b], bwd)


# ---------------------------------------------------------------------------
# parameter initialisation


def uniform_param(rng: np.random.Generator, shape, fan_in: int = None, dtype=np.float64) -> Tensor:
    """Trainable tensor initialised uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    fan_in defaults to the first extent of `shape` (input dimension of a
    weight matrix laid out [in, out]); tokens and biases pass it explicitly.
    """
    shape = tuple(shape)
    if fan_in is None:
        fan_in = shape[0]
    bound = 1.0 / math.sqrt(fan_in)
    data = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(data, requires_grad=True)
